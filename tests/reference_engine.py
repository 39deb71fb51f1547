"""Reference replay: the per-event simulation loop, kept as the test oracle.

The production engine (:mod:`repro.core.simulator.engine`) never touches a
``TraceEvent`` while replaying: it lowers each trace to opcode lists, reads
durations from pre-built annotation arrays and mirrors tensor-parallel
peers.  This module is the independent derivation those layers are checked
against -- the same Algorithms 1-2, written the obvious way: walk the event
objects, ask the provider for every duration and the host model for every
host delay at the moment the event is replayed, replay every rank.  It
shares the wait maps and the report types with the engine and nothing that
reads a trace, so a bug in lowering, annotation or mirroring cannot hide in
both.

Deliberately slow and deliberately not in ``src/``; used by the
differential seeds in ``test_simulator.py`` / ``test_host_delay_model.py``
and pinned, like the engine, by ``goldens/engine_reports.json``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from repro.core.simulator.engine import (
    P2P_RECV_OVERHEAD,
    SimulationConfig,
    SimulationError,
)
from repro.core.simulator.report import RankReport, SimulationReport
from repro.core.simulator.waitmaps import (
    CollectiveWaitMap,
    CudaEventWaitMap,
    P2PWaitMap,
)
from repro.core.trace import TraceEventKind as Kind
from repro.hardware.host_model import host_delay_materializer

_RUNNING, _BLOCKED, _DONE = range(3)
_HOST_READY, _OP_END = range(2)
_STREAM_WORK = (Kind.KERNEL, Kind.MEMCPY, Kind.MEMSET, Kind.COLLECTIVE,
                Kind.EVENT_RECORD, Kind.STREAM_WAIT_EVENT)


class _Stream:
    def __init__(self, rank, stream_id):
        self.rank = rank
        self.stream_id = stream_id
        self.queue = deque()
        self.busy = False
        self.blocked = False
        self.available_time = 0.0
        self.sync_waiters = []

    def drained(self):
        return not self.busy and not self.queue


class _Host:
    def __init__(self, rank, trace):
        self.rank = rank
        self.events = trace.events
        self.materialize = host_delay_materializer(trace.metadata)
        self.cursor = 0
        self.state = _RUNNING
        self.time = 0.0
        self.waiting_streams = set()
        self.markers = {}


def _event_key(rank, handle, event):
    return CudaEventWaitMap.key(rank, handle or 0,
                                int(event.params.get("version", 0)))


class _Replay:
    def __init__(self, provider, collated, config, ranks):
        self.provider = provider
        self.collated = collated
        self.config = config
        self.rank_set = set(ranks)
        self.hosts = {rank: _Host(rank, collated.trace_for(rank))
                      for rank in ranks}
        self.streams = {}
        self.event_map = CudaEventWaitMap()
        self.collective_map = CollectiveWaitMap()
        self.p2p_map = P2PWaitMap()
        self.inflight_collectives = {rank: 0 for rank in ranks}
        self.queue = []
        self.counter = itertools.count()
        self.processed_events = 0
        self.reports = {rank: RankReport(rank=rank) for rank in ranks}

    def schedule(self, time, kind, payload):
        heapq.heappush(self.queue, (time, next(self.counter), kind, payload))

    def stream(self, rank, stream_id):
        key = (rank, stream_id if stream_id is not None else 0)
        if key not in self.streams:
            self.streams[key] = _Stream(*key)
        return self.streams[key]

    def rank_streams(self, rank):
        return {key: stream for key, stream in self.streams.items()
                if key[0] == rank}

    # -- main loop (Algorithm 1) ---------------------------------------
    def run(self):
        for host in self.hosts.values():
            self.advance_host(host, 0.0)
        while self.queue:
            time, _, kind, payload = heapq.heappop(self.queue)
            self.processed_events += 1
            if self.processed_events > self.config.max_events:
                raise SimulationError("reference replay exceeded max_events")
            if kind == _HOST_READY:
                if payload.state != _DONE:
                    payload.state = _RUNNING
                    self.advance_host(payload, time)
            else:
                self.finish_op(*payload, time)
        stuck_hosts = [h.rank for h in self.hosts.values() if h.state != _DONE]
        stuck_streams = [k for k, s in self.streams.items() if not s.drained()]
        if stuck_hosts or stuck_streams:
            raise SimulationError(
                f"simulation deadlocked: hosts blocked on ranks "
                f"{stuck_hosts[:8]}, streams stuck {stuck_streams[:8]}")

    # -- host dispatch queue -------------------------------------------
    def advance_host(self, host, now):
        host.time = max(host.time, now)
        rank = host.rank
        while host.cursor < len(host.events):
            event = host.events[host.cursor]
            kind = event.kind
            if kind is Kind.HOST_DELAY:
                host.cursor += 1
                duration = host.materialize(event)
                host.time += duration
                self.reports[rank].host_time += duration
                self.schedule(host.time, _HOST_READY, host)
                return
            if kind is Kind.MARKER:
                host.markers[str(event.params.get("label", ""))] = host.time
            elif kind in _STREAM_WORK:
                if not (kind is Kind.EVENT_RECORD
                        and (event.params.get("create")
                             or event.params.get("destroy"))):
                    stream = self.stream(rank, event.stream)
                    stream.queue.append(event)
                    host.cursor += 1
                    self.try_start_stream(stream, host.time)
                    continue
            elif kind is Kind.EVENT_SYNCHRONIZE:
                key = _event_key(rank, event.wait_event, event)
                if not self.event_map.is_complete(key):
                    self.event_map.block(key, ("host", host))
                    host.state = _BLOCKED
                    return  # the releasing record consumes this entry
                host.time = max(host.time, self.event_map.completion_time(key))
            elif kind in (Kind.STREAM_SYNCHRONIZE, Kind.DEVICE_SYNCHRONIZE):
                if kind is Kind.STREAM_SYNCHRONIZE:
                    stream = self.stream(rank, event.stream)
                    watched = {(rank, stream.stream_id): stream}
                else:
                    watched = self.rank_streams(rank)
                pending = {key for key, stream in watched.items()
                           if not stream.drained()}
                if pending:
                    for key in pending:
                        self.streams[key].sync_waiters.append(host)
                    host.waiting_streams = pending
                    host.state = _BLOCKED
                    host.cursor += 1
                    return
                host.time = max([host.time] + [stream.available_time
                                               for stream in watched.values()])
            host.cursor += 1  # unknown kinds are skipped
        host.state = _DONE
        report = self.reports[rank]
        report.finish_time = max(report.finish_time, host.time)

    def release_host(self, host, time):
        # Two streams draining at one timestamp may both notify a device
        # synchronize; only the first release may wake the host.
        if host.state == _BLOCKED:
            host.state = _RUNNING
            self.schedule(time, _HOST_READY, host)

    def notify_stream_drained(self, stream, time):
        if not stream.drained():
            return
        waiters, stream.sync_waiters = stream.sync_waiters, []
        for host in waiters:
            host.waiting_streams = {
                key for key in host.waiting_streams
                if key != (stream.rank, stream.stream_id)
                and key in self.streams and not self.streams[key].drained()}
            if not host.waiting_streams:
                host.time = max(host.time, time)
                self.release_host(host, time)

    # -- streams -------------------------------------------------------
    def try_start_stream(self, stream, now):
        self.drain_stream(stream, now)
        self.notify_stream_drained(stream, max(stream.available_time, now))

    def drain_stream(self, stream, now):
        rank = stream.rank
        while not stream.busy and not stream.blocked and stream.queue:
            event = stream.queue[0]
            kind = event.kind
            start = max(stream.available_time, now)
            if kind is Kind.EVENT_RECORD:
                stream.queue.popleft()
                stream.available_time = start
                key = _event_key(rank, event.event, event)
                for waiter in self.event_map.record(key, start):
                    self.release_waiter(waiter, start)
            elif kind is Kind.STREAM_WAIT_EVENT:
                key = _event_key(rank, event.wait_event, event)
                if not self.event_map.is_complete(key):
                    stream.blocked = True
                    self.event_map.block(key, ("stream", stream))
                    return
                stream.queue.popleft()
                stream.available_time = max(
                    start, self.event_map.completion_time(key))
            elif kind is Kind.COLLECTIVE:
                if not self.start_collective(stream, event, start):
                    return
            else:  # kernel, copy, memset
                duration = self.provider.kernel_duration(rank, event)
                if (kind is Kind.KERNEL
                        and self.config.sm_contention_factor > 1.0
                        and self.inflight_collectives[rank] > 0):
                    duration *= self.config.sm_contention_factor
                report = self.reports[rank]
                if kind is Kind.KERNEL:
                    report.compute_time += duration
                    report.kernel_count += 1
                else:
                    report.memcpy_time += duration
                self.occupy(stream, event, start + duration)
                return

    def occupy(self, stream, event, end):
        """Start the op at the head of ``stream``; it completes at ``end``."""
        stream.blocked = False
        if stream.queue:
            stream.queue.popleft()
        stream.busy = True
        stream.available_time = end
        self.schedule(end, _OP_END, (stream, event))

    def release_waiter(self, waiter, time):
        kind, target = waiter
        if kind == "host":
            target.time = max(target.time, time)
            target.cursor += 1  # consume the EVENT_SYNCHRONIZE entry
            self.release_host(target, time)
        elif kind == "stream":
            target.blocked = False
            target.queue.popleft()  # consume the STREAM_WAIT_EVENT entry
            target.available_time = max(target.available_time, time)
            self.try_start_stream(target, time)
        else:  # a receive whose matching send just posted
            self.complete_recv(*target, time)

    # -- collectives and point-to-point transfers ----------------------
    def start_collective(self, stream, event, start):
        """True when the stream may keep draining (local no-op)."""
        rank = stream.rank
        resolution = self.collated.resolution_for(rank, event)
        if resolution is None:
            stream.queue.popleft()
            stream.available_time = start
            return True
        resolver = self.collated.group_resolver
        group = tuple(resolver.group_for(rank, resolution.tag,
                                         resolution.representative_group))
        key = resolution.key_for(rank, resolver)
        if resolution.is_p2p:
            self.start_p2p(stream, event, resolution, group, key, start)
            return False
        expected = max(sum(1 for r in group if r in self.rank_set), 1)
        instance = self.collective_map.join(key, expected, rank,
                                            stream.stream_id, start)
        if instance is None:
            stream.blocked = True
            return False
        duration = self.provider.collective_duration(rank, event, resolution,
                                                     group)
        begin = instance.start_time
        end = begin + duration
        for member_rank, stream_id, ready in instance.joined:
            report = self.reports[member_rank]
            report.communication_time += duration
            report.exposed_communication_time += \
                max(end - ready, 0.0) - max(begin - ready, 0.0)
            report.collective_count += 1
            self.inflight_collectives[member_rank] += 1
            self.occupy(self.stream(member_rank, stream_id), event, end)
        return False

    def start_p2p(self, stream, event, resolution, group, key, start):
        if resolution.op != "send":
            # Receive: completes once the matching send's payload arrived.
            send_end = self.p2p_map.post_recv(key, (stream, event, start),
                                              start)
            if send_end is None:
                stream.blocked = True
            else:
                self.complete_recv(stream, event, start, send_end)
            return
        me, peer = resolution.self_position, resolution.peer_position
        if peer is not None and len(group) > max(me, peer):
            pair = (group[me], group[peer])
        else:
            pair = tuple(group[:2]) if len(group) >= 2 else group
        duration = self.provider.collective_duration(stream.rank, event,
                                                     resolution, pair)
        end = start + duration
        report = self.reports[stream.rank]
        report.communication_time += duration
        report.collective_count += 1
        stream.queue.popleft()
        stream.busy = True
        stream.available_time = end
        waiter = self.p2p_map.post_send(key, end)
        if waiter is not None:
            self.release_waiter(("recv", waiter), end)
        self.schedule(end, _OP_END, (stream, event))

    def complete_recv(self, stream, event, recv_ready, send_end):
        end = max(recv_ready, send_end) + P2P_RECV_OVERHEAD
        duration = max(end - recv_ready, 0.0)
        report = self.reports[stream.rank]
        report.communication_time += duration
        report.exposed_communication_time += duration
        report.collective_count += 1
        self.occupy(stream, event, end)

    def finish_op(self, stream, event, time):
        stream.busy = False
        stream.available_time = max(stream.available_time, time)
        rank = stream.rank
        if event.kind is Kind.COLLECTIVE and self.inflight_collectives[rank]:
            self.inflight_collectives[rank] -= 1
        report = self.reports[rank]
        report.finish_time = max(report.finish_time, time)
        self.try_start_stream(stream, time)


def reference_simulate(cluster, provider, collated, config=None,
                       iterations=1):
    """Replay ``collated`` event by event; same report as the engine.

    Honours every :class:`SimulationConfig` field.
    """
    config = config or SimulationConfig()
    ranks = (sorted(set(config.simulate_ranks))
             if config.simulate_ranks is not None
             else list(range(collated.world_size)))
    missing = [rank for rank in ranks if rank not in collated.representative]
    if missing:
        raise SimulationError(f"no trace available for ranks {missing[:8]}")
    replay = _Replay(provider, collated, config, ranks)
    replay.run()
    clocks = ([report.finish_time for report in replay.reports.values()]
              + [host.time for host in replay.hosts.values()]
              + [stream.available_time for stream in replay.streams.values()])
    markers = {}
    for host in replay.hosts.values():
        for label, timestamp in host.markers.items():
            markers.setdefault(label, {})[host.rank] = timestamp
    return SimulationReport(
        total_time=max(clocks + [0.0]), iterations=iterations,
        rank_reports=replay.reports,
        peak_memory_bytes=collated.peak_memory_bytes(),
        oom=collated.any_oom(), markers=markers,
        metadata={"simulated_ranks": len(ranks),
                  "processed_events": replay.processed_events,
                  "world_size": collated.world_size})
