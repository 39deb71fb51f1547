"""Discrete-event cluster simulator (Algorithms 1-2 of the paper).

The engine replays a collated job trace against a cluster specification:

* each simulated rank has a **host dispatch queue** that walks its trace in
  program order, paying the measured host delays (structured ``HOST_DELAY``
  events record only the deterministic base cost; the per-call jitter factor
  is materialized at replay time -- same seed, same call seq, same multiply
  as pre-split emulators, so replay is bit-identical to traces that baked
  the jitter in), enqueueing device work onto streams and blocking on
  synchronisation calls;
* each (rank, stream) pair is a FIFO **execution stream** that runs kernels,
  copies and collectives one at a time;
* CUDA events and collectives are resolved through the wait maps of
  Algorithm 3, which is where pipeline bubbles and compute/communication
  overlap emerge from first principles.

Durations come from a pluggable :class:`DurationProvider`; the engine itself
is shared between Maya's prediction path and the testbed reference model.

**How the engine reads a trace.**  There is one replay loop, and it never
touches a ``TraceEvent``.  Each representative trace's columns are lowered
once to an :class:`~repro.core.columnar.EngineProgram` (flat opcode /
operand tuples, memoized on the columns), and every duration it will need
is resolved up front into :class:`TraceAnnotations` -- one seq-indexed
vector per rank of kernel, collective and materialized host-delay
durations, plus the rank's collectives: a seq-indexed template slot and key
ordinal, and per collective template the matching-key prefix and the
number of replayed group members to wait for.  Every provider's
annotations come from the same :func:`trace_annotations` call, which runs
one :func:`build_trace_annotations` pass and memoizes it on the collated
trace per provider and replayed-rank set.  The inner loop is then integer
dispatch and tuple / array indexing only; starting a collective costs one
tuple concatenation for its key.

**Follow-ups run in place.**  Two handlers end by scheduling their own
follow-up: a host that pays a ``HOST_DELAY`` after ``run`` popped its
``HOST_READY`` schedules its next wake-up, and a stream whose op finished
schedules the completion of the kernel, memcpy or memset its drain starts
next.  When that follow-up is *strictly earlier* than the heap top (or the
heap is empty), the handler runs it in place instead of pushing and
popping it; it still advances ``now``, counts toward ``processed_events``
and checks ``max_events``.  This is exact: the heap pops the smallest
``(time, counter)``, and a new event's counter is higher than every queued
one, so a follow-up strictly earlier than the top *is* the next pop, and
the handler has no work left after scheduling it.  Equal times go to the
queued event, as they would through the heap.  Neither the initial
``for host in hosts`` pass nor a nested start (a host starting a stream,
an event record releasing a waiter) runs anything in place: there the
caller still has work to do at the current time.

**Tensor-parallel mirrors.**  Selective launch emulates one rank per
pipeline stage because tensor- and data-parallel peers do identical work;
the engine carries that over to replay.  When
:func:`tensor_parallel_mirrors` allows it, rank ``(dp, pp, t)`` with
``t > 0`` is not replayed: it *mirrors* ``(dp, pp, 0)``, and the report
gives it a copy of that rank's counters and markers.  This is exact, not
an approximation: under the rule's conditions column ``t`` runs the same
program with the same durations as column 0 (the same representative
trace, a rank-invariant provider, groups of the same size spanning the same
nodes), and the columns meet only in ``tp`` collectives.  With every
column replayed such a collective starts at the latest of identical
arrival times; with column 0 alone it expects one participant and starts
at that same time.  So every clock, counter and marker is bit-identical
to the full replay (the differential suites check it against the
per-event oracle); only ``processed_events`` and the timing metadata
shrink, and ``replayed_ranks`` records how many ranks ran.  There is no
switch: a provider that does not declare ``rank_invariant_kernels`` (the
jittered testbed) replays every rank.

The loop is checked against an independent per-event replay that walks the
event objects and calls the provider once per event
(``tests/reference_engine.py``), bit for bit over seeded random traces, and
both are pinned to recorded reports (``tests/goldens/engine_reports.json``).
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.collator import CollatedTrace, TopologyGroupResolver
from repro.core.columnar import (
    E_COLLECTIVE,
    E_DEVICE_SYNC,
    E_EVENT_SYNC,
    E_HOST_DELAY,
    E_KERNEL,
    E_MARKER,
    E_RECORD,
    E_STREAM_SYNC,
    EngineProgram,
    engine_program,
)
from repro.core.simulator.providers import (
    DurationProvider,
    TraceAnnotations,
    trace_annotations,
)
from repro.core.simulator.report import RankReport, SimulationReport
from repro.core.simulator.waitmaps import (
    CollectiveWaitMap,
    CudaEventWaitMap,
    P2PWaitMap,
)
from repro.hardware.cluster import ClusterSpec


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress (deadlock) or is
    otherwise mis-configured."""


@dataclass
class SimulationConfig:
    """Tunables of the simulation engine."""

    #: Ranks to simulate explicitly; ``None`` simulates the full world.
    simulate_ranks: Optional[Sequence[int]] = None
    #: Extra per-kernel slowdown applied while a collective is in flight on
    #: the same device.  Models SM contention; the paper notes Maya does NOT
    #: model this (Section 8), so it is enabled only for the testbed.
    sm_contention_factor: float = 1.0
    #: Safety valve: maximum number of processed simulation events.
    max_events: int = 50_000_000


#: Fixed receiver-side completion overhead for point-to-point transfers.
P2P_RECV_OVERHEAD = 3.0e-6


# Internal host states.
_HOST_RUNNING = 0
_HOST_BLOCKED = 1
_HOST_DONE = 2

#: Communicator tags whose groups the topology resolver remaps per rank.
_TOPOLOGY_TAGS = frozenset(("tp", "pp", "dp"))


class _Stream:
    """FIFO execution stream of one simulated rank."""

    __slots__ = ("rank", "stream_id", "queue", "busy", "available_time",
                 "blocked", "sync_waiters", "durations", "coll_slots",
                 "coll_ordinals", "coll_entries", "codes", "seqs", "ekeys")

    def __init__(self, rank: int, stream_id: int, program: EngineProgram,
                 annotations: TraceAnnotations) -> None:
        self.rank = rank
        self.stream_id = stream_id
        #: Pending work, as positions into the rank's program.
        self.queue: Deque[int] = deque()
        self.busy = False
        self.blocked = False
        self.available_time = 0.0
        self.sync_waiters: List["_Host"] = []
        #: Per-seq duration vector shared by the rank's host and streams.
        self.durations = annotations.durations[rank]
        #: The rank's resolved collectives (see ``RankCollectives``).
        (self.coll_slots, self.coll_ordinals,
         self.coll_entries) = annotations.collectives[rank]
        self.codes = program.codes
        self.seqs = program.seqs
        self.ekeys = program.ekeys

    def drained(self) -> bool:
        return not self.busy and not self.queue


class _Host:
    """Host dispatch queue of one simulated rank."""

    __slots__ = ("rank", "cursor", "state", "time", "waiting_streams",
                 "markers", "durations", "codes", "streams0", "seqs",
                 "ekeys", "labels", "n")

    def __init__(self, rank: int, program: EngineProgram,
                 durations: Sequence[float]) -> None:
        self.rank = rank
        self.cursor = 0
        self.state = _HOST_RUNNING
        self.time = 0.0
        self.waiting_streams: Set[Tuple[int, int]] = set()
        self.markers: Dict[str, float] = {}
        #: Per-seq durations (materialized HOST_DELAYs at their seqs).
        self.durations = durations
        self.codes = program.codes
        self.streams0 = program.streams
        self.seqs = program.seqs
        self.ekeys = program.ekeys
        self.labels = program.labels
        self.n = program.n


def tensor_parallel_mirrors(cluster: ClusterSpec, provider: DurationProvider,
                            collated: CollatedTrace,
                            ranks: Sequence[int]) -> Dict[int, int]:
    """Requested ranks whose timeline is a copy of a tensor-parallel peer's.

    Maps rank ``(dp, pp, t)``, ``t > 0``, to ``(dp, pp, 0)`` (see the
    module docstring for why that is exact) when all of these hold:

    * the provider declares ``rank_invariant_kernels``;
    * groups come from a :class:`TopologyGroupResolver` and every
      collective of the requested ranks' representatives is tagged
      ``tp``, ``pp`` or ``dp``;
    * ``gpus_per_node`` is a multiple of the tensor-parallel degree, so
      each of column ``t``'s groups spans the nodes of column 0's;
    * the requested ranks are whole tensor-parallel groups, every member
      sharing the representative trace of the group's column-0 rank.

    Otherwise nothing is mirrored.
    """
    resolver = collated.group_resolver
    if not (getattr(provider, "rank_invariant_kernels", False)
            and isinstance(resolver, TopologyGroupResolver)):
        return {}
    topology = resolver.topology
    width = topology.tensor_parallel
    if width == 1 or cluster.gpus_per_node % width:
        return {}
    representative = collated.representative
    tables = collated.resolutions
    for rep in {representative[rank] for rank in ranks}:
        if any(record.tag not in _TOPOLOGY_TAGS
               for record in tables[rep].records):
            return {}
    requested = set(ranks)
    mirrors: Dict[int, int] = {}
    for rank in ranks:
        group = topology.tensor_parallel_group(rank)
        source = group[0]
        if (not requested.issuperset(group)
                or representative[rank] != representative[source]):
            return {}
        if rank != source:
            mirrors[rank] = source
    return mirrors


class ClusterSimulator:
    """Replays a collated trace on a simulated cluster."""

    def __init__(self, cluster: ClusterSpec, provider: DurationProvider,
                 config: Optional[SimulationConfig] = None) -> None:
        self.cluster = cluster
        self.provider = provider
        self.config = config or SimulationConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def simulate(self, collated: CollatedTrace,
                 iterations: int = 1) -> SimulationReport:
        start = time.perf_counter()
        ranks = self._resolve_ranks(collated)
        mirrors = tensor_parallel_mirrors(self.cluster, self.provider,
                                          collated, ranks)
        state = _SimulationState(self, collated, ranks, mirrors)
        state.run()
        report = state.build_report(iterations)
        wall_time = time.perf_counter() - start
        report.metadata["wall_time_s"] = wall_time
        report.metadata["events_per_sec"] = (
            state.processed_events / wall_time if wall_time > 0.0 else 0.0)
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_ranks(self, collated: CollatedTrace) -> List[int]:
        if self.config.simulate_ranks is not None:
            ranks = sorted(set(self.config.simulate_ranks))
        else:
            ranks = list(range(collated.world_size))
        missing = [rank for rank in ranks if rank not in collated.representative]
        if missing:
            raise SimulationError(f"no trace available for ranks {missing[:8]}")
        return ranks


class _SimulationState:
    """Mutable state of one simulation run.

    Only the replayed ranks (``ranks``) get hosts, streams and reports;
    the mirrors are added back by :meth:`build_report`.
    """

    def __init__(self, simulator: ClusterSimulator, collated: CollatedTrace,
                 requested: List[int], mirrors: Dict[int, int]) -> None:
        self.collated = collated
        self.config = simulator.config
        self.provider = simulator.provider
        #: Every requested rank, in rank order; mirror -> replayed source.
        self.requested = requested
        self.mirrors = mirrors
        ranks = [rank for rank in requested if rank not in mirrors]
        self.ranks = ranks

        self.annotations: TraceAnnotations = trace_annotations(
            self.provider, collated, ranks)

        rep_programs = {
            rep: engine_program(collated.traces[rep].columns)
            for rep in {collated.representative[rank] for rank in ranks}}
        self.programs: Dict[int, EngineProgram] = {
            rank: rep_programs[collated.representative[rank]]
            for rank in ranks}
        self.hosts: Dict[int, _Host] = {
            rank: _Host(rank, self.programs[rank],
                        self.annotations.durations[rank])
            for rank in ranks}
        self._sm_contention = self.config.sm_contention_factor > 1.0
        self.streams: Dict[Tuple[int, int], _Stream] = {}
        self.event_map = CudaEventWaitMap()
        self.collective_map = CollectiveWaitMap()
        self.p2p_map = P2PWaitMap()
        #: Number of in-flight collectives per rank (SM-contention modelling).
        self.inflight_collectives: Dict[int, int] = {rank: 0 for rank in ranks}
        self.queue: List[Tuple[float, int, int, object]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.processed_events = 0
        self.rank_reports: Dict[int, RankReport] = {
            rank: RankReport(rank=rank) for rank in ranks
        }

    # ------------------------------------------------------------------
    # event queue helpers
    # ------------------------------------------------------------------
    _HOST_READY = 0
    #: Op completions carry only the stream; whether the finished op was a
    #: collective (for SM-contention accounting) is encoded in the heap kind.
    _OP_END = 1
    _COLL_END = 2

    def _schedule(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self.queue, (time, next(self._counter), kind, payload))

    def _stream(self, rank: int, stream_id: int) -> _Stream:
        # Programs already map the default stream (``None``) to 0.
        key = (rank, stream_id)
        stream = self.streams.get(key)
        if stream is None:
            stream = _Stream(rank, stream_id, self.programs[rank],
                             self.annotations)
            self.streams[key] = stream
        return stream

    # ------------------------------------------------------------------
    # main loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> None:
        for host in self.hosts.values():
            self._advance_host(host, 0.0, False)
        queue = self.queue
        heappop = heapq.heappop
        max_events = self.config.max_events
        host_ready = self._HOST_READY
        coll_end = self._COLL_END
        advance_host = self._advance_host
        finish_op = self._finish_op
        while queue:
            time, _, kind, payload = heappop(queue)
            if self.now < time:
                self.now = time
            self.processed_events += 1
            if self.processed_events > max_events:
                self._exceeded_budget()
            if kind == host_ready:
                host = payload
                if host.state != _HOST_DONE:
                    host.state = _HOST_RUNNING
                    advance_host(host, time, True)
            else:
                finish_op(payload, kind == coll_end, time)
        self._check_finished()

    def _exceeded_budget(self) -> None:
        raise SimulationError(
            f"simulation exceeded max_events budget "
            f"({self.config.max_events:,}): world size "
            f"{self.collated.world_size} with {len(self.ranks)} "
            f"replayed ranks processed {self.processed_events:,} "
            f"events at simulated time {self.now:.3f}s"
        )

    def _check_finished(self) -> None:
        stuck_hosts = [host.rank for host in self.hosts.values()
                       if host.state != _HOST_DONE]
        stuck_streams = [key for key, stream in self.streams.items()
                         if not stream.drained()]
        if stuck_hosts or stuck_streams:
            pending_colls = list(self.collective_map.pending().keys())[:4]
            pending_p2p = list(self.p2p_map.pending().keys())[:4]
            raise SimulationError(
                "simulation deadlocked: "
                f"hosts blocked on ranks {stuck_hosts[:8]}, "
                f"streams stuck {stuck_streams[:8]}, "
                f"pending collectives {pending_colls}, "
                f"pending p2p {pending_p2p}"
            )

    # ------------------------------------------------------------------
    # host dispatch queue
    # ------------------------------------------------------------------
    def _advance_host(self, host: _Host, now: float, in_place: bool) -> None:
        """Run ``host`` forward until it pays a delay, blocks or finishes.

        Every state transition, float operation and schedule happens in the
        order the reference replay performs it, which is what makes the two
        bit-identical (asserted by the randomized differential suites).
        With ``in_place``, a wake-up that would be the next pop is run here
        (see the module docstring).
        """
        if host.time < now:
            host.time = now
        codes = host.codes
        streams0 = host.streams0
        streams = self.streams
        rank = host.rank
        n = host.n
        seqs = host.seqs
        durations = host.durations
        report = self.rank_reports[rank]
        queue = self.queue
        cursor = host.cursor
        while cursor < n:
            code = codes[cursor]
            if code < E_HOST_DELAY:  # enqueue device work (E_KERNEL..E_WAIT)
                stream = streams.get((rank, streams0[cursor]))
                if stream is None:
                    stream = self._stream(rank, streams0[cursor])
                stream.queue.append(cursor)
                cursor += 1
                # A busy/blocked stream cannot start new work: the drain
                # loop would return immediately, so skip the call.
                if not stream.busy and not stream.blocked:
                    self._try_start_stream(stream, host.time)
                continue
            if code == E_HOST_DELAY:
                cursor += 1
                duration = durations[seqs[cursor - 1]]
                host.time += duration
                report.host_time += duration
                if in_place and (not queue or host.time < queue[0][0]):
                    # The wake-up is the next pop: run it here.
                    if self.now < host.time:
                        self.now = host.time
                    self.processed_events += 1
                    if self.processed_events > self.config.max_events:
                        self._exceeded_budget()
                    continue
                host.cursor = cursor
                heapq.heappush(queue, (host.time, next(self._counter),
                                       self._HOST_READY, host))
                return
            if code == E_MARKER:
                label = host.labels[cursor]
                host.markers[label] = host.time
                cursor += 1
                continue
            if code == E_EVENT_SYNC:
                key = (rank,) + host.ekeys[cursor]
                if self.event_map.is_complete(key):
                    completion = self.event_map.completion_time(key)
                    if host.time < completion:
                        host.time = completion
                    cursor += 1
                    continue
                host.cursor = cursor
                self.event_map.block(key, ("host", host))
                host.state = _HOST_BLOCKED
                return
            if code == E_STREAM_SYNC:
                stream = self._stream(rank, streams0[cursor])
                if stream.drained():
                    if host.time < stream.available_time:
                        host.time = stream.available_time
                    cursor += 1
                    continue
                stream.sync_waiters.append(host)
                host.waiting_streams = {(rank, stream.stream_id)}
                host.state = _HOST_BLOCKED
                host.cursor = cursor + 1
                return
            if code == E_DEVICE_SYNC:
                pending = {key for key, stream in streams.items()
                           if key[0] == rank and not stream.drained()}
                if not pending:
                    latest = max((stream.available_time
                                  for key, stream in streams.items()
                                  if key[0] == rank), default=host.time)
                    if host.time < latest:
                        host.time = latest
                    cursor += 1
                    continue
                for key in pending:
                    streams[key].sync_waiters.append(host)
                host.waiting_streams = pending
                host.state = _HOST_BLOCKED
                host.cursor = cursor + 1
                return
            # E_SKIP: event-handle create/destroy records never enqueue.
            cursor += 1
        host.cursor = cursor
        host.state = _HOST_DONE
        if report.finish_time < host.time:
            report.finish_time = host.time

    def _release_host(self, host: _Host, time: float) -> None:
        # Only a blocked host may be released.  Two streams draining at the
        # same timestamp can both notify one device-synchronize waiter; the
        # duplicate release used to enqueue a second HOST_READY that pushed
        # the host past its *next* synchronize (the cursor advances before
        # blocking), letting it run ahead of busy streams.
        if host.state != _HOST_BLOCKED:
            return
        host.state = _HOST_RUNNING
        self._schedule(time, self._HOST_READY, host)

    def _notify_stream_drained(self, stream: _Stream, time: float) -> None:
        if not stream.drained() or not stream.sync_waiters:
            return
        waiters, stream.sync_waiters = stream.sync_waiters, []
        for host in waiters:
            host.waiting_streams.discard((stream.rank, stream.stream_id))
            if not host.waiting_streams:
                host.time = max(host.time, time)
                self._release_host(host, time)
            else:
                # Still waiting on other streams (device synchronize).
                stream_key_pending = False
                for key in list(host.waiting_streams):
                    pending_stream = self.streams.get(key)
                    if pending_stream is None or pending_stream.drained():
                        host.waiting_streams.discard(key)
                    else:
                        stream_key_pending = True
                if not stream_key_pending:
                    host.time = max(host.time, time)
                    self._release_host(host, time)

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def _try_start_stream(self, stream: _Stream, now: float,
                          in_place: bool = False) -> None:
        """Drain ``stream`` and wake its synchronizers if it ran dry.

        Inlines :meth:`_Stream.drained`; the notification is skipped when
        nobody is synchronizing on the stream (it would be a no-op).
        """
        self._drain_stream(stream, now, in_place)
        if (stream.sync_waiters and not stream.busy and not stream.blocked
                and not stream.queue):
            # After in-place completions ``now`` may trail them, but the
            # stream is then available no earlier than the last one.
            available = stream.available_time
            self._notify_stream_drained(
                stream, available if available > now else now)

    def _drain_stream(self, stream: _Stream, now: float,
                      in_place: bool = False) -> None:
        """Start queued work until the stream is busy, blocked or empty.

        With ``in_place``, a started kernel, memcpy or memset whose end
        would be the next pop completes here, as :meth:`_finish_op` would
        complete it, and the drain goes on from its end (see the module
        docstring).
        """
        codes = stream.codes
        seqs = stream.seqs
        queue = stream.queue
        durations = stream.durations
        heap = self.queue
        while not stream.busy and not stream.blocked and queue:
            pos = queue[0]
            start = stream.available_time
            if start < now:
                start = now
            code = codes[pos]
            if code < E_COLLECTIVE:  # kernel / memcpy / memset
                duration = durations[seqs[pos]]
                if (code == E_KERNEL and self._sm_contention
                        and self.inflight_collectives.get(stream.rank,
                                                          0) > 0):
                    duration *= self.config.sm_contention_factor
                queue.popleft()
                end = start + duration
                stream.available_time = end
                report = self.rank_reports[stream.rank]
                if code == E_KERNEL:
                    report.compute_time += duration
                    report.kernel_count += 1
                else:
                    report.memcpy_time += duration
                if in_place and (not heap or end < heap[0][0]):
                    # The completion is the next pop: finish the op here.
                    if self.now < end:
                        self.now = end
                    self.processed_events += 1
                    if self.processed_events > self.config.max_events:
                        self._exceeded_budget()
                    if report.finish_time < end:
                        report.finish_time = end
                    now = end
                    continue
                stream.busy = True
                heapq.heappush(heap, (end, next(self._counter), self._OP_END,
                                      stream))
                return
            if code == E_COLLECTIVE:
                if self._start_collective(stream, seqs[pos], start):
                    continue
                return
            if code == E_RECORD:
                queue.popleft()
                stream.available_time = start
                key = (stream.rank,) + stream.ekeys[pos]
                for waiter in self.event_map.record(key, start):
                    self._release_waiter(waiter, start)
                continue
            # E_WAIT: stream-waits-event.
            key = (stream.rank,) + stream.ekeys[pos]
            if self.event_map.is_complete(key):
                queue.popleft()
                completion = self.event_map.completion_time(key)
                stream.available_time = (start if start > completion
                                         else completion)
                continue
            stream.blocked = True
            self.event_map.block(key, ("stream", stream))
            return

    def _release_waiter(self, waiter: Tuple[str, object], time: float) -> None:
        kind, target = waiter
        if kind == "host":
            host = target
            host.time = max(host.time, time)
            host.cursor += 1  # consume the EVENT_SYNCHRONIZE entry
            self._release_host(host, time)
        elif kind == "stream":
            stream = target
            stream.blocked = False
            stream.queue.popleft()  # consume the STREAM_WAIT_EVENT entry
            stream.available_time = max(stream.available_time, time)
            self._try_start_stream(stream, time)
        else:  # "recv": the matching send's payload has arrived
            stream, recv_ready = target
            self._complete_recv(stream, recv_ready, time)

    # ------------------------------------------------------------------
    # collectives and point-to-point transfers
    # ------------------------------------------------------------------
    def _start_collective(self, stream: _Stream, seq: int,
                          start: float) -> bool:
        """Start the collective at the head of ``stream``.

        Returns True when the stream can keep draining immediately, False
        when it is now busy or blocked.  The collective's template entry
        carries its matching-key prefix and expected participant count,
        its duration is in the rank's duration vector; a seq with no entry
        means the collator had no resolution for it, and it replays as a
        local no-op.
        """
        slot = stream.coll_slots[seq]
        if slot < 0:
            stream.queue.popleft()
            stream.available_time = start
            return True
        p2p_op, prefix, expected = stream.coll_entries[slot]
        key = prefix + (stream.coll_ordinals[seq],)
        duration = stream.durations[seq]
        if p2p_op is not None:
            self._start_p2p(stream, p2p_op, key, start, duration)
            return False
        instance = self.collective_map.join(key, expected, stream.rank,
                                            stream.stream_id, start)
        if instance is None:
            stream.blocked = True
            return False
        coll_start = instance.start_time
        end = coll_start + duration
        for rank, stream_id, ready in instance.joined:
            member = self._stream(rank, stream_id)
            member.blocked = False
            if member.queue:
                member.queue.popleft()
            member.busy = True
            member.available_time = end
            report = self.rank_reports[rank]
            report.communication_time += duration
            report.exposed_communication_time += max(end - ready, 0.0) - \
                max(coll_start - ready, 0.0)
            report.collective_count += 1
            self.inflight_collectives[rank] = (
                self.inflight_collectives.get(rank, 0) + 1)
            self._schedule(end, self._COLL_END, member)
        return False

    def _start_p2p(self, stream: _Stream, op: str, key: Tuple,
                   start: float, duration: float) -> None:
        report = self.rank_reports[stream.rank]
        if op == "send":
            stream.queue.popleft()
            stream.busy = True
            end = start + duration
            stream.available_time = end
            report.communication_time += duration
            report.collective_count += 1
            waiter = self.p2p_map.post_send(key, end)
            if waiter is not None:
                self._release_waiter(("recv", waiter), end)
            self._schedule(end, self._COLL_END, stream)
            return
        # Receive: completes once the matching send's payload has arrived.
        send_end = self.p2p_map.post_recv(key, (stream, start), start)
        if send_end is None:
            stream.blocked = True
            return
        self._complete_recv(stream, start, send_end)

    def _complete_recv(self, stream: _Stream, recv_ready: float,
                       send_end: float) -> None:
        end = max(recv_ready, send_end) + P2P_RECV_OVERHEAD
        stream.blocked = False
        if stream.queue:
            stream.queue.popleft()
        stream.busy = True
        stream.available_time = end
        duration = max(end - recv_ready, 0.0)
        report = self.rank_reports[stream.rank]
        report.communication_time += duration
        report.exposed_communication_time += duration
        report.collective_count += 1
        self._schedule(end, self._COLL_END, stream)

    # ------------------------------------------------------------------
    # op completion
    # ------------------------------------------------------------------
    def _finish_op(self, stream: _Stream, was_collective: bool,
                   time: float) -> None:
        stream.busy = False
        if stream.available_time < time:
            stream.available_time = time
        if was_collective:
            count = self.inflight_collectives.get(stream.rank, 0)
            if count > 0:
                self.inflight_collectives[stream.rank] = count - 1
        report = self.rank_reports[stream.rank]
        if report.finish_time < time:
            report.finish_time = time
        self._try_start_stream(stream, time, True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def build_report(self, iterations: int) -> SimulationReport:
        """The report of every requested rank; a mirror gets a copy of its
        source's counters and markers (the maxima below are unchanged by
        the duplicates it would have added)."""
        finish_times = [report.finish_time for report in self.rank_reports.values()]
        host_times = [host.time for host in self.hosts.values()]
        stream_times = [stream.available_time for stream in self.streams.values()]
        total = max(finish_times + host_times + stream_times + [0.0])

        rank_reports: Dict[int, RankReport] = {}
        markers: Dict[str, Dict[int, float]] = {}
        for rank in self.requested:
            source = self.mirrors.get(rank, rank)
            report = self.rank_reports[source]
            rank_reports[rank] = (report if source == rank
                                  else replace(report, rank=rank))
            for label, timestamp in self.hosts[source].markers.items():
                markers.setdefault(label, {})[rank] = timestamp

        metadata: Dict[str, object] = {
            "simulated_ranks": len(self.requested),
            "replayed_ranks": len(self.ranks),
            "processed_events": self.processed_events,
            "world_size": self.collated.world_size,
        }
        return SimulationReport(
            total_time=total,
            iterations=iterations,
            rank_reports=rank_reports,
            peak_memory_bytes=self.collated.peak_memory_bytes(),
            oom=self.collated.any_oom(),
            markers=markers,
            metadata=metadata,
        )
