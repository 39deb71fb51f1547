"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import copy
import dataclasses
import functools
import gc
import hashlib
import heapq
import pickle
import random
import re
import weakref

import pytest

from repro.analysis.experiments import candidate_recipes
from repro.core.collator import IdentityGroupResolver, TraceCollator
from repro.core.emulator import EmulationSession
from repro.core.pipeline import MayaPipeline, simulation_ranks
from repro.core.simulator import engine as engine_module
from repro.core.simulator import providers as providers_module
from repro.core.simulator.engine import (
    ClusterSimulator,
    SimulationConfig,
    SimulationError,
)
from repro.core.simulator.providers import GroundTruthDurationProvider
from repro.framework.recipe import TrainingRecipe
from repro.hardware.host_model import HOST_MODEL_METADATA_KEY
from repro.service import wire
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer
from repro.core.simulator.waitmaps import (
    CollectiveWaitMap,
    CudaEventWaitMap,
    P2PWaitMap,
)
from repro.core.trace import (
    JobTrace,
    TraceColumns,
    TraceEvent,
    TraceEventKind,
    WorkerTrace,
)
from repro.hardware.cluster import get_cluster

from reference_engine import reference_simulate


class ConstantProvider:
    """Duration provider with fixed kernel / collective durations; an
    event's ``duration`` param overrides them."""

    def __init__(self, kernel=1.0, collective=2.0):
        self.kernel = kernel
        self.collective = collective

    def kernel_duration(self, rank, event):
        return float(event.params.get("duration", self.kernel))

    def collective_duration(self, rank, event, resolution, group):
        return float(event.params.get("duration", self.collective))

    def shape_duration(self, kernel_class, params, signature):
        return float(params.get("duration", self.kernel))

    def collective_shape_duration(self, op, nbytes, group):
        return self.collective

    def vary_durations(self, rank, durations, trace, table, groups):
        # A collective template carries no params, so each collective's
        # own ``duration`` param is applied per invocation.
        for event in trace.events:
            if event.kind is TraceEventKind.COLLECTIVE:
                durations[event.seq] = self.collective_duration(
                    rank, event, None, ())


def kernel(stream=0, duration=1.0, device=0):
    return TraceEvent(kind=TraceEventKind.KERNEL, api="k", device=device,
                      stream=stream, kernel_class="elementwise",
                      params={"duration": duration, "bytes": 1.0})


def host_delay(duration=0.1, device=0):
    return TraceEvent(kind=TraceEventKind.HOST_DELAY, api="hostDelay",
                      device=device, duration=duration)


def event_record(event_id, version=1, stream=0):
    return TraceEvent(kind=TraceEventKind.EVENT_RECORD, api="cudaEventRecord",
                      device=0, stream=stream, event=event_id,
                      params={"version": version})


def wait_event(event_id, version=1, stream=0):
    return TraceEvent(kind=TraceEventKind.STREAM_WAIT_EVENT,
                      api="cudaStreamWaitEvent", device=0, stream=stream,
                      wait_event=event_id, params={"version": version})


def collective(op, rank, ranks, seq, tag="dp", duration=2.0, stream=1,
               peer=None):
    info = {"comm_id": 7, "comm_tag": tag, "seq": seq, "op": op, "rank": rank,
            "nranks": len(ranks), "ranks": tuple(ranks)}
    if peer is not None:
        info["peer"] = peer
    return TraceEvent(kind=TraceEventKind.COLLECTIVE, api=f"nccl{op}",
                      device=rank, stream=stream, kernel_class=op,
                      params={"bytes": 1024.0, "duration": duration},
                      collective=info)


def device_sync(device=0):
    return TraceEvent(kind=TraceEventKind.DEVICE_SYNCHRONIZE,
                      api="cudaDeviceSynchronize", device=device)


def build_job(events_per_rank):
    job = JobTrace(world_size=len(events_per_rank))
    for rank, events in events_per_rank.items():
        trace = WorkerTrace(rank=rank, device=rank)
        for event in events:
            trace.append(event)
        job.add_worker(trace)
    return job


def simulate(events_per_rank, **config_kwargs):
    job = build_job(events_per_rank)
    collated = TraceCollator(deduplicate=False).collate(job)
    simulator = ClusterSimulator(get_cluster("v100-8"), ConstantProvider(),
                                 SimulationConfig(**config_kwargs))
    return simulator.simulate(collated)


class TestWaitMaps:
    def test_event_waitmap_records_and_releases(self):
        wait_map = CudaEventWaitMap()
        key = CudaEventWaitMap.key(0, 5, 1)
        assert not wait_map.is_complete(key)
        wait_map.block(key, "waiter")
        released = wait_map.record(key, 3.0)
        assert released == ["waiter"]
        assert wait_map.is_complete(key)
        assert wait_map.completion_time(key) == 3.0

    def test_version_zero_is_always_complete(self):
        wait_map = CudaEventWaitMap()
        assert wait_map.is_complete(CudaEventWaitMap.key(0, 5, 0))

    def test_collective_waitmap_completes_on_last_join(self):
        wait_map = CollectiveWaitMap()
        assert wait_map.join("key", 2, rank=0, stream_id=0, ready_time=1.0) is None
        instance = wait_map.join("key", 2, rank=1, stream_id=0, ready_time=3.0)
        assert instance is not None
        assert instance.start_time == 3.0
        assert not wait_map.pending()

    def test_p2p_send_before_recv(self):
        wait_map = P2PWaitMap()
        assert wait_map.post_send("k", 5.0) is None
        assert wait_map.post_recv("k", "recv-waiter", 1.0) == 5.0

    def test_p2p_recv_before_send(self):
        wait_map = P2PWaitMap()
        assert wait_map.post_recv("k", "recv-waiter", 1.0) is None
        assert wait_map.pending()
        assert wait_map.post_send("k", 4.0) == "recv-waiter"


class TestSimulatorBasics:
    def test_sequential_kernels_accumulate(self):
        report = simulate({0: [kernel(duration=1.0), kernel(duration=2.0)]})
        assert report.total_time == pytest.approx(3.0)
        assert report.rank_reports[0].compute_time == pytest.approx(3.0)
        assert report.rank_reports[0].kernel_count == 2

    def test_host_delays_serialise_dispatch(self):
        report = simulate({0: [host_delay(0.5), kernel(duration=1.0),
                               host_delay(0.5), kernel(duration=1.0)]})
        # Kernel 1 is dispatched at 0.5 and runs until 1.5; kernel 2 is
        # dispatched at 1.0 but queues behind it, finishing at 2.5.
        assert report.total_time == pytest.approx(2.5)
        assert report.rank_reports[0].host_time == pytest.approx(1.0)

    def test_independent_streams_overlap(self):
        report = simulate({0: [kernel(stream=0, duration=2.0),
                               kernel(stream=1, duration=2.0)]})
        assert report.total_time == pytest.approx(2.0)

    def test_stream_wait_event_orders_across_streams(self):
        events = [
            kernel(stream=0, duration=3.0),
            event_record(event_id=9, version=1, stream=0),
            wait_event(event_id=9, version=1, stream=1),
            kernel(stream=1, duration=1.0),
        ]
        report = simulate({0: events})
        assert report.total_time == pytest.approx(4.0)

    def test_wait_on_unrecorded_event_is_noop(self):
        events = [wait_event(event_id=3, version=0, stream=1),
                  kernel(stream=1, duration=1.0)]
        report = simulate({0: events})
        assert report.total_time == pytest.approx(1.0)

    def test_device_synchronize_blocks_host(self):
        events = [kernel(duration=2.0), device_sync(),
                  host_delay(1.0), kernel(duration=1.0)]
        report = simulate({0: events})
        assert report.total_time == pytest.approx(4.0)

    def test_markers_captured_per_rank(self):
        marker = TraceEvent(kind=TraceEventKind.MARKER, api="marker", device=0,
                            params={"label": "iteration-0-start"})
        report = simulate({0: [marker, kernel(duration=1.0)]})
        assert "iteration-0-start" in report.markers
        assert report.markers["iteration-0-start"][0] == pytest.approx(0.0)

    def test_sm_contention_inflates_overlapped_compute(self):
        events = {
            0: [collective("all_reduce", 0, [0, 1], seq=1, duration=10.0),
                host_delay(0.1),
                kernel(stream=0, duration=4.0)],
            1: [collective("all_reduce", 1, [0, 1], seq=1, duration=10.0)],
        }
        plain = simulate(events)
        contended = simulate(events, sm_contention_factor=1.5)
        assert contended.rank_reports[0].compute_time > \
            plain.rank_reports[0].compute_time


class TestSimulatorCollectives:
    def test_collective_waits_for_slowest_participant(self):
        events = {
            0: [kernel(stream=0, duration=5.0),
                collective("all_reduce", 0, [0, 1], seq=1, duration=2.0,
                           stream=0)],
            1: [collective("all_reduce", 1, [0, 1], seq=1, duration=2.0,
                           stream=0)],
        }
        report = simulate(events)
        # Rank 1 joins at t=0 but must wait for rank 0's kernel (5s) before
        # the 2s collective runs.
        assert report.total_time == pytest.approx(7.0)
        assert report.rank_reports[1].communication_time == pytest.approx(2.0)

    def test_collectives_overlap_with_compute_on_other_stream(self):
        events = {
            0: [collective("all_reduce", 0, [0, 1], seq=1, duration=4.0,
                           stream=1),
                kernel(stream=0, duration=4.0)],
            1: [collective("all_reduce", 1, [0, 1], seq=1, duration=4.0,
                           stream=1)],
        }
        report = simulate(events)
        assert report.total_time == pytest.approx(4.0)

    def test_p2p_recv_waits_for_send(self):
        events = {
            0: [kernel(duration=3.0),
                collective("send", 0, [0, 1], seq=1, tag="pp", duration=1.0,
                           stream=0, peer=1)],
            1: [collective("recv", 1, [0, 1], seq=1, tag="pp", duration=1.0,
                           stream=0, peer=0),
                kernel(duration=1.0)],
        }
        report = simulate(events)
        # Send finishes at 4.0; recv completes just after; final kernel adds 1.
        assert report.total_time == pytest.approx(5.0, abs=0.01)

    def test_mismatched_collective_orders_detected_as_deadlock(self):
        events = {
            0: [collective("all_reduce", 0, [0, 1], seq=1, duration=1.0)],
            1: [collective("all_reduce", 1, [0, 1], seq=2, duration=1.0)],
        }
        with pytest.raises(SimulationError):
            simulate(events)

    def test_reduced_replica_simulation_still_completes_collectives(self):
        events = {
            0: [collective("all_reduce", 0, [0, 1], seq=1, duration=2.0)],
            1: [collective("all_reduce", 1, [0, 1], seq=1, duration=2.0)],
        }
        report = simulate(events, simulate_ranks=[0])
        assert report.total_time == pytest.approx(2.0)
        assert report.metadata["simulated_ranks"] == 1

    def test_explicit_stream_zero_matches_default_stream(self):
        # An explicit stream-0 launch and a default-stream (None) launch
        # must land in the same FIFO stream regardless of how default
        # stream ids are spelled: the two kernels serialise.
        report = simulate({0: [kernel(stream=None, duration=1.0),
                               kernel(stream=0, duration=1.0)]})
        assert report.total_time == pytest.approx(2.0)
        assert report.metadata["processed_events"] > 0
        assert report.metadata["wall_time_s"] >= 0.0
        assert report.metadata["events_per_sec"] > 0.0

    def test_missing_rank_trace_rejected(self):
        events = {0: [kernel()]}
        job = build_job(events)
        job.world_size = 2
        collated = TraceCollator(deduplicate=False).collate(
            job, topology=None) if False else None
        # Building the collated trace for an incomplete world requires a
        # topology; here we verify the simulator's own guard instead.
        job2 = build_job({0: [kernel()], 1: [kernel()]})
        collated2 = TraceCollator(deduplicate=False).collate(job2)
        simulator = ClusterSimulator(get_cluster("v100-8"), ConstantProvider(),
                                     SimulationConfig(simulate_ranks=[0, 5]))
        with pytest.raises(SimulationError):
            simulator.simulate(collated2)


def iteration_marker(index, suffix, device=0):
    return TraceEvent(kind=TraceEventKind.MARKER, api="marker", device=device,
                      params={"label": f"iteration-{index}-{suffix}"})


def build_random_job(seed, steps=40, nranks=2):
    """Seeded random multi-stream / multi-collective two-rank trace.

    Collectives are appended to every rank at the same generation step, so
    each rank observes them in one consistent global order (no deadlocks by
    construction); stream-wait events only reference events the same rank
    already recorded.  All durations are exact binary fractions so the
    annotate-trace fast path must reproduce the per-event replay bit for
    bit, not merely approximately.
    """
    rng = random.Random(seed)
    events = {rank: [] for rank in range(nranks)}
    recorded = {rank: [] for rank in range(nranks)}
    versions = {}
    seqs = {"dp": 0, "tp": 0}
    for _ in range(steps):
        op = rng.choices(
            ("kernel", "host", "record", "wait", "collective", "sync"),
            weights=(5, 2, 2, 2, 3, 1))[0]
        rank = rng.randrange(nranks)
        if op == "kernel":
            events[rank].append(kernel(stream=rng.randrange(3),
                                       duration=rng.randrange(1, 64) / 64.0,
                                       device=rank))
        elif op == "host":
            events[rank].append(host_delay(rng.randrange(1, 16) / 64.0,
                                           device=rank))
        elif op == "record":
            event_id = rng.randrange(1, 6)
            version = versions.get((rank, event_id), 0) + 1
            versions[(rank, event_id)] = version
            events[rank].append(event_record(event_id, version=version,
                                             stream=rng.randrange(3)))
            events[rank][-1].device = rank
            recorded[rank].append((event_id, version))
        elif op == "wait":
            if recorded[rank]:
                event_id, version = rng.choice(recorded[rank])
                events[rank].append(wait_event(event_id, version=version,
                                               stream=rng.randrange(3)))
                events[rank][-1].device = rank
        elif op == "collective":
            tag = rng.choice(("dp", "tp"))
            seqs[tag] += 1
            duration = rng.randrange(1, 64) / 16.0
            stream = rng.randrange(1, 3)
            for member in range(nranks):
                events[member].append(
                    collective("all_reduce", member, list(range(nranks)),
                               seq=seqs[tag], tag=tag, duration=duration,
                               stream=stream))
        else:
            events[rank].append(device_sync(device=rank))
    for rank in range(nranks):
        if not events[rank]:
            events[rank].append(kernel(device=rank))
    return build_job(events)


def build_random_periodic_job(seed, iterations=8, nranks=2):
    """Seeded random steady-state workload: one random window, repeated.

    The window template (random kernels, host delays, collectives and
    record/wait pairs, all with binary-fraction durations) is fixed per
    seed and replayed for every iteration, so every window does the same
    work on a clock that carries over from the previous one.
    """
    rng = random.Random(seed)
    template = []
    for _ in range(rng.randrange(3, 7)):
        op = rng.choice(("kernel", "host", "collective", "eventpair"))
        template.append((op, rng.randrange(1, 64) / 64.0, rng.randrange(3)))
    events = {rank: [kernel(stream=0, duration=2.0, device=rank)]
              for rank in range(nranks)}
    seq = 0
    versions = {}
    for index in range(iterations):
        for rank in range(nranks):
            events[rank].append(iteration_marker(index, "start", device=rank))
        for position, (op, duration, stream) in enumerate(template):
            if op == "kernel":
                for rank in range(nranks):
                    events[rank].append(kernel(stream=stream,
                                               duration=duration,
                                               device=rank))
            elif op == "host":
                for rank in range(nranks):
                    events[rank].append(host_delay(duration / 4.0,
                                                   device=rank))
            elif op == "collective":
                seq += 1
                for rank in range(nranks):
                    events[rank].append(
                        collective("all_reduce", rank, list(range(nranks)),
                                   seq=seq, duration=duration * 4.0,
                                   stream=max(stream, 1)))
            else:
                # Record on one stream, wait on another: event ids repeat
                # every window, versions advance.
                event_id = position + 1
                for rank in range(nranks):
                    version = versions.get((rank, event_id), 0) + 1
                    versions[(rank, event_id)] = version
                    record = event_record(event_id, version=version,
                                          stream=stream)
                    record.device = rank
                    waiter = wait_event(event_id, version=version,
                                        stream=(stream + 1) % 3)
                    waiter.device = rank
                    events[rank].append(record)
                    events[rank].append(waiter)
        for rank in range(nranks):
            events[rank].append(device_sync(device=rank))
            events[rank].append(iteration_marker(index, "end", device=rank))
    return build_job(events)


def _assert_reports_identical(reference, candidate):
    """Same clocks, every ``RankReport`` field and every marker, bit for
    bit, with the rank reports in the same (rank) order."""
    assert candidate.total_time == reference.total_time
    assert candidate.iteration_time == reference.iteration_time
    assert candidate.communication_time == reference.communication_time
    assert candidate.markers == reference.markers
    assert list(candidate.rank_reports) == list(reference.rank_reports)
    assert candidate.rank_reports == reference.rank_reports


_JITTER_CALL_CLASSES = ("kernel_launch", "collective", "misc", "optimizer")


def jitterize_host_delays(job, seed):
    """Rewrite a job's host delays into the structured jittered form.

    Gives every HOST_DELAY a ``(call_class, seq)`` pair and stamps the
    per-trace host-model metadata, so replay materializes seeded noise --
    engine and oracle must agree bit for bit on the noisy durations too.
    """
    rng = random.Random(seed)
    for trace in job.workers.values():
        noise_seq = rng.randrange(4)
        events = trace.events
        for event in events:
            if event.kind is TraceEventKind.HOST_DELAY:
                event.params = {
                    "call_class": rng.choice(_JITTER_CALL_CLASSES),
                    "after": "kernel",
                    "seq": noise_seq,
                }
                noise_seq += rng.randrange(1, 4)
        rewrite_events(trace, events)
        trace.metadata[HOST_MODEL_METADATA_KEY] = {"name": "test-host",
                                                   "jitter": 0.15}
    return job


def rewrite_events(trace, events):
    """Record ``events`` (seqs kept) as ``trace``'s rows.

    ``trace.events`` is a fresh view on every access, so a test that edits
    events records the edited list back.
    """
    trace.columns = TraceColumns()
    for event in events:
        trace.columns.record_event(event)


class TestRandomizedDifferential:
    """Seeded random traces: the engine must track the per-event oracle."""

    @pytest.mark.parametrize("seed", range(50))
    def test_unannotated_provider_bitwise_equal(self, seed):
        """A shipped copy, whose collective tables are rebuilt from its
        decoded columns, against the oracle over the original."""
        job = build_random_job(seed)
        collated = TraceCollator(deduplicate=False).collate(job)
        shipped = wire.loads(wire.dumps_columnar(collated))
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        engine = ClusterSimulator(cluster, provider,
                                  SimulationConfig()).simulate(shipped)
        oracle = reference_simulate(cluster, provider, collated)
        assert (engine.metadata["processed_events"]
                == oracle.metadata["processed_events"])
        _assert_reports_identical(oracle, engine)

    @pytest.mark.parametrize("seed", range(25))
    def test_periodic_job_bitwise_equal(self, seed):
        """Eight repeated random windows, replayed end to end."""
        job = build_random_periodic_job(seed, iterations=8)
        collated = TraceCollator(deduplicate=False).collate(job)
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        engine = ClusterSimulator(cluster, provider,
                                  SimulationConfig()).simulate(collated,
                                                               iterations=8)
        oracle = reference_simulate(cluster, provider, collated, iterations=8)
        assert (engine.metadata["processed_events"]
                == oracle.metadata["processed_events"])
        _assert_reports_identical(oracle, engine)

    @pytest.mark.parametrize("seed", range(30))
    def test_annotated_provider_bitwise_equal(self, seed):
        """First run and warm run, which replays the memoized
        annotations."""
        job = build_random_job(seed)
        collated = TraceCollator(deduplicate=False).collate(job)
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        oracle = reference_simulate(cluster, provider, collated)
        simulator = ClusterSimulator(cluster, provider, SimulationConfig())
        for _ in range(2):  # second run replays the memoized annotations
            engine = simulator.simulate(collated)
            assert (engine.metadata["processed_events"]
                    == oracle.metadata["processed_events"])
            _assert_reports_identical(oracle, engine)

    @pytest.mark.parametrize("seed", range(10))
    def test_jittered_host_bitwise_equal(self, seed):
        """Structured jittered host delays materialize identically."""
        job = jitterize_host_delays(build_random_job(seed, steps=60), seed)
        collated = TraceCollator(deduplicate=False).collate(job)
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        oracle = reference_simulate(cluster, provider, collated)
        engine = ClusterSimulator(cluster, provider,
                                  SimulationConfig()).simulate(collated)
        _assert_reports_identical(oracle, engine)

    @pytest.mark.parametrize("seed", range(10))
    def test_annotated_periodic_job_bitwise_equal(self, seed):
        """Repeated windows over memoized annotations match the oracle."""
        job = build_random_periodic_job(seed, iterations=8)
        collated = TraceCollator(deduplicate=False).collate(job)
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        oracle = reference_simulate(cluster, provider, collated, iterations=8)
        engine = ClusterSimulator(cluster, provider,
                                  SimulationConfig()).simulate(collated,
                                                               iterations=8)
        _assert_reports_identical(oracle, engine)


def build_random_tie_job(seed, steps=48, nranks=3):
    """Seeded random trace that lands events on equal times, with p2p.

    Kernel, host-delay and collective durations come from a coarse grid
    that includes zero, so a follow-up event often falls exactly on the
    time of a queued one: the boundary of the engine's strictly-earlier
    in-place rule.  Point-to-point send/recv pairs join the all-reduces;
    every cross-rank op is appended to all its members at one generation
    step, so the ranks see them in one global order (no deadlock by
    construction).
    """
    rng = random.Random(seed)
    ranks = list(range(nranks))
    events = {rank: [] for rank in ranks}
    recorded = {rank: [] for rank in ranks}
    versions = {}
    seqs = {"dp": 0, "pp": 0}
    for _ in range(steps):
        op = rng.choices(
            ("kernel", "host", "record", "wait", "collective", "p2p",
             "sync"),
            weights=(6, 4, 1, 1, 2, 3, 1))[0]
        rank = rng.randrange(nranks)
        if op == "kernel":
            events[rank].append(kernel(
                stream=rng.randrange(2),
                duration=rng.choice((0.0, 0.0, 0.25, 0.5, 1.0)),
                device=rank))
        elif op == "host":
            events[rank].append(host_delay(rng.choice((0.0, 0.25, 0.5)),
                                           device=rank))
        elif op == "record":
            event_id = rng.randrange(1, 4)
            version = versions.get((rank, event_id), 0) + 1
            versions[(rank, event_id)] = version
            events[rank].append(event_record(event_id, version=version,
                                             stream=rng.randrange(2)))
            events[rank][-1].device = rank
            recorded[rank].append((event_id, version))
        elif op == "wait":
            if recorded[rank]:
                event_id, version = rng.choice(recorded[rank])
                events[rank].append(wait_event(event_id, version=version,
                                               stream=rng.randrange(2)))
                events[rank][-1].device = rank
        elif op == "collective":
            seqs["dp"] += 1
            duration = rng.choice((0.0, 0.5, 1.0))
            stream = rng.randrange(2)
            for member in ranks:
                events[member].append(
                    collective("all_reduce", member, ranks, seq=seqs["dp"],
                               tag="dp", duration=duration, stream=stream))
        elif op == "p2p":
            src, dst = rng.sample(ranks, 2)
            seqs["pp"] += 1
            duration = rng.choice((0.25, 0.5))
            events[src].append(
                collective("send", src, ranks, seq=seqs["pp"], tag="pp",
                           duration=duration, stream=rng.randrange(2),
                           peer=dst))
            events[dst].append(
                collective("recv", dst, ranks, seq=seqs["pp"], tag="pp",
                           duration=duration, stream=rng.randrange(2),
                           peer=src))
        else:
            events[rank].append(device_sync(device=rank))
    for rank in ranks:
        if not events[rank]:
            events[rank].append(kernel(device=rank))
    return build_job(events)


class _CountingHeap:
    """Stand-in for the engine's ``heapq`` that counts pops and the pushes
    landing on the time of the heap top (an equal-time tie)."""

    def __init__(self):
        self.pops = 0
        self.ties = 0

    def heappush(self, heap, item):
        if heap and item[0] == heap[0][0]:
            self.ties += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


class TestTiesAndP2PDifferential:
    """Equal-time ties, zero durations and p2p: the engine, with its
    in-place follow-ups, must track the per-event oracle bit for bit,
    ``processed_events`` included."""

    @pytest.mark.parametrize("seed", range(40))
    def test_bitwise_equal(self, seed):
        collated = TraceCollator(deduplicate=False).collate(
            build_random_tie_job(seed))
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        oracle = reference_simulate(cluster, provider, collated)
        simulator = ClusterSimulator(cluster, provider, SimulationConfig())
        for _ in range(2):  # the second run is a warm memo
            engine = simulator.simulate(collated)
            assert (engine.metadata["processed_events"]
                    == oracle.metadata["processed_events"])
            _assert_reports_identical(oracle, engine)

    @pytest.mark.parametrize("seed", range(40))
    def test_sm_contention_bitwise_equal(self, seed):
        """Contention makes a kernel's duration depend on whether a
        collective ending at its start time was processed first, so this
        is where the order of equal-time events shows."""
        collated = TraceCollator(deduplicate=False).collate(
            build_random_tie_job(seed, steps=120))
        cluster = get_cluster("v100-8")
        config = SimulationConfig(sm_contention_factor=2.0)
        provider = ConstantProvider()
        oracle = reference_simulate(cluster, provider, collated, config)
        engine = ClusterSimulator(cluster, provider,
                                  config).simulate(collated)
        assert (engine.metadata["processed_events"]
                == oracle.metadata["processed_events"])
        _assert_reports_identical(oracle, engine)

    def test_family_reaches_ties_p2p_and_in_place_runs(self, monkeypatch):
        """The family tests what it claims to: equal-time pushes at the
        heap top, p2p transfers and events run without a heap pop."""
        counting = _CountingHeap()
        monkeypatch.setattr(engine_module, "heapq", counting)
        cluster = get_cluster("v100-8")
        events = p2p = 0
        for seed in range(40):
            collated = TraceCollator(deduplicate=False).collate(
                build_random_tie_job(seed))
            report = ClusterSimulator(cluster, ConstantProvider(),
                                      SimulationConfig()).simulate(collated)
            events += report.metadata["processed_events"]
            p2p += sum(resolution.is_p2p
                       for resolutions in collated.resolutions.values()
                       for resolution in resolutions.values())
        assert counting.ties > 0 and p2p > 0
        assert 0 < counting.pops < events


_BUDGET_MESSAGE = (r"simulation exceeded max_events budget \({budget:,}\): "
                   r"world size 3 with 3 replayed ranks processed "
                   r"{events:,} events at simulated time \d+\.\d{{3}}s")


class TestEventBudget:
    """Events run in place count toward ``max_events`` like popped ones."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_short_budget_raises_one_message(self, seed):
        collated = TraceCollator(deduplicate=False).collate(
            build_random_tie_job(seed))
        cluster = get_cluster("v100-8")
        provider = ConstantProvider()
        needed = ClusterSimulator(cluster, provider).simulate(
            collated).metadata["processed_events"]
        sites = set()
        for budget in range(needed):
            config = SimulationConfig(max_events=budget)
            with pytest.raises(SimulationError) as raised:
                ClusterSimulator(cluster, provider, config).simulate(collated)
            assert re.fullmatch(
                _BUDGET_MESSAGE.format(budget=budget, events=budget + 1),
                str(raised.value))
            # Which handler counted the event that broke the budget: the
            # main loop (a popped event) or an in-place follow-up.
            frames = [entry.name for entry in raised.traceback]
            sites.add(frames[frames.index("_exceeded_budget") - 1])
            with pytest.raises(SimulationError):
                reference_simulate(cluster, provider, collated, config)
        assert sites == {"run", "_advance_host", "_drain_stream"}
        config = SimulationConfig(max_events=needed)
        ClusterSimulator(cluster, provider, config).simulate(collated)
        reference_simulate(cluster, provider, collated, config)


class TestFastPathEquivalence:
    """The engine must be bit-identical to per-event provider calls."""

    @pytest.fixture(scope="class")
    def artifacts(self, v100_cluster):
        model = get_transformer("gpt-tiny")
        recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                microbatch_multiplier=2, dtype="float16")
        job = TransformerTrainingJob(model, recipe, v100_cluster,
                                     global_batch_size=16, iterations=2)
        pipeline = MayaPipeline(v100_cluster, estimator_mode="analytical")
        return pipeline, pipeline.emulate(job), job

    def _compare(self, cluster, provider, collated, ranks, replayed,
                 sm_contention_factor=1.0):
        """The engine against the oracle replaying every requested rank;
        the engine's own event count against the oracle restricted to the
        ``replayed`` ranks (all of them when nothing is mirrored)."""
        def config(simulate):
            return SimulationConfig(simulate_ranks=simulate,
                                    sm_contention_factor=sm_contention_factor)
        fast = ClusterSimulator(cluster, provider,
                                config(ranks)).simulate(collated)
        slow = reference_simulate(cluster, provider, collated, config(ranks))
        _assert_reports_identical(slow, fast)
        assert fast.metadata["replayed_ranks"] == len(replayed)
        alone = reference_simulate(cluster, provider, collated,
                                   config(replayed))
        assert (fast.metadata["processed_events"]
                == alone.metadata["processed_events"])

    def test_estimated_provider_multistream_job(self, v100_cluster, artifacts):
        # tp=2/pp=2 exercises compute + comm + p2p streams, group
        # collectives and point-to-point transfers; the tensor-parallel
        # peers are mirrored, so only the two stage leaders replay.
        pipeline, emulated, job = artifacts
        self._compare(v100_cluster, pipeline.make_provider(),
                      emulated.collated, simulation_ranks(job),
                      job.topology().unique_ranks())

    def test_jittered_testbed_provider(self, v100_cluster, artifacts):
        # The testbed's per-invocation jitter is a pure function of
        # (rank, seq): pre-annotation must reproduce it exactly, including
        # under SM contention.  It is rank-dependent, so every rank replays.
        pipeline, emulated, job = artifacts
        ranks = simulation_ranks(job)
        self._compare(v100_cluster, GroundTruthDurationProvider(v100_cluster),
                      emulated.collated, ranks, ranks,
                      sm_contention_factor=1.045)


class TestAnnotationMemoLifetime:
    """Annotations are memoized on the collated trace they annotate, per
    provider and replayed-rank set, and live exactly as long as both."""

    @pytest.fixture()
    def setup(self, v100_cluster, monkeypatch):
        builds = []
        build = providers_module.build_trace_annotations

        def counting(provider, collated, ranks):
            builds.append((id(provider), id(collated), tuple(ranks)))
            return build(provider, collated, ranks)

        monkeypatch.setattr(providers_module, "build_trace_annotations",
                            counting)
        model = get_transformer("gpt-tiny")
        recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                microbatch_multiplier=2, dtype="float16")
        job = TransformerTrainingJob(model, recipe, v100_cluster,
                                     global_batch_size=16, iterations=2)
        pipeline = MayaPipeline(v100_cluster, estimator_mode="analytical")
        return pipeline, job, builds

    @staticmethod
    def _simulate(cluster, provider, collated, ranks=None):
        return ClusterSimulator(cluster, provider, SimulationConfig(
            simulate_ranks=ranks)).simulate(collated, iterations=2)

    def test_one_build_per_artifact_provider_and_ranks(self, v100_cluster,
                                                        setup):
        pipeline, job, builds = setup
        collated = pipeline.emulate(job).collated
        ranks = simulation_ranks(job)
        first, second = pipeline.make_provider(), pipeline.make_provider()
        reports = [self._simulate(v100_cluster, first, collated, ranks)
                   for _ in range(3)]
        assert len(builds) == 1
        for report in reports[1:]:
            _assert_reports_identical(reports[0], report)
        self._simulate(v100_cluster, first, collated)  # every rank
        self._simulate(v100_cluster, first, collated)
        assert len(builds) == 2
        # A second provider builds its own; the first one's stay.
        _assert_reports_identical(
            reports[0], self._simulate(v100_cluster, second, collated, ranks))
        self._simulate(v100_cluster, second, collated, ranks)
        self._simulate(v100_cluster, first, collated, ranks)
        assert len(builds) == 3
        assert len(set(builds)) == 3

    def test_warm_service_predictions_reuse_the_memo(self, setup):
        pipeline, job, builds = setup
        from repro.service import PredictionService

        with PredictionService(pipeline=pipeline) as service:
            first = service.predict(job)
            for _ in range(3):
                service.cache.drop_predictions()
                again = service.predict(job)
                assert again.metadata["service_cache"] == "artifacts"
                assert again.iteration_time == first.iteration_time
        assert len(builds) == 1

    def test_memo_never_rides_a_pickle(self, v100_cluster, setup, tmp_path):
        from repro.service.store import ArtifactStore

        pipeline, job, _ = setup
        artifacts = pipeline.emulate(job)
        key = ("memo-test",)

        def serialized(name):
            store = ArtifactStore(tmp_path / name)
            store.put(key, artifacts)
            pinned = dataclasses.replace(artifacts, job=None, cluster=None,
                                         stage_times={})
            return (store._entry_path(key).read_bytes(),
                    wire.dumps_columnar(artifacts),
                    hashlib.sha256(wire.dumps_columnar(pinned)).hexdigest())

        before = serialized("before")
        provider = pipeline.make_provider()
        self._simulate(v100_cluster, provider, artifacts.collated,
                       simulation_ranks(job))
        assert artifacts.collated.annotation_memo(provider)
        assert serialized("after") == before
        for clone in (pickle.loads(pickle.dumps(artifacts.collated)),
                      copy.copy(artifacts.collated)):
            assert not clone.annotation_memo(provider)

    def test_dropped_artifact_and_provider_are_freed(self, v100_cluster,
                                                     setup):
        pipeline, job, _ = setup
        artifacts = pipeline.emulate(job)
        provider = pipeline.make_provider()
        self._simulate(v100_cluster, provider, artifacts.collated,
                       simulation_ranks(job))
        collated = weakref.ref(artifacts.collated)
        dropped = weakref.ref(provider)
        del provider
        gc.collect()
        assert dropped() is None  # the memo does not hold its provider
        del artifacts
        gc.collect()
        assert collated() is None


#: (cluster, model, estimator suite, tp, pp, variant knob, iterations).
#: The seeded recipe of each case must carry the variant (sequence
#: parallelism, virtual stages, distributed optimizer; "" leaves it free);
#: six-iteration cases replay six windows on one carried-over clock.
_MIRROR_CASES = (
    ("v100-8", "gpt-tiny", "learned", 2, 1, "", 1),
    ("v100-8", "gpt-tiny", "analytical", 2, 2, "sp", 6),
    ("v100-8", "gpt-tiny", "oracle", 4, 2, "do", 6),
    ("v100-8", "gpt3-345m-l4", "analytical", 4, 2, "vs", 1),
    ("v100-8", "gpt3-345m-l4", "oracle", 8, 1, "sp", 1),
    ("v100-16", "gpt-tiny", "analytical", 4, 2, "", 6),
    ("v100-16", "gpt3-345m-l4", "analytical", 2, 2, "vs", 1),
    ("v100-16", "gpt3-345m-l4", "analytical", 2, 4, "", 1),
    ("v100-16", "gpt3-345m-l4", "analytical", 8, 2, "do", 1),
    ("v100-16", "gpt3-345m-l4", "analytical", 4, 4, "sp", 6),
    ("h100-32", "gpt-tiny", "analytical", 2, 2, "do", 6),
    ("h100-32", "gpt-tiny", "analytical", 4, 1, "sp", 6),
    ("h100-32", "gpt3-345m-l4", "analytical", 8, 4, "sp", 1),
    ("h100-32", "gpt3-345m-l4", "analytical", 8, 2, "", 6),
)

_VARIANTS = {
    "": lambda recipe: True,
    "sp": lambda recipe: recipe.sequence_parallelism,
    "vs": lambda recipe: recipe.virtual_stages > 1,
    "do": lambda recipe: recipe.distributed_optimizer,
}


def _transformer(name):
    if name == "gpt3-345m-l4":
        return dataclasses.replace(get_transformer("gpt3-345m"),
                                   num_layers=4, name=name)
    return get_transformer(name)


@functools.lru_cache(maxsize=None)
def _mirror_case(index):
    """``(cluster, pipeline, job, collated)`` of case ``index``."""
    cluster_name, model_name, mode, tp, pp, variant, iterations = \
        _MIRROR_CASES[index]
    cluster = get_cluster(cluster_name)
    model = _transformer(model_name)
    batch = 16 if model_name == "gpt-tiny" else 64
    recipes = sorted(
        (recipe for recipe in candidate_recipes(model, cluster, batch)
         if recipe.tensor_parallel == tp and recipe.pipeline_parallel == pp
         and _VARIANTS[variant](recipe)),
        key=lambda recipe: recipe.short_name())
    recipe = random.Random(index).choice(recipes)
    job = TransformerTrainingJob(model, recipe, cluster,
                                 global_batch_size=batch,
                                 iterations=iterations)
    pipeline = MayaPipeline(cluster, estimator_mode=mode)
    return cluster, pipeline, job, pipeline.emulate(job).collated


class TestTensorParallelMirroring:
    """Replaying one rank per pipeline stage reports the full replica."""

    @pytest.mark.parametrize("index", range(len(_MIRROR_CASES)))
    def test_mirrored_report_equals_full_slice(self, index):
        cluster, pipeline, job, collated = _mirror_case(index)
        ranks = simulation_ranks(job)
        provider = pipeline.make_provider()
        iterations = job.iterations
        report = ClusterSimulator(
            cluster, provider,
            SimulationConfig(simulate_ranks=ranks)).simulate(
                collated, iterations=iterations)
        topology = job.topology()
        assert report.metadata["simulated_ranks"] == len(ranks)
        assert report.metadata["replayed_ranks"] == topology.pipeline_parallel
        # The stage leaders (0, pp, 0) are the ranks that replay.
        leaders = topology.unique_ranks()

        def replay(simulate):
            return reference_simulate(
                cluster, provider, collated,
                SimulationConfig(simulate_ranks=simulate),
                iterations=iterations)
        _assert_reports_identical(replay(ranks), report)
        assert (report.metadata["processed_events"]
                == replay(leaders).metadata["processed_events"])

    @staticmethod
    def _replayed(cluster, provider, collated, ranks):
        report = ClusterSimulator(
            cluster, provider,
            SimulationConfig(simulate_ranks=ranks)).simulate(collated)
        assert report.metadata["simulated_ranks"] == len(ranks)
        return report.metadata["replayed_ranks"]

    def test_off_for_ground_truth_provider(self):
        cluster, _, job, collated = _mirror_case(1)
        ranks = simulation_ranks(job)
        assert self._replayed(cluster, GroundTruthDurationProvider(cluster),
                              collated, ranks) == len(ranks)

    def test_off_when_nodes_split_tensor_parallel_groups(self):
        # Six GPUs per node: tp=4 groups straddle nodes, and column t's
        # groups no longer span the nodes of column 0's.
        cluster = dataclasses.replace(get_cluster("v100-8"),
                                      gpus_per_node=6, num_nodes=2)
        recipe = TrainingRecipe(tensor_parallel=4, pipeline_parallel=1,
                                dtype="float16")
        job = TransformerTrainingJob(get_transformer("gpt-tiny"), recipe,
                                     cluster, global_batch_size=12)
        pipeline = MayaPipeline(cluster, estimator_mode="analytical")
        collated = pipeline.emulate(job).collated
        ranks = simulation_ranks(job)
        assert self._replayed(cluster, pipeline.make_provider(), collated,
                              ranks) == len(ranks) == 4

    def test_off_without_dedup_and_selective_launch(self):
        cluster, _, job, _ = _mirror_case(1)
        pipeline = MayaPipeline(cluster, estimator_mode="analytical",
                                deduplicate_workers=False,
                                selective_launch=False)
        report = pipeline.predict(job).report
        assert (report.metadata["replayed_ranks"]
                == report.metadata["simulated_ranks"] == 4)

    def test_off_for_identity_group_resolver(self):
        class ShapeKeyedConstantProvider(ConstantProvider):
            rank_invariant_kernels = True

        collated = TraceCollator(deduplicate=False).collate(
            build_random_job(0))
        assert isinstance(collated.group_resolver, IdentityGroupResolver)
        assert self._replayed(get_cluster("v100-8"),
                              ShapeKeyedConstantProvider(), collated,
                              [0, 1]) == 2

    def test_off_for_collective_outside_topology_tags(self):
        cluster, pipeline, job, _ = _mirror_case(1)
        # Re-tag one tensor-parallel collective template of stage 0's
        # representative before collation: its group is then the recorded
        # one, not the topology's.
        job_trace = EmulationSession(cluster).run(
            job.worker_fn, ranks=job.unique_ranks(),
            world_size=job.world_size).job_trace
        template = next(
            template for template in job_trace.workers[0].columns.templates
            if (template["collective_fixed"] or {}).get("comm_tag") == "tp")
        template["collective_fixed"] = {**template["collective_fixed"],
                                        "comm_tag": "embedding"}
        retagged = TraceCollator().collate(job_trace, topology=job.topology())
        ranks = simulation_ranks(job)
        assert self._replayed(cluster, pipeline.make_provider(), retagged,
                              ranks) == len(ranks)
