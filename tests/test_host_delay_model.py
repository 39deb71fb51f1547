"""Structured host-delay model: base/jitter split, sim-time materialization,
multi-iteration replay of default jittered traces, and legacy-trace
compatibility."""

from __future__ import annotations

import copy

import pytest

from repro.core.collator import TraceCollator
from repro.core.emulator import DeviceEmulator, EmulationSession
from repro.core.pipeline import MayaPipeline, simulation_ranks
from repro.core.simulator.engine import ClusterSimulator, SimulationConfig
from repro.core.trace import JobTrace, TraceEvent, TraceEventKind, WorkerTrace
from repro.cuda.cublas import CublasHandle
from repro.framework.recipe import TrainingRecipe
from repro.hardware.gpu_specs import get_gpu
from repro.hardware.host_model import (
    HOST_MODEL_METADATA_KEY,
    HostModel,
    host_delay_materializer,
)
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer

from reference_engine import reference_simulate
from test_simulator import _assert_reports_identical, rewrite_events


def _emulate(cluster, iterations, host_model=None, batch=16):
    job = TransformerTrainingJob(
        get_transformer("gpt-tiny"),
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        cluster, global_batch_size=batch, iterations=iterations)
    session = EmulationSession(cluster, host_model=host_model)
    emulated = session.run(job.worker_fn, ranks=job.unique_ranks(),
                           world_size=job.world_size)
    collated = TraceCollator().collate(emulated.job_trace,
                                       topology=job.topology())
    return job, emulated.job_trace, collated


def _legacy_job_trace(job_trace: JobTrace, host: HostModel) -> JobTrace:
    """Pre-refactor rendering of ``job_trace``: jitter baked into durations."""
    legacy = copy.deepcopy(job_trace)
    for trace in legacy.workers.values():
        trace.metadata.pop(HOST_MODEL_METADATA_KEY, None)
        events = trace.events
        for event in events:
            if event.kind is TraceEventKind.HOST_DELAY:
                seq = event.params.pop("seq")
                event.duration = host.dispatch_cost(
                    event.params["call_class"], seq)
        rewrite_events(trace, events)
    return legacy


class TestHostModelSplit:
    def test_dispatch_cost_is_base_times_jitter(self):
        host = HostModel()
        for call_class in ("gemm", "collective", "sync", "dataloader"):
            for seq in (1, 17, 40_001):
                assert host.dispatch_cost(call_class, seq) == \
                    host.base_cost(call_class) * host.jitter_factor(call_class,
                                                                    seq)

    def test_base_cost_is_deterministic_and_scaled(self):
        slow = HostModel(name="x", speed_factor=2.0)
        fast = HostModel(name="x", speed_factor=1.0)
        assert slow.base_cost("gemm") == pytest.approx(
            2.0 * fast.base_cost("gemm"))

    def test_custom_costs_without_misc_fall_back(self):
        # Regression: this used to raise KeyError("misc").
        host = HostModel(dispatch_costs={"kernel_launch": 1.0e-6})
        assert host.base_cost("query") > 0.0
        assert host.dispatch_cost("query", 3) > 0.0
        # A custom "misc" entry still wins for unknown classes.
        custom = HostModel(dispatch_costs={"misc": 7.0e-6}, jitter=0.0,
                           name="custom-misc")
        assert custom.dispatch_cost("query", 3) == pytest.approx(7.0e-6)

    def test_python_overhead_removed(self):
        # Dead API deleted rather than left untested (no call sites).
        assert not hasattr(HostModel, "python_overhead")


class TestStructuredTraceSchema:
    def _trace(self, host_model=None):
        emulator = DeviceEmulator(rank=0, device=0, gpu=get_gpu("V100"),
                                  host_model=host_model)
        cublas = CublasHandle(emulator.runtime)
        cublas.hgemm(128, 128, 128)
        emulator.runtime.launch_kernel("k", "softmax", {"bytes": 64.0})
        return emulator.finalize()

    def test_events_record_base_cost_class_and_seq(self):
        host = HostModel()
        trace = self._trace(host_model=host)
        delays = [e for e in trace.events
                  if e.kind is TraceEventKind.HOST_DELAY]
        assert delays
        for event in delays:
            assert "seq" in event.params
            assert event.duration == host.base_cost(
                event.params["call_class"])
        seqs = [event.params["seq"] for event in delays]
        assert seqs == sorted(seqs)
        assert trace.metadata[HOST_MODEL_METADATA_KEY] == {
            "name": host.name, "jitter": host.jitter}

    def test_materializer_reproduces_dispatch_cost(self):
        host = HostModel()
        trace = self._trace(host_model=host)
        materialize = host_delay_materializer(trace.metadata)
        for event in trace.events:
            if event.kind is TraceEventKind.HOST_DELAY:
                assert materialize(event) == host.dispatch_cost(
                    event.params["call_class"], event.params["seq"])

    def test_host_delay_total_matches_materialized_time(self):
        host = HostModel()
        trace = self._trace(host_model=host)
        expected = sum(host.dispatch_cost(e.params["call_class"],
                                          e.params["seq"])
                       for e in trace.events
                       if e.kind is TraceEventKind.HOST_DELAY)
        assert trace.host_delay_total() == pytest.approx(expected)

    def test_legacy_events_materialize_by_value(self):
        trace = WorkerTrace(rank=0, device=0)
        trace.append(TraceEvent(kind=TraceEventKind.HOST_DELAY,
                                api="hostDelay", device=0, duration=0.5))
        materialize = host_delay_materializer(trace.metadata)
        assert materialize(trace.events[0]) == 0.5
        assert trace.host_delay_total() == pytest.approx(0.5)

    def test_json_roundtrip_preserves_structured_schema(self):
        trace = self._trace()
        restored = WorkerTrace.from_json(trace.to_json())
        assert restored.metadata[HOST_MODEL_METADATA_KEY] == \
            trace.metadata[HOST_MODEL_METADATA_KEY]
        assert [e.to_dict() for e in restored.events] == \
            [e.to_dict() for e in trace.events]
        assert restored.host_delay_total() == trace.host_delay_total()


class TestSimTimeJitterBitIdentity:
    """Sim-time jitter must reproduce pre-refactor replay bit for bit."""

    @pytest.fixture(scope="class")
    def artifacts(self, v100_cluster):
        host = HostModel()  # default jittered profile
        job, job_trace, collated = _emulate(v100_cluster, iterations=2,
                                            host_model=host)
        legacy = TraceCollator().collate(_legacy_job_trace(job_trace, host),
                                         topology=job.topology())
        pipeline = MayaPipeline(v100_cluster, estimator_mode="analytical")
        return pipeline, job, job_trace, collated, legacy

    @pytest.mark.parametrize("oracle", [False, True])
    def test_structured_replay_matches_prejittered_legacy(
            self, v100_cluster, artifacts, oracle):
        pipeline, job, _, structured, legacy = artifacts
        ranks = simulation_ranks(job)
        config = SimulationConfig(simulate_ranks=ranks)

        def replay(collated):
            provider = pipeline.make_provider()
            if oracle:
                return reference_simulate(v100_cluster, provider, collated,
                                          config, iterations=2)
            return ClusterSimulator(v100_cluster, provider, config).simulate(
                collated, iterations=2)

        a = replay(structured)
        b = replay(legacy)
        assert a.total_time == b.total_time
        assert a.markers == b.markers
        for rank in a.rank_reports:
            assert a.rank_reports[rank].host_time == \
                b.rank_reports[rank].host_time
            assert a.rank_reports[rank].finish_time == \
                b.rank_reports[rank].finish_time

    def test_roundtripped_artifacts_replay_identically(self, v100_cluster,
                                                       artifacts):
        # The evaluation backends ship artifacts as JSON traces; the
        # structured schema must survive that round-trip byte-for-byte.
        pipeline, job, job_trace, structured, _ = artifacts
        restored = TraceCollator().collate(
            JobTrace.from_json(job_trace.to_json()),
            topology=job.topology())
        ranks = simulation_ranks(job)
        a = ClusterSimulator(v100_cluster, pipeline.make_provider(),
                             SimulationConfig(simulate_ranks=ranks)).simulate(
                                 structured, iterations=2)
        b = ClusterSimulator(v100_cluster, pipeline.make_provider(),
                             SimulationConfig(simulate_ranks=ranks)).simulate(
                                 restored, iterations=2)
        assert a.total_time == b.total_time
        assert a.markers == b.markers


class TestSharedProviderAcrossHostModels:
    def test_annotation_memo_distinguishes_host_models(self, v100_cluster):
        # Regression: rolling signatures skip HOST_DELAY events, so two
        # traces with identical op streams but different host models used
        # to collide in the provider annotation memo once host durations
        # became part of the annotations -- a shared provider would replay
        # the first trace's host delays for the second.
        job_a, _, fast_host = _emulate(v100_cluster, iterations=2,
                                       host_model=HostModel(jitter=0.0))
        _, _, slow_host = _emulate(
            v100_cluster, iterations=2,
            host_model=HostModel(jitter=0.0, speed_factor=2.0))
        assert fast_host.representative == slow_host.representative
        assert [trace.rolling_signature()
                for trace in fast_host.traces.values()] == \
            [trace.rolling_signature() for trace in slow_host.traces.values()]
        assert [trace.host_delay_signature()
                for trace in fast_host.traces.values()] != \
            [trace.host_delay_signature()
             for trace in slow_host.traces.values()]
        pipeline = MayaPipeline(v100_cluster, estimator_mode="analytical")
        shared = pipeline.make_provider()
        ranks = simulation_ranks(job_a)
        config = SimulationConfig(simulate_ranks=ranks)
        reports = {}
        for name, collated in (("fast", fast_host), ("slow", slow_host)):
            reports[name] = ClusterSimulator(
                v100_cluster, shared, config).simulate(collated, iterations=2)
        fresh_slow = ClusterSimulator(
            v100_cluster, pipeline.make_provider(), config).simulate(
                slow_host, iterations=2)
        assert reports["slow"].total_time == fresh_slow.total_time
        assert reports["slow"].total_time != reports["fast"].total_time
        for rank in fresh_slow.rank_reports:
            assert (reports["slow"].rank_reports[rank].host_time
                    == fresh_slow.rank_reports[rank].host_time)


class TestMultiIterationJitteredHost:
    """A multi-iteration default-HostModel trace replays exactly."""

    ITERATIONS = 8

    def test_engine_matches_oracle_bit_for_bit(self, v100_cluster):
        job, _, collated = _emulate(v100_cluster, iterations=self.ITERATIONS)
        provider = MayaPipeline(
            v100_cluster, estimator_mode="analytical").make_provider()
        config = SimulationConfig(simulate_ranks=simulation_ranks(job))
        engine = ClusterSimulator(v100_cluster, provider, config).simulate(
            collated, iterations=self.ITERATIONS)
        oracle = reference_simulate(v100_cluster, provider, collated, config,
                                    iterations=self.ITERATIONS)
        _assert_reports_identical(oracle, engine)
