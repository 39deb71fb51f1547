"""Tests for the trace model and the transparent device emulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emulator import DeviceEmulator, EmulationSession
from repro.core.trace import JobTrace, TraceEvent, TraceEventKind, WorkerTrace
from repro.cuda.cublas import CublasHandle
from repro.hardware.cluster import get_cluster
from repro.hardware.gpu_specs import get_gpu


def _make_event(kind=TraceEventKind.KERNEL, api="k", **params):
    return TraceEvent(kind=kind, api=api, device=0, stream=0,
                      kernel_class="elementwise", params=dict(params))


class TestTraceEvent:
    def test_roundtrip_serialisation(self):
        event = _make_event(bytes=128.0, dtype="float16")
        clone = TraceEvent.from_dict(event.to_dict())
        assert clone == event

    def test_device_work_classification(self):
        assert _make_event().is_device_work()
        host = TraceEvent(kind=TraceEventKind.HOST_DELAY, api="hostDelay",
                          device=0, duration=1e-6)
        assert not host.is_device_work()

    def test_signature_ignores_duration(self):
        first = _make_event(bytes=64.0)
        second = _make_event(bytes=64.0)
        second.duration = 1.0
        assert first.signature() == second.signature()

    def test_signature_differs_on_params(self):
        assert _make_event(bytes=64.0).signature() != \
            _make_event(bytes=128.0).signature()

    @given(st.floats(min_value=0, max_value=1e9),
           st.sampled_from(["float16", "float32", "bfloat16"]))
    @settings(max_examples=30, deadline=None)
    def test_json_roundtrip(self, nbytes, dtype):
        trace = WorkerTrace(rank=3, device=1)
        trace.append(_make_event(bytes=nbytes, dtype=dtype))
        restored = WorkerTrace.from_json(trace.to_json())
        assert restored.rank == 3
        assert restored.events[0].params["bytes"] == nbytes


class TestWorkerTrace:
    def test_append_assigns_sequence_numbers(self):
        trace = WorkerTrace(rank=0, device=0)
        for _ in range(5):
            trace.append(_make_event())
        assert [event.seq for event in trace.events] == list(range(5))

    def test_device_events_filters_host_delays(self):
        trace = WorkerTrace(rank=0, device=0)
        trace.append(TraceEvent(kind=TraceEventKind.HOST_DELAY, api="hostDelay",
                                device=0, duration=1e-6))
        trace.append(_make_event())
        assert len(trace.device_events()) == 1

    def test_host_delay_total(self):
        trace = WorkerTrace(rank=0, device=0)
        for _ in range(4):
            trace.append(TraceEvent(kind=TraceEventKind.HOST_DELAY,
                                    api="hostDelay", device=0, duration=0.5))
        assert trace.host_delay_total() == pytest.approx(2.0)

    def test_rolling_signature_equal_for_identical_streams(self):
        def build():
            trace = WorkerTrace(rank=0, device=0)
            trace.append(_make_event(bytes=1.0))
            trace.append(_make_event(api="k2", bytes=2.0))
            return trace
        assert build().rolling_signature() == build().rolling_signature()

    def test_rolling_signature_detects_differences(self):
        first = WorkerTrace(rank=0, device=0)
        first.append(_make_event(bytes=1.0))
        second = WorkerTrace(rank=1, device=0)
        second.append(_make_event(bytes=2.0))
        assert first.rolling_signature() != second.rolling_signature()


class TestJobTrace:
    def test_add_worker_and_lookup(self):
        job = JobTrace(world_size=4)
        trace = WorkerTrace(rank=1, device=1)
        job.add_worker(trace)
        job.representative[3] = 1
        assert job.trace_for(3) is trace
        assert job.emulated_ranks == [1]

    def test_peak_memory_and_oom(self):
        job = JobTrace(world_size=2)
        job.add_worker(WorkerTrace(rank=0, device=0, peak_memory_bytes=100))
        job.add_worker(WorkerTrace(rank=1, device=1, peak_memory_bytes=300,
                                   oom=True))
        assert job.peak_memory_bytes() == 300
        assert job.any_oom()

    def test_json_roundtrip(self):
        job = JobTrace(world_size=2)
        trace = WorkerTrace(rank=0, device=0)
        trace.append(_make_event())
        job.add_worker(trace)
        restored = JobTrace.from_json(job.to_json())
        assert restored.world_size == 2
        assert len(restored.workers[0]) == 1


class TestDeviceEmulator:
    def test_intercepts_api_calls_into_trace(self):
        emulator = DeviceEmulator(rank=0, device=0, gpu=get_gpu("V100"))
        cublas = CublasHandle(emulator.runtime)
        cublas.hgemm(256, 256, 256)
        trace = emulator.finalize()
        kinds = [event.kind for event in trace.events]
        assert TraceEventKind.HOST_DELAY in kinds
        assert TraceEventKind.KERNEL in kinds
        kernel = [e for e in trace.events if e.kind is TraceEventKind.KERNEL][0]
        assert kernel.kernel_class == "gemm"

    def test_host_delays_precede_device_events(self):
        emulator = DeviceEmulator(rank=0, device=0, gpu=get_gpu("V100"))
        emulator.runtime.launch_kernel("k", "elementwise", {"bytes": 1.0})
        events = emulator.trace.events
        assert events[0].kind is TraceEventKind.HOST_DELAY
        assert events[1].kind is TraceEventKind.KERNEL

    def test_markers_recorded(self):
        emulator = DeviceEmulator(rank=0, device=0, gpu=get_gpu("V100"))
        emulator.mark("iteration-0-start")
        assert emulator.trace.events[-1].kind is TraceEventKind.MARKER

    def test_finalize_records_peak_memory(self):
        emulator = DeviceEmulator(rank=0, device=0, gpu=get_gpu("V100"))
        emulator.runtime.cuda_malloc(1 << 26)
        trace = emulator.finalize()
        assert trace.peak_memory_bytes >= 1 << 26
        assert trace.metadata["api_calls"] >= 1

    def test_identical_workers_share_rolling_signature(self):
        def run(rank):
            emulator = DeviceEmulator(rank=rank, device=rank, gpu=get_gpu("V100"))
            cublas = CublasHandle(emulator.runtime)
            cublas.hgemm(128, 128, 128)
            emulator.runtime.launch_kernel("k", "softmax", {"bytes": 64.0})
            return emulator.finalize().rolling_signature()
        assert run(0) == run(1)


class TestEmulationSession:
    def test_runs_requested_ranks_only(self):
        cluster = get_cluster("v100-8")
        session = EmulationSession(cluster)

        def worker(rank, emulator):
            emulator.runtime.launch_kernel("k", "elementwise", {"bytes": 1.0})

        result = session.run(worker, ranks=[0, 3])
        assert sorted(result.job_trace.workers) == [0, 3]
        assert result.job_trace.world_size == 8
        assert not result.oom

    def test_oom_is_captured_not_raised(self):
        cluster = get_cluster("v100-8")
        session = EmulationSession(cluster)

        def worker(rank, emulator):
            emulator.runtime.cuda_malloc(cluster.gpu.memory_bytes * 2)

        result = session.run(worker, ranks=[0, 1])
        assert result.oom
        assert result.job_trace.workers[0].oom
        # stop_on_oom aborts the remaining ranks.
        assert 1 not in result.job_trace.workers

    def test_stop_on_oom_can_be_disabled(self):
        cluster = get_cluster("v100-8")
        session = EmulationSession(cluster)

        def worker(rank, emulator):
            if rank == 0:
                emulator.runtime.cuda_malloc(cluster.gpu.memory_bytes * 2)
            else:
                emulator.runtime.launch_kernel("k", "elementwise", {"bytes": 1.0})

        result = session.run(worker, ranks=[0, 1], stop_on_oom=False)
        assert result.oom
        assert 1 in result.job_trace.workers
