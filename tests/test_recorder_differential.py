"""The emulator's vectorized recorder against the per-row reference.

Each seed drives one random API-call stream through a
:class:`~repro.core.emulator.EmulationSession` twice: once with the
production :class:`DeviceEmulator` (call log, one numpy pass per flush)
and once with ``tests/reference_recorder.py`` (one append per column per
row).  The column lists, the template pool, the host-class pool and the
JSON export must be equal, and so must every mid-stream read.
"""

from __future__ import annotations

import random

import pytest

from repro.core.emulator import DeviceEmulator, EmulationSession
from repro.core.trace import COLUMN_DTYPES
from repro.cuda.api_records import ApiCallRecord, ApiKind
from repro.cuda.cublas import CublasHandle
from repro.cuda.errors import CudaOutOfMemoryError
from repro.cuda.nccl import NcclUniqueId, comm_init_rank
from repro.hardware.cluster import get_cluster
from repro.hardware.gpu_specs import get_gpu

from reference_recorder import ReferenceEmulator

SEEDS = range(60)

#: Parameter values whose ``==`` hides a difference the trace must keep.
_TRICKY_VALUES = (1, 1.0, True, 0, 0.0, -0.0, False, None, [1, 2], [1.0, 2],
                  (3, 4), "float16", 2.5, -1)
_KERNEL_CLASSES = ("gemm", "batched_gemm", "conv2d_fwd", "optimizer_apply",
                   "elementwise", "softmax")
_LABELS = ("iteration-0-start", "iteration-0-end", "phase")


class _Session(EmulationSession):
    def __init__(self, cluster, emulator_cls):
        super().__init__(cluster)
        self.emulator_cls = emulator_cls

    def create_emulator(self, rank):
        return self.emulator_cls(rank=rank,
                                 device=self.cluster.local_rank(rank),
                                 gpu=self.cluster.gpu,
                                 host_model=self.host_model)


def _view(emulator):
    if isinstance(emulator, ReferenceEmulator):
        return emulator.snapshot()
    return emulator.trace


def _random_params(rng):
    keys = rng.sample(("m", "n", "k", "bytes", "dtype", "flag", "shape",
                       "call_class", "version", "seq"), rng.randint(0, 4))
    params = {}
    for key in keys:
        if key == "call_class":
            params[key] = rng.choice(("custom", "gemm", 7))
        elif key == "version":
            params[key] = rng.choice((1, 1.0, True, 0, -0.0, 2.5))
        else:
            params[key] = rng.choice(_TRICKY_VALUES)
    return params


def _stream(seed, uids):
    """A per-rank worker body issuing ``seed``'s random call stream."""

    def worker(rank, emulator):
        rng = random.Random(seed * 1000 + rank)
        runtime = emulator.runtime
        cublas = CublasHandle(runtime)
        comms = [comm_init_rank(runtime, uids[0], rank, (0, 1)),
                 comm_init_rank(runtime, uids[1], rank, (0, 1, 2, 3))]
        shapes = [_random_params(rng) for _ in range(4)]
        streams = [0]
        events = []
        pointers = []
        reads = emulator.trace.metadata["reads"] = []
        oom_at = rng.randrange(400) if rng.random() < 0.25 else -1
        for step in range(rng.randint(50, 300)):
            if step == oom_at:
                runtime.cuda_malloc(1 << 50)
            action = rng.randrange(20)
            stream = rng.choice(streams)
            if action < 5:
                if rng.random() < 0.2:
                    shapes.append(_random_params(rng))
                runtime.launch_kernel(
                    rng.choice(("k_a", "k_b", "cublasGemmEx")),
                    rng.choice(_KERNEL_CLASSES), dict(rng.choice(shapes)),
                    stream)
            elif action == 5:
                cublas.set_stream(stream)
                cublas.hgemm(*rng.choice(((64, 64, 64), (128, 64, 32))),
                             batch=rng.choice((1, 1, 4)))
            elif action == 6:
                runtime.cuda_memcpy_async(rng.choice((0, 16, 4096)),
                                          rng.choice(("h2d", "d2h", "d2d")),
                                          stream)
            elif action == 7:
                runtime.cuda_memset_async(rng.choice((0, 256)), stream)
            elif action == 8:
                pointers.append(runtime.cuda_malloc(rng.choice((1 << 10,
                                                               1 << 20))))
            elif action == 9 and pointers:
                runtime.cuda_free(pointers.pop(rng.randrange(len(pointers))))
            elif action == 10:
                runtime.cuda_mem_get_info()
            elif action == 11:
                if len(streams) < 4:
                    streams.append(runtime.cuda_stream_create().stream_id)
                else:
                    runtime.cuda_stream_synchronize(stream)
            elif action == 12:
                events.append(runtime.cuda_event_create())
            elif action == 13 and events:
                runtime.cuda_event_record(rng.choice(events), stream)
            elif action == 14 and events:
                event = rng.choice(events)
                if rng.random() < 0.5:
                    runtime.cuda_stream_wait_event(stream, event)
                else:
                    runtime.cuda_event_synchronize(event)
            elif action == 15 and events:
                runtime.cuda_event_destroy(
                    events.pop(rng.randrange(len(events))))
            elif action == 16:
                comm = rng.choice(comms)
                op = rng.choice(("all_reduce", "broadcast", "send", "recv",
                                 "barrier"))
                count = rng.choice((0, 8, 1024))
                if op == "all_reduce":
                    comm.all_reduce(count, stream=stream)
                elif op == "broadcast":
                    comm.broadcast(count, root=rng.choice(comm.world_ranks),
                                   stream=stream)
                elif op in ("send", "recv"):
                    peer = rng.choice([r for r in comm.world_ranks
                                       if r != rank])
                    getattr(comm, op)(count, peer, stream=stream)
                else:
                    comm.barrier(stream)
            elif action == 17:
                emulator.mark(rng.choice(_LABELS))
            elif action == 18:
                choice = rng.randrange(4)
                if choice == 0:
                    runtime.cuda_device_synchronize()
                elif choice == 1:
                    runtime._emit(ApiCallRecord(
                        api="cudnnSetTensorDescriptor",
                        kind=ApiKind.LIBRARY, device=runtime.device,
                        params={"dims": rng.randint(1, 4)}))
                else:
                    # Records the runtime never emits: a collective
                    # descriptor on a kernel and on a host-only call.
                    runtime._emit(ApiCallRecord(
                        api="fusedKernel", device=runtime.device,
                        kind=rng.choice((ApiKind.KERNEL, ApiKind.LIBRARY)),
                        stream=stream, kernel_class="elementwise",
                        params=dict(rng.choice(shapes)),
                        collective={"comm_id": 9, "seq": step,
                                    "ranks": (0, 1)}))
            else:
                trace = _view(emulator)
                if rng.random() < 0.5:
                    reads.append(len(trace))
                else:
                    reads.append([event.to_dict() for event in trace.events])

    return worker


def _run(seed, emulator_cls, uids):
    session = _Session(get_cluster("v100-8"), emulator_cls)
    return session.run(_stream(seed, uids), ranks=[0, 1]).job_trace


@pytest.mark.parametrize("seed", SEEDS)
def test_recorder_matches_reference(seed):
    uids = (NcclUniqueId.generate("tp"), NcclUniqueId.generate("dp"))
    job = _run(seed, DeviceEmulator, uids)
    oracle = _run(seed, ReferenceEmulator, uids)
    assert sorted(job.workers) == sorted(oracle.workers)
    for rank, trace in job.workers.items():
        expected = oracle.workers[rank]
        assert trace.oom == expected.oom
        for name, _ in COLUMN_DTYPES:
            assert trace.columns.lists()[name] == \
                expected.columns.lists()[name], name
        assert trace.columns.templates == expected.columns.templates
        assert trace.columns.host_classes == expected.columns.host_classes
        assert trace.metadata == expected.metadata
    assert job.to_json() == oracle.to_json()


@pytest.mark.parametrize("seed", range(8))
def test_recording_continues_after_finalize(seed):
    """Calls after ``finalize`` (which drops the pattern pool) append to
    the same trace, as they did when every call wrote its rows."""
    uids = (NcclUniqueId.generate("tp"), NcclUniqueId.generate("dp"))
    exports = []
    for emulator_cls in (DeviceEmulator, ReferenceEmulator):
        emulator = emulator_cls(rank=0, device=0, gpu=get_gpu("V100"))
        parts = []
        for part in range(3):
            try:
                _stream(seed * 10 + part, uids)(0, emulator)
            except CudaOutOfMemoryError:
                pass
            parts.append(emulator.finalize().to_json())
        exports.append(parts)
    assert exports[0] == exports[1]


def test_streams_cover_the_edge_cases():
    """The seeds reach what the differential test is about."""
    uids = (NcclUniqueId.generate("tp"), NcclUniqueId.generate("dp"))
    ooms = reads = 0
    for seed in SEEDS:
        job = _run(seed, DeviceEmulator, uids)
        ooms += job.any_oom()
        reads += sum(bool(trace.metadata["reads"])
                     for trace in job.workers.values())
    assert ooms >= 5
    assert reads >= 50
