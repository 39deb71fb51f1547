"""Block replay against the emulator that makes every call.

The training engine runs each microbatch's forward and backward of a chunk
through :meth:`DeviceEmulator.replay_block`, which logs a repeat from the
block's first run instead of re-issuing its calls.  Every seeded job here
is emulated twice, once as shipped and once with ``replay_block``
monkeypatched to run its body every time; per rank, the JSON export, every
column, the template and host-class pools, the metadata, the memory
statistics and every communicator's final seq must be equal.  The guard
tests drive the emulator directly: blocks that must not be kept, runtime
changes that must force a re-record, and recording after ``finalize``
against ``tests/reference_recorder.py``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.emulator import DeviceEmulator, EmulationSession
from repro.core.trace import COLUMN_DTYPES
from repro.cuda.cublas import CublasHandle
from repro.cuda.errors import CudaInvalidHandleError, NcclError
from repro.cuda.nccl import NcclUniqueId, comm_init_rank
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.hardware.gpu_specs import get_gpu
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer

from reference_recorder import ReferenceEmulator

SEEDS = range(44)

_MODELS = {
    "gpt-tiny": get_transformer("gpt-tiny"),
    "gpt3-345m-l4": dataclasses.replace(get_transformer("gpt3-345m"),
                                        num_layers=4, name="gpt3-345m-l4"),
}


def _every_call(self, body, *args):
    body(*args)


def _random_job(seed):
    """``seed``'s job: model, cluster, tp and pp cycle with the seed, the
    other knobs are drawn until the recipe is valid."""
    rng = random.Random(seed)
    name = sorted(_MODELS)[seed % 2]
    model = _MODELS[name]
    cluster = get_cluster(("v100-8", "v100-16")[seed // 2 % 2])
    tp = (1, 2, 4)[seed % 3]
    pp = min((1, 2, 4)[seed // 3 % 3], model.num_layers,
             cluster.world_size // tp)
    while True:
        zero = rng.choice((0, 0, 1, 3))
        recipe = TrainingRecipe(
            tensor_parallel=tp, pipeline_parallel=pp,
            microbatch_multiplier=rng.choice((1, 2, 3)),
            virtual_stages=rng.choice((1, 2)) if pp > 1 else 1,
            activation_recomputation=rng.random() < 0.4,
            sequence_parallelism=tp > 1 and rng.random() < 0.5,
            distributed_optimizer=zero == 0 and rng.random() < 0.3,
            schedule=rng.choice(("1f1b", "1f1b", "gpipe")),
            zero_stage=zero, offload=rng.random() < 0.25,
            dtype="float16")
        dp = cluster.world_size // (tp * pp)
        batch = dp * recipe.num_microbatches * rng.choice((1, 2))
        if recipe.is_valid(cluster.world_size, batch, model.num_layers,
                           model.num_heads, cluster.gpus_per_node):
            return TransformerTrainingJob(model, recipe, cluster,
                                          global_batch_size=batch,
                                          iterations=rng.choice((1, 3)))


def _oom_job():
    """A GPipe job that runs out of memory once a few microbatches'
    activations are live, after some of its forwards were replayed."""
    return TransformerTrainingJob(
        _MODELS["gpt3-345m-l4"],
        TrainingRecipe(pipeline_parallel=2, microbatch_multiplier=8,
                       schedule="gpipe", dtype="float16"),
        get_cluster("v100-8"), global_batch_size=128)


class _Session(EmulationSession):
    """Keeps each rank's emulator for the end-of-run checks."""

    def __init__(self, cluster):
        super().__init__(cluster)
        self.emulators = {}

    def create_emulator(self, rank):
        emulator = self.emulators[rank] = super().create_emulator(rank)
        return emulator


def _emulate(job):
    session = _Session(job.cluster)
    result = session.run(job.worker_fn, world_size=job.world_size)
    comm_seqs = {rank: [(comm.unique_id, comm.seq)
                        for comm in emulator.runtime.communicators]
                 for rank, emulator in session.emulators.items()}
    return result, comm_seqs


def _same(actual, expected):
    """``actual == expected``, as a plain bool: pytest's explanation of an
    unequal pair diffs whole traces, which takes minutes."""
    return actual == expected


def _assert_same_traces(job, expected_job):
    assert sorted(job.workers) == sorted(expected_job.workers)
    for rank, trace in job.workers.items():
        expected = expected_job.workers[rank]
        assert _same(trace.to_json(), expected.to_json()), rank
        for name, _ in COLUMN_DTYPES:
            assert _same(trace.columns.lists()[name],
                         expected.columns.lists()[name]), (rank, name)
        assert trace.columns.templates == expected.columns.templates
        assert trace.columns.host_classes == expected.columns.host_classes
        assert trace.metadata == expected.metadata
        assert trace.peak_memory_bytes == expected.peak_memory_bytes
        assert trace.oom == expected.oom
    assert job.metadata == expected_job.metadata
    assert job.representative == expected_job.representative


def _check_job(job, monkeypatch):
    replayed, replayed_seqs = _emulate(job)
    with monkeypatch.context() as patch:
        patch.setattr(DeviceEmulator, "replay_block", _every_call)
        expected, expected_seqs = _emulate(job)
    assert expected.replayed_calls == 0
    _assert_same_traces(replayed.job_trace, expected.job_trace)
    assert replayed.oom == expected.oom
    assert replayed_seqs == expected_seqs
    return replayed


@pytest.mark.parametrize("seed", SEEDS)
def test_replay_matches_every_call(seed, monkeypatch):
    _check_job(_random_job(seed), monkeypatch)


def test_oom_job_matches_every_call(monkeypatch):
    result = _check_job(_oom_job(), monkeypatch)
    assert result.oom
    assert result.job_trace.any_oom()
    assert result.replayed_calls > 0


def test_jobs_cover_the_knobs(monkeypatch):
    """The seeds reach every knob the issue names, and replay engages."""
    jobs = [_random_job(seed) for seed in SEEDS]
    recipes = [job.recipe for job in jobs]
    assert {r.tensor_parallel for r in recipes} == {1, 2, 4}
    assert {r.pipeline_parallel for r in recipes} == {1, 2, 4}
    assert {job.model.name for job in jobs} == set(_MODELS)
    assert {job.cluster.name for job in jobs} == {"v100-8", "v100-16"}
    assert {job.iterations for job in jobs} == {1, 3}
    assert any(r.virtual_stages > 1 for r in recipes)
    assert any(r.sequence_parallelism for r in recipes)
    assert any(r.activation_recomputation for r in recipes)
    assert any(r.offload for r in recipes)
    assert any(r.zero_stage == 3 for r in recipes)
    assert any(r.schedule == "gpipe" for r in recipes)
    assert any(r.data_parallel_degree(job.cluster.world_size) > 1
               for r, job in zip(recipes, jobs))
    replayed = [_emulate(job)[0].replayed_calls for job in jobs]
    assert sum(count > 0 for count in replayed) >= 40


# ----------------------------------------------------------------------
# guards, on a bare emulator
# ----------------------------------------------------------------------
#: Calls ``_Worker.body(None)`` issues.
_BODY_CALLS = 5


class _Worker:
    """A hand-written block body plus the state it issues calls through."""

    def __init__(self, emulator):
        self.emulator = emulator
        self.runtime = runtime = emulator.runtime
        self.cublas = CublasHandle(runtime)
        self.stream = runtime.cuda_stream_create()
        self.comm = comm_init_rank(runtime, NcclUniqueId(4242, "tp"), 0,
                                   (0, 1))
        self.pointers = []

    def body(self, extra):
        self.cublas.hgemm(64, 64, 32)
        self.runtime.launch_kernel("k", "elementwise", {"n": 1.0},
                                   self.stream.stream_id)
        self.comm.all_reduce(128, stream=self.stream.stream_id)
        if extra == "event":
            event = self.runtime.cuda_event_create()
            self.runtime.cuda_event_record(event, self.stream.stream_id)
        elif extra == "malloc":
            self.pointers.append(self.runtime.cuda_malloc(1024))
        self.runtime.cuda_memcpy_async(16, "h2d", self.stream.stream_id)
        self.comm.broadcast(8, stream=self.stream.stream_id)

    def kernels(self, read):
        """Kernels only, with a ``len(trace)`` read between them."""
        self.cublas.hgemm(64, 64, 32)
        if read:
            len(self.emulator.trace)
        self.runtime.launch_kernel("k", "elementwise", {"n": 1.0},
                                   self.stream.stream_id)


def _drive(emulator_cls, script):
    """Run ``script(worker)`` on a fresh emulator; the trace and the
    state replay must advance, plus the error the script ended with."""
    emulator = emulator_cls(rank=0, device=0, gpu=get_gpu("V100"))
    worker = _Worker(emulator)
    error = None
    try:
        script(worker)
    except (CudaInvalidHandleError, NcclError) as exc:
        error = (type(exc), str(exc))
    trace = emulator.finalize()
    return (trace.to_json(), worker.comm.seq, emulator.runtime.kernel_count,
            error), emulator


def _compare(script, monkeypatch):
    replayed, emulator = _drive(DeviceEmulator, script)
    with monkeypatch.context() as patch:
        patch.setattr(DeviceEmulator, "replay_block", _every_call)
        expected, _ = _drive(DeviceEmulator, script)
    assert _same(replayed, expected)
    assert _same(_drive(ReferenceEmulator, script)[0], expected)
    return emulator


def test_pure_block_is_replayed(monkeypatch):
    def script(worker):
        for _ in range(4):
            worker.emulator.replay_block(worker.body, None)

    emulator = _compare(script, monkeypatch)
    assert emulator.replayed_calls == 3 * _BODY_CALLS


@pytest.mark.parametrize("extra", ["event", "malloc"])
def test_impure_block_runs_every_time(extra, monkeypatch):
    """An event or malloc call in the block keeps it from being
    memoized."""
    def script(worker):
        for _ in range(3):
            worker.emulator.replay_block(worker.body, extra)
        assert not worker.emulator.trace.columns.blocks

    emulator = _compare(script, monkeypatch)
    assert emulator.replayed_calls == 0


@pytest.mark.parametrize("read", [False, True])
def test_mid_block_flush_runs_every_time(read, monkeypatch):
    """A ``len(trace)`` read inside a block flushes the log midway, so the
    log no longer holds the whole block: it is not memoized."""
    def script(worker):
        for _ in range(3):
            worker.emulator.replay_block(worker.kernels, read)
        if read:
            assert not worker.emulator.trace.columns.blocks

    emulator = _compare(script, monkeypatch)
    assert emulator.replayed_calls == (0 if read else 2 * 2)


@pytest.mark.parametrize("change", ["cublas_set_stream", "cublas_destroy",
                                    "stream_destroy", "comm_destroy"])
def test_runtime_change_forces_rerecord(change, monkeypatch):
    """A change between two repeats makes the next run re-record; a
    destroyed handle, stream or communicator raises the same error."""
    def script(worker):
        replay = worker.emulator.replay_block
        replay(worker.body, None)
        replay(worker.body, None)
        if change == "cublas_set_stream":
            worker.cublas.set_stream(worker.stream.stream_id)
        elif change == "cublas_destroy":
            worker.cublas.destroy()
        elif change == "stream_destroy":
            worker.runtime.cuda_stream_destroy(worker.stream)
        else:
            worker.comm.destroy()
        replay(worker.body, None)
        replay(worker.body, None)

    emulator = _compare(script, monkeypatch)
    # The repeat before the change; after it, one re-record then a replay
    # (only when the change left the body runnable).
    assert emulator.replayed_calls == _BODY_CALLS * (
        2 if change == "cublas_set_stream" else 1)


@pytest.mark.parametrize("seed", range(4))
def test_recording_after_finalize_matches_reference(seed):
    """An engine worker run three times on one emulator, finalized after
    each: the blocks go with the pattern pool and are recorded anew."""
    job = _random_job(seed)
    rank = job.unique_ranks()[-1]
    exports = []
    for emulator_cls in (DeviceEmulator, ReferenceEmulator):
        emulator = emulator_cls(rank=rank, device=0, gpu=job.cluster.gpu)
        parts = []
        for _ in range(3):
            job.worker_fn(rank, emulator)
            parts.append(emulator.finalize().to_json())
            assert not emulator.trace.columns.blocks
        exports.append(parts)
    assert _same(exports[0], exports[1])
