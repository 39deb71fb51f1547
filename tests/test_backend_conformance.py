"""Cross-backend conformance and lifecycle tests.

The conformance harness (``tests/backend_conformance.py``) runs one
identical two-batch workload through every evaluation backend and asserts
byte-identical results, serial-equivalent cache accounting and a uniform
``throughput_stats()`` shape.  The lifecycle classes pin down the
persistent pool's failure behaviour (exception mid-batch, stale sync
epochs, idempotent close) and that no backend leaks worker processes.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from backend_conformance import (
    assert_accounting_matches,
    assert_conformant,
    assert_placements_cover_dispatch,
    assert_results_identical,
    assert_throughput_shape,
    conformance_backends,
    default_batches,
    make_jobs,
    run_conformance,
)
from repro.core.pipeline import PredictionResult
from repro.framework.recipe import TrainingRecipe
from repro.service import (
    ArtifactCache,
    BackendWorkerError,
    PredictionService,
    get_backend,
)

BACKENDS = conformance_backends()


class _FlowJob:
    """Picklable job with a bulky payload (stresses the job-message pipe)."""

    def __init__(self, index: int, payload_bytes: int = 0) -> None:
        self.index = index
        self.name = f"flow-{index}"
        self.payload = b"\x00" * payload_bytes


class _FlowService:
    """Minimal service stand-in that drives a backend directly.

    ``predict`` is instant and returns a result of configurable size, so
    these tests stress only the backend's pipe protocol (scatter/gather
    flow control, sync timeouts), never the real pipeline.
    """

    def __init__(self, result_bytes: int = 0, max_workers: int = 2) -> None:
        self.max_workers = max_workers
        self.enable_cache = True
        self.share_provider = False
        self.cache = ArtifactCache()
        self.result_bytes = result_bytes

    @property
    def stats(self):
        return self.cache.stats

    def provider(self):
        return None

    def _warm_pipeline(self) -> None:
        pass

    def _artifact_key(self, job):
        return ("flow", job.index)

    def _prediction_key(self, job):
        return ("flow-pred", job.index)

    def predict(self, job):
        return PredictionResult(
            job_name=job.name, iteration_time=float(job.index),
            total_time=0.0, communication_time=0.0, peak_memory_bytes=0,
            oom=False, metadata={"bulk": "x" * self.result_bytes})


class _NoAckConn:
    """Pipe stand-in for a wedged-but-alive worker: never acks a sync."""

    def send(self, message) -> None:
        pass

    def poll(self, timeout=None) -> bool:
        return False

    def recv(self):  # pragma: no cover - poll() gates every recv
        raise AssertionError("recv without a successful poll")

    def close(self) -> None:
        pass


class _RecordingConn:
    """Pipe proxy logging the order of the parent's sends and ack waits."""

    def __init__(self, conn, name, log) -> None:
        self._conn, self._name, self._log = conn, name, log

    def send(self, message) -> None:
        self._log.append(("send", self._name, message[0]))
        self._conn.send(message)

    def poll(self, timeout=None) -> bool:
        self._log.append(("poll", self._name))
        return self._conn.poll(timeout)

    def __getattr__(self, attribute):  # recv / fileno / close
        return getattr(self._conn, attribute)


def _wait_no_extra_children(before, timeout=10.0):
    """Wait until no child processes beyond ``before`` remain."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        extra = set(multiprocessing.active_children()) - set(before)
        if not extra:
            return []
        time.sleep(0.05)
    return sorted(p.pid for p in extra)


@pytest.fixture(scope="module")
def reference(tiny_model, v100_cluster):
    """Serial reference run every backend is compared against."""
    return run_conformance(tiny_model, v100_cluster, "serial", workers=1)


class TestBackendConformance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_conformant_with_serial(self, tiny_model, v100_cluster,
                                            reference, backend):
        run = run_conformance(tiny_model, v100_cluster, backend)
        assert_conformant(reference, run)
        assert_placements_cover_dispatch(run)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_worker_processes_outlive_the_service(self, tiny_model,
                                                     v100_cluster, backend):
        before = multiprocessing.active_children()
        run_conformance(tiny_model, v100_cluster, backend)
        assert _wait_no_extra_children(before) == []

    def test_persistent_ships_deltas_not_snapshots(self, tiny_model,
                                                   v100_cluster):
        run = run_conformance(tiny_model, v100_cluster, "persistent")
        # Batch 2's artifact-level hits were served from incrementally
        # shipped entries, never from a full resync.
        assert run.sync_stats["batches"] >= 2
        assert run.sync_stats["delta_syncs"] >= 1
        assert run.sync_stats["full_syncs"] == 0

    def test_eviction_forces_resync_not_stale_hits(self, tiny_model,
                                                   v100_cluster):
        # A tiny cache forces a FIFO eviction while the workers' last sync
        # predates it.  Deltas only carry puts, so the workers must receive
        # a full snapshot -- otherwise the worker that originally emulated
        # the evicted entry would serve (and count) an artifact hit for a
        # structural sibling that a serial run re-emulates from cold.
        from repro.framework.recipe import TrainingRecipe
        from repro.service import ArtifactCache, PredictionService

        base = default_batches()[0]      # 4 distinct structural keys
        batches = [base, [
            base[0].replace(compiled=True),   # sibling of the evicted entry
            TrainingRecipe(tensor_parallel=4, pipeline_parallel=1,
                           microbatch_multiplier=2, dtype="float16"),
        ]]

        def run(backend):
            service = PredictionService(cluster=v100_cluster,
                                        estimator_mode="analytical",
                                        cache=ArtifactCache(max_entries=3),
                                        backend=backend, max_workers=2)
            return run_conformance(tiny_model, v100_cluster, backend,
                                   batches=batches, service=service)

        reference = run("serial")
        persistent = run("persistent")
        # Batch 1 evicted the first structural key on the parent, so the
        # sibling in batch 2 must be a cold miss everywhere -- a stale
        # worker copy would have turned it into an artifact hit.
        assert reference.flat_results[4].metadata["service_cache"] == "miss"
        assert_accounting_matches(reference, persistent)
        assert_results_identical(reference.flat_results,
                                 persistent.flat_results,
                                 backend="persistent-evicting")
        assert persistent.sync_stats["full_syncs"] >= 1

    def test_backends_conformant_with_store_attached(self, tiny_model,
                                                     v100_cluster, tmp_path):
        # Every backend run against one shared, pre-populated store
        # directory must match a serial run against the same store:
        # identical results AND identical tier accounting (store hits for
        # batch 1, memory/prediction hits within batch 2).  Forked
        # workers share the parent's store, yet receive every hydrated
        # artifact as an inline payload through the ordinary sync.
        store_dir = str(tmp_path / "shared-store")

        def run(backend):
            service = PredictionService(cluster=v100_cluster,
                                        estimator_mode="analytical",
                                        backend=backend, max_workers=2,
                                        store_dir=store_dir)
            return run_conformance(tiny_model, v100_cluster, backend,
                                   service=service)

        seed = run("serial")          # cold run populates the store
        assert seed.cache_stats["store_hits"] == 0
        reference = run("serial")     # warm serial reference
        assert reference.cache_stats["store_hits"] > 0
        assert reference.cache_stats["memory_hits"] \
            + reference.cache_stats["store_hits"] \
            == reference.cache_stats["artifact_hits"]

        for backend in BACKENDS:
            if backend != "serial":
                assert_conformant(reference, run(backend))


class TestPersistentLifecycle:
    def _service(self, cluster, **kwargs):
        kwargs.setdefault("backend", "persistent")
        kwargs.setdefault("max_workers", 2)
        return PredictionService(cluster=cluster,
                                 estimator_mode="analytical", **kwargs)

    def test_pool_is_created_once_and_reused(self, tiny_model, v100_cluster):
        with self._service(v100_cluster) as service:
            batches = default_batches()
            service.predict_many(make_jobs(tiny_model, v100_cluster,
                                           batches[0]))
            pids = sorted(worker.process.pid
                          for worker in service.backend_impl._workers)
            assert len(pids) == 2
            service.predict_many(make_jobs(tiny_model, v100_cluster,
                                           batches[1]))
            again = sorted(worker.process.pid
                           for worker in service.backend_impl._workers)
            assert again == pids, "second batch must reuse the same workers"

    def test_fork_unavailable_falls_back_to_serial(
            self, tiny_model, v100_cluster, reference, monkeypatch):
        # Without a fork start method the persistent backend evaluates
        # every batch on the serial backend and tags why.
        from repro.service import backends

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(backends.multiprocessing, "get_context",
                            no_fork)
        before = multiprocessing.active_children()
        run = run_conformance(tiny_model, v100_cluster, "persistent")
        assert_results_identical(reference.flat_results, run.flat_results,
                                 backend="persistent")
        assert run.cache_stats == reference.cache_stats
        # Prediction-level hits resolve in predict_many before any
        # backend sees them; everything the backend evaluated is tagged.
        evaluated = [result for result in run.flat_results
                     if result.metadata["service_cache"] != "prediction"]
        assert len(evaluated) == len(run.flat_results) - 1
        assert all(result.metadata.get("backend_fallback")
                   == "fork unavailable" for result in evaluated)
        assert _wait_no_extra_children(before) == []

    def test_exception_mid_batch_does_not_leak_workers(
            self, tiny_model, v100_cluster, reference, monkeypatch):
        original = PredictionService.predict

        def failing_predict(self, job):
            if getattr(job, "conformance_boom", False):
                raise RuntimeError("injected mid-batch failure")
            return original(self, job)

        # Patch before warm(): the forked workers inherit the failing
        # predict, the parent process keeps it for the (unused) flag.
        monkeypatch.setattr(PredictionService, "predict", failing_predict)
        before = multiprocessing.active_children()
        with self._service(v100_cluster) as service:
            service.warm()
            jobs = make_jobs(tiny_model, v100_cluster, default_batches()[0])
            jobs[0].conformance_boom = True
            with pytest.raises(BackendWorkerError):
                service.predict_many(jobs)
            # The pool survived the failure ...
            assert all(worker.alive()
                       for worker in service.backend_impl._workers)
            # ... and the next batch still evaluates correctly.
            retry = service.predict_many(
                make_jobs(tiny_model, v100_cluster, default_batches()[0]))
            for expected, actual in zip(reference.results[0], retry):
                assert actual.iteration_time == expected.iteration_time
                assert actual.oom == expected.oom
        assert _wait_no_extra_children(before) == []

    def test_stale_epoch_forces_full_resync(self, tiny_model, v100_cluster,
                                            reference):
        batches = default_batches()
        with self._service(v100_cluster) as service:
            first = service.predict_many(make_jobs(tiny_model, v100_cluster,
                                                   batches[0]))
            # Corrupt every worker's sync cursor: the journal cannot serve
            # an epoch it never issued, so the next sync must replace the
            # workers' caches wholesale instead of trusting them.
            for worker in service.backend_impl._workers:
                worker.epoch = 10 ** 9
            second = service.predict_many(make_jobs(tiny_model, v100_cluster,
                                                    batches[1]))
            assert service.backend_impl.sync_stats["full_syncs"] >= 1
            assert_results_identical(reference.flat_results, first + second,
                                     backend="persistent-resync")

    def test_close_is_idempotent_and_context_manager_exits_clean(
            self, tiny_model, v100_cluster):
        before = multiprocessing.active_children()
        service = self._service(v100_cluster)
        with service:
            service.predict_many(make_jobs(tiny_model, v100_cluster,
                                           default_batches()[0]))
        assert _wait_no_extra_children(before) == []
        service.close()
        service.close()
        # A closed service can still evaluate: the backend re-warms a
        # fresh pool on the next batch.
        with service:
            results = service.predict_many(
                make_jobs(tiny_model, v100_cluster, default_batches()[0]))
            assert all(result.metadata["service_cache"] == "prediction"
                       for result in results)
        assert _wait_no_extra_children(before) == []

    def test_switching_backend_closes_the_pool(self, tiny_model,
                                               v100_cluster):
        before = multiprocessing.active_children()
        service = self._service(v100_cluster)
        service.predict_many(make_jobs(tiny_model, v100_cluster,
                                       default_batches()[0]))
        service.backend = "serial"
        assert _wait_no_extra_children(before) == []

    def test_large_batch_and_large_results_do_not_deadlock(self):
        # Pipes are fixed-size OS buffers (~64KB each way).  Per-worker job
        # bytes and every result here both exceed that, so scattering the
        # whole batch before gathering anything would deadlock: a worker
        # blocked sending a large result stops recv'ing jobs while the
        # parent blocks sending the rest of the worker's share.  The
        # interleaved scatter/gather (bounded in-flight window) must
        # finish regardless of batch and result size.
        backend = get_backend("persistent")
        service = _FlowService(result_bytes=256 * 1024)
        jobs = [_FlowJob(i, payload_bytes=32 * 1024) for i in range(24)]
        done = []
        thread = threading.Thread(
            target=lambda: done.append(backend.evaluate(service, jobs)),
            daemon=True)
        thread.start()
        thread.join(timeout=120)
        try:
            assert done, ("persistent batch deadlocked: scatter and gather "
                          "are not interleaved")
        finally:
            backend.close()
        assert [result.iteration_time for result in done[0]] == [
            float(index) for index in range(24)]

    def test_unresponsive_sync_worker_is_discarded_not_hung(self):
        # A wedged-but-alive worker that never acks its sync must not hang
        # the service: the ack wait times out, the worker is discarded
        # (and reaped), and its share is evaluated on the parent.
        backend = get_backend("persistent")
        backend.sync_timeout = 0.2
        service = _FlowService()
        try:
            backend.warm(service)
            assert len(backend._workers) == 2
            victim = backend._workers[0]
            victim.epoch = -1  # unserviceable: forces a sync message
            real_conn, victim.conn = victim.conn, _NoAckConn()
            results = backend.evaluate(service,
                                       [_FlowJob(i) for i in range(6)])
            assert [result.iteration_time for result in results] == [
                float(index) for index in range(6)]
            assert victim not in backend._workers
            assert not victim.process.is_alive()
            real_conn.close()
        finally:
            backend.close()

    def test_syncs_are_all_sent_before_any_ack_is_awaited(self):
        # Workers decode their deltas concurrently only if the parent
        # ships every assigned worker's sync before it blocks on an ack.
        backend = get_backend("persistent")
        service = _FlowService()
        log = []
        try:
            backend.warm(service)
            for name, worker in enumerate(backend._workers):
                worker.epoch = -1  # unserviceable: forces a sync message
                worker.conn = _RecordingConn(worker.conn, name, log)
            results = backend.evaluate(service,
                                       [_FlowJob(i) for i in range(6)])
            assert [result.iteration_time for result in results] == [
                float(index) for index in range(6)]
            assert backend.sync_stats["full_syncs"] == 2
        finally:
            backend.close()
        # (warm's idle-connection probe polls before any sync is sent)
        log = log[log.index(("send", 0, "sync")):]
        sync_traffic = [entry[:2] for entry in log
                        if entry[0] == "poll" or entry[2] == "sync"]
        assert sync_traffic[:3] == [("send", 0), ("send", 1), ("poll", 0)]
        assert ("poll", 1) in sync_traffic

    def test_concurrent_warm_and_close_strand_no_workers(self):
        # close() racing a warm() top-up from another thread must never
        # leave a freshly forked worker outside the pool list where no
        # teardown can reach it.
        before = multiprocessing.active_children()
        backend = get_backend("persistent")
        service = _FlowService()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                backend.close()

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(10):
                backend.warm(service)
        finally:
            stop.set()
            thread.join()
            backend.close()
        assert _wait_no_extra_children(before) == []
