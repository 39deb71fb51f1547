"""Evaluation backends: how ``predict_many`` fans a batch of trials out.

Five interchangeable strategies sit behind the same
:meth:`~repro.service.PredictionService.predict_many` interface, all
implementing one explicit lifecycle -- ``warm`` / ``submit`` / ``drain`` /
``close``:

* ``serial`` -- evaluate leaders one after another on the calling thread
  (the reference behaviour every other backend must match bit for bit).
* ``thread`` -- a ``ThreadPoolExecutor``.  Cheap to spin up and shares the
  artifact cache in-process, but the GIL serialises the pure-Python
  emulator and simulator, so it mostly helps when trials block on cache
  locks.
* ``process`` -- a fork-based ``ProcessPoolExecutor`` created *per batch*.
  The service is warmed before forking, so workers inherit the trained
  estimator suite, the shared duration provider's kernel memo and the
  artifact cache accumulated so far as copy-on-write memory; jobs are
  dispatched by index (nothing but an integer crosses the pipe on the way
  in).  Each worker runs the ordinary cache-aware ``predict`` path; results
  travel back as pickled :class:`~repro.core.pipeline.PredictionResult`
  objects, and any *freshly emulated* artifacts as one columnar payload
  (:func:`repro.service.wire.dumps_columnar`), which the parent decodes
  into its own :class:`~repro.service.cache.ArtifactCache` (so the next
  batch forks with those artifacts already in memory).  Cache statistics
  are replayed on the parent so the accounting matches what a serial
  evaluation would have recorded.
* ``persistent`` -- a long-lived fork-based worker pool created once per
  service (``warm()``) and reused across batches (``close()`` tears it
  down).  Instead of re-inheriting the newest cache through a fresh fork,
  workers are kept in sync by **incremental cache deltas**: before each
  batch the parent ships only the artifact entries (the same columnar
  payloads, encoded once however many workers receive them) and
  shared-provider duration memos created since that worker's last sync,
  keyed by the artifact cache's sync epoch, and the worker acks the epoch
  before any job of the batch reaches it.  A worker whose epoch the
  journal cannot serve receives a full snapshot instead.  Jobs
  are dispatched with a bounded per-worker in-flight window, interleaving
  scatter with gather so neither side can block on a full pipe buffer; the
  result payloads and parent-side merge are identical to the ``process``
  backend, so accounting stays byte-identical to a serial run -- fork
  overhead is simply paid once instead of once per batch.
* ``socket`` -- the persistent lifecycle over TCP: workers are remote
  ``repro worker-host`` processes (other machines, or localhost for
  tests).  With no fork inheritance across hosts, ``warm`` bootstraps
  each worker by shipping the warmed service once -- estimator suite,
  shared-provider memos, host profile and current cache -- over the
  length-prefixed wire protocol (:mod:`repro.service.wire`); afterwards
  the same sync deltas, job dispatch, result payloads and input-order
  merge apply, so results and accounting stay byte-identical to serial.
  Addresses come from ``PredictionService(backend="socket",
  workers=[...])``, CLI ``--worker-hosts`` or ``REPRO_WORKER_HOSTS``.

Fork is a hard requirement for the local process-based backends
(inheriting multi-MB trained estimator state by copy-on-write is the
whole point); on platforms without it both degrade to the thread backend
and record the downgrade in each result's metadata.  The socket backend
needs no fork -- remote workers bootstrap from the warm payload instead.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from itertools import islice
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PredictionResult
from repro.service import faults, wire
from repro.service.scheduling import (SCHEDULER_ENV, JobSpec, WorkerSnapshot,
                                      get_scheduler, validate_scheduler)
from repro.service.store import StoreRef
from repro.service.wire import FEATURE_PING, WireError
from repro.workloads.job import TrainingJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.predictor import PredictionService

#: Registered backend names, in documentation order.
BACKEND_NAMES = ("serial", "thread", "process", "persistent", "socket")

#: Environment variables overriding the pooled backends' default timeouts
#: (explicit constructor / CLI values win over the environment).
SYNC_TIMEOUT_ENV = "REPRO_SYNC_TIMEOUT"
LEASE_TIMEOUT_ENV = "REPRO_LEASE_TIMEOUT"

#: Connection failures every scatter/gather path treats as a dead worker:
#: broken pipes, clean EOFs, OS-level socket errors, and wire streams
#: that turned to garbage (a corrupted frame is a dead connection, not a
#: fatal error -- the victim's jobs re-dispatch like any other failure).
_CONN_FAILURES = (BrokenPipeError, EOFError, OSError, WireError)


def validate_timeout(name: str, value, allow_zero: bool = False) -> float:
    """Validate a timeout given in seconds; raise ``ValueError`` if bad."""
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be a number of seconds, got {value!r}") from None
    if result != result:  # NaN
        raise ValueError(f"{name} must be a number of seconds, got NaN")
    if result < 0 or (result == 0 and not allow_zero):
        bound = ">= 0 (0 disables it)" if allow_zero else "> 0"
        raise ValueError(f"{name} must be {bound} seconds, got {result}")
    return result


def _timeout_from_env(name: str, env_var: str, default: float,
                      allow_zero: bool = False) -> float:
    raw = os.environ.get(env_var)
    if raw is None or not raw.strip():
        return default
    return validate_timeout(f"{env_var} ({name})", raw, allow_zero=allow_zero)

#: State inherited by forked workers: (service, jobs of the current batch).
#: Set immediately before the pool forks and cleared right after the batch;
#: worker processes read their fork-time copy of it instead of unpickling
#: the service per task.  ``_CONTEXT_LOCK`` serialises concurrent
#: process-backend batches so no pool can fork while another batch's
#: context is installed.
_WORKER_CONTEXT: Optional[Tuple["PredictionService", List[TrainingJob]]] = None
_CONTEXT_LOCK = threading.Lock()


class BackendWorkerError(RuntimeError):
    """A worker process failed while evaluating one job of a batch."""


class _WorkerUnresponsive(OSError):
    """A live worker stopped answering within the sync timeout.

    Subclasses :class:`OSError` so every pipe-failure handler already
    treats it like a dead worker: discard the process and evaluate its
    share on the parent.
    """


def _artifact_key(service: "PredictionService",
                  job: TrainingJob) -> Optional[Tuple]:
    """The job's artifact-cache key; ``None`` for unkeyable job types."""
    try:
        return service._artifact_key(job)
    except (NotImplementedError, TypeError):
        return None


def _evaluate_job(service: "PredictionService", index: int, job: TrainingJob,
                  conn=None) -> Tuple[int, PredictionResult, Optional[bytes]]:
    """Evaluate one job inside a worker process.

    Returns the prediction plus, for cache misses, the freshly emulated
    artifacts encoded once, in the wire format of ``conn``'s peer (``None``:
    a fork-pool result queue), so the parent can cache them (worker memory
    is copy-on-write or a fork-time copy: nothing written here is visible
    to the parent).  The first replay already lowered every trace to
    columns, so encoding is a buffer copy.  ``job`` and ``cluster`` stay
    behind: the parent re-attaches its own.
    """
    result = service.predict(job)
    payload: Optional[bytes] = None
    if result.metadata.get("service_cache") == "miss":
        key = _artifact_key(service, job)
        if key is not None:
            artifacts = service.cache.peek_artifacts(key)
            if artifacts is not None:
                payload = wire.dumps_for_format(
                    replace(artifacts, job=None, cluster=None),
                    wire.format_for_peer(conn))
    return index, result, payload


def _process_worker(index: int) -> Tuple[int, PredictionResult,
                                         Optional[bytes]]:
    """Evaluate one job of the batch inside a per-batch forked worker."""
    service, jobs = _WORKER_CONTEXT
    return _evaluate_job(service, index, jobs[index])


def _split_structural(service: "PredictionService",
                      jobs: Sequence[TrainingJob]
                      ) -> Tuple[List[int], List[int]]:
    """Split a batch into (dispatch, deferred) indices.

    Forked workers can't see each other's caches, so structurally identical
    jobs dispatched together would all emulate cold.  Only the first job
    per structural key is dispatched; the siblings are deferred and resolve
    on the parent after the merge, hitting the merged artifacts exactly as
    they would have under the serial backend.
    """
    if not service.enable_cache:
        return list(range(len(jobs))), []
    dispatch: List[int] = []
    deferred: List[int] = []
    seen_keys = set()
    for index, job in enumerate(jobs):
        key = _artifact_key(service, job)
        if key is not None and key in seen_keys:
            deferred.append(index)
            continue
        if key is not None:
            seen_keys.add(key)
        dispatch.append(index)
    return dispatch, deferred


def _merge_batch(service: "PredictionService", jobs: Sequence[TrainingJob],
                 payloads: Sequence[Tuple]) -> List[Optional[PredictionResult]]:
    """Fold worker results back into the parent service.

    Replays the cache accounting each worker performed against its own
    (invisible) cache copy, decodes freshly emulated artifacts from their
    wire payloads, and seeds the prediction cache so followers and future
    batches resolve exactly as they would have serially.
    """
    results: List[Optional[PredictionResult]] = [None] * len(jobs)
    stats = service.stats
    for index, result, payload in payloads:
        results[index] = result
        level = result.metadata.get("service_cache")
        tier = result.metadata.get("artifact_tier")
        if level == "miss":
            stats.prediction_misses += 1
            stats.artifact_misses += 1
        elif level == "artifacts":
            stats.prediction_misses += 1
            stats.artifact_hits += 1
            if tier == "store":
                stats.store_hits += 1
            else:
                stats.memory_hits += 1
        elif level == "prediction":
            stats.prediction_hits += 1
        if not service.enable_cache or level is None:
            continue
        job = jobs[index]
        artifact_key = _artifact_key(service, job)
        if payload is not None:
            # Fresh emulation: cache the worker's artifacts (traces and
            # collation, as it encoded them) under the parent's own objects.
            if (artifact_key is not None
                    and service.cache.peek_artifacts(artifact_key) is None):
                service.cache.put_artifacts(artifact_key, replace(
                    wire.loads(payload), job=job,
                    cluster=service.pipeline.cluster))
        elif (level == "artifacts" and tier == "store"
              and artifact_key is not None):
            # The worker's lookup fell through to the disk store and
            # hydrated *its* memory tier; mirror that on the parent (from
            # the parent's own store, in input order) so the journal, the
            # eviction state and the next batch's lookups land exactly
            # where a serial store hit would have left them.
            service.cache.hydrate_from_store(artifact_key)
        try:
            prediction_key = service._prediction_key(job)
        except (NotImplementedError, TypeError):
            prediction_key = None
        if (prediction_key is not None
                and service.cache.peek_prediction(prediction_key) is None):
            service.cache.put_prediction(prediction_key, result)
    return results


class EvaluationBackend:
    """Strategy interface for evaluating batches of leader jobs.

    Every backend implements the same four-phase lifecycle:

    * :meth:`warm` -- one-time (idempotent) resource acquisition.  Only
      the pooled backends do real work here (``persistent`` forks its
      worker pool, ``socket`` connects to and bootstraps its worker
      hosts); for the others it is a no-op (their pools are per batch).
    * :meth:`submit` -- hand one batch of jobs to the backend's workers.
    * :meth:`drain` -- block until the submitted batch is fully evaluated
      and return its results in input order.
    * :meth:`close` -- release every resource the backend holds.  Always
      idempotent; ``evaluate`` calls it automatically after each batch for
      non-persistent backends, and the owning service calls it on
      ``PredictionService.close()`` (or context-manager exit) for
      persistent ones.
    """

    name = "base"
    #: Whether the backend keeps state (a worker pool) alive across
    #: batches.  Persistent backends are closed by the owning service, not
    #: after every ``evaluate``.
    persistent = False

    def warm(self, service: "PredictionService") -> None:
        """Acquire long-lived resources (idempotent)."""

    def submit(self, service: "PredictionService",
               jobs: Sequence[TrainingJob]) -> None:
        """Begin evaluating one batch of jobs."""
        raise NotImplementedError

    def drain(self) -> List[PredictionResult]:
        """Collect the submitted batch's results, in input order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every resource held by the backend (idempotent)."""

    def pool_size(self) -> int:
        """Live long-lived workers held by this backend (0 when pools are
        per batch); surfaced by the prediction server's ``stats``."""
        return 0

    def evaluate(self, service: "PredictionService",
                 jobs: Sequence[TrainingJob]) -> List[PredictionResult]:
        """Evaluate ``jobs`` and return results in input order.

        Template over the lifecycle: non-persistent backends are closed
        after every batch (even on error), so no pool, fork context or
        worker process can outlive the call that created it.
        """
        self.warm(service)
        try:
            self.submit(service, jobs)
            return self.drain()
        finally:
            if not self.persistent:
                self.close()


class SerialBackend(EvaluationBackend):
    """Reference backend: one job after another on the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        self._pending: Optional[Tuple["PredictionService",
                                      List[TrainingJob]]] = None

    def submit(self, service: "PredictionService",
               jobs: Sequence[TrainingJob]) -> None:
        self._pending = (service, list(jobs))

    def drain(self) -> List[PredictionResult]:
        service, jobs = self._pending
        self._pending = None
        return [service.predict(job) for job in jobs]

    def close(self) -> None:
        self._pending = None


class ThreadBackend(EvaluationBackend):
    """Thread-pool backend (shared-memory, GIL-bound)."""

    name = "thread"

    def __init__(self) -> None:
        self._pool: Optional[ThreadPoolExecutor] = None
        self._futures: List = []
        self._serial: Optional[SerialBackend] = None

    def submit(self, service: "PredictionService",
               jobs: Sequence[TrainingJob]) -> None:
        workers = min(service.max_workers, len(jobs))
        if workers <= 1:
            self._serial = SerialBackend()
            self._serial.submit(service, jobs)
            return
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._futures = [self._pool.submit(service.predict, job)
                         for job in jobs]

    def drain(self) -> List[PredictionResult]:
        if self._serial is not None:
            serial, self._serial = self._serial, None
            return serial.drain()
        futures, self._futures = self._futures, []
        return [future.result() for future in futures]

    def close(self) -> None:
        self._serial = None
        self._futures = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessBackend(EvaluationBackend):
    """Fork-based process-pool backend (true parallelism, pool per batch)."""

    name = "process"

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: List = []
        self._delegate: Optional[EvaluationBackend] = None
        self._fallback = False
        self._service: Optional["PredictionService"] = None
        self._jobs: List[TrainingJob] = []
        self._deferred: List[int] = []
        self._context_installed = False

    def submit(self, service: "PredictionService",
               jobs: Sequence[TrainingJob]) -> None:
        jobs = list(jobs)
        workers = min(service.max_workers, len(jobs))
        if workers <= 1:
            self._delegate = SerialBackend()
            self._delegate.submit(service, jobs)
            return
        # predict_many warms before calling us; repeat defensively so a
        # directly-driven backend never forks an untrained estimator suite
        # (each worker would train its own copy instead of inheriting it).
        service._warm_pipeline()
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            self._delegate = ThreadBackend()
            self._fallback = True
            self._delegate.submit(service, jobs)
            return

        dispatch, deferred = _split_structural(service, jobs)
        if len(dispatch) <= 1:
            # Everything but at most one job resolves from the cache the
            # leader populates: plain serial evaluation, no fork needed.
            self._delegate = SerialBackend()
            self._delegate.submit(service, jobs)
            return

        self._service = service
        self._jobs = jobs
        self._deferred = deferred
        global _WORKER_CONTEXT
        _CONTEXT_LOCK.acquire()
        self._context_installed = True
        try:
            _WORKER_CONTEXT = (service, jobs)
            # Workers fork on submit, i.e. *after* the context above is in
            # place and after the pipeline warmed.
            self._pool = ProcessPoolExecutor(max_workers=workers,
                                             mp_context=context)
            self._futures = [self._pool.submit(_process_worker, index)
                             for index in dispatch]
        except BaseException:
            # A direct lifecycle driver may never reach close(): the
            # process-wide lock must not outlive a failed submit.
            self._release_context()
            raise

    def drain(self) -> List[PredictionResult]:
        if self._delegate is not None:
            # The delegate stays referenced: evaluate's finally -> close()
            # shuts it down even when drain raises.
            results = self._delegate.drain()
            if self._fallback:
                for result in results:
                    result.metadata.setdefault("backend_fallback",
                                               "fork unavailable")
            return results
        futures, self._futures = self._futures, []
        payloads = [future.result() for future in futures]
        # Every worker has forked and finished: drop the fork context (and
        # the process-wide lock guarding it) before the parent-side merge
        # and deferred predictions, which can be expensive.
        self._release_context()
        service, jobs = self._service, self._jobs
        results = _merge_batch(service, jobs, payloads)
        for index in self._deferred:
            results[index] = service.predict(jobs[index])
        return results  # type: ignore[return-value]

    def _release_context(self) -> None:
        if self._context_installed:
            global _WORKER_CONTEXT
            _WORKER_CONTEXT = None
            self._context_installed = False
            _CONTEXT_LOCK.release()

    def close(self) -> None:
        if self._delegate is not None:
            self._delegate.close()
            self._delegate = None
        self._fallback = False
        self._futures = []
        if self._pool is not None:
            # cancel_futures so an exception mid-batch never leaves stray
            # tasks (and their worker processes) running past the service.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._release_context()
        self._service = None
        self._jobs = []
        self._deferred = []


# ----------------------------------------------------------------------
# pooled workers (persistent fork pool + multi-host socket pool)
# ----------------------------------------------------------------------
def _decode_sync_entries(service: "PredictionService",
                         entries: Sequence[Tuple]
                         ) -> Tuple[List[Tuple], List[Tuple]]:
    """Turn shipped sync entries back into artifacts (worker side).

    An entry's value is either the artifact's wire payload (decoded here)
    or a :class:`~repro.service.store.StoreRef` marker -- the worker-side
    half of the skip-snapshot-ship optimisation: the parent replaces
    store-held entries with tiny refs, and the worker loads the payloads
    from its own attached store (the same directory under the
    ``persistent`` backend's fork inheritance).  Returns the resolved
    entries plus the keys no store could serve (entry gc'd in between, or
    no store attached at all) -- those are reported back as a
    ``sync-miss`` so the parent re-ships them inline.  Store reads here
    are sync traffic: they bump the store's own counters, never the
    cache's hit/miss accounting.
    """
    store = getattr(service.cache, "store", None)
    resolved: List[Tuple] = []
    missing: List[Tuple] = []
    for key, value in entries:
        if isinstance(value, StoreRef):
            artifacts = store.get(key) if store is not None else None
            if artifacts is None:
                missing.append(key)
                continue
        else:
            artifacts = wire.loads(value)
        resolved.append((key, artifacts))
    return resolved, missing


def _pool_worker_main(conn, service: "PredictionService",
                      worker_id: Optional[int] = None) -> None:
    """Long-lived worker loop: apply sync deltas, evaluate jobs, repeat.

    The worker holds its own copy of the service (fork-time under the
    ``persistent`` backend, unpickled from the ``warm`` bootstrap message
    under ``socket``); sync messages keep its artifact cache (and the
    shared provider's duration memos) mirroring the parent's, so its
    per-job cache accounting is exactly what a serial evaluation on the
    parent would have recorded.  Job failures are reported, not fatal: the
    pool survives an exception mid-batch.

    ``conn`` is anything that duck-types
    :class:`multiprocessing.connection.Connection` -- a fork pipe or a
    :class:`repro.service.wire.WireConnection`; the loop is the single
    worker-side implementation of the lifecycle protocol for both
    transports.  ``ping`` frames are answered inline between jobs, which
    is the liveness signal for transports whose peer advertises
    :data:`~repro.service.wire.FEATURE_PING`.

    ``worker_id`` numbers this worker for ``worker``-scoped fault rules
    (fork spawn order; worker hosts read ``REPRO_FAULT_WORKER`` instead).
    The active :class:`~repro.service.faults.FaultPlan` hooks run before /
    after each job and before each sync ack; a ``drop`` rule surfaces as
    :class:`~repro.service.faults.FaultInjected` and closes the
    connection, exactly like a lost network path.
    """
    plan = faults.current_fault_plan(worker_id)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError, WireError):
                break
            kind = message[0]
            if kind == "close":
                break
            try:
                if kind == "ping":
                    conn.send(("pong", message[1]))
                elif kind == "sync":
                    (_, epoch, full, entries, kernel_memo,
                     collective_memo) = message
                    entries, store_misses = _decode_sync_entries(service,
                                                                 entries)
                    service.cache.apply_artifact_delta(entries, full=full)
                    provider = (service.provider()
                                if service.share_provider else None)
                    if provider is not None:
                        getattr(provider, "_kernel_cache",
                                {}).update(kernel_memo)
                        getattr(provider, "_collective_cache",
                                {}).update(collective_memo)
                    plan.on_sync(epoch)
                    if store_misses:
                        # A ref's entry was gc'd from the store beneath
                        # us: ask the parent to re-ship those inline (it
                        # answers with another sync at the same epoch).
                        conn.send(("sync-miss", epoch, store_misses))
                    else:
                        conn.send(("synced", epoch))
                elif kind == "job":
                    _, index, job = message
                    # Dispatched jobs have no prediction on the parent (hits
                    # resolve there before dispatch), so any local prediction
                    # entry could only be one the parent evicted -- drop the
                    # level so stale hits are impossible.
                    service.cache.drop_predictions()
                    plan.before_job(index)
                    started = time.perf_counter()
                    try:
                        payload = _evaluate_job(service, index, job, conn)
                    except BaseException:
                        conn.send(("error", index, traceback.format_exc()))
                    else:
                        conn.send(("result",) + payload)
                        plan.after_job(index,
                                       time.perf_counter() - started)
            except faults.FaultInjected:
                break
            except (BrokenPipeError, OSError, WireError):
                break
    finally:
        conn.close()


class _PoolWorker:
    """Parent-side handle of one long-lived worker (any transport)."""

    __slots__ = ("conn", "epoch", "kernel_memo_len", "collective_memo_len",
                 "ping_token", "ping_sent_at", "last_ping_at")

    #: Whether liveness is probed with wire ``ping`` frames.  Forked
    #: workers are polled via ``process.is_alive()`` instead; socket
    #: workers override this per-connection from the negotiated features.
    supports_ping = False
    #: Whether this worker reads the same artifact-store directory as the
    #: parent, making it safe to ship :class:`StoreRef` markers instead
    #: of artifact payloads in sync messages.  True only for forked
    #: workers (they inherit the parent's store object, hence its
    #: directory); a remote socket worker's host may attach a store, but
    #: the parent cannot know it is the *same* filesystem, so payloads
    #: always travel whole over the wire.
    shares_store = False

    def __init__(self, conn, epoch: int, kernel_memo_len: int,
                 collective_memo_len: int) -> None:
        self.conn = conn
        #: Cache sync epoch this worker last acked (bootstrap epoch
        #: initially: the parent epoch at fork / warm-payload time).
        self.epoch = epoch
        #: Shared-provider memo lengths already shipped (memo dicts are
        #: append-only, so a length is a complete delta cursor).
        self.kernel_memo_len = kernel_memo_len
        self.collective_memo_len = collective_memo_len
        #: Outstanding liveness ping (token of the unanswered ping, its
        #: send time, and when a ping was last issued at all).
        self.ping_token: Optional[int] = None
        self.ping_sent_at = 0.0
        self.last_ping_at = 0.0

    def alive(self) -> bool:
        """Whether the pool should keep dispatching to this worker."""
        return True

    def reap(self, timeout: float = 5.0) -> None:
        """Release whatever executes this worker (idempotent)."""


class _PersistentWorker(_PoolWorker):
    """Handle of one forked worker process (``persistent`` backend)."""

    __slots__ = ("process",)

    shares_store = True

    def __init__(self, process, conn, epoch: int, kernel_memo_len: int,
                 collective_memo_len: int) -> None:
        super().__init__(conn, epoch, kernel_memo_len, collective_memo_len)
        self.process = process

    def alive(self) -> bool:
        return self.process.is_alive()

    def reap(self, timeout: float = 5.0) -> None:
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            # Wedged-but-alive (e.g. timed out acking a sync): terminate it
            # so it cannot outlive the service.
            self.process.terminate()
            self.process.join(timeout=5)


class _SocketWorker(_PoolWorker):
    """Handle of one remote worker reached over a wire connection.

    The remote process belongs to its own ``repro worker-host``; the
    parent can only close the connection (the worker host then returns to
    accepting new parents), never terminate it.
    """

    __slots__ = ("address", "dead")

    def __init__(self, conn, epoch: int, kernel_memo_len: int,
                 collective_memo_len: int, address: str) -> None:
        super().__init__(conn, epoch, kernel_memo_len, collective_memo_len)
        self.address = address
        self.dead = False

    @property
    def supports_ping(self) -> bool:
        return FEATURE_PING in getattr(self.conn, "peer_features", ())

    def alive(self) -> bool:
        return not self.dead

    def reap(self, timeout: float = 5.0) -> None:
        # Closing the wire connection is the only lever the parent has
        # over a remote worker: it releases the local fd and unblocks the
        # worker host's serving thread from its blocking read, so the
        # host can go back to accepting parents instead of leaking both.
        self.dead = True
        try:
            self.conn.close()
        except OSError:
            pass


class PooledBackend(EvaluationBackend):
    """Shared machinery of the long-lived worker-pool backends.

    Everything transport-independent lives here: the batch lifecycle
    (``submit``/``drain`` with interleaved, bounded-in-flight
    scatter/gather), the incremental cache-delta sync protocol with its
    epoch acks and timeout handling, and input-order result merging --
    plus the fault model every failure path funnels through:

    * **Liveness**: when the pool goes quiet the parent polls every
      worker (``process.is_alive()`` for forks, a ``ping`` wire frame
      for socket peers that negotiated it), so silent death is detected
      within ``ping_interval`` + ``ping_timeout`` instead of only when a
      read fails.
    * **Job leases**: every dispatched job carries a deadline
      (``lease_timeout``); a job held past it is speculatively
      re-dispatched to another live worker, or the parent as last
      resort.  Merge stays exactly-once -- first result wins, late
      duplicates are discarded without replaying their accounting -- so
      results remain byte-identical to serial.
    * **Degradation is per-job, never per-batch**: a dead worker costs
      re-dispatching its leased jobs; each affected result records its
      own ``backend_fallback`` reason in metadata.

    Subclasses provide only how workers come to exist:

    * :class:`PersistentBackend` forks local processes that inherit the
      warmed service copy-on-write;
    * :class:`SocketBackend` connects to remote ``repro worker-host``
      processes and bootstraps each one by shipping the warmed service
      (estimator suite, host profile, cache contents) once at ``warm``.

    The two transports speak the same message tuples; only the connection
    object differs (fork pipe vs :class:`repro.service.wire.WireConnection`).
    """

    persistent = True
    #: Seconds a worker gets to ack a sync message before it is treated
    #: like a dead one (discarded, share evaluated on the parent).  Sync
    #: application is pure dict folding, so even a full snapshot acks in
    #: well under a second locally; a worker that misses this deadline is
    #: wedged (or its network path is gone).  Class attribute is the
    #: default; instances resolve constructor arg > ``REPRO_SYNC_TIMEOUT``
    #: > this value.
    sync_timeout = 60.0
    #: Seconds a dispatched job may stay unanswered before its lease
    #: expires and the parent speculatively re-dispatches it to another
    #: live worker (the parent itself as last resort).  First result
    #: wins; the late duplicate is discarded.  ``0`` disables leases
    #: (a straggler then gates the batch, as before).  Instances resolve
    #: constructor arg > ``REPRO_LEASE_TIMEOUT`` > this value.
    lease_timeout = 30.0
    #: Liveness cadence: with no traffic for this many seconds the parent
    #: polls every worker (``process.is_alive()`` for forked workers, a
    #: wire ``ping`` frame for socket peers that negotiated
    #: :data:`~repro.service.wire.FEATURE_PING`), so silent death is
    #: detected in bounded time instead of only on a failed read.
    ping_interval = 5.0
    #: Seconds an outstanding ping may go unanswered before the worker is
    #: declared dead.  Generous: a worker evaluating a long job answers
    #: only between jobs, so this must exceed one job's evaluation time.
    ping_timeout = 120.0
    #: Jobs kept in flight per worker.  Job messages are small (a pickled
    #: :class:`TrainingJob`), so a bounded window always fits in the OS
    #: buffer of a pipe or socket; the parent sends a new job only after
    #: receiving a result, which keeps it draining results (and the
    #: workers' outbound buffers) instead of ever blocking in ``send`` --
    #: see :meth:`drain`.
    max_inflight = 2

    def __init__(self, sync_timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None,
                 scheduler: Optional[str] = None) -> None:
        if sync_timeout is None:
            self.sync_timeout = _timeout_from_env(
                "sync_timeout", SYNC_TIMEOUT_ENV, type(self).sync_timeout)
        else:
            self.sync_timeout = validate_timeout("sync_timeout",
                                                 sync_timeout)
        if lease_timeout is None:
            self.lease_timeout = _timeout_from_env(
                "lease_timeout", LEASE_TIMEOUT_ENV,
                type(self).lease_timeout, allow_zero=True)
        else:
            self.lease_timeout = validate_timeout(
                "lease_timeout", lease_timeout, allow_zero=True)
        if scheduler is None:
            scheduler = os.environ.get(SCHEDULER_ENV, "").strip() \
                or "round_robin"
        self.set_scheduler(scheduler)
        #: Pending ("join"/"leave", spec) membership requests, applied at
        #: the next drain-loop iteration (mid-batch) or warm (idle) --
        #: appends are atomic, so other threads may enqueue freely.
        self._membership: Deque[Tuple[str, str]] = deque()
        self._workers: List[_PoolWorker] = []
        self._service: Optional["PredictionService"] = None
        #: When set, ``submit`` delegates to a thread pool and tags every
        #: result's metadata with this reason (e.g. fork unavailable).
        self._fallback_reason: Optional[str] = None
        #: Serialises batches: submit acquires, drain releases.
        self._batch_lock = threading.Lock()
        #: Guards pool (``_workers``) mutation: ``warm`` spawns/connects
        #: and appends, ``close`` swaps the list out, ``_discard_worker``
        #: removes -- all under this lock so a teardown racing a top-up can
        #: never strand a fresh worker outside the list.  Reentrant because
        #: ``warm`` calls ``close`` when re-targeted at a new service.
        self._closed_lock = threading.RLock()
        # submit/drain state
        self._delegate: Optional[EvaluationBackend] = None
        self._fallback = False
        self._jobs: List[TrainingJob] = []
        self._deferred: List[int] = []
        self._assignments: List[Tuple[_PoolWorker, List[int]]] = []
        #: (index, fallback reason) pairs whose worker died before
        #: evaluating them; the parent picks them up in drain.
        self._parent_eval: List[Tuple[int, str]] = []
        self._ping_counter = 0
        #: Resilience counters (surfaced by tests, the chaos benchmark
        #: and the conformance harness).
        self.resilience_stats: Dict[str, int] = {
            "worker_deaths": 0, "lease_expirations": 0,
            "redispatched_jobs": 0, "duplicate_results": 0,
            "parent_evaluations": 0, "pings_sent": 0,
            "pongs_received": 0, "stragglers_discarded": 0,
            "reconnects": 0, "joins": 0, "leaves": 0,
            "rebalanced_jobs": 0,
        }
        #: Which worker emulated each artifact key: that worker already has
        #: its own (equivalent) copy, so deltas skip shipping it back.
        self._artifact_origin: Dict[Tuple, _PoolWorker] = {}
        #: Sync-protocol counters (surfaced by tests and the benchmark).
        #: The placement counters mirror the scheduler policy's
        #: monotonic :attr:`SchedulerPolicy.stats` after every batch.
        self.sync_stats: Dict[str, int] = {
            "delta_syncs": 0, "full_syncs": 0, "skipped_syncs": 0,
            "batches": 0, "store_refs_shipped": 0, "store_ref_fallbacks": 0,
            "placements": 0, "locality_hits": 0, "ship_bytes_avoided": 0,
        }

    def pool_size(self) -> int:
        """Live workers currently in the pool."""
        with self._closed_lock:
            return len(self._workers)

    # ------------------------------------------------------------------
    # placement policy
    # ------------------------------------------------------------------
    def set_scheduler(self, name: str) -> None:
        """Select the placement policy by registered name (validated)."""
        self.scheduler = validate_scheduler(name)
        self._policy = get_scheduler(name)

    def _estimate_ship_bytes(self, artifacts) -> int:
        """Cheap proxy for an artifact ship's wire size.

        Scales with total trace-event count (the dominant payload term)
        at a nominal per-event byte cost; deliberately an estimate --
        placement needs relative weights, not measured frames.
        """
        job_trace = getattr(artifacts, "job_trace", None)
        workers = getattr(job_trace, "workers", None)
        events = 0
        if workers:
            for trace in workers.values():
                events += len(getattr(trace, "events", ()) or ())
        return max(events, 1) * self._NOMINAL_EVENT_BYTES

    _NOMINAL_EVENT_BYTES = 48

    # ------------------------------------------------------------------
    # dynamic membership (elastic pools; socket transport implements it)
    # ------------------------------------------------------------------
    def join(self, spec: str) -> None:
        """Ask the pool to admit a worker (socket: a ``host:port``).

        Mid-batch the joiner is bootstrapped through the ordinary warm +
        snapshot-resync machinery at the next drain-loop iteration and
        immediately receives rebalanced work; between batches it is
        connected by the next ``warm()``.  Transports without dynamic
        membership (the fork pools) ignore the request.
        """
        self._membership.append(("join", str(spec)))

    def leave(self, spec: str) -> None:
        """Ask a worker to depart cleanly: no new jobs are sent to it,
        its unsent queue moves to surviving workers, in-flight jobs may
        still answer, and its address is forgotten so later warms do not
        reconnect it."""
        self._membership.append(("leave", str(spec)))

    def _admit_member(self, service: "PredictionService",
                      spec: str) -> Optional[_PoolWorker]:
        """Connect + bootstrap one mid-batch joiner; ``None`` = declined.

        Base pools have no way to mint a worker mid-batch (fork workers
        must inherit state at fork time); the socket transport overrides.
        """
        return None

    def _member_spec(self, worker: _PoolWorker) -> Optional[str]:
        """The membership spec a worker answers to (socket: its address)."""
        return None

    def _register_member(self, spec: str) -> bool:
        """Record an idle-time join so the next top-up acquires it."""
        return False

    def _retire_member(self, spec: str) -> None:
        """Forget a departed member so later warms do not re-acquire it."""

    def _process_membership_idle(self, service: "PredictionService") -> None:
        """Apply queued join/leave requests between batches (under
        ``_closed_lock``, before ``_top_up`` acquires workers)."""
        while True:
            try:
                action, spec = self._membership.popleft()
            except IndexError:
                return
            if action == "join":
                if self._register_member(spec):
                    self.resilience_stats["joins"] += 1
                    self._policy.on_membership_change(joined=(spec,))
            else:
                self._retire_member(spec)
                departed = False
                for worker in list(self._workers):
                    if self._member_spec(worker) != spec:
                        continue
                    try:
                        worker.conn.send(("close",))
                    except _CONN_FAILURES:
                        pass
                    self._discard_worker(worker)
                    departed = True
                if departed:
                    self.resilience_stats["leaves"] += 1
                    self._policy.on_membership_change(left=(spec,))

    def _job_specs(self, service: "PredictionService",
                   jobs: List[TrainingJob],
                   dispatch: Sequence[int]) -> List[JobSpec]:
        """Placement views of the dispatchable jobs (locality inputs)."""
        cache = service.cache
        store = getattr(cache, "store", None)
        specs: List[JobSpec] = []
        for index in dispatch:
            key = _artifact_key(service, jobs[index])
            cached = False
            in_store = False
            ship_bytes = 0
            if key is not None:
                artifacts = cache.peek_artifacts(key)
                if artifacts is not None:
                    cached = True
                    ship_bytes = self._estimate_ship_bytes(artifacts)
                if store is not None:
                    try:
                        in_store = store.contains(key)
                    except OSError:  # pragma: no cover - stat race
                        in_store = False
            specs.append(JobSpec(index=index, artifact_key=key,
                                 artifact_cached=cached, in_store=in_store,
                                 ship_bytes=ship_bytes))
        return specs

    def _worker_snapshots(self, service: "PredictionService",
                          workers: Sequence[_PoolWorker]
                          ) -> List[WorkerSnapshot]:
        """Placement views of the live workers, slot-parallel."""
        cache = service.cache
        store = getattr(cache, "store", None)
        origin_keys: Dict[_PoolWorker, set] = {}
        for key, owner in self._artifact_origin.items():
            origin_keys.setdefault(owner, set()).add(key)
        snapshots: List[WorkerSnapshot] = []
        for slot, worker in enumerate(workers):
            held = set(cache.keys_synced_at(worker.epoch))
            held.update(origin_keys.get(worker, ()))
            snapshots.append(WorkerSnapshot(
                slot=slot, load=0, acked_epoch=worker.epoch,
                shares_store=bool(store is not None and worker.shares_store),
                held_keys=frozenset(held)))
        return snapshots

    # ------------------------------------------------------------------
    # lifecycle (template: subclasses fill in worker acquisition)
    # ------------------------------------------------------------------
    def _ready(self, service: "PredictionService") -> bool:
        """Fast pre-warm check; False skips the warm entirely (fallback)."""
        raise NotImplementedError

    def _top_up(self, service: "PredictionService") -> None:
        """Bring ``self._workers`` up to strength (under ``_closed_lock``)."""
        raise NotImplementedError

    def warm(self, service: "PredictionService") -> None:
        """Acquire the pool (idempotent; tops up after worker deaths).

        Must run after the estimator suite / shared provider exist so
        workers inherit (or are shipped) trained state --
        ``service.warm()`` guarantees that ordering.  New workers start
        with the parent's *current* cache, so their sync epoch starts at
        the cache's current epoch.
        """
        if not self._ready(service):
            return
        # Estimator training can be slow; run it before taking the
        # lifecycle lock so a concurrent close() is not held up behind it.
        service._warm_pipeline()
        with self._closed_lock:
            if self._service is not None and self._service is not service:
                # A backend instance serves one service; re-warming against
                # a different one tears the old pool down first.
                self.close()
            self._service = service
            self._prune_dead_workers()
            self._process_membership_idle(service)
            self._top_up(service)

    def _prune_dead_workers(self) -> None:
        """Drop pooled workers that died between batches.

        A fork worker reports death via ``process.is_alive()``; a socket
        worker's host may have exited with nothing but a FIN in flight,
        which only shows up as a readable-at-idle connection.  Probing
        here (instead of trusting the handle) is what lets a restarted
        worker host rejoin on the very next warm: the dead worker's
        address becomes unserved again and ``_top_up`` reconnects.  Idle
        connections may legitimately hold one stale ``pong`` from the
        previous batch's liveness probe; anything else is a dead or
        desynced peer.
        """
        for worker in list(self._workers):
            pruned = not worker.alive()
            if not pruned:
                try:
                    while worker.conn.poll(0):
                        message = worker.conn.recv()
                        if (isinstance(message, tuple) and message
                                and message[0] == "pong"):
                            worker.ping_token = None
                            continue
                        raise WireError(
                            f"unexpected idle message {message[:1]!r}")
                except _CONN_FAILURES:
                    pruned = True
            if pruned:
                self.resilience_stats["worker_deaths"] += 1
                self._discard_worker(worker)

    def _bootstrap_cursor(self, service: "PredictionService"
                          ) -> Tuple[int, int, int]:
        """(cache epoch, kernel-memo len, collective-memo len) for a worker
        about to receive the parent's current state (fork or warm payload).
        Read *before* the state is captured: entries added in between are
        simply re-shipped by the first delta, which is idempotent."""
        provider = service.provider() if service.share_provider else None
        return (service.cache.sync_epoch,
                len(getattr(provider, "_kernel_cache", ())),
                len(getattr(provider, "_collective_cache", ())))

    def close(self) -> None:
        """Shut the pool down; safe to call repeatedly and mid-failure."""
        with self._closed_lock:
            workers, self._workers = self._workers, []
            for worker in workers:
                try:
                    worker.conn.send(("close",))
                except (BrokenPipeError, OSError):
                    pass
                try:
                    worker.conn.close()
                except OSError:
                    pass
            for worker in workers:
                worker.reap()
            self._service = None
            self._artifact_origin.clear()
            if self._delegate is not None:
                self._delegate.close()
                self._delegate = None

    # ------------------------------------------------------------------
    # sync protocol
    # ------------------------------------------------------------------
    def _send_sync(self, service: "PredictionService", worker: _PoolWorker,
                   encoded: Dict[Tuple, bytes]) -> Optional[Tuple]:
        """Ship the artifact/memo delta since the worker's acked epoch.

        Returns what :meth:`_await_sync` needs to collect the ack (``None``
        when the worker is already current and nothing was sent).  The
        worker acks the epoch before any job of the batch reaches it (the
        pipe is ordered), so no job is ever evaluated against stale
        artifacts.  An unserviceable epoch -- or an ack that does not match
        the epoch just shipped -- forces a full snapshot resync.  Artifacts
        travel as wire payloads memoised in ``encoded`` (shared by every
        worker synced for the same batch): a delta fanned out to N
        siblings is serialised once per format, not N times.
        """
        cache = service.cache
        provider = service.provider() if service.share_provider else None
        kernel_memo: List[Tuple] = []
        collective_memo: List[Tuple] = []
        kernel_len = worker.kernel_memo_len
        collective_len = worker.collective_memo_len
        if provider is not None:
            # The memo dicts are append-only, so a length compare is a
            # complete delta test: steady-state sweeps (memos stopped
            # growing) ship nothing and never materialise the dicts.
            kernel_cache = getattr(provider, "_kernel_cache", {})
            collective_cache = getattr(provider, "_collective_cache", {})
            kernel_len = len(kernel_cache)
            collective_len = len(collective_cache)
            if kernel_len > worker.kernel_memo_len:
                kernel_memo = list(islice(kernel_cache.items(),
                                          worker.kernel_memo_len, None))
            if collective_len > worker.collective_memo_len:
                collective_memo = list(islice(collective_cache.items(),
                                              worker.collective_memo_len,
                                              None))
        delta = cache.delta_since(worker.epoch)
        if delta is not None:
            epoch, entries = delta
            entries = [(key, artifacts) for key, artifacts in entries
                       if self._artifact_origin.get(key) is not worker]
            if not entries and not kernel_memo and not collective_memo:
                self.sync_stats["skipped_syncs"] += 1
                worker.epoch = epoch
                return None
            full = False
            self.sync_stats["delta_syncs"] += 1
        else:
            # Stale / unknown epoch: the journal cannot reconstruct what
            # this worker is missing, so replace its cache wholesale.
            epoch, entries = cache.snapshot()
            full = True
            self.sync_stats["full_syncs"] += 1
        fmt = wire.format_for_peer(worker.conn)
        store = getattr(cache, "store", None) if worker.shares_store else None
        shipped = []
        for key, artifacts in entries:
            if store is not None and store.contains(key):
                # Skip shipping payloads the worker can read from the
                # shared store directory: a tiny StoreRef travels instead
                # of the artifact.  Applies to deltas and full snapshots
                # alike (the snapshot ship is where the savings are
                # largest).
                shipped.append((key, StoreRef(key)))
                self.sync_stats["store_refs_shipped"] += 1
            else:
                if (fmt, key) not in encoded:
                    encoded[fmt, key] = wire.dumps_for_format(artifacts, fmt)
                shipped.append((key, encoded[fmt, key]))
        worker.conn.send(("sync", epoch, full, shipped, kernel_memo,
                          collective_memo))
        return (epoch, entries, kernel_len, collective_len,
                time.monotonic() + self.sync_timeout)

    def _await_sync(self, worker: _PoolWorker,
                    pending: Optional[Tuple]) -> None:
        """Collect the ack of a :meth:`_send_sync`; commit the cursor.

        The deadline runs from the send, so acks of workers synced in one
        pipelined round are awaited concurrently: a worker whose ack has
        already arrived is honoured however long an earlier one took.
        """
        if pending is None:
            return
        epoch, entries, kernel_len, collective_len, deadline = pending
        while True:
            if not worker.conn.poll(max(deadline - time.monotonic(), 0.0)):
                # A wedged-but-alive worker must not hang the service:
                # treat it exactly like a dead pipe (the caller discards
                # the worker and evaluates its share on the parent).
                raise _WorkerUnresponsive(
                    f"{self.name} worker did not ack sync epoch {epoch} "
                    f"within {self.sync_timeout}s")
            ack = worker.conn.recv()
            if isinstance(ack, tuple) and ack and ack[0] == "pong":
                # Stale liveness reply from the previous batch arriving
                # after its drain loop ended -- consume and keep waiting.
                worker.ping_token = None
                continue
            if (isinstance(ack, tuple) and len(ack) == 3
                    and ack[0] == "sync-miss" and ack[1] == epoch):
                # A gc raced our refs: the worker could not resolve these
                # keys from its store.  Re-ship the original payloads
                # inline at the same epoch; the worker acks ``synced``
                # after applying them (the follow-up carries no refs, so
                # this converges in one round).
                by_key = dict(entries)
                fmt = wire.format_for_peer(worker.conn)
                resend = [(key, wire.dumps_for_format(by_key[key], fmt))
                          for key in ack[2] if key in by_key]
                self.sync_stats["store_ref_fallbacks"] += 1
                worker.conn.send(("sync", epoch, False, resend, [], []))
                deadline = time.monotonic() + self.sync_timeout
                continue
            break
        if ack != ("synced", epoch):
            raise BackendWorkerError(
                f"{self.name} worker acked {ack!r}, expected sync epoch "
                f"{epoch}")
        worker.epoch = epoch
        worker.kernel_memo_len = kernel_len
        worker.collective_memo_len = collective_len

    # ------------------------------------------------------------------
    # batch evaluation
    # ------------------------------------------------------------------
    def _discard_worker(self, worker: _PoolWorker) -> None:
        """Drop a dead or unresponsive worker (the next warm tops it up)."""
        with self._closed_lock:
            if worker in self._workers:
                self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.reap(timeout=1)

    def submit(self, service: "PredictionService",
               jobs: Sequence[TrainingJob]) -> None:
        """Scatter one batch.  Assumes ``warm(service)`` already ran (the
        ``evaluate`` template and ``PredictionService.warm`` both call it,
        and it is what decides fallback / pool availability)."""
        self._batch_lock.acquire()
        try:
            self._delegate = None
            self._fallback = False
            self._parent_eval = []
            jobs = list(jobs)
            self._jobs = jobs
            if self._fallback_reason is not None:
                self._delegate = ThreadBackend()
                self._fallback = True
                self._delegate.submit(service, jobs)
                return
            workers = [worker for worker in self._workers if worker.alive()]
            dispatch, deferred = _split_structural(service, jobs)
            if len(dispatch) <= 1 or not workers:
                self._delegate = SerialBackend()
                self._delegate.submit(service, jobs)
                return
            self._deferred = deferred
            self.sync_stats["batches"] += 1
            # Placement goes through the pluggable policy: it sees
            # immutable job/worker views (artifact keys, acked epochs,
            # store sharing) and returns one share per worker.  Workers
            # handed an empty share sit this batch out entirely -- no
            # sync, so nothing ships to them; that skipped ship is the
            # saving locality-aware placement exists to harvest.
            shares = self._policy.assign(
                self._job_specs(service, jobs, dispatch),
                self._worker_snapshots(service, workers))
            for counter in ("placements", "locality_hits",
                            "ship_bytes_avoided"):
                self.sync_stats[counter] = self._policy.stats[counter]
            assignments: List[Tuple[_PoolWorker, List[int]]] = [
                (workers[slot], assigned)
                for slot, assigned in enumerate(shares) if assigned]
            # Sync every worker that will see jobs this batch: all the
            # sends first, then all the epoch acks, so the workers decode
            # their deltas concurrently (an ack is a few bytes: it can
            # never fill a pipe and block a worker while the parent is
            # still sending to its sibling).  Jobs themselves are NOT sent
            # here: drain interleaves scatter and gather with a bounded
            # in-flight window, because pipes are fixed-size OS buffers --
            # scattering a large batch wholesale while a worker blocks
            # sending a large result would deadlock both sides.  A worker
            # whose pipe dies at any point hands its share to the parent
            # (identical results, identical accounting).
            encoded: Dict[Tuple, bytes] = {}
            sent: List[Tuple[_PoolWorker, List[int], Optional[Tuple]]] = []
            failed: List[Tuple[_PoolWorker, List[int]]] = []
            for worker, assigned in assignments:
                try:
                    sent.append((worker, assigned,
                                 self._send_sync(service, worker, encoded)))
                except _CONN_FAILURES:
                    failed.append((worker, assigned))
            self._assignments = []
            for worker, assigned, pending in sent:
                try:
                    self._await_sync(worker, pending)
                except _CONN_FAILURES:
                    failed.append((worker, assigned))
                else:
                    self._assignments.append((worker, assigned))
            for worker, assigned in failed:
                self.resilience_stats["worker_deaths"] += 1
                self._discard_worker(worker)
                reason = (f"{self.name} worker failed during cache sync; "
                          f"evaluated on parent")
                self._parent_eval.extend(
                    (index, reason) for index in assigned)
            self._service = service
        except BaseException:
            self._batch_lock.release()
            raise

    def drain(self) -> List[PredictionResult]:
        try:
            if self._delegate is not None:
                delegate, self._delegate = self._delegate, None
                try:
                    results = delegate.drain()
                finally:
                    delegate.close()
                if self._fallback:
                    self._fallback = False
                    reason = self._fallback_reason or "fork unavailable"
                    for result in results:
                        result.metadata.setdefault("backend_fallback", reason)
                return results
            service, jobs = self._service, self._jobs
            assignments, self._assignments = self._assignments, []
            payloads: List[Tuple] = []
            errors: List[Tuple[int, str]] = []
            done: set = set()
            #: index -> reason; evaluated on the parent after the loop.
            missing: Dict[int, str] = {}
            #: index -> reason recorded whenever the resilience machinery
            #: touched a job (per-job ``backend_fallback`` metadata).
            fallback_reasons: Dict[int, str] = {}
            for index, reason in self._parent_eval:
                missing[index] = reason
                fallback_reasons[index] = reason
            self._parent_eval = []
            plan = faults.current_fault_plan()
            lease = self.lease_timeout or 0.0
            no_deadline = float("inf")
            stats = self.resilience_stats
            # Interleaved scatter/gather: each worker holds at most
            # ``max_inflight`` unanswered jobs, and the parent sends the
            # next one only after receiving a result, so it is always
            # draining worker pipes and can never deadlock against a
            # worker blocked in ``send`` on a large result.  Each in-flight
            # job carries a lease deadline; liveness is probed whenever
            # the pool goes quiet (see the class attributes).
            states: Dict[_PoolWorker,
                         Tuple[Deque[int], Dict[int, float]]] = {}
            by_conn: Dict[object, _PoolWorker] = {}
            pending: set = set()
            #: Indices already speculatively re-dispatched once (a second
            #: lease expiry falls back to the parent, bounding copies).
            redispatched: set = set()
            for worker, assigned in assignments:
                states[worker] = (deque(assigned), {})
                by_conn[worker.conn] = worker
                pending.update(assigned)

            #: Workers that finished their share cleanly: still synced and
            #: alive, so re-dispatch can pull them back in as targets.
            standby: List[_PoolWorker] = []
            #: Workers departing cleanly: no new jobs are sent to them,
            #: and once their in-flight work answers they leave the pool.
            departing: set = set()

            def _retire(worker: _PoolWorker, clean: bool = False) -> None:
                del states[worker]
                del by_conn[worker.conn]
                departing.discard(worker)
                if clean:
                    standby.append(worker)

            def _unretire() -> Optional[_PoolWorker]:
                while standby:
                    worker = standby.pop()
                    if not worker.alive():
                        stats["worker_deaths"] += 1
                        self._discard_worker(worker)
                        continue
                    states[worker] = (deque(), {})
                    by_conn[worker.conn] = worker
                    return worker
                return None

            def _live_target(index: int,
                             exclude: Optional[_PoolWorker]
                             ) -> Optional[_PoolWorker]:
                # Re-dispatch target selection goes through the policy
                # (default: least-loaded live worker, the pre-policy
                # behaviour); candidates already holding a copy of
                # ``index`` -- or on their way out -- are filtered here.
                candidates: List[_PoolWorker] = []
                snapshots: List[WorkerSnapshot] = []
                for candidate, (queue, inflight) in states.items():
                    if (candidate is exclude or candidate in departing
                            or index in inflight or index in queue):
                        continue
                    snapshots.append(WorkerSnapshot(
                        slot=len(candidates),
                        load=len(queue) + len(inflight)))
                    candidates.append(candidate)
                if not candidates:
                    return None
                slot = self._policy.select_target(JobSpec(index=index),
                                                  snapshots)
                return None if slot is None else candidates[slot]

            def _reassign(index: int, exclude: Optional[_PoolWorker],
                          reason_worker: str, reason_parent: str
                          ) -> Optional[_PoolWorker]:
                # Hand one unresolved index to another live worker --
                # active or pulled back from standby -- or to the parent
                # as last resort (also when this copy was already a
                # speculative one -- at most two live copies).
                target = (None if index in redispatched
                          else _live_target(index, exclude)
                          or _unretire())
                if target is None:
                    missing[index] = reason_parent
                    fallback_reasons[index] = reason_parent
                    pending.discard(index)
                    stats["parent_evaluations"] += 1
                else:
                    states[target][0].append(index)
                    redispatched.add(index)
                    fallback_reasons[index] = reason_worker
                    stats["redispatched_jobs"] += 1
                return target

            def _fail(worker: _PoolWorker, why: str) -> None:
                # Worker died (or its connection did) mid-batch: its
                # unanswered and unsent share re-dispatches to the
                # surviving workers (parent as last resort) and the next
                # warm() replaces it.  The dead connection cannot deliver
                # a late duplicate, so these re-dispatches do not count
                # against the one-speculative-copy bound.
                queue, inflight = states[worker]
                stats["worker_deaths"] += 1
                _retire(worker)
                self._discard_worker(worker)
                reason_worker = (f"{self.name} worker {why}; job "
                                 f"re-dispatched to a live worker")
                reason_parent = (f"{self.name} worker {why}; job "
                                 f"evaluated on parent")
                targets = set()
                for index in list(inflight) + list(queue):
                    if index in done or index in missing:
                        continue
                    redispatched.discard(index)
                    target = _reassign(index, None, reason_worker,
                                       reason_parent)
                    if target is not None:
                        targets.add(target)
                for target in targets:
                    if target in states and not _top_up(target):
                        _fail(target, "connection failed during "
                                      "re-dispatch")

            def _top_up(worker: _PoolWorker) -> bool:
                if worker in departing:
                    return True  # draining out: no new work
                queue, inflight = states[worker]
                while queue and len(inflight) < self.max_inflight:
                    index = queue[0]
                    if index in done or index in missing:
                        queue.popleft()  # resolved elsewhere meanwhile
                        continue
                    if (plan.job_frame_action(index) == "corrupt"
                            and hasattr(worker.conn,
                                        "corrupt_next_frame")):
                        worker.conn.corrupt_next_frame()
                    try:
                        worker.conn.send(("job", index, jobs[index]))
                    except _CONN_FAILURES:
                        return False
                    queue.popleft()
                    inflight[index] = (time.monotonic() + lease
                                       if lease else no_deadline)
                return True

            def _finish_departure(worker: _PoolWorker) -> None:
                # In-flight work answered (or there was none): the
                # departure is complete.  Close the connection politely
                # and drop the worker from the pool.
                if worker in states:
                    _retire(worker)
                departing.discard(worker)
                try:
                    worker.conn.send(("close",))
                except _CONN_FAILURES:
                    pass
                self._discard_worker(worker)

            def _rebalance(joined: _PoolWorker) -> None:
                # Pull unsent queued jobs onto a just-joined worker until
                # its outstanding count is within one of the most-loaded
                # donor's.  Only never-sent jobs move (popped off donor
                # queue tails), so exactly-once -- and with it
                # byte-identity -- is untouched.
                while True:
                    donor = None
                    donor_total = -1
                    for candidate, (queue, inflight) in states.items():
                        if candidate is joined or candidate in departing:
                            continue
                        total = len(queue) + len(inflight)
                        if queue and total > donor_total:
                            donor, donor_total = candidate, total
                    jq, jinf = states[joined]
                    if (donor is None
                            or donor_total <= len(jq) + len(jinf) + 1):
                        return
                    jq.append(states[donor][0].pop())
                    stats["rebalanced_jobs"] += 1

            def _admit(spec: str) -> None:
                # Bootstrap a mid-batch joiner through the ordinary warm
                # machinery.  The parent cache does not change while a
                # batch drains (the merge happens after this loop), so
                # the joiner sees exactly the pre-batch state every other
                # worker was synced to -- byte-identity holds.
                worker = self._admit_member(service, spec)
                if worker is None:
                    return
                try:
                    self._await_sync(worker,
                                     self._send_sync(service, worker, {}))
                except _CONN_FAILURES:
                    stats["worker_deaths"] += 1
                    self._discard_worker(worker)
                    return
                stats["joins"] += 1
                states[worker] = (deque(), {})
                by_conn[worker.conn] = worker
                self._policy.on_membership_change(joined=(spec,))
                _rebalance(worker)
                if not _top_up(worker):
                    _fail(worker, "connection failed right after joining")

            def _depart(spec: str) -> None:
                for worker in list(states):
                    if self._member_spec(worker) != spec:
                        continue
                    stats["leaves"] += 1
                    departing.add(worker)
                    self._retire_member(spec)
                    self._policy.on_membership_change(left=(spec,))
                    # Unsent queue leftovers move to live workers now (a
                    # plain move -- no second copy exists); in-flight
                    # jobs may still answer before the connection closes,
                    # which is what makes the departure clean.
                    queue, inflight = states[worker]
                    while queue:
                        index = queue.popleft()
                        if index in done or index in missing:
                            continue
                        redispatched.discard(index)
                        target = _reassign(
                            index, worker,
                            f"{self.name} job re-queued off a departing "
                            f"worker",
                            f"{self.name} job stranded on a departing "
                            f"worker; evaluated on parent")
                        if (target is not None and target in states
                                and not _top_up(target)):
                            _fail(target, "connection failed during "
                                          "re-dispatch")
                    if worker in states and not states[worker][1]:
                        _finish_departure(worker)
                    return

            def _membership_pass(index: Optional[int] = None) -> None:
                # Apply queued membership changes: fault-plan rules
                # anchored to the job whose result just arrived, then any
                # live ``join()`` / ``leave()`` requests.
                events: List[Tuple[str, str]] = []
                if index is not None:
                    events.extend(plan.membership_events(index))
                while True:
                    try:
                        events.append(self._membership.popleft())
                    except IndexError:
                        break
                for action, spec in events:
                    if action == "join":
                        _admit(spec)
                    else:
                        _depart(spec)

            def _liveness_pass() -> None:
                now = time.monotonic()
                for worker in list(states):
                    if worker not in states:
                        continue  # failed by a cascading _fail
                    if not worker.alive():
                        _fail(worker, "process died silently")
                        continue
                    if not worker.supports_ping:
                        continue
                    if worker.ping_token is not None:
                        if now - worker.ping_sent_at > self.ping_timeout:
                            _fail(worker,
                                  f"did not answer a liveness ping "
                                  f"within {self.ping_timeout:g}s")
                        continue
                    if now - worker.last_ping_at < self.ping_interval:
                        continue
                    self._ping_counter += 1
                    worker.ping_token = self._ping_counter
                    worker.ping_sent_at = worker.last_ping_at = now
                    stats["pings_sent"] += 1
                    try:
                        worker.conn.send(("ping", worker.ping_token))
                    except _CONN_FAILURES:
                        _fail(worker, "connection failed on liveness "
                                      "ping")

            def _lease_pass() -> None:
                now = time.monotonic()
                for worker in list(states):
                    if worker not in states:
                        continue
                    queue, inflight = states[worker]
                    expired = False
                    for index, deadline in list(inflight.items()):
                        if deadline > now or index in done:
                            continue
                        # Expired lease: the straggler's copy stays
                        # tracked (first result wins either way) but can
                        # only expire once.
                        expired = True
                        stats["lease_expirations"] += 1
                        inflight[index] = no_deadline
                        target = _reassign(
                            index, worker,
                            f"{self.name} job lease expired after "
                            f"{lease:g}s; speculatively re-dispatched",
                            f"{self.name} job lease expired after "
                            f"{lease:g}s; evaluated on parent")
                        if (target is not None and target in states
                                and not _top_up(target)):
                            _fail(target, "connection failed during "
                                          "re-dispatch")
                    if not expired or worker not in states:
                        continue
                    # An expired lease marks this worker a straggler: its
                    # unsent queue leftovers would strand behind it (they
                    # are topped up only after it answers), so hand them
                    # off now.  Unsent means no second copy exists -- a
                    # plain move, not a speculative one.
                    while queue:
                        index = queue.popleft()
                        if index in done or index in missing:
                            continue
                        redispatched.discard(index)
                        target = _reassign(
                            index, worker,
                            f"{self.name} job re-queued off a straggling "
                            f"worker",
                            f"{self.name} job stranded behind a straggling "
                            f"worker; evaluated on parent")
                        if (target is not None and target in states
                                and not _top_up(target)):
                            _fail(target, "connection failed during "
                                          "re-dispatch")

            def _wait_timeout() -> float:
                now = time.monotonic()
                bound = self.ping_interval
                for worker, (queue, inflight) in states.items():
                    if (worker.supports_ping
                            and worker.ping_token is not None):
                        bound = min(bound, worker.ping_sent_at
                                    + self.ping_timeout - now)
                    for deadline in inflight.values():
                        if deadline is not no_deadline:
                            bound = min(bound, deadline - now)
                return min(max(bound, 0.05), self.ping_interval)

            for worker in list(states):
                if worker not in states:
                    continue  # failed by a cascading _fail
                if not _top_up(worker):
                    _fail(worker, "connection failed during dispatch")
                elif not states[worker][1]:  # pragma: no cover - guard
                    _retire(worker, clean=True)  # empty share: idle standby
            _membership_pass()
            while states and pending:
                ready = mp_connection.wait(list(by_conn), _wait_timeout())
                for conn in ready:
                    worker = by_conn.get(conn)
                    if worker is None:
                        continue  # retired earlier in this ready set
                    try:
                        message = conn.recv()
                    except _CONN_FAILURES:
                        _fail(worker, "died mid-batch")
                        continue
                    if message[0] == "pong":
                        worker.ping_token = None
                        stats["pongs_received"] += 1
                        continue
                    queue, inflight = states[worker]
                    index = message[1]
                    inflight.pop(index, None)
                    duplicate = index in done
                    if duplicate:
                        # A speculative copy lost the race: first result
                        # won, this one is discarded without replaying
                        # its accounting a second time.
                        stats["duplicate_results"] += 1
                    elif message[0] == "error":
                        done.add(index)
                        pending.discard(index)
                        missing.pop(index, None)
                        errors.append((index, message[2]))
                    else:
                        done.add(index)
                        pending.discard(index)
                        missing.pop(index, None)
                        payloads.append(message[1:])
                        if message[3] is not None:
                            # Fresh emulation: remember which worker
                            # already holds these artifacts so the next
                            # sync does not ship them back.
                            key = _artifact_key(service, jobs[index])
                            if key is not None:
                                while len(self._artifact_origin) >= 4096:
                                    self._artifact_origin.pop(
                                        next(iter(self._artifact_origin)))
                                self._artifact_origin[key] = worker
                    if not duplicate:
                        # First result for this index: membership rules
                        # anchored to it (and any queued join/leave
                        # requests) apply now, at a deterministic
                        # protocol point.
                        _membership_pass(index)
                    if worker not in states:
                        continue  # departed/failed during membership
                    if not _top_up(worker):
                        _fail(worker, "connection failed during dispatch")
                    elif worker in departing and not inflight:
                        _finish_departure(worker)
                    elif not queue and not inflight:
                        # Share done: park it on standby so an expiring
                        # lease elsewhere can re-dispatch to it.
                        _retire(worker, clean=True)
                _membership_pass()
                _liveness_pass()
                if lease:
                    _lease_pass()
            # A worker still owing an answer at loop end (its job went to
            # the parent when its lease ran out) cannot return to the
            # pool: the late result would desync the next batch's sync
            # ack.  Discard it; the next warm() tops the pool back up.
            # Workers holding only unsent queue leftovers are clean.
            for worker in list(states):
                if states[worker][1]:
                    stats["stragglers_discarded"] += 1
                    _retire(worker)
                    self._discard_worker(worker)
            for index in sorted(pending):  # pragma: no cover - guard
                if index not in done and index not in missing:
                    reason = f"{self.name} pool exhausted; evaluated on parent"
                    missing[index] = reason
                    fallback_reasons[index] = reason
            # Merge whatever succeeded even when part of the batch failed:
            # workers cached that work in their fork-local copies, so the
            # parent must record it too or the two drift apart.  Merge in
            # input order, not arrival order: near max_entries the merge's
            # put order decides which entry the parent evicts, and a serial
            # run puts in input order.
            payloads.sort(key=lambda payload: payload[0])
            results = _merge_batch(service, jobs, payloads)
            if errors:
                index, detail = errors[0]
                raise BackendWorkerError(
                    f"{self.name} worker failed on job {index}:\n{detail}")
            for index in sorted(missing):
                if index in done:  # pragma: no cover - protocol guard
                    continue
                results[index] = service.predict(jobs[index])
            for index in self._deferred:
                results[index] = service.predict(jobs[index])
            self._deferred = []
            for index, reason in fallback_reasons.items():
                result = results[index]
                if result is not None:
                    result.metadata.setdefault("backend_fallback", reason)
            return results  # type: ignore[return-value]
        finally:
            self._batch_lock.release()


class PersistentBackend(PooledBackend):
    """Long-lived fork-based worker pool with incremental cache shipping."""

    name = "persistent"

    def __init__(self, sync_timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None,
                 scheduler: Optional[str] = None) -> None:
        super().__init__(sync_timeout=sync_timeout,
                         lease_timeout=lease_timeout, scheduler=scheduler)
        self._fork_context = None
        #: Workers forked so far: numbers workers in spawn order for
        #: ``worker``-scoped fault rules.
        self._spawned = 0

    def _ready(self, service: "PredictionService") -> bool:
        if self._fallback_reason is not None:
            return False
        if self._fork_context is None:
            try:
                self._fork_context = multiprocessing.get_context("fork")
            except ValueError:
                self._fallback_reason = "fork unavailable"
                return False
        return True

    def _top_up(self, service: "PredictionService") -> None:
        """Fork workers up to ``service.max_workers``.

        New workers fork with the parent's *current* cache and provider
        memos inherited copy-on-write, so their sync cursor is the cache's
        current epoch.
        """
        desired = max(int(service.max_workers), 1)
        if desired <= 1 and not self._workers:
            return  # serial degenerate: no pool needed
        while len(self._workers) < desired:
            epoch, kernel_len, collective_len = \
                self._bootstrap_cursor(service)
            parent_conn, child_conn = self._fork_context.Pipe()
            process = self._fork_context.Process(
                target=_pool_worker_main,
                args=(child_conn, service, self._spawned), daemon=True)
            self._spawned += 1
            process.start()
            child_conn.close()
            self._workers.append(_PersistentWorker(
                process, parent_conn, epoch, kernel_len, collective_len))


class SocketBackend(PooledBackend):
    """Multi-host worker pool: the persistent lifecycle over TCP sockets.

    Workers are remote ``repro worker-host`` processes.  There is no fork
    inheritance across machines, so ``warm`` bootstraps each worker by
    shipping the warmed service once -- estimator suite, shared-provider
    memos, host profile and current cache contents travel in a single
    pickled ``("warm", service)`` message -- after a version handshake
    (:mod:`repro.service.wire`).  From then on the worker is
    indistinguishable from a forked one: the same sync deltas, job
    dispatch, result payloads and parent-side input-order merge, so
    results and cache accounting stay byte-identical to a serial run
    (enforced by ``tests/test_backend_conformance.py`` over localhost).

    Worker addresses come from ``PredictionService(backend="socket",
    workers=["host:port", ...])``, the CLI ``--worker-hosts`` flag, or the
    ``REPRO_WORKER_HOSTS`` environment variable (comma-separated), one
    worker per address.  Connections are attempted with capped
    exponential backoff + jitter (``connect_attempts`` tries per warm);
    if *no* address has ever served a worker the warm still raises
    :class:`BackendWorkerError` (misconfiguration should fail fast).
    Once the pool has been up, workers that die are discarded, their
    leased jobs re-dispatch to survivors, and every ``warm`` retries the
    missing addresses -- a restarted ``repro worker-host`` rejoins
    mid-run and re-warms through the ordinary snapshot/delta resync.  A
    protocol-version mismatch always raises
    :class:`~repro.service.wire.WireProtocolError`.
    """

    name = "socket"
    #: Seconds to wait for a TCP connect + handshake per address.
    connect_timeout = 10.0
    #: Seconds a remote worker gets to unpickle the warm payload and ack.
    warm_timeout = 120.0
    #: Reconnect policy: each unreachable address is attempted up to
    #: ``connect_attempts`` times per warm with capped exponential backoff
    #: (base ``connect_backoff`` seconds doubling up to
    #: ``connect_backoff_cap``) plus deterministic per-address jitter, so
    #: a worker host that is restarting -- or briefly partitioned -- is
    #: picked back up instead of failing on the first refusal.
    connect_attempts = 3
    connect_backoff = 0.2
    connect_backoff_cap = 2.0

    def __init__(self, addresses: Optional[Sequence[str]] = None,
                 sync_timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None,
                 scheduler: Optional[str] = None) -> None:
        super().__init__(sync_timeout=sync_timeout,
                         lease_timeout=lease_timeout, scheduler=scheduler)
        #: Explicit address list (overrides service / environment).
        self._addresses: List[str] = list(addresses or [])
        self._ever_connected = False
        #: Addresses that have served a worker at least once this pool's
        #: lifetime: connecting one again is a rejoin, counted in
        #: ``resilience_stats["reconnects"]``.
        self._served_addresses: set = set()
        #: (address, reason) pairs from the most recent warm's failed
        #: connection attempts (observability; also raised when fatal).
        self.connect_errors: List[Tuple[str, str]] = []

    def _configured_addresses(self, service: "PredictionService"
                              ) -> List[str]:
        if self._addresses:
            return self._addresses
        hosts = getattr(service, "worker_hosts", None)
        if hosts:
            return list(hosts)
        env = os.environ.get("REPRO_WORKER_HOSTS", "")
        return [address.strip() for address in env.split(",")
                if address.strip()]

    def _ready(self, service: "PredictionService") -> bool:
        addresses = self._configured_addresses(service)
        if not addresses:
            raise ValueError(
                "socket backend has no worker hosts: pass "
                "PredictionService(backend='socket', "
                "workers=['host:port', ...]), use the CLI --worker-hosts "
                "flag, or set REPRO_WORKER_HOSTS (start remote workers "
                "with `repro worker-host`)")
        self._addresses = addresses
        return True

    def _connect_with_backoff(self, address: str):
        """Connect to one address, retrying with capped backoff + jitter.

        The jitter is seeded from the address string, so a given
        pool/address pair retries on the same deterministic schedule run
        after run (no wall-clock randomness in tests), while different
        addresses still decorrelate their retry storms.
        """
        rng = random.Random(f"{self.name}:{address}")
        delay = self.connect_backoff
        attempts = max(int(self.connect_attempts), 1)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                return wire.connect(address, timeout=self.connect_timeout)
            except (OSError, EOFError) as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    time.sleep(delay * (0.5 + 0.5 * rng.random()))
                    delay = min(delay * 2.0, self.connect_backoff_cap)
        raise last_error

    def _bootstrap(self, conn: "wire.WireConnection", address: str,
                   payload: bytes, fmt: int) -> None:
        """Ship the encoded warm payload to one host; await its ack."""
        conn.send_bytes(payload, fmt)
        if not conn.poll(self.warm_timeout):
            raise _WorkerUnresponsive(
                f"worker host {address} did not ack the warm payload "
                f"within {self.warm_timeout}s")
        ack = conn.recv()
        if ack != ("warmed",):
            raise wire.WireProtocolError(
                f"worker host {address} answered {ack!r} to the warm "
                f"payload, expected ('warmed',)")

    def _top_up(self, service: "PredictionService") -> None:
        """Connect (and bootstrap) one worker per not-yet-served address.

        An address whose previous worker was discarded (death, straggler,
        dropped connection) is simply unserved again: the next warm()
        lands back here, reconnects with backoff, and the ordinary
        snapshot/delta sync path re-warms the rejoined worker -- elastic
        rejoin falls out of the same machinery as first contact.
        """
        served = {worker.address for worker in self._workers}
        failures: List[Tuple[str, str]] = []
        fresh: List[Tuple[str, wire.WireConnection]] = []
        for address in self._addresses:
            if address in served:
                continue
            try:
                # A handshake version mismatch (WireProtocolError, not an
                # OSError) deliberately propagates: that is never a host
                # to silently skip.
                conn = self._connect_with_backoff(address)
            except (OSError, EOFError) as exc:
                failures.append((address, f"{type(exc).__name__}: {exc}"))
                continue
            fresh.append((address, conn))
        if fresh:
            # One cursor and one pickle pass per wire format for the whole
            # fan-out: the payload (trained suite + cache) can be multi-MB,
            # so serialising it per host would dominate multi-host warms.
            # Columnar-capable peers get the trace-artifact columns raw
            # (format 3), older peers the plain pickle; both decode to the
            # same objects.  Cursor read before the pickle: anything put in
            # between is re-shipped by the first delta (idempotent).
            epoch, kernel_len, collective_len = \
                self._bootstrap_cursor(service)
            payloads: Dict[int, bytes] = {}
        for position, (address, conn) in enumerate(fresh):
            try:
                fmt = wire.format_for_peer(conn)
                if fmt not in payloads:
                    payloads[fmt] = wire.dumps_for_format(
                        ("warm", service), fmt)
                self._bootstrap(conn, address, payloads[fmt], fmt)
            except wire.WireProtocolError:
                conn.close()
                for _, remaining in fresh[position + 1:]:
                    remaining.close()  # raising mid-fan-out must not leak
                raise
            except (OSError, EOFError) as exc:
                conn.close()
                failures.append((address, f"{type(exc).__name__}: {exc}"))
                continue
            if address in self._served_addresses:
                self.resilience_stats["reconnects"] += 1
            self._served_addresses.add(address)
            self._workers.append(_SocketWorker(
                conn, epoch, kernel_len, collective_len, address))
        self.connect_errors = failures
        if self._workers:
            self._ever_connected = True
        elif failures and not self._ever_connected:
            detail = "; ".join(f"{address}: {reason}"
                               for address, reason in failures)
            raise BackendWorkerError(
                f"socket backend could not reach any worker host: {detail}")

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def _member_spec(self, worker: _PoolWorker) -> Optional[str]:
        return getattr(worker, "address", None)

    def _register_member(self, spec: str) -> bool:
        if spec not in self._addresses:
            self._addresses.append(spec)
        return True

    def _retire_member(self, spec: str) -> None:
        # Forget the address so later warms do not reconnect the departed
        # host; ``_served_addresses`` is kept -- if the same host joins
        # again that is a rejoin and counts as a reconnect.
        self._addresses = [address for address in self._addresses
                           if address != spec]

    def _admit_member(self, service: "PredictionService",
                      spec: str) -> Optional[_PoolWorker]:
        """Mid-batch join: connect, handshake and warm one worker host.

        The same bootstrap/snapshot-resync machinery a ``warm()``-time
        (re)connect uses -- the joiner receives the warmed service as of
        the batch's pre-submit state (the parent cache does not change
        while a batch drains), so it is indistinguishable from a worker
        that was present at submit.  Unreachable or misbehaving hosts
        decline the join (recorded in ``connect_errors``) instead of
        failing the batch; a protocol-version mismatch still raises.
        """
        with self._closed_lock:
            if any(getattr(worker, "address", None) == spec
                   for worker in self._workers):
                return None  # already a member
        try:
            conn = self._connect_with_backoff(spec)
        except (OSError, EOFError) as exc:
            self.connect_errors.append((spec,
                                        f"{type(exc).__name__}: {exc}"))
            return None
        epoch, kernel_len, collective_len = self._bootstrap_cursor(service)
        try:
            fmt = wire.format_for_peer(conn)
            self._bootstrap(conn, spec, wire.dumps_for_format(
                ("warm", service), fmt), fmt)
        except wire.WireProtocolError:
            conn.close()
            raise
        except (OSError, EOFError) as exc:
            conn.close()
            self.connect_errors.append((spec,
                                        f"{type(exc).__name__}: {exc}"))
            return None
        worker = _SocketWorker(conn, epoch, kernel_len, collective_len, spec)
        with self._closed_lock:
            if spec not in self._addresses:
                self._addresses.append(spec)
            if spec in self._served_addresses:
                self.resilience_stats["reconnects"] += 1
            self._served_addresses.add(spec)
            self._workers.append(worker)
            self._ever_connected = True
        return worker


_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    PersistentBackend.name: PersistentBackend,
    SocketBackend.name: SocketBackend,
}


def get_backend(name: str) -> EvaluationBackend:
    """Instantiate an evaluation backend by name."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown evaluation backend {name!r}; "
            f"expected one of {sorted(_BACKENDS)}") from None
