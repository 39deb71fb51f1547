"""Evaluation backends: how ``predict_many`` fans a batch of trials out.

Two interchangeable strategies sit behind the same
:meth:`~repro.service.PredictionService.predict_many` interface, both
implementing one explicit lifecycle -- ``warm`` / ``submit`` / ``drain`` /
``close``:

* ``serial`` -- evaluate leaders one after another on the calling thread
  (the reference behaviour the pool must match bit for bit, and the
  default: the emulator and simulator are pure Python, so in-process
  threads cannot overlap them).
* ``persistent`` -- a long-lived fork-based worker pool created once per
  service (``warm()``) and reused across batches (``close()`` tears it
  down).  The service is warmed before forking, so workers inherit the
  trained estimator suite, the shared duration provider's kernel memo and
  the artifact cache accumulated so far as copy-on-write memory.  From
  then on workers are kept in sync by **incremental cache deltas**: before
  each batch the parent ships only the artifact entries and
  shared-provider duration memos created since that worker's last sync,
  keyed by the artifact cache's sync epoch, and the worker acks the epoch
  before any job of the batch reaches it.  A worker whose epoch the
  journal cannot serve receives a full snapshot instead.  Jobs are
  dispatched with a bounded per-worker in-flight window, interleaving
  scatter with gather so neither side can block on a full pipe buffer.
  Each worker runs the ordinary cache-aware ``predict`` path; results
  travel back as pickled :class:`~repro.core.pipeline.PredictionResult`
  objects, and any *freshly emulated* artifacts as one columnar payload
  (:func:`repro.service.wire.dumps_columnar`).  Artifact payloads are
  forwarded as received: the parent's
  :class:`~repro.service.cache.ArtifactCache` holds the worker's bytes
  (:class:`~repro.service.cache.HeldArtifacts`), a sibling's sync ships
  them unchanged, and the sibling holds them too.  Only a cache lookup
  that hits an entry decodes it, once; the parent encodes only the
  entries it emulated itself.  Cache statistics are replayed on the
  parent in input order, so the accounting matches what a serial
  evaluation would have recorded.

Fork is a hard requirement for the ``persistent`` backend (inheriting
multi-MB trained estimator state by copy-on-write is the whole point); on
platforms without it the backend degrades to the serial backend and
records the downgrade in each result's metadata.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import replace
from itertools import islice
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PredictionResult
from repro.service import faults, wire
from repro.service.cache import HeldArtifacts
from repro.service.dispatch import BatchDispatch
from repro.service.scheduling import JobSpec, RoundRobinPolicy, WorkerSnapshot
from repro.workloads.job import TrainingJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.predictor import PredictionService

#: Registered backend names, in documentation order.
BACKEND_NAMES = ("serial", "persistent")

#: Environment variables overriding the persistent pool's default timeouts
#: (explicit constructor / CLI values win over the environment).
SYNC_TIMEOUT_ENV = "REPRO_SYNC_TIMEOUT"
LEASE_TIMEOUT_ENV = "REPRO_LEASE_TIMEOUT"

#: Connection failures every scatter/gather path treats as a dead worker:
#: broken pipes, clean EOFs and other OS-level pipe errors.
_CONN_FAILURES = (EOFError, OSError)


def validate_timeout(name: str, value, allow_zero: bool = False) -> float:
    """Validate a timeout given in seconds; raise ``ValueError`` if bad."""
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be a number of seconds, got {value!r}") from None
    if not math.isfinite(result):  # NaN, or inf (which poll() rejects)
        raise ValueError(
            f"{name} must be a finite number of seconds, got {result}")
    if result < 0 or (result == 0 and not allow_zero):
        bound = ">= 0 (0 disables it)" if allow_zero else "> 0"
        raise ValueError(f"{name} must be {bound} seconds, got {result}")
    return result


def _resolve_timeout(name: str, value, env_var: str, default: float,
                     allow_zero: bool = False) -> float:
    """Constructor argument > environment variable > class default."""
    if value is not None:
        return validate_timeout(name, value, allow_zero=allow_zero)
    raw = os.environ.get(env_var)
    if raw is None or not raw.strip():
        return default
    return validate_timeout(f"{env_var} ({name})", raw, allow_zero=allow_zero)

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


def _evaluate_job(service: "PredictionService", index: int, job: TrainingJob
                  ) -> Tuple[int, PredictionResult, Optional[bytes]]:
    """Evaluate one job inside a worker process.

    Returns the prediction plus, for cache misses, the freshly emulated
    artifacts encoded once as a columnar payload, so the parent can cache
    them (worker memory is a copy-on-write fork: nothing written here is
    visible to the parent).  The first replay already lowered every trace to
    columns, so encoding is a buffer copy.  This is the only encode an
    artifact gets: the parent holds these bytes and forwards them
    unchanged to the sibling workers, and whoever later looks the entry
    up decodes it there.  ``job`` and ``cluster`` stay behind: each
    holder re-attaches its own.
    """
    result = service.predict(job)
    payload: Optional[bytes] = None
    if result.metadata.get("service_cache") == "miss":
        key = _artifact_key(service, job)
        if key is not None:
            artifacts = service.cache.peek_artifacts(key)
            if artifacts is not None:
                payload = wire.dumps_columnar(
                    replace(artifacts, job=None, cluster=None))
    return index, result, payload


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

    ``payloads`` are ``(index, result, artifact payload)`` tuples.  Replays the cache accounting each worker performed against
    its own (invisible) cache copy, caches freshly emulated artifacts as
    the held wire payloads they arrived as (decoded only if a later
    lookup hits them), and seeds the prediction cache so followers and
    future batches resolve exactly as they would have serially.
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
            # Fresh emulation: hold the worker's bytes (traces and
            # collation, as it encoded them) with the parent's own objects
            # to re-attach on lookup.
            if (artifact_key is not None
                    and service.cache.peek_entry(artifact_key) is None):
                service.cache.put_artifacts(artifact_key, HeldArtifacts(
                    payload, job, service.pipeline.cluster))
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
      ``persistent`` does real work here (it forks its worker pool); for
      ``serial`` it is a no-op.
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
        after every batch (even on error), so a failed batch leaves no
        pending jobs behind for the next call.
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


# ----------------------------------------------------------------------
# persistent fork pool
# ----------------------------------------------------------------------
def _pool_worker_main(conn, service: "PredictionService",
                      worker_id: int) -> None:
    """Long-lived worker loop: apply sync deltas, evaluate jobs, repeat.

    The worker holds its own fork-time copy of the service; sync messages
    keep its artifact cache (and the shared provider's duration memos)
    mirroring the parent's, so its per-job cache accounting is exactly
    what a serial evaluation on the parent would have recorded.  Job
    failures are reported, not fatal: the pool survives an exception
    mid-batch.

    ``worker_id`` numbers this worker (fork spawn order) for ``worker``-
    scoped fault rules.  The active
    :class:`~repro.service.faults.FaultPlan` hooks run before / after each
    job and before each sync ack; a ``drop`` rule surfaces as
    :class:`~repro.service.faults.FaultInjected` and closes the pipe.
    """
    plan = faults.current_fault_plan(worker_id)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "close":
                break
            try:
                if kind == "sync":
                    (_, epoch, full, entries, kernel_memo,
                     collective_memo) = message
                    # Held as received: decoded only if a job's lookup
                    # hits the entry.
                    cluster = service.pipeline.cluster
                    service.cache.apply_artifact_delta(
                        [(key, HeldArtifacts(payload, None, cluster))
                         for key, payload in entries], full=full)
                    provider = (service.provider()
                                if service.share_provider else None)
                    if provider is not None:
                        getattr(provider, "_kernel_cache",
                                {}).update(kernel_memo)
                        getattr(provider, "_collective_cache",
                                {}).update(collective_memo)
                    plan.on_sync(epoch)
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
                        payload = _evaluate_job(service, index, job)
                    except BaseException:
                        conn.send(("error", index, traceback.format_exc()))
                    else:
                        conn.send(("result",) + payload)
                        plan.after_job(index,
                                       time.perf_counter() - started)
            except faults.FaultInjected:
                break
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


class _Worker:
    """Parent-side handle of one forked worker process."""

    __slots__ = ("process", "conn", "epoch", "kernel_memo_len",
                 "collective_memo_len")

    def __init__(self, process, conn, epoch: int, kernel_memo_len: int,
                 collective_memo_len: int) -> None:
        self.process = process
        self.conn = conn
        #: Cache sync epoch this worker last acked (the parent epoch at
        #: fork time initially).
        self.epoch = epoch
        #: Shared-provider memo lengths already shipped (memo dicts are
        #: append-only, so a length is a complete delta cursor).
        self.kernel_memo_len = kernel_memo_len
        self.collective_memo_len = collective_memo_len

    def alive(self) -> bool:
        """Whether the pool should keep dispatching to this worker."""
        return self.process.is_alive()

    def reap(self, timeout: float = 5.0) -> None:
        """Join the process; terminate it if it will not exit."""
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            # Wedged-but-alive (e.g. timed out acking a sync): terminate it
            # so it cannot outlive the service.
            self.process.terminate()
            self.process.join(timeout=5)


class PersistentBackend(EvaluationBackend):
    """Long-lived fork-based worker pool with incremental cache shipping.

    ``warm`` forks the workers, which inherit the warmed service
    copy-on-write.  Each batch is ``submit`` (placement, then the
    incremental cache-delta sync with its epoch acks and timeout
    handling) followed by ``drain``, a pipe loop around a
    :class:`~repro.service.dispatch.BatchDispatch`, which owns the fault
    model (liveness, job leases, per-job degradation); the gathered
    results merge in input order.
    """

    name = "persistent"
    persistent = True
    #: Seconds a worker gets to ack a sync message before it is treated
    #: like a dead one (discarded, share evaluated on the parent).  Sync
    #: application is pure dict folding, so even a full snapshot acks in
    #: well under a second; a worker that misses this deadline is wedged.
    #: Class attribute is the default; instances resolve constructor arg >
    #: ``REPRO_SYNC_TIMEOUT`` > this value.
    sync_timeout = 60.0
    #: Seconds a dispatched job may stay unanswered before its lease
    #: expires and the parent speculatively re-dispatches it to another
    #: live worker (the parent itself as last resort).  First result
    #: wins; the late duplicate is discarded.  ``0`` disables leases
    #: (a straggler then gates the batch, as before).  Instances resolve
    #: constructor arg > ``REPRO_LEASE_TIMEOUT`` > this value.
    lease_timeout = 30.0
    #: Jobs kept in flight per worker.  Job messages are small (a pickled
    #: :class:`TrainingJob`), so a bounded window always fits in the OS
    #: pipe buffer; the parent sends a new job only after receiving a
    #: result, which keeps it draining results (and the workers' outbound
    #: buffers) instead of ever blocking in ``send``.
    max_inflight = 2

    def __init__(self, sync_timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None) -> None:
        self.sync_timeout = _resolve_timeout(
            "sync_timeout", sync_timeout, SYNC_TIMEOUT_ENV,
            type(self).sync_timeout)
        self.lease_timeout = _resolve_timeout(
            "lease_timeout", lease_timeout, LEASE_TIMEOUT_ENV,
            type(self).lease_timeout, allow_zero=True)
        self._policy = RoundRobinPolicy()
        self._workers: List[_Worker] = []
        self._service: Optional["PredictionService"] = None
        self._fork_context = None
        #: Workers forked so far: numbers workers in spawn order for
        #: ``worker``-scoped fault rules.
        self._spawned = 0
        #: When set, ``warm`` never forks a pool, so every batch runs on
        #: the serial backend and each result's metadata is tagged with
        #: this reason (fork unavailable).
        self._fallback_reason: Optional[str] = None
        #: Serialises batches: submit acquires, drain releases.
        self._batch_lock = threading.Lock()
        #: Guards pool (``_workers``) mutation: ``warm`` forks and
        #: appends, ``close`` swaps the list out, ``_discard_worker``
        #: removes -- all under this lock so a teardown racing a top-up can
        #: never strand a fresh worker outside the list.  Reentrant because
        #: ``warm`` calls ``close`` when re-targeted at a new service.
        self._closed_lock = threading.RLock()
        self._delegate: Optional[EvaluationBackend] = None
        self._jobs: List[TrainingJob] = []
        self._deferred: List[int] = []
        self._assignments: List[Tuple[_Worker, List[int]]] = []
        #: (index, fallback reason) pairs whose worker died before
        #: evaluating them; the parent picks them up in drain.
        self._parent_eval: List[Tuple[int, str]] = []
        #: Resilience counters (surfaced by tests, the chaos benchmark
        #: and the conformance harness).
        self.resilience_stats: Dict[str, int] = {
            "worker_deaths": 0, "lease_expirations": 0,
            "redispatched_jobs": 0, "duplicate_results": 0,
            "parent_evaluations": 0, "stragglers_discarded": 0,
        }
        #: Which worker emulated each artifact key: that worker already has
        #: its own (equivalent) copy, so deltas skip shipping it back.
        self._artifact_origin: Dict[Tuple, _Worker] = {}
        #: Sync-protocol counters (surfaced by tests and the benchmark).
        #: The placement counters mirror the placement policy's
        #: monotonic :attr:`SchedulerPolicy.stats` after every batch.
        self.sync_stats: Dict[str, int] = {
            "delta_syncs": 0, "full_syncs": 0, "skipped_syncs": 0,
            "batches": 0,
            "placements": 0, "locality_hits": 0, "ship_bytes_avoided": 0,
        }

    def pool_size(self) -> int:
        """Live workers currently in the pool."""
        with self._closed_lock:
            return len(self._workers)

    # ------------------------------------------------------------------
    # placement views
    # ------------------------------------------------------------------
    def _estimate_ship_bytes(self, artifacts) -> int:
        """Cheap proxy for an artifact ship's wire size.

        Scales with total trace-row count (the dominant payload term) at
        a nominal per-row byte cost; deliberately an estimate -- placement
        needs relative weights, not measured frames.
        """
        rows = artifacts.job_trace.total_events()
        return max(rows, 1) * self._NOMINAL_EVENT_BYTES

    _NOMINAL_EVENT_BYTES = 48

    def _job_specs(self, service: "PredictionService",
                   jobs: List[TrainingJob],
                   dispatch: Sequence[int]) -> List[JobSpec]:
        """Placement views of the dispatchable jobs.  Never decodes: a
        held entry's ship size is its payload's measured length."""
        cache = service.cache
        specs: List[JobSpec] = []
        for index in dispatch:
            key = _artifact_key(service, jobs[index])
            entry = None if key is None else cache.peek_entry(key)
            if entry is None:
                ship_bytes = 0
            elif isinstance(entry, HeldArtifacts):
                ship_bytes = len(entry.payload)
            else:
                ship_bytes = self._estimate_ship_bytes(entry)
            specs.append(JobSpec(
                index=index, artifact_key=key,
                artifact_cached=entry is not None, ship_bytes=ship_bytes))
        return specs

    def _worker_snapshots(self, service: "PredictionService",
                          workers: Sequence[_Worker]
                          ) -> List[WorkerSnapshot]:
        """Placement views of the live workers, slot-parallel."""
        cache = service.cache
        origin_keys: Dict[_Worker, set] = {}
        for key, owner in self._artifact_origin.items():
            origin_keys.setdefault(owner, set()).add(key)
        snapshots: List[WorkerSnapshot] = []
        for slot, worker in enumerate(workers):
            held = set(cache.keys_synced_at(worker.epoch))
            held.update(origin_keys.get(worker, ()))
            snapshots.append(WorkerSnapshot(slot=slot, load=0,
                                            held_keys=frozenset(held)))
        return snapshots

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def warm(self, service: "PredictionService") -> None:
        """Fork the pool up to ``service.max_workers`` (idempotent; tops
        up after worker deaths).

        Must run after the estimator suite / shared provider exist so
        workers inherit trained state -- ``service.warm()`` guarantees
        that ordering.  New workers fork with the parent's *current*
        cache and provider memos inherited copy-on-write, so their sync
        cursor starts at the cache's current epoch.
        """
        if self._fallback_reason is not None:
            return
        if self._fork_context is None:
            try:
                self._fork_context = multiprocessing.get_context("fork")
            except ValueError:
                self._fallback_reason = "fork unavailable"
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
            desired = max(int(service.max_workers), 1)
            if desired <= 1 and not self._workers:
                return  # serial degenerate: no pool needed
            while len(self._workers) < desired:
                self._fork_worker(service)

    def _fork_worker(self, service: "PredictionService") -> None:
        """Fork one worker (under ``_closed_lock``).  The sync cursor is
        read *before* the fork: entries added in between are simply
        re-shipped by the first delta, which is idempotent."""
        provider = service.provider() if service.share_provider else None
        cursor = (service.cache.sync_epoch,
                  len(getattr(provider, "_kernel_cache", ())),
                  len(getattr(provider, "_collective_cache", ())))
        parent_conn, child_conn = self._fork_context.Pipe()
        process = self._fork_context.Process(
            target=_pool_worker_main,
            args=(child_conn, service, self._spawned), daemon=True)
        self._spawned += 1
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process, parent_conn, *cursor))

    def _prune_dead_workers(self) -> None:
        """Drop pooled workers that died between batches.  An idle worker
        owes the parent nothing, so a readable pipe is EOF or a desynced
        peer: either way the worker goes."""
        for worker in list(self._workers):
            try:
                pruned = not worker.alive() or worker.conn.poll(0)
            except _CONN_FAILURES:
                pruned = True
            if pruned:
                self.resilience_stats["worker_deaths"] += 1
                self._discard_worker(worker)

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
    def _send_sync(self, service: "PredictionService", worker: _Worker,
                   encoded: Dict[Tuple, bytes]) -> Optional[Tuple]:
        """Ship the artifact/memo delta since the worker's acked epoch.

        Returns what :meth:`_await_sync` needs to collect the ack (``None``
        when the worker is already current and nothing was sent).  The
        worker acks the epoch before any job of the batch reaches it (the
        pipe is ordered), so no job is ever evaluated against stale
        artifacts.  An unserviceable epoch -- or an ack that does not match
        the epoch just shipped -- forces a full snapshot resync.  Artifacts
        travel as columnar payloads.  A held entry (a worker's result
        payload) is forwarded as received, never decoded or re-encoded.
        Only the entries the parent holds decoded are encoded, memoised in
        ``encoded`` (shared by every worker synced for the same batch): a
        delta fanned out to N siblings is serialised once, not N times.
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
        shipped = []
        for key, artifacts in entries:
            if isinstance(artifacts, HeldArtifacts):
                shipped.append((key, artifacts.payload))
                continue
            if key not in encoded:
                encoded[key] = wire.dumps_columnar(artifacts)
            shipped.append((key, encoded[key]))
        worker.conn.send(("sync", epoch, full, shipped, kernel_memo,
                          collective_memo))
        return (epoch, kernel_len, collective_len,
                time.monotonic() + self.sync_timeout)

    def _await_sync(self, worker: _Worker,
                    pending: Optional[Tuple]) -> None:
        """Collect the ack of a :meth:`_send_sync`; commit the cursor.

        The deadline runs from the send, so acks of workers synced in one
        pipelined round are awaited concurrently: a worker whose ack has
        already arrived is honoured however long an earlier one took.
        """
        if pending is None:
            return
        epoch, kernel_len, collective_len, deadline = pending
        if not worker.conn.poll(max(deadline - time.monotonic(), 0.0)):
            # A wedged-but-alive worker must not hang the service: treat
            # it exactly like a dead pipe (the caller discards the worker
            # and evaluates its share on the parent).
            raise _WorkerUnresponsive(
                f"{self.name} worker did not ack sync epoch {epoch} "
                f"within {self.sync_timeout}s")
        ack = worker.conn.recv()
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
    def _discard_worker(self, worker: _Worker) -> None:
        """Drop a dead or unresponsive worker (the next warm tops it up)."""
        with self._closed_lock:
            if worker in self._workers:
                self._workers.remove(worker)
            # The origin map must not keep the dead handle (its process
            # and closed pipe) alive until close().
            for key in [key for key, owner in self._artifact_origin.items()
                        if owner is worker]:
                del self._artifact_origin[key]
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
            self._parent_eval = []
            jobs = list(jobs)
            self._jobs = jobs
            workers = [worker for worker in self._workers if worker.alive()]
            dispatch, deferred = _split_structural(service, jobs)
            if len(dispatch) <= 1 or not workers:
                self._delegate = SerialBackend()
                self._delegate.submit(service, jobs)
                return
            self._deferred = deferred
            self.sync_stats["batches"] += 1
            # Placement sees immutable job/worker views (artifact keys,
            # held keys) and returns one share per worker.  Workers
            # handed an empty share sit this batch out entirely -- no
            # sync, so nothing ships to them.
            shares = self._policy.assign(
                self._job_specs(service, jobs, dispatch),
                self._worker_snapshots(service, workers))
            for counter in ("placements", "locality_hits",
                            "ship_bytes_avoided"):
                self.sync_stats[counter] = self._policy.stats[counter]
            assignments: List[Tuple[_Worker, List[int]]] = [
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
            sent: List[Tuple[_Worker, List[int], Optional[Tuple]]] = []
            failed: List[Tuple[_Worker, List[int]]] = []
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
        """Gather the submitted batch: the pipe loop around one
        :class:`~repro.service.dispatch.BatchDispatch`.  The dispatch
        decides (bounded in-flight window, leases, liveness polls); this
        loop only moves bytes and feeds what happened back."""
        try:
            if self._delegate is not None:
                return self._drain_delegate()
            assignments, self._assignments = self._assignments, []
            parent_eval, self._parent_eval = self._parent_eval, []
            dispatch = BatchDispatch(
                assignments, parent_eval, name=self.name,
                policy=self._policy, stats=self.resilience_stats,
                max_inflight=self.max_inflight,
                lease_timeout=self.lease_timeout, now=time.monotonic())
            payloads: List[Tuple] = []
            self._perform(dispatch)
            while not dispatch.finished:
                conns = {worker.conn: worker for worker in dispatch.active}
                for conn in mp_connection.wait(
                        list(conns), dispatch.next_deadline(time.monotonic())):
                    worker = conns[conn]
                    if worker not in dispatch.active:
                        continue  # failed earlier in this ready set
                    try:
                        message = conn.recv()
                    except _CONN_FAILURES:
                        dispatch.worker_failed(worker, "died mid-batch",
                                               time.monotonic())
                    else:
                        self._feed(dispatch, worker, message, payloads)
                    self._perform(dispatch)
                dispatch.tick(time.monotonic())
                self._perform(dispatch)
            dispatch.finish()
            self._perform(dispatch)
            return self._merge(dispatch, payloads)
        finally:
            self._batch_lock.release()

    def _drain_delegate(self) -> List[PredictionResult]:
        delegate, self._delegate = self._delegate, None
        try:
            results = delegate.drain()
        finally:
            delegate.close()
        if self._fallback_reason is not None:
            for result in results:
                result.metadata.setdefault("backend_fallback",
                                           self._fallback_reason)
        return results

    def _perform(self, dispatch: BatchDispatch) -> None:
        """Carry out every action the dispatch has queued.  A send that
        hits a dead pipe is fed back as that worker's failure, which may
        queue more actions; the loop runs dry."""
        for action in iter(dispatch.next_action, None):
            worker = action.worker
            try:
                if action.kind == "send":
                    worker.conn.send(("job", action.arg,
                                      self._jobs[action.arg]))
                else:
                    self._discard_worker(worker)
            except _CONN_FAILURES:
                dispatch.worker_failed(worker, action.on_failure,
                                       time.monotonic())

    def _feed(self, dispatch: BatchDispatch, worker: _Worker,
              message: Tuple, payloads: List[Tuple]) -> None:
        """Turn one worker message into a dispatch event."""
        now = time.monotonic()
        if message[0] == "error":
            dispatch.error(worker, message[1], message[2], now)
        elif dispatch.result(worker, message[1], now):
            payloads.append(message[1:])
            if message[3] is not None:
                # Fresh emulation: remember which worker already holds
                # these artifacts so the next sync does not ship them back.
                key = _artifact_key(self._service, self._jobs[message[1]])
                if key is not None:
                    while len(self._artifact_origin) >= 4096:
                        self._artifact_origin.pop(
                            next(iter(self._artifact_origin)))
                    self._artifact_origin[key] = worker

    def _merge(self, dispatch: BatchDispatch,
               payloads: List[Tuple]) -> List[PredictionResult]:
        """Fold the gathered batch into the parent.

        Whatever succeeded is merged even when part of the batch failed:
        workers cached that work in their own copies, so the parent must
        record it too or the two drift apart.  In input order, not
        arrival order: near max_entries the merge's put order decides
        which entry the parent evicts, and a serial run puts in input
        order."""
        service, jobs = self._service, self._jobs
        payloads.sort(key=lambda payload: payload[0])
        results = _merge_batch(service, jobs, payloads)
        if dispatch.errors:
            index, detail = dispatch.errors[0]
            raise BackendWorkerError(
                f"{self.name} worker failed on job {index}:\n{detail}")
        for index in sorted(dispatch.missing):
            results[index] = service.predict(jobs[index])
        for index in self._deferred:
            results[index] = service.predict(jobs[index])
        self._deferred = []
        for index, reason in dispatch.fallback_reasons.items():
            result = results[index]
            if result is not None:
                result.metadata.setdefault("backend_fallback", reason)
        return results  # type: ignore[return-value]


_BACKENDS = {
    SerialBackend.name: SerialBackend,
    PersistentBackend.name: PersistentBackend,
}


def get_backend(name: str) -> EvaluationBackend:
    """Instantiate an evaluation backend by name."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown evaluation backend {name!r}; "
            f"expected one of {sorted(_BACKENDS)}") from None
