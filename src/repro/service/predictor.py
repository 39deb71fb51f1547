"""The prediction service: cached, parallel trial evaluation.

:class:`PredictionService` is the layer Maya-Search, the benchmarks and the
CLI talk to instead of driving :class:`~repro.core.pipeline.MayaPipeline`
directly.  One service instance is bound to one pipeline (one cluster + one
estimator configuration) and owns:

* an :class:`~repro.service.cache.ArtifactCache` (optionally shared between
  services over the same cluster, e.g. a learned and an oracle pipeline),
* a shared duration provider whose per-shape kernel memo persists across
  trials, and
* an evaluation backend for batches (``predict_many``): ``serial`` (the
  default) or the long-lived fork-based ``persistent`` worker pool (see
  :mod:`repro.service.backends`); both produce identical results.

The service owns its backend instance and exposes the backend lifecycle:
``warm()`` acquires long-lived resources (estimator suite, shared
provider and -- for ``persistent`` -- the forked worker pool itself),
``close()`` releases them, and the service is a context manager (``with
PredictionService(...) as service:``) so pools never outlive their
owner.  Pool workers inherit the warmed service by fork; it is never
pickled.

Returned results carry ``metadata["service_cache"]`` --
``"prediction"`` (all four stages skipped), ``"artifacts"`` (emulation +
collation reused, estimation + simulation re-run) or ``"miss"`` (cold) --
which the search runner surfaces as trial statuses and cache-hit accounting.
``"artifacts"``-level results additionally carry
``metadata["artifact_tier"]`` (``"memory"`` or ``"store"``) naming the
cache tier that served the reuse; with ``store_dir=`` the service sits on
a disk-backed :class:`~repro.service.store.ArtifactStore` shared across
processes, so a fresh service warm-starts from artifacts earlier runs
persisted.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import (
    EmulationArtifacts,
    MayaPipeline,
    PredictionResult,
)
from repro.core.simulator.providers import EstimatedDurationProvider
from repro.hardware.cluster import ClusterSpec
from repro.service.backends import (
    BACKEND_NAMES,
    EvaluationBackend,
    get_backend,
    validate_timeout,
)
from repro.service.cache import ArtifactCache, CacheStats
from repro.workloads.job import TrainingJob


def _clone_result(result: PredictionResult, cache_level: str,
                  tier: Optional[str] = None) -> PredictionResult:
    """Copy a result so callers can't mutate cached state; tag its origin.

    A prediction-level hit ran no pipeline stages at all, so its clone
    reports empty stage times rather than booking the original trial's
    work again (mirroring how reused artifacts report zero emulation).

    ``tier`` labels which cache tier satisfied an ``"artifacts"``-level
    hit (``"memory"`` or ``"store"``); any stale label inherited from a
    cached result (e.g. one seeded by a pooled merge) is dropped so the
    tag always describes *this* resolution.
    """
    metadata = dict(result.metadata)
    metadata["service_cache"] = cache_level
    if tier is not None:
        metadata["artifact_tier"] = tier
    else:
        metadata.pop("artifact_tier", None)
    stage_times = {} if cache_level == "prediction" else dict(result.stage_times)
    return replace(result, stage_times=stage_times, metadata=metadata)


class PredictionService:
    """Cache-aware, optionally parallel front-end to a Maya pipeline."""

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        pipeline: Optional[MayaPipeline] = None,
        estimator_mode: str = "learned",
        cache: Optional[ArtifactCache] = None,
        enable_cache: bool = True,
        share_provider: bool = True,
        max_workers: int = 1,
        backend: str = "serial",
        sync_timeout: Optional[float] = None,
        lease_timeout: Optional[float] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        if pipeline is None:
            if cluster is None:
                raise ValueError("either a cluster or a pipeline is required")
            pipeline = MayaPipeline(cluster, estimator_mode=estimator_mode)
        self.pipeline = pipeline
        self.cluster = pipeline.cluster
        self.enable_cache = enable_cache
        self.share_provider = share_provider
        self.max_workers = max(int(max_workers), 1)
        #: Pooled-backend timeout overrides (``None`` leaves the backend
        #: to its own resolution: ``REPRO_SYNC_TIMEOUT`` /
        #: ``REPRO_LEASE_TIMEOUT`` env vars, then class defaults).
        #: Validated eagerly so a bad CLI/constructor value fails here,
        #: not mid-batch; must be set before the backend property below
        #: instantiates (and configures) the backend.
        self.sync_timeout: Optional[float] = (
            None if sync_timeout is None
            else validate_timeout("sync_timeout", sync_timeout))
        self.lease_timeout: Optional[float] = (
            None if lease_timeout is None
            else validate_timeout("lease_timeout", lease_timeout,
                                  allow_zero=True))
        #: Batch-evaluation strategy ("serial" or "persistent"); validated
        #: by the property setter, which also owns the backend instance's
        #: lifecycle.
        self._backend_impl: Optional[EvaluationBackend] = None
        self.backend = backend
        self.cache = cache if cache is not None else ArtifactCache()
        #: Root of the disk-backed artifact store this service attached
        #: (``None`` = memory-only caching).  The store itself lives on
        #: the cache (:attr:`ArtifactCache.store`) so services sharing a
        #: cache share its cold tier too.
        self.store_dir: Optional[str] = None
        if store_dir is not None:
            self.attach_store(store_dir)
        self._provider: Optional[EstimatedDurationProvider] = None
        self._lock = threading.Lock()
        #: Per-artifact-key locks so structurally identical jobs evaluated
        #: concurrently emulate once (the second waits, then hits the
        #: cache).  Every backend evaluates on one thread, but one service
        #: may still be called from several (a prediction server's
        #: executor, an embedding application's own threads).
        self._artifact_locks: Dict[Tuple, threading.Lock] = {}
        #: Aggregate throughput counters surfaced by the CLI / benchmarks.
        self._throughput: Dict[str, float] = {
            "batches": 0, "trials": 0, "batch_wall_s": 0.0,
            "simulated_events": 0, "sim_wall_s": 0.0,
        }

    # ------------------------------------------------------------------
    # evaluation backend
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the batch-evaluation backend used by ``predict_many``."""
        return self._backend

    @backend.setter
    def backend(self, name: str) -> None:
        if name not in BACKEND_NAMES:
            raise ValueError(f"unknown evaluation backend {name!r}; "
                             f"expected one of {sorted(BACKEND_NAMES)}")
        if self._backend_impl is not None:
            if self._backend_impl.name == name:
                return
            # Switching strategies releases the old backend's resources
            # (e.g. a persistent pool) before the new one exists.
            self._backend_impl.close()
        self._backend = name
        self._backend_impl = get_backend(name)
        self._configure_backend(self._backend_impl)

    def _configure_backend(self, impl: EvaluationBackend) -> None:
        """Apply service-level overrides to a pooled backend."""
        if getattr(self, "sync_timeout", None) is not None and \
                hasattr(impl, "sync_timeout"):
            impl.sync_timeout = self.sync_timeout
        if getattr(self, "lease_timeout", None) is not None and \
                hasattr(impl, "lease_timeout"):
            impl.lease_timeout = self.lease_timeout

    @property
    def backend_impl(self) -> EvaluationBackend:
        """The live backend instance (stateful for ``persistent``)."""
        return self._backend_impl

    # ------------------------------------------------------------------
    # tiered artifact store
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The cache's disk-backed cold tier, or ``None``."""
        return getattr(self.cache, "store", None)

    def attach_store(self, store_dir) -> None:
        """Attach (or create) the disk store at ``store_dir``.

        Raises :class:`~repro.service.store.StoreFormatError` when the
        directory was written by an incompatible ``repro`` -- attaching
        must refuse-and-report, never silently misread.  A cache that
        already has a store keeps it (shared-cache services attach once).
        """
        from repro.service.store import ArtifactStore

        self.store_dir = str(store_dir)
        if getattr(self.cache, "store", None) is None:
            self.cache.store = ArtifactStore(store_dir)

    def store_stats(self) -> Optional[Dict[str, object]]:
        """Disk-store entry/size/op counters, or ``None`` when detached."""
        store = self.store
        return None if store is None else store.stats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker pools); idempotent."""
        if self._backend_impl is not None:
            self._backend_impl.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # shared estimator provider
    # ------------------------------------------------------------------
    def provider(self) -> Optional[EstimatedDurationProvider]:
        """The cluster-wide shared duration provider (None when disabled)."""
        if not self.share_provider:
            return None
        with self._lock:
            if self._provider is None:
                self._provider = self.pipeline.make_provider()
            return self._provider

    def warm(self) -> None:
        """Force estimator training / provider construction up front, then
        let the backend acquire its long-lived resources.

        Ordering matters: the persistent pool forks *after* the estimator
        suite exists, so workers inherit the trained state instead of
        each training their own copy.
        """
        self._warm_pipeline()
        self._backend_impl.warm(self)

    def _warm_pipeline(self) -> None:
        """Estimator/provider warm-up only (no backend resources)."""
        if self.share_provider:
            self.provider()
        else:
            _ = self.pipeline.suite

    # ------------------------------------------------------------------
    # cache keys
    # ------------------------------------------------------------------
    def _artifact_key(self, job: TrainingJob) -> Tuple:
        return (job.structural_signature(), self.pipeline.collation_fingerprint())

    def _prediction_key(self, job: TrainingJob) -> Tuple:
        return (job.signature(), self.pipeline.collation_fingerprint(),
                self.pipeline.estimator_fingerprint())

    def request_key(self, job: TrainingJob) -> Optional[Tuple]:
        """Public prediction-identity key, or ``None`` when unkeyable.

        Two jobs with equal keys produce byte-identical predictions, so a
        multiplexing layer (the prediction server) can coalesce them into
        one evaluation.  ``None`` (unhashable / unsigned job types) means
        "never coalesce".
        """
        try:
            return self._prediction_key(job)
        except (NotImplementedError, TypeError):
            return None

    def has_prediction(self, key: Tuple) -> bool:
        """True when a job with this :meth:`request_key` would resolve as a
        prediction-level cache hit right now (uncounted lookup)."""
        return (self.enable_cache
                and self.cache.peek_prediction(key) is not None)

    # ------------------------------------------------------------------
    # cache-aware emulation
    # ------------------------------------------------------------------
    def artifacts_for(self, job: TrainingJob) -> EmulationArtifacts:
        """Emulation + collation artifacts for ``job``, cached structurally."""
        artifacts, _ = self._artifacts_for(job)
        return artifacts

    def _artifacts_for(self, job: TrainingJob
                       ) -> Tuple[EmulationArtifacts, Optional[str]]:
        """Artifacts plus the cache tier that served them.

        The second element is ``"memory"`` / ``"store"`` for hits and
        ``None`` for a fresh (or uncacheable) emulation.
        """
        if not self.enable_cache:
            return self.pipeline.emulate(job), None
        try:
            key = self._artifact_key(job)
        except (NotImplementedError, TypeError):
            return self.pipeline.emulate(job), None
        # Locks are never dropped (clearing could discard one a thread still
        # holds); growth is bounded by the number of distinct structural
        # keys seen, which a lock object per key is cheap enough for.
        with self._lock:
            key_lock = self._artifact_locks.setdefault(key, threading.Lock())
        with key_lock:
            cached, tier = self.cache.lookup_artifacts(key)
            if cached is not None:
                return cached, tier
            artifacts = self.pipeline.emulate(job)
            self.cache.put_artifacts(key, artifacts)
        return artifacts, None

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, job: TrainingJob) -> PredictionResult:
        """Predict ``job`` through the cache + shared provider."""
        if job.validate():
            # Invalid jobs are cheap to reject; never cached.
            return self.pipeline.predict(job)
        if not self.enable_cache:
            result = self.pipeline.predict(job, provider=self.provider())
            result.metadata.setdefault("service_cache", "disabled")
            return result
        try:
            key = self._prediction_key(job)
        except (NotImplementedError, TypeError):
            key = None
        if key is not None:
            cached = self.cache.get_prediction(key)
            if cached is not None:
                return _clone_result(cached, "prediction")
        artifacts, tier = self._artifacts_for(job)
        result = self.pipeline.predict(job, artifacts, provider=self.provider())
        if key is not None:
            self.cache.put_prediction(key, result)
        return _clone_result(result, "artifacts" if tier else "miss", tier)

    def predict_many(self, jobs: Sequence[TrainingJob]) -> List[PredictionResult]:
        """Evaluate a batch of jobs through the configured backend.

        Results come back in input order.  Within one batch, jobs with equal
        full signatures are evaluated once; the duplicates resolve through
        the prediction cache afterwards.  Both backends (``serial``,
        ``persistent``) produce identical results -- only wall-clock
        behaviour differs (the conformance contract of
        ``tests/backend_conformance.py``).
        """
        jobs = list(jobs)
        if not jobs:
            return []
        self.warm()

        # In-flight dedup: the first occurrence of each signature runs, the
        # rest replay the cached prediction once it lands.
        leaders: List[int] = []
        leader_keys: Dict[int, Tuple] = {}
        followers: List[int] = []
        if self.enable_cache:
            seen: Dict[Tuple, int] = {}
            for index, job in enumerate(jobs):
                try:
                    key = self._prediction_key(job)
                except (NotImplementedError, TypeError):
                    leaders.append(index)
                    continue
                if key in seen:
                    followers.append(index)
                else:
                    seen[key] = index
                    leaders.append(index)
                    leader_keys[index] = key
        else:
            leaders = list(range(len(jobs)))

        start = time.perf_counter()
        results: List[Optional[PredictionResult]] = [None] * len(jobs)
        # Resolve prediction-level hits on the calling thread: no point
        # shipping a trial to a worker (or forking one) just to read the
        # cache the worker inherited from us anyway.
        dispatch: List[int] = []
        for index in leaders:
            key = leader_keys.get(index)
            if key is None or jobs[index].validate():
                dispatch.append(index)
                continue
            # Peek first: a miss here must not be counted (the evaluating
            # worker's own lookup will count it); a hit re-reads through
            # the counted path.
            cached = (self.cache.get_prediction(key)
                      if self.cache.peek_prediction(key) is not None else None)
            if cached is not None:
                results[index] = _clone_result(cached, "prediction")
            else:
                dispatch.append(index)
        if dispatch:
            # Stateless backends get a fresh instance per batch so
            # concurrent predict_many calls never share submit/drain state;
            # the persistent backend reuses its pool (and serialises
            # batches behind its own lock).
            backend = (self._backend_impl if self._backend_impl.persistent
                       else get_backend(self.backend))
            for index, result in zip(
                    dispatch,
                    backend.evaluate(self, [jobs[i] for i in dispatch])):
                results[index] = result
        for index in followers:
            results[index] = self.predict(jobs[index])
        self._record_throughput([results[i] for i in leaders],
                                time.perf_counter() - start)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    def cache_stats(self) -> Dict[str, float]:
        return self.cache.stats.to_dict()

    def resilience_stats(self) -> Dict[str, int]:
        """The backend's fault-handling counters (empty for non-pooled)."""
        return dict(getattr(self._backend_impl, "resilience_stats", None)
                    or {})

    def _record_throughput(self, leader_results: Sequence[PredictionResult],
                           batch_wall: float) -> None:
        """Fold one batch's simulation counters into the aggregate stats.

        Prediction-level cache hits ran no simulation this call, so their
        (reused) report counters are excluded.
        """
        events = 0
        sim_wall = 0.0
        for result in leader_results:
            if result is None or result.report is None:
                continue
            if result.metadata.get("service_cache") == "prediction":
                continue
            metadata = result.report.metadata
            events += int(metadata.get("processed_events", 0) or 0)
            sim_wall += float(metadata.get("wall_time_s", 0.0) or 0.0)
        with self._lock:
            throughput = self._throughput
            throughput["batches"] += 1
            throughput["trials"] += len(leader_results)
            throughput["batch_wall_s"] += batch_wall
            throughput["simulated_events"] += events
            throughput["sim_wall_s"] += sim_wall

    def throughput_stats(self) -> Dict[str, object]:
        """Aggregate backend / throughput statistics for `predict_many`."""
        with self._lock:
            throughput = dict(self._throughput)
        batch_wall = throughput["batch_wall_s"]
        sim_wall = throughput["sim_wall_s"]
        throughput["backend"] = self.backend
        throughput["workers"] = self.max_workers
        throughput["trials_per_sec"] = (
            throughput["trials"] / batch_wall if batch_wall > 0.0 else 0.0)
        throughput["events_per_sec"] = (
            throughput["simulated_events"] / sim_wall if sim_wall > 0.0
            else 0.0)
        return throughput
