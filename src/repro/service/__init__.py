"""Prediction-service layer.

The service sits between Maya-Search (and the benchmark/CLI drivers) and the
:class:`~repro.core.pipeline.MayaPipeline` and owns the cross-trial
optimizations the paper's search loop relies on (Sections 5, 7.3-7.4):

* a content-addressed :class:`ArtifactCache` keyed by *structural
  signatures*, so trials that differ only in non-structural knobs (or are
  re-proposed outright) reuse emulation + collation artifacts; beneath
  it, an optional disk-backed :class:`ArtifactStore` cold tier
  (:mod:`repro.service.store`) shares that corpus across processes and
  runs,
* batched :meth:`PredictionService.predict_many` evaluation behind a
  pluggable backend (:mod:`repro.service.backends`): ``serial`` (the
  default) or a long-lived fork-based ``persistent`` pool that sidesteps
  the GIL while inheriting warmed estimator state copy-on-write and is
  kept in sync by incremental cache deltas (both share one
  ``warm``/``submit``/``drain``/``close`` lifecycle),
* a long-lived prediction server (:mod:`repro.service.server`, ``repro
  serve``) that multiplexes many clients over one warm service through
  the length-prefixed wire format in :mod:`repro.service.wire`, and
* a per-cluster shared :class:`~repro.core.simulator.providers.EstimatedDurationProvider`
  whose kernel-duration memo persists across trials.
"""

from repro.service.backends import (
    BACKEND_NAMES,
    BackendWorkerError,
    EvaluationBackend,
    PersistentBackend,
    SerialBackend,
    get_backend,
    validate_timeout,
)
from repro.service.cache import ArtifactCache, CacheStats
from repro.service.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    install_fault_plan,
)
from repro.service.predictor import PredictionService
from repro.service.scheduling import (
    JobSpec,
    SchedulerPolicy,
    WorkerSnapshot,
    get_scheduler,
)
from repro.service.server import (
    PredictionClient,
    PredictionServer,
    ServerBusyError,
)
from repro.service.store import (
    ArtifactStore,
    StoreError,
    StoreFormatError,
)
from repro.service.wire import PROTOCOL, WireProtocolError

__all__ = [
    "ArtifactCache",
    "ArtifactStore",
    "BACKEND_NAMES",
    "BackendWorkerError",
    "CacheStats",
    "EvaluationBackend",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "JobSpec",
    "PersistentBackend",
    "PredictionClient",
    "PredictionServer",
    "PredictionService",
    "PROTOCOL",
    "SchedulerPolicy",
    "SerialBackend",
    "ServerBusyError",
    "StoreError",
    "StoreFormatError",
    "WireProtocolError",
    "WorkerSnapshot",
    "get_backend",
    "get_scheduler",
    "install_fault_plan",
    "validate_timeout",
]
