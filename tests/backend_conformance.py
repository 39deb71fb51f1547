"""Cross-backend conformance harness.

Every evaluation backend (``serial`` / ``persistent``) must be a
drop-in replacement for the serial reference: identical :class:`~repro.core.pipeline.PredictionResult` values,
identical cache-hit accounting, and the same ``throughput_stats()`` shape
-- only wall-clock behaviour may differ.  This module is the single place
that byte-equivalence contract is written down;
``tests/test_backend_conformance.py`` parametrizes it over every backend
and ``tests/test_service.py`` reuses it for the backend-specific
regression tests.

``REPRO_CONFORMANCE_BACKENDS`` (comma-separated) restricts which backends
the parametrized tests cover -- CI uses it to run a dedicated
``persistent``-only leg.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.pipeline import PredictionResult
from repro.framework.recipe import TrainingRecipe
from repro.service import BACKEND_NAMES, PredictionService
from repro.workloads.job import TransformerTrainingJob

#: Result fields that must be bit-identical across backends.  Stage times
#: are deliberately absent: they are wall-clock measurements.
RESULT_FIELDS = ("iteration_time", "total_time", "communication_time",
                 "peak_memory_bytes", "oom")

#: Keys every backend's ``throughput_stats()`` must expose.
THROUGHPUT_KEYS = ("backend", "workers", "batches", "trials", "batch_wall_s",
                   "simulated_events", "sim_wall_s", "trials_per_sec",
                   "events_per_sec")

#: Keys every backend's ``cache_stats()`` must expose -- including the
#: artifact-tier split (``memory_hits`` / ``store_hits``), which must sum
#: to ``artifact_hits`` whether or not a disk store is attached.
CACHE_STAT_KEYS = ("artifact_hits", "artifact_misses", "prediction_hits",
                   "prediction_misses", "memory_hits", "store_hits",
                   "hits", "lookups", "hit_rate")


def conformance_backends() -> Sequence[str]:
    """Backends the parametrized conformance tests cover.

    All registered backends by default; ``REPRO_CONFORMANCE_BACKENDS``
    narrows the set (unknown names are rejected so a typo cannot silently
    skip the suite) -- CI's ``conformance-persistent`` and ``chaos`` jobs
    run a single-backend leg this way.
    """
    selected = os.environ.get("REPRO_CONFORMANCE_BACKENDS")
    if not selected:
        return BACKEND_NAMES
    names = tuple(name.strip() for name in selected.split(",") if name.strip())
    unknown = [name for name in names if name not in BACKEND_NAMES]
    if unknown:
        raise ValueError(f"REPRO_CONFORMANCE_BACKENDS names unknown "
                         f"backends {unknown}; expected {BACKEND_NAMES}")
    return names


def default_batches() -> List[List[TrainingRecipe]]:
    """Two-batch conformance workload exercising every cache level.

    Batch 1 is four cold configurations; batch 2 mixes structural siblings
    (artifact-level hits -- shipped as cache deltas under ``persistent``),
    an exact re-proposal (prediction-level hit, resolved on the parent) and
    one fresh configuration.
    """
    base = [
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=1, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=1,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=1, pipeline_parallel=1,
                       microbatch_multiplier=1, dtype="float16"),
    ]
    followup = [
        base[0].replace(compiled=True),   # artifact hit (structural sibling)
        base[1].replace(compiled=True),   # artifact hit (structural sibling)
        base[2],                          # prediction hit (exact re-proposal)
        TrainingRecipe(tensor_parallel=4, pipeline_parallel=1,
                       microbatch_multiplier=2, dtype="float16"),  # cold
    ]
    return [base, followup]


def make_jobs(model, cluster, recipes: Sequence[TrainingRecipe],
              global_batch_size: int = 16) -> List[TransformerTrainingJob]:
    return [TransformerTrainingJob(model, recipe, cluster,
                                   global_batch_size=global_batch_size)
            for recipe in recipes]


@dataclass
class ConformanceRun:
    """Everything one backend produced for the conformance workload."""

    backend: str
    results: List[List[PredictionResult]]
    cache_stats: Dict[str, float]
    throughput: Dict[str, object]
    sync_stats: Dict[str, int] = field(default_factory=dict)
    #: Fault-handling counters (worker deaths, lease expirations,
    #: re-dispatches, ...) from the pooled backends; empty elsewhere.
    #: The chaos suite asserts against these.
    resilience_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def flat_results(self) -> List[PredictionResult]:
        return [result for batch in self.results for result in batch]


def run_conformance(model, cluster, backend: str, workers: int = 2,
                    batches: Optional[Sequence[Sequence[TrainingRecipe]]] = None,
                    service: Optional[PredictionService] = None,
                    ) -> ConformanceRun:
    """Run the conformance workload through one backend and close it."""
    if batches is None:
        batches = default_batches()
    if service is None:
        service = PredictionService(cluster=cluster,
                                    estimator_mode="analytical",
                                    backend=backend, max_workers=workers)
    with service:
        results = [service.predict_many(make_jobs(model, cluster, recipes))
                   for recipes in batches]
        sync_stats = dict(getattr(service.backend_impl, "sync_stats", {}))
        resilience_stats = dict(getattr(service.backend_impl,
                                        "resilience_stats", {}))
        return ConformanceRun(backend=backend, results=results,
                              cache_stats=service.cache_stats(),
                              throughput=service.throughput_stats(),
                              sync_stats=sync_stats,
                              resilience_stats=resilience_stats)


def result_fingerprint(result: PredictionResult) -> Dict[str, object]:
    """The byte-identity surface of one prediction."""
    fingerprint = {name: getattr(result, name) for name in RESULT_FIELDS}
    fingerprint["service_cache"] = result.metadata.get("service_cache")
    if result.report is not None:
        fingerprint["report_total_time"] = result.report.total_time
        fingerprint["report_iteration_time"] = result.report.iteration_time
        fingerprint["report_communication_time"] = \
            result.report.communication_time
    else:
        fingerprint["report_total_time"] = None
        fingerprint["report_iteration_time"] = None
        fingerprint["report_communication_time"] = None
    return fingerprint


def assert_results_identical(reference: Sequence[PredictionResult],
                             candidate: Sequence[PredictionResult],
                             backend: str = "?") -> None:
    """Bit-for-bit equality of every prediction against the reference."""
    assert len(candidate) == len(reference), \
        f"backend {backend}: {len(candidate)} results vs " \
        f"{len(reference)} reference results"
    for position, (expected, actual) in enumerate(zip(reference, candidate)):
        expected_fp = result_fingerprint(expected)
        actual_fp = result_fingerprint(actual)
        assert actual_fp == expected_fp, \
            f"backend {backend} diverged on result {position}: " \
            f"{actual_fp} != {expected_fp}"


def assert_accounting_matches(reference: ConformanceRun,
                              candidate: ConformanceRun) -> None:
    """Cache-hit accounting must replay exactly as a serial run records it."""
    assert candidate.cache_stats == reference.cache_stats, \
        f"backend {candidate.backend} cache accounting " \
        f"{candidate.cache_stats} != serial {reference.cache_stats}"


def assert_cache_stats_shape(run: ConformanceRun) -> None:
    """``cache_stats()`` exposes the tier-labelled accounting everywhere."""
    for key in CACHE_STAT_KEYS:
        assert key in run.cache_stats, \
            f"backend {run.backend} cache_stats missing {key!r}"
    assert (run.cache_stats["memory_hits"] + run.cache_stats["store_hits"]
            == run.cache_stats["artifact_hits"]), \
        f"backend {run.backend}: tier hits do not sum to artifact_hits " \
        f"({run.cache_stats})"


def assert_throughput_shape(run: ConformanceRun, trials: int) -> None:
    """``throughput_stats()`` exposes the same keys and counters everywhere."""
    for key in THROUGHPUT_KEYS:
        assert key in run.throughput, \
            f"backend {run.backend} throughput_stats missing {key!r}"
    assert run.throughput["backend"] == run.backend
    assert run.throughput["trials"] == trials
    assert run.throughput["batches"] == len(run.results)
    assert run.throughput["batch_wall_s"] > 0.0
    assert run.throughput["simulated_events"] > 0


def assert_placements_cover_dispatch(run: ConformanceRun) -> None:
    """Pooled backends place every dispatched job exactly once.

    Prediction-level hits resolve on the parent and never reach
    placement; everything else in the conformance workload is dispatched
    (it has no structural siblings within a batch).
    """
    if not run.sync_stats:
        return  # serial: no pool to place onto
    dispatched = sum(1 for result in run.flat_results
                     if result.metadata.get("service_cache") != "prediction")
    assert run.sync_stats["placements"] == dispatched, \
        f"backend {run.backend}: {run.sync_stats['placements']} " \
        f"placements for {dispatched} dispatched jobs ({run.sync_stats})"


def assert_conformant(reference: ConformanceRun,
                      candidate: ConformanceRun) -> None:
    """Full conformance: results, accounting and throughput shape."""
    assert_results_identical(reference.flat_results, candidate.flat_results,
                             backend=candidate.backend)
    assert_accounting_matches(reference, candidate)
    assert_cache_stats_shape(candidate)
    assert_throughput_shape(candidate, trials=len(reference.flat_results))
