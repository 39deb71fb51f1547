"""End-to-end Maya pipeline.

Glues the four stages of Figure 5 together:

1. **Emulation** -- run the unmodified training job against per-rank virtual
   devices, capturing worker traces (with selective launch of unique ranks,
   Section 7.4).
2. **Collation** -- deduplicate workers and match collectives.
3. **Runtime estimation** -- annotate operations using the estimator suite.
4. **Simulation** -- replay through the discrete-event cluster simulator.

The per-stage wall-clock times are recorded because they are themselves an
evaluation target (Figure 13 / Table 6).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.collator import CollatedTrace, TraceCollator
from repro.core.columnar import kernel_shapes
from repro.core.emulator import EmulationSession
from repro.core.estimators.suite import EstimatorSuite, build_estimator_suite
from repro.core.simulator.engine import (
    ClusterSimulator,
    SimulationConfig,
    SimulationError,
)
from repro.core.simulator.providers import (
    DurationProvider,
    EstimatedDurationProvider,
)
from repro.core.simulator.report import SimulationReport
from repro.core.trace import JobTrace
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:  # pragma: no cover - import used for type checking only
    from repro.workloads.job import TrainingJob


@dataclass
class EmulationArtifacts:
    """Everything produced by the emulation + collation stages for one job."""

    job: TrainingJob
    cluster: ClusterSpec
    job_trace: JobTrace
    collated: CollatedTrace
    oom: bool
    stage_times: Dict[str, float] = field(default_factory=dict)


@dataclass
class PredictionResult:
    """Outcome of a Maya prediction (or a testbed measurement)."""

    job_name: str
    iteration_time: float
    total_time: float
    communication_time: float
    peak_memory_bytes: int
    oom: bool
    stage_times: Dict[str, float] = field(default_factory=dict)
    report: Optional[SimulationReport] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return not self.oom and math.isfinite(self.iteration_time)

    @property
    def peak_memory_gb(self) -> float:
        return self.peak_memory_bytes / (1024 ** 3)


def _iteration_time_from_report(report: SimulationReport,
                                iterations: int) -> float:
    """Iteration time measured between the iteration markers when present."""
    start_markers = report.markers.get("iteration-0-start")
    end_markers = report.markers.get(f"iteration-{iterations - 1}-end")
    if start_markers and end_markers:
        start = max(start_markers.values())
        end = max(end_markers.values())
        if end > start:
            return (end - start) / iterations
    return report.total_time / max(iterations, 1)


def _no_prediction(job: "TrainingJob", stage_times: Dict[str, float],
                   peak_memory_bytes: int, oom: bool = False,
                   **metadata: object) -> PredictionResult:
    """A trial that yields no iteration time; ``metadata`` says why."""
    return PredictionResult(
        job_name=job.name, iteration_time=math.inf, total_time=math.inf,
        communication_time=0.0, peak_memory_bytes=peak_memory_bytes,
        oom=oom, stage_times=stage_times, metadata=metadata)


def _emulation_errors(artifacts: EmulationArtifacts) -> str:
    """The errors of the ranks that failed during emulation, or ``""``:
    such a rank leaves a truncated trace that must not be replayed."""
    failed = artifacts.job_trace.metadata.get("failed_ranks") or {}
    return "; ".join(f"rank {rank}: {message}"
                     for rank, message in sorted(failed.items()))


def simulation_ranks(job: TrainingJob,
                     reduce_replicas: bool = True) -> Optional[List[int]]:
    """Ranks of data-parallel replica 0, which stand in for the others.

    Every replica runs the same program, so simulating one suffices; the
    engine further mirrors its tensor-parallel peers instead of replaying
    them (:func:`repro.core.simulator.engine.tensor_parallel_mirrors`).
    ``None`` -- the full world -- when not reducing or for a job without
    a parallel topology.
    """
    if not reduce_replicas or not hasattr(job, "topology"):
        return None
    topology = job.topology()
    return [topology.rank_of(0, pp, tp)
            for pp in range(topology.pipeline_parallel)
            for tp in range(topology.tensor_parallel)]


def simulate_collated_trace(
    collated: CollatedTrace,
    cluster: ClusterSpec,
    provider: DurationProvider,
    simulate_ranks: Optional[Sequence[int]] = None,
    sm_contention_factor: float = 1.0,
    iterations: int = 1,
) -> SimulationReport:
    """Shared simulation entry point used by Maya and the testbed."""
    config = SimulationConfig(
        simulate_ranks=simulate_ranks,
        sm_contention_factor=sm_contention_factor,
    )
    simulator = ClusterSimulator(cluster, provider, config)
    return simulator.simulate(collated, iterations=iterations)


class MayaPipeline:
    """Maya's prediction pipeline for one target cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        estimator_mode: str = "learned",
        estimator_suite: Optional[EstimatorSuite] = None,
        deduplicate_workers: bool = True,
        selective_launch: bool = True,
        reduce_replicas: bool = True,
        iterations: int = 1,
    ) -> None:
        self.cluster = cluster
        self.estimator_mode = estimator_mode
        self._suite = estimator_suite
        self.deduplicate_workers = deduplicate_workers
        self.selective_launch = selective_launch
        self.reduce_replicas = reduce_replicas
        self.iterations = iterations

    # ------------------------------------------------------------------
    # estimator suite
    # ------------------------------------------------------------------
    @property
    def suite(self) -> EstimatorSuite:
        if self._suite is None:
            self._suite = build_estimator_suite(self.cluster,
                                                mode=self.estimator_mode)
        return self._suite

    def make_provider(self) -> EstimatedDurationProvider:
        """Fresh duration provider over this pipeline's estimator suite.

        The prediction service keeps one of these per cluster so the
        per-shape kernel memo persists across trials instead of being
        re-warmed inside every :meth:`predict` call.
        """
        return EstimatedDurationProvider(self.suite, self.cluster)

    # ------------------------------------------------------------------
    # cache fingerprints
    # ------------------------------------------------------------------
    def collation_fingerprint(self) -> Tuple:
        """Identity of everything (besides the job) that shapes artifacts."""
        return (
            self.cluster.name,
            self.cluster.world_size,
            self.cluster.gpu.name,
            self.cluster.gpu.memory_gb,
            self.cluster.gpus_per_node,
            self.deduplicate_workers,
            self.selective_launch,
        )

    def estimator_fingerprint(self) -> Tuple:
        """Identity of the estimation + simulation configuration."""
        suite_name = (self._suite.name if self._suite is not None
                      else self.estimator_mode)
        return (suite_name, self.reduce_replicas, self.iterations)

    # ------------------------------------------------------------------
    # stage 1 + 2: emulation and collation
    # ------------------------------------------------------------------
    def emulate(self, job: TrainingJob) -> EmulationArtifacts:
        """Run transparent emulation (and collation) for ``job``."""
        stage_times: Dict[str, float] = {}
        session = EmulationSession(self.cluster)

        ranks = None
        if self.selective_launch:
            try:
                ranks = job.unique_ranks()
            except Exception:
                ranks = None

        start = time.perf_counter()
        emulation = session.run(job.worker_fn, ranks=ranks,
                                world_size=job.world_size)
        stage_times["emulation"] = time.perf_counter() - start
        if emulation.failed_ranks:
            # A failed rank leaves a truncated trace: keep the errors with
            # the artifacts so predict() (and every cache hit) reports them.
            emulation.job_trace.metadata["failed_ranks"] = dict(
                emulation.failed_ranks)

        start = time.perf_counter()
        collator = TraceCollator(deduplicate=self.deduplicate_workers)
        topology = job.topology() if hasattr(job, "topology") else None
        collated = collator.collate(emulation.job_trace, topology=topology)
        stage_times["collation"] = time.perf_counter() - start

        return EmulationArtifacts(
            job=job,
            cluster=self.cluster,
            job_trace=emulation.job_trace,
            collated=collated,
            oom=emulation.oom,
            stage_times=stage_times,
        )

    # ------------------------------------------------------------------
    # stage 3 + 4: estimation and simulation
    # ------------------------------------------------------------------
    def predict(self, job: TrainingJob,
                artifacts: Optional[EmulationArtifacts] = None,
                provider: Optional[EstimatedDurationProvider] = None
                ) -> PredictionResult:
        """Predict the runtime of ``job`` on this pipeline's cluster.

        ``artifacts`` may come from a previous :meth:`emulate` of a
        structurally identical job (the service layer's artifact cache);
        ``provider`` may be a shared duration provider whose kernel memo
        persists across trials.
        """
        problems = job.validate()
        if problems:
            return _no_prediction(job, {}, 0, invalid=problems)
        if artifacts is None:
            artifacts = self.emulate(job)
        stage_times = dict(artifacts.stage_times)
        peak = artifacts.collated.peak_memory_bytes()

        if artifacts.oom:
            return _no_prediction(job, stage_times, peak, oom=True,
                                  reason="out of memory during emulation")
        errors = _emulation_errors(artifacts)
        if errors:
            return _no_prediction(job, stage_times, peak,
                                  emulation_error=errors)

        start = time.perf_counter()
        if provider is None:
            # may train estimators on first use (cached per cluster)
            provider = self.make_provider()
        # Warm the per-shape caches so the "prediction" stage time reflects
        # estimator work rather than lazily leaking into simulation: one
        # query per distinct kernel shape.  With a shared provider the memo
        # survives across trials and this loop degenerates to lookups.
        for trace in artifacts.collated.traces.values():
            for shape in kernel_shapes(trace.columns)[2]:
                provider.shape_duration(*shape)
        stage_times["prediction"] = time.perf_counter() - start

        simulate_ranks = simulation_ranks(job, self.reduce_replicas)
        start = time.perf_counter()
        try:
            report = simulate_collated_trace(
                artifacts.collated, self.cluster, provider,
                simulate_ranks=simulate_ranks,
                iterations=job.iterations if hasattr(job, "iterations") else 1,
            )
        except SimulationError as exc:
            # Surface unschedulable traces (e.g. exotic pipeline schedules the
            # simplified schedule generator mis-orders) as failed trials
            # rather than crashing a whole sweep or search.
            stage_times["simulation"] = time.perf_counter() - start
            return _no_prediction(job, stage_times, peak,
                                  simulation_error=str(exc))
        stage_times["simulation"] = time.perf_counter() - start

        iterations = getattr(job, "iterations", 1)
        return PredictionResult(
            job_name=job.name,
            iteration_time=_iteration_time_from_report(report, iterations),
            total_time=report.total_time,
            communication_time=report.communication_time,
            peak_memory_bytes=report.peak_memory_bytes,
            oom=False,
            stage_times=stage_times,
            report=report,
            metadata={
                "estimator": self.suite.name,
                "simulated_ranks": report.metadata.get("simulated_ranks"),
                "unique_workers": artifacts.collated.unique_trace_count(),
            },
        )
