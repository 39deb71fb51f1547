"""Reference ("actual") measurements of training jobs.

:class:`Testbed` exposes the same interface as
:class:`~repro.core.pipeline.MayaPipeline` but plays the role of the
physical cluster: its numbers are what Maya's predictions are compared
against in every accuracy figure and what configuration-selection costs are
evaluated on (Figures 7-10, Table 3).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.pipeline import (
    EmulationArtifacts,
    MayaPipeline,
    PredictionResult,
    _emulation_errors,
    _iteration_time_from_report,
    _no_prediction,
    simulate_collated_trace,
    simulation_ranks,
)
from repro.core.simulator.engine import SimulationError
from repro.core.simulator.providers import GroundTruthDurationProvider
from repro.hardware.cluster import ClusterSpec
from repro.hardware.kernel_cost import CollectiveCostModel, KernelCostModel
from repro.workloads.job import TrainingJob


class Testbed:
    """Produces ground-truth iteration times for training jobs."""

    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        cluster: ClusterSpec,
        kernel_cost_model: Optional[KernelCostModel] = None,
        collective_cost_model: Optional[CollectiveCostModel] = None,
        sm_contention_factor: float = 1.045,
        reduce_replicas: bool = True,
    ) -> None:
        self.cluster = cluster
        self.kernel_cost_model = kernel_cost_model or KernelCostModel()
        self.collective_cost_model = collective_cost_model or CollectiveCostModel()
        self.sm_contention_factor = sm_contention_factor
        self.reduce_replicas = reduce_replicas

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def measure(self, job: TrainingJob,
                artifacts: Optional[EmulationArtifacts] = None
                ) -> PredictionResult:
        """Return the "actual" runtime of ``job`` on this cluster.

        Without ``artifacts``, ``job`` is emulated the way
        :meth:`MayaPipeline.emulate` does it, so a rank that fails during
        emulation is reported (``emulation_error``), not measured.
        """
        problems = job.validate()
        if problems:
            return _no_prediction(job, {}, 0, invalid=problems)
        if artifacts is None:
            artifacts = MayaPipeline(self.cluster).emulate(job)
        stage_times = dict(artifacts.stage_times)
        peak = artifacts.collated.peak_memory_bytes()

        if artifacts.oom:
            return _no_prediction(job, stage_times, peak, oom=True,
                                  reason="out of memory on device")
        errors = _emulation_errors(artifacts)
        if errors:
            return _no_prediction(job, stage_times, peak,
                                  emulation_error=errors)

        provider = GroundTruthDurationProvider(
            self.cluster,
            kernel_cost_model=self.kernel_cost_model,
            collective_cost_model=self.collective_cost_model,
        )
        iterations = getattr(job, "iterations", 1)
        start = time.perf_counter()
        try:
            report = simulate_collated_trace(
                artifacts.collated, self.cluster, provider,
                simulate_ranks=simulation_ranks(job, self.reduce_replicas),
                sm_contention_factor=self.sm_contention_factor,
                iterations=iterations,
            )
        except SimulationError as exc:
            stage_times["testbed_simulation"] = time.perf_counter() - start
            return _no_prediction(job, stage_times, peak,
                                  simulation_error=str(exc))
        stage_times["testbed_simulation"] = time.perf_counter() - start

        return PredictionResult(
            job_name=job.name,
            iteration_time=_iteration_time_from_report(report, iterations),
            total_time=report.total_time,
            communication_time=report.communication_time,
            peak_memory_bytes=report.peak_memory_bytes,
            oom=False,
            stage_times=stage_times,
            report=report,
            metadata={"source": "testbed"},
        )
