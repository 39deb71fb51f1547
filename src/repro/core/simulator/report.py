"""Simulation reports.

The simulator's output mirrors the "Simulation Report" box of Figure 5:
total batch (iteration) time, communication time, peak memory usage, plus
per-rank busy-time breakdowns that the analysis module uses for MFU, cost
and bottleneck attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class RankReport:
    """Busy-time breakdown for a single simulated rank."""

    rank: int
    compute_time: float = 0.0
    communication_time: float = 0.0
    exposed_communication_time: float = 0.0
    host_time: float = 0.0
    memcpy_time: float = 0.0
    finish_time: float = 0.0
    kernel_count: int = 0
    collective_count: int = 0


@dataclass
class SimulationReport:
    """Job-level output of one simulation."""

    total_time: float
    iterations: int = 1
    rank_reports: Dict[int, RankReport] = field(default_factory=dict)
    peak_memory_bytes: int = 0
    oom: bool = False
    #: Marker label -> per-rank timestamps (iteration boundaries etc.).
    markers: Dict[str, Dict[int, float]] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def iteration_time(self) -> float:
        """Time of a single training iteration."""
        if self.iterations <= 1:
            return self.total_time
        return self.total_time / self.iterations

    @property
    def communication_time(self) -> float:
        """Largest per-rank communication busy time (the paper's metric)."""
        if not self.rank_reports:
            return 0.0
        return max(report.communication_time
                   for report in self.rank_reports.values())

    @property
    def compute_time(self) -> float:
        """Largest per-rank compute busy time."""
        if not self.rank_reports:
            return 0.0
        return max(report.compute_time for report in self.rank_reports.values())

    @property
    def peak_memory_gb(self) -> float:
        return self.peak_memory_bytes / (1024 ** 3)
