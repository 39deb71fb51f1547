"""Collective (network) runtime estimators.

Two estimators are provided, mirroring the choices the paper offers its
users (Section 4.3, "Network Model"):

* :class:`ProfiledCollectiveEstimator` -- fitted to nccl-tests-style sweeps
  collected by :class:`~repro.core.estimators.profiler.CollectiveProfiler`,
  interpolating within the profiled size range (Appendix B).
* :class:`HierarchicalNetworkModel` -- an analytical, topology-aware model
  standing in for external network simulators such as ASTRA-sim, used for
  the hyperscale experiments (Section 7.4) where no profiled data exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.estimators.profiler import ProfiledCollectiveSample
from repro.hardware.interconnect import InterconnectSpec
from repro.hardware.kernel_cost import CollectiveCostModel


def _algorithm_shape(op: str, nranks: int) -> Tuple[float, float]:
    """Ring-algorithm latency steps and bandwidth volume factor."""
    return CollectiveCostModel._algorithm_shape(op, nranks)


class ProfiledCollectiveEstimator:
    """Least-squares fit of latency/bandwidth terms to profiled collectives.

    For every (op, intra-node vs inter-node) bucket we fit

    ``time = c0 + c1 * steps(nranks) + c2 * volume_factor(op, nranks) * bytes``

    which recovers the launch overhead, per-hop latency and effective bus
    bandwidth from the profiled sweep -- the same structure nccl-tests
    reports as "bus bandwidth".
    """

    def __init__(self, gpus_per_node: int) -> None:
        self.gpus_per_node = gpus_per_node
        #: (op, intra_node) -> fitted coefficients [c0, c1, c2].
        self._coefficients: Dict[Tuple[str, bool], np.ndarray] = {}

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, samples: Sequence[ProfiledCollectiveSample]
            ) -> "ProfiledCollectiveEstimator":
        buckets: Dict[Tuple[str, bool], List[ProfiledCollectiveSample]] = {}
        for sample in samples:
            buckets.setdefault((sample.op, sample.intra_node), []).append(sample)
        for key, bucket in buckets.items():
            rows = []
            targets = []
            for sample in bucket:
                steps, factor = _algorithm_shape(sample.op, sample.nranks)
                rows.append([1.0, float(steps), factor * sample.nbytes])
                targets.append(sample.runtime)
            matrix = np.asarray(rows)
            target = np.asarray(targets)
            coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
            self._coefficients[key] = np.maximum(coeffs, 0.0)
        return self

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def estimate_collective(self, op: str, nbytes: float,
                            ranks: Sequence[int], gpus_per_node: int) -> float:
        nranks = max(len(ranks), 1)
        nodes = {rank // gpus_per_node for rank in ranks}
        intra = len(nodes) <= 1
        coeffs = self._coefficients.get((op, intra))
        if coeffs is None:
            # Fall back to the nearest bucket (other locality, then any op).
            coeffs = self._coefficients.get((op, not intra))
        if coeffs is None and self._coefficients:
            coeffs = next(iter(self._coefficients.values()))
        if coeffs is None:
            raise RuntimeError("collective estimator has not been fitted")
        steps, factor = _algorithm_shape(op, nranks)
        return float(coeffs[0] + coeffs[1] * steps + coeffs[2] * factor * nbytes)


@dataclass
class HierarchicalNetworkModel:
    """Analytical two-level (intra-node / inter-node) collective model.

    This is the pluggable "network simulator" backend used for clusters too
    large to profile (the 1K-16K GPU experiments integrate ASTRA-sim in the
    paper; here the hierarchical model plays that role).  Collectives that
    span nodes are decomposed into an intra-node phase at NVLink bandwidth
    and an inter-node phase bottlenecked by the scale-out fabric.
    """

    interconnect: InterconnectSpec
    launch_overhead: float = 12.0e-6

    def estimate_collective(self, op: str, nbytes: float,
                            ranks: Sequence[int], gpus_per_node: int) -> float:
        nranks = max(len(ranks), 1)
        if nranks <= 1:
            return self.launch_overhead
        nodes = {rank // gpus_per_node for rank in ranks}
        num_nodes = max(len(nodes), 1)
        intra_link = self.interconnect.intra_node
        inter_link = self.interconnect.inter_node
        efficiency = self.interconnect.collective_efficiency

        if num_nodes == 1:
            steps, factor = _algorithm_shape(op, nranks)
            wire = factor * nbytes / (intra_link.bandwidth * efficiency)
            return self.launch_overhead + steps * intra_link.latency + wire

        ranks_per_node = max(nranks // num_nodes, 1)
        # Phase 1: reduce-scatter (or gather) within each node over NVLink.
        intra_steps, intra_factor = _algorithm_shape("reduce_scatter",
                                                     ranks_per_node)
        intra_time = (intra_steps * intra_link.latency
                      + intra_factor * nbytes
                      / (intra_link.bandwidth * efficiency))
        # Phase 2: the collective across node leaders over the fabric, on the
        # 1/ranks_per_node shard each leader owns.
        inter_steps, inter_factor = _algorithm_shape(op, num_nodes)
        inter_time = (inter_steps * inter_link.latency
                      + inter_factor * (nbytes / ranks_per_node)
                      / (inter_link.bandwidth * efficiency))
        # Phase 3: redistribute within the node (skipped for one-shot ops).
        redistribute = 0.0
        if op in ("all_reduce", "all_gather", "all_to_all", "broadcast"):
            redistribute = intra_time
        return self.launch_overhead + intra_time + inter_time + redistribute
