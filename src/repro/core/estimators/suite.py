"""Estimator suites: the bundle of per-kernel-class and collective estimators
Maya uses to annotate a collated trace.

The default ("learned") suite reproduces the paper's setup: one random-forest
regressor per kernel class, trained on profiled sweeps, plus a collective
estimator fitted to nccl-tests-style measurements.  Alternative suites --
oracle (true runtimes, Table 3) and purely analytical -- plug into the same
interface, demonstrating the pluggability the paper emphasises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.estimators.analytical import AnalyticalKernelEstimator
from repro.core.estimators.collective import (
    HierarchicalNetworkModel,
    ProfiledCollectiveEstimator,
)
from repro.core.estimators.features import feature_matrix, kernel_features
from repro.core.estimators.oracle import (
    OracleCollectiveEstimator,
    OracleKernelEstimator,
)
from repro.core.estimators.profiler import (
    CollectiveProfiler,
    KernelProfiler,
    ProfiledKernelDataset,
)
from repro.core.estimators.regression import (
    RandomForestRegressor,
    mean_absolute_percentage_error,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.kernel_cost import CollectiveCostModel, KernelCostModel


class LearnedKernelEstimator:
    """Random-forest estimator for a single kernel class.

    The forest regresses the *residual* between the measured runtime and a
    roofline prior (in log space).  The prior captures the first-order
    dependence on problem size; the forest only has to learn the device's
    efficiency structure, which keeps per-shape errors small even with a few
    hundred profiled samples per kernel class.
    """

    def __init__(self, kernel_class: str, forest: RandomForestRegressor,
                 prior: AnalyticalKernelEstimator) -> None:
        self.kernel_class = kernel_class
        self.forest = forest
        self.prior = prior

    @staticmethod
    def train(dataset: ProfiledKernelDataset, prior: AnalyticalKernelEstimator,
              n_trees: int = 8, max_depth: int = 12,
              seed: int = 0) -> "LearnedKernelEstimator":
        features = feature_matrix(dataset.params)
        prior_times = np.array([
            prior.estimate(dataset.kernel_class, params)
            for params in dataset.params
        ])
        targets = (np.log(np.maximum(dataset.runtimes, 1e-9))
                   - np.log(np.maximum(prior_times, 1e-9)))
        forest = RandomForestRegressor(n_trees=n_trees, max_depth=max_depth,
                                       seed=seed)
        forest.fit(features, targets)
        return LearnedKernelEstimator(dataset.kernel_class, forest, prior)

    def estimate(self, kernel_class: str, params: Mapping[str, object]) -> float:
        features = kernel_features(params).reshape(1, -1)
        prior_time = self.prior.estimate(kernel_class, params)
        residual = float(self.forest.predict(features)[0])
        return float(np.exp(np.log(max(prior_time, 1e-9)) + residual))

    def validation_mape(self, dataset: ProfiledKernelDataset) -> float:
        """MAPE on a held-out dataset (the Table 7-9 metric)."""
        if len(dataset) == 0:
            return 0.0
        prior_times = np.array([
            self.prior.estimate(dataset.kernel_class, params)
            for params in dataset.params
        ])
        # One forest pass prices every row as estimate() would alone:
        # forest predictions do not depend on the batch.
        residuals = self.forest.predict(feature_matrix(dataset.params))
        predicted = np.exp(np.log(np.maximum(prior_times, 1e-9)) + residuals)
        return mean_absolute_percentage_error(dataset.runtimes, predicted)


@dataclass
class EstimatorSuite:
    """Bundle of estimators used by the annotation stage of the pipeline."""

    name: str
    kernel_estimators: Dict[str, object] = field(default_factory=dict)
    fallback_kernel_estimator: Optional[object] = None
    collective_estimator: Optional[object] = None
    #: Held-out MAPE per kernel class (populated for learned suites).
    validation_mape: Dict[str, float] = field(default_factory=dict)

    def estimate_kernel(self, kernel_class: str,
                        params: Mapping[str, object]) -> float:
        estimator = self.kernel_estimators.get(kernel_class,
                                               self.fallback_kernel_estimator)
        if estimator is None:
            raise RuntimeError(
                f"no estimator available for kernel class '{kernel_class}'"
            )
        return max(float(estimator.estimate(kernel_class, params)), 1e-7)

    def estimate_collective(self, op: str, nbytes: float,
                            ranks: Sequence[int], gpus_per_node: int) -> float:
        if self.collective_estimator is None:
            raise RuntimeError("suite has no collective estimator")
        return max(float(self.collective_estimator.estimate_collective(
            op, nbytes, ranks, gpus_per_node)), 1e-7)


#: Cache of trained suites keyed by (cluster gpu, mode, samples, seed).
_SUITE_CACHE: Dict[tuple, EstimatorSuite] = {}


def build_estimator_suite(
    cluster: ClusterSpec,
    mode: str = "learned",
    samples_per_class: int = 224,
    seed: int = 0,
    kernel_cost_model: Optional[KernelCostModel] = None,
    collective_cost_model: Optional[CollectiveCostModel] = None,
    use_cache: bool = True,
) -> EstimatorSuite:
    """Build (and cache) an estimator suite for ``cluster``.

    Modes
    -----
    ``"learned"``
        Profile the testbed and train random-forest regressors (the paper's
        default configuration).
    ``"oracle"``
        Use ground-truth expected runtimes (Table 3's oracle rows).
    ``"analytical"``
        Roofline kernel estimates + hierarchical network model; no profiling
        required (the configuration used for hyperscale what-if studies).
    """
    key = (cluster.gpu.name, cluster.interconnect.intra_node.name,
           cluster.interconnect.inter_node.name, cluster.gpus_per_node,
           mode, samples_per_class, seed)
    if use_cache and key in _SUITE_CACHE:
        return _SUITE_CACHE[key]

    kernel_cost_model = kernel_cost_model or KernelCostModel()
    collective_cost_model = collective_cost_model or CollectiveCostModel()

    if mode == "oracle":
        suite = EstimatorSuite(
            name="oracle",
            fallback_kernel_estimator=OracleKernelEstimator(
                cluster.gpu, kernel_cost_model),
            collective_estimator=OracleCollectiveEstimator(
                cluster.interconnect, collective_cost_model),
        )
    elif mode == "analytical":
        suite = EstimatorSuite(
            name="analytical",
            fallback_kernel_estimator=AnalyticalKernelEstimator(cluster.gpu),
            collective_estimator=HierarchicalNetworkModel(cluster.interconnect),
        )
    elif mode == "learned":
        suite = _train_learned_suite(cluster, samples_per_class, seed,
                                     kernel_cost_model, collective_cost_model)
    else:
        raise ValueError(f"unknown estimator suite mode '{mode}'")

    if use_cache:
        _SUITE_CACHE[key] = suite
    return suite


def _train_learned_suite(
    cluster: ClusterSpec,
    samples_per_class: int,
    seed: int,
    kernel_cost_model: KernelCostModel,
    collective_cost_model: CollectiveCostModel,
) -> EstimatorSuite:
    profiler = KernelProfiler(cluster.gpu, cost_model=kernel_cost_model,
                              seed=seed)
    datasets = profiler.profile_default_classes(
        samples_per_class=samples_per_class)

    prior = AnalyticalKernelEstimator(cluster.gpu)
    kernel_estimators: Dict[str, object] = {}
    validation: Dict[str, float] = {}
    for kernel_class, dataset in datasets.items():
        train, test = dataset.train_test_split(seed=seed)
        estimator = LearnedKernelEstimator.train(train, prior, seed=seed)
        kernel_estimators[kernel_class] = estimator
        validation[kernel_class] = estimator.validation_mape(test)

    collective_profiler = CollectiveProfiler(
        cluster.interconnect, cluster.gpus_per_node,
        cost_model=collective_cost_model, seed=seed)
    rank_counts = sorted({2, 4, cluster.gpus_per_node,
                          min(cluster.world_size, 2 * cluster.gpus_per_node),
                          cluster.world_size})
    rank_counts = [count for count in rank_counts if count >= 2]
    collective_estimator = ProfiledCollectiveEstimator(cluster.gpus_per_node)
    collective_estimator.fit(collective_profiler.profile(rank_counts=rank_counts))

    return EstimatorSuite(
        name="learned",
        kernel_estimators=kernel_estimators,
        fallback_kernel_estimator=AnalyticalKernelEstimator(cluster.gpu),
        collective_estimator=collective_estimator,
        validation_mape=validation,
    )
