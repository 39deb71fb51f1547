"""Shared experiment harness used by the benchmark suite.

Every figure/table benchmark needs the same ingredients: a set of candidate
training recipes for a (model, cluster, batch) triple, testbed ("actual")
measurements, Maya predictions and baseline predictions.  This module
factors that machinery out so each benchmark file only describes *what* it
reproduces and prints the paper-style rows.

Benchmark cost is controlled by two environment variables:

``REPRO_BENCH_CONFIGS``
    Maximum number of configurations evaluated per deployment setup
    (default 6; the paper uses the top-100 valid configurations).
``REPRO_BENCH_SCALE``
    Divisor applied to model depth for the very large models so that the
    full benchmark suite completes on a laptop-class CPU (default 4).
    Layer counts scale linearly in both the prediction and the reference
    model, so accuracy comparisons are unaffected.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import absolute_percentage_error, normalized_cost
from repro.baselines import all_baselines
from repro.core.pipeline import PredictionResult
from repro.framework.recipe import TrainingRecipe
from repro.framework.transformer import TransformerModelSpec
from repro.hardware.cluster import ClusterSpec
from repro.hardware.noise import stable_hash
from repro.search.space import ConfigurationSpace, default_search_space
from repro.service import ArtifactCache, PredictionService
from repro.testbed import Testbed
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer


def bench_config_budget(default: int = 6) -> int:
    """Number of configurations per setup, controlled by the environment."""
    return max(int(os.environ.get("REPRO_BENCH_CONFIGS", default)), 2)


def bench_scale(default: int = 4) -> int:
    """Model-depth divisor for the largest models."""
    return max(int(os.environ.get("REPRO_BENCH_SCALE", default)), 1)


def scaled_transformer(name: str, min_layers: int = 8) -> TransformerModelSpec:
    """Return a model preset, depth-scaled for benchmark tractability."""
    model = get_transformer(name)
    scale = bench_scale()
    if scale <= 1 or model.num_layers <= min_layers:
        return model
    layers = max(model.num_layers // scale, min_layers)
    return replace(model, name=f"{model.name}-x{scale}", num_layers=layers)


@dataclass
class ConfigEvaluation:
    """All systems' view of one training configuration."""

    recipe: TrainingRecipe
    actual: PredictionResult
    maya: PredictionResult
    baselines: Dict[str, float] = field(default_factory=dict)
    oracle: Optional[PredictionResult] = None

    @property
    def feasible(self) -> bool:
        return self.actual.succeeded

    @property
    def actual_time(self) -> float:
        return self.actual.iteration_time

    @property
    def maya_error(self) -> float:
        return absolute_percentage_error(self.actual.iteration_time,
                                         self.maya.iteration_time)

    def baseline_error(self, name: str) -> float:
        predicted = self.baselines.get(name, math.inf)
        return absolute_percentage_error(self.actual.iteration_time, predicted)


@dataclass
class SetupEvaluation:
    """Evaluations for one (model, cluster, global batch) deployment setup."""

    name: str
    model: TransformerModelSpec
    cluster: ClusterSpec
    global_batch_size: int
    evaluations: List[ConfigEvaluation] = field(default_factory=list)
    #: Artifact-cache counters from the prediction service that evaluated
    #: this setup (testbed + Maya + oracle share emulation artifacts).
    cache_stats: Dict[str, float] = field(default_factory=dict)

    def feasible(self) -> List[ConfigEvaluation]:
        return [ev for ev in self.evaluations if ev.feasible]

    def optimal(self) -> Optional[ConfigEvaluation]:
        feasible = self.feasible()
        if not feasible:
            return None
        return min(feasible, key=lambda ev: ev.actual_time)

    def selection_cost(self, system: str) -> float:
        """Normalised actual cost of the config the given system selects."""
        optimal = self.optimal()
        if optimal is None:
            return math.inf
        feasible = self.feasible()
        if system == "maya":
            usable = [ev for ev in feasible
                      if math.isfinite(ev.maya.iteration_time)]
            if not usable:
                return math.inf
            chosen = min(usable, key=lambda ev: ev.maya.iteration_time)
        elif system == "optimal":
            chosen = optimal
        else:
            usable = [ev for ev in feasible
                      if math.isfinite(ev.baselines.get(system, math.inf))]
            if not usable:
                return math.inf
            chosen = min(usable, key=lambda ev: ev.baselines[system])
        return normalized_cost(chosen.actual_time, optimal.actual_time)

    def maya_errors(self) -> List[float]:
        return [ev.maya_error for ev in self.feasible()]

    def baseline_errors(self, name: str) -> List[float]:
        return [ev.baseline_error(name) for ev in self.feasible()
                if math.isfinite(ev.baselines.get(name, math.inf))]


def candidate_recipes(
    model: TransformerModelSpec,
    cluster: ClusterSpec,
    global_batch_size: int,
    limit: Optional[int] = None,
    space: Optional[ConfigurationSpace] = None,
    dtype: Optional[str] = None,
    seed: int = 0,
) -> List[TrainingRecipe]:
    """Enumerate valid recipes for a setup and subsample deterministically.

    The subsample is stratified by a stable hash so that repeated runs (and
    different systems) see the same configurations, mirroring the paper's
    fixed ~2000-point grid per cluster.
    """
    if dtype is None:
        dtype = "float16" if cluster.gpu.architecture == "volta" else "bfloat16"
    if space is None:
        space = default_search_space(dtype=dtype)
    valid = space.valid_recipes(cluster.world_size, global_batch_size,
                                model.num_layers, model.num_heads,
                                cluster.gpus_per_node)
    if limit is None or len(valid) <= limit:
        return valid
    ranked = sorted(valid, key=lambda recipe: stable_hash(seed, recipe.short_name()))
    return ranked[:limit]


def evaluate_setup(
    name: str,
    model: TransformerModelSpec,
    cluster: ClusterSpec,
    global_batch_size: int,
    recipes: Sequence[TrainingRecipe],
    estimator_mode: str = "learned",
    include_baselines: bool = True,
    include_oracle: bool = False,
    backend: str = "serial",
    jobs: Optional[int] = None,
    sync_timeout: Optional[float] = None,
    lease_timeout: Optional[float] = None,
    store_dir: Optional[str] = None,
) -> SetupEvaluation:
    """Measure (testbed) and predict (Maya + baselines) a set of recipes.

    All systems that replay emulation artifacts -- the testbed reference
    model, Maya's prediction and the optional oracle -- share one
    :class:`~repro.service.ArtifactCache`, so each configuration is emulated
    and collated exactly once (the cross-trial reuse of Section 7.4).

    ``backend`` / ``jobs`` select the service's batch-evaluation strategy:
    with more than one job, every configuration's emulation + Maya
    prediction runs as one ``predict_many`` batch up front (in separate
    processes under the ``persistent`` backend), and the sequential
    testbed/baseline loop below then replays the cached
    artifacts.  Services are closed on the way out, so persistent worker
    pools never outlive the call.
    """
    cache = ArtifactCache(max_entries=max(len(recipes) + 1, 8))
    service = PredictionService(cluster=cluster, estimator_mode=estimator_mode,
                                cache=cache, backend=backend,
                                max_workers=jobs or 1,
                                sync_timeout=sync_timeout,
                                lease_timeout=lease_timeout,
                                store_dir=store_dir)
    oracle_service = PredictionService(cluster=cluster, estimator_mode="oracle",
                                       cache=cache, backend=backend,
                                       max_workers=jobs or 1,
                                       sync_timeout=sync_timeout,
                                       lease_timeout=lease_timeout) \
        if include_oracle else None
    testbed = Testbed(cluster)
    baselines = all_baselines() if include_baselines else []
    setup = SetupEvaluation(name=name, model=model, cluster=cluster,
                            global_batch_size=global_batch_size)

    try:
        candidates = []
        for recipe in recipes:
            job = TransformerTrainingJob(model, recipe, cluster,
                                         global_batch_size=global_batch_size)
            if not job.validate():
                candidates.append((recipe, job))
        if (jobs or 1) > 1 and len(candidates) > 1:
            # Batch pre-evaluation: emulate + predict every configuration
            # through the configured backend; the loop below resolves from
            # the merged cache.
            service.predict_many([job for _, job in candidates])

        for recipe, job in candidates:
            artifacts = service.artifacts_for(job)
            actual = testbed.measure(job, artifacts)
            predicted = service.predict(job)
            evaluation = ConfigEvaluation(recipe=recipe, actual=actual,
                                          maya=predicted)
            if oracle_service is not None and not artifacts.oom:
                evaluation.oracle = oracle_service.predict(job)
            for baseline in baselines:
                prediction = baseline.predict(model, recipe, cluster,
                                              global_batch_size)
                if prediction.usable:
                    evaluation.baselines[baseline.name] = \
                        prediction.iteration_time
            setup.evaluations.append(evaluation)
        setup.cache_stats = service.cache_stats()
        return setup
    finally:
        # Persistent pools must not outlive the setup evaluation.
        service.close()
        if oracle_service is not None:
            oracle_service.close()
