"""Maya-Search orchestration.

:class:`MayaSearch` drives a search algorithm over a configuration space,
evaluating trials through the prediction service (no GPUs required) in an
ask-batch / evaluate-batch / tell-batch loop: up to ``concurrency`` proposals
are collected, evaluated together (as one ``predict_many`` batch against the
cross-trial artifact cache when the evaluator is service-backed, fanned out
over a forked worker pool by the ``persistent`` backend), and their
scores reported back to the algorithm in ask order.  The fidelity-preserving
pruner and leaderboard-based early stopping work exactly as in Section 5 /
7.3 of the paper.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.metrics import mfu
from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.framework.transformer import TransformerModelSpec
from repro.hardware.cluster import ClusterSpec
from repro.search.algorithms import GridSearch, SearchAlgorithm, get_algorithm
from repro.search.pruning import FidelityPreservingPruner
from repro.search.scheduler import TrialScheduler, TrialStatus
from repro.search.space import ConfigurationSpace, default_search_space
from repro.service import PredictionService
from repro.workloads.job import TransformerTrainingJob


@dataclass
class TrialResult:
    """Evaluation outcome of one training recipe."""

    recipe: TrainingRecipe
    iteration_time: float
    mfu: float
    oom: bool
    peak_memory_bytes: int = 0
    wall_time: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)
    status: TrialStatus = TrialStatus.EXECUTED
    #: How the prediction service resolved this trial ("prediction",
    #: "artifacts", "miss", "disabled" or None for non-service evaluators).
    cache: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return not self.oom and math.isfinite(self.iteration_time)


class MayaTrialEvaluator:
    """Evaluates training recipes through the prediction service.

    A thin adapter over :class:`~repro.service.PredictionService`, which
    owns the artifact cache, the shared duration provider and the
    evaluation backend (``serial`` unless ``backend=`` names a pooled one).
    """

    def __init__(self, model: TransformerModelSpec, cluster: ClusterSpec,
                 global_batch_size: int,
                 pipeline: Optional[MayaPipeline] = None,
                 estimator_mode: str = "learned",
                 service: Optional[PredictionService] = None,
                 enable_cache: bool = True,
                 share_provider: bool = True,
                 max_workers: Optional[int] = None,
                 backend: Optional[str] = None,
                 sync_timeout: Optional[float] = None,
                 lease_timeout: Optional[float] = None,
                 store_dir: Optional[str] = None,
                 server: Optional[str] = None) -> None:
        self.model = model
        self.cluster = cluster
        self.global_batch_size = global_batch_size
        if service is None and server is not None:
            # Evaluate against a running `repro serve` endpoint instead of
            # a local service: the client duck-types the service surface
            # this evaluator uses, so everything downstream is unchanged.
            from repro.service.server import PredictionClient
            service = PredictionClient(server)
        elif service is None:
            service = PredictionService(
                cluster=cluster,
                pipeline=pipeline,
                estimator_mode=estimator_mode,
                enable_cache=enable_cache,
                share_provider=share_provider,
                max_workers=max_workers or 1,
                backend=backend or "serial",
                sync_timeout=sync_timeout,
                lease_timeout=lease_timeout,
                store_dir=store_dir,
            )
        else:
            if backend is not None:
                service.backend = backend
            if store_dir is not None and hasattr(service, "attach_store"):
                service.attach_store(store_dir)
        self.service = service
        self.pipeline = service.pipeline
        self._auto_workers = max_workers is None and service.max_workers == 1

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _job(self, recipe: TrainingRecipe) -> TransformerTrainingJob:
        return TransformerTrainingJob(self.model, recipe, self.cluster,
                                      global_batch_size=self.global_batch_size)

    def _to_trial(self, recipe: TrainingRecipe, job: TransformerTrainingJob,
                  prediction, wall_time: float) -> TrialResult:
        achieved_mfu = 0.0
        if prediction.succeeded:
            achieved_mfu = mfu(prediction.iteration_time,
                               job.flops_per_iteration(), self.cluster,
                               dtype=recipe.dtype)
        return TrialResult(
            recipe=recipe,
            iteration_time=prediction.iteration_time,
            mfu=achieved_mfu,
            oom=prediction.oom,
            peak_memory_bytes=prediction.peak_memory_bytes,
            wall_time=wall_time,
            stage_times=dict(prediction.stage_times),
            cache=prediction.metadata.get("service_cache"),
        )

    def __call__(self, recipe: TrainingRecipe) -> TrialResult:
        start = time.perf_counter()
        job = self._job(recipe)
        prediction = self.service.predict(job)
        return self._to_trial(recipe, job, prediction,
                              time.perf_counter() - start)

    def evaluate_many(self, recipes: List[TrainingRecipe]) -> List[TrialResult]:
        """Evaluate a batch of recipes (parallel + cached via the service)."""
        jobs = [self._job(recipe) for recipe in recipes]
        predictions = self.service.predict_many(jobs)
        return [
            self._to_trial(recipe, job, prediction,
                           sum(prediction.stage_times.values()))
            for recipe, job, prediction in zip(recipes, jobs, predictions)
        ]

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_default_workers(self, workers: int) -> None:
        """Adopt the search's concurrency unless workers were set explicitly.

        The count sizes the ``persistent`` worker pool
        (``serial`` ignores it).  Capped at the machine's CPU count --
        forked workers beyond the available cores only add fork overhead.
        """
        if self._auto_workers:
            cores = os.cpu_count() or 1
            self.service.max_workers = max(min(int(workers), cores), 1)

    def close(self) -> None:
        """Release the service's backend resources (persistent pools)."""
        self.service.close()

    def __enter__(self) -> "MayaTrialEvaluator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def cache_stats(self) -> Dict[str, float]:
        return self.service.cache_stats()

    def throughput_stats(self) -> Dict[str, object]:
        return self.service.throughput_stats()


@dataclass
class SearchResult:
    """Outcome of a configuration search."""

    best: Optional[TrialResult]
    history: List[TrialResult]
    status_counts: Dict[str, int]
    total_wall_time: float
    concurrent_makespan: float
    samples_used: int
    unique_valid_configs: int
    stage_time_totals: Dict[str, float] = field(default_factory=dict)
    pruning_tactic_counts: Dict[str, int] = field(default_factory=dict)
    #: Artifact/prediction cache counters from the service (empty for
    #: non-service evaluators).
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: Real elapsed evaluation time summed over batches.
    measured_makespan: float = 0.0
    #: Number of evaluated batches (ask-batch / tell-batch rounds).
    evaluation_batches: int = 0

    def top(self, count: int = 5) -> List[TrialResult]:
        feasible = [trial for trial in self.history if trial.feasible]
        return sorted(feasible, key=lambda trial: trial.iteration_time)[:count]


# Proposal kinds used by the batched loop.
_INVALID = "invalid"
_KNOWN = "known"
_PRUNED = "pruned"
_DUP = "dup"
_EVAL = "eval"


@dataclass
class _Proposal:
    vector: object
    recipe: Optional[TrainingRecipe]
    key: Optional[Tuple]
    kind: str
    #: For _EVAL: index into the batch's evaluation list.  For _DUP: index
    #: of the leading proposal carrying the same key.
    slot: int = -1
    tactic: Optional[str] = None


class MayaSearch:
    """Configuration search driven by Maya predictions."""

    def __init__(
        self,
        evaluator: Callable[[TrainingRecipe], TrialResult],
        space: Optional[ConfigurationSpace] = None,
        algorithm: str | SearchAlgorithm = "cma",
        world_size: int = 8,
        global_batch_size: int = 256,
        num_layers: int = 24,
        num_heads: int = 16,
        gpus_per_node: Optional[int] = None,
        enable_pruning: bool = True,
        concurrency: int = 8,
        seed: int = 0,
        early_stop_patience: int = 20,
        early_stop_top_k: int = 5,
    ) -> None:
        self.evaluator = evaluator
        self.space = space or default_search_space()
        if isinstance(algorithm, SearchAlgorithm):
            self.algorithm = algorithm
        else:
            resolutions = [len(knob.choices) for knob in self.space.knobs]
            self.algorithm = get_algorithm(algorithm, self.space.dimensions,
                                           seed=seed, resolutions=resolutions)
        self.world_size = world_size
        self.global_batch_size = global_batch_size
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.gpus_per_node = gpus_per_node
        self.pruner = FidelityPreservingPruner(enabled=enable_pruning)
        self.scheduler = TrialScheduler(concurrency=concurrency)
        self.early_stop_patience = early_stop_patience
        self.early_stop_top_k = early_stop_top_k
        # Service-backed evaluators size a pooled backend's workers from
        # the scheduler's concurrency unless configured explicitly.
        if hasattr(evaluator, "set_default_workers"):
            evaluator.set_default_workers(concurrency)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, budget: int = 2000) -> SearchResult:
        """Run the search with a budget of algorithm samples."""
        start = time.perf_counter()
        history: List[TrialResult] = []
        #: Trials the runner has resolved, keyed by full recipe signature.
        evaluated: Dict[Tuple, TrialResult] = {}
        stage_totals: Dict[str, float] = {}
        leaderboard_signature: Optional[Tuple] = None
        stable_count = 0
        samples = 0
        service_mode = hasattr(self.evaluator, "evaluate_many")
        stop = False

        while not stop and samples < budget:
            proposals, samples, exhausted = self._collect_batch(
                budget, samples, evaluated, service_mode)
            if not proposals:
                break

            to_eval = [prop for prop in proposals if prop.kind == _EVAL]
            results: List[TrialResult] = []
            if to_eval:
                batch_start = time.perf_counter()
                results = self._evaluate_batch(
                    [prop.recipe for prop in to_eval])
                self.scheduler.record_batch(
                    time.perf_counter() - batch_start, len(to_eval))

            # Tell the algorithm in ask order (population-based algorithms
            # rely on it) and fold results into the bookkeeping.
            for prop in proposals:
                if prop.kind == _INVALID:
                    self.scheduler.record(prop.key, TrialStatus.INVALID,
                                          math.inf)
                    self.algorithm.tell(prop.vector, math.inf)
                    continue
                if prop.kind == _KNOWN:
                    score = self._score(evaluated[prop.key])
                    self.scheduler.record(prop.key, TrialStatus.CACHED, score)
                    self.algorithm.tell(prop.vector, score)
                    continue
                if prop.kind == _PRUNED:
                    result = evaluated[prop.key]
                    history.append(result)
                    self.pruner.record(prop.recipe, result.oom,
                                       result.iteration_time)
                    self.scheduler.record(prop.key, TrialStatus.SKIPPED,
                                          self._score(result),
                                          tactic=prop.tactic)
                    self.algorithm.tell(prop.vector, self._score(result))
                    continue
                if prop.kind == _DUP:
                    leader = evaluated.get(prop.key)
                    score = self._score(leader) if leader else math.inf
                    self.scheduler.record(prop.key, TrialStatus.CACHED, score)
                    self.algorithm.tell(prop.vector, score)
                    continue

                result = results[prop.slot]
                score = self._score(result)
                if result.cache == "prediction" and prop.key in evaluated:
                    # The service resolved a configuration re-proposed within
                    # this run from its cross-trial cache: no new work
                    # happened.  (Hits against a cache warmed by a *previous*
                    # run still count as this run's executed trials below.)
                    result.status = TrialStatus.CACHED
                    self.scheduler.record(prop.key, TrialStatus.CACHED, score)
                    self.algorithm.tell(prop.vector, score)
                    continue

                result.status = TrialStatus.EXECUTED
                evaluated[prop.key] = result
                history.append(result)
                self.pruner.record(prop.recipe, result.oom,
                                   result.iteration_time)
                self.scheduler.record(prop.key, TrialStatus.EXECUTED, score,
                                      wall_time=result.wall_time)
                self.algorithm.tell(prop.vector, score)
                for stage, value in result.stage_times.items():
                    stage_totals[stage] = stage_totals.get(stage, 0.0) + value

                # Early stopping: the top-k leaderboard (by predicted
                # iteration time, the search objective) must stay unchanged
                # for `patience` consecutive non-OOM trials.
                if result.feasible:
                    signature = self._leaderboard_signature(history)
                    if signature == leaderboard_signature:
                        stable_count += 1
                    else:
                        leaderboard_signature = signature
                        stable_count = 0
                    if stable_count >= self.early_stop_patience:
                        # Finish recording the batch (the work already
                        # happened and the algorithm's tell FIFO must
                        # drain), then stop asking for more.
                        stop = True
            if exhausted:
                break

        feasible = [trial for trial in history if trial.feasible]
        best = min(feasible, key=lambda trial: trial.iteration_time,
                   default=None)
        cache_stats: Dict[str, float] = {}
        if hasattr(self.evaluator, "cache_stats"):
            cache_stats = dict(self.evaluator.cache_stats())
        return SearchResult(
            best=best,
            history=history,
            status_counts=self.scheduler.status_counts(),
            total_wall_time=time.perf_counter() - start,
            concurrent_makespan=self.scheduler.concurrent_makespan(),
            samples_used=samples,
            unique_valid_configs=len(evaluated),
            stage_time_totals=stage_totals,
            pruning_tactic_counts=dict(self.pruner.tactic_counts),
            cache_stats=cache_stats,
            measured_makespan=self.scheduler.measured_makespan(),
            evaluation_batches=self.scheduler.batch_count(),
        )

    # ------------------------------------------------------------------
    # batch collection / evaluation
    # ------------------------------------------------------------------
    def _collect_batch(
        self,
        budget: int,
        samples: int,
        evaluated: Dict[Tuple, TrialResult],
        service_mode: bool,
    ) -> Tuple[List[_Proposal], int, bool]:
        """Ask the algorithm for one batch of proposals.

        Each batch asks at most one concurrency-width of proposals.  That
        keeps tells flowing back into the algorithm's adaptation promptly
        (a larger ask window measurably degrades CMA in invalid-heavy
        regions), at the cost of batches whose pending-evaluation count
        falls below the worker-pool width when some proposals resolve
        immediately.  With concurrency 1 this degrades exactly to the
        classic serial ask -> evaluate -> tell loop.
        """
        proposals: List[_Proposal] = []
        batch_keys: Dict[Tuple, int] = {}
        pending = 0
        max_asks = max(self.scheduler.concurrency, 1)
        exhausted = False

        while samples < budget and len(proposals) < max_asks:
            if isinstance(self.algorithm, GridSearch) and self.algorithm.exhausted:
                exhausted = True
                break
            vector = self.algorithm.ask()
            recipe = self.space.decode(vector)
            samples += 1
            key = self._key(recipe)

            problems = recipe.validate(self.world_size, self.global_batch_size,
                                       self.num_layers, self.num_heads,
                                       self.gpus_per_node)
            if problems:
                proposals.append(_Proposal(vector, recipe, key, _INVALID))
                continue

            known = evaluated.get(key)
            if known is not None and (not service_mode
                                      or known.status is not TrialStatus.EXECUTED):
                # Pruner-skipped (and, for non-service evaluators, executed)
                # re-proposals resolve from the runner's own table.  With a
                # service evaluator, executed re-proposals flow through the
                # service so the cross-trial cache does the reuse.
                proposals.append(_Proposal(vector, recipe, key, _KNOWN))
                continue

            if known is None and key not in batch_keys:
                decision = self.pruner.consult(recipe)
                if decision.skip:
                    result = TrialResult(
                        recipe=recipe,
                        iteration_time=(math.inf if decision.oom
                                        else float(decision.inherited_runtime)),
                        mfu=0.0,
                        oom=decision.oom,
                        status=TrialStatus.SKIPPED,
                    )
                    evaluated[key] = result
                    proposals.append(_Proposal(vector, recipe, key, _PRUNED,
                                               tactic=decision.tactic))
                    continue

            if key in batch_keys and not service_mode:
                # Same configuration proposed twice within one batch: defer
                # to the leading proposal's result.
                proposals.append(_Proposal(vector, recipe, key, _DUP,
                                           slot=batch_keys[key]))
                continue

            batch_keys.setdefault(key, pending)
            proposals.append(_Proposal(vector, recipe, key, _EVAL,
                                       slot=pending))
            pending += 1
        return proposals, samples, exhausted

    def _evaluate_batch(self, recipes: List[TrainingRecipe]) -> List[TrialResult]:
        if hasattr(self.evaluator, "evaluate_many"):
            return self.evaluator.evaluate_many(recipes)
        return [self.evaluator(recipe) for recipe in recipes]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _key(recipe: TrainingRecipe) -> Tuple:
        return recipe.signature()

    @staticmethod
    def _score(result: TrialResult) -> float:
        if result.oom or not math.isfinite(result.iteration_time):
            return math.inf
        return result.iteration_time

    def _leaderboard_signature(self, history: List[TrialResult]) -> Tuple:
        feasible = [trial for trial in history if trial.feasible]
        top = sorted(feasible, key=lambda trial: trial.iteration_time)
        # Signature over the search objective itself (iteration time), so
        # early stopping, `best` and `top()` all rank trials identically.
        return tuple(round(trial.iteration_time, 6)
                     for trial in top[:self.early_stop_top_k])
