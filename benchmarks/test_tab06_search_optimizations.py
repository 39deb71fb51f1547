"""Table 6: impact of Maya-Search's optimizations on search runtime.

The paper compares the optimized search (worker deduplication, concurrency,
CMA-ES, pruning, trial result reuse) against unoptimized grid search,
reporting a >30x reduction.  This benchmark contrasts three configurations:

* **optimized** -- the prediction service with the cross-trial artifact
  cache and batch evaluation enabled (plus selective launch, dedup and
  replica reduction in the pipeline),
* **cold** -- the *same* search with caching and parallelism disabled:
  every proposal re-runs the full four-stage pipeline serially, and
* **unoptimized** -- grid search with every rank emulated and simulated and
  pruning off.

It reports per-stage times (summed, and per executed trial in ms -- the
cold row is the emulation / collation / prediction / simulation split of
one cold trial) and the service's cache-hit accounting: the optimized run
must show a nonzero artifact-cache hit rate and beat the cold run end to
end.
"""

from __future__ import annotations

import os

from bench_utils import fmt, print_table

from repro.analysis.experiments import scaled_transformer
from repro.core.pipeline import MayaPipeline
from repro.hardware.cluster import get_cluster
from repro.search import MayaSearch, MayaTrialEvaluator
from repro.search.space import ConfigurationSpace, Knob, default_search_space

CLUSTER = "v100-8"
GLOBAL_BATCH = 256
#: Sample budget of the optimized/cold CMA runs (>= 50 evaluated trials).
BUDGET = 230
GRID_BUDGET = 40
SEED = 13


def _model():
    return scaled_transformer("gpt3-2.7b", min_layers=8)


def _space():
    base = default_search_space(dtype="float16")
    # `compiled` does not change the emitted trace (a non-structural knob),
    # so points differing only in it share emulation artifacts -- exactly
    # the reuse the service's structural cache provides.
    return ConfigurationSpace(knobs=base.knobs + (Knob("compiled",
                                                       (False, True)),),
                              fixed=base.fixed)


def run_service_search(cached: bool, backend: str = "serial"):
    cluster = get_cluster(CLUSTER)
    model = _model()
    # The context manager closes the persistent leg's worker pool.
    with MayaTrialEvaluator(
            model, cluster, GLOBAL_BATCH, estimator_mode="learned",
            enable_cache=cached, share_provider=cached,
            max_workers=None if cached else 1,
            backend=backend) as evaluator:
        # Train the (per-cluster, globally cached) estimator suite up front
        # so the cached-vs-cold wall-clock comparison measures trial
        # evaluation, not one-time estimator training.
        evaluator.service.warm()
        search = MayaSearch(
            evaluator, space=_space(), algorithm="cma",
            world_size=cluster.world_size, global_batch_size=GLOBAL_BATCH,
            num_layers=model.num_layers, num_heads=model.num_heads,
            gpus_per_node=cluster.gpus_per_node, enable_pruning=True,
            concurrency=8, seed=SEED,
            # Early stopping off so the cached and cold runs see the *same*
            # proposal stream and the wall-clock comparison is apples to
            # apples.
            early_stop_patience=10_000,
        )
        return search.run(budget=BUDGET)


def run_grid_search():
    cluster = get_cluster(CLUSTER)
    model = _model()
    space = default_search_space(dtype="float16",
                                 microbatch_multiplier=(1, 2, 4),
                                 virtual_stages=(1, 2))
    pipeline = MayaPipeline(
        cluster, estimator_mode="learned",
        deduplicate_workers=False,
        selective_launch=False,
        reduce_replicas=False,
    )
    evaluator = MayaTrialEvaluator(model, cluster, GLOBAL_BATCH,
                                   pipeline=pipeline, enable_cache=False,
                                   share_provider=False, max_workers=1)
    search = MayaSearch(
        evaluator, space=space, algorithm="grid",
        world_size=cluster.world_size, global_batch_size=GLOBAL_BATCH,
        num_layers=model.num_layers, num_heads=model.num_heads,
        gpus_per_node=cluster.gpus_per_node, enable_pruning=False,
        concurrency=1, seed=SEED,
    )
    return search.run(budget=GRID_BUDGET)


def run_experiment():
    return {
        "optimized": run_service_search(cached=True),
        "persistent": run_service_search(cached=True, backend="persistent"),
        "cold": run_service_search(cached=False),
        "unoptimized": run_grid_search(),
    }


def test_tab06_search_optimizations(benchmark, run_once):
    results = run_once(benchmark, run_experiment)

    rows = []
    for label, result in results.items():
        stages = result.stage_time_totals
        stats = result.cache_stats
        rows.append([
            label,
            fmt(stages.get("emulation", 0.0), 2),
            fmt(stages.get("collation", 0.0), 2),
            fmt(stages.get("prediction", 0.0), 2),
            fmt(stages.get("simulation", 0.0), 2),
            fmt(result.measured_makespan, 2),
            result.status_counts["executed"],
            result.status_counts["cached"],
            result.status_counts["skipped"],
            fmt(stats.get("hit_rate", 0.0) * 100, 1),
        ])
    print_table("Table 6: per-stage search cost with and without optimizations"
                " (seconds, summed over executed trials)",
                ["configuration", "emulation", "collation", "prediction",
                 "simulation", "wall", "executed", "cached", "skipped",
                 "cache hit %"], rows)

    # The paper's Table 6 view of one trial: where an executed trial's
    # milliseconds go, stage by stage ("cold" is the uncached pipeline).
    stages = ("emulation", "collation", "prediction", "simulation")
    split_rows = []
    for label, result in results.items():
        executed = max(result.status_counts["executed"], 1)
        per_trial = [result.stage_time_totals.get(stage, 0.0) * 1e3 / executed
                     for stage in stages]
        split_rows.append([label] + [fmt(ms, 1) for ms in per_trial]
                          + [fmt(sum(per_trial), 1)])
    print_table("Table 6: per-stage cost of one executed trial (ms)",
                ["configuration", *stages, "total"], split_rows)

    optimized = results["optimized"]
    persistent = results["persistent"]
    cold = results["cold"]
    unoptimized = results["unoptimized"]

    # >= 50 trials actually ran through the prediction service.
    assert optimized.status_counts["executed"] >= 50
    # The cross-trial artifact cache resolved a nonzero share of them.
    assert optimized.cache_stats["hits"] > 0
    assert optimized.cache_stats["hit_rate"] > 0.0
    assert optimized.status_counts["cached"] > 0
    # Cached re-proposals and shared artifacts make the same search
    # measurably faster than the cold path end to end...
    assert optimized.measured_makespan < cold.measured_makespan
    # ... while selecting exactly the same configuration with exactly the
    # same predicted iteration time (caching never changes results).
    assert optimized.best is not None and cold.best is not None
    assert optimized.best.recipe == cold.best.recipe
    assert optimized.best.iteration_time == cold.best.iteration_time

    # The persistent backend runs the same >= 50-trial search in worker
    # processes and must select the identical configuration with the
    # identical predicted iteration time (backends never change results).
    assert persistent.best is not None
    assert persistent.best.recipe == optimized.best.recipe
    assert persistent.best.iteration_time == optimized.best.iteration_time
    assert persistent.status_counts == optimized.status_counts
    # With real cores available, forked workers beat the serial backend
    # end to end.  Only assert where the claim applies AND the search
    # is doing enough work for the comparison to be scheduler-noise-proof:
    # on few-core machines the pool's sync and pickling overhead can win
    # out, and sub-ten-second makespans on shared CI runners are too noisy
    # to gate the build on (the comparison is always printed above either
    # way).
    if (os.cpu_count() or 1) >= 4 and optimized.measured_makespan > 10.0:
        assert persistent.measured_makespan < optimized.measured_makespan

    # The optimized per-trial pipeline (selective launch + dedup + replica
    # reduction) stays far cheaper than the unoptimized one, as in Table 6.
    per_trial_opt = (sum(optimized.stage_time_totals.values())
                     / max(optimized.status_counts["executed"], 1))
    per_trial_unopt = (sum(unoptimized.stage_time_totals.values())
                       / max(unoptimized.status_counts["executed"], 1))
    assert per_trial_opt < per_trial_unopt
