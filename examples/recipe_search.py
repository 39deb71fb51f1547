#!/usr/bin/env python3
"""Maya-Search: find a good training recipe automatically, without GPUs.

Runs the configuration search of Section 5 / 7.3 at laptop scale: CMA-ES
over the Table 5 knob space, with every trial evaluated by Maya's emulation
pipeline, fidelity-preserving pruning and result caching enabled.

Run with::

    python examples/recipe_search.py
"""

from __future__ import annotations

from repro.hardware import get_cluster
from repro.search import MayaSearch, MayaTrialEvaluator
from repro.search.space import default_search_space
from repro.workloads import get_transformer


def main() -> None:
    cluster = get_cluster("v100-8")
    model = get_transformer("gpt3-1.3b")
    global_batch = 128

    space = default_search_space(dtype="float16")
    # The evaluator wraps a PredictionService; use it as a context manager
    # so backend worker pools never outlive the search.  backend= accepts
    # "serial" (the default) or "persistent" (a forked worker pool) --
    # both produce identical results, they only differ in wall-clock
    # (see README.md).
    with MayaTrialEvaluator(model, cluster, global_batch,
                            estimator_mode="learned") as evaluator:
        search = MayaSearch(
            evaluator,
            space=space,
            algorithm="cma",
            world_size=cluster.world_size,
            global_batch_size=global_batch,
            num_layers=model.num_layers,
            num_heads=model.num_heads,
            gpus_per_node=cluster.gpus_per_node,
            enable_pruning=True,
            concurrency=8,
            seed=0,
        )

        print(f"searching {space.size()} raw configurations for {model.name} "
              f"on {cluster.name}...")
        result = search.run(budget=300)

    print(f"\nsearch finished in {result.total_wall_time:.1f}s wall time "
          f"({result.concurrent_makespan:.1f}s makespan with 8 workers)")
    print(f"samples used: {result.samples_used}, "
          f"unique valid configs: {result.unique_valid_configs}")
    print(f"trial statuses: {result.status_counts}")
    print(f"pruning tactics fired: {result.pruning_tactic_counts}")

    print("\ntop-5 recipes by predicted iteration time:")
    for rank, trial in enumerate(result.top(5), start=1):
        print(f"  {rank}. {trial.recipe.short_name():<28} "
              f"{trial.iteration_time:7.2f} s/iter   MFU {trial.mfu * 100:5.1f}%   "
              f"peak {trial.peak_memory_bytes / 2**30:5.1f} GB")

    best = result.best
    print(f"\nselected recipe: {best.recipe.short_name()}")
    print(f"  predicted iteration time: {best.iteration_time:.2f} s")
    print(f"  predicted MFU:            {best.mfu * 100:.1f}%")


if __name__ == "__main__":
    main()
