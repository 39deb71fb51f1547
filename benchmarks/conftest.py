"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure from the paper's evaluation
(Section 7).  Absolute numbers come from the synthetic testbed, so only the
*shape* of the results (who wins, by roughly what factor, where crossovers
fall) is expected to match the paper; EXPERIMENTS.md records both.

The heavyweight ingredient -- evaluating a pool of configurations with the
testbed, Maya and the baselines -- is computed once per session in the
``prediction_setups`` fixture and shared by the Figure 7 / 8 / 9 benchmarks.

Two environment variables control benchmark cost (see
``repro.analysis.experiments``): ``REPRO_BENCH_CONFIGS`` (configurations per
setup, default 20) and ``REPRO_BENCH_SCALE`` (depth divisor for the largest
models, default 2).
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_utils import PREDICTION_SETUPS  # noqa: E402

from repro.analysis.experiments import (  # noqa: E402
    SetupEvaluation,
    bench_config_budget,
    candidate_recipes,
    evaluate_setup,
    scaled_transformer,
)
from repro.hardware.cluster import get_cluster  # noqa: E402


def pytest_collection_modifyitems(items):
    """Mark every figure/table regeneration ``paper`` (see pytest.ini)."""
    for item in items:
        if (item.path.parent == Path(__file__).parent
                and item.path.name.startswith(("test_fig", "test_tab"))):
            item.add_marker(pytest.mark.paper)


@pytest.fixture(scope="session")
def prediction_setups() -> Dict[str, SetupEvaluation]:
    """Evaluate the candidate-config pools for the four paper setups."""
    budget = bench_config_budget()
    setups: Dict[str, SetupEvaluation] = {}
    for name, model_name, cluster_name, global_batch in PREDICTION_SETUPS:
        cluster = get_cluster(cluster_name)
        model = scaled_transformer(model_name)
        recipes = candidate_recipes(model, cluster, global_batch,
                                    limit=budget, seed=7)
        setups[name] = evaluate_setup(name, model, cluster, global_batch,
                                      recipes, estimator_mode="learned",
                                      include_baselines=True)
    return setups


@pytest.fixture(scope="session")
def search_outcomes():
    """Run Maya-Search (CMA-ES, all optimizations on) for two resource specs.

    Shared by the Figure 11 / Figure 15 / Table 6 benchmarks.  The search
    space is the Table 5 grid; the workload is a depth-scaled GPT-3 2.7B so
    that each trial's emulation completes in well under a second.
    """
    from repro.search import MayaSearch, MayaTrialEvaluator
    from repro.search.space import default_search_space

    outcomes = {}
    for cluster_name, global_batch in (("v100-8", 256), ("h100-16", 256)):
        cluster = get_cluster(cluster_name)
        model = scaled_transformer("gpt3-2.7b", min_layers=8)
        dtype = "float16" if cluster.gpu.architecture == "volta" else "bfloat16"
        space = default_search_space(dtype=dtype)
        evaluator = MayaTrialEvaluator(model, cluster, global_batch,
                                       estimator_mode="learned")
        search = MayaSearch(
            evaluator, space=space, algorithm="cma",
            world_size=cluster.world_size, global_batch_size=global_batch,
            num_layers=model.num_layers, num_heads=model.num_heads,
            gpus_per_node=cluster.gpus_per_node, enable_pruning=True,
            concurrency=8, seed=13,
        )
        result = search.run(budget=160)
        outcomes[cluster_name] = {
            "cluster": cluster,
            "model": model,
            "global_batch": global_batch,
            "result": result,
        }
    return outcomes


@pytest.fixture(scope="session")
def run_once():
    """Helper to run a callable exactly once under pytest-benchmark."""

    def runner(benchmark, func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner
