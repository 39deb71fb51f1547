"""Table 3: breakdown of prediction error into kernel-estimation error and
emulation/simulation detail loss.

The oracle configuration replaces the learned kernel estimators with true
(expected) kernel runtimes; the residual error isolates what the emulation +
simulation stages lose.  The paper reports oracle errors mostly under 2% and
end-to-end errors within 5-6%.
"""

from __future__ import annotations

import statistics

from bench_utils import assert_golden, fmt, print_table

from repro.analysis.experiments import scaled_transformer
from repro.analysis.metrics import absolute_percentage_error
from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.testbed import Testbed
from repro.workloads.job import TransformerTrainingJob

#: (model, cluster, global batch, recipe knobs) rows echoing Table 3.
ROWS = (
    ("gpt3-1.3b", "v100-8", 128, dict(tensor_parallel=1, pipeline_parallel=2,
                                      microbatch_multiplier=2)),
    ("gpt3-1.3b", "v100-8", 128, dict(tensor_parallel=2, pipeline_parallel=2,
                                      microbatch_multiplier=2)),
    ("gpt3-1.3b", "v100-8", 128, dict(tensor_parallel=4, pipeline_parallel=2,
                                      microbatch_multiplier=2)),
    ("gpt3-2.7b", "v100-8", 128, dict(tensor_parallel=2, pipeline_parallel=2,
                                      microbatch_multiplier=2,
                                      activation_recomputation=True)),
    ("gpt3-2.7b", "v100-8", 128, dict(tensor_parallel=4, pipeline_parallel=2,
                                      microbatch_multiplier=2,
                                      activation_recomputation=True)),
    ("llama2-7b", "v100-32", 128, dict(tensor_parallel=4, pipeline_parallel=4,
                                       microbatch_multiplier=2,
                                       activation_recomputation=True)),
    ("llama2-7b", "v100-32", 128, dict(tensor_parallel=8, pipeline_parallel=2,
                                       microbatch_multiplier=2,
                                       activation_recomputation=True)),
)


def run_experiment():
    results = []
    for model_name, cluster_name, global_batch, knobs in ROWS:
        cluster = get_cluster(cluster_name)
        model = scaled_transformer(model_name)
        recipe = TrainingRecipe(dtype="float16", **knobs)
        job = TransformerTrainingJob(model, recipe, cluster,
                                     global_batch_size=global_batch)
        if job.validate():
            continue
        learned = MayaPipeline(cluster, estimator_mode="learned")
        oracle = MayaPipeline(cluster, estimator_mode="oracle")
        artifacts = learned.emulate(job)
        if artifacts.oom:
            continue
        actual = Testbed(cluster).measure(job, artifacts)
        e2e = learned.predict(job, artifacts)
        orc = oracle.predict(job, artifacts)
        results.append({
            "model": model_name,
            "cluster": cluster_name,
            "recipe": recipe.short_name(),
            "actual": actual.iteration_time,
            "oracle_error": absolute_percentage_error(actual.iteration_time,
                                                      orc.iteration_time),
            "e2e_error": absolute_percentage_error(actual.iteration_time,
                                                   e2e.iteration_time),
        })
    return results


def test_tab03_error_breakdown(benchmark, run_once):
    results = run_once(benchmark, run_experiment)
    assert results, "every Table 3 row was invalid or OOM"

    rows = [[item["model"], item["cluster"], item["recipe"],
             fmt(item["actual"], 2), fmt(item["oracle_error"], 2),
             fmt(item["e2e_error"], 2)] for item in results]
    print_table("Table 3: oracle vs end-to-end prediction error (%)",
                ["model", "cluster", "recipe", "actual (s)", "oracle %",
                 "e2e %"], rows)

    oracle_errors = [item["oracle_error"] for item in results]
    e2e_errors = [item["e2e_error"] for item in results]
    # Oracle error (emulation + simulation detail loss) is small...
    assert statistics.median(oracle_errors) < 3.0
    # ... and end-to-end error stays within the paper's 5-6% envelope
    # (allowing some slack for the synthetic testbed).
    assert statistics.median(e2e_errors) < 8.0
    assert_golden("tab03", {
        f"{item['model']}/{item['cluster']}/{item['recipe']}": {
            "actual": item["actual"],
            "oracle_error": item["oracle_error"],
            "e2e_error": item["e2e_error"],
        } for item in results})
    # The oracle is at least as accurate as the learned estimators on median.
    assert statistics.median(oracle_errors) <= statistics.median(e2e_errors) + 1.0
