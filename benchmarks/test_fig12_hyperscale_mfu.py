"""Figure 12: predicted MFU and iteration time when scaling data parallelism
to thousand-GPU clusters.

The paper fixes TP8 / PP8 and grows the data-parallel degree, integrating an
external network simulator (ASTRA-sim) for collectives; the reproduction
uses the hierarchical analytical network model as that pluggable backend.
The expected trend is sublinear scaling: iteration time drops with more
GPUs, but MFU decreases as communication starts to dominate.
"""

from __future__ import annotations

from bench_utils import assert_golden, fmt, print_table

from repro.analysis.experiments import scaled_transformer
from repro.analysis.metrics import mfu
from repro.core.estimators.collective import HierarchicalNetworkModel
from repro.core.estimators.suite import EstimatorSuite, build_estimator_suite
from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.workloads.job import TransformerTrainingJob

#: Cluster sizes swept (the paper goes to 12K GPUs; scaled down for CPU time).
GPU_COUNTS = (128, 256, 512)
RECIPE = TrainingRecipe(tensor_parallel=8, pipeline_parallel=8,
                        microbatch_multiplier=4,
                        activation_recomputation=True,
                        sequence_parallelism=True, dtype="bfloat16")
GLOBAL_BATCH = 2048


def run_experiment():
    base_cluster = get_cluster("h100-64")
    model = scaled_transformer("gpt3-18.4b")
    rows = []
    for gpu_count in GPU_COUNTS:
        cluster = base_cluster.with_world_size(gpu_count)
        analytical = build_estimator_suite(cluster, mode="analytical",
                                           use_cache=False)
        # Plug the hierarchical network model in as the ASTRA-sim stand-in.
        suite = EstimatorSuite(
            name="analytical+astra-sim-standin",
            kernel_estimators=analytical.kernel_estimators,
            fallback_kernel_estimator=analytical.fallback_kernel_estimator,
            collective_estimator=HierarchicalNetworkModel(cluster.interconnect),
        )
        pipeline = MayaPipeline(cluster, estimator_suite=suite)
        job = TransformerTrainingJob(model, RECIPE, cluster,
                                     global_batch_size=GLOBAL_BATCH)
        if job.validate():
            continue
        prediction = pipeline.predict(job)
        if not prediction.succeeded:
            continue
        rows.append({
            "gpus": gpu_count,
            "iteration_time": prediction.iteration_time,
            "mfu": mfu(prediction.iteration_time, job.flops_per_iteration(),
                       cluster, dtype=RECIPE.dtype),
        })
    return rows


def test_fig12_hyperscale_mfu(benchmark, run_once):
    rows = run_once(benchmark, run_experiment)
    assert len(rows) >= 3, "hyperscale sweep produced too few points"

    print_table("Figure 12: scaling data parallelism at fixed TP8/PP8",
                ["GPUs", "iteration time (s)", "MFU"],
                [[row["gpus"], fmt(row["iteration_time"], 2),
                  fmt(row["mfu"], 3)] for row in rows])

    times = [row["iteration_time"] for row in rows]
    mfus = [row["mfu"] for row in rows]
    # Iteration time keeps dropping as GPUs are added...
    assert all(times[i + 1] < times[i] for i in range(len(times) - 1))
    # ...but sublinearly: MFU at the largest scale is below the smallest.
    assert mfus[-1] < mfus[0]
    speedup = times[0] / times[-1]
    ideal = rows[-1]["gpus"] / rows[0]["gpus"]
    assert speedup < ideal
    assert_golden("fig12", rows)
