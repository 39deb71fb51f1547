"""Figure 13: Maya stack runtime (emulator / collator / predictor / simulator)
when scaling to large clusters.

With selective launch only unique pipeline ranks are emulated, so emulation
cost stays flat.  The simulator reports the whole model-parallel replica
but replays only one rank per pipeline stage (tensor-parallel peers are
mirrored), so its cost tracks the pipeline depth and the trace length --
the same qualitative breakdown the paper shows up to 16K GPUs.
"""

from __future__ import annotations

from bench_utils import fmt, print_table

from repro.analysis.experiments import scaled_transformer
from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.workloads.job import TransformerTrainingJob

GPU_COUNTS = (128, 256, 512)
RECIPE = TrainingRecipe(tensor_parallel=8, pipeline_parallel=8,
                        microbatch_multiplier=4,
                        activation_recomputation=True,
                        sequence_parallelism=True, dtype="bfloat16")


def run_experiment():
    base_cluster = get_cluster("h100-64")
    model = scaled_transformer("gpt3-18.4b")
    rows = []
    for gpu_count in GPU_COUNTS:
        cluster = base_cluster.with_world_size(gpu_count)
        # Global batch grows with the cluster (fixed per-GPU batch), like the
        # paper's weak-scaling sweep of Figure 13.
        global_batch = 4 * gpu_count
        pipeline = MayaPipeline(cluster, estimator_mode="analytical")
        job = TransformerTrainingJob(model, RECIPE, cluster,
                                     global_batch_size=global_batch)
        if job.validate():
            continue
        prediction = pipeline.predict(job)
        stages = prediction.stage_times
        rows.append({
            "gpus": gpu_count,
            "emulation": stages.get("emulation", 0.0),
            "collation": stages.get("collation", 0.0),
            "prediction": stages.get("prediction", 0.0),
            "simulation": stages.get("simulation", 0.0),
            "emulated_workers": prediction.metadata.get("unique_workers"),
            "simulated_ranks": prediction.metadata.get("simulated_ranks"),
            "replayed_ranks": prediction.report.metadata["replayed_ranks"],
        })
    return rows


def test_fig13_stack_runtime(benchmark, run_once):
    rows = run_once(benchmark, run_experiment)
    assert len(rows) >= 3

    print_table("Figure 13: Maya stack runtime breakdown (seconds)",
                ["GPUs", "emulator", "collator", "predictor", "simulator",
                 "emulated workers", "simulated ranks", "replayed ranks"],
                [[row["gpus"], fmt(row["emulation"], 2),
                  fmt(row["collation"], 2), fmt(row["prediction"], 2),
                  fmt(row["simulation"], 2), row["emulated_workers"],
                  row["simulated_ranks"], row["replayed_ranks"]]
                 for row in rows])

    # Selective launch keeps the number of emulated workers constant (one per
    # pipeline stage) regardless of cluster size.
    assert len({row["emulated_workers"] for row in rows}) == 1
    # Total stack runtime stays bounded (minutes, not hours) even at the
    # largest swept cluster -- the property that makes hyperscale studies
    # feasible (Section 7.4).
    largest = rows[-1]
    total = (largest["emulation"] + largest["collation"]
             + largest["prediction"] + largest["simulation"])
    assert total < 1800.0
