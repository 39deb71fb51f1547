"""Figure 14: impact of dynamic worker deduplication on Maya's runtime.

Fixing the parallelism configuration and growing the data-parallel degree
adds only redundant workers; with deduplication (and selective launch) the
end-to-end Maya runtime stays roughly flat, without it the cost grows with
the cluster (the paper reports 74-94% savings).
"""

from __future__ import annotations

import gc
from typing import Tuple

from bench_utils import fmt, print_table

from repro.analysis.experiments import scaled_transformer
from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.workloads.job import TransformerTrainingJob

RECIPE = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                        microbatch_multiplier=2,
                        activation_recomputation=True, dtype="float16")
GPU_COUNTS = (8, 16, 32)


def run_point(gpu_count: int, dedup: bool) -> Tuple[float, int]:
    """End-to-end seconds and the number of ranks the simulator replayed."""
    cluster = get_cluster("v100-8").with_world_size(gpu_count)
    model = scaled_transformer("gpt3-2.7b", min_layers=8)
    pipeline = MayaPipeline(
        cluster, estimator_mode="analytical",
        deduplicate_workers=dedup, selective_launch=dedup,
        reduce_replicas=dedup,
    )
    job = TransformerTrainingJob(model, RECIPE, cluster,
                                 global_batch_size=8 * gpu_count)
    # A full collection of what earlier tests left in the process takes
    # ~0.2 s on a 2-core VM, several times a deduplicated point's whole
    # runtime: pay it here, outside the timed stages.
    gc.collect()
    prediction = pipeline.predict(job)
    assert prediction.succeeded
    return (sum(prediction.stage_times.values()),
            prediction.report.metadata["replayed_ranks"])


def run_experiment():
    rows = []
    for gpu_count in GPU_COUNTS:
        with_dedup, replayed_with = run_point(gpu_count, dedup=True)
        without_dedup, replayed_without = run_point(gpu_count, dedup=False)
        rows.append({
            "gpus": gpu_count,
            "with": with_dedup,
            "without": without_dedup,
            "savings": 1.0 - with_dedup / without_dedup,
            "replayed_with": replayed_with,
            "replayed_without": replayed_without,
        })
    return rows


def test_fig14_worker_dedup_ablation(benchmark, run_once):
    rows = run_once(benchmark, run_experiment)

    print_table("Figure 14: Maya runtime with and without worker dedup (s)",
                ["GPUs", "with dedup", "without dedup", "savings",
                 "replayed ranks (with / without)"],
                [[row["gpus"], fmt(row["with"], 2), fmt(row["without"], 2),
                  f"{row['savings'] * 100:.0f}%",
                  f"{row['replayed_with']} / {row['replayed_without']}"]
                 for row in rows])

    # Deduplication always helps, and the savings grow with the DP degree
    # (74% -> 94% in the paper).
    for row in rows:
        assert row["with"] <= row["without"]
    assert rows[-1]["savings"] > rows[0]["savings"]
    assert rows[-1]["savings"] > 0.5
