"""Seeded input generation shared by every workload.

All inputs derive from ``--seed``; the program under test only ever sees
the generated :class:`TransformerTrainingJob` objects.

The valid recipe space of the benchmark model (320 recipes) spans a 60x
range of per-trial cost, and three knobs explain 93% of that variance:
tensor parallelism, pipeline parallelism and the microbatch multiplier
(activation recomputation lifts it to 97%).  A plain seeded subsample
(``candidate_recipes(limit=N, seed=S)``) therefore moves ``trials_per_s``
by 12-25% between seeds at N = 40..120 -- far more than any bound -- so
the job sets are *stratified*: the cost-determining knobs partition the
space into cells, every set holds exactly one recipe per cell in a fixed
cell order, and the seed picks which variant (virtual stages, sequence
parallelism, distributed optimizer, ...) represents each cell.  Different
seeds give structurally different jobs with the same cost mix.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Sequence, Tuple

CLUSTER = "v100-8"
MODEL_PRESET = "gpt3-345m"
MODEL_NAME = "gpt3-345m-l4"
NUM_LAYERS = 4
GLOBAL_BATCH = 64
ESTIMATOR = "learned"

#: Cell keys of the sweep workloads (72 cells) and of the workloads whose
#: per-trial cost is too high for 72 jobs a pass (36 cells).
FINE_KEYS = ("tensor_parallel", "pipeline_parallel",
             "microbatch_multiplier", "activation_recomputation")
COARSE_KEYS = FINE_KEYS[:3]

#: Jobs whose predictions are compared with a plain ``MayaPipeline`` and
#: with the testbed after the timed phase.
REFERENCE_JOBS = 24


def benchmark_model():
    from repro.workloads.models import get_transformer

    return dataclasses.replace(get_transformer(MODEL_PRESET),
                               num_layers=NUM_LAYERS, name=MODEL_NAME)


def make_job(model, recipe, cluster):
    from repro.workloads.job import TransformerTrainingJob

    return TransformerTrainingJob(model, recipe, cluster,
                                  global_batch_size=GLOBAL_BATCH)


def job_sets(model, cluster, seed: int, keys: Sequence[str],
             sets: int = 2, every: int = 1) -> List[List]:
    """``sets`` job lists, each holding one recipe per cell.

    Cells are visited in one fixed pseudo-random order (the same for every
    seed, so batch composition is stable); within a cell the seed shuffles
    the variants and set ``k`` takes variant ``k`` (wrapping in cells with
    fewer variants).  ``every`` keeps each n-th cell only (``--quick``).
    """
    from repro.analysis.experiments import candidate_recipes

    cells: Dict[Tuple, List] = {}
    for recipe in candidate_recipes(model, cluster, GLOBAL_BATCH):
        cell = tuple(getattr(recipe, key) for key in keys)
        cells.setdefault(cell, []).append(recipe)
    order = sorted(cells)
    random.Random(len(order)).shuffle(order)
    rng = random.Random(seed)
    result: List[List] = [[] for _ in range(sets)]
    for cell in order[::every]:
        variants = sorted(cells[cell], key=lambda recipe: recipe.short_name())
        rng.shuffle(variants)
        for index in range(sets):
            recipe = variants[index % len(variants)]
            result[index].append(make_job(model, recipe, cluster))
    return result


def with_compiled(job, compiled: bool):
    """The same structure with the non-structural ``compiled`` knob set."""
    recipe = dataclasses.replace(job.recipe, compiled=compiled)
    return make_job(job.model, recipe, job.cluster)


def reference_subset(jobs: Sequence, count: int = REFERENCE_JOBS) -> List:
    """``count`` jobs spread evenly over ``jobs`` (keeps the cost mix)."""
    if len(jobs) <= count:
        return list(jobs)
    return [jobs[(index * len(jobs)) // count] for index in range(count)]
