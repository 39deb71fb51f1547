"""Knob-effect analysis (Table 2 of the paper).

Table 2 summarises how each configuration knob moves three resources --
compute utilisation, memory load and network load -- at a fixed global batch
size.  Because Maya observes the complete device API stream, those
directions can be *measured* rather than asserted: this module toggles one
knob at a time on a reference configuration, runs the emulation + testbed
pipeline, and reports the deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.framework.transformer import TransformerModelSpec
from repro.hardware.cluster import ClusterSpec
from repro.testbed import Testbed
from repro.workloads.job import TransformerTrainingJob


@dataclass
class KnobEffect:
    """Measured effect of toggling one knob relative to a baseline recipe."""

    knob: str
    compute_direction: str
    memory_direction: str
    network_direction: str
    iteration_time_ratio: float
    peak_memory_ratio: float
    communication_ratio: float


#: Directions reported by Table 2 in the paper, for comparison in benchmarks.
PAPER_TABLE2_DIRECTIONS: Dict[str, Dict[str, str]] = {
    "tensor_parallel": {"compute": "down", "memory": "down", "network": "up"},
    "pipeline_parallel": {"compute": "down", "memory": "down", "network": "up"},
    "sequence_parallel": {"compute": "down", "memory": "down", "network": "up"},
    "pipeline_interleaving": {"compute": "up", "memory": "down", "network": "up"},
    "distributed_optimizer": {"compute": "flat", "memory": "down", "network": "up"},
    "activation_recomputation": {"compute": "down", "memory": "down",
                                 "network": "flat"},
    "gradient_accumulation": {"compute": "down", "memory": "down",
                              "network": "down"},
}


def _direction(ratio: float, threshold: float = 0.03,
               invert: bool = False) -> str:
    """Classify a ratio as up / down / flat with a small dead band."""
    if invert:
        ratio = 1.0 / ratio if ratio > 0 else float("inf")
    if ratio > 1.0 + threshold:
        return "up"
    if ratio < 1.0 - threshold:
        return "down"
    return "flat"


def _network_bytes(artifacts) -> float:
    """Largest per-worker collective payload volume in the emulated trace,
    summed in seq order from the collated collective tables."""
    totals = []
    for table in artifacts.collated.resolutions.values():
        nbytes = [record.nbytes for record in table.records]
        totals.append(sum(nbytes[slot] for slot in table.template.tolist()))
    return max(totals) if totals else 0.0


def _measure(model: TransformerModelSpec, recipe: TrainingRecipe,
             cluster: ClusterSpec, global_batch_size: int,
             testbed: Testbed, pipeline: MayaPipeline):
    job = TransformerTrainingJob(model, recipe, cluster,
                                 global_batch_size=global_batch_size)
    if job.validate():
        return None
    artifacts = pipeline.emulate(job)
    result = testbed.measure(job, artifacts)
    network = _network_bytes(artifacts) if not artifacts.oom else 0.0
    return result, network


def measure_knob_effects(
    model: TransformerModelSpec,
    cluster: ClusterSpec,
    global_batch_size: int,
    base_recipe: Optional[TrainingRecipe] = None,
) -> List[KnobEffect]:
    """Measure Table 2's knob directions on the emulated testbed."""
    dtype = "float16" if cluster.gpu.architecture == "volta" else "bfloat16"
    base = base_recipe or TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                         microbatch_multiplier=2, dtype=dtype)
    testbed = Testbed(cluster)
    pipeline = MayaPipeline(cluster, estimator_mode="analytical")
    measured = _measure(model, base, cluster, global_batch_size, testbed,
                        pipeline)
    if measured is None or not measured[0].succeeded:
        raise ValueError("reference recipe is invalid or OOM; pick another base")
    reference, reference_network = measured

    variants: Dict[str, TrainingRecipe] = {
        # Doubling TP halves the data-parallel degree; doubling the number of
        # microbatches keeps the micro-batch size constant so the comparison
        # isolates the knob (the paper's fixed-global-batch setting).
        "tensor_parallel": base.replace(
            tensor_parallel=base.tensor_parallel * 2,
            microbatch_multiplier=base.microbatch_multiplier * 2),
        "pipeline_parallel": base.replace(
            pipeline_parallel=base.pipeline_parallel * 2),
        "sequence_parallel": base.replace(sequence_parallelism=True),
        "pipeline_interleaving": base.replace(virtual_stages=2),
        "distributed_optimizer": base.replace(distributed_optimizer=True),
        "activation_recomputation": base.replace(activation_recomputation=True),
        "gradient_accumulation": base.replace(
            microbatch_multiplier=base.microbatch_multiplier * 2),
    }

    effects: List[KnobEffect] = []
    for knob, recipe in variants.items():
        measured_variant = _measure(model, recipe, cluster, global_batch_size,
                                    testbed, pipeline)
        if measured_variant is None:
            continue
        result, network = measured_variant
        if not result.succeeded:
            # An OOM variant unambiguously increased memory pressure.
            effects.append(KnobEffect(
                knob=knob, compute_direction="flat", memory_direction="up",
                network_direction="flat", iteration_time_ratio=float("inf"),
                peak_memory_ratio=float("inf"), communication_ratio=1.0))
            continue
        time_ratio = result.iteration_time / reference.iteration_time
        memory_ratio = (max(result.peak_memory_bytes, 1)
                        / max(reference.peak_memory_bytes, 1))
        comm_ratio = (max(network, 1e-9) / max(reference_network, 1e-9))
        effects.append(KnobEffect(
            knob=knob,
            # Per-device compute load: longer iterations at fixed work mean
            # lower utilisation, so the direction is inverted.
            compute_direction=_direction(time_ratio, invert=True),
            memory_direction=_direction(memory_ratio),
            network_direction=_direction(comm_ratio),
            iteration_time_ratio=time_ratio,
            peak_memory_ratio=memory_ratio,
            communication_ratio=comm_ratio,
        ))
    return effects
