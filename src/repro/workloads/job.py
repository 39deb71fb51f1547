"""Runnable training jobs.

A :class:`TrainingJob` binds a model + recipe + global batch size to a
cluster-sized world and exposes the per-rank ``worker_fn`` the emulation
session runs, along with the bookkeeping Maya and the baselines need
(unique ranks for selective launch, model FLOPs for MFU, validity checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.emulator import DeviceEmulator
from repro.framework.engine import RecipeValidationError, TrainingEngine
from repro.framework.process_group import ProcessGroupRegistry
from repro.framework.recipe import TrainingRecipe
from repro.framework.topology import ParallelTopology
from repro.framework.transformer import TransformerModelSpec
from repro.framework.vision import ConvNetSpec, VisionModel
from repro.framework.worker import WorkerContext
from repro.framework import tensor as vt
from repro.hardware.cluster import ClusterSpec


class TrainingJob:
    """Common interface of emulatable training jobs."""

    name: str
    world_size: int
    global_batch_size: int

    def worker_fn(self, rank: int, emulator: DeviceEmulator) -> None:
        raise NotImplementedError

    def unique_ranks(self) -> List[int]:
        raise NotImplementedError

    def flops_per_iteration(self) -> float:
        raise NotImplementedError

    def validate(self) -> List[str]:
        return []

    def structural_signature(self) -> Tuple:
        """Key over everything that determines the emulated trace.

        Jobs with equal structural signatures emit identical API streams, so
        their :class:`~repro.core.pipeline.EmulationArtifacts` are
        interchangeable (the prediction service's artifact cache keys on
        this).
        """
        raise NotImplementedError

    def signature(self) -> Tuple:
        """Full prediction identity: structural signature plus any knobs
        that only influence runtime estimation."""
        return self.structural_signature()


class TransformerTrainingJob(TrainingJob):
    """A Megatron-style GPT training job under one recipe."""

    def __init__(
        self,
        model: TransformerModelSpec,
        recipe: TrainingRecipe,
        cluster: ClusterSpec,
        global_batch_size: int,
        iterations: int = 1,
        world_size: Optional[int] = None,
    ) -> None:
        self.model = model
        self.recipe = recipe
        self.cluster = cluster
        self.world_size = world_size if world_size is not None else cluster.world_size
        self.global_batch_size = global_batch_size
        self.iterations = iterations
        self.name = f"{model.name}-{recipe.short_name()}-{self.world_size}gpu"
        self._engine: Optional[TrainingEngine] = None

    # ------------------------------------------------------------------
    # validity / setup
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        return self.recipe.validate(
            world_size=self.world_size,
            global_batch_size=self.global_batch_size,
            num_layers=self.model.num_layers,
            num_heads=self.model.num_heads,
            gpus_per_node=self.cluster.gpus_per_node,
        )

    @property
    def engine(self) -> TrainingEngine:
        """Lazily-built training engine (raises on invalid recipes)."""
        if self._engine is None:
            self._engine = TrainingEngine(
                model=self.model,
                recipe=self.recipe,
                world_size=self.world_size,
                global_batch_size=self.global_batch_size,
                gpus_per_node=self.cluster.gpus_per_node,
            )
        return self._engine

    # ------------------------------------------------------------------
    # TrainingJob interface
    # ------------------------------------------------------------------
    def worker_fn(self, rank: int, emulator: DeviceEmulator) -> None:
        self.engine.run_worker(rank, emulator, iterations=self.iterations)

    def unique_ranks(self) -> List[int]:
        return self.engine.unique_ranks()

    def flops_per_iteration(self) -> float:
        """Model FLOPs of one optimizer step over the global batch."""
        return (self.model.flops_per_sample() * self.global_batch_size
                * self.iterations)

    def topology(self) -> ParallelTopology:
        return self.engine.topology

    def structural_signature(self) -> Tuple:
        return (
            "transformer",
            # The spec is a flat dataclass of scalars: walk its fields
            # (``dataclasses.asdict`` would deep-copy each one, 7 us a
            # call on the cache-hit path, for the identical tuple).
            tuple(sorted((name, getattr(self.model, name))
                         for name in self.model.__dataclass_fields__)),
            self.world_size,
            self.global_batch_size,
            self.iterations,
            self.recipe.structural_signature(),
        )

    def signature(self) -> Tuple:
        return self.structural_signature() + (("compiled", self.recipe.compiled),)


class VisionTrainingJob(TrainingJob):
    """A data-parallel (DDP) vision training job (Figure 10 / Table 4)."""

    def __init__(
        self,
        spec: ConvNetSpec,
        cluster: ClusterSpec,
        global_batch_size: int,
        compiled: bool = False,
        dtype: str = "float16",
        iterations: int = 1,
        world_size: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.cluster = cluster
        self.world_size = world_size if world_size is not None else cluster.world_size
        self.global_batch_size = global_batch_size
        self.compiled = compiled
        self.dtype = dtype
        self.iterations = iterations
        compile_tag = "-compiled" if compiled else ""
        self.name = f"{spec.name}{compile_tag}-bs{global_batch_size}-{self.world_size}gpu"
        self._groups = ProcessGroupRegistry()
        self._topology = ParallelTopology(
            world_size=self.world_size, tensor_parallel=1, pipeline_parallel=1
        )

    def validate(self) -> List[str]:
        problems = []
        if self.global_batch_size % self.world_size != 0:
            problems.append(
                f"global batch {self.global_batch_size} not divisible by "
                f"world size {self.world_size}"
            )
        return problems

    @property
    def local_batch_size(self) -> int:
        return self.global_batch_size // self.world_size

    def worker_fn(self, rank: int, emulator: DeviceEmulator) -> None:
        ctx = WorkerContext(rank, emulator, self._topology, self._groups,
                            dtype=self.dtype)
        model = VisionModel(self.spec, dtype=self.dtype, compiled=self.compiled)
        # Static state: parameters, gradients, optimizer moments.
        vt.empty(ctx.runtime, (model.parameter_bytes(),), dtype="uint8",
                 name="params")
        vt.empty(ctx.runtime, (self.spec.total_params * 4,), dtype="uint8",
                 name="grads")
        vt.empty(ctx.runtime, (self.spec.total_params * 8,), dtype="uint8",
                 name="optimizer_state")
        for iteration in range(self.iterations):
            emulator.mark(f"iteration-{iteration}-start")
            activations = vt.empty(
                ctx.runtime,
                (max(model.activation_bytes(self.local_batch_size), 1),),
                dtype="uint8", name="activations",
            )
            model.forward(ctx, self.local_batch_size)
            model.backward(ctx, self.local_batch_size)
            model.reduce_gradients(ctx)
            if ctx.dp_comm is not None:
                event = ctx.record_comm_event()
                ctx.wait_on_compute(event)
            model.optimizer_step(ctx)
            vt.free(ctx.runtime, activations)
            ctx.sync_device()
            emulator.mark(f"iteration-{iteration}-end")

    def unique_ranks(self) -> List[int]:
        # Pure data parallelism: every worker does identical work.
        return [0]

    def topology(self) -> ParallelTopology:
        return self._topology

    def flops_per_iteration(self) -> float:
        return (self.spec.flops_per_sample() * self.global_batch_size
                * self.iterations)

    def structural_signature(self) -> Tuple:
        # ``compiled`` changes the vision model's emitted kernels (fused
        # elementwise regions), so unlike the transformer job it is
        # structural here.  The spec is a nested dataclass; its repr is a
        # deterministic rendering of every field.
        return (
            "vision",
            repr(self.spec),
            self.world_size,
            self.global_batch_size,
            self.compiled,
            self.dtype,
            self.iterations,
        )
