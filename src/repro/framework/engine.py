"""Training engine: the per-rank "user training script".

:class:`TrainingEngine` is the piece of code Maya treats as an opaque
workload.  Given a transformer model and a :class:`TrainingRecipe` it builds
the rank's pipeline stage(s), allocates parameters / gradients / optimizer
state on the virtual device, and runs training iterations -- walking the
pipeline schedule, emitting forward/backward kernels, activation transfers,
gradient reductions and the optimizer step.

Everything Maya later predicts (iteration time, communication time, peak
memory, OOM behaviour) is a consequence of the API calls this engine issues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.emulator import DeviceEmulator
from repro.framework import tensor as vt
from repro.framework.optimizer import MixedPrecisionAdam, OptimizerConfig
from repro.framework.process_group import ProcessGroupRegistry
from repro.framework.recipe import TrainingRecipe
from repro.framework.schedules import PipelineAction, build_schedule
from repro.framework.topology import ParallelTopology
from repro.framework.transformer import (
    ParallelConfig,
    TransformerModelSpec,
    TransformerStage,
    split_layers,
)
from repro.framework.worker import WorkerContext
from repro.hardware.kernel_cost import dtype_size


class RecipeValidationError(ValueError):
    """Raised when a training recipe cannot be applied to a model/cluster."""


@dataclass
class _ChunkState:
    """Per model-chunk runtime state on one rank."""

    stage: TransformerStage
    param_tensor: Optional[vt.VirtualTensor] = None
    grad_tensor: Optional[vt.VirtualTensor] = None
    #: Activation buffers keyed by microbatch id.
    activations: Dict[int, vt.VirtualTensor] = field(default_factory=dict)
    #: Temporarily gathered full parameters (ZeRO-3 / FSDP).
    gathered_params: Optional[vt.VirtualTensor] = None


class TrainingEngine:
    """Executes Megatron-style training iterations for every rank of a job."""

    def __init__(
        self,
        model: TransformerModelSpec,
        recipe: TrainingRecipe,
        world_size: int,
        global_batch_size: int,
        gpus_per_node: Optional[int] = None,
    ) -> None:
        problems = recipe.validate(
            world_size=world_size,
            global_batch_size=global_batch_size,
            num_layers=model.num_layers,
            num_heads=model.num_heads,
            gpus_per_node=gpus_per_node,
        )
        if problems:
            raise RecipeValidationError("; ".join(problems))

        self.model = model
        self.recipe = recipe
        self.world_size = world_size
        self.global_batch_size = global_batch_size
        self.topology = ParallelTopology(
            world_size=world_size,
            tensor_parallel=recipe.tensor_parallel,
            pipeline_parallel=recipe.pipeline_parallel,
        )
        self.groups = ProcessGroupRegistry()
        self.micro_batch_size = recipe.micro_batch_size(global_batch_size,
                                                        world_size)
        self.layer_split = split_layers(model.num_layers,
                                        recipe.pipeline_parallel,
                                        recipe.virtual_stages)
        self.optimizer_config = OptimizerConfig(
            distributed=recipe.distributed_optimizer,
            zero_stage=recipe.zero_stage,
            offload=recipe.offload,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def unique_ranks(self) -> List[int]:
        """Ranks with distinct traces (selective launch, Section 7.4)."""
        return self.topology.unique_ranks()

    def run_worker(self, rank: int, emulator: DeviceEmulator,
                   iterations: int = 1) -> None:
        """Emulate ``iterations`` training steps for global ``rank``."""
        ctx = WorkerContext(rank, emulator, self.topology, self.groups,
                            dtype=self.recipe.dtype)
        chunks = self._build_chunks(ctx)
        optimizer = MixedPrecisionAdam(
            self.optimizer_config,
            local_params=sum(chunk.stage.local_params() for chunk in chunks),
            dp_degree=self.topology.data_parallel,
        )
        self._allocate_static_state(ctx, chunks, optimizer)
        for iteration in range(iterations):
            emulator.mark(f"iteration-{iteration}-start")
            self._run_iteration(ctx, chunks, optimizer)
            emulator.mark(f"iteration-{iteration}-end")

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _build_chunks(self, ctx: WorkerContext) -> List[_ChunkState]:
        parallel = ParallelConfig(
            tensor_parallel=self.recipe.tensor_parallel,
            sequence_parallel=self.recipe.sequence_parallelism,
            activation_recomputation=self.recipe.activation_recomputation,
        )
        pp_rank = ctx.pp_rank
        pp_size = self.recipe.pipeline_parallel
        num_chunks = self.recipe.virtual_stages
        chunk_sizes = self.layer_split[pp_rank]
        chunks: List[_ChunkState] = []
        for chunk_idx, layers in enumerate(chunk_sizes):
            is_first_chunk = pp_rank == 0 and chunk_idx == 0
            is_last_chunk = (pp_rank == pp_size - 1
                             and chunk_idx == num_chunks - 1)
            stage = TransformerStage(
                model=self.model,
                parallel=parallel,
                num_layers=layers,
                has_embedding=is_first_chunk,
                has_lm_head=is_last_chunk,
                dtype=self.recipe.dtype,
            )
            chunks.append(_ChunkState(stage=stage))
        return chunks

    def _allocate_static_state(self, ctx: WorkerContext,
                               chunks: List[_ChunkState],
                               optimizer: MixedPrecisionAdam) -> None:
        width = dtype_size(self.recipe.dtype)
        dp = max(self.topology.data_parallel, 1)
        for chunk in chunks:
            params = chunk.stage.local_params()
            param_bytes = params * width
            if self.optimizer_config.shards_parameters:
                param_bytes = max(param_bytes // dp, width)
            chunk.param_tensor = vt.empty(ctx.runtime, (param_bytes,),
                                          dtype="uint8", name="params")
            ctx.copy_h2d(param_bytes)  # weight initialisation / checkpoint load
        grad_bytes = optimizer.gradient_buffer_bytes()
        if grad_bytes:
            grad = vt.zeros(ctx.runtime, (grad_bytes,), dtype="uint8",
                            name="grads", stream=ctx.compute_stream)
            chunks[0].grad_tensor = grad
        state_bytes = optimizer.state_bytes()
        if state_bytes:
            vt.empty(ctx.runtime, (state_bytes,), dtype="uint8",
                     name="optimizer_state")

    # ------------------------------------------------------------------
    # one training iteration
    # ------------------------------------------------------------------
    def _run_iteration(self, ctx: WorkerContext, chunks: List[_ChunkState],
                       optimizer: MixedPrecisionAdam) -> None:
        schedule = build_schedule(
            pp_rank=ctx.pp_rank,
            pp_size=self.recipe.pipeline_parallel,
            num_microbatches=self.recipe.num_microbatches,
            virtual_stages=self.recipe.virtual_stages,
            kind=self.recipe.schedule,
        )
        for action in schedule:
            self._execute_action(ctx, chunks, action)
        self._finish_step(ctx, chunks, optimizer)

    def _execute_action(self, ctx: WorkerContext, chunks: List[_ChunkState],
                        action: PipelineAction) -> None:
        if action.kind == "forward":
            self._forward(ctx, chunks[action.chunk], action.microbatch)
        elif action.kind == "backward":
            self._backward(ctx, chunks[action.chunk], action.microbatch)
        elif action.kind in ("recv_fwd", "recv_bwd"):
            self._p2p(ctx, action, send=False)
        elif action.kind in ("send_fwd", "send_bwd"):
            self._p2p(ctx, action, send=True)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown pipeline action {action.kind}")

    # ------------------------------------------------------------------
    # compute actions
    # ------------------------------------------------------------------
    def _forward(self, ctx: WorkerContext, chunk: _ChunkState,
                 microbatch: int) -> None:
        self._maybe_gather_params(ctx, chunk)
        activation = vt.empty(
            ctx.runtime,
            (max(chunk.stage.activation_bytes(self.micro_batch_size), 1),),
            dtype="uint8", name="activations",
        )
        chunk.activations[microbatch] = activation
        # Pure kernel/collective work, the same for every microbatch: the
        # emulator logs a repeat from its first run (a shortcut of this
        # stand-in framework; see DeviceEmulator.replay_block).
        ctx.emulator.replay_block(chunk.stage.forward_microbatch, ctx,
                                  self.micro_batch_size)
        self._maybe_release_params(ctx, chunk)
        if self.recipe.offload:
            # Activation offloading: spill to host, keep only the handle.
            ctx.copy_d2h(activation.nbytes)
            vt.free(ctx.runtime, activation)

    def _backward(self, ctx: WorkerContext, chunk: _ChunkState,
                  microbatch: int) -> None:
        activation = chunk.activations.pop(microbatch, None)
        if self.recipe.offload:
            size = (max(chunk.stage.activation_bytes(self.micro_batch_size), 1),)
            activation = vt.empty(ctx.runtime, size, dtype="uint8",
                                  name="activations")
            ctx.copy_h2d(activation.nbytes)
        self._maybe_gather_params(ctx, chunk)
        ctx.emulator.replay_block(chunk.stage.backward_microbatch, ctx,
                                  self.micro_batch_size)
        if self.optimizer_config.shards_parameters and ctx.dp_comm is not None:
            # FSDP / ZeRO-3: reduce-scatter this chunk's gradients eagerly.
            ctx.dp_comm.reduce_scatter(chunk.stage.local_params(),
                                       dtype="float32", stream=ctx.comm_stream)
        self._maybe_release_params(ctx, chunk)
        if activation is not None:
            vt.free(ctx.runtime, activation)

    def _maybe_gather_params(self, ctx: WorkerContext,
                             chunk: _ChunkState) -> None:
        if not self.optimizer_config.shards_parameters:
            return
        if ctx.dp_comm is None or chunk.gathered_params is not None:
            return
        params = chunk.stage.local_params()
        width = dtype_size(self.recipe.dtype)
        chunk.gathered_params = vt.empty(ctx.runtime, (params * width,),
                                         dtype="uint8", name="gathered_params")
        ctx.dp_comm.all_gather(params, dtype=self.recipe.dtype,
                               stream=ctx.compute_stream)

    def _maybe_release_params(self, ctx: WorkerContext,
                              chunk: _ChunkState) -> None:
        if chunk.gathered_params is not None:
            vt.free(ctx.runtime, chunk.gathered_params)
            chunk.gathered_params = None

    # ------------------------------------------------------------------
    # pipeline communication
    # ------------------------------------------------------------------
    def _p2p(self, ctx: WorkerContext, action: PipelineAction,
             send: bool) -> None:
        if ctx.pp_comm is None:
            return
        peer_pp = action.peer
        assert peer_pp is not None
        peer_rank = self.topology.rank_of(ctx.dp_rank, peer_pp, ctx.tp_rank)
        tokens = self.micro_batch_size * self.model.seq_length
        if self.recipe.sequence_parallelism:
            tokens //= self.recipe.tensor_parallel
        elements = tokens * self.model.hidden_size
        runtime = ctx.runtime
        if send:
            # The payload is produced on the compute stream; fence the send
            # stream on it, then transfer without blocking compute.
            ready = runtime.cuda_event_create()
            runtime.cuda_event_record(ready, stream=ctx.compute_stream)
            runtime.cuda_stream_wait_event(ctx.p2p_send_stream, ready)
            ctx.pp_comm.send(elements, peer=peer_rank, dtype=self.recipe.dtype,
                             stream=ctx.p2p_send_stream)
        else:
            # Receive on a dedicated stream so a not-yet-arrived activation
            # never blocks outgoing sends, then make compute wait for it.
            ctx.pp_comm.recv(elements, peer=peer_rank, dtype=self.recipe.dtype,
                             stream=ctx.p2p_recv_stream)
            arrived = runtime.cuda_event_create()
            runtime.cuda_event_record(arrived, stream=ctx.p2p_recv_stream)
            runtime.cuda_stream_wait_event(ctx.compute_stream, arrived)

    # ------------------------------------------------------------------
    # end of step: gradient sync + optimizer
    # ------------------------------------------------------------------
    def _finish_step(self, ctx: WorkerContext, chunks: List[_ChunkState],
                     optimizer: MixedPrecisionAdam) -> None:
        if not self.optimizer_config.shards_parameters:
            optimizer.reduce_gradients(ctx)
        if ctx.dp_comm is not None:
            # The optimizer must observe fully-reduced gradients: fence the
            # compute stream on the communication stream.
            event = ctx.record_comm_event()
            ctx.wait_on_compute(event)
        optimizer.step(ctx)
        ctx.sync_device()
