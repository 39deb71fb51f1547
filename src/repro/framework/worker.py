"""Per-rank worker context.

The :class:`WorkerContext` bundles everything a single training worker
(rank) holds when running a real Megatron-LM / DeepSpeed job: its CUDA
context, cuBLAS / cuDNN handles, a dedicated communication stream, and NCCL
communicators for the tensor-, pipeline- and data-parallel groups.  Model
code issues device work through the small helper methods here, which keeps
the kernel vocabulary (and therefore the trace vocabulary) consistent with
the kernel names listed in Tables 7-9 of the paper.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.emulator import DeviceEmulator
from repro.cuda.cublas import CublasHandle
from repro.cuda.cudnn import CudnnHandle
from repro.cuda.nccl import NcclCommunicator
from repro.cuda.runtime import DEFAULT_STREAM, CudaRuntime
from repro.framework.process_group import ProcessGroupRegistry
from repro.framework.topology import ParallelTopology
from repro.hardware.kernel_cost import dtype_size


class WorkerContext:
    """Execution context of one training worker."""

    def __init__(
        self,
        rank: int,
        emulator: DeviceEmulator,
        topology: ParallelTopology,
        groups: ProcessGroupRegistry,
        dtype: str = "bfloat16",
    ) -> None:
        self.rank = rank
        self.emulator = emulator
        self.runtime: CudaRuntime = emulator.runtime
        self.topology = topology
        self.dtype = dtype

        self.compute_stream = DEFAULT_STREAM
        self.comm_stream = self.runtime.cuda_stream_create().stream_id
        # Dedicated streams for pipeline point-to-point transfers, as in
        # Megatron's batched isend/irecv: receives must never queue behind
        # sends (or vice versa) on the compute stream, otherwise deep
        # pipelines can deadlock.  Ordering against compute is expressed
        # with CUDA events (see TrainingEngine._p2p).
        self.p2p_send_stream = self.runtime.cuda_stream_create().stream_id
        self.p2p_recv_stream = self.runtime.cuda_stream_create().stream_id

        self.cublas = CublasHandle(self.runtime)
        self.cublas.set_stream(self.compute_stream)
        self.cudnn = CudnnHandle(self.runtime)
        self.cudnn.set_stream(self.compute_stream)

        self.tp_comm = self._maybe_group(groups, "tp",
                                         topology.tensor_parallel_group(rank))
        self.pp_comm = self._maybe_group(groups, "pp",
                                         topology.pipeline_parallel_group(rank))
        self.dp_comm = self._maybe_group(groups, "dp",
                                         topology.data_parallel_group(rank))
        #: Extra communicators (e.g. embedding group, expert parallel).
        self.extra_comms: Dict[str, NcclCommunicator] = {}

    def _maybe_group(self, groups: ProcessGroupRegistry, tag: str,
                     ranks) -> Optional[NcclCommunicator]:
        if len(ranks) <= 1:
            return None
        return groups.init_communicator(self.runtime, tag, self.rank, ranks)

    # ------------------------------------------------------------------
    # coordinates
    # ------------------------------------------------------------------
    @property
    def dp_rank(self) -> int:
        return self.topology.coords_of(self.rank)[0]

    @property
    def pp_rank(self) -> int:
        return self.topology.coords_of(self.rank)[1]

    @property
    def tp_rank(self) -> int:
        return self.topology.coords_of(self.rank)[2]

    @property
    def dp_degree(self) -> int:
        return self.topology.data_parallel

    # ------------------------------------------------------------------
    # kernel helpers (GEMM family)
    # ------------------------------------------------------------------
    def gemm(self, m: int, n: int, k: int, batch: int = 1,
             dtype: Optional[str] = None) -> None:
        """Dense matrix multiplication on the compute stream."""
        dtype = dtype or self.dtype
        if dtype in ("float16", "bfloat16"):
            self.cublas.hgemm(m, n, k, batch=batch)
        else:
            self.cublas.sgemm(m, n, k, batch=batch)

    def lt_matmul(self, m: int, n: int, k: int, batch: int = 1,
                  dtype: Optional[str] = None) -> None:
        self.cublas.lt_matmul(m, n, k, dtype=dtype or self.dtype, batch=batch)

    # ------------------------------------------------------------------
    # kernel helpers (memory-bound)
    # ------------------------------------------------------------------
    def _elementwise(self, api: str, kernel_class: str, elements: int,
                     traffic_factor: float = 2.0,
                     dtype: Optional[str] = None,
                     extra: Optional[Dict[str, object]] = None) -> None:
        dtype = dtype or self.dtype
        params: Dict[str, object] = {
            "elements": float(elements),
            "bytes": float(elements * dtype_size(dtype) * traffic_factor),
            "dtype": dtype,
        }
        if extra:
            params.update(extra)
        self.runtime.launch_kernel(api=api, kernel_class=kernel_class,
                                   params=params, stream=self.compute_stream)

    def layer_norm(self, elements: int, backward: bool = False) -> None:
        api = "cuComputeGradInput" if backward else "cuApplyLayerNorm"
        self._elementwise(api, "layernorm", elements, traffic_factor=3.0)

    def layer_norm_grad_weights(self, elements: int) -> None:
        self._elementwise("cuComputeGradGammaBeta", "layernorm", elements,
                          traffic_factor=2.0)

    def softmax(self, elements: int, backward: bool = False,
                masked: bool = True) -> None:
        prefix = "masked_softmax_warp" if masked else "softmax_warp"
        api = f"{prefix}_backward" if backward else f"{prefix}_forward"
        self._elementwise(api, "softmax", elements, traffic_factor=2.5)

    def dropout(self, elements: int, backward: bool = False) -> None:
        api = ("vectorized_elementwise_kernel" if backward
               else "fused_dropout_kernel_vec")
        self._elementwise(api, "dropout", elements, traffic_factor=2.5)

    def gelu(self, elements: int, backward: bool = False) -> None:
        api = "unrolled_elementwise_kernel" if backward else "elementwise_kernel"
        self._elementwise(api, "elementwise", elements, traffic_factor=2.0)

    def add(self, elements: int) -> None:
        self._elementwise("vectorized_elementwise_kernel", "elementwise",
                          elements, traffic_factor=3.0)

    def scale(self, elements: int) -> None:
        self._elementwise("elementwise_kernel", "elementwise", elements,
                          traffic_factor=2.0)

    def cast(self, elements: int) -> None:
        self._elementwise("unrolled_elementwise_kernel", "elementwise",
                          elements, traffic_factor=1.5)

    def reduce(self, elements: int) -> None:
        self._elementwise("reduce_kernel", "reduce", elements,
                          traffic_factor=1.0)

    def embedding_lookup(self, tokens: int, hidden: int,
                         backward: bool = False) -> None:
        api = "compute_grad_weight" if backward else "indexSelectLargeIndex"
        self._elementwise(api, "embedding", tokens * hidden, traffic_factor=2.0)

    def cross_entropy(self, tokens: int, vocab: int,
                      backward: bool = False) -> None:
        api = ("nll_loss_backward_reduce_cuda_kernel_2d" if backward
               else "nll_loss_forward_reduce_cuda_kernel_2d")
        self._elementwise(api, "cross_entropy", tokens * vocab,
                          traffic_factor=1.0, dtype="float32")

    def optimizer_apply(self, numel: int) -> None:
        """Fused Adam-style parameter update (multi_tensor_apply)."""
        self._elementwise("multi_tensor_apply_kernel", "optimizer_apply",
                          numel, traffic_factor=6.0, dtype="float32")

    def fused_triton(self, elements: int, instructions: int) -> None:
        """A ``torch.compile``-generated fused Triton kernel.

        ``instructions`` is the number of primitive Triton ops in the kernel
        body; Appendix B uses it as the key feature for runtime prediction.
        """
        dtype = self.dtype
        self.runtime.launch_kernel(
            api="triton", kernel_class="fused_triton",
            params={
                "elements": float(elements),
                "bytes": float(elements * dtype_size(dtype) * 2.0),
                "flops": float(elements * instructions),
                "instructions": float(instructions),
                "dtype": dtype,
            },
            stream=self.compute_stream,
        )

    # ------------------------------------------------------------------
    # memory traffic helpers
    # ------------------------------------------------------------------
    def copy_h2d(self, nbytes: int) -> None:
        self.runtime.cuda_memcpy_async(nbytes, "h2d", stream=self.compute_stream)

    def copy_d2h(self, nbytes: int) -> None:
        self.runtime.cuda_memcpy_async(nbytes, "d2h", stream=self.compute_stream)

    # ------------------------------------------------------------------
    # synchronisation helpers
    # ------------------------------------------------------------------
    def record_comm_event(self):
        """Record an event on the comm stream (for overlap fences)."""
        event = self.runtime.cuda_event_create()
        self.runtime.cuda_event_record(event, stream=self.comm_stream)
        return event

    def wait_on_compute(self, event) -> None:
        """Make the compute stream wait for ``event``."""
        self.runtime.cuda_stream_wait_event(self.compute_stream, event)

    def sync_device(self) -> None:
        self.runtime.cuda_device_synchronize()
