"""cuBLAS front-end for the virtual runtime.

The paper highlights that "operations involving opaque libraries like cuBLAS
... are built incrementally": a handle is created, a stream is attached,
matrices are described, and only then is the GEMM launched.  This module
reproduces that stateful sequence so the emulator has to track it the same
way the real shim does.
"""

from __future__ import annotations

from repro.cuda.errors import CudaInvalidHandleError, CudaInvalidValueError
from repro.cuda.runtime import DEFAULT_STREAM, CudaRuntime
from repro.hardware.kernel_cost import dtype_size


class CublasHandle:
    """A ``cublasHandle_t`` bound to one device context."""

    def __init__(self, runtime: CudaRuntime) -> None:
        self._runtime = runtime
        self._stream = DEFAULT_STREAM
        self._destroyed = False

    # ------------------------------------------------------------------
    # state configuration
    # ------------------------------------------------------------------
    def set_stream(self, stream_id: int) -> None:
        """``cublasSetStream``."""
        self._check_alive()
        self._stream = stream_id
        self._runtime.note_config_change()

    def destroy(self) -> None:
        """``cublasDestroy``."""
        self._destroyed = True
        self._runtime.note_config_change()

    # ------------------------------------------------------------------
    # GEMM launches
    # ------------------------------------------------------------------
    def gemm_ex(
        self,
        m: int,
        n: int,
        k: int,
        dtype: str = "float16",
        batch: int = 1,
        api: str = "cublasGemmEx",
    ) -> None:
        """Launch a (possibly batched) GEMM of shape ``m x k @ k x n``."""
        self._check_alive()
        if min(m, n, k) <= 0 or batch <= 0:
            raise CudaInvalidValueError(
                f"invalid GEMM shape m={m} n={n} k={k} batch={batch}"
            )
        flops = 2.0 * m * n * k * batch
        width = dtype_size(dtype)
        nbytes = float(width * batch * (m * k + k * n + m * n))
        kernel_class = "batched_gemm" if batch > 1 else "gemm"
        self._runtime.launch_kernel(
            api=api,
            kernel_class=kernel_class,
            params={
                "m": m, "n": n, "k": k, "batch": batch,
                "flops": flops, "bytes": nbytes, "dtype": dtype,
            },
            stream=self._stream,
        )

    def sgemm(self, m: int, n: int, k: int, batch: int = 1) -> None:
        """``cublasSgemm_v2`` -- fp32 GEMM."""
        api = "cublasSgemmStridedBatched" if batch > 1 else "cublasSgemm_v2"
        self.gemm_ex(m, n, k, dtype="float32", batch=batch, api=api)

    def hgemm(self, m: int, n: int, k: int, batch: int = 1) -> None:
        """Half-precision GEMM (tensor-core path)."""
        api = "cublasGemmStridedBatchedEx" if batch > 1 else "cublasGemmEx"
        self.gemm_ex(m, n, k, dtype="float16", batch=batch, api=api)

    def lt_matmul(self, m: int, n: int, k: int, dtype: str = "bfloat16",
                  batch: int = 1) -> None:
        """``cublasLtMatmul`` -- the epilogue-fused matmul path."""
        self.gemm_ex(m, n, k, dtype=dtype, batch=batch, api="cublasLtMatmul")

    def _check_alive(self) -> None:
        if self._destroyed:
            raise CudaInvalidHandleError("cublas handle used after destroy")
