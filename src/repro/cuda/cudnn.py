"""cuDNN front-end for the virtual runtime.

Provides the convolution / pooling entry points vision workloads exercise
(ResNet152 in Figure 10 of the paper).  Descriptors are configured
incrementally, mirroring cuDNN's stateful API, and launches carry the full
convolution geometry so the cost model and the learned estimators can
reproduce the per-kernel accuracy reported in Table 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cuda.errors import CudaInvalidHandleError, CudaInvalidValueError
from repro.cuda.runtime import DEFAULT_STREAM, CudaRuntime
from repro.hardware.kernel_cost import dtype_size


@dataclass
class ConvolutionDescriptor:
    """Geometry of a 2D convolution."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0

    def output_hw(self, height: int, width: int) -> Tuple[int, int]:
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        return out_h, out_w


class CudnnHandle:
    """A ``cudnnHandle_t`` bound to one device context."""

    def __init__(self, runtime: CudaRuntime) -> None:
        self._runtime = runtime
        self._stream = DEFAULT_STREAM
        self._destroyed = False
        self._conv_desc: Optional[ConvolutionDescriptor] = None

    def set_stream(self, stream_id: int) -> None:
        """``cudnnSetStream``."""
        self._check_alive()
        self._stream = stream_id
        self._runtime.note_config_change()

    def set_convolution_descriptor(self, desc: ConvolutionDescriptor) -> None:
        """``cudnnSetConvolution2dDescriptor``."""
        self._check_alive()
        if desc.kernel_size <= 0 or desc.stride <= 0:
            raise CudaInvalidValueError("invalid convolution descriptor")
        self._conv_desc = desc
        self._runtime.note_config_change()

    def destroy(self) -> None:
        self._destroyed = True
        self._runtime.note_config_change()

    # ------------------------------------------------------------------
    # convolution launches
    # ------------------------------------------------------------------
    def convolution_forward(self, batch: int, height: int, width: int,
                            dtype: str = "float16") -> None:
        self._launch("cudnnConvolutionForward", "conv_forward",
                     batch, height, width, dtype)

    def convolution_backward_data(self, batch: int, height: int, width: int,
                                  dtype: str = "float16") -> None:
        self._launch("cudnnConvolutionBackwardData", "conv_backward_data",
                     batch, height, width, dtype)

    def convolution_backward_filter(self, batch: int, height: int, width: int,
                                    dtype: str = "float16") -> None:
        self._launch("cudnnConvolutionBackwardFilter", "conv_backward_filter",
                     batch, height, width, dtype)

    def pooling_forward(self, batch: int, channels: int, height: int,
                        width: int, dtype: str = "float16") -> None:
        """``cudnnPoolingForward`` -- modelled as a memory-bound kernel."""
        self._check_alive()
        elements = batch * channels * height * width
        self._runtime.launch_kernel(
            api="cudnnPoolingForward", kernel_class="pool",
            params={"elements": float(elements),
                    "bytes": float(2 * elements * dtype_size(dtype)),
                    "dtype": dtype},
            stream=self._stream,
        )

    def _launch(self, api: str, kernel_class: str, batch: int, height: int,
                width: int, dtype: str) -> None:
        self._check_alive()
        if self._conv_desc is None:
            raise CudaInvalidHandleError(
                f"{api} called before cudnnSetConvolution2dDescriptor"
            )
        desc = self._conv_desc
        out_h, out_w = desc.output_hw(height, width)
        flops = (2.0 * batch * out_h * out_w * desc.out_channels
                 * desc.in_channels * desc.kernel_size * desc.kernel_size)
        width_bytes = dtype_size(dtype)
        nbytes = float(width_bytes * (
            batch * desc.in_channels * height * width
            + batch * desc.out_channels * out_h * out_w
            + desc.in_channels * desc.out_channels * desc.kernel_size ** 2
        ))
        self._runtime.launch_kernel(
            api=api, kernel_class=kernel_class,
            params={
                "flops": flops, "bytes": nbytes, "dtype": dtype,
                "batch": batch,
                "m": batch * out_h * out_w,
                "n": desc.out_channels,
                "k": desc.in_channels * desc.kernel_size ** 2,
            },
            stream=self._stream,
        )

    def _check_alive(self) -> None:
        if self._destroyed:
            raise CudaInvalidHandleError("cudnn handle used after destroy")
