"""Virtual tensors.

A :class:`VirtualTensor` is a shape + dtype + device allocation, with no
numerical payload.  The paper's key observation -- that DLT control flow does
not depend on computed values -- means a tensor's metadata is all the
framework needs to drive the same sequence of device API calls the real
workload would issue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.cuda.handles import DevicePointer
from repro.cuda.runtime import CudaRuntime
from repro.hardware.kernel_cost import dtype_size


@dataclass
class VirtualTensor:
    """A device tensor described only by metadata."""

    shape: Tuple[int, ...]
    dtype: str = "bfloat16"
    pointer: Optional[DevicePointer] = None
    name: str = ""

    @property
    def numel(self) -> int:
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.numel * dtype_size(self.dtype)

    def __post_init__(self) -> None:
        if any(dim < 0 for dim in self.shape):
            raise ValueError(f"negative dimension in shape {self.shape}")


def empty(
    runtime: CudaRuntime,
    shape: Sequence[int],
    dtype: str = "bfloat16",
    name: str = "",
) -> VirtualTensor:
    """Allocate an uninitialised tensor on the device (``torch.empty``)."""
    tensor = VirtualTensor(shape=tuple(int(d) for d in shape), dtype=dtype,
                           name=name)
    tensor.pointer = runtime.cuda_malloc(tensor.nbytes)
    return tensor


def zeros(
    runtime: CudaRuntime,
    shape: Sequence[int],
    dtype: str = "bfloat16",
    name: str = "",
    stream: int = 0,
) -> VirtualTensor:
    """Allocate a zero-initialised tensor (``torch.zeros``): malloc + memset."""
    tensor = empty(runtime, shape, dtype, name)
    runtime.cuda_memset_async(tensor.nbytes, stream=stream)
    return tensor


def free(runtime: CudaRuntime, tensor: VirtualTensor) -> None:
    """Release a tensor's device allocation."""
    if tensor.pointer is not None:
        runtime.cuda_free(tensor.pointer)
        tensor.pointer = None
