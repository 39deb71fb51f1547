"""Virtual device handles: pointers, streams and events.

The paper stresses that the emulator "creates and manages virtual resources
and handles that are returned to the application" and flags misuse (invalid
streams, uninitialised descriptors).  These classes are those handles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.cuda.errors import CudaInvalidHandleError


@dataclass(frozen=True)
class DevicePointer:
    """Opaque device memory pointer returned by ``cudaMalloc``."""

    address: int
    size: int
    device: int

    def __int__(self) -> int:
        return self.address


@dataclass
class CudaStream:
    """A CUDA stream handle.

    ``stream_id`` 0 is the default (legacy) stream of the device.
    """

    stream_id: int
    device: int
    priority: int = 0
    destroyed: bool = False

    def check_valid(self) -> None:
        if self.destroyed:
            raise CudaInvalidHandleError(
                f"stream {self.stream_id} on device {self.device} was destroyed"
            )


@dataclass
class CudaEvent:
    """A CUDA event handle.

    ``version`` counts how many times the event has been recorded; the
    simulator's wait map keys on ``(event_id, version)`` exactly as in
    Algorithm 3 of the paper.
    """

    event_id: int
    device: int
    version: int = 0
    recorded_on_stream: Optional[int] = None
    destroyed: bool = False

    def check_valid(self) -> None:
        if self.destroyed:
            raise CudaInvalidHandleError(f"event {self.event_id} was destroyed")


class HandleAllocator:
    """Monotonic id allocator shared by all handle namespaces of a device."""

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)

    def next_id(self) -> int:
        return next(self._counter)
