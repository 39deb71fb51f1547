"""The virtual CUDA runtime for a single device.

One :class:`CudaRuntime` instance represents the CUDA context a single
training worker (rank) sees.  It implements the device-management subset of
the CUDA runtime/driver API that deep-learning frameworks exercise --
memory, streams, events, copies and kernel launches -- while tracking state
so that queries (``cudaMemGetInfo``) and misuse (invalid handles, OOM)
behave like real hardware.

Compute never executes; each call is summarised as an
:class:`~repro.cuda.api_records.ApiCallRecord` and forwarded to the
registered interceptor, which is how Maya's transparent emulator observes
the workload.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cuda.api_records import ApiCallRecord, ApiKind
from repro.cuda.errors import CudaInvalidHandleError, CudaInvalidValueError
from repro.cuda.handles import CudaEvent, CudaStream, DevicePointer, HandleAllocator
from repro.cuda.memory import DeviceMemoryManager
from repro.hardware.gpu_specs import GPUSpec

Interceptor = Callable[[ApiCallRecord], None]

#: Default stream id (the CUDA legacy stream).
DEFAULT_STREAM = 0


class CudaRuntime:
    """Virtual CUDA context for one device owned by one worker."""

    def __init__(
        self,
        device: int,
        gpu: GPUSpec,
        interceptor: Optional[Interceptor] = None,
        reserved_bytes: int = 768 * 1024 * 1024,
    ) -> None:
        self.device = device
        self.gpu = gpu
        self.memory = DeviceMemoryManager(
            device=device,
            capacity_bytes=gpu.memory_bytes,
            reserved_bytes=reserved_bytes,
        )
        self._interceptor = interceptor
        self._handles = HandleAllocator()
        self._streams: Dict[int, CudaStream] = {
            DEFAULT_STREAM: CudaStream(stream_id=DEFAULT_STREAM, device=device)
        }
        self._events: Dict[int, CudaEvent] = {}
        self._kernel_count = 0
        #: Bumped by every call that changes what a later call emits or
        #: whether it raises: stream and communicator destroy, cuBLAS/cuDNN
        #: ``destroy`` and ``set_stream``,
        #: ``cudnnSetConvolution2dDescriptor``.  The emulator replays a
        #: recorded block of calls only under the value it was recorded at.
        self.config_epoch = 0
        #: NCCL communicators initialised on this device
        #: (:func:`~repro.cuda.nccl.comm_init_rank`).
        self.communicators: List[Any] = []

    # ------------------------------------------------------------------
    # interceptor plumbing
    # ------------------------------------------------------------------

    def _emit(self, record: ApiCallRecord) -> None:
        if self._interceptor is not None:
            self._interceptor(record)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def cuda_malloc(self, nbytes: int) -> DevicePointer:
        pointer = self.memory.malloc(nbytes)
        self._emit(ApiCallRecord(
            api="cudaMalloc", kind=ApiKind.MALLOC, device=self.device,
            params={"bytes": pointer.size},
        ))
        return pointer

    def cuda_free(self, pointer: DevicePointer) -> None:
        self.memory.free(pointer)
        self._emit(ApiCallRecord(
            api="cudaFree", kind=ApiKind.FREE, device=self.device,
            params={"bytes": pointer.size},
        ))

    def cuda_mem_get_info(self) -> tuple:
        info = self.memory.mem_get_info()
        self._emit(ApiCallRecord(
            api="cudaMemGetInfo", kind=ApiKind.QUERY, device=self.device,
            params={"free": info[0], "total": info[1]},
        ))
        return info

    def cuda_memcpy_async(
        self,
        nbytes: int,
        kind: str,
        stream: int = DEFAULT_STREAM,
        dtype: str = "uint8",
    ) -> None:
        """``cudaMemcpyAsync``; ``kind`` is one of h2d / d2h / d2d / h2h."""
        if nbytes < 0:
            raise CudaInvalidValueError("memcpy size must be non-negative")
        if kind not in ("h2d", "d2h", "d2d", "h2h"):
            raise CudaInvalidValueError(f"unknown memcpy kind '{kind}'")
        self._check_stream(stream)
        self._emit(ApiCallRecord(
            api="cudaMemcpyAsync", kind=ApiKind.MEMCPY, device=self.device,
            stream=stream, kernel_class=f"memcpy_{kind}",
            params={"bytes": float(nbytes), "dtype": dtype},
        ))

    def cuda_memset_async(self, nbytes: int, stream: int = DEFAULT_STREAM) -> None:
        self._check_stream(stream)
        self._emit(ApiCallRecord(
            api="cudaMemsetAsync", kind=ApiKind.MEMSET, device=self.device,
            stream=stream, kernel_class="memset",
            params={"bytes": float(nbytes)},
        ))

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def cuda_stream_create(self, priority: int = 0) -> CudaStream:
        stream = CudaStream(
            stream_id=self._handles.next_id(), device=self.device,
            priority=priority,
        )
        self._streams[stream.stream_id] = stream
        self._emit(ApiCallRecord(
            api="cudaStreamCreate", kind=ApiKind.STREAM, device=self.device,
            stream=stream.stream_id,
        ))
        return stream

    def cuda_stream_destroy(self, stream: CudaStream) -> None:
        self._lookup_stream(stream.stream_id).destroyed = True
        self.note_config_change()
        self._emit(ApiCallRecord(
            api="cudaStreamDestroy", kind=ApiKind.STREAM, device=self.device,
            stream=stream.stream_id,
        ))

    def cuda_stream_synchronize(self, stream: int = DEFAULT_STREAM) -> None:
        self._check_stream(stream)
        self._emit(ApiCallRecord(
            api="cudaStreamSynchronize", kind=ApiKind.STREAM_SYNCHRONIZE,
            device=self.device, stream=stream,
        ))

    def cuda_device_synchronize(self) -> None:
        self._emit(ApiCallRecord(
            api="cudaDeviceSynchronize", kind=ApiKind.DEVICE_SYNCHRONIZE,
            device=self.device,
        ))

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def cuda_event_create(self) -> CudaEvent:
        event = CudaEvent(event_id=self._handles.next_id(), device=self.device)
        self._events[event.event_id] = event
        self._emit(ApiCallRecord(
            api="cudaEventCreate", kind=ApiKind.EVENT_RECORD, device=self.device,
            event=event.event_id, params={"create": True},
        ))
        return event

    def cuda_event_record(self, event: CudaEvent,
                          stream: int = DEFAULT_STREAM) -> None:
        self._check_stream(stream)
        live = self._lookup_event(event.event_id)
        live.check_valid()
        live.version += 1
        live.recorded_on_stream = stream
        self._emit(ApiCallRecord(
            api="cudaEventRecord", kind=ApiKind.EVENT_RECORD, device=self.device,
            stream=stream, event=live.event_id,
            params={"version": live.version},
        ))

    def cuda_stream_wait_event(self, stream: int, event: CudaEvent) -> None:
        self._check_stream(stream)
        live = self._lookup_event(event.event_id)
        live.check_valid()
        # Waiting on a never-recorded event (version 0) is a legal no-op
        # in CUDA.
        self._emit(ApiCallRecord(
            api="cudaStreamWaitEvent", kind=ApiKind.STREAM_WAIT_EVENT,
            device=self.device, stream=stream, wait_event=live.event_id,
            params={"version": live.version},
        ))

    def cuda_event_synchronize(self, event: CudaEvent) -> None:
        live = self._lookup_event(event.event_id)
        live.check_valid()
        self._emit(ApiCallRecord(
            api="cudaEventSynchronize", kind=ApiKind.EVENT_SYNCHRONIZE,
            device=self.device, wait_event=live.event_id,
            params={"version": live.version},
        ))

    def cuda_event_destroy(self, event: CudaEvent) -> None:
        live = self._lookup_event(event.event_id)
        live.destroyed = True
        self._emit(ApiCallRecord(
            api="cudaEventDestroy", kind=ApiKind.EVENT_RECORD, device=self.device,
            event=live.event_id, params={"destroy": True},
        ))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch_kernel(
        self,
        api: str,
        kernel_class: str,
        params: Dict[str, Any],
        stream: int = DEFAULT_STREAM,
    ) -> None:
        """Enqueue a compute kernel (no-op; metadata only)."""
        self._check_stream(stream)
        self._kernel_count += 1
        self._emit(ApiCallRecord(
            api=api, kind=ApiKind.KERNEL, device=self.device, stream=stream,
            kernel_class=kernel_class, params=dict(params),
        ))

    def emit_collective(
        self,
        api: str,
        kernel_class: str,
        params: Dict[str, Any],
        collective: Dict[str, Any],
        stream: int = DEFAULT_STREAM,
    ) -> None:
        """Enqueue a collective operation (used by the NCCL front-end)."""
        self._check_stream(stream)
        self._emit(ApiCallRecord(
            api=api, kind=ApiKind.COLLECTIVE, device=self.device, stream=stream,
            kernel_class=kernel_class, params=dict(params),
            collective=dict(collective),
        ))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def kernel_count(self) -> int:
        """Number of kernels launched since runtime creation."""
        return self._kernel_count

    def count_kernels(self, count: int) -> None:
        """Count ``count`` kernel launches the emulator replayed from its
        call log instead of re-issuing them."""
        self._kernel_count += count

    def note_config_change(self) -> None:
        """Bump :attr:`config_epoch`."""
        self.config_epoch += 1

    def streams(self) -> List[CudaStream]:
        return list(self._streams.values())

    def _check_stream(self, stream_id: int) -> None:
        self._lookup_stream(stream_id).check_valid()

    def _lookup_stream(self, stream_id: int) -> CudaStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise CudaInvalidHandleError(
                f"stream {stream_id} does not exist on device {self.device}"
            ) from None

    def _lookup_event(self, event_id: int) -> CudaEvent:
        try:
            return self._events[event_id]
        except KeyError:
            raise CudaInvalidHandleError(
                f"event {event_id} does not exist on device {self.device}"
            ) from None
