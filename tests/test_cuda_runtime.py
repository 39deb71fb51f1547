"""Tests for the virtual CUDA runtime: memory, streams, events, libraries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda.api_records import ApiCallRecord, ApiKind
from repro.cuda.cublas import CublasHandle
from repro.cuda.cudnn import ConvolutionDescriptor, CudnnHandle
from repro.cuda.errors import (
    CudaInvalidHandleError,
    CudaInvalidValueError,
    CudaOutOfMemoryError,
    NcclError,
)
from repro.cuda.memory import DeviceMemoryManager
from repro.cuda.nccl import NcclUniqueId, comm_init_rank
from repro.cuda.runtime import CudaRuntime
from repro.hardware.gpu_specs import get_gpu


@pytest.fixture()
def runtime():
    records = []
    rt = CudaRuntime(device=0, gpu=get_gpu("V100"), interceptor=records.append,
                     reserved_bytes=0)
    rt.records = records  # type: ignore[attr-defined]
    return rt


class TestDeviceMemoryManager:
    def test_malloc_and_free_roundtrip(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=1 << 20)
        pointer = manager.malloc(1000)
        assert manager.owns(pointer)
        assert manager.allocated >= 1000
        manager.free(pointer)
        assert manager.allocated == 0
        assert not manager.owns(pointer)

    def test_oom_raised_when_capacity_exceeded(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=4096)
        with pytest.raises(CudaOutOfMemoryError):
            manager.malloc(8192)

    def test_reserved_bytes_reduce_capacity(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=10_000,
                                      reserved_bytes=9_000)
        with pytest.raises(CudaOutOfMemoryError):
            manager.malloc(2_000)

    def test_double_free_rejected(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=1 << 20)
        pointer = manager.malloc(128)
        manager.free(pointer)
        with pytest.raises(CudaInvalidValueError):
            manager.free(pointer)

    def test_negative_allocation_rejected(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=1 << 20)
        with pytest.raises(CudaInvalidValueError):
            manager.malloc(-1)

    def test_peak_tracks_high_watermark(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=1 << 20)
        a = manager.malloc(4096)
        b = manager.malloc(4096)
        manager.free(a)
        manager.free(b)
        assert manager.peak_allocated >= 8192
        manager.reset_peak()
        assert manager.peak_allocated == 0

    def test_mem_get_info_shape(self):
        manager = DeviceMemoryManager(device=0, capacity_bytes=1 << 20)
        free, total = manager.mem_get_info()
        assert total == 1 << 20
        assert free <= total

    @given(st.lists(st.integers(min_value=1, max_value=64 * 1024), min_size=1,
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_alloc_free_accounting_invariant(self, sizes):
        manager = DeviceMemoryManager(device=0, capacity_bytes=1 << 30)
        pointers = [manager.malloc(size) for size in sizes]
        assert manager.allocated == sum(p.size for p in pointers)
        for pointer in pointers:
            manager.free(pointer)
        assert manager.allocated == 0
        assert manager.stats().num_frees == len(sizes)


class TestCudaRuntime:
    def test_malloc_emits_record_and_tracks_memory(self, runtime):
        pointer = runtime.cuda_malloc(1 << 20)
        assert runtime.memory.allocated >= 1 << 20
        assert runtime.records[-1].api == "cudaMalloc"
        runtime.cuda_free(pointer)
        assert runtime.records[-1].api == "cudaFree"

    def test_mem_get_info_reflects_allocations(self, runtime):
        free_before, total = runtime.cuda_mem_get_info()
        runtime.cuda_malloc(1 << 24)
        free_after, _ = runtime.cuda_mem_get_info()
        assert free_after < free_before
        assert total == runtime.gpu.memory_bytes

    def test_kernel_launch_records_metadata(self, runtime):
        runtime.launch_kernel("myKernel", "elementwise",
                              {"elements": 10.0, "bytes": 40.0})
        record = runtime.records[-1]
        assert record.kind is ApiKind.KERNEL
        assert record.kernel_class == "elementwise"
        assert record.params["elements"] == 10.0
        assert runtime.kernel_count == 1

    def test_memcpy_validates_kind(self, runtime):
        with pytest.raises(CudaInvalidValueError):
            runtime.cuda_memcpy_async(10, "x2y")

    def test_stream_lifecycle(self, runtime):
        stream = runtime.cuda_stream_create()
        assert stream.stream_id != 0
        runtime.launch_kernel("k", "elementwise", {"bytes": 1.0},
                              stream=stream.stream_id)
        runtime.cuda_stream_destroy(stream)
        with pytest.raises(CudaInvalidHandleError):
            runtime.launch_kernel("k", "elementwise", {"bytes": 1.0},
                                  stream=stream.stream_id)

    def test_unknown_stream_rejected(self, runtime):
        with pytest.raises(CudaInvalidHandleError):
            runtime.cuda_stream_synchronize(999)

    def test_event_record_and_wait_sequence(self, runtime):
        stream = runtime.cuda_stream_create()
        event = runtime.cuda_event_create()
        runtime.cuda_event_record(event, stream=stream.stream_id)
        runtime.cuda_stream_wait_event(0, event)
        kinds = [record.kind for record in runtime.records]
        assert ApiKind.EVENT_RECORD in kinds
        assert ApiKind.STREAM_WAIT_EVENT in kinds
        wait = runtime.records[-1]
        assert wait.params["version"] == 1

    def test_event_version_increments_per_record(self, runtime):
        event = runtime.cuda_event_create()
        runtime.cuda_event_record(event)
        runtime.cuda_event_record(event)
        assert runtime.records[-1].params["version"] == 2

    def test_event_synchronize_waits_on_the_recorded_version(self, runtime):
        event = runtime.cuda_event_create()
        runtime.cuda_event_record(event)
        runtime.cuda_event_synchronize(event)
        sync = runtime.records[-1]
        assert sync.kind is ApiKind.EVENT_SYNCHRONIZE
        assert sync.wait_event == event.event_id
        assert sync.params["version"] == 1

    def test_destroyed_event_rejected(self, runtime):
        event = runtime.cuda_event_create()
        runtime.cuda_event_destroy(event)
        with pytest.raises(CudaInvalidHandleError):
            runtime.cuda_event_record(event)

    def test_device_synchronize_emits_record(self, runtime):
        runtime.cuda_device_synchronize()
        assert runtime.records[-1].kind is ApiKind.DEVICE_SYNCHRONIZE


class TestCublas:
    def test_gemm_metadata(self, runtime):
        handle = CublasHandle(runtime)
        handle.set_stream(0)
        handle.gemm_ex(128, 256, 512, dtype="float16")
        record = runtime.records[-1]
        assert record.kernel_class == "gemm"
        assert record.params["flops"] == pytest.approx(2.0 * 128 * 256 * 512)

    def test_batched_gemm_uses_batched_class(self, runtime):
        handle = CublasHandle(runtime)
        handle.hgemm(64, 64, 64, batch=12)
        assert runtime.records[-1].kernel_class == "batched_gemm"
        assert runtime.records[-1].params["batch"] == 12

    def test_sgemm_uses_fp32(self, runtime):
        handle = CublasHandle(runtime)
        handle.sgemm(32, 32, 32)
        assert runtime.records[-1].params["dtype"] == "float32"
        assert runtime.records[-1].api == "cublasSgemm_v2"

    def test_invalid_shape_rejected(self, runtime):
        handle = CublasHandle(runtime)
        with pytest.raises(CudaInvalidValueError):
            handle.gemm_ex(0, 4, 4)

    def test_destroyed_handle_rejected(self, runtime):
        handle = CublasHandle(runtime)
        handle.destroy()
        with pytest.raises(CudaInvalidHandleError):
            handle.gemm_ex(4, 4, 4)


class TestCudnn:
    def test_convolution_requires_descriptor(self, runtime):
        handle = CudnnHandle(runtime)
        with pytest.raises(CudaInvalidHandleError):
            handle.convolution_forward(1, 32, 32)

    def test_convolution_forward_metadata(self, runtime):
        handle = CudnnHandle(runtime)
        handle.set_convolution_descriptor(ConvolutionDescriptor(
            in_channels=64, out_channels=128, kernel_size=3, padding=1))
        handle.convolution_forward(8, 56, 56)
        record = runtime.records[-1]
        assert record.api == "cudnnConvolutionForward"
        assert record.kernel_class == "conv_forward"
        assert record.params["flops"] > 0

    def test_backward_kernels_have_distinct_classes(self, runtime):
        handle = CudnnHandle(runtime)
        handle.set_convolution_descriptor(ConvolutionDescriptor(
            in_channels=16, out_channels=16, kernel_size=3, padding=1))
        handle.convolution_backward_data(2, 14, 14)
        handle.convolution_backward_filter(2, 14, 14)
        classes = [record.kernel_class for record in runtime.records[-2:]]
        assert classes == ["conv_backward_data", "conv_backward_filter"]

    def test_invalid_descriptor_rejected(self, runtime):
        handle = CudnnHandle(runtime)
        with pytest.raises(CudaInvalidValueError):
            handle.set_convolution_descriptor(ConvolutionDescriptor(
                in_channels=4, out_channels=4, kernel_size=0))


class TestNccl:
    def test_collective_carries_comm_identity(self, runtime):
        unique = NcclUniqueId.generate(tag="dp")
        comm = comm_init_rank(runtime, unique, rank=0, world_ranks=[0, 1, 2, 3])
        comm.all_reduce(1024, dtype="float16")
        record = runtime.records[-1]
        assert record.kind is ApiKind.COLLECTIVE
        assert record.collective["comm_id"] == unique.value
        assert record.collective["nranks"] == 4
        assert record.collective["seq"] == 1
        assert record.params["bytes"] == pytest.approx(2048.0)

    def test_sequence_numbers_increment(self, runtime):
        comm = comm_init_rank(runtime, NcclUniqueId.generate("tp"), 0, [0, 1])
        comm.all_gather(10)
        comm.reduce_scatter(10)
        assert runtime.records[-1].collective["seq"] == 2

    def test_rank_must_belong_to_group(self, runtime):
        with pytest.raises(NcclError):
            comm_init_rank(runtime, NcclUniqueId.generate(), 5, [0, 1])

    def test_duplicate_ranks_rejected(self, runtime):
        with pytest.raises(NcclError):
            comm_init_rank(runtime, NcclUniqueId.generate(), 0, [0, 0, 1])

    def test_send_requires_member_peer(self, runtime):
        comm = comm_init_rank(runtime, NcclUniqueId.generate("pp"), 0, [0, 4])
        with pytest.raises(NcclError):
            comm.send(16, peer=2)
        comm.send(16, peer=4)
        assert runtime.records[-1].collective["peer"] == 4

    def test_destroyed_communicator_rejected(self, runtime):
        comm = comm_init_rank(runtime, NcclUniqueId.generate(), 0, [0, 1])
        comm.destroy()
        with pytest.raises(NcclError):
            comm.all_reduce(4)

    def test_unique_ids_are_unique(self):
        assert NcclUniqueId.generate().value != NcclUniqueId.generate().value
