"""Transparent device emulation.

:class:`DeviceEmulator` is Maya's virtual runtime for one worker: it owns a
:class:`~repro.cuda.runtime.CudaRuntime`, registers itself as the API
interceptor and records every intercepted call as rows of its trace's
columns (:class:`~repro.core.trace.TraceColumns`; no event objects are
built).  Two rows are produced per call:

* a ``HOST_DELAY`` row carrying the *deterministic* host-side cost of
  dispatching the call (``HostModel.base_cost``) plus, in ``params``, the
  call class and the per-worker call sequence number -- the paper measures
  this delta between API calls during emulation and replays it in the
  simulator; the per-call jitter term is synthesised by the simulation
  engine at replay time from the host-model profile recorded in the trace
  metadata, and replay is bit-identical to baking the jitter in here, and
* for device work and synchronisation primitives, the device-side event
  itself (kernel, memcpy, collective, event record, stream wait, ...).

:class:`EmulationSession` orchestrates per-rank emulators for a whole job,
catching out-of-memory failures so that OOM configurations are reported
rather than crashing the search (Section 5.2 relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.cuda.api_records import ApiCallRecord, ApiKind
from repro.cuda.errors import CudaError, CudaOutOfMemoryError
from repro.cuda.runtime import CudaRuntime
from repro.core.trace import (
    K_HOST_DELAY,
    K_MARKER,
    KIND_CODES,
    JobTrace,
    TraceEventKind,
    WorkerTrace,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu_specs import GPUSpec
from repro.hardware.host_model import HOST_MODEL_METADATA_KEY, HostModel

#: Maps API-call kinds onto trace kind codes for device-visible operations;
#: the other kinds (malloc, free, queries, ...) only contribute host overhead.
_KIND_MAP = {
    api_kind: KIND_CODES[TraceEventKind(api_kind.value)]
    for api_kind in (ApiKind.KERNEL, ApiKind.MEMCPY, ApiKind.MEMSET,
                     ApiKind.COLLECTIVE, ApiKind.EVENT_RECORD,
                     ApiKind.STREAM_WAIT_EVENT, ApiKind.EVENT_SYNCHRONIZE,
                     ApiKind.STREAM_SYNCHRONIZE, ApiKind.DEVICE_SYNCHRONIZE)
}


def _host_call_class(record: ApiCallRecord) -> str:
    """Dispatch-cost class used by the host model for this API call."""
    if record.kind is ApiKind.KERNEL:
        kernel_class = record.kernel_class or ""
        if kernel_class in ("gemm", "batched_gemm"):
            return "gemm"
        if kernel_class.startswith("conv"):
            return "conv"
        if kernel_class == "optimizer_apply":
            return "optimizer"
        return "kernel_launch"
    return {
        ApiKind.MEMCPY: "memcpy",
        ApiKind.MEMSET: "memset",
        ApiKind.MALLOC: "malloc",
        ApiKind.FREE: "free",
        ApiKind.COLLECTIVE: "collective",
        ApiKind.EVENT_RECORD: "event",
        ApiKind.STREAM_WAIT_EVENT: "event",
        ApiKind.EVENT_SYNCHRONIZE: "sync",
        ApiKind.STREAM_SYNCHRONIZE: "sync",
        ApiKind.DEVICE_SYNCHRONIZE: "sync",
        ApiKind.STREAM: "stream",
        ApiKind.QUERY: "misc",
        ApiKind.LIBRARY: "misc",
    }.get(record.kind, "misc")


class DeviceEmulator:
    """Maya's virtual device runtime for a single worker."""

    def __init__(
        self,
        rank: int,
        device: int,
        gpu: GPUSpec,
        host_model: Optional[HostModel] = None,
        record_host_delays: bool = True,
    ) -> None:
        self.rank = rank
        self.device = device
        self.gpu = gpu
        self.host_model = host_model or HostModel()
        self.record_host_delays = record_host_delays
        self.trace = WorkerTrace(rank=rank, device=device)
        if record_host_delays:
            # Replay-side jitter synthesis needs the seed namespace and the
            # jitter magnitude of the model that produced the base costs.
            self.trace.metadata[HOST_MODEL_METADATA_KEY] = \
                self.host_model.trace_profile()
        self.runtime = CudaRuntime(device=device, gpu=gpu,
                                   interceptor=self._intercept)
        self._call_counter = 0
        #: (call class, API) -> template id of its host-delay rows: equal
        #: string pairs are equal shapes, so only the first is interned.
        self._delay_templates: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # interception
    # ------------------------------------------------------------------
    def _intercept(self, record: ApiCallRecord) -> None:
        self._call_counter += 1
        columns = self.trace.columns
        if self.record_host_delays:
            call_class = _host_call_class(record)
            # Record only the deterministic base cost; "seq" lets the
            # simulation engine re-apply this call's jitter factor at
            # replay time (bit-identical to jittering here).
            shape = (call_class, record.api)
            self._delay_templates[shape] = columns.record(
                K_HOST_DELAY, "hostDelay", self.device,
                duration=self.host_model.base_cost(call_class),
                params={"call_class": call_class, "after": record.api,
                        "seq": self._call_counter},
                template=self._delay_templates.get(shape))
        code = _KIND_MAP.get(record.kind)
        if code is not None:
            columns.record(code, record.api, self.device, record.stream,
                           record.kernel_class, record.params,
                           record.collective or None, record.event,
                           record.wait_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def mark(self, label: str) -> None:
        """Insert a marker event (iteration boundaries, phases...)."""
        self.trace.columns.record(K_MARKER, "marker", self.device,
                                  params={"label": label})

    def finalize(self) -> WorkerTrace:
        """Record end-of-emulation statistics and return the trace."""
        self.trace.peak_memory_bytes = self.runtime.memory.peak_allocated
        self.trace.metadata.setdefault("kernel_count", self.runtime.kernel_count)
        self.trace.metadata.setdefault("api_calls", self._call_counter)
        return self.trace


#: Signature of a per-rank workload body: receives the rank and its emulator.
WorkerFn = Callable[[int, DeviceEmulator], None]


@dataclass
class EmulationResult:
    """Output of an emulation session."""

    job_trace: JobTrace
    oom: bool
    #: Ranks whose emulation raised an error other than OOM (should be empty).
    failed_ranks: Dict[int, str]


class EmulationSession:
    """Runs per-rank emulation for a whole distributed job.

    The paper launches one OS process per rank; this reproduction runs ranks
    sequentially in-process, which preserves the captured API streams (DLT
    control flow does not depend on peers' data).
    """

    def __init__(self, cluster: ClusterSpec,
                 host_model: Optional[HostModel] = None) -> None:
        self.cluster = cluster
        self.host_model = host_model or cluster.host

    def create_emulator(self, rank: int) -> DeviceEmulator:
        return DeviceEmulator(
            rank=rank,
            device=self.cluster.local_rank(rank),
            gpu=self.cluster.gpu,
            host_model=self.host_model,
        )

    def run(
        self,
        worker_fn: WorkerFn,
        ranks: Optional[Sequence[int]] = None,
        world_size: Optional[int] = None,
        stop_on_oom: bool = True,
    ) -> EmulationResult:
        """Emulate ``worker_fn`` for every rank in ``ranks``.

        Parameters
        ----------
        worker_fn:
            Callable executed once per emulated rank.  It receives the global
            rank and its :class:`DeviceEmulator` and issues device API calls
            through ``emulator.runtime`` (usually via the mini framework).
        ranks:
            Ranks to emulate.  Defaults to every rank in the cluster; the
            selective-launch optimisation of Section 7.4 passes a subset.
        world_size:
            Logical world size recorded in the job trace (defaults to the
            cluster size).
        stop_on_oom:
            When true, the first OOM aborts remaining ranks -- all ranks run
            the same memory footprint, so one OOM condemns the config.
        """
        world = world_size if world_size is not None else self.cluster.world_size
        target_ranks = list(ranks) if ranks is not None else list(range(world))
        job = JobTrace(world_size=world)
        failed: Dict[int, str] = {}
        oom = False

        for rank in target_ranks:
            emulator = self.create_emulator(rank)
            try:
                worker_fn(rank, emulator)
            except CudaOutOfMemoryError as exc:
                emulator.trace.oom = True
                emulator.trace.metadata["oom_message"] = str(exc)
                oom = True
            except CudaError as exc:  # pragma: no cover - defensive
                failed[rank] = str(exc)
            trace = emulator.finalize()
            job.add_worker(trace)
            if oom and stop_on_oom:
                break

        job.metadata["cluster"] = self.cluster.name
        job.metadata["emulated_rank_count"] = len(job.emulated_ranks)
        return EmulationResult(job_trace=job, oom=oom, failed_ranks=failed)
