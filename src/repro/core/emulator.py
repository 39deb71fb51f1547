"""Transparent device emulation.

:class:`DeviceEmulator` is Maya's virtual runtime for one worker: it owns a
:class:`~repro.cuda.runtime.CudaRuntime`, registers itself as the API
interceptor and records every intercepted call in its trace's columns
(:class:`~repro.core.trace.TraceColumns`; no event objects are built).
Each call writes two rows:

* a ``HOST_DELAY`` row carrying the *deterministic* host-side cost of
  dispatching the call (``HostModel.base_cost``) plus, in ``params``, the
  call class and the per-worker call sequence number -- the paper measures
  this delta between API calls during emulation and replays it in the
  simulator; the per-call jitter term is synthesised by the simulation
  engine at replay time from the host-model profile recorded in the trace
  metadata, and replay is bit-identical to baking the jitter in here, and
* for device work and synchronisation primitives, the device-side event
  itself (kernel, memcpy, collective, event record, stream wait, ...).

The rows are not written call by call.  The emulator keys each call on
its *call pattern* -- API, kind, kernel class, stream and exact params
(:func:`~repro.core.trace.values_key`, so ``1``, ``1.0`` and ``True``
stay distinct) -- pools the pattern's two rows the first time it is seen
(the host-delay row once per call site) and logs only the pattern id,
plus the call's own values for patterns that carry them (event handles
and versions, a collective's per-communicator seq).  The columns turn
the log into rows in one vectorized pass before anything reads them.

Because the log is the trace until that pass, a block of calls the
workload repeats is logged again rather than re-run.
:meth:`DeviceEmulator.replay_block` runs a block body the first time,
keeps the slice of the log it wrote and, when the same body runs again
with the same arguments, appends that slice, shifts each collective's seq
by its communicator's progress and advances the state the body would have
advanced (communicator seqs, the runtime's kernel count).  Only a *pure*
block is kept: every call a kernel, memcpy or memset whose rows its
pattern fixes, or a collective whose only per-call value is its seq on a
communicator of this runtime; a block that allocates, frees, queries,
touches a stream or an event, writes a marker, changes the runtime's
configuration or is flushed midway (say, by a ``len(trace)`` read) runs
every time.  A kept block is replayed only under the runtime's
:attr:`~repro.cuda.runtime.CudaRuntime.config_epoch` it was recorded at,
so a destroyed stream, handle or communicator, or a handle moved to
another stream, makes the next run re-record it and raise exactly where
the calls would.  The blocks index the pattern pool and go with it in
:meth:`DeviceEmulator.finalize`.  The one caller is the stand-in
framework (:mod:`repro.framework.engine`), around a microbatch's forward
and backward of one chunk: unmodified framework code would run each
block in full.

:class:`EmulationSession` orchestrates per-rank emulators for a whole job,
catching out-of-memory failures so that OOM configurations are reported
rather than crashing the search (Section 5.2 relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cuda.api_records import ApiCallRecord, ApiKind
from repro.cuda.errors import CudaError, CudaOutOfMemoryError
from repro.cuda.runtime import CudaRuntime
from repro.core.trace import (
    CALL_VALUE_COLUMNS,
    K_HOST_DELAY,
    K_MARKER,
    KIND_CODES,
    JobTrace,
    TraceEventKind,
    WorkerTrace,
    values_key,
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


#: Device kinds whose rows carry per-call values (event handles and
#: versions, a collective's per-communicator seq); every other kind's rows
#: are fixed by the call's pattern.
_PER_CALL_KINDS = frozenset((ApiKind.EVENT_RECORD, ApiKind.STREAM_WAIT_EVENT,
                             ApiKind.EVENT_SYNCHRONIZE, ApiKind.COLLECTIVE))
#: Event kinds whose ``"version"`` param is a per-call value.
_VERSIONED_KINDS = _PER_CALL_KINDS - {ApiKind.COLLECTIVE}


@dataclass
class _Block:
    """One recorded run of a pure block (see :meth:`replay_block`)."""

    #: ``CudaRuntime.config_epoch`` when the block was recorded.
    epoch: int
    #: The pattern ids the block logged.
    calls: List[int]
    #: The call values it logged (its collectives' ``(0, 0, 0, seq)``).
    values: List[int]
    #: Per collective: (the index of its seq in ``values``, its
    #: communicator, its seq minus the communicator's seq before the block).
    shifts: List[Tuple[int, Any, int]]
    #: Per communicator the block used: (communicator, collectives issued).
    advances: List[Tuple[Any, int]]
    #: Kernels the block launched.
    kernels: int


class DeviceEmulator:
    """Maya's virtual device runtime for a single worker."""

    def __init__(
        self,
        rank: int,
        device: int,
        gpu: GPUSpec,
        host_model: Optional[HostModel] = None,
    ) -> None:
        self.rank = rank
        self.device = device
        self.gpu = gpu
        self.host_model = host_model or HostModel()
        self.trace = WorkerTrace(rank=rank, device=device)
        # Replay-side jitter synthesis needs the seed namespace and the
        # jitter magnitude of the model that produced the base costs.
        self.trace.metadata[HOST_MODEL_METADATA_KEY] = \
            self.host_model.trace_profile()
        self.runtime = CudaRuntime(device=device, gpu=gpu,
                                   interceptor=self._intercept)
        columns = self.trace.columns
        self._pattern_ids = columns.pattern_ids
        self._log_call = columns.calls.append
        self._log_calls = columns.calls.extend
        self._log_values = columns.call_values.extend
        #: Call site (API, kind, kernel class) -> its host-delay row.
        self._delay_rows: Dict[Tuple, Tuple] = {}
        #: Calls logged by replaying a recorded block (a report-only
        #: counter; not part of the trace).
        self.replayed_calls = 0

    # ------------------------------------------------------------------
    # interception
    # ------------------------------------------------------------------
    def _intercept(self, record: ApiCallRecord) -> None:
        kind = record.kind
        if kind not in _KIND_MAP:
            # No device row: the host-delay row depends on the site only.
            key = (record.api, kind, record.kernel_class)
        elif record.collective or kind in _PER_CALL_KINDS:
            self._intercept_per_call(record)
            return
        else:
            params = record.params
            key = (record.api, kind, record.kernel_class, record.stream,
                   record.event, record.wait_event, tuple(params),
                   values_key(tuple(params.values())))
        pid = self._pattern_ids.get(key)
        if pid is None:
            pid = self._new_pattern(key, record, False)
        self._log_call(pid)

    def _intercept_per_call(self, record: ApiCallRecord) -> None:
        """Log a call whose device row takes per-call values: its pattern
        is keyed on everything else, the values go to the side log."""
        kind = record.kind
        params = record.params
        collective = record.collective or None
        version = int(params["version"]) if "version" in params else 0
        fixed = (tuple(v for k, v in params.items() if k != "version")
                 if kind in _VERSIONED_KINDS else tuple(params.values()))
        key = (record.api, kind, record.kernel_class, record.stream,
               record.event is None, record.wait_event is None,
               tuple(params), values_key(fixed))
        aux_seq = -1
        if collective is not None:
            key += (tuple(collective), values_key(tuple(
                v for k, v in collective.items() if k != "seq")))
            if "seq" in collective:
                aux_seq = int(collective["seq"])
        pid = self._pattern_ids.get(key)
        if pid is None:
            pid = self._new_pattern(key, record, True)
        self._log_call(pid)
        self._log_values((version, record.event or 0,
                          record.wait_event or 0, aux_seq))

    def _new_pattern(self, key: Tuple, record: ApiCallRecord,
                     per_call: bool) -> int:
        """Pool the rows of ``record``'s pattern under ``key``: its site's
        host-delay row (interned once per site), then its device row."""
        columns = self.trace.columns
        site = (record.api, record.kind, record.kernel_class)
        delay = self._delay_rows.get(site)
        if delay is None:
            call_class = _host_call_class(record)
            # Only the deterministic base cost; the row's "seq" (its
            # aux_seq) is the call counter, which lets the simulation
            # engine re-apply this call's jitter factor at replay time.
            delay = self._delay_rows[site] = columns.intern_row(
                K_HOST_DELAY, "hostDelay", self.device,
                params={"call_class": call_class, "after": record.api,
                        "seq": 0},
                duration=self.host_model.base_cost(call_class))
        code = _KIND_MAP.get(record.kind)
        device = None if code is None else columns.intern_row(
            code, record.api, self.device, record.stream,
            record.kernel_class, record.params, record.collective or None,
            record.event, record.wait_event)
        return columns.pattern(key, delay, device, per_call)

    # ------------------------------------------------------------------
    # block replay
    # ------------------------------------------------------------------
    def replay_block(self, body: Callable[..., None], *args: Any) -> None:
        """Run ``body(*args)``, or log again what its last run logged.

        The caller promises that, under an unchanged runtime configuration,
        ``body`` issues the same calls whenever it runs with the same
        (hashable) arguments; the bound method and its arguments key the
        block.  Whether the logged calls may stand in for a run is checked
        here (see the module docstring), so a block that does not qualify
        simply runs every time.
        """
        columns = self.trace.columns
        runtime = self.runtime
        key = (body, args)
        block = columns.blocks.get(key)
        if block is not None and block.epoch == runtime.config_epoch:
            self._replay(block)
            return
        position = columns.log_position()
        epoch = runtime.config_epoch
        kernels = runtime.kernel_count
        seqs = [(comm, comm.seq) for comm in runtime.communicators]
        body(*args)
        block = self._recorded_block(columns.logged_since(position), epoch,
                                     runtime.kernel_count - kernels, seqs)
        if block is None:
            columns.blocks.pop(key, None)
        else:
            columns.blocks[key] = block

    def _recorded_block(self, logged: Optional[Tuple[List[int], List[int]]],
                        epoch: int, kernels: int,
                        seqs: List[Tuple[Any, int]]) -> Optional[_Block]:
        """The block a body's run logged, or ``None`` if it is not pure:
        not wholly in the log, a call :meth:`TraceColumns.replay_role`
        rejects, a configuration change or a new communicator, or
        communicator seqs the logged collectives do not account for one
        by one."""
        runtime = self.runtime
        if (logged is None or runtime.config_epoch != epoch
                or len(runtime.communicators) != len(seqs)):
            return None
        calls, values = logged
        replay_role = self.trace.columns.replay_role
        roles = {pid: replay_role(pid) for pid in set(calls)}
        if None in roles.values():
            return None
        by_id: Dict[Any, List[Tuple[Any, int]]] = {}
        for comm, before in seqs:
            by_id.setdefault(comm.unique_id.value, []).append((comm, before))
        issued: Dict[Any, int] = {}
        shifts = []
        width = len(CALL_VALUE_COLUMNS)
        slot = width - 1  # the seq of the first collective's values
        for pid in calls:
            role = roles[pid]
            if not role:
                continue
            found = by_id.get(role[0], ())
            if len(found) != 1:
                return None
            comm, before = found[0]
            count = issued[comm] = issued.get(comm, 0) + 1
            if values[slot] != before + count:
                return None
            shifts.append((slot, comm, count))
            slot += width
        if any(comm.seq != before + issued.get(comm, 0)
               for comm, before in seqs):
            return None
        return _Block(epoch, calls, values, shifts, list(issued.items()),
                      kernels)

    def _replay(self, block: _Block) -> None:
        """Log ``block`` again, advancing what its body would have."""
        self._log_calls(block.calls)
        if block.shifts:
            values = list(block.values)
            for slot, comm, offset in block.shifts:
                values[slot] = comm.seq + offset
            self._log_values(values)
            for comm, count in block.advances:
                comm.advance(count)
        self.runtime.count_kernels(block.kernels)
        self.replayed_calls += len(block.calls)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def mark(self, label: str) -> None:
        """Insert a marker event (iteration boundaries, phases...)."""
        key = ("marker", label)
        pid = self._pattern_ids.get(key)
        if pid is None:
            columns = self.trace.columns
            pid = columns.pattern(
                key, None, columns.intern_row(K_MARKER, "marker",
                                              self.device,
                                              params={"label": label}),
                False)
        self._log_call(pid)

    def finalize(self) -> WorkerTrace:
        """Write the logged calls as rows, record end-of-emulation
        statistics and return the trace."""
        columns = self.trace.columns
        # A finished trace sits in the artifact cache: keep its rows, not
        # the pattern pool that wrote them.
        columns.close_log()
        self.trace.peak_memory_bytes = self.runtime.memory.peak_allocated
        self.trace.metadata.setdefault("kernel_count", self.runtime.kernel_count)
        self.trace.metadata.setdefault("api_calls", columns.call_count)
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
    #: Intercepted calls logged by block replay, over all ranks (kept out
    #: of the trace, whose bytes do not depend on replay).
    replayed_calls: int = 0


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
        replayed = 0

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
            replayed += emulator.replayed_calls
            if oom and stop_on_oom:
                break

        job.metadata["cluster"] = self.cluster.name
        job.metadata["emulated_rank_count"] = len(job.emulated_ranks)
        return EmulationResult(job_trace=job, oom=oom, failed_ranks=failed,
                               replayed_calls=replayed)
