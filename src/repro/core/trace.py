"""Trace event model.

Maya's emulator produces one trace per worker; each trace is an ordered list
of :class:`TraceEvent` objects covering device kernels, memory operations,
synchronisation primitives, collectives and the host delays measured between
consecutive API calls (Section 4.2 of the paper).

Traces are plain data: they can be serialised to / from JSON so that
emulation and simulation can run in separate processes, mirroring the
"Worker Traces" artifact in Figure 5.  JSON is the public export for
tools and tests; between processes the service ships the equivalent
columnar payload instead (:mod:`repro.core.columnar`, ``to_json()``-exact).

``HOST_DELAY`` events come in two schema generations:

* **structured** (current): ``duration`` holds the *deterministic* base
  dispatch cost and ``params`` carries ``call_class`` plus the per-worker
  call sequence number ``seq``; the per-call jitter factor is synthesised at
  simulation time from the host-model profile stored under
  ``WorkerTrace.metadata["host_model"]``;
* **legacy** (pre-split): no ``seq`` entry -- ``duration`` was recorded with
  the jitter already baked in and replays by value.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.hardware.noise import stable_hash


class TraceEventKind(str, enum.Enum):
    """Classification of trace events used by the collator and simulator."""

    KERNEL = "kernel"
    MEMCPY = "memcpy"
    MEMSET = "memset"
    COLLECTIVE = "collective"
    HOST_DELAY = "host_delay"
    EVENT_RECORD = "event_record"
    STREAM_WAIT_EVENT = "stream_wait_event"
    EVENT_SYNCHRONIZE = "event_synchronize"
    STREAM_SYNCHRONIZE = "stream_synchronize"
    DEVICE_SYNCHRONIZE = "device_synchronize"
    MARKER = "marker"


#: Event kinds that occupy a device stream and need a predicted duration.
DEVICE_WORK_KINDS = (
    TraceEventKind.KERNEL,
    TraceEventKind.MEMCPY,
    TraceEventKind.MEMSET,
    TraceEventKind.COLLECTIVE,
)


@dataclass
class TraceEvent:
    """One entry in a worker trace."""

    kind: TraceEventKind
    api: str
    device: int
    stream: Optional[int] = None
    kernel_class: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    collective: Optional[Dict[str, Any]] = None
    event: Optional[int] = None
    wait_event: Optional[int] = None
    #: Host-measured or estimator-predicted duration in seconds.
    duration: Optional[float] = None
    #: Monotonic per-worker sequence number assigned by the emulator.
    seq: int = 0

    def is_device_work(self) -> bool:
        """Whether this event consumes time on a device stream."""
        return self.kind in DEVICE_WORK_KINDS

    def signature(self) -> Tuple:
        """Shape signature used for worker deduplication and estimator keys.

        Deliberately excludes measured durations and sequence numbers so
        workers doing identical work hash identically.  Events are immutable
        once emitted and the signature is consulted several times per event
        (dedup, estimator warm-up, simulation), so it is memoized.
        """
        cached = getattr(self, "_signature_cache", None)
        if cached is not None:
            return cached
        params_key = tuple(
            sorted((k, v) for k, v in self.params.items()
                   if k not in ("free", "total"))
        )
        collective_key: Tuple = ()
        if self.collective is not None:
            collective_key = (
                self.collective.get("op"),
                self.collective.get("nranks"),
                self.collective.get("comm_tag"),
            )
        signature = (self.kind.value, self.api, self.kernel_class, self.stream,
                     params_key, collective_key)
        self._signature_cache = signature
        return signature

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        # Field by field, in dataclass order: ``dataclasses.asdict`` deep-
        # copies every nested value (~110 us per event), the JSON export
        # only needs the two dicts not to alias the event's own.
        return {
            "kind": self.kind.value,
            "api": self.api,
            "device": self.device,
            "stream": self.stream,
            "kernel_class": self.kernel_class,
            "params": dict(self.params),
            "collective": (None if self.collective is None
                           else dict(self.collective)),
            "event": self.event,
            "wait_event": self.wait_event,
            "duration": self.duration,
            "seq": self.seq,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TraceEvent":
        payload = dict(data)
        payload["kind"] = TraceEventKind(payload["kind"])
        return TraceEvent(**payload)


@dataclass
class WorkerTrace:
    """All events captured from one emulated worker (rank)."""

    rank: int
    device: int
    events: List[TraceEvent] = field(default_factory=list)
    #: Peak device memory observed during emulation, in bytes.
    peak_memory_bytes: int = 0
    #: Whether the worker hit an out-of-memory condition during emulation.
    oom: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)

    def append(self, event: TraceEvent) -> None:
        event.seq = len(self.events)
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def device_events(self) -> List[TraceEvent]:
        """Events that occupy a device stream."""
        return [event for event in self.events if event.is_device_work()]

    def host_delay_total(self) -> float:
        """Total host-side delay the simulator will replay, in seconds.

        Structured ``HOST_DELAY`` events store only the deterministic base
        cost; this total applies the same per-call jitter materialization
        the simulation engine uses, so it matches the replayed host time.
        Legacy (pre-jittered) events contribute their recorded value.
        """
        from repro.hardware.host_model import host_delay_materializer

        materialize = host_delay_materializer(self.metadata)
        return sum(
            materialize(event)
            for event in self.events
            if event.kind is TraceEventKind.HOST_DELAY
        )

    def host_delay_signature(self) -> int:
        """Content hash of the replayed host-delay stream (memoized).

        Rolling signatures deliberately skip ``HOST_DELAY`` events (worker
        deduplication compares device work), but simulation replay does
        not: two traces with identical operation streams and different
        host delays replay differently.  Consumers that promise
        "same signature => same replay" (the collated-trace content
        signature, and through it the provider annotation memo) combine
        this hash with the rolling signature.  It covers exactly what
        materialization consumes: recorded durations, structured jitter
        keys and the recorded host-model profile.
        """
        cached = getattr(self, "_host_delay_sig_cache", None)
        if cached is not None and cached[0] == len(self.events):
            return cached[1]
        profile = self.metadata.get("host_model") or {}
        signature = stable_hash("host-delays", profile.get("name"),
                                profile.get("jitter"))
        for event in self.events:
            if event.kind is TraceEventKind.HOST_DELAY:
                signature = stable_hash(signature, event.seq,
                                        event.duration or 0.0,
                                        event.params.get("seq"),
                                        event.params.get("call_class"))
        self._host_delay_sig_cache = (len(self.events), signature)
        return signature

    def rolling_signature(self) -> int:
        """Rolling hash of the operation stream (worker deduplication).

        The paper computes rolling hashes of operation sequences during the
        first iteration to detect workers performing redundant computation;
        this is the per-worker end state of that hash.
        """
        cached = getattr(self, "_rolling_cache", None)
        if cached is not None and cached[0] == len(self.events):
            return cached[1]
        signature = 0
        for event in self.events:
            if event.kind is TraceEventKind.HOST_DELAY:
                continue
            signature = stable_hash(signature, event.signature())
        self._rolling_cache = (len(self.events), signature)
        return signature

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "rank": self.rank,
            "device": self.device,
            "peak_memory_bytes": self.peak_memory_bytes,
            "oom": self.oom,
            "metadata": self.metadata,
            "events": [event.to_dict() for event in self.events],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "WorkerTrace":
        trace = WorkerTrace(
            rank=data["rank"],
            device=data["device"],
            peak_memory_bytes=data.get("peak_memory_bytes", 0),
            oom=data.get("oom", False),
            metadata=dict(data.get("metadata", {})),
        )
        trace.events = [TraceEvent.from_dict(item) for item in data["events"]]
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(payload: str) -> "WorkerTrace":
        return WorkerTrace.from_dict(json.loads(payload))


@dataclass
class JobTrace:
    """The set of worker traces captured for one training job."""

    world_size: int
    workers: Dict[int, WorkerTrace] = field(default_factory=dict)
    #: Ranks that were actually emulated (others deduplicated onto these).
    emulated_ranks: List[int] = field(default_factory=list)
    #: Map from every rank to the emulated rank whose trace represents it.
    representative: Dict[int, int] = field(default_factory=dict)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def add_worker(self, trace: WorkerTrace) -> None:
        self.workers[trace.rank] = trace
        if trace.rank not in self.emulated_ranks:
            self.emulated_ranks.append(trace.rank)
        self.representative.setdefault(trace.rank, trace.rank)

    def trace_for(self, rank: int) -> WorkerTrace:
        """Return the (possibly representative) trace for ``rank``."""
        rep = self.representative.get(rank, rank)
        return self.workers[rep]

    def any_oom(self) -> bool:
        return any(trace.oom for trace in self.workers.values())

    def peak_memory_bytes(self) -> int:
        if not self.workers:
            return 0
        return max(trace.peak_memory_bytes for trace in self.workers.values())

    def total_events(self) -> int:
        return sum(len(trace) for trace in self.workers.values())

    def ranks(self) -> Iterable[int]:
        return range(self.world_size)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "world_size": self.world_size,
            "emulated_ranks": list(self.emulated_ranks),
            "representative": {str(k): v for k, v in self.representative.items()},
            "metadata": self.metadata,
            "workers": {str(rank): trace.to_dict()
                        for rank, trace in self.workers.items()},
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JobTrace":
        job = JobTrace(world_size=data["world_size"],
                       metadata=dict(data.get("metadata", {})))
        job.emulated_ranks = list(data.get("emulated_ranks", []))
        job.representative = {int(k): v
                              for k, v in data.get("representative", {}).items()}
        for rank, trace in data.get("workers", {}).items():
            job.workers[int(rank)] = WorkerTrace.from_dict(trace)
        return job

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(payload: str) -> "JobTrace":
        return JobTrace.from_dict(json.loads(payload))
