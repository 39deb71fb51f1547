"""Trace model: columns are the trace, ``TraceEvent`` is a view.

Maya's emulator produces one trace per worker covering device kernels,
memory operations, synchronisation primitives, collectives and the host
delays measured between consecutive API calls (Section 4.2 of the paper).
A :class:`WorkerTrace` keeps that stream as recorded, in
:class:`TraceColumns`: flat per-event columns for what varies event to
event, plus a pool of *templates* for what repeats (an iteration launches
the same few dozen operations thousands of times).  The emulator logs
one call-pattern id per intercepted call, interning templates as it
goes (and logs a repeated block of calls again from its first run,
:attr:`TraceColumns.blocks`), and the columns write a rank's rows from
that log in one numpy pass; everything downstream reads the columns
(:mod:`repro.core.columnar`), and the service ships them between
processes.

A :class:`TraceEvent` is the object view of one row -- for tests, the
per-event reference engine and the JSON export (``to_json``).
``trace.events`` builds the list on
every access and nothing keeps it; appending a ``TraceEvent`` (hand-built
traces, ``from_dict``) records the row the emulator would have.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np


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

#: Kind codes, in ``TraceEventKind`` declaration order (int8 column values).
KIND_CODES: Dict[TraceEventKind, int] = {
    kind: code for code, kind in enumerate(TraceEventKind)
}
KINDS_BY_CODE: Tuple[TraceEventKind, ...] = tuple(TraceEventKind)

K_KERNEL = KIND_CODES[TraceEventKind.KERNEL]
K_MEMCPY = KIND_CODES[TraceEventKind.MEMCPY]
K_MEMSET = KIND_CODES[TraceEventKind.MEMSET]
K_COLLECTIVE = KIND_CODES[TraceEventKind.COLLECTIVE]
K_HOST_DELAY = KIND_CODES[TraceEventKind.HOST_DELAY]
K_EVENT_RECORD = KIND_CODES[TraceEventKind.EVENT_RECORD]
K_STREAM_WAIT = KIND_CODES[TraceEventKind.STREAM_WAIT_EVENT]
K_EVENT_SYNC = KIND_CODES[TraceEventKind.EVENT_SYNCHRONIZE]
K_MARKER = KIND_CODES[TraceEventKind.MARKER]

# Flag bits (uint8 column) recording which optional fields were present on
# the recorded event, so the view restores ``None`` vs ``0`` exactly.
F_DURATION = 1    #: ``duration`` was not None.
F_EVENT = 2       #: ``event`` was not None.
F_WAIT = 4        #: ``wait_event`` was not None.
F_VERSION = 8     #: ``params`` carried a ``"version"`` entry.
F_HOST_SEQ = 16   #: ``params`` carried a ``"seq"`` entry (structured delay).
F_COLL_SEQ = 32   #: the collective dict carried a ``"seq"`` entry.
F_REC_CREATE = 64   #: EVENT_RECORD with a truthy ``create`` param.
F_REC_DESTROY = 128  #: EVENT_RECORD with a truthy ``destroy`` param.

#: The params key hoisted out of the template into a per-event column, by
#: kind.  Every other kind keeps its params verbatim in the template, so
#: template identity remains exactly event-shape identity.
_VARYING_PARAM: Dict[int, str] = {
    K_HOST_DELAY: "seq",
    K_EVENT_RECORD: "version",
    K_STREAM_WAIT: "version",
    K_EVENT_SYNC: "version",
}

#: Column name -> little-endian dtype spec of the wire payload.  The specs
#: are explicit ``<``-prefixed so the encoded buffers are byte-identical
#: across host endianness.
COLUMN_DTYPES: Tuple[Tuple[str, str], ...] = (
    ("kind", "<i1"),
    ("flags", "<u1"),
    ("stream", "<i4"),
    ("template", "<i4"),
    ("version", "<i4"),
    ("host_class", "<i2"),
    ("duration", "<f8"),
    ("event_id", "<i8"),
    ("wait_event", "<i8"),
    ("aux_seq", "<i8"),
    ("seq", "<i8"),
)

#: Value types whose equality agrees with their ``repr`` except at zero.
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def values_key(values: Tuple) -> Tuple:
    """Exact interning key of a tuple of dict values: ``1``, ``1.0`` and
    ``True`` compare equal but have different reprs (so JSON and
    signatures), hence the types; containers and zeros (``0.0 == -0.0``)
    are keyed by repr."""
    types = tuple(map(type, values))
    if _PLAIN_TYPES.issuperset(types) and 0 not in values:
        return types, values
    return types, tuple(map(repr, values)), True


#: Collective ops that are point-to-point rather than group-wide.
P2P_OPS = ("send", "recv")


def collective_signature(collective: Optional[Dict[str, Any]]) -> Tuple:
    """The collective part of :meth:`TraceEvent.signature`: op, group size
    and communicator tag, plus a p2p op's (self, peer) positions in its
    group.  Data- and tensor-parallel peers share those positions, so they
    still hash equal; neighbouring pipeline stages do not (two middle
    stages with the same layers differ only in whom they send to)."""
    if collective is None:
        return ()
    op = collective.get("op")
    key = (op, collective.get("nranks"), collective.get("comm_tag"))
    if op in P2P_OPS:
        group = tuple(collective.get("ranks", ()))
        rank = collective.get("rank")
        peer = collective.get("peer", rank)
        key += (group.index(rank) if rank in group else None,
                group.index(peer) if peer in group else None)
    return key


@dataclass
class TraceEvent:
    """One row of a worker trace, as an object."""

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
        workers doing identical work hash identically.
        """
        params_key = tuple(
            sorted((k, v) for k, v in self.params.items()
                   if k not in ("free", "total"))
        )
        return (self.kind.value, self.api, self.kernel_class, self.stream,
                params_key, collective_signature(self.collective))

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


_NO_PARAMS: Dict[str, Any] = {}

#: Device kinds whose rows a call pattern fixes and a block may replay.
_FIXED_ROW_CODES = (K_KERNEL, K_MEMCPY, K_MEMSET)

#: The columns a logged call supplies itself when its pattern takes
#: per-call values, in :attr:`TraceColumns.call_values` order.
CALL_VALUE_COLUMNS = ("version", "event_id", "wait_event", "aux_seq")


def _native(dtype: str):
    return _np.dtype(dtype).newbyteorder("=")


class _ColumnLists(dict):
    """Column name -> tuple of the column's values, each built from its
    array on first read: readers need a few of the eleven columns, and a
    column costs a pointer plus, for most values, an object per row.

    Tuples, not lists: the views live as long as the trace, and CPython
    stops tracking a tuple of atomic values at the first collection that
    sees it, so later full collections skip the rows."""

    def __init__(self, arrays: Dict[str, Any]) -> None:
        super().__init__()
        self._arrays = arrays

    def __missing__(self, name: str) -> Tuple:
        column = self[name] = tuple(self._arrays[name].tolist())
        return column


class TraceColumns:
    """The recorded events of one worker: columns plus a template pool.

    Row ``i`` is the ``i``-th event (widths in :data:`COLUMN_DTYPES`):
    ``kind`` (:class:`TraceEventKind` code), ``flags`` (``F_*`` presence
    bits), ``stream`` (``-1`` for ``None``), ``template`` (index into
    :attr:`templates`), ``version`` (record/wait version, 0 when absent),
    ``host_class`` (index into :attr:`host_classes`, ``-1`` without a call
    class), ``duration`` (0.0 when absent), ``event_id`` / ``wait_event``
    (CUDA event handles, 0 when absent), ``aux_seq`` (a structured host
    delay's jitter key or a collective's per-communicator seq, ``-1`` when
    absent) and ``seq`` (the per-worker event number: ``i`` for emulated
    traces, the event's own ``seq`` for rows added by
    :meth:`record_event`).

    The emulator does not write rows one at a time.  It pools each
    distinct *call pattern* once (:meth:`pattern`: the rows one call
    writes, their templates and host classes interned when the pattern is
    first seen) and logs one pattern id per intercepted call in
    :attr:`calls`, plus the :data:`CALL_VALUE_COLUMNS` of calls whose
    pattern takes per-call values in :attr:`call_values`.  :meth:`flush`
    turns the pending log into rows in one numpy pass.  Every reader --
    ``len``, :meth:`lists`, :meth:`arrays`, :meth:`memoized`,
    :meth:`record`, pickling -- flushes first, so none sees a partial
    trace.  :meth:`record` appends a single row (hand-built traces,
    ``from_dict``).

    Because the log is the trace until a flush, a recorded stretch of it
    can be logged again: :attr:`blocks` holds the emulator's memo of
    recorded blocks (see :meth:`DeviceEmulator.replay_block
    <repro.core.emulator.DeviceEmulator.replay_block>`), each the slice of
    :attr:`calls` and :attr:`call_values` one run of a block logged
    (:meth:`log_position`, :meth:`logged_since`).  Only a block whose
    every call :meth:`replay_role` accepts is kept.  Replayed ids index
    the pattern pool, so :meth:`close_log` drops the blocks with it.

    Columns built from ``arrays`` (decoded or unpickled traces) are
    read-only.  Everything derived from the rows -- numpy arrays, engine
    program, digests, signatures -- lives in :meth:`memoized`, which a new
    row resets and which never rides a pickle.
    """

    __slots__ = ("templates", "host_classes", "pattern_ids", "calls",
                 "call_values", "call_count", "blocks", "_patterns",
                 "_pattern_rows", "_flushes", "_lists", "_template_ids",
                 "_host_class_ids", "_memo", "_memo_n")

    def __init__(self, arrays: Optional[Dict[str, Any]] = None,
                 templates: Optional[List[Dict[str, Any]]] = None,
                 host_classes: Optional[List[str]] = None) -> None:
        #: Deduplicated event shapes (see :meth:`_intern`).
        self.templates: List[Dict[str, Any]] = templates or []
        #: Deduplicated host-delay call-class strings.
        self.host_classes: List[str] = host_classes or []
        #: The recorder's key of every pooled call pattern -> its id.
        self.pattern_ids: Dict[Tuple, int] = {}
        #: Pattern id of every call logged since the last flush.
        self.calls: List[int] = []
        #: Flattened per-call values of the logged calls that take them.
        self.call_values: List[int] = []
        #: Flushed calls with a host-delay row: the jitter key (``aux_seq``)
        #: of the last one, carried across flushes.
        self.call_count = 0
        #: The emulator's recorded blocks of calls, by block key.
        self.blocks: Dict[Any, Any] = {}
        #: Flushes that wrote rows (a block logged across one is not kept).
        self._flushes = 0
        #: Per pattern: (first row in ``_pattern_rows``, row count, has a
        #: host-delay row, takes per-call values).
        self._patterns: List[Tuple[int, int, bool, bool]] = []
        #: Every pattern's rows as :meth:`intern_row` tuples.
        self._pattern_rows: List[Tuple] = []
        recording = arrays is None
        self._memo: Dict[str, Any] = {} if recording else {"arrays": arrays}
        self._memo_n = 0 if recording else len(arrays["seq"])
        #: The rows as Python lists while :meth:`record` appends them;
        #: ``None`` while the memoized arrays alone hold them (after a
        #: flush, or for decoded columns).
        self._lists: Optional[Dict[str, list]] = (
            {name: [] for name, _ in COLUMN_DTYPES} if recording else None)
        self._template_ids: Optional[Dict[Tuple, int]] = (
            {} if recording else None)
        self._host_class_ids: Dict[str, int] = {}

    def __len__(self) -> int:
        self.flush()
        return self._memo_n if self._lists is None else len(self._lists["seq"])

    def __getstate__(self) -> Dict[str, Any]:
        return {"arrays": self.arrays(), "templates": self.templates,
                "host_classes": self.host_classes}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(**state)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def intern_row(self, code: int, api: str, device: int,
                   stream: Optional[int] = None,
                   kernel_class: Optional[str] = None,
                   params: Dict[str, Any] = _NO_PARAMS,
                   collective: Optional[Dict[str, Any]] = None,
                   event: Optional[int] = None,
                   wait_event: Optional[int] = None,
                   duration: Optional[float] = None) -> Tuple:
        """The column values of one event, all but ``seq``, in
        :data:`COLUMN_DTYPES` order; interns its host class, then its
        template.  ``params`` and ``collective`` are read, never kept.
        """
        if self._template_ids is None:
            raise TypeError("decoded or unpickled trace columns are "
                            "read-only")
        bits = ((duration is not None) * F_DURATION
                | (event is not None) * F_EVENT
                | (wait_event is not None) * F_WAIT)
        version = 0
        if "version" in params:
            bits |= F_VERSION
            version = int(params["version"])
        aux_seq = -1
        if code == K_HOST_DELAY and "seq" in params:
            bits |= F_HOST_SEQ
            aux_seq = int(params["seq"])
        if collective is not None and "seq" in collective:
            bits |= F_COLL_SEQ
            aux_seq = int(collective["seq"])
        if code == K_EVENT_RECORD:
            bits |= (bool(params.get("create")) * F_REC_CREATE
                     | bool(params.get("destroy")) * F_REC_DESTROY)
        host_class = -1
        call_class = params.get("call_class")
        if call_class is not None:
            name = str(call_class)
            host_class = self._host_class_ids.setdefault(
                name, len(self.host_classes))
            if host_class == len(self.host_classes):
                self.host_classes.append(name)
        tid = self._intern(code, api, device, kernel_class, params,
                           collective)
        return (code, bits, -1 if stream is None else stream, tid, version,
                host_class, 0.0 if duration is None else float(duration),
                event or 0, wait_event or 0, aux_seq)

    def record(self, code: int, api: str, device: int,
               stream: Optional[int] = None,
               kernel_class: Optional[str] = None,
               params: Dict[str, Any] = _NO_PARAMS,
               collective: Optional[Dict[str, Any]] = None,
               event: Optional[int] = None,
               wait_event: Optional[int] = None,
               duration: Optional[float] = None,
               seq: Optional[int] = None) -> None:
        """Append one event (``seq`` defaults to the row number)."""
        row = self.intern_row(code, api, device, stream, kernel_class,
                              params, collective, event, wait_event,
                              duration)
        self.flush()
        lists = self._lists
        if lists is None:
            arrays = self.arrays()
            lists = self._lists = {name: arrays[name].tolist()
                                   for name, _ in COLUMN_DTYPES}
        for (name, _), value in zip(COLUMN_DTYPES, row):
            lists[name].append(value)
        seqs = lists["seq"]
        seqs.append(len(seqs) if seq is None else seq)

    def pattern(self, key: Tuple, delay: Optional[Tuple],
                device: Optional[Tuple], per_call: bool) -> int:
        """Pool the rows one call writes under ``key`` (in
        :attr:`pattern_ids`) and return the id to log.

        ``delay`` and ``device`` are :meth:`intern_row` tuples, either may
        be ``None``.  A logged call writes the host-delay row with its
        ``aux_seq`` set to the running call counter, then the device row,
        taking its :data:`CALL_VALUE_COLUMNS` from :attr:`call_values`
        when ``per_call``.
        """
        rows = [row for row in (delay, device) if row is not None]
        pid = self.pattern_ids[key] = len(self._patterns)
        self._patterns.append((len(self._pattern_rows), len(rows),
                               delay is not None, per_call))
        self._pattern_rows.extend(rows)
        return pid

    def flush(self) -> None:
        """Write the logged calls as rows, in one vectorized pass, and
        drop the log."""
        if not self.calls:
            return
        pids = _np.array(self.calls, dtype=_np.intp)
        values = _np.array(self.call_values, dtype=_np.int64).reshape(
            -1, len(CALL_VALUE_COLUMNS))
        self.calls.clear()
        self.call_values.clear()
        self._flushes += 1
        first, nrows, delay, per_call = _np.array(
            self._patterns, dtype=_np.intp).T[:, pids]
        ends = _np.cumsum(nrows)
        starts = ends - nrows
        total = int(ends[-1])
        # Row r of call c is pattern row first[c] + (r - starts[c]).
        source = _np.repeat(first - starts, nrows) + _np.arange(total)
        rows = {name: _np.array(column, dtype=_native(dtype))[source]
                for (name, dtype), column
                in zip(COLUMN_DTYPES, zip(*self._pattern_rows))}
        done = len(self)
        rows["seq"] = _np.arange(done, done + total,
                                 dtype=_native(COLUMN_DTYPES[-1][1]))
        delay_rows = starts[delay != 0]
        rows["aux_seq"][delay_rows] = _np.arange(
            self.call_count + 1, self.call_count + 1 + len(delay_rows))
        self.call_count += len(delay_rows)
        device_rows = ends[per_call != 0] - 1
        for column, name in enumerate(CALL_VALUE_COLUMNS):
            rows[name][device_rows] = values[:, column]
        if done:
            before = self.arrays()
            rows = {name: _np.concatenate((before[name], rows[name]))
                    for name, _ in COLUMN_DTYPES}
        self._lists = None
        self._memo = {"arrays": rows}
        self._memo_n = done + total

    def close_log(self) -> None:
        """Flush, then drop the pattern pool and the blocks that index it:
        a call logged later pools its pattern anew."""
        self.flush()
        self.pattern_ids.clear()
        self._patterns = []
        self._pattern_rows = []
        self.blocks = {}

    def log_position(self) -> Tuple[int, int, int]:
        """Where the next logged call goes, for :meth:`logged_since`."""
        return self._flushes, len(self.calls), len(self.call_values)

    def logged_since(self, position: Tuple[int, int, int]
                     ) -> Optional[Tuple[List[int], List[int]]]:
        """The calls and call values logged since ``position``, or ``None``
        when a flush has since written some of them as rows."""
        flushes, calls, values = position
        if flushes != self._flushes:
            return None
        return self.calls[calls:], self.call_values[values:]

    def replay_role(self, pid: int) -> Optional[Tuple]:
        """Whether a logged call of pattern ``pid`` may be logged again
        without making the call: ``()`` for a kernel, memcpy or memset
        whose rows its pattern fixes, ``(comm_id,)`` for a collective whose
        only per-call value is its seq on that communicator, ``None`` for
        anything else (allocations, queries, streams, events, markers)."""
        first, count, delay, per_call = self._patterns[pid]
        if not delay or count != 2:
            return None
        code, bits, _, tid = self._pattern_rows[first + 1][:4]
        if not per_call:
            return () if code in _FIXED_ROW_CODES else None
        if (code != K_COLLECTIVE or bits & (F_EVENT | F_WAIT | F_VERSION)
                or not bits & F_COLL_SEQ):
            return None
        fixed = self.templates[tid]["collective_fixed"]
        return (fixed["comm_id"],) if "comm_id" in fixed else None

    def record_event(self, event: TraceEvent) -> None:
        """Append ``event`` as a row, keeping its ``seq``."""
        self.record(KIND_CODES[event.kind], event.api, event.device,
                    event.stream, event.kernel_class, event.params,
                    event.collective, event.event, event.wait_event,
                    event.duration, event.seq)

    def _intern(self, code: int, api: str, device: int,
                kernel_class: Optional[str], params: Dict[str, Any],
                collective: Optional[Dict[str, Any]]) -> int:
        """Template id of an event's shape (all but the per-event columns),
        pooling it if new.  The layouts keep the original key order, varying
        keys included, so the view rebuilds dicts byte-identically."""
        varying = _VARYING_PARAM.get(code)
        fixed = params if varying not in params else {
            k: v for k, v in params.items() if k != varying}
        key = (code, api, device, kernel_class, tuple(params),
               values_key(tuple(fixed.values())))
        if collective is not None:
            coll_fixed = {k: v for k, v in collective.items() if k != "seq"}
            key += (tuple(collective),
                    values_key(tuple(coll_fixed.values())))
        tid = self._template_ids.get(key)
        if tid is None:
            tid = len(self.templates)
            self._template_ids[key] = tid
            self.templates.append({
                "api": api,
                "device": device,
                "kernel_class": kernel_class,
                "params_layout": key[4],
                "params_fixed": dict(fixed),
                "collective_layout": None if collective is None else key[6],
                "collective_fixed": (None if collective is None
                                     else dict(coll_fixed)),
            })
        return tid

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def memoized(self, name: str, build) -> Any:
        """``build(self)``, computed once per row set (a new row resets
        every derived view)."""
        self.flush()
        if self._lists is not None and len(self._lists["seq"]) != self._memo_n:
            self._memo = {}
            self._memo_n = len(self._lists["seq"])
        if name not in self._memo:
            self._memo[name] = build(self)
        return self._memo[name]

    def lists(self) -> Dict[str, Tuple]:
        """The columns as tuples, each built from its array on first read
        (memoized).

        The engine's inner loop indexes single elements millions of times;
        tuple indexing returns interned ints/floats without numpy's boxing
        cost.
        """
        return self.memoized("lists",
                             lambda cols: _ColumnLists(cols.arrays()))

    def arrays(self) -> Dict[str, Any]:
        """The columns as native-byte-order numpy arrays (memoized)."""
        return self.memoized("arrays", lambda cols: {
            name: _np.array(cols._lists[name], dtype=_native(dtype))
            for name, dtype in COLUMN_DTYPES})

    def rows(self, code: int) -> List[int]:
        """Positions of the rows of one kind, in order."""
        return _np.flatnonzero(self.arrays()["kind"] == code).tolist()

    def events(self) -> List[TraceEvent]:
        """Every row as a fresh :class:`TraceEvent`.

        A template's layouts list the varying key exactly when its events
        carried it, so the dicts come back in their original key order.
        """
        lists = self.lists()
        events: List[TraceEvent] = []
        for (code, bits, stream, tid, version, _, duration, event_id,
             wait_id, aux_seq, seq) in zip(*(lists[name] for name, _
                                            in COLUMN_DTYPES)):
            template = self.templates[tid]
            varying = _VARYING_PARAM.get(code)
            value = version if varying == "version" else aux_seq
            fixed = template["params_fixed"]
            collective = None
            if template["collective_layout"] is not None:
                coll = template["collective_fixed"]
                collective = {key: aux_seq if key == "seq" else coll[key]
                              for key in template["collective_layout"]}
            events.append(TraceEvent(
                kind=KINDS_BY_CODE[code],
                api=template["api"],
                device=template["device"],
                stream=None if stream < 0 else stream,
                kernel_class=template["kernel_class"],
                params={key: value if key == varying else fixed[key]
                        for key in template["params_layout"]},
                collective=collective,
                event=event_id if bits & F_EVENT else None,
                wait_event=wait_id if bits & F_WAIT else None,
                duration=duration if bits & F_DURATION else None,
                seq=seq,
            ))
        return events


@dataclass(eq=False)
class WorkerTrace:
    """All events captured from one emulated worker (rank)."""

    rank: int
    device: int
    #: Peak device memory observed during emulation, in bytes.
    peak_memory_bytes: int = 0
    #: Whether the worker hit an out-of-memory condition during emulation.
    oom: bool = False
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: The recorded events (the emulator appends here directly).
    columns: TraceColumns = field(default_factory=TraceColumns, repr=False)

    @property
    def events(self) -> List[TraceEvent]:
        """A fresh object view of every event (see the module docstring)."""
        return self.columns.events()

    def append(self, event: TraceEvent) -> None:
        event.seq = len(self.columns)
        self.columns.record_event(event)

    def __len__(self) -> int:
        return len(self.columns)

    def device_events(self) -> List[TraceEvent]:
        """Events that occupy a device stream."""
        return [event for event in self.events if event.is_device_work()]

    def host_delay_total(self) -> float:
        """Total host-side delay a full replay pays, in seconds (structured
        delays jittered as the engine does, legacy ones by value)."""
        from repro.core.columnar import materialize_host_delays

        seqs = self.columns.lists()["seq"]
        return sum(materialize_host_delays(
            self.columns, self.metadata,
            seqs[-1] + 1 if seqs else 0).tolist())

    def host_delay_signature(self) -> int:
        """Content hash of the replayed host-delay stream (memoized).

        Rolling signatures skip ``HOST_DELAY`` events (deduplication
        compares device work) but replay does not, so a check that two
        traces replay alike adds this hash of what materialization
        consumes: recorded durations, structured jitter keys and the
        recorded host-model profile.
        """
        from repro.core.columnar import host_delay_signature

        return host_delay_signature(self.columns, self.metadata)

    def rolling_signature(self) -> int:
        """Rolling hash of the operation stream (worker deduplication).

        The paper computes rolling hashes of operation sequences during the
        first iteration to detect workers performing redundant computation;
        this is the per-worker end state of that hash, folded from the
        columns.
        """
        from repro.core.columnar import rolling_signature

        return rolling_signature(self.columns)

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
        for item in data["events"]:
            trace.columns.record_event(TraceEvent.from_dict(item))
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
