"""Structure-of-arrays trace representation (how the engine reads a trace).

A :class:`ColumnarWorkerTrace` is a lossless re-encoding of one
:class:`~repro.core.trace.WorkerTrace` into flat numpy columns plus a small
deduplicated *template pool*:

* per-event **columns** hold everything that varies event to event -- the
  kind code, stream id, recorded duration, CUDA event / wait handles and
  record versions, structured host-delay call sequence numbers and the
  original per-worker ``seq`` -- as fixed-width integers and floats;
* the **template pool** holds everything that repeats -- ``api``,
  ``kernel_class``, ``device``, the params dict (minus the per-event
  varying keys) and the collective descriptor (minus its per-communicator
  sequence number).  A training iteration launches the same few dozen
  distinct operations thousands of times, so the pool stays tiny while the
  columns carry one int32 index per event.

Three consumers share the columns:

* the simulation engine's replay loop (:func:`engine_program`, see
  :mod:`repro.core.simulator.engine`) dispatches on an int8-derived opcode
  list instead of ``TraceEventKind`` enum comparisons, with no per-event
  attribute or dict access;
* the collator's periodicity fingerprints (:func:`range_fingerprint`) hash
  precomputed per-template digests instead of re-walking event objects;
* the wire format (:func:`encode_worker_trace` / :func:`decode_worker_trace`)
  ships the raw little-endian column buffers plus the pickled template pool
  instead of a pickled ``TraceEvent`` object graph.

The representation is exact: decoding reproduces ``to_dict()`` /
``to_json()`` byte for byte (params and collective dicts are rebuilt in
their original key order), so content signatures and cached-artifact keys
computed from a decoded trace match the sender's.  The one deliberate
coercion is numeric width: durations round-trip through float64 and handle
ids through int64, which is lossless for everything the emulator emits
(hand-built traces using *integer* durations decode as the equal float).

numpy is a hard requirement of this module and therefore of the package
(``setup.py`` declares it): there is no per-object fallback behind any of
the three consumers.
"""

from __future__ import annotations

import pickle
import struct
import weakref
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from repro.core.trace import TraceEvent, TraceEventKind, WorkerTrace
from repro.hardware.host_model import (
    HOST_MODEL_METADATA_KEY,
    _JITTER_FLOOR,
    dispatch_class_seed,
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
K_STREAM_SYNC = KIND_CODES[TraceEventKind.STREAM_SYNCHRONIZE]
K_DEVICE_SYNC = KIND_CODES[TraceEventKind.DEVICE_SYNCHRONIZE]
K_MARKER = KIND_CODES[TraceEventKind.MARKER]

# Flag bits (uint8 column) recording which optional fields were present on
# the original event, so decoding restores ``None`` vs ``0`` exactly.
F_DURATION = 1    #: ``event.duration`` was not None.
F_EVENT = 2       #: ``event.event`` was not None.
F_WAIT = 4        #: ``event.wait_event`` was not None.
F_VERSION = 8     #: ``params`` carried a ``"version"`` entry.
F_HOST_SEQ = 16   #: ``params`` carried a ``"seq"`` entry (structured delay).
F_COLL_SEQ = 32   #: the collective dict carried a ``"seq"`` entry.
F_REC_CREATE = 64   #: EVENT_RECORD with a truthy ``create`` param.
F_REC_DESTROY = 128  #: EVENT_RECORD with a truthy ``destroy`` param.

#: Params keys hoisted out of the template into per-event columns, by kind.
#: Every other kind keeps its params verbatim in the template, so template
#: identity remains exactly event-shape identity.
_VARYING_PARAMS: Dict[int, Tuple[str, ...]] = {
    K_HOST_DELAY: ("seq",),
    K_EVENT_RECORD: ("version",),
    K_STREAM_WAIT: ("version",),
    K_EVENT_SYNC: ("version",),
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

#: First bytes of an encoded columnar payload.
PAYLOAD_MAGIC = b"MCOL"

_PAYLOAD_HEADER = struct.Struct("<4sI")

#: 64-bit FNV-1a constants for the fingerprint mixer.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class ColumnarWorkerTrace:
    """Column view of one worker trace (see the module docstring).

    Column semantics (all length ``n``, positional -- index ``i`` describes
    ``trace.events[i]``):

    ``kind``
        int8 :class:`TraceEventKind` code in declaration order.
    ``flags``
        uint8 presence bits (``F_*`` constants above).
    ``stream``
        int32 stream id; ``-1`` encodes ``stream=None`` (which the engine
        maps to stream 0 but event signatures keep distinct).
    ``template``
        int32 index into :attr:`templates`.
    ``version``
        int32 record/wait version (``params["version"]``, 0 when absent).
    ``host_class``
        int16 index into :attr:`host_classes` for ``params["call_class"]``;
        ``-1`` when the event carries no call class.
    ``duration``
        float64 recorded duration (0.0 when absent; see ``F_DURATION``).
    ``event_id`` / ``wait_event``
        int64 CUDA event handles (0 when absent).
    ``aux_seq``
        int64 per-kind auxiliary sequence number: the structured host-delay
        jitter key (``params["seq"]``) or the collective's per-communicator
        sequence (``collective["seq"]``); ``-1`` when absent.
    ``seq``
        int64 original per-worker event sequence number (*not* necessarily
        ``i``: fold-truncated traces keep their original seqs).
    """

    __slots__ = ("n", "kind", "flags", "stream", "template", "version",
                 "host_class", "duration", "event_id", "wait_event",
                 "aux_seq", "seq", "templates", "host_classes",
                 "_lists", "_program", "_fingerprint_tables")

    def __init__(self, n: int, columns: Dict[str, Any],
                 templates: List[Dict[str, Any]],
                 host_classes: List[str]) -> None:
        self.n = n
        for name, _ in COLUMN_DTYPES:
            setattr(self, name, columns[name])
        #: Deduplicated event shapes; see :func:`_template_of`.
        self.templates = templates
        #: Deduplicated host-delay call-class strings.
        self.host_classes = host_classes
        self._lists: Optional[Dict[str, list]] = None
        self._program = None
        self._fingerprint_tables = None

    def lists(self) -> Dict[str, list]:
        """Python-list views of every column, memoized.

        The engine's inner loop and the fingerprint walk index single
        elements millions of times; plain-list indexing returns interned
        ints/floats without the numpy boxing cost, so the hot paths consume
        these instead of the arrays.
        """
        if self._lists is None:
            self._lists = {name: getattr(self, name).tolist()
                           for name, _ in COLUMN_DTYPES}
        return self._lists


def _template_of(event: TraceEvent, kind_code: int) -> Dict[str, Any]:
    """The deduplicatable shape of ``event`` (everything non-varying).

    ``params_layout`` / ``collective_layout`` record the original dict key
    order with per-event varying keys marked, so decoding rebuilds the dicts
    byte-identically (``to_json`` preserves insertion order).
    """
    varying = _VARYING_PARAMS.get(kind_code, ())
    params_layout = tuple(event.params.keys())
    params_fixed = {k: v for k, v in event.params.items() if k not in varying}
    collective_layout: Optional[Tuple[str, ...]] = None
    collective_fixed: Optional[Dict[str, Any]] = None
    if event.collective is not None:
        collective_layout = tuple(event.collective.keys())
        collective_fixed = {k: v for k, v in event.collective.items()
                            if k != "seq"}
    return {
        "api": event.api,
        "device": event.device,
        "kernel_class": event.kernel_class,
        "params_layout": params_layout,
        "params_fixed": params_fixed,
        "collective_layout": collective_layout,
        "collective_fixed": collective_fixed,
    }


def _template_key(kind_code: int, template: Dict[str, Any]) -> Tuple:
    """Hashable dedup key distinguishing value *types* too (``1`` vs ``1.0``
    are dict-equal but must not share a template: reprs differ and so do
    signatures)."""
    params = template["params_fixed"]
    coll = template["collective_fixed"]
    return (
        kind_code, template["api"], template["device"],
        template["kernel_class"], template["params_layout"],
        tuple((k, repr(params[k])) for k in sorted(params)),
        template["collective_layout"],
        None if coll is None else tuple((k, repr(coll[k]))
                                        for k in sorted(coll)),
    )


#: Per-trace memo of built columns, keyed by ``id(trace)`` (WorkerTrace is
#: an eq-dataclass, hence unhashable) with a weakref identity guard and
#: finalize-based eviction.  Kept off the trace instance so the
#: multi-kilobyte arrays never ride a pickled ``WorkerTrace`` through the
#: socket/process backends, and die with their trace.
_COLUMNS_MEMO: Dict[int, Tuple["weakref.ref", int, "ColumnarWorkerTrace"]] = {}


def _memoize_columns(trace: WorkerTrace, n: int,
                     cols: "ColumnarWorkerTrace") -> None:
    key = id(trace)
    _COLUMNS_MEMO[key] = (weakref.ref(trace), n, cols)
    weakref.finalize(trace, _COLUMNS_MEMO.pop, key, None)


def columnar_worker_trace(trace: WorkerTrace) -> "ColumnarWorkerTrace":
    """Columnar view of ``trace``, memoized per trace instance.

    The memo is keyed by ``len(trace.events)`` like the trace's own
    signature memos: traces are append-only (and fold truncation builds new
    instances), so a matching length means the cached columns are current.
    """
    cached = _COLUMNS_MEMO.get(id(trace))
    if cached is not None and cached[0]() is trace \
            and cached[1] == len(trace.events):
        return cached[2]

    events = trace.events
    n = len(events)
    kind = _np.empty(n, dtype=_np.int8)
    flags = _np.zeros(n, dtype=_np.uint8)
    stream = _np.empty(n, dtype=_np.int32)
    template = _np.empty(n, dtype=_np.int32)
    version = _np.zeros(n, dtype=_np.int32)
    host_class = _np.full(n, -1, dtype=_np.int16)
    duration = _np.zeros(n, dtype=_np.float64)
    event_id = _np.zeros(n, dtype=_np.int64)
    wait_event = _np.zeros(n, dtype=_np.int64)
    aux_seq = _np.full(n, -1, dtype=_np.int64)
    seq = _np.empty(n, dtype=_np.int64)

    templates: List[Dict[str, Any]] = []
    template_ids: Dict[Tuple, int] = {}
    host_classes: List[str] = []
    host_class_ids: Dict[str, int] = {}

    for i, event in enumerate(events):
        code = KIND_CODES[event.kind]
        kind[i] = code
        stream[i] = -1 if event.stream is None else event.stream
        seq[i] = event.seq
        bits = 0
        if event.duration is not None:
            bits |= F_DURATION
            duration[i] = event.duration
        if event.event is not None:
            bits |= F_EVENT
            event_id[i] = event.event
        if event.wait_event is not None:
            bits |= F_WAIT
            wait_event[i] = event.wait_event
        params = event.params
        if "version" in params:
            bits |= F_VERSION
            version[i] = int(params["version"])
        if code == K_HOST_DELAY and "seq" in params:
            bits |= F_HOST_SEQ
            aux_seq[i] = int(params["seq"])
        call_class = params.get("call_class")
        if call_class is not None:
            name = str(call_class)
            class_id = host_class_ids.get(name)
            if class_id is None:
                class_id = len(host_classes)
                host_classes.append(name)
                host_class_ids[name] = class_id
            host_class[i] = class_id
        if event.collective is not None and "seq" in event.collective:
            bits |= F_COLL_SEQ
            aux_seq[i] = int(event.collective["seq"])
        if code == K_EVENT_RECORD:
            if params.get("create"):
                bits |= F_REC_CREATE
            if params.get("destroy"):
                bits |= F_REC_DESTROY
        flags[i] = bits

        shape = _template_of(event, code)
        key = _template_key(code, shape)
        tid = template_ids.get(key)
        if tid is None:
            tid = len(templates)
            templates.append(shape)
            template_ids[key] = tid
        template[i] = tid

    columns = {"kind": kind, "flags": flags, "stream": stream,
               "template": template, "version": version,
               "host_class": host_class, "duration": duration,
               "event_id": event_id, "wait_event": wait_event,
               "aux_seq": aux_seq, "seq": seq}
    cols = ColumnarWorkerTrace(n, columns, templates, host_classes)
    _memoize_columns(trace, n, cols)
    return cols


# ----------------------------------------------------------------------
# engine program (opcode view consumed by the simulator's inner loop)
# ----------------------------------------------------------------------

# Engine opcodes.  Codes 0..5 form the contiguous "enqueue onto a device
# stream" group so the host loop tests one comparison instead of a kind
# tuple; event-handle create/destroy records compile to E_SKIP because
# they are never enqueued onto a stream.
E_KERNEL = 0
E_MEMCPY = 1
E_MEMSET = 2
E_COLLECTIVE = 3
E_RECORD = 4
E_WAIT = 5
E_HOST_DELAY = 6
E_MARKER = 7
E_EVENT_SYNC = 8
E_STREAM_SYNC = 9
E_DEVICE_SYNC = 10
E_SKIP = 11

_KIND_TO_OPCODE = {
    K_KERNEL: E_KERNEL,
    K_MEMCPY: E_MEMCPY,
    K_MEMSET: E_MEMSET,
    K_COLLECTIVE: E_COLLECTIVE,
    K_EVENT_RECORD: E_RECORD,
    K_STREAM_WAIT: E_WAIT,
    K_HOST_DELAY: E_HOST_DELAY,
    K_MARKER: E_MARKER,
    K_EVENT_SYNC: E_EVENT_SYNC,
    K_STREAM_SYNC: E_STREAM_SYNC,
    K_DEVICE_SYNC: E_DEVICE_SYNC,
}


class EngineProgram:
    """Positional opcode/operand lists derived from one columnar trace.

    Plain Python lists, not arrays: the engine reads single elements in a
    tight loop, where list indexing beats numpy scalar extraction by ~3x.
    """

    __slots__ = ("n", "codes", "streams", "seqs", "durations", "ekeys",
                 "labels")

    def __init__(self, cols: ColumnarWorkerTrace) -> None:
        lists = cols.lists()
        kind = lists["kind"]
        flags = lists["flags"]
        n = cols.n
        self.n = n
        codes = [0] * n
        #: Stream operand with the engine's ``None -> 0`` default applied.
        streams = lists["stream"][:]
        self.seqs = lists["seq"]
        #: Recorded durations with the engine's ``None -> 0.0`` default
        #: (fold replays read these for structured host delays).
        self.durations = lists["duration"]
        ekeys: List[Optional[Tuple[int, int]]] = [None] * n
        labels: List[Optional[str]] = [None] * n
        event_ids = lists["event_id"]
        wait_ids = lists["wait_event"]
        versions = lists["version"]
        templates = cols.templates
        template_ids = lists["template"]
        for i in range(n):
            code = _KIND_TO_OPCODE[kind[i]]
            if code == E_RECORD:
                if flags[i] & (F_REC_CREATE | F_REC_DESTROY):
                    code = E_SKIP
                else:
                    ekeys[i] = (event_ids[i], versions[i])
            elif code in (E_WAIT, E_EVENT_SYNC):
                ekeys[i] = (wait_ids[i], versions[i])
            elif code == E_MARKER:
                params = templates[template_ids[i]]["params_fixed"]
                labels[i] = str(params.get("label", ""))
            codes[i] = code
            if streams[i] < 0:
                streams[i] = 0
        self.codes = codes
        self.streams = streams
        self.ekeys = ekeys
        self.labels = labels


def engine_program(cols: ColumnarWorkerTrace) -> EngineProgram:
    """Engine opcode view of ``cols``, memoized on the columns."""
    program = cols._program
    if program is None:
        program = EngineProgram(cols)
        cols._program = program
    return program


# ----------------------------------------------------------------------
# vectorized host-delay materialization
# ----------------------------------------------------------------------

def _fast_noise_array(seeds, scale: float):
    """Vectorized :func:`repro.hardware.noise.fast_noise`, bit-identical.

    ``seeds`` is a uint64 array; every operation below mirrors the scalar
    splitmix64 mix (uint64 wrap-around equals the scalar's explicit 64-bit
    masking) and the float expression keeps the scalar's exact evaluation
    order, so each lane equals ``fast_noise(int(seed), scale)`` bit for bit.
    """
    z = seeds + _np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> _np.uint64(31))
    uniform = z / float(2 ** 64)
    return 1.0 + scale * 3.4641016151377544 * (uniform - 0.5)


def materialize_host_delays(cols: ColumnarWorkerTrace,
                            metadata: Dict[str, Any],
                            size: int) -> List[float]:
    """Seq-indexed replayed host-delay durations, vectorized.

    Equivalent, element for element, to running
    :func:`repro.hardware.host_model.host_delay_materializer` over every
    ``HOST_DELAY`` event and scattering the results into a ``size``-long
    per-seq array (the shape provider annotation consumes).
    """
    out = _np.zeros(size, dtype=_np.float64)
    idx = _np.nonzero(cols.kind == K_HOST_DELAY)[0]
    if idx.size:
        values = cols.duration[idx].copy()
        profile = metadata.get(HOST_MODEL_METADATA_KEY) or {}
        scale = float(profile.get("jitter", 0.0))
        structured = (cols.flags[idx] & F_HOST_SEQ) != 0
        if scale > 0.0 and structured.any():
            host_name = str(profile.get("name", ""))
            sidx = idx[structured]
            class_ids = cols.host_class[sidx].astype(_np.int64)
            misc_seed = _np.uint64(dispatch_class_seed(host_name, "misc"))
            if cols.host_classes:
                class_seeds = _np.array(
                    [dispatch_class_seed(host_name, name)
                     for name in cols.host_classes],
                    dtype=_np.uint64)
                seeds = _np.where(class_ids >= 0,
                                  class_seeds[_np.maximum(class_ids, 0)],
                                  misc_seed)
            else:
                seeds = _np.full(sidx.size, misc_seed, dtype=_np.uint64)
            seeds = seeds + cols.aux_seq[sidx].astype(_np.uint64)
            factor = _np.maximum(_fast_noise_array(seeds, scale),
                                 _JITTER_FLOOR)
            values[structured] = cols.duration[sidx] * factor
        out[cols.seq[idx]] = values
    return out.tolist()


# ----------------------------------------------------------------------
# periodicity fingerprints (consumed by repro.core.collator)
# ----------------------------------------------------------------------

class _FingerprintTables:
    """Per-template digests for :func:`range_fingerprint`, built once."""

    __slots__ = ("shape_fp", "coll_fp", "label_fp", "is_iter_marker")

    def __init__(self, cols: ColumnarWorkerTrace, kind_of_template,
                 iteration_marker) -> None:
        from repro.hardware.noise import stable_hash

        count = len(cols.templates)
        self.shape_fp = [0] * count
        self.coll_fp = [0] * count
        self.label_fp = [0] * count
        self.is_iter_marker = [False] * count
        for tid, template in enumerate(cols.templates):
            kind_code = kind_of_template[tid]
            params = dict(template["params_fixed"])
            # Exactly TraceEvent.signature()'s fields minus the stream
            # (mixed in per event from the column).  For the kinds that
            # reach the collator's plain-event branch no params key is
            # hoisted into a column, so the template params are the full
            # params and this digest equals the signature's.
            params_key = tuple(sorted(
                (k, v) for k, v in params.items()
                if k not in ("free", "total")))
            coll = template["collective_fixed"]
            collective_key: Tuple = ()
            if coll is not None:
                collective_key = (coll.get("op"), coll.get("nranks"),
                                  coll.get("comm_tag"))
            kind_value = KINDS_BY_CODE[kind_code].value
            self.shape_fp[tid] = stable_hash(
                (kind_value, template["api"], template["kernel_class"],
                 params_key, collective_key))
            if kind_code == K_COLLECTIVE:
                info = coll or {}
                self.coll_fp[tid] = stable_hash(
                    str(info.get("op")), str(info.get("comm_tag")),
                    tuple(info.get("ranks", ())), int(info.get("peer", -1)),
                    float(params.get("bytes", 0.0)))
            elif kind_code == K_MARKER:
                label = str(params.get("label", ""))
                if iteration_marker.match(label):
                    self.is_iter_marker[tid] = True
                else:
                    self.label_fp[tid] = stable_hash(label)


def _fingerprint_tables(cols: ColumnarWorkerTrace,
                        iteration_marker) -> _FingerprintTables:
    tables = cols._fingerprint_tables
    if tables is None:
        lists = cols.lists()
        kinds = lists["kind"]
        kind_of_template = {}
        for i, tid in enumerate(lists["template"]):
            if tid not in kind_of_template:
                kind_of_template[tid] = kinds[i]
        tables = _FingerprintTables(cols, kind_of_template, iteration_marker)
        cols._fingerprint_tables = tables
    return tables


def range_fingerprint(cols: ColumnarWorkerTrace, lo: int, hi: int,
                      iteration_marker) -> Optional[int]:
    """Canonical content hash of events ``lo .. hi-1`` (the body of the
    collator's ``_canonical_range_fingerprint``, which documents what is
    canonicalised and why).

    An FNV-1a mix over per-template digests: fingerprints are only ever
    compared to other fingerprints of the same trace within one process, so
    only *equality semantics* matter -- records numbered serially, waits
    resolved to local record serials with cross-window references yielding
    ``None``, structured host delays hashed by call class + base cost --
    and those are checked against a per-object reference walk in
    ``tests/test_columnar.py``.  Distinct case tags keep the branches
    collision-disjoint.
    """
    tables = _fingerprint_tables(cols, iteration_marker)
    shape_fp = tables.shape_fp
    coll_fp = tables.coll_fp
    label_fp = tables.label_fp
    is_iter = tables.is_iter_marker
    lists = cols.lists()
    kinds = lists["kind"]
    flags = lists["flags"]
    streams = lists["stream"]
    templates = lists["template"]
    versions = lists["version"]
    event_ids = lists["event_id"]
    wait_ids = lists["wait_event"]
    durations = lists["duration"]
    host_classes = lists["host_class"]

    h = _FNV_OFFSET
    local_records: Dict[Tuple[int, int], int] = {}
    serial = 0
    for i in range(lo, hi):
        kind = kinds[i]
        if kind == K_HOST_DELAY:
            if flags[i] & F_HOST_SEQ:
                h = ((h ^ 1) * _FNV_PRIME) & _MASK64
                h = ((h ^ (host_classes[i] & _MASK64)) * _FNV_PRIME) & _MASK64
            else:
                h = ((h ^ 2) * _FNV_PRIME) & _MASK64
            h = ((h ^ (hash(durations[i]) & _MASK64)) * _FNV_PRIME) & _MASK64
            continue
        if kind == K_MARKER:
            tid = templates[i]
            if is_iter[tid]:
                h = ((h ^ 3) * _FNV_PRIME) & _MASK64
            else:
                h = ((h ^ 4) * _FNV_PRIME) & _MASK64
                h = ((h ^ label_fp[tid]) * _FNV_PRIME) & _MASK64
            continue
        if kind == K_EVENT_RECORD:
            bits = flags[i]
            if bits & F_REC_CREATE:
                h = ((h ^ 5) * _FNV_PRIME) & _MASK64
                continue
            if bits & F_REC_DESTROY:
                h = ((h ^ 6) * _FNV_PRIME) & _MASK64
                continue
            local_records[(event_ids[i], versions[i])] = serial
            h = ((h ^ 7) * _FNV_PRIME) & _MASK64
            h = ((h ^ serial) * _FNV_PRIME) & _MASK64
            h = ((h ^ (streams[i] & _MASK64)) * _FNV_PRIME) & _MASK64
            serial += 1
            continue
        if kind == K_STREAM_WAIT or kind == K_EVENT_SYNC:
            version = versions[i]
            if version == 0:
                h = ((h ^ 8) * _FNV_PRIME) & _MASK64
            else:
                reference = local_records.get((wait_ids[i], version))
                if reference is None:
                    return None  # waits on a record from another window
                h = ((h ^ 9) * _FNV_PRIME) & _MASK64
                h = ((h ^ reference) * _FNV_PRIME) & _MASK64
            h = ((h ^ kind) * _FNV_PRIME) & _MASK64
            h = ((h ^ (streams[i] & _MASK64)) * _FNV_PRIME) & _MASK64
            continue
        if kind == K_COLLECTIVE:
            h = ((h ^ 10) * _FNV_PRIME) & _MASK64
            h = ((h ^ coll_fp[templates[i]]) * _FNV_PRIME) & _MASK64
            h = ((h ^ (streams[i] & _MASK64)) * _FNV_PRIME) & _MASK64
            continue
        h = ((h ^ 11) * _FNV_PRIME) & _MASK64
        h = ((h ^ shape_fp[templates[i]]) * _FNV_PRIME) & _MASK64
        h = ((h ^ (streams[i] & _MASK64)) * _FNV_PRIME) & _MASK64
    return h


# ----------------------------------------------------------------------
# wire payload (consumed by repro.service.wire)
# ----------------------------------------------------------------------

def encode_worker_trace(trace: WorkerTrace) -> bytes:
    """Serialize ``trace`` as template pool + raw little-endian columns.

    Layout: ``b"MCOL"`` + u32 header length + pickled header (trace fields,
    template pool, call-class pool, event count and the ``(name, dtype)``
    column specs) + the concatenated column buffers in spec order.
    """
    cols = columnar_worker_trace(trace)
    header = pickle.dumps({
        "rank": trace.rank,
        "device": trace.device,
        "peak_memory_bytes": trace.peak_memory_bytes,
        "oom": trace.oom,
        "metadata": trace.metadata,
        "templates": cols.templates,
        "host_classes": cols.host_classes,
        "n": cols.n,
        "columns": COLUMN_DTYPES,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    parts = [_PAYLOAD_HEADER.pack(PAYLOAD_MAGIC, len(header)), header]
    for name, dtype in COLUMN_DTYPES:
        parts.append(getattr(cols, name).astype(dtype).tobytes())
    return b"".join(parts)


def decode_worker_trace(payload: bytes) -> WorkerTrace:
    """Rebuild the :class:`WorkerTrace` encoded by :func:`encode_worker_trace`.

    Reconstruction is exact (``to_dict()``-equal, hence ``to_json``- and
    signature-equal); the decoded columns are installed as the new trace's
    columnar memo so the receiving simulator skips the rebuild.
    """
    magic, header_len = _PAYLOAD_HEADER.unpack_from(payload, 0)
    if magic != PAYLOAD_MAGIC:
        raise ValueError(f"bad columnar payload magic {magic!r}")
    offset = _PAYLOAD_HEADER.size
    header = pickle.loads(payload[offset:offset + header_len])
    offset += header_len
    n = header["n"]
    columns: Dict[str, Any] = {}
    for name, dtype in header["columns"]:
        width = _np.dtype(dtype).itemsize
        chunk = payload[offset:offset + n * width]
        offset += n * width
        # Slicing copies, so the array is aligned and owns its memory;
        # the native byte order keeps downstream math fast on any host.
        columns[name] = _np.frombuffer(chunk, dtype=dtype).astype(
            _np.dtype(dtype).newbyteorder("="))
    templates = header["templates"]
    cols = ColumnarWorkerTrace(n, columns, templates,
                               header["host_classes"])
    lists = cols.lists()
    kinds = lists["kind"]
    flags = lists["flags"]
    streams = lists["stream"]
    template_ids = lists["template"]
    versions = lists["version"]
    durations = lists["duration"]
    event_ids = lists["event_id"]
    wait_ids = lists["wait_event"]
    aux_seqs = lists["aux_seq"]
    seqs = lists["seq"]

    events: List[TraceEvent] = []
    for i in range(n):
        code = kinds[i]
        bits = flags[i]
        template = templates[template_ids[i]]
        varying = _VARYING_PARAMS.get(code, ())
        fixed = template["params_fixed"]
        params: Dict[str, Any] = {}
        for key in template["params_layout"]:
            if key in varying:
                if key == "version":
                    if bits & F_VERSION:
                        params[key] = versions[i]
                elif bits & F_HOST_SEQ:
                    params[key] = aux_seqs[i]
            else:
                params[key] = fixed[key]
        collective: Optional[Dict[str, Any]] = None
        if template["collective_layout"] is not None:
            coll_fixed = template["collective_fixed"]
            collective = {}
            for key in template["collective_layout"]:
                if key == "seq":
                    if bits & F_COLL_SEQ:
                        collective[key] = aux_seqs[i]
                else:
                    collective[key] = coll_fixed[key]
        event = TraceEvent(
            kind=KINDS_BY_CODE[code],
            api=template["api"],
            device=template["device"],
            stream=None if streams[i] < 0 else streams[i],
            kernel_class=template["kernel_class"],
            params=params,
            collective=collective,
            event=event_ids[i] if bits & F_EVENT else None,
            wait_event=wait_ids[i] if bits & F_WAIT else None,
            duration=durations[i] if bits & F_DURATION else None,
            seq=seqs[i],
        )
        events.append(event)
    trace = WorkerTrace(
        rank=header["rank"],
        device=header["device"],
        peak_memory_bytes=header["peak_memory_bytes"],
        oom=header["oom"],
        metadata=header["metadata"],
    )
    trace.events = events  # assign: append() would renumber seqs
    _memoize_columns(trace, n, cols)
    return trace
