"""Readers of the recorded trace columns.

A :class:`~repro.core.trace.WorkerTrace` *is* its columns
(:class:`~repro.core.trace.TraceColumns`, one row per event plus a
template pool interned while the emulator records);
:class:`~repro.core.trace.TraceEvent` objects are only a view.  Everything
downstream of the emulator reads the columns through this module, with
per-template signature keys computed once per trace:

* worker deduplication folds the keys' digests over the integer columns
  (:func:`rolling_signature`), vectorized, and so does the host-delay
  stream hash (:func:`host_delay_signature`);
* the replay engine dispatches on an opcode tuple (:func:`engine_program`)
  with no per-event attribute or dict access;
* annotation prices each distinct (template, stream) kernel shape once
  (:func:`kernel_shapes`) and materializes host delays array-wide
  (:func:`materialize_host_delays`);
* the wire payload (:func:`encode_worker_trace` /
  :func:`decode_worker_trace`) is the raw little-endian column buffers
  plus the pickled template pool, and decoding is a header read.

The payload is exact: the decoded trace's view reproduces ``to_json()``
byte for byte, so signatures and cached-artifact keys computed from a
decoded trace match the sender's.  The one deliberate coercion is
numeric width: durations are float64 and handle ids int64, lossless for
everything the emulator emits (hand-built *integer* durations read back as
the equal float).  numpy is a hard requirement of the package.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as _np

from repro.core.trace import (
    COLUMN_DTYPES,
    F_HOST_SEQ,
    F_REC_CREATE,
    F_REC_DESTROY,
    F_VERSION,
    K_HOST_DELAY,
    K_MARKER,
    K_MEMSET,
    KINDS_BY_CODE,
    TraceColumns,
    WorkerTrace,
    collective_signature,
)
from repro.hardware.host_model import (
    HOST_MODEL_METADATA_KEY,
    _JITTER_FLOOR,
    dispatch_class_seed,
)
from repro.hardware.noise import stable_hash

#: First bytes of an encoded columnar payload.
PAYLOAD_MAGIC = b"MCOL"

_PAYLOAD_HEADER = struct.Struct("<4sI")

#: Polynomial base of :func:`_hash_rows` (the 64-bit FNV prime).
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


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

#: Engine opcode of each kind code (``TraceEventKind`` declaration order:
#: kernel, memcpy, memset, collective, host delay, record, stream wait,
#: event sync, stream sync, device sync, marker).
_OPCODES = _np.array([E_KERNEL, E_MEMCPY, E_MEMSET, E_COLLECTIVE,
                      E_HOST_DELAY, E_RECORD, E_WAIT, E_EVENT_SYNC,
                      E_STREAM_SYNC, E_DEVICE_SYNC, E_MARKER])


class EngineProgram:
    """Positional opcode/operand views derived from one trace's columns.

    Tuples, not arrays: the engine reads single elements in a tight loop,
    where tuple indexing beats numpy scalar extraction by ~3x.  Not lists:
    a program lives as long as its cached artifact, and CPython stops
    tracking a tuple of untracked values (ints, strings, ``None``, tuples
    of those) at the first collection that sees it, so later full
    collections skip every row instead of walking it.
    """

    __slots__ = ("n", "codes", "streams", "seqs", "ekeys", "labels")

    def __init__(self, cols: TraceColumns) -> None:
        arrays, lists = cols.arrays(), cols.lists()
        codes = _OPCODES[arrays["kind"]]
        codes[(codes == E_RECORD) & ((arrays["flags"] & (
            F_REC_CREATE | F_REC_DESTROY)) != 0)] = E_SKIP
        self.n = len(cols)
        self.codes = tuple(codes.tolist())
        #: Stream operand with the engine's ``None -> 0`` default applied.
        self.streams = tuple(_np.maximum(arrays["stream"], 0).tolist())
        self.seqs = lists["seq"]
        #: (CUDA event handle, version) a record writes or a wait reads.
        ekeys: List[Optional[Tuple[int, int]]] = [None] * self.n
        versions = lists["version"]
        for handles, waits in ((lists["event_id"], codes == E_RECORD),
                               (lists["wait_event"], (codes == E_WAIT)
                                | (codes == E_EVENT_SYNC))):
            for i in _np.flatnonzero(waits).tolist():
                ekeys[i] = (handles[i], versions[i])
        self.ekeys = tuple(ekeys)
        labels: List[Optional[str]] = [None] * self.n
        for i in cols.rows(K_MARKER):
            params = cols.templates[lists["template"][i]]["params_fixed"]
            labels[i] = str(params.get("label", ""))
        self.labels = tuple(labels)


def engine_program(cols: TraceColumns) -> EngineProgram:
    """Engine opcode view of ``cols``, memoized on the columns."""
    return cols.memoized("program", EngineProgram)


# ----------------------------------------------------------------------
# vectorized mixing, host-delay materialization
# ----------------------------------------------------------------------

def _splitmix64(seeds):
    """splitmix64 of every lane of a uint64 array (wrapping arithmetic)."""
    z = seeds + _np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return z ^ (z >> _np.uint64(31))


def fast_noise_array(seeds, scale: float):
    """Vectorized :func:`repro.hardware.noise.fast_noise`, bit-identical.

    ``seeds`` is a uint64 array; the splitmix64 mix matches the scalar's
    explicit 64-bit masking and the float expression keeps the scalar's
    exact evaluation order, so each lane equals
    ``fast_noise(int(seed), scale)`` bit for bit.
    """
    uniform = _splitmix64(seeds) / float(2 ** 64)
    return 1.0 + scale * 3.4641016151377544 * (uniform - 0.5)


def materialize_host_delays(cols: TraceColumns,
                            metadata: Dict[str, Any],
                            size: int) -> Any:
    """Seq-indexed replayed host-delay durations, vectorized.

    Equivalent, element for element, to running
    :func:`repro.hardware.host_model.host_delay_materializer` over every
    ``HOST_DELAY`` event and scattering the results into a ``size``-long
    per-seq float64 numpy vector (provider annotation writes the kernel
    durations into its other slots).
    """
    arrays = cols.arrays()
    out = _np.zeros(size, dtype=_np.float64)
    idx = _np.nonzero(arrays["kind"] == K_HOST_DELAY)[0]
    if idx.size:
        values = arrays["duration"][idx].copy()
        profile = metadata.get(HOST_MODEL_METADATA_KEY) or {}
        scale = float(profile.get("jitter", 0.0))
        structured = (arrays["flags"][idx] & F_HOST_SEQ) != 0
        if scale > 0.0 and structured.any():
            host_name = str(profile.get("name", ""))
            sidx = idx[structured]
            # Class index -1 (no call class) picks the trailing "misc".
            class_seeds = _np.array(
                [dispatch_class_seed(host_name, name)
                 for name in cols.host_classes + ["misc"]], dtype=_np.uint64)
            seeds = (class_seeds[arrays["host_class"][sidx]]
                     + arrays["aux_seq"][sidx].astype(_np.uint64))
            factor = _np.maximum(fast_noise_array(seeds, scale),
                                 _JITTER_FLOOR)
            values[structured] = arrays["duration"][sidx] * factor
        out[arrays["seq"][idx]] = values
    return out


# ----------------------------------------------------------------------
# per-template digests and the signatures folded from them
# ----------------------------------------------------------------------

def _template_keys(cols: TraceColumns) -> List[Optional[Tuple]]:
    """Per-template signature keys, built once per trace (memoized).

    ``keys[tid]`` is ``TraceEvent.signature()`` minus the stream (a column)
    and, for the record/wait kinds, minus the ``version`` param (a column
    too).  Templates no row uses keep ``None``.
    """
    return cols.memoized("template_keys", _build_template_keys)


def _build_template_keys(cols: TraceColumns) -> List[Optional[Tuple]]:
    arrays = cols.arrays()
    used, first = _np.unique(arrays["template"], return_index=True)
    keys: List[Optional[Tuple]] = [None] * len(cols.templates)
    for tid, code in zip(used.tolist(), arrays["kind"][first].tolist()):
        template = cols.templates[tid]
        params = template["params_fixed"]
        keys[tid] = (
            KINDS_BY_CODE[code].value, template["api"],
            template["kernel_class"],
            tuple(sorted((k, v) for k, v in params.items()
                         if k not in ("free", "total"))),
            collective_signature(template["collective_fixed"]))
    return keys


def _hash_rows(lanes: List[Any], seed: int) -> int:
    """Order-sensitive 64-bit hash of rows given as parallel uint64 lanes:
    each row's lanes chained through splitmix64, folded as
    ``sum(value[i] * P**(n - i))`` (wrapping) and finished with ``seed``
    and the row count.  Collisions are ~2**-64, like a blake2b chain."""
    values = _splitmix64(lanes[0])
    for lane in lanes[1:]:
        values = _splitmix64(values + lane)
    powers = _np.full(values.size, _FNV_PRIME, dtype=_np.uint64).cumprod()
    total = _np.array([(values * powers[::-1]).sum(dtype=_np.uint64)])
    tail = _splitmix64(_np.array([seed & _MASK64], dtype=_np.uint64)
                       + _np.uint64(values.size))
    return int(_splitmix64(total ^ tail)[0])


def rolling_signature(cols: TraceColumns) -> int:
    """Hash of every non-host-delay event's ``signature()``, in order.

    Each event contributes its template digest, its stream and (record /
    wait kinds) its ``version``: exactly the fields ``signature()`` reads,
    so two traces hash equal iff their operation streams do.  Memoized.
    """
    return cols.memoized("rolling_signature", _rolling_signature)


def _rolling_signature(cols: TraceColumns) -> int:
    arrays = cols.arrays()
    rows = _np.flatnonzero(arrays["kind"] != K_HOST_DELAY)
    digests = _np.array([0 if key is None else stable_hash(key)
                         for key in _template_keys(cols)],
                        dtype=_np.uint64)[arrays["template"][rows]]
    versions = ((arrays["version"][rows].astype(_np.int64)
                 .astype(_np.uint64) << _np.uint64(4))
                | (arrays["flags"][rows] & F_VERSION).astype(_np.uint64))
    return _hash_rows(
        [digests, arrays["stream"][rows].astype(_np.uint64), versions], 0)


def host_delay_signature(cols: TraceColumns,
                         metadata: Dict[str, Any]) -> int:
    """Hash of the ``HOST_DELAY`` rows plus the recorded host profile.

    Covers what materialization consumes: each delay's seq, recorded
    duration (``None`` and ``-0.0`` hash as ``0.0``), structured jitter key
    and call class.  Memoized on the rows, like the profile it reads.
    """
    return cols.memoized("host_delay_signature",
                         lambda cols: _host_delay_signature(cols, metadata))


def _host_delay_signature(cols: TraceColumns,
                          metadata: Dict[str, Any]) -> int:
    arrays = cols.arrays()
    rows = _np.flatnonzero(arrays["kind"] == K_HOST_DELAY)
    # Index -1 (no call class) picks the trailing digest of None.
    classes = _np.array([stable_hash(name) for name in cols.host_classes]
                        + [stable_hash(None)], dtype=_np.uint64)
    jitter_keys = (arrays["aux_seq"][rows].astype(_np.uint64)
                   + (arrays["flags"][rows] & F_HOST_SEQ).astype(_np.uint64))
    profile = metadata.get(HOST_MODEL_METADATA_KEY) or {}
    return _hash_rows(
        [arrays["seq"][rows].astype(_np.uint64),
         (arrays["duration"][rows] + 0.0).view(_np.uint64),
         jitter_keys, classes[arrays["host_class"][rows]]],
        stable_hash("host-delays", profile.get("name"),
                    profile.get("jitter")))


def kernel_shapes(cols: TraceColumns) -> Tuple[Any, Any, List[Tuple]]:
    """Distinct (template, stream) shapes of the kernel/copy/memset rows:
    ``(seqs, shape_of_row, shapes)``, each shape the ``(kernel_class,
    params, signature)`` a shape-keyed provider prices (``signature`` is
    every such row's ``TraceEvent.signature()``).  Memoized."""
    return cols.memoized("kernel_shapes", _kernel_shapes)


def _kernel_shapes(cols: TraceColumns) -> Tuple[Any, Any, List[Tuple]]:
    arrays = cols.arrays()
    rows = _np.flatnonzero(arrays["kind"] <= K_MEMSET)
    keys = ((arrays["template"][rows].astype(_np.int64) << 32)
            | (arrays["stream"][rows].astype(_np.int64) & 0xFFFFFFFF))
    _, first, shape_of_row = _np.unique(keys, return_index=True,
                                        return_inverse=True)
    shape_keys = _template_keys(cols)
    shapes = []
    for row in rows[first].tolist():
        tid = int(arrays["template"][row])
        kind, api, kernel_class, params_key, coll_key = shape_keys[tid]
        stream = int(arrays["stream"][row])
        shapes.append((kernel_class, cols.templates[tid]["params_fixed"],
                       (kind, api, kernel_class,
                        None if stream < 0 else stream, params_key,
                        coll_key)))
    return arrays["seq"][rows], shape_of_row.reshape(-1), shapes


# ----------------------------------------------------------------------
# wire payload (consumed by repro.service.wire)
# ----------------------------------------------------------------------

def encode_worker_trace(trace: WorkerTrace) -> bytes:
    """Serialize ``trace`` as template pool + raw little-endian columns.

    Layout: ``b"MCOL"`` + u32 header length + pickled header (trace fields,
    template pool, call-class pool, event count and the ``(name, dtype)``
    column specs) + the concatenated column buffers in spec order.
    """
    cols = trace.columns
    header = pickle.dumps({
        "rank": trace.rank,
        "device": trace.device,
        "peak_memory_bytes": trace.peak_memory_bytes,
        "oom": trace.oom,
        "metadata": trace.metadata,
        "templates": cols.templates,
        "host_classes": cols.host_classes,
        "n": len(cols),
        "columns": COLUMN_DTYPES,
    }, protocol=pickle.HIGHEST_PROTOCOL)
    parts = [_PAYLOAD_HEADER.pack(PAYLOAD_MAGIC, len(header)), header]
    arrays = cols.arrays()
    for name, dtype in COLUMN_DTYPES:
        parts.append(arrays[name].astype(dtype).tobytes())
    return b"".join(parts)


def decode_worker_trace(payload: bytes) -> WorkerTrace:
    """Rebuild the :class:`WorkerTrace` encoded by :func:`encode_worker_trace`.

    A header read: the column buffers become the new trace's columns as
    they are, with no per-event work.
    """
    magic, header_len = _PAYLOAD_HEADER.unpack_from(payload, 0)
    if magic != PAYLOAD_MAGIC:
        raise ValueError(f"bad columnar payload magic {magic!r}")
    offset = _PAYLOAD_HEADER.size
    header = pickle.loads(payload[offset:offset + header_len])
    offset += header_len
    n = header["n"]
    arrays: Dict[str, Any] = {}
    for name, dtype in header["columns"]:
        width = _np.dtype(dtype).itemsize
        chunk = payload[offset:offset + n * width]
        offset += n * width
        # Slicing copies, so the array is aligned and owns its memory;
        # the native byte order keeps downstream math fast on any host.
        arrays[name] = _np.frombuffer(chunk, dtype=dtype).astype(
            _np.dtype(dtype).newbyteorder("="))
    return WorkerTrace(
        rank=header["rank"],
        device=header["device"],
        peak_memory_bytes=header["peak_memory_bytes"],
        oom=header["oom"],
        metadata=header["metadata"],
        columns=TraceColumns(arrays, header["templates"],
                             header["host_classes"]),
    )
