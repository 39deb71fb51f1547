"""Reference recorder: the per-row emulator recorder, kept as the test oracle.

The production emulator (:mod:`repro.core.emulator`) logs one call-pattern
id per intercepted API call and lets :class:`~repro.core.trace.TraceColumns`
write a rank's rows in one vectorized pass.  This module is the recorder
that pass must reproduce, written the obvious way: every call appends its
host-delay row and its device row one column value at a time, interning
the template and the host class of each row as it goes.  It shares the
column layout, the kind codes and the flag bits with ``src/`` and nothing
that interns, logs or flushes, so a bug in call patterns, per-call values,
the delay counter or intern order cannot hide in both.

Deliberately slow and deliberately not in ``src/``; used by the
differential streams in ``test_recorder_differential.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.emulator import _KIND_MAP, DeviceEmulator, _host_call_class
from repro.core.trace import (
    COLUMN_DTYPES,
    F_COLL_SEQ,
    F_DURATION,
    F_EVENT,
    F_HOST_SEQ,
    F_REC_CREATE,
    F_REC_DESTROY,
    F_VERSION,
    F_WAIT,
    K_EVENT_RECORD,
    K_EVENT_SYNC,
    K_HOST_DELAY,
    K_MARKER,
    K_STREAM_WAIT,
    TraceColumns,
    WorkerTrace,
)

_VARYING_PARAM = {
    K_HOST_DELAY: "seq",
    K_EVENT_RECORD: "version",
    K_STREAM_WAIT: "version",
    K_EVENT_SYNC: "version",
}

_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def _values_key(values: Tuple) -> Tuple:
    types = tuple(map(type, values))
    if _PLAIN_TYPES.issuperset(types) and 0 not in values:
        return types, values
    return types, tuple(map(repr, values)), True


class ReferenceColumns:
    """Column lists, template pool and host-class pool, appended per row."""

    def __init__(self) -> None:
        self.templates: List[Dict[str, Any]] = []
        self.host_classes: List[str] = []
        self.lists: Dict[str, list] = {name: [] for name, _ in COLUMN_DTYPES}
        self._template_ids: Dict[Tuple, int] = {}
        self._host_class_ids: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.lists["seq"])

    def record(self, code: int, api: str, device: int,
               stream: Optional[int] = None,
               kernel_class: Optional[str] = None,
               params: Optional[Dict[str, Any]] = None,
               collective: Optional[Dict[str, Any]] = None,
               event: Optional[int] = None,
               wait_event: Optional[int] = None,
               duration: Optional[float] = None,
               template: Optional[int] = None) -> int:
        params = {} if params is None else params
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
        tid = template if template is not None else self._intern(
            code, api, device, kernel_class, params, collective)
        row = (code, bits, -1 if stream is None else stream, tid, version,
               host_class, 0.0 if duration is None else float(duration),
               event or 0, wait_event or 0, aux_seq, len(self))
        for (name, _), value in zip(COLUMN_DTYPES, row):
            self.lists[name].append(value)
        return tid

    def _intern(self, code: int, api: str, device: int,
                kernel_class: Optional[str], params: Dict[str, Any],
                collective: Optional[Dict[str, Any]]) -> int:
        varying = _VARYING_PARAM.get(code)
        fixed = params if varying not in params else {
            k: v for k, v in params.items() if k != varying}
        key = (code, api, device, kernel_class, tuple(params),
               _values_key(tuple(fixed.values())))
        if collective is not None:
            coll_fixed = {k: v for k, v in collective.items() if k != "seq"}
            key += (tuple(collective),
                    _values_key(tuple(coll_fixed.values())))
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


class ReferenceEmulator(DeviceEmulator):
    """A :class:`DeviceEmulator` whose calls go to :class:`ReferenceColumns`.

    ``self.trace`` stays empty (the session still records OOM flags and
    metadata on it); :meth:`snapshot` is the trace recorded so far.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reference = ReferenceColumns()
        self._call_counter = 0
        self._delay_templates: Dict[Tuple[str, str], int] = {}

    def _intercept(self, record) -> None:
        self._call_counter += 1
        columns = self.reference
        call_class = _host_call_class(record)
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

    def mark(self, label: str) -> None:
        self.reference.record(K_MARKER, "marker", self.device,
                              params={"label": label})

    def replay_block(self, body, *args) -> None:
        """The oracle makes every call: no block is ever logged again."""
        body(*args)

    def snapshot(self) -> WorkerTrace:
        """The rows recorded so far, as a read-only :class:`WorkerTrace`."""
        columns = self.reference
        arrays = {name: np.array(columns.lists[name],
                                 dtype=np.dtype(dtype).newbyteorder("="))
                  for name, dtype in COLUMN_DTYPES}
        return WorkerTrace(
            rank=self.trace.rank, device=self.trace.device,
            peak_memory_bytes=self.trace.peak_memory_bytes,
            oom=self.trace.oom, metadata=dict(self.trace.metadata),
            columns=TraceColumns(arrays, list(columns.templates),
                                 list(columns.host_classes)))

    def finalize(self) -> WorkerTrace:
        self.trace.peak_memory_bytes = self.runtime.memory.peak_allocated
        self.trace.metadata.setdefault("kernel_count",
                                       self.runtime.kernel_count)
        self.trace.metadata.setdefault("api_calls", self._call_counter)
        return self.snapshot()
