"""Tests for the structure-of-arrays trace representation.

Covers the column build itself (dtypes, memoization), the wire payload
round-trip (``encode_worker_trace`` / ``decode_worker_trace`` must be
``to_json``-exact), the vectorized host-delay materialization against the
scalar reference, and fingerprint *decision* agreement with the
per-object reference walk kept below (values differ by design; equality
semantics must not).
"""

from __future__ import annotations

import random

import pytest

from repro.core.collator import _ITERATION_MARKER
from repro.core.columnar import (
    COLUMN_DTYPES,
    F_HOST_SEQ,
    K_HOST_DELAY,
    KIND_CODES,
    columnar_worker_trace,
    decode_worker_trace,
    encode_worker_trace,
    materialize_host_delays,
    range_fingerprint,
)
from repro.core.trace import TraceEvent, TraceEventKind, WorkerTrace
from repro.hardware.host_model import (
    HOST_MODEL_METADATA_KEY,
    host_delay_materializer,
)
from repro.hardware.noise import stable_hash

from test_simulator import (
    build_random_job,
    build_random_periodic_job,
    collective,
    event_record,
    host_delay,
    jitterize_host_delays,
    kernel,
    wait_event,
)


def one_of_every_kind_trace() -> WorkerTrace:
    """A trace exercising every event kind and every optional field shape."""
    trace = WorkerTrace(rank=0, device=0, peak_memory_bytes=123, oom=False,
                        metadata={"note": "fixture"})
    events = [
        kernel(stream=2, duration=3.0 / 64.0),
        TraceEvent(kind=TraceEventKind.MEMCPY, api="cudaMemcpyAsync",
                   device=0, stream=1, params={"duration": 0.25,
                                               "bytes": 4096.0}),
        TraceEvent(kind=TraceEventKind.MEMSET, api="cudaMemsetAsync",
                   device=0, stream=1, params={"duration": 0.125}),
        # None stream (host-side serialization of a device op).
        TraceEvent(kind=TraceEventKind.KERNEL, api="k2", device=0,
                   stream=None, kernel_class="gemm",
                   params={"duration": 1.0, "m": 64, "n": 64.0}),
        host_delay(0.5),                                     # legacy delay
        TraceEvent(kind=TraceEventKind.HOST_DELAY, api="hostDelay",
                   device=0, duration=0.25,
                   params={"call_class": "optimizer", "after": "k",
                           "seq": 5}),                       # structured
        TraceEvent(kind=TraceEventKind.EVENT_RECORD, api="cudaEventCreate",
                   device=0, event=9, params={"create": True}),
        event_record(9, version=1, stream=0),
        wait_event(9, version=1, stream=2),
        TraceEvent(kind=TraceEventKind.EVENT_SYNCHRONIZE,
                   api="cudaEventSynchronize", device=0, event=9,
                   params={"version": 1}),
        TraceEvent(kind=TraceEventKind.EVENT_RECORD, api="cudaEventDestroy",
                   device=0, event=9, params={"destroy": True}),
        collective("all_reduce", 0, [0, 1], seq=1, duration=2.0),
        collective("send", 0, [0, 1], seq=2, duration=1.0, peer=1),
        TraceEvent(kind=TraceEventKind.STREAM_SYNCHRONIZE,
                   api="cudaStreamSynchronize", device=0, stream=1),
        TraceEvent(kind=TraceEventKind.DEVICE_SYNCHRONIZE,
                   api="cudaDeviceSynchronize", device=0),
        TraceEvent(kind=TraceEventKind.MARKER, api="marker", device=0,
                   params={"label": "iteration-0-start"}),
    ]
    for event in events:
        trace.append(event)
    return trace


class TestColumnBuild:
    def test_kind_codes_follow_declaration_order(self):
        assert [KIND_CODES[kind] for kind in TraceEventKind] == \
            list(range(len(TraceEventKind)))

    def test_all_columns_little_endian(self):
        for name, dtype in COLUMN_DTYPES:
            assert dtype.startswith("<"), \
                f"column {name} dtype {dtype} must pin little-endian"

    def test_columns_memoized_per_trace(self):
        trace = one_of_every_kind_trace()
        first = columnar_worker_trace(trace)
        assert first is columnar_worker_trace(trace)
        assert first.n == len(trace.events)

    def test_template_pool_distinguishes_int_from_float(self):
        trace = WorkerTrace(rank=0, device=0)
        a = kernel(duration=1.0)
        a.params = {"duration": 1.0, "shape": 1}
        b = kernel(duration=1.0)
        b.params = {"duration": 1.0, "shape": 1.0}
        trace.append(a)
        trace.append(b)
        cols = columnar_worker_trace(trace)
        assert cols.template[0] != cols.template[1]
        decoded = decode_worker_trace(encode_worker_trace(trace))
        assert type(decoded.events[0].params["shape"]) is int
        assert type(decoded.events[1].params["shape"]) is float


class TestWirePayload:
    def test_round_trip_every_kind_to_json_exact(self):
        trace = one_of_every_kind_trace()
        payload = encode_worker_trace(trace)
        decoded = decode_worker_trace(payload)
        assert decoded.to_json() == trace.to_json()
        # The decoded trace arrives with its columnar memo installed.
        assert columnar_worker_trace(decoded) is not None

    def test_round_trip_empty_trace(self):
        trace = WorkerTrace(rank=3, device=1, metadata={"empty": True})
        decoded = decode_worker_trace(encode_worker_trace(trace))
        assert decoded.to_json() == trace.to_json()
        assert decoded.events == []

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random_traces(self, seed):
        job = build_random_job(seed, steps=60)
        for trace in job.workers.values():
            decoded = decode_worker_trace(encode_worker_trace(trace))
            assert decoded.to_json() == trace.to_json()

    def test_payload_smaller_than_pickle_on_steady_state_trace(self):
        # Steady-state traces repeat one window, so the template pool
        # dedups across iterations and the raw columns win.  (A trace of
        # all-distinct params has nothing to dedup; that shape is not what
        # artifact shipping carries.)
        import pickle

        job = build_random_periodic_job(0, iterations=16)
        trace = next(iter(job.workers.values()))
        payload = encode_worker_trace(trace)
        assert len(payload) < len(pickle.dumps(trace, protocol=5))

    def test_memo_does_not_ride_the_plain_pickle(self):
        import pickle

        job = build_random_job(0, steps=60)
        trace = next(iter(job.workers.values()))
        before = len(pickle.dumps(trace, protocol=5))
        assert columnar_worker_trace(trace) is not None
        assert len(pickle.dumps(trace, protocol=5)) == before


class TestHostDelayMaterialization:
    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_matches_scalar_reference(self, seed):
        job = jitterize_host_delays(build_random_job(seed, steps=80), seed)
        for trace in job.workers.values():
            cols = columnar_worker_trace(trace)
            vec = materialize_host_delays(cols, trace.metadata,
                                          len(trace.events))
            materialize = host_delay_materializer(trace.metadata)
            ref = [0.0] * len(trace.events)
            for event in trace.events:
                if event.kind is TraceEventKind.HOST_DELAY:
                    ref[event.seq] = materialize(event)
            assert vec == ref

    def test_legacy_delays_replay_by_value(self):
        trace = WorkerTrace(rank=0, device=0,
                            metadata={HOST_MODEL_METADATA_KEY:
                                      {"name": "h", "jitter": 0.2}})
        trace.append(host_delay(0.75))
        cols = columnar_worker_trace(trace)
        assert not (cols.flags[0] & F_HOST_SEQ)
        assert cols.kind[0] == K_HOST_DELAY
        assert materialize_host_delays(cols, trace.metadata, 1) == [0.75]


def _range_fingerprint_objects(trace, lo, hi):
    """Per-object reference for ``columnar.range_fingerprint``.

    The walk the collator used before the columns existed: a blake2b chain
    over event objects.  Values differ from the columnar FNV mix by design;
    verdicts (``None`` or not) and equality between ranges must not.
    """
    signature = stable_hash("window")
    local_records: dict = {}
    serial = 0
    for event in trace.events[lo:hi]:
        kind = event.kind
        if kind is TraceEventKind.HOST_DELAY:
            if "seq" in event.params:
                signature = stable_hash(
                    signature, "delay",
                    str(event.params.get("call_class", "")),
                    event.duration or 0.0)
            else:
                signature = stable_hash(signature, "delay",
                                        event.duration or 0.0)
            continue
        if kind is TraceEventKind.MARKER:
            # Iteration markers embed the window index, so only their
            # position is hashed; any other label must recur verbatim in
            # every window (a window-unique label would be dropped or
            # mis-timed by fold extrapolation, so it blocks periodicity).
            label = str(event.params.get("label", ""))
            if _ITERATION_MARKER.match(label):
                signature = stable_hash(signature, "iteration-marker")
            else:
                signature = stable_hash(signature, "marker", label)
            continue
        if kind is TraceEventKind.EVENT_RECORD:
            if event.params.get("create"):
                signature = stable_hash(signature, "event-create")
                continue
            if event.params.get("destroy"):
                signature = stable_hash(signature, "event-destroy")
                continue
            key = (event.event or 0, int(event.params.get("version", 0)))
            local_records[key] = serial
            signature = stable_hash(signature, "record", serial, event.stream)
            serial += 1
            continue
        if kind in (TraceEventKind.STREAM_WAIT_EVENT,
                    TraceEventKind.EVENT_SYNCHRONIZE):
            version = int(event.params.get("version", 0))
            if version == 0:
                # Waiting on a never-recorded event is a no-op.
                signature = stable_hash(signature, "noop-wait", kind.value,
                                        event.stream)
                continue
            reference = local_records.get((event.wait_event or 0, version))
            if reference is None:
                return None  # waits on an event recorded in another window
            signature = stable_hash(signature, kind.value, reference,
                                    event.stream)
            continue
        if kind is TraceEventKind.COLLECTIVE:
            info = event.collective or {}
            signature = stable_hash(
                signature, "collective", event.stream, str(info.get("op")),
                str(info.get("comm_tag")), tuple(info.get("ranks", ())),
                int(info.get("peer", -1)), float(event.params.get("bytes", 0.0)))
            continue
        # Kernels, copies, memsets, synchronisation calls: the memoized
        # shape signature already excludes durations and sequence numbers.
        signature = stable_hash(signature, event.signature())
    return signature


class TestFingerprintAgreement:
    """Columnar and per-object fingerprints: same decisions, any values."""

    @pytest.mark.parametrize("seed", range(10))
    def test_equality_decisions_match_object_walk(self, seed):
        job = build_random_periodic_job(seed, iterations=6)
        for trace in job.workers.values():
            cols = columnar_worker_trace(trace)
            n = len(trace.events)
            rng = random.Random(seed)
            ranges = [(0, n), (0, n // 2), (n // 2, n)]
            for _ in range(12):
                lo = rng.randrange(n)
                hi = rng.randrange(lo, n + 1)
                ranges.append((lo, hi))
            objects = [_range_fingerprint_objects(trace, lo, hi)
                       for lo, hi in ranges]
            columns = [range_fingerprint(cols, lo, hi, _ITERATION_MARKER)
                       for lo, hi in ranges]
            for i in range(len(ranges)):
                assert (objects[i] is None) == (columns[i] is None), \
                    f"range {ranges[i]}: periodicity verdicts diverge"
                for j in range(i + 1, len(ranges)):
                    if objects[i] is None or objects[j] is None:
                        continue
                    assert ((objects[i] == objects[j])
                            == (columns[i] == columns[j])), \
                        f"ranges {ranges[i]} vs {ranges[j]}: " \
                        f"equality decisions diverge"

    def test_cross_range_wait_is_not_periodic(self):
        trace = WorkerTrace(rank=0, device=0)
        trace.append(event_record(1, version=1, stream=0))
        trace.append(kernel())
        trace.append(wait_event(1, version=1, stream=1))
        cols = columnar_worker_trace(trace)
        # The wait's record lies outside [1, 3): both walks must say None.
        assert _range_fingerprint_objects(trace, 1, 3) is None
        assert range_fingerprint(cols, 1, 3, _ITERATION_MARKER) is None
        # Record inside the range: both walks fingerprint it.
        assert _range_fingerprint_objects(trace, 0, 3) is not None
        assert range_fingerprint(cols, 0, 3, _ITERATION_MARKER) is not None
