"""Tests for the recorded trace columns and their readers.

Covers the columns themselves (dtypes, template interning, memoization),
the wire payload round-trip (``encode_worker_trace`` /
``decode_worker_trace`` must be ``to_json``-exact), the vectorized
host-delay materialization against the scalar reference, and signature
*decision* agreement with the per-object reference walks kept below
(values differ by design; equality semantics must not).
"""

from __future__ import annotations

import random

import pytest

from repro.core.collator import TraceCollator
from repro.core.columnar import (
    decode_worker_trace,
    encode_worker_trace,
    engine_program,
    materialize_host_delays,
)
from repro.core.trace import (
    COLUMN_DTYPES,
    F_HOST_SEQ,
    K_HOST_DELAY,
    KIND_CODES,
    TraceEvent,
    TraceEventKind,
    WorkerTrace,
)
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
    rewrite_events,
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

    def test_engine_opcodes_follow_kind_codes(self):
        from repro.core import columnar

        for kind, code in KIND_CODES.items():
            name = {"stream_wait_event": "wait", "event_record": "record",
                    "event_synchronize": "event_sync",
                    "stream_synchronize": "stream_sync",
                    "device_synchronize": "device_sync"}.get(kind.value,
                                                             kind.value)
            assert columnar._OPCODES[code] == getattr(
                columnar, f"E_{name.upper()}")

    def test_all_columns_little_endian(self):
        for name, dtype in COLUMN_DTYPES:
            assert dtype.startswith("<"), \
                f"column {name} dtype {dtype} must pin little-endian"

    def test_columns_memoized_per_trace(self):
        trace = one_of_every_kind_trace()
        cols = trace.columns
        arrays = cols.arrays()
        assert cols.arrays() is arrays
        assert len(arrays["seq"]) == len(trace.events) == len(cols)
        # A new row drops every derived view.
        trace.append(kernel())
        assert cols.arrays() is not arrays
        assert len(cols.arrays()["seq"]) == len(trace.events)

    def test_template_pool_distinguishes_int_from_float(self):
        trace = WorkerTrace(rank=0, device=0)
        a = kernel(duration=1.0)
        a.params = {"duration": 1.0, "shape": 1}
        b = kernel(duration=1.0)
        b.params = {"duration": 1.0, "shape": 1.0}
        trace.append(a)
        trace.append(b)
        template = trace.columns.lists()["template"]
        assert template[0] != template[1]
        decoded = decode_worker_trace(encode_worker_trace(trace))
        assert type(decoded.events[0].params["shape"]) is int
        assert type(decoded.events[1].params["shape"]) is float


class TestWirePayload:
    def test_round_trip_every_kind_to_json_exact(self):
        trace = one_of_every_kind_trace()
        payload = encode_worker_trace(trace)
        decoded = decode_worker_trace(payload)
        assert decoded.to_json() == trace.to_json()
        assert decoded.columns.templates == trace.columns.templates

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
        assert engine_program(trace.columns) is not None
        assert trace.rolling_signature() is not None
        assert len(pickle.dumps(trace, protocol=5)) == before


class TestHostDelayMaterialization:
    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_matches_scalar_reference(self, seed):
        job = jitterize_host_delays(build_random_job(seed, steps=80), seed)
        for trace in job.workers.values():
            vec = materialize_host_delays(trace.columns, trace.metadata,
                                          len(trace.events))
            materialize = host_delay_materializer(trace.metadata)
            ref = [0.0] * len(trace.events)
            for event in trace.events:
                if event.kind is TraceEventKind.HOST_DELAY:
                    ref[event.seq] = materialize(event)
            assert vec.tolist() == ref

    def test_legacy_delays_replay_by_value(self):
        trace = WorkerTrace(rank=0, device=0,
                            metadata={HOST_MODEL_METADATA_KEY:
                                      {"name": "h", "jitter": 0.2}})
        trace.append(host_delay(0.75))
        cols = trace.columns
        assert not (cols.lists()["flags"][0] & F_HOST_SEQ)
        assert cols.lists()["kind"][0] == K_HOST_DELAY
        assert materialize_host_delays(cols, trace.metadata,
                                       1).tolist() == [0.75]


# ----------------------------------------------------------------------
# worker-dedup and host-delay signatures against the per-event walk
# ----------------------------------------------------------------------

def _rolling_signature_objects(trace):
    """The per-event rolling hash the recorder's column fold replaced."""
    signature = 0
    for event in trace.events:
        if event.kind is TraceEventKind.HOST_DELAY:
            continue
        signature = stable_hash(signature, event.signature())
    return signature


def _host_delay_signature_objects(trace):
    profile = trace.metadata.get(HOST_MODEL_METADATA_KEY) or {}
    signature = stable_hash("host-delays", profile.get("name"),
                            profile.get("jitter"))
    for event in trace.events:
        if event.kind is TraceEventKind.HOST_DELAY:
            signature = stable_hash(signature, event.seq,
                                    event.duration or 0.0,
                                    event.params.get("seq"),
                                    event.params.get("call_class"))
    return signature


def _fingerprint(collated, rolling, host_delays):
    """A collated trace's replay identity: per representative, its
    operation-stream and host-delay hashes, plus the representative map."""
    return (collated.world_size,
            tuple((rank, rolling(trace), host_delays(trace))
                  for rank, trace in sorted(collated.traces.items())),
            tuple(sorted(collated.representative.items())))


def _mutate(events, rng):
    """One random edit of an event list; some the signatures must see,
    some (durations, handle ids, collective seqs) they must not."""
    events = [TraceEvent.from_dict(event.to_dict()) for event in events]
    pick = rng.randrange(len(events))
    event = events[pick]
    kind = rng.choice(("duration", "stream", "stream_none", "param_type",
                       "zero_sign", "handle", "version", "coll_seq",
                       "delay", "delay_seq", "call_class", "swap", "drop"))
    if kind == "duration":
        event.duration = (event.duration or 0.0) + 0.5
    elif kind == "stream":
        event.stream = (event.stream or 0) + 1
    elif kind == "stream_none":
        event.stream = None if event.stream == 0 else 0
    elif kind == "param_type":
        event.params = {key: (int(value) if isinstance(value, float)
                              and value.is_integer() else value)
                        for key, value in event.params.items()}
    elif kind == "zero_sign":
        event.params = dict(event.params, bytes=rng.choice((0.0, -0.0)))
    elif kind == "handle" and event.event is not None:
        event.event += 7
    elif kind == "version" and "version" in event.params:
        event.params = dict(event.params, version=event.params["version"] + 1)
    elif kind == "coll_seq" and event.collective:
        event.collective = dict(event.collective,
                                seq=event.collective["seq"] + 3)
    elif kind == "delay" and event.kind is TraceEventKind.HOST_DELAY:
        event.duration = (event.duration or 0.0) * 2.0 + 0.25
    elif kind == "delay_seq" and event.kind is TraceEventKind.HOST_DELAY:
        event.params = dict(event.params, seq=rng.randrange(50))
    elif kind == "call_class" and event.kind is TraceEventKind.HOST_DELAY:
        event.params = dict(event.params, call_class=rng.choice(
            ("gemm", "kernel_launch")))
    elif kind == "swap" and pick + 1 < len(events):
        events[pick], events[pick + 1] = events[pick + 1], event
    elif kind == "drop" and len(events) > 1:
        del events[pick]
    return events


def _partition(values):
    """Index sets of equal values (the dedup classes a key induces)."""
    classes = {}
    for index, value in enumerate(values):
        classes.setdefault(value, set()).add(index)
    return sorted(sorted(group) for group in classes.values())


class TestSignatureAgreement:
    """Column-folded and per-event signatures: same equalities."""

    @pytest.mark.parametrize("seed", range(8))
    def test_dedup_classes_match_event_walk(self, seed):
        rng = random.Random(seed)
        base = jitterize_host_delays(build_random_job(seed, steps=50), seed)
        traces = []
        for source in base.workers.values():
            for _ in range(12):
                events = _mutate(source.events, rng)
                for _ in range(rng.randrange(3)):
                    events = _mutate(events, rng)
                # Every variant twice: identical streams must collide.
                for _ in range(2):
                    trace = WorkerTrace(rank=source.rank,
                                        device=source.device,
                                        metadata=dict(source.metadata))
                    for event in events:
                        trace.append(TraceEvent.from_dict(event.to_dict()))
                    traces.append(trace)
        assert _partition([t.rolling_signature() for t in traces]) == \
            _partition([_rolling_signature_objects(t) for t in traces])
        assert _partition([t.host_delay_signature() for t in traces]) == \
            _partition([_host_delay_signature_objects(t) for t in traces])

    @pytest.mark.parametrize("seed", range(4))
    def test_content_signature_equalities_match(self, seed):
        rng = random.Random(seed)
        collator = TraceCollator(deduplicate=False)
        jobs = []
        for variant in range(10):
            job = jitterize_host_delays(
                build_random_job(seed * 100 + variant % 3, steps=40), seed)
            if variant >= 3:
                rank = rng.randrange(job.world_size)
                rewrite_events(job.workers[rank],
                               _mutate(job.workers[rank].events, rng))
            jobs.append(collator.collate(job))
        assert _partition([
            _fingerprint(c, WorkerTrace.rolling_signature,
                         WorkerTrace.host_delay_signature)
            for c in jobs]) == _partition([
                _fingerprint(c, _rolling_signature_objects,
                             _host_delay_signature_objects)
                for c in jobs])

    def test_emulated_ranks_dedup_like_event_walk(self, v100_cluster,
                                                   tiny_model):
        from repro.core.emulator import EmulationSession
        from repro.framework.recipe import TrainingRecipe
        from repro.workloads.job import TransformerTrainingJob

        recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                microbatch_multiplier=2, dtype="float16")
        job = TransformerTrainingJob(tiny_model, recipe, v100_cluster,
                                     global_batch_size=16)
        emulated = EmulationSession(v100_cluster).run(
            job.worker_fn, world_size=job.world_size)
        traces = [emulated.job_trace.workers[rank]
                  for rank in sorted(emulated.job_trace.workers)]
        columns = _partition([t.rolling_signature() for t in traces])
        assert columns == _partition([_rolling_signature_objects(t)
                                      for t in traces])
        assert len(columns) < len(traces)  # some ranks do dedup


def _random_window(rng):
    """One window of every row kind the signatures read."""
    window, records = [], []
    for _ in range(rng.randrange(6, 16)):
        op = rng.choice(("kernel", "delay", "record", "wait", "marker",
                         "collective", "sync"))
        if op == "kernel":
            window.append(kernel(stream=rng.randrange(3)))
        elif op == "delay":
            window.append(host_delay(rng.choice((0.25, 0.5))))
            if rng.random() < 0.5:
                window[-1].params = {"call_class": rng.choice(("a", "b")),
                                     "seq": rng.randrange(9)}
        elif op == "record":
            records.append((rng.randrange(1, 4), len(records) + 1))
            window.append(event_record(*records[-1],
                                       stream=rng.randrange(2)))
        elif op == "wait":
            event_id, version = (rng.choice(records)
                                 if records and rng.random() < 0.7
                                 else (1, 0))
            window.append(wait_event(event_id, version=version,
                                     stream=rng.randrange(2)))
        elif op == "marker":
            window.append(TraceEvent(
                kind=TraceEventKind.MARKER, api="marker", device=0,
                params={"label": rng.choice(("iteration-0-start", "x"))}))
        elif op == "collective":
            window.append(collective("all_reduce", 0, [0, 1], seq=1))
        else:
            window.append(TraceEvent(
                kind=rng.choice((TraceEventKind.STREAM_SYNCHRONIZE,
                                 TraceEventKind.DEVICE_SYNCHRONIZE)),
                api="sync", device=0, stream=rng.randrange(2)))
    return window


#: Window edits: each one both walks must see, or both must ignore.
_WINDOW_EDITS = ("stream", "delay_stream", "duration", "label", "retarget",
                 "wait_to_record", "create", "swap", "handle", "seq",
                 "call_class", "legacy")


def _edit_window(events, rng, edit):
    """Apply one ``edit`` to a random event it applies to, in place."""
    kinds = {
        "delay_stream": (TraceEventKind.HOST_DELAY,),
        "duration": (TraceEventKind.HOST_DELAY,),
        "seq": (TraceEventKind.HOST_DELAY,),
        "call_class": (TraceEventKind.HOST_DELAY,),
        "legacy": (TraceEventKind.HOST_DELAY,),
        "label": (TraceEventKind.MARKER,),
        "retarget": (TraceEventKind.STREAM_WAIT_EVENT,),
        "wait_to_record": (TraceEventKind.STREAM_WAIT_EVENT,),
        "create": (TraceEventKind.EVENT_RECORD,),
        "handle": (TraceEventKind.EVENT_RECORD,),
    }.get(edit)
    candidates = [i for i, event in enumerate(events)
                  if kinds is None or event.kind in kinds]
    if not candidates:
        return
    i = rng.choice(candidates)
    event = events[i]
    records = [(e.event, e.params["version"]) for e in events[:i]
               if e.kind is TraceEventKind.EVENT_RECORD
               and "version" in e.params]
    if edit in ("stream", "delay_stream"):
        event.stream = rng.choice((None, 0, 1, 2))
    elif edit == "duration":
        event.duration = rng.choice((0.25, 0.5, -0.0, 0.0))
    elif edit == "label":
        event.params = {"label": rng.choice(("iteration-7-end", "y", "x"))}
    elif edit == "retarget":
        event.wait_event, version = (rng.choice(records) if records
                                     else (event.wait_event, 0))
        event.params = {"version": version}
    elif edit == "wait_to_record":
        events[i] = event_record(event.wait_event or 1,
                                 version=event.params["version"] or 1,
                                 stream=event.stream)
    elif edit == "create":
        event.params = dict(event.params, create=True)
    elif edit == "swap" and i + 1 < len(events):
        events[i], events[i + 1] = events[i + 1], event
    elif edit == "handle":
        event.event = (event.event or 0) + rng.randrange(1, 3)
    elif edit in ("seq", "call_class") and "seq" in event.params:
        event.params = dict(event.params, seq=event.params["seq"] + 5) \
            if edit == "seq" else dict(event.params, call_class="c")
    elif edit == "legacy":
        event.params = {}


def _trace_of(events, metadata=None):
    """A fresh worker trace holding copies of ``events``."""
    trace = WorkerTrace(rank=0, device=0, metadata=dict(metadata or {}))
    for event in events:
        trace.append(TraceEvent.from_dict(event.to_dict()))
    return trace


def _assert_same_fingerprint_classes(traces):
    assert _partition([t.rolling_signature() for t in traces]) == \
        _partition([_rolling_signature_objects(t) for t in traces])
    assert _partition([t.host_delay_signature() for t in traces]) == \
        _partition([_host_delay_signature_objects(t) for t in traces])


class TestFingerprintAgreement:
    """Worker fingerprints (rolling and host-delay signatures) of windows
    cut from a trace: columns and per-event walk, same equalities."""

    @pytest.mark.parametrize("seed", range(10))
    def test_equality_decisions_match_object_walk(self, seed):
        # The same ranges of every rank: ranks doing the same work must
        # collide in both walks, and any other pair split in both.
        job = build_random_periodic_job(seed, iterations=6)
        n = min(len(trace.events) for trace in job.workers.values())
        rng = random.Random(seed)
        ranges = [(0, n), (0, n // 2), (n // 2, n)]
        for _ in range(12):
            lo = rng.randrange(n)
            ranges.append((lo, rng.randrange(lo, n + 1)))
        _assert_same_fingerprint_classes(
            [_trace_of(trace.events[lo:hi], trace.metadata)
             for trace in job.workers.values() for lo, hi in ranges])

    @pytest.mark.parametrize("edit", _WINDOW_EDITS)
    @pytest.mark.parametrize("seed", range(10))
    def test_edited_window_decisions_match_object_walk(self, seed, edit):
        # Window B repeats window A, then takes one edit that both walks
        # must see, or both must ignore.
        rng = random.Random(seed)
        window = _random_window(rng)
        edited = [TraceEvent.from_dict(event.to_dict()) for event in window]
        _edit_window(edited, rng, edit)
        _assert_same_fingerprint_classes(
            [_trace_of(window), _trace_of(edited)])
