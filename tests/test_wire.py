"""Unit tests for the prediction server's wire framing and handshake."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.core.trace import WorkerTrace
from repro.service import wire


def _pair():
    left, right = socket.socketpair()
    return wire.WireConnection(left), wire.WireConnection(right)


class TestFraming:
    def test_roundtrip_python_objects(self):
        a, b = _pair()
        try:
            payloads = [("job", 3, {"knob": 1.5}), [1, 2, 3], "text", None,
                        ("sync", 7, False, [(("k",), b"\x00" * 100)], [], [])]
            for payload in payloads:
                a.send(payload)
                assert b.recv() == payload
            # And the other direction on the same pair.
            b.send(("result", 0))
            assert a.recv() == ("result", 0)
        finally:
            a.close()
            b.close()

    def test_large_payload_crosses_in_one_frame(self):
        a, b = _pair()
        try:
            blob = b"\xab" * (2 * 1024 * 1024)
            thread = threading.Thread(target=a.send, args=(("big", blob),))
            thread.start()  # socketpair buffers are small: send concurrently
            kind, received = b.recv()
            thread.join()
            assert kind == "big" and received == blob
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises_eoferror(self):
        a, b = _pair()
        a.close()
        try:
            with pytest.raises(EOFError):
                b.recv()
        finally:
            b.close()

    def test_garbage_magic_is_rejected_with_protocol_error(self):
        left, right = socket.socketpair()
        conn = wire.WireConnection(right)
        try:
            left.sendall(b"GET / HTTP/1.1\r\n\r\n")
            with pytest.raises(wire.WireProtocolError, match="magic"):
                conn.recv()
        finally:
            left.close()
            conn.close()

class TestHandshake:
    def test_matching_versions_succeed(self):
        a, b = _pair()
        try:
            server = threading.Thread(target=wire.handshake, args=(b,))
            server.start()
            wire.handshake(a)
            server.join()
        finally:
            a.close()
            b.close()

    def test_version_mismatch_names_both_versions(self, monkeypatch):
        a, b = _pair()
        try:
            # The peer answers with a future protocol version; this side
            # must refuse with a message naming both numbers.
            b.send_json({"magic": wire.HANDSHAKE_MAGIC, "protocol": 999})
            with pytest.raises(wire.WireProtocolError) as excinfo:
                wire.handshake(a)
            message = str(excinfo.value)
            assert str(wire.PROTOCOL) in message and "999" in message
        finally:
            a.close()
            b.close()

    @staticmethod
    def _refusal(old_protocol):
        """The message this side refuses an ``old_protocol`` hello with."""
        a, b = _pair()
        try:
            b.send_json({"magic": wire.HANDSHAKE_MAGIC,
                         "protocol": old_protocol,
                         "features": sorted(wire.local_features())})
            with pytest.raises(wire.WireProtocolError) as excinfo:
                wire.handshake(a)
            return str(excinfo.value)
        finally:
            a.close()
            b.close()

    def test_protocol_1_hello_is_refused(self):
        # Protocol 1 peers put a JSON trace, ``oom`` and ``stage_times``
        # where later result frames carry one artifact payload: a
        # mixed-version peer must be turned away at the hello,
        # never left to mis-parse a frame.
        assert wire.PROTOCOL == 3
        message = self._refusal(1)
        assert "speaks version 3" in message
        assert "peer speaks version 1" in message

    def test_protocol_2_hello_is_refused(self):
        # Protocol 2 peers pickle each collated trace with a per-event
        # collective dict that protocol 3 artifacts no longer carry.
        message = self._refusal(2)
        assert "speaks version 3" in message
        assert "peer speaks version 2" in message

    def test_silent_peer_times_out_instead_of_stalling(self):
        # A listener that accepts (at the TCP level) but never answers the
        # hello must not hang connect(): the handshake read times out with
        # an OSError the caller can handle like a refused connection.
        listener = socket.socket()
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            port = listener.getsockname()[1]
            with pytest.raises(OSError):
                wire.connect(f"127.0.0.1:{port}", timeout=0.3)
        finally:
            listener.close()

    def test_non_handshake_first_frame_is_refused(self):
        a, b = _pair()
        try:
            b.send(("job", 0, None))  # pickle frame instead of a hello
            with pytest.raises(wire.WireProtocolError, match="handshake"):
                wire.handshake(a)
        finally:
            a.close()
            b.close()

    def test_pickle_first_peer_is_refused_without_unpickling(self, tmp_path):
        # A hostile (or confused) peer whose first frame is a pickle must
        # be rejected before any byte of it is deserialised: unpickling
        # pre-handshake data is arbitrary code execution.  The payload
        # touches a marker file when unpickled; the file must not exist.
        marker = tmp_path / "unpickled-before-handshake"
        a, b = _pair()
        try:
            b.send(_TouchOnUnpickle(str(marker)))
            with pytest.raises(wire.WireProtocolError, match="JSON"):
                wire.handshake(a)
            assert not marker.exists()
        finally:
            a.close()
            b.close()


def _touch_marker(path):
    open(path, "w").close()
    return path


class _TouchOnUnpickle:
    """Pickles to a ``_touch_marker`` call -- proof that loads() ran."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (_touch_marker, (self.path,))


def _handshaken_pair():
    a, b = _pair()
    server = threading.Thread(target=wire.handshake, args=(b,))
    server.start()
    wire.handshake(a)
    server.join()
    return a, b


def _example_trace(seed=0, steps=40):
    from test_simulator import build_random_job

    job = build_random_job(seed, steps=steps)
    return next(iter(job.workers.values()))


class _TaggedTrace(WorkerTrace):
    """A subclass with state the columnar encoding knows nothing about."""

    tag = None


class _Registered:
    def __init__(self, value):
        self.value = value


class TestColumnarNegotiation:
    """Feature negotiation and the format-3 (columnar pickle) frames."""

    def test_only_exact_worker_traces_are_reduced(self):
        # The pickler's dispatch table matches exact types: a subclass
        # keeps default pickling (and its extra state), and reducers
        # registered process-wide with copyreg still apply.
        import copyreg

        source = _example_trace()
        tagged = _TaggedTrace(rank=source.rank, device=source.device)
        for event in source.events:
            tagged.append(event)
        tagged.tag = "kept"
        copyreg.pickle(_Registered, lambda obj: (_Registered, (obj.value + 1,)))
        try:
            payload = wire.dumps_columnar((source, tagged, _Registered(1)))
        finally:
            del copyreg.dispatch_table[_Registered]
        assert b"decode_worker_trace" in payload
        plain, subclass, registered = wire.loads(payload)
        assert type(plain) is WorkerTrace
        assert plain.to_json() == source.to_json()
        assert type(subclass) is _TaggedTrace and subclass.tag == "kept"
        assert subclass.to_json() == source.to_json()
        assert registered.value == 2

    def test_features_exchanged_symmetrically(self):
        a, b = _handshaken_pair()
        try:
            assert wire.FEATURE_COLUMNAR in a.peer_features
            assert wire.FEATURE_COLUMNAR in b.peer_features
        finally:
            a.close()
            b.close()

    def test_worker_trace_rides_format_3_and_round_trips(self):
        trace = _example_trace()
        a, b = _handshaken_pair()
        try:
            a.send(("artifact", 4, trace))
            kind, index, received = b.recv()
            assert (kind, index) == ("artifact", 4)
            assert received.to_json() == trace.to_json()
            assert a.frames_sent.get(wire._FORMAT_PICKLE_COLUMNAR) == 1
        finally:
            a.close()
            b.close()

    def test_columnar_payload_is_smaller_on_steady_state_trace(self):
        from test_simulator import build_random_periodic_job

        job = build_random_periodic_job(0, iterations=16)
        trace = next(iter(job.workers.values()))
        plain = wire.dumps(("artifact", trace))
        columnar = wire.dumps_columnar(("artifact", trace))
        assert len(columnar) < len(plain)

    def test_empty_trace_round_trips_columnar(self):
        from repro.core.trace import WorkerTrace

        trace = WorkerTrace(rank=2, device=0)
        a, b = _handshaken_pair()
        try:
            a.send(("artifact", trace))
            _, received = b.recv()
            assert received.to_json() == trace.to_json()
            assert a.frames_sent.get(wire._FORMAT_PICKLE_COLUMNAR) == 1
        finally:
            a.close()
            b.close()

    def test_non_columnar_peer_falls_back_to_pickle(self, monkeypatch):
        # Version skew: the peer predates (or disabled) the columnar
        # format.  Its hello omits the feature, so this side must ship a
        # plain pickle -- same objects, no error.
        trace = _example_trace()
        a, b = _pair()
        try:
            b.send_json({"magic": wire.HANDSHAKE_MAGIC,
                         "protocol": wire.PROTOCOL})  # old peer: no features
            server = threading.Thread(target=b.recv)  # drain our hello
            server.start()
            wire.handshake(a)
            server.join()
            assert a.peer_features == frozenset()
            a.send(("artifact", trace))
            _, received = b.recv()
            assert received.to_json() == trace.to_json()
            assert wire._FORMAT_PICKLE_COLUMNAR not in a.frames_sent
            assert a.frames_sent.get(wire._FORMAT_PICKLE) == 1
        finally:
            a.close()
            b.close()

    def test_format_3_decodes_on_a_plain_recv_path(self):
        # A format-3 frame is a standard pickle: written raw, it must decode
        # identically on any current peer's recv.
        trace = _example_trace()
        left, right = socket.socketpair()
        b = wire.WireConnection(right)
        try:
            frame = wire.encode_frame(("artifact", trace),
                                      frozenset({wire.FEATURE_COLUMNAR}))
            assert wire.parse_header(frame[:wire.HEADER_SIZE])[0] == \
                wire._FORMAT_PICKLE_COLUMNAR
            left.sendall(frame)
            _, received = b.recv()
            assert received.to_json() == trace.to_json()
        finally:
            left.close()
            b.close()


class TestAddresses:
    def test_parse_address(self):
        assert wire.parse_address("127.0.0.1:8123") == ("127.0.0.1", 8123)
        assert wire.parse_address("worker-3.cluster:99") == \
            ("worker-3.cluster", 99)

    @pytest.mark.parametrize("bad", ["localhost", ":80", "host:", "host:abc"])
    def test_invalid_addresses_rejected(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            wire.parse_address(bad)
