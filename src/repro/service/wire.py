"""Length-prefixed socket framing for the prediction server.

``repro serve`` (:mod:`repro.service.server`) and its
:class:`~repro.service.server.PredictionClient` exchange framed messages
over TCP; this module supplies the frames, the handshake and the
blocking client connection.  :class:`WireConnection` moves whole objects
like a :class:`multiprocessing.connection.Connection` (``send`` /
``recv`` / ``close``).  The worker pool's fork pipes carry
the same payload encoders (:func:`dumps_columnar` artifact payloads)
without the framing.

Frame layout (all integers big-endian)::

    offset 0   4 bytes   magic  b"MAYA"
    offset 4   1 byte    payload format: 1 = pickle, 2 = JSON (UTF-8),
                         3 = pickle with columnar trace reductions
    offset 5   4 bytes   unsigned payload length
    offset 9   payload

The first frame in each direction is the JSON handshake
``{"magic": "maya-wire", "protocol": PROTOCOL, "features": [...]}``; JSON
is used there so a version mismatch is diagnosable even across
pickle-protocol changes.  Every later frame is a pickled message tuple.
``PROTOCOL`` must be bumped whenever the message vocabulary or the
handshake itself changes; both sides refuse mismatched peers with
:class:`WireProtocolError`.

Optional capabilities ride the handshake's ``features`` list instead of
the protocol number, so old and new peers interoperate: a hello without
the list (or without a given feature) simply negotiates the feature off.
The only feature today is ``"columnar-traces"``: when both sides
advertise it, frames carrying :class:`~repro.core.trace.WorkerTrace`
objects are written as format 3 -- a standard pickle in which each trace
is reduced to its structure-of-arrays payload
(:func:`repro.core.columnar.encode_worker_trace`) instead of a
per-``TraceEvent`` object graph.  Format 3 decodes with a plain
``pickle.loads``; the payload itself names the decoder, so the format
byte exists for observability (byte accounting, tests), not dispatch.

.. warning::
   Post-handshake frames are **pickle**: a server will execute whatever
   a connecting client sends it (and vice versa).  Run servers only on
   networks where every peer is trusted -- the protocol has no
   authentication and is not safe to expose publicly.
"""

from __future__ import annotations

import copyreg
import io
import json
import pickle
import socket
import struct
from typing import Optional, Tuple

#: Wire protocol version.  Bump on any change to the frame layout, the
#: handshake, or the lifecycle message vocabulary.  Optional capabilities
#: (columnar trace shipping) negotiate via handshake ``features`` and do
#: NOT bump the protocol: they degrade cleanly against older peers.
#: Version 2: ``result`` messages carry the worker's encoded artifacts
#: (:func:`dumps_columnar` bytes) where version 1 carried a JSON trace
#: plus ``oom`` / ``stage_times``, and ``sync`` entries carry the same
#: encoded bytes instead of artifact objects.
#: Version 3: a pickled ``CollatedTrace`` carries no collective table (its
#: traces' columns rebuild it when read), where version 2 carried a
#: per-event ``seq -> CollectiveResolution`` dict per representative.
PROTOCOL = 3

#: Handshake feature flag: this side can decode format-3 frames (pickles
#: whose ``WorkerTrace`` objects are reduced to columnar payloads).
FEATURE_COLUMNAR = "columnar-traces"

#: First bytes of every frame; a peer that is not speaking this protocol
#: is rejected on the first frame instead of producing a pickle error.
MAGIC = b"MAYA"

#: ``magic`` field of the JSON handshake object.
HANDSHAKE_MAGIC = "maya-wire"

_HEADER = struct.Struct("!4sBI")
#: Bytes in a frame header; async readers (``repro.service.server``) read
#: exactly this much before :func:`parse_header`.
HEADER_SIZE = _HEADER.size
_FORMAT_PICKLE = 1
_FORMAT_JSON = 2
#: A pickle whose ``WorkerTrace`` objects were reduced to columnar
#: payloads; ``pickle.loads`` decodes it (the payload names the decoder).
_FORMAT_PICKLE_COLUMNAR = 3
#: Sanity cap on a single frame (1 GiB); anything larger is treated as a
#: corrupted length field rather than an allocation request.
_MAX_FRAME = 1 << 30


class WireError(RuntimeError):
    """The peer sent bytes that are not valid wire-protocol frames."""


class WireProtocolError(WireError):
    """The peer speaks a different (or no) wire-protocol version."""


def local_features() -> Tuple[str, ...]:
    """Capabilities this process advertises in the wire handshake.

    Unconditional: every process that can import ``repro`` can decode
    columnar traces.  It stays *negotiated* so a peer whose hello omits it
    still interoperates.
    """
    return (FEATURE_COLUMNAR,)


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string (the CLI / env-var address format)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"invalid server address {address!r}; expected host:port")
    return host, int(port)


class WireConnection:
    """One framed, bidirectional message stream over a connected socket.

    Like a :class:`multiprocessing.connection.Connection`, ``send`` /
    ``recv`` move whole Python objects, and ``recv`` raises
    :class:`EOFError` on a cleanly closed peer (as a pipe does).
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(None)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # AF_UNIX (tests) has no TCP options
            pass
        # A silently vanished peer (powered-off host, network partition)
        # never sends a FIN, and unlike a fork pipe the socket would stay
        # readable-never-ready forever.  Keepalive turns that silence into
        # an OSError on the blocked recv/send within a couple of minutes,
        # which the client's reconnect path already recovers from.
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            for option, value in (("TCP_KEEPIDLE", 60),
                                  ("TCP_KEEPINTVL", 10),
                                  ("TCP_KEEPCNT", 6)):
                if hasattr(socket, option):
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    getattr(socket, option), value)
        except OSError:  # pragma: no cover - platform-dependent knobs
            pass
        self._sock: Optional[socket.socket] = sock
        #: Capabilities the peer advertised in its handshake hello (empty
        #: until :func:`handshake` runs, or forever against an old peer).
        self.peer_features: frozenset = frozenset()
        #: Payload-byte and per-format frame counters (sent side only);
        #: the benchmark and the wire tests read these to account for what
        #: columnar shipping saves.
        self.bytes_sent = 0
        self.frames_sent: dict = {}

    # ------------------------------------------------------------------
    # Connection duck type
    # ------------------------------------------------------------------
    def send(self, obj) -> None:
        """Pickle ``obj`` and write it as one frame.

        Against a peer that negotiated :data:`FEATURE_COLUMNAR`, any
        :class:`~repro.core.trace.WorkerTrace` inside ``obj`` is shipped
        as its columnar payload (format 3) instead of a pickled event
        graph; other peers get a plain pickle.
        """
        self._send_frame(*_dumps_for_features(obj, self.peer_features))

    def send_json(self, obj) -> None:
        """Write ``obj`` as one JSON frame (handshake only)."""
        self._send_frame(_FORMAT_JSON, json.dumps(obj).encode("utf-8"))

    def recv(self):
        """Read one frame and decode it (pickle or JSON, per its header)."""
        fmt, payload = self._recv_frame()
        return decode_payload(fmt, payload)

    def recv_json_only(self):
        """Read one frame, refusing to decode anything but JSON.

        The handshake path: the peer's hello is the only frame read before
        the protocol check passes, and this method guarantees no pickle is
        ever loaded from an un-handshaken peer -- a peer whose first frame
        is a pickle (format 1 or 3) is refused with
        :class:`WireProtocolError` without its payload being deserialised.
        """
        fmt, payload = self._recv_frame()
        return decode_payload(fmt, payload, json_only=True)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    # ------------------------------------------------------------------
    # framing
    # ------------------------------------------------------------------
    def _send_frame(self, fmt: int, payload: bytes) -> None:
        if self._sock is None:
            raise OSError("wire connection is closed")
        self.bytes_sent += len(payload)
        self.frames_sent[fmt] = self.frames_sent.get(fmt, 0) + 1
        self._sock.sendall(_HEADER.pack(MAGIC, fmt, len(payload)) + payload)

    def _recv_exact(self, count: int) -> bytes:
        if self._sock is None:
            raise OSError("wire connection is closed")
        chunks = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise EOFError("wire peer closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _recv_frame(self) -> Tuple[int, bytes]:
        """Read one validated frame, returning ``(format, payload)`` raw."""
        header = self._recv_exact(_HEADER.size)
        fmt, length = parse_header(header)
        return fmt, self._recv_exact(length)


def parse_header(header: bytes) -> Tuple[int, int]:
    """Validate a frame header, returning ``(format, payload_length)``.

    Shared by :class:`WireConnection` and the asyncio prediction server
    (:mod:`repro.service.server`), which reads frames off
    ``asyncio.StreamReader`` instead of a blocking socket but must apply
    identical magic / length sanity checks.
    """
    magic, fmt, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"peer is not speaking the maya wire protocol "
            f"(bad frame magic {magic!r}, expected {MAGIC!r})")
    if length > _MAX_FRAME:
        raise WireError(
            f"frame length {length} exceeds the {_MAX_FRAME}-byte cap; "
            f"treating the stream as corrupt")
    return fmt, length


def encode_frame(obj, features: frozenset = frozenset()) -> bytes:
    """Serialise ``obj`` into one complete frame (header + payload).

    The async server writes these to ``asyncio.StreamWriter``; the
    blocking :meth:`WireConnection.send` path shares the same payload
    encoders but writes straight to its socket.
    """
    fmt, payload = _dumps_for_features(obj, features)
    return _HEADER.pack(MAGIC, fmt, len(payload)) + payload


def encode_json_frame(obj) -> bytes:
    """Serialise ``obj`` into one complete JSON frame (handshake hello)."""
    payload = json.dumps(obj).encode("utf-8")
    return _HEADER.pack(MAGIC, _FORMAT_JSON, len(payload)) + payload


def decode_payload(fmt: int, payload: bytes, json_only: bool = False):
    """Decode a frame payload per its header format byte.

    With ``json_only=True`` any pickle format is refused (the
    pre-handshake rule: nothing is unpickled before the protocol check
    passes).
    """
    if fmt == _FORMAT_JSON:
        return json.loads(payload.decode("utf-8"))
    if json_only:
        raise WireProtocolError(
            f"peer's first frame is format {fmt}, not the JSON handshake "
            f"hello; refusing to decode pre-handshake data")
    if fmt == _FORMAT_PICKLE or fmt == _FORMAT_PICKLE_COLUMNAR:
        return loads(payload)
    raise WireError(f"unknown frame format {fmt}")


def local_hello() -> dict:
    """The JSON hello this process sends as its first frame."""
    return {"magic": HANDSHAKE_MAGIC, "protocol": PROTOCOL,
            "features": sorted(local_features())}


def validate_hello(hello) -> frozenset:
    """Check a peer's hello; return the negotiated feature intersection.

    Raises :class:`WireProtocolError` on a non-hello object or a protocol
    version mismatch.  Shared by the blocking :func:`handshake` and the
    asyncio server's per-client accept path.
    """
    if not isinstance(hello, dict) or hello.get("magic") != HANDSHAKE_MAGIC:
        raise WireProtocolError(
            f"peer did not answer the wire handshake (got {hello!r}); "
            f"is the remote end a `repro serve` server or a "
            f"PredictionClient?")
    peer = hello.get("protocol")
    if peer != PROTOCOL:
        raise WireProtocolError(
            f"wire protocol mismatch: this side speaks version {PROTOCOL}, "
            f"the peer speaks version {peer}; update the older side "
            f"(repro versions must match between `repro serve` and its "
            f"PredictionClient)")
    advertised = hello.get("features")
    if not isinstance(advertised, (list, tuple)):
        advertised = ()
    return frozenset(str(feature) for feature in advertised) \
        & frozenset(local_features())


def dumps(obj) -> bytes:
    """Pickle ``obj`` exactly as a non-columnar :meth:`WireConnection.send`
    would."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _reduce_trace(trace):
    """``WorkerTrace`` as a call to its columnar decoder, so the receiving
    side needs nothing beyond ``pickle.loads``."""
    from repro.core.columnar import decode_worker_trace, encode_worker_trace

    return (decode_worker_trace, (encode_worker_trace(trace),))


def dumps_columnar(obj) -> bytes:
    """Pickle ``obj`` with columnar ``WorkerTrace`` reductions (format 3).

    Output decodes with plain ``pickle.loads`` wherever ``repro`` is
    importable: the worker pool's pipes and the artifact store always use
    it, wire senders only against peers that negotiated
    :data:`FEATURE_COLUMNAR`.
    """
    from repro.core.trace import WorkerTrace

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    # A dispatch table is looked up by exact type in C (a ``WorkerTrace``
    # subclass keeps default pickling -- its extra state would be dropped
    # otherwise) and costs other objects nothing, where a
    # ``reducer_override`` hook is a Python call per object pickled.  It
    # replaces the process-wide copyreg table, hence the merge.
    pickler.dispatch_table = {**copyreg.dispatch_table,
                              WorkerTrace: _reduce_trace}
    pickler.dump(obj)
    return buffer.getvalue()


def loads(payload: bytes):
    """Decode what :func:`dumps` or :func:`dumps_columnar` produced.

    Format 3 is self-describing -- each embedded columnar payload pickles
    as a call to its decoder -- so one plain ``pickle.loads`` serves both.
    """
    return pickle.loads(payload)


def _dumps_for_features(obj, features: frozenset) -> Tuple[int, bytes]:
    if FEATURE_COLUMNAR in features:
        return _FORMAT_PICKLE_COLUMNAR, dumps_columnar(obj)
    return _FORMAT_PICKLE, dumps(obj)


def handshake(conn: WireConnection) -> None:
    """Exchange protocol versions; raise :class:`WireProtocolError` on skew.

    Symmetric: each side sends its hello first, then reads the peer's, so
    neither side can deadlock waiting and both produce the same clear
    error naming the two versions.  Optional capabilities arrive in the
    hello's ``features`` list; a peer that omits the key (any release
    before the columnar format) negotiates every feature off, never an
    error.  The intersection is recorded on ``conn.peer_features``.

    The peer's hello is read with :meth:`WireConnection.recv_json_only`:
    an un-handshaken peer whose first frame is a pickle is refused before
    any deserialisation happens.
    """
    conn.send_json(local_hello())
    conn.peer_features = validate_hello(conn.recv_json_only())


def connect(address: str, timeout: float = 10.0) -> WireConnection:
    """Open a handshaken client connection to a ``host:port`` server.

    ``timeout`` bounds both the TCP connect and the handshake exchange (a
    peer that accepts but never answers hello raises ``socket.timeout``,
    an :class:`OSError`, instead of stalling the caller); the connection
    is blocking afterwards.
    """
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    conn = WireConnection(sock)
    try:
        sock.settimeout(timeout)
        handshake(conn)
        sock.settimeout(None)
    except BaseException:
        conn.close()
        raise
    return conn
