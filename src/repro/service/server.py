"""Long-lived prediction server: many clients, one warm service.

``repro serve`` keeps one warmed :class:`~repro.service.PredictionService`
(trained estimator suite, artifact cache, pooled evaluation backend)
alive behind a TCP endpoint speaking the :mod:`repro.service.wire`
framing, so the paper's trial-result reuse pays off *across* processes:
every search, benchmark or notebook that connects shares the same cache
and the same worker pool instead of re-warming its own.

The life of one client connection:

1. **Handshake** -- the server sends its JSON hello immediately on
   accept; the client's first frame must be a JSON hello too
   (:meth:`~repro.service.wire.WireConnection.recv_json_only` semantics:
   nothing is unpickled before the protocol check passes).
2. **Request loop** -- post-handshake frames are pickled tuples:

   ========================================  =================================
   client -> server                          server -> client
   ========================================  =================================
   ``("predict", request_id, [job, ...])``   ``("results", request_id, [...])``
   ``("stats", request_id)``                 ``("stats", request_id, payload)``
   ``("shutdown", request_id)``              ``("shutting-down", request_id)``
   ..                                        ``("busy", request_id, info)``
   ..                                        ``("error", request_id, detail)``
   ========================================  =================================

   Results come back in the request's input order.  Replies are matched
   to requests by ``request_id`` (client-chosen, opaque to the server),
   so one connection can have a ``stats`` answered while a ``predict``
   is still evaluating.

**Fairness and cross-client coalescing.**  Queued ``predict`` requests
drain round-robin: each dispatch round takes at most one request per
client and merges them into a *single* ``predict_many`` batch.  That
generalises the batch-level in-flight dedup to cross-client request
coalescing -- two clients asking for the same job signature share one
evaluation (the second resolves through the prediction cache), counted
in ``stats`` as ``coalesced_jobs`` / ``cross_client_coalesced`` -- and
bounds any one client's share of a round to one request, so a client
flooding a search cannot starve the others.

**Admission control.**  The server queues at most ``max_pending``
``predict`` requests; beyond that it answers ``("busy", request_id,
info)`` with the queue depth and a suggested retry delay instead of
buffering unboundedly.  :class:`PredictionClient` retries busy replies
with backoff (bounded by ``busy_retries``) before surfacing
:class:`ServerBusyError`.

**Graceful shutdown.**  A ``shutdown`` request (or
:meth:`PredictionServer.stop`) stops accepting connections, answers any
late ``predict`` with ``("shutting-down", request_id)``, drains every
already-queued request through the dispatcher, delivers the results,
then closes the evaluation backend (worker pools included) and every
client connection.

.. warning::
   Post-handshake frames are unauthenticated pickle: a connecting
   client fully controls the server process.  Bind to localhost or a trusted private network only.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.service import wire
from repro.service.predictor import PredictionService
from repro.workloads.job import TrainingJob

#: Request kinds a client may send post-handshake.  ``tools/check_docs.py``
#: asserts ARCHITECTURE.md documents every entry of both vocabularies.
REQUEST_KINDS = ("predict", "stats", "shutdown")
#: Reply kinds the server may send post-handshake.
REPLY_KINDS = ("results", "stats", "busy", "error", "shutting-down")

#: Default admission-control bound on queued ``predict`` requests.
DEFAULT_MAX_PENDING = 64


class ServerBusyError(RuntimeError):
    """The server's admission-control queue is full and retries ran out.

    ``info`` carries the structured busy reply (queue depth, bound and
    suggested retry delay) so callers can implement their own backoff.
    """

    def __init__(self, info) -> None:
        self.info: Dict[str, object] = (
            dict(info) if isinstance(info, dict) else {"detail": info})
        super().__init__(
            f"prediction server is at capacity "
            f"(queue {self.info.get('queue_depth')}/"
            f"{self.info.get('max_pending')})")


def _log(message: str) -> None:
    print(f"prediction-server: {message}", file=sys.stderr, flush=True)


async def _read_message(reader: asyncio.StreamReader, json_only: bool = False):
    """Read and decode one wire frame from an asyncio stream.

    Same validation as :meth:`WireConnection.recv` (magic, length cap),
    shared via :func:`wire.parse_header` / :func:`wire.decode_payload`.
    """
    header = await reader.readexactly(wire.HEADER_SIZE)
    fmt, length = wire.parse_header(header)
    payload = await reader.readexactly(length)
    return wire.decode_payload(fmt, payload, json_only=json_only)


class _ClientState:
    """Per-connection bookkeeping: queue, negotiated features, send lock."""

    def __init__(self, client_id: int, writer: asyncio.StreamWriter,
                 features: frozenset) -> None:
        self.client_id = client_id
        self.writer = writer
        self.features = features
        #: Queued ``(request_id, jobs)`` predict requests, FIFO per client;
        #: the dispatcher takes one per client per round (fairness).
        self.queue: Deque[Tuple[object, List]] = deque()
        #: Serialises writes: the handler answers ``stats`` inline while
        #: the dispatcher delivers ``results`` on the same stream.
        self.send_lock = asyncio.Lock()


class PredictionServer:
    """Asyncio TCP server multiplexing clients over one warm service.

    Single-threaded on its event loop; only ``predict_many`` batches with
    something to evaluate run off-loop (one at a time, on a dedicated
    executor thread; a round of nothing but prediction-cache hits is
    answered on the loop), so the server stays responsive to ``stats`` /
    handshakes mid-batch while evaluation order -- and therefore cache
    accounting -- stays exactly as serial as the service itself.
    """

    def __init__(self, service: PredictionService, host: str = "127.0.0.1",
                 port: int = 0,
                 max_pending: int = DEFAULT_MAX_PENDING) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._service = service
        self._host = host
        self._port = port
        self.max_pending = max_pending
        #: ``host:port`` actually bound (set by :meth:`start`; with
        #: ``port=0`` the OS picks an ephemeral port).
        self.address: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._stop_task: Optional[asyncio.Task] = None
        self._handlers: set = set()
        self._clients: Dict[int, _ClientState] = {}
        self._client_ids = itertools.count(1)
        #: Round-robin order over connected client ids.
        self._rotation: Deque[int] = deque()
        self._pending = 0
        self._work: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._shutting_down = False
        self._counters: Dict[str, int] = {
            "requests": 0, "jobs": 0, "batches": 0,
            "coalesced_jobs": 0, "cross_client_coalesced": 0,
            "busy_rejections": 0, "connections": 0,
        }
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Predict requests queued but not yet dispatched."""
        return self._pending

    @property
    def service(self) -> PredictionService:
        return self._service

    async def start(self) -> None:
        """Warm the service, bind the listener, start the dispatcher."""
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._stopped = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="prediction-batch")
        # Warm off-loop: estimator training / pool bootstrap can take
        # seconds and must not block the accept path once we listen.
        await self._loop.run_in_executor(self._executor, self._service.warm)
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port)
        bound = self._server.sockets[0].getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def serve_forever(self) -> None:
        """Block until the server has fully stopped."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: drain queued work, then release everything.

        Idempotent; a second call waits for the first to finish.  New
        ``predict`` requests arriving while draining get a
        ``shutting-down`` reply instead of queueing.
        """
        if self._shutting_down:
            await self._stopped.wait()
            return
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._work.set()
        if self._dispatcher is not None:
            await self._dispatcher
        for client in list(self._clients.values()):
            client.writer.close()
        current = asyncio.current_task()
        handlers = [task for task in self._handlers if task is not current]
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._service.close()
        self._stopped.set()

    def stop_threadsafe(self, timeout: float = 60.0) -> None:
        """Request :meth:`stop` from outside the event loop and wait.

        The companion to :func:`start_server_thread`: after it returns,
        the server's backend is closed and (if thread-hosted) the thread
        has exited.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(self.stop(), loop)
            future.result(timeout)
        except RuntimeError:  # loop already shut down under us
            pass
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    # per-connection handler
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._handlers.discard(task)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            writer.write(wire.encode_json_frame(wire.local_hello()))
            await writer.drain()
            hello = await _read_message(reader, json_only=True)
            features = wire.validate_hello(hello)
        except (wire.WireError, ValueError, asyncio.IncompleteReadError,
                ConnectionError, OSError) as exc:
            _log(f"rejected client: {exc}")
            writer.close()
            return
        client = _ClientState(next(self._client_ids), writer, features)
        self._clients[client.client_id] = client
        self._rotation.append(client.client_id)
        self._counters["connections"] += 1
        try:
            while True:
                try:
                    message = await _read_message(reader)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    break  # client hung up
                except wire.WireError as exc:
                    _log(f"client {client.client_id} sent a bad frame: "
                         f"{exc}")
                    break
                await self._handle_request(client, message)
        finally:
            self._clients.pop(client.client_id, None)
            try:
                self._rotation.remove(client.client_id)
            except ValueError:
                pass
            # Abandon the departed client's queued requests: there is no
            # stream left to answer them on.
            self._pending -= len(client.queue)
            client.queue.clear()
            writer.close()

    async def _handle_request(self, client: _ClientState, message) -> None:
        if not (isinstance(message, tuple) and len(message) >= 2):
            await self._send(client, ("error", None,
                                      f"malformed request {message!r}"))
            return
        kind, request_id = message[0], message[1]
        if kind == "predict":
            jobs = message[2] if len(message) > 2 else []
            if not (isinstance(jobs, (list, tuple))
                    and all(isinstance(job, TrainingJob) for job in jobs)):
                # Rejected here, never queued: a non-job reaching the
                # dispatcher would kill it for every client.
                await self._send(client, ("error", request_id,
                                          f"predict expects a list of "
                                          f"TrainingJob objects, got "
                                          f"{jobs!r:.200}"))
                return
            jobs = list(jobs)
            if self._shutting_down:
                await self._send(client, ("shutting-down", request_id))
                return
            if self._pending >= self.max_pending:
                self._counters["busy_rejections"] += 1
                await self._send(client, ("busy", request_id, {
                    "reason": "queue-full",
                    "queue_depth": self._pending,
                    "max_pending": self.max_pending,
                    "retry_after_s": 0.05,
                }))
                return
            client.queue.append((request_id, jobs))
            self._pending += 1
            self._work.set()
        elif kind == "stats":
            await self._send(client, ("stats", request_id,
                                      self.stats_payload()))
        elif kind == "shutdown":
            await self._send(client, ("shutting-down", request_id))
            if self._stop_task is None:
                self._stop_task = asyncio.ensure_future(self.stop())
        else:
            await self._send(client, ("error", request_id,
                                      f"unknown request kind {kind!r}; "
                                      f"expected one of {REQUEST_KINDS}"))

    async def _send(self, client: _ClientState, message) -> None:
        """Write one reply frame; a vanished client is not an error."""
        try:
            frame = wire.encode_frame(message, client.features)
            async with client.send_lock:
                client.writer.write(frame)
                await client.writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass  # the handler's read loop notices and cleans up

    # ------------------------------------------------------------------
    # dispatcher (fair batching + cross-client coalescing)
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            if self._pending == 0:
                if self._shutting_down:
                    return
                self._work.clear()
                # Re-check under the cleared event: an enqueue between the
                # check above and clear() re-set it, so nothing is lost.
                if self._pending == 0 and not self._shutting_down:
                    await self._work.wait()
                continue
            round_requests = self._assemble_round()
            if round_requests:
                await self._evaluate_round(round_requests)

    def _assemble_round(self) -> List[Tuple[_ClientState, object, List]]:
        """Take at most one queued request per client, round-robin."""
        round_requests: List[Tuple[_ClientState, object, List]] = []
        for _ in range(len(self._rotation)):
            client_id = self._rotation[0]
            self._rotation.rotate(-1)
            client = self._clients.get(client_id)
            if client is None or not client.queue:
                continue
            request_id, jobs = client.queue.popleft()
            self._pending -= 1
            round_requests.append((client, request_id, jobs))
        return round_requests

    async def _evaluate_round(
            self,
            round_requests: List[Tuple[_ClientState, object, List]]) -> None:
        merged: List = []
        slices: List[Tuple[_ClientState, object, int, int]] = []
        key_owner: Dict[Tuple, _ClientState] = {}
        #: Every job so far already has its prediction cached.
        cached = True
        for client, request_id, jobs in round_requests:
            slices.append((client, request_id, len(merged), len(jobs)))
            merged.extend(jobs)
            for job in jobs:
                key = self._service.request_key(job)
                if key is None:
                    cached = False
                    continue
                cached = cached and self._service.has_prediction(key)
                owner = key_owner.get(key)
                if owner is None:
                    key_owner[key] = client
                else:
                    self._counters["coalesced_jobs"] += 1
                    if owner is not client:
                        self._counters["cross_client_coalesced"] += 1
        self._counters["batches"] += 1
        self._counters["requests"] += len(round_requests)
        self._counters["jobs"] += len(merged)
        try:
            if cached:
                # Nothing to evaluate: reading the results out of the
                # cache takes less time than the two thread hand-offs of
                # an executor round-trip, and cannot stall the loop.
                results = self._service.predict_many(merged)
            else:
                results = await self._loop.run_in_executor(
                    self._executor, self._service.predict_many, merged)
        except Exception as exc:  # noqa: BLE001 - forwarded to clients
            detail = f"{type(exc).__name__}: {exc}"
            _log(f"batch of {len(merged)} jobs failed: {detail}")
            for client, request_id, _, _ in slices:
                await self._send(client, ("error", request_id, detail))
            return
        for client, request_id, start, count in slices:
            await self._send(client, ("results", request_id,
                                      results[start:start + count]))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats_payload(self) -> Dict[str, object]:
        """The ``stats`` reply: cache, throughput, resilience and queue.

        The ``cache`` block carries the tier-labelled hit counters
        (``memory_hits`` / ``store_hits``); ``store`` reports the disk
        tier's entry count, byte footprint and per-process op counters,
        or ``None`` when the service runs memory-only.
        """
        service = self._service
        backend_impl = service.backend_impl
        return {
            "cache": service.cache_stats(),
            "store": (service.store_stats()
                      if hasattr(service, "store_stats") else None),
            "throughput": service.throughput_stats(),
            "resilience": service.resilience_stats(),
            "sync": dict(getattr(backend_impl, "sync_stats", None) or {}),
            "server": {
                **self._counters,
                "queue_depth": self._pending,
                "max_pending": self.max_pending,
                "clients": len(self._clients),
                "pool_size": backend_impl.pool_size(),
                "shutting_down": self._shutting_down,
            },
        }


# ----------------------------------------------------------------------
# blocking entry points
# ----------------------------------------------------------------------
def serve(service: PredictionService, host: str = "127.0.0.1", port: int = 0,
          max_pending: int = DEFAULT_MAX_PENDING) -> None:
    """Run a server until interrupted (the ``repro serve`` entry point).

    Prints ``prediction-server listening on <host>:<port>`` as the first
    flushed stdout line so drivers spawning a localhost server with
    ``--port 0`` can discover the ephemeral port.  The backend is closed on the way out, interrupt
    included.
    """

    async def _run() -> None:
        server = PredictionServer(service, host=host, port=port,
                                  max_pending=max_pending)
        await server.start()
        print(f"prediction-server listening on {server.address}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass


def start_server_thread(service: PredictionService, host: str = "127.0.0.1",
                        port: int = 0,
                        max_pending: int = DEFAULT_MAX_PENDING,
                        timeout: float = 120.0) -> PredictionServer:
    """Run a server on a daemon thread; return it once it is listening.

    For in-process embedding (tests, notebooks): the caller keeps the
    handle -- ``server.address`` to connect, ``server.stop_threadsafe()``
    to shut down and join the thread.
    """
    server = PredictionServer(service, host=host, port=port,
                              max_pending=max_pending)
    started = threading.Event()
    failures: List[BaseException] = []

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as exc:
            failures.append(exc)
            raise
        finally:
            started.set()
        await server.serve_forever()

    def _thread_main() -> None:
        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via failures
            if not failures:
                failures.append(exc)

    thread = threading.Thread(target=_thread_main, daemon=True,
                              name="prediction-server")
    server._thread = thread
    thread.start()
    if not started.wait(timeout):
        raise TimeoutError("prediction server failed to start in time")
    if failures:
        raise RuntimeError("prediction server failed to start") \
            from failures[0]
    return server


def start_local_server(cluster: str = "v100-8", estimator: str = "analytical",
                       backend: str = "serial", jobs: int = 1, port: int = 0,
                       max_pending: int = DEFAULT_MAX_PENDING,
                       python: Optional[str] = None,
                       extra_pythonpath: Sequence[str] = (),
                       extra_env: Optional[dict] = None,
                       ) -> "subprocess.Popen":
    """Start one localhost ``repro serve`` subprocess (caller stops it).

    The chosen address is parsed from the first stdout line and stored on
    the returned process as ``process.server_address``.
    """
    src_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    parts = [str(src_root), *[str(entry) for entry in extra_pythonpath]]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if extra_env:
        env.update({key: str(value) for key, value in extra_env.items()})
    process = subprocess.Popen(
        [python or sys.executable, "-m", "repro", "serve",
         "--cluster", cluster, "--estimator", estimator,
         "--backend", backend, "--jobs", str(jobs),
         "--max-pending", str(max_pending),
         "--host", "127.0.0.1", "--port", str(port)],
        stdout=subprocess.PIPE, text=True, env=env)
    line = process.stdout.readline()
    if "listening on" not in line:
        process.terminate()
        raise RuntimeError(
            f"prediction-server subprocess failed to start "
            f"(first output line: {line!r})")
    process.server_address = line.strip().rsplit(" ", 1)[-1]
    return process


def stop_local_server(process: "subprocess.Popen") -> None:
    """Terminate (and reap) one spawned server subprocess."""
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover - safety
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class PredictionClient:
    """Synchronous client for a running prediction server.

    Duck-types the :class:`PredictionService` surface the search runner
    uses (``predict`` / ``predict_many`` / ``cache_stats`` /
    ``throughput_stats`` / ``close`` plus the ``max_workers`` /
    ``backend`` / ``pipeline`` attributes), so
    :class:`~repro.search.runner.MayaTrialEvaluator` can point a whole
    search at a remote warm server by swapping its service out
    (``MayaTrialEvaluator(..., server="host:port")``).

    Transport failures (server restart, dropped network) are retried by
    reconnecting with exponential backoff up to ``reconnect_attempts``
    times per request; re-sending a ``predict`` is idempotent because
    results are cached server-side.  ``busy`` replies (admission
    control) back off separately, bounded by ``busy_retries``, then
    surface :class:`ServerBusyError`.  Thread-safe: one request is in
    flight at a time per client.
    """

    def __init__(self, address: str, timeout: float = 60.0,
                 reconnect_attempts: int = 8, retry_delay: float = 0.1,
                 busy_retries: int = 8) -> None:
        wire.parse_address(address)  # fail fast on a malformed address
        self.address = address
        self.timeout = timeout
        self.reconnect_attempts = max(int(reconnect_attempts), 0)
        self.retry_delay = retry_delay
        self.busy_retries = max(int(busy_retries), 0)
        #: Service-surface parity for the search runner; evaluation
        #: happens server-side, so these are descriptive only.
        self.pipeline = None
        self.backend = "server"
        self.max_workers = 1
        self.enable_cache = True
        #: Client-side observability (tests, benchmarks).
        self.reconnect_count = 0
        self.busy_replies = 0
        self._conn: Optional[wire.WireConnection] = None
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _roundtrip(self, kind: str, *payload) -> tuple:
        """Send one request, wait for its reply; reconnect on failure."""
        with self._lock:
            last_error: Optional[BaseException] = None
            for attempt in range(self.reconnect_attempts + 1):
                if attempt:
                    self.reconnect_count += 1
                    time.sleep(min(self.retry_delay * (2 ** (attempt - 1)),
                                   2.0))
                request_id = next(self._request_ids)
                try:
                    if self._conn is None:
                        self._conn = wire.connect(self.address,
                                                  timeout=self.timeout)
                    self._conn.send((kind, request_id, *payload))
                    while True:
                        reply = self._conn.recv()
                        if (isinstance(reply, tuple) and len(reply) >= 2
                                and reply[1] == request_id):
                            return reply
                        # Stale reply to an earlier, abandoned request
                        # (e.g. results for a predict whose busy-retry
                        # superseded it): skip to ours.
                except (EOFError, OSError, wire.WireError) as exc:
                    last_error = exc
                    self._drop_connection_locked()
            raise ConnectionError(
                f"prediction server at {self.address} unreachable after "
                f"{self.reconnect_attempts + 1} attempts "
                f"(last error: {last_error})")

    def _drop_connection_locked(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def _drop_connection(self) -> None:
        with self._lock:
            self._drop_connection_locked()

    # ------------------------------------------------------------------
    # service surface
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """No-op: the server warmed its service before listening."""

    def predict_many(self, jobs: Sequence) -> List:
        """Evaluate a batch on the server; results in input order."""
        jobs = list(jobs)
        if not jobs:
            return []
        for busy_attempt in range(self.busy_retries + 1):
            reply = self._roundtrip("predict", jobs)
            kind = reply[0]
            if kind == "results":
                return list(reply[2])
            if kind == "busy":
                self.busy_replies += 1
                info = reply[2] if len(reply) > 2 else {}
                if busy_attempt >= self.busy_retries:
                    raise ServerBusyError(info)
                delay = float(info.get("retry_after_s", self.retry_delay)
                              if isinstance(info, dict) else self.retry_delay)
                time.sleep(min(delay * (busy_attempt + 1), 2.0))
                continue
            if kind == "shutting-down":
                self._drop_connection()
                raise ConnectionError(
                    f"prediction server at {self.address} is shutting down")
            if kind == "error":
                raise RuntimeError(f"prediction server error: {reply[2]}")
            raise wire.WireProtocolError(
                f"unexpected reply kind {kind!r} from prediction server; "
                f"expected one of {REPLY_KINDS}")
        raise AssertionError("unreachable")  # pragma: no cover

    def predict(self, job):
        return self.predict_many([job])[0]

    def stats(self) -> Dict[str, object]:
        """The server's full ``stats`` payload (cache / throughput /
        resilience / queue)."""
        reply = self._roundtrip("stats")
        if reply[0] != "stats":
            raise wire.WireProtocolError(
                f"unexpected reply kind {reply[0]!r} to a stats request")
        return reply[2]

    def cache_stats(self) -> Dict[str, float]:
        return self.stats()["cache"]

    def throughput_stats(self) -> Dict[str, object]:
        return self.stats()["throughput"]

    def resilience_stats(self) -> Dict[str, int]:
        return self.stats()["resilience"]

    def server_stats(self) -> Dict[str, object]:
        return self.stats()["server"]

    def shutdown_server(self) -> None:
        """Ask the server to drain and exit, then drop the connection."""
        try:
            self._roundtrip("shutdown")
        finally:
            self.close()

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
