"""The remote end of the ``socket`` evaluation backend.

``repro worker-host`` runs :func:`serve` on a machine that should
evaluate prediction jobs for a parent :class:`~repro.service.PredictionService`
elsewhere.  The life of one parent connection:

1. **Handshake** -- both sides exchange wire-protocol versions
   (:func:`repro.service.wire.handshake`); a mismatch is refused with a
   clear error on both ends.
2. **Bootstrap** -- the parent sends one ``("warm", service)`` message
   carrying its warmed service (trained estimator suite, shared-provider
   memos, host profile and current artifact cache).  There is no fork
   inheritance across machines, so this single payload replaces it; the
   worker acks ``("warmed",)`` once the service is live.
3. **Worker loop** -- :func:`repro.service.backends._pool_worker_main`
   takes over: apply ``sync`` cache deltas (acking each epoch), evaluate
   ``job`` messages through the ordinary cache-aware ``predict`` path,
   ship back results (plus freshly emulated artifacts as one encoded
   wire payload), until ``close`` or EOF.  This is the *same* loop a
   forked persistent worker runs -- only the transport differs.

Each connection is served on its own thread with its own unpickled
service, so one worker host can outlive many parents (and --
sequentially or concurrently -- serve several).  Run one worker-host
process per worker you want an individual parent to use; a parent
connects once per configured address.

.. warning::
   The wire protocol is pickle-based and unauthenticated: a connecting
   parent fully controls this process.  Bind to localhost or a trusted
   private network only (see :mod:`repro.service.wire`).
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.service import wire
from repro.service.backends import _pool_worker_main
from repro.service.store import STORE_DIR_ENV, ArtifactStore

#: Set in every worker-host process before it serves connections; lets
#: shipped code (and tests injecting failures) detect that it is running
#: remotely rather than on the parent.
WORKER_HOST_ENV = "REPRO_WORKER_HOST"


def _log(message: str) -> None:
    print(f"worker-host: {message}", file=sys.stderr, flush=True)


def _serve_connection(sock: socket.socket, peer,
                      store_dir: Optional[str] = None) -> None:
    """Drive one parent connection from handshake to EOF.

    Every failure is contained to this connection: a protocol mismatch, a
    dropped parent, and also arbitrary exceptions such as an unpicklable
    warm payload (version skew between parent and worker host) are
    logged, the connection is closed, and the host keeps serving.

    ``store_dir`` attaches this host's own disk-backed artifact store to
    the unpickled service (stores never travel in the warm payload:
    :meth:`repro.service.cache.ArtifactCache.__getstate__` drops them),
    so worker-side lookups fall through to the shared cold tier exactly
    like the parent's do.
    """
    conn = wire.WireConnection(sock)
    try:
        try:
            wire.handshake(conn)
            message = conn.recv()
            if not (isinstance(message, tuple) and message
                    and message[0] == "warm" and len(message) == 2):
                raise wire.WireProtocolError(
                    f"expected the ('warm', service) bootstrap message "
                    f"first, got {message!r}")
            service = message[1]
            if store_dir:
                service.attach_store(store_dir)
            conn.send(("warmed",))
            _log(f"parent {peer} warmed; entering worker loop")
            _pool_worker_main(conn, service)
            _log(f"parent {peer} disconnected")
        except wire.WireProtocolError as exc:
            _log(f"rejected parent {peer}: {exc}")
        except (EOFError, OSError) as exc:
            _log(f"parent {peer} dropped: {exc}")
        except Exception:
            _log(f"failed serving parent {peer}:\n{traceback.format_exc()}")
    finally:
        conn.close()


def serve(host: str = "127.0.0.1", port: int = 0,
          once: bool = False, store_dir: Optional[str] = None) -> None:
    """Listen for parent services and evaluate their jobs until killed.

    Prints ``worker-host listening on <host>:<port>`` as the first stdout
    line (flushed) so drivers spawning local workers with ``--port 0``
    can discover the ephemeral port.  ``once`` serves a single parent
    connection to completion and returns (used by tests).

    ``store_dir`` (default: ``REPRO_STORE_DIR``) points this host at a
    shared artifact-store directory; every served connection's service
    gets it attached, and an incompatible store refuses at startup (not
    per-connection) with a clear error.
    """
    os.environ[WORKER_HOST_ENV] = "1"
    if store_dir is None:
        store_dir = os.environ.get(STORE_DIR_ENV) or None
    if store_dir:
        # Fail fast on a format mismatch before accepting any parent.
        ArtifactStore(store_dir)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((host, port))
        listener.listen()
        bound_host, bound_port = listener.getsockname()[:2]
        print(f"worker-host listening on {bound_host}:{bound_port}",
              flush=True)
        while True:
            sock, peer = listener.accept()
            if once:
                _serve_connection(sock, peer, store_dir)
                return
            thread = threading.Thread(target=_serve_connection,
                                      args=(sock, peer, store_dir),
                                      daemon=True)
            thread.start()
    finally:
        listener.close()


def start_local_worker_host(
    python: Optional[str] = None,
    extra_pythonpath: Sequence[str] = (),
    port: int = 0,
    extra_env: Optional[dict] = None,
) -> "subprocess.Popen":
    """Start one localhost worker-host subprocess (caller terminates it).

    The subprocess gets this package's ``src`` root (plus
    ``extra_pythonpath`` entries, e.g. a test directory whose classes the
    parent will pickle) prepended to ``PYTHONPATH`` and any ``extra_env``
    entries (e.g. a fault plan + worker id for chaos tests) merged in.
    The chosen address is parsed from the first stdout line and stored on
    the returned process as ``process.worker_address``.
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
        [python or sys.executable, "-m", "repro", "worker-host",
         "--host", "127.0.0.1", "--port", str(port)],
        stdout=subprocess.PIPE, text=True, env=env)
    line = process.stdout.readline()
    if "listening on" not in line:
        process.terminate()
        raise RuntimeError(
            f"worker-host subprocess failed to start "
            f"(first output line: {line!r})")
    process.worker_address = line.strip().rsplit(" ", 1)[-1]
    return process


def stop_local_worker_host(process: "subprocess.Popen") -> None:
    """Terminate (and reap) one spawned worker-host subprocess."""
    process.terminate()
    try:
        process.wait(timeout=5)
    except subprocess.TimeoutExpired:  # pragma: no cover - safety
        process.kill()
        process.wait()
    if process.stdout is not None:
        process.stdout.close()


@contextlib.contextmanager
def spawn_local_worker_hosts(
    count: int,
    python: Optional[str] = None,
    extra_pythonpath: Sequence[str] = (),
    env_per_host: Optional[Sequence[Optional[dict]]] = None,
) -> Iterator[List[str]]:
    """Spawn ``count`` localhost worker-host subprocesses; yield addresses.

    The development-convenience twin of running ``repro worker-host`` on
    real machines: tests and ``bench_sim_throughput.py`` use it to
    exercise the socket backend over loopback.  Each subprocess binds an
    ephemeral port and is terminated when the context exits.  ``env_per_host`` optionally
    supplies extra environment entries for each host (chaos tests use it
    to install per-worker fault plans); see
    :func:`start_local_worker_host` for the common setup.
    """
    processes: List[subprocess.Popen] = []
    addresses: List[str] = []
    try:
        for position in range(count):
            extra_env = None
            if env_per_host is not None and position < len(env_per_host):
                extra_env = env_per_host[position]
            process = start_local_worker_host(
                python=python, extra_pythonpath=extra_pythonpath,
                extra_env=extra_env)
            processes.append(process)
            addresses.append(process.worker_address)
        yield addresses
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover - safety
                process.kill()
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
