"""Integration tests for the long-lived prediction server.

The contract under test: one warm server multiplexing many concurrent
clients is indistinguishable (result-wise) from each client running its
own serial service -- plus the server-only behaviours: cross-client
request coalescing, admission control, round-robin fairness, reconnect
after restart, and graceful shutdown that leaves nothing running.
"""

from __future__ import annotations

import multiprocessing
import selectors
import subprocess
import threading
import time
from pathlib import Path
from typing import List

import pytest

from backend_conformance import (
    assert_results_identical,
    default_batches,
    make_jobs,
)
from repro.service import (
    PredictionClient,
    PredictionService,
    ServerBusyError,
)
from repro.service import wire
from repro.service.server import (
    REPLY_KINDS,
    REQUEST_KINDS,
    start_local_server,
    start_server_thread,
    stop_local_server,
)


def _serial_service(cluster) -> PredictionService:
    return PredictionService(cluster=cluster, estimator_mode="analytical",
                             backend="serial")


def _wait_until(predicate, timeout: float = 30.0, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise TimeoutError("condition not reached in time")


def _frame_ready(conn, timeout):
    """Wait up to ``timeout`` s until ``conn`` has a frame (or EOF) to
    read, so a missing reply fails the test instead of hanging it."""
    with selectors.DefaultSelector() as selector:
        selector.register(conn._sock, selectors.EVENT_READ)
        return bool(selector.select(timeout))


class GatedService(PredictionService):
    """A service whose first ``predict_many`` blocks until released.

    Lets tests pin a batch in flight deterministically: the server's
    executor thread parks on ``gate`` while the event loop keeps
    accepting and queueing requests.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.gate = threading.Event()
        self._gate_used = False

    def predict_many(self, jobs):
        if not self._gate_used:
            self._gate_used = True
            self.entered.set()
            assert self.gate.wait(timeout=60.0), "gate never released"
        return super().predict_many(jobs)

    def __reduce__(self):  # pragma: no cover - safety: never ship this
        raise NotImplementedError("GatedService is test-local")


class TestConcurrentClients:
    def test_eight_concurrent_clients_byte_identical_to_serial(
            self, tiny_model, v100_cluster):
        server = start_server_thread(_serial_service(v100_cluster))
        n_clients = 8
        batches = default_batches()
        # Distinct global batch sizes make each client's workload disjoint
        # from the others', so per-client cache accounting (and therefore
        # every result's service_cache tag) matches a private serial run.
        served: List[List] = [None] * n_clients
        errors: List[BaseException] = []

        def run_client(position: int) -> None:
            try:
                with PredictionClient(server.address) as client:
                    flat = []
                    for recipes in batches:
                        jobs = make_jobs(tiny_model, v100_cluster, recipes,
                                         global_batch_size=16 * (position + 1))
                        flat.extend(client.predict_many(jobs))
                    served[position] = flat
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        try:
            threads = [threading.Thread(target=run_client, args=(position,))
                       for position in range(n_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not errors, errors
            for position in range(n_clients):
                with _serial_service(v100_cluster) as reference:
                    expected = []
                    for recipes in batches:
                        jobs = make_jobs(tiny_model, v100_cluster, recipes,
                                         global_batch_size=16 * (position + 1))
                        expected.extend(reference.predict_many(jobs))
                assert_results_identical(expected, served[position],
                                         backend=f"server-client-{position}")
            with PredictionClient(server.address) as client:
                stats = client.stats()
            assert stats["server"]["requests"] == n_clients * len(batches)
            assert stats["server"]["jobs"] == \
                n_clients * sum(len(recipes) for recipes in batches)
            assert stats["throughput"]["trials_per_sec"] > 0.0
        finally:
            server.stop_threadsafe()

    def test_evaluator_runs_search_batches_through_server(
            self, tiny_model, v100_cluster):
        from repro.search import MayaTrialEvaluator

        server = start_server_thread(_serial_service(v100_cluster))
        recipes = default_batches()[0]
        try:
            with MayaTrialEvaluator(tiny_model, v100_cluster, 16,
                                    server=server.address) as remote:
                trials = remote.evaluate_many(recipes)
                remote_cache = remote.cache_stats()
            with MayaTrialEvaluator(tiny_model, v100_cluster, 16,
                                    estimator_mode="analytical",
                                    backend="serial") as local:
                expected = local.evaluate_many(recipes)
            assert [trial.iteration_time for trial in trials] == \
                [trial.iteration_time for trial in expected]
            assert [trial.cache for trial in trials] == \
                [trial.cache for trial in expected]
            assert remote_cache["lookups"] > 0
        finally:
            server.stop_threadsafe()


class TestCoalescing:
    def test_cross_client_requests_for_same_job_coalesce(
            self, tiny_model, v100_cluster, basic_recipe):
        service = GatedService(cluster=v100_cluster,
                               estimator_mode="analytical", backend="serial")
        server = start_server_thread(service)
        job = lambda: make_jobs(tiny_model, v100_cluster, [basic_recipe])  # noqa: E731
        outcomes: dict = {}

        def run_client(name: str) -> None:
            with PredictionClient(server.address) as client:
                outcomes[name] = client.predict_many(job())

        try:
            # Client A's batch enters evaluation and parks on the gate ...
            first = threading.Thread(target=run_client, args=("a",))
            first.start()
            assert service.entered.wait(timeout=60.0)
            # ... while B and C queue requests for the *same* job signature.
            others = [threading.Thread(target=run_client, args=(name,))
                      for name in ("b", "c")]
            for thread in others:
                thread.start()
            _wait_until(lambda: server.queue_depth == 2)
            service.gate.set()
            first.join(timeout=60)
            for thread in others:
                thread.join(timeout=60)
            fingerprints = {name: results[0].iteration_time
                            for name, results in outcomes.items()}
            assert len(outcomes) == 3
            assert len(set(fingerprints.values())) == 1
            with PredictionClient(server.address) as client:
                counters = client.server_stats()
            # B and C landed in one merged round: one of them contributed
            # the key, the other coalesced onto it cross-client.
            assert counters["coalesced_jobs"] >= 1
            assert counters["cross_client_coalesced"] >= 1
        finally:
            service.gate.set()
            server.stop_threadsafe()


class ThreadRecordingService(PredictionService):
    """Records the name of the thread each ``predict_many`` ran on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_threads: List[str] = []

    def predict_many(self, jobs):
        self.batch_threads.append(threading.current_thread().name)
        return super().predict_many(jobs)


class TestCachedRounds:
    def test_all_hit_round_is_answered_on_the_loop(
            self, tiny_model, v100_cluster):
        """A round with anything to evaluate goes to the executor thread;
        a round of nothing but prediction hits skips the two hand-offs."""
        service = ThreadRecordingService(
            cluster=v100_cluster, estimator_mode="analytical",
            backend="serial")
        server = start_server_thread(service)
        first, second = default_batches()[:2]
        jobs = lambda recipes: make_jobs(tiny_model, v100_cluster, recipes)  # noqa: E731
        try:
            with PredictionClient(server.address) as client:
                cold = client.predict_many(jobs(first))
                warm = client.predict_many(jobs(first))
                mixed = client.predict_many(jobs(first) + jobs(second))
            on_executor = [name.startswith("prediction-batch")
                           for name in service.batch_threads]
            assert on_executor == [True, False, True]
            assert {r.metadata["service_cache"] for r in warm} \
                == {"prediction"}
            assert [r.iteration_time for r in warm] \
                == [r.iteration_time for r in cold]
            reference = _serial_service(v100_cluster)
            reference.predict_many(jobs(first))  # cold
            reference.predict_many(jobs(first))  # warm
            assert_results_identical(
                reference.predict_many(jobs(first) + jobs(second)), mixed)
            assert service.cache_stats() == reference.cache_stats()
        finally:
            server.stop_threadsafe()


class TestAdmissionControl:
    def test_queue_full_returns_structured_busy(
            self, tiny_model, v100_cluster, basic_recipe):
        service = GatedService(cluster=v100_cluster,
                               estimator_mode="analytical", backend="serial")
        server = start_server_thread(service, max_pending=2)
        jobs = make_jobs(tiny_model, v100_cluster, [basic_recipe])
        filler = None
        try:
            # Occupy the evaluation slot, then fill the queue to its bound
            # with raw wire requests (sent, not yet awaited).
            filler = wire.connect(server.address)
            filler.send(("predict", 1, jobs))
            assert service.entered.wait(timeout=60.0)
            filler.send(("predict", 2, jobs))
            filler.send(("predict", 3, jobs))
            _wait_until(lambda: server.queue_depth == 2)
            with PredictionClient(server.address, busy_retries=0) as client:
                with pytest.raises(ServerBusyError) as excinfo:
                    client.predict_many(jobs)
            info = excinfo.value.info
            assert info["reason"] == "queue-full"
            assert info["queue_depth"] == 2
            assert info["max_pending"] == 2
            assert info["retry_after_s"] > 0
            # Releasing the gate drains the queue; every accepted request
            # still gets its results.
            service.gate.set()
            replies = {}
            while len(replies) < 3:
                reply = filler.recv()
                assert reply[0] == "results", reply
                replies[reply[1]] = reply[2]
            assert set(replies) == {1, 2, 3}
            # A client retrying busy replies (the default) now succeeds.
            with PredictionClient(server.address) as client:
                assert len(client.predict_many(jobs)) == 1
        finally:
            service.gate.set()
            if filler is not None:
                filler.close()
            server.stop_threadsafe()


class TestRestartAndShutdown:
    def test_client_reconnects_after_server_restart(self, tiny_model,
                                                    v100_cluster):
        recipes = default_batches()[0][:2]
        jobs = make_jobs(tiny_model, v100_cluster, recipes)
        first = start_local_server()
        address = first.server_address
        port = int(address.rsplit(":", 1)[1])
        second = None
        try:
            client = PredictionClient(address, reconnect_attempts=12)
            before = client.predict_many(jobs)
            stop_local_server(first)
            assert first.poll() is not None  # no leaked process
            second = start_local_server(port=port)
            after = client.predict_many(jobs)
            client.close()
            assert client.reconnect_count >= 1
            assert_results_identical(before, after, backend="server-restart")
        finally:
            if first.poll() is None:
                stop_local_server(first)
            if second is not None:
                stop_local_server(second)

    def test_shutdown_drains_queued_requests_then_refuses(
            self, tiny_model, v100_cluster, basic_recipe):
        service = GatedService(cluster=v100_cluster,
                               estimator_mode="analytical", backend="serial")
        server = start_server_thread(service)
        jobs = make_jobs(tiny_model, v100_cluster, [basic_recipe])
        in_flight: List = []
        queued = None
        try:
            def run_first() -> None:
                with PredictionClient(server.address) as client:
                    in_flight.extend(client.predict_many(jobs))

            first = threading.Thread(target=run_first)
            first.start()
            assert service.entered.wait(timeout=60.0)
            queued = wire.connect(server.address)
            queued.send(("predict", 7, jobs))
            _wait_until(lambda: server.queue_depth == 1)

            # Connect (and handshake) before the shutdown begins: the
            # listener closes immediately, but established connections
            # are answered until the drain finishes.
            late = PredictionClient(server.address, reconnect_attempts=0)
            late.stats()

            stopper = threading.Thread(target=server.stop_threadsafe)
            stopper.start()
            _wait_until(lambda: server._shutting_down)
            # New predict requests are refused while draining ...
            with late:
                with pytest.raises(ConnectionError, match="shutting down"):
                    late.predict_many(jobs)
            # ... but everything already queued is still evaluated.
            service.gate.set()
            first.join(timeout=60)
            reply = queued.recv()
            assert reply[0] == "results" and reply[1] == 7
            assert len(reply[2]) == 1
            stopper.join(timeout=60)
            assert in_flight and len(in_flight) == 1
        finally:
            service.gate.set()
            if queued is not None:
                queued.close()
            server.stop_threadsafe()

    def test_shutdown_closes_pooled_backend_without_leaks(
            self, tiny_model, v100_cluster):
        service = PredictionService(cluster=v100_cluster,
                                    estimator_mode="analytical",
                                    backend="persistent", max_workers=2)
        server = start_server_thread(service)
        try:
            recipes = default_batches()[0]
            with PredictionClient(server.address) as client:
                results = client.predict_many(
                    make_jobs(tiny_model, v100_cluster, recipes))
                assert len(results) == len(recipes)
                stats = client.stats()
                assert stats["server"]["pool_size"] == 2
                assert "worker_deaths" in stats["resilience"]
                client.shutdown_server()
        finally:
            server.stop_threadsafe()
        _wait_until(lambda: not multiprocessing.active_children(),
                    timeout=30.0)


class TestProtocolSurface:
    def test_unknown_request_kind_gets_error_reply(self, v100_cluster):
        server = start_server_thread(_serial_service(v100_cluster))
        try:
            conn = wire.connect(server.address)
            try:
                conn.send(("frobnicate", 5))
                reply = conn.recv()
                assert reply[0] == "error" and reply[1] == 5
                assert "frobnicate" in reply[2]
            finally:
                conn.close()
        finally:
            server.stop_threadsafe()

    def test_malformed_predict_gets_error_reply_and_server_survives(
            self, tiny_model, v100_cluster, basic_recipe):
        # A predict whose payload is not a list of jobs is answered on
        # its own connection; it must never reach the dispatcher, which
        # evaluates every client's requests.
        server = start_server_thread(_serial_service(v100_cluster))
        try:
            conn = wire.connect(server.address)
            try:
                for request_id, payload in ((1, ["not a job"]), (2, 5)):
                    conn.send(("predict", request_id, payload))
                    assert _frame_ready(conn, 30.0), \
                        f"no reply to malformed predict {payload!r}"
                    reply = conn.recv()
                    assert reply[:2] == ("error", request_id)
                    assert "TrainingJob" in reply[2]
            finally:
                conn.close()
            with PredictionClient(server.address, timeout=30.0,
                                  reconnect_attempts=0) as client:
                results = client.predict_many(
                    make_jobs(tiny_model, v100_cluster, [basic_recipe]))
            assert len(results) == 1 and results[0].iteration_time > 0
        finally:
            server.stop_threadsafe()

    def test_pickle_first_client_is_refused(self, v100_cluster):
        # The pre-handshake rule holds server-side too: a client whose
        # first frame is a pickle is disconnected, not deserialised.
        server = start_server_thread(_serial_service(v100_cluster))
        try:
            import socket as socket_module
            host, port = wire.parse_address(server.address)
            sock = socket_module.create_connection((host, port), timeout=10)
            conn = wire.WireConnection(sock)
            try:
                conn.recv_json_only()  # server hello arrives first
                conn.send(("predict", 1, []))  # pickle instead of a hello
                with pytest.raises((EOFError, OSError)):
                    _frame_ready(conn, 10.0)
                    conn.recv()
            finally:
                conn.close()
        finally:
            server.stop_threadsafe()

    def test_vocabulary_constants_are_complete(self):
        assert set(REQUEST_KINDS) == {"predict", "stats", "shutdown"}
        assert set(REPLY_KINDS) == \
            {"results", "stats", "busy", "error", "shutting-down"}


class TestRepoHygiene:
    def test_no_tracked_bytecode(self):
        repo_root = Path(__file__).resolve().parents[1]
        tracked = subprocess.run(
            ["git", "ls-files"], cwd=repo_root, text=True,
            capture_output=True, check=True).stdout.splitlines()
        bytecode = [path for path in tracked
                    if path.endswith(".pyc") or "__pycache__" in path]
        assert bytecode == [], \
            f"bytecode files are tracked in git: {bytecode}"
