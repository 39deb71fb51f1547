"""The four benchmark workloads.

Every workload is a closed loop: the caller is a search loop that waits for
each reply before sending the next request.  A workload has a ``setup``
(everything before the first timed request), ``run_pass`` (one traversal
of its generated inputs; only the requests themselves are timed) and a
``teardown``.  ``run_pass`` returns the per-request latencies, the timed
wall, the CPU the process tree burned meanwhile, and a summary of every
result for the correctness check that follows the timed phase.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench import inputs
from bench.procstat import TreeCpu
from bench.trace import Span, Tracer

WORKERS = 2
BATCH_JOBS = 4
SERVED_BATCH = 8
STAGE_LAYERS = (("emulation", "core.emulator"), ("collation", "core.collator"),
                ("prediction", "core.estimators"),
                ("simulation", "core.simulator"))


@dataclass
class Env:
    """What the child process hands every workload."""

    seed: int
    quick: bool
    cluster: object
    model: object
    #: Plain pipeline whose estimator suite is already trained.
    pipeline: object
    #: Directory for anything a workload must write (inside the checkout).
    out_dir: str
    #: CPUs the child may use (its affinity when it started).
    cpus: frozenset = frozenset()


@dataclass
class PassResult:
    wall: float
    cpu: float
    trials: int
    latencies: List[float] = field(default_factory=list)
    #: One ``(jobs, summaries)`` pair per answered request (see
    #: :func:`summarize`; full results are not kept, so the benchmark's
    #: own bookkeeping stays out of ``peak_rss_mb``).
    observed: List[Tuple[Sequence, Sequence]] = field(default_factory=list)
    #: One line per request that raised or was refused.
    errors: List[str] = field(default_factory=list)
    #: Cache counters accumulated by this pass (``CacheStats.to_dict()``).
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: Position of this pass in the workload's cycle.
    phase: int = 0


def summarize(result) -> Tuple[Tuple[float, bool, int], object]:
    """What the correctness check needs of one result: the outcome two
    evaluations of a job must agree on bit for bit, and the cache level
    that produced it."""
    return ((result.iteration_time, result.oom, result.peak_memory_bytes),
            result.metadata.get("service_cache"))


def _stats_delta(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    """Cache counters accumulated between two ``cache_stats()`` reads."""
    return {key: after[key] - before[key] for key in after
            if key != "hit_rate"}


def _request_loop(requests: Sequence[Sequence], call: Callable,
                  unpack: bool) -> PassResult:
    """Send ``requests`` one after another through ``call``, timing each."""
    latencies: List[float] = []
    observed: List[Tuple[Sequence, Sequence]] = []
    errors: List[str] = []
    trials = 0
    cpu = TreeCpu()
    begin = time.perf_counter()
    for jobs in requests:
        trials += len(jobs)
        start = time.perf_counter()
        try:
            reply = call(jobs[0]) if unpack else call(jobs)
        except Exception as exc:  # a failed request is a result, not a crash
            errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - start)
        observed.append((jobs, [summarize(item) for item in
                               ([reply] if unpack else reply)]))
    wall = time.perf_counter() - begin
    return PassResult(wall=wall, cpu=cpu.elapsed(), trials=trials,
                      latencies=latencies, observed=observed, errors=errors)


def _stage_children(tracer: Tracer, stages: Sequence[str], scale: float = 1.0):
    """``after`` hook turning reported ``stage_times`` into child spans."""
    layers = dict(STAGE_LAYERS)

    def after(span: Span, result) -> None:
        results = result if isinstance(result, list) else [result]
        for stage in stages:
            total = sum(item.stage_times.get(stage, 0.0) for item in results)
            tracer.child(span, stage, layers[stage], total * scale)

    return after


CACHE_METHODS = ("get_prediction", "put_prediction", "lookup_artifacts",
                 "put_artifacts", "peek_prediction", "peek_artifacts",
                 "delta_since")


def instrument_service(tracer: Tracer, service, batch: bool = False) -> None:
    """Wrap the layer boundaries reachable from a ``PredictionService``."""
    tracer.wrap(service, "predict_many" if batch else "predict",
                "service.predictor")
    for method in CACHE_METHODS:
        tracer.wrap(service.cache, method, "service.cache")
    tracer.wrap(service.pipeline, "emulate", "core.pipeline",
                after=_stage_children(tracer, ("emulation", "collation")))
    tracer.wrap(service.pipeline, "predict", "core.pipeline",
                after=_stage_children(tracer, ("prediction", "simulation")))
    if batch:
        backend = service.backend_impl
        tracer.wrap(backend, "submit", "service.backends")
        # Workers run side by side, so the wall their stages explain is
        # the stage sum over the pool width; the rest of the drain is the
        # parent-side remainder nobody can attribute from outside.
        tracer.wrap(backend, "drain", "service.backends",
                    after=_stage_children(
                        tracer, [stage for stage, _ in STAGE_LAYERS],
                        scale=1.0 / WORKERS))


class Workload:
    name = "?"
    keys = inputs.FINE_KEYS
    #: ``metadata["service_cache"]`` every timed result must carry.
    expected_level = "miss"
    #: Passes ``k`` and ``k + cycle`` send the same requests.
    cycle = 2
    #: Whether the child runs on one core (the last: the first takes the
    #: interrupts).  A single-threaded closed loop gains nothing from a
    #: second core, and left to the scheduler on the reference host the
    #: same seed's p50 ranged over 27% in five runs against 7% pinned.
    pinned = True

    def __init__(self, env: Env) -> None:
        self.env = env
        every = 6 if env.quick else 1
        self.sets = inputs.job_sets(env.model, env.cluster, env.seed,
                                    self.keys, sets=2, every=every)

    def reference_jobs(self) -> List:
        """Jobs whose timed outcomes are compared with a plain pipeline."""
        return self._reference_subset(self.sets[0])

    def _reference_subset(self, jobs: Sequence) -> List:
        count = 4 if self.env.quick else inputs.REFERENCE_JOBS
        return inputs.reference_subset(jobs, count)

    def begin_setup(self) -> None:
        """Set-up work that can overlap estimator training."""

    def setup(self) -> None:
        """The rest of the set-up; ``env.pipeline`` is trained by now."""

    def run_pass(self, index: int, budget: float,
                 tracer: Optional[Tracer] = None) -> PassResult:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def leak_probes(self) -> List[str]:
        """Addresses that must refuse connections once the child exits."""
        return []

    def _service(self, **kwargs):
        from repro.service import PredictionService

        return PredictionService(pipeline=self.env.pipeline, **kwargs)


class ColdSweep(Workload):
    """Distinct jobs through a fresh serial service: every request is a
    full miss, so the four pipeline stages do all the work."""

    name = "cold_sweep"

    def run_pass(self, index, budget, tracer=None):
        jobs = self.sets[index % self.cycle]
        with self._service(backend="serial") as service:
            service.warm()
            if tracer is not None:
                instrument_service(tracer, service)
            result = _request_loop([[job] for job in jobs], service.predict,
                                   unpack=True)
            result.cache_stats = service.cache_stats()
        return result


class ResimSweep(Workload):
    """The same structures, already emulated and replayed once: only the
    non-structural ``compiled`` knob changes, so every request re-estimates
    and warm-replays artifacts it finds in the memory tier."""

    name = "resim_sweep"
    expected_level = "artifacts"

    def setup(self):
        self.service = self._service(backend="serial")
        self.service.warm()
        jobs = self.sets[0]
        for job in jobs:
            self.service.artifacts_for(job)
        # Pass 2k asks for the compiled variants, pass 2k+1 for the others.
        self.variants = [[inputs.with_compiled(job, compiled) for job in jobs]
                         for compiled in (True, False)]
        # The first replay of a trace lowers it to columns and the first
        # sight of a kernel shape queries the estimators; both are cached
        # for the life of the artifacts, so a what-if caller pays them
        # once.  Pay them here: the timed passes measure warm replay.
        for index in range(self.cycle):
            self.run_pass(index, 0.0)

    def reference_jobs(self):
        return [job for jobs in self.variants
                for job in self._reference_subset(jobs)]

    def run_pass(self, index, budget, tracer=None):
        service = self.service
        service.cache.drop_predictions()
        before = service.cache_stats()
        if tracer is not None:
            instrument_service(tracer, service)
        result = _request_loop(
            [[job] for job in self.variants[index % self.cycle]],
            service.predict, unpack=True)
        result.cache_stats = _stats_delta(before, service.cache_stats())
        return result

    def teardown(self):
        self.service.close()


class PooledBatches(Workload):
    """Cold batches of four through the two-worker persistent pool: the
    pipeline work moves into forked workers, so placement, cache delta
    sync and result pickling decide the outcome."""

    name = "pooled_batches"
    keys = inputs.COARSE_KEYS
    pinned = False  # the two workers need the two cores

    def setup(self):
        if (os.cpu_count() or 1) < WORKERS:
            raise SystemExit(
                f"pooled_batches needs at least {WORKERS} cores "
                f"(this host has {os.cpu_count()}); refusing to report "
                f"numbers a one-core host cannot produce")

    def run_pass(self, index, budget, tracer=None):
        jobs = self.sets[index % self.cycle]
        batches = [jobs[start:start + BATCH_JOBS]
                   for start in range(0, len(jobs), BATCH_JOBS)]
        with self._service(backend="persistent",
                           max_workers=WORKERS) as service:
            service.warm()  # forks the pool: set-up, not request time
            if tracer is not None:
                instrument_service(tracer, service, batch=True)
            result = _request_loop(batches, service.predict_many,
                                   unpack=False)
            result.cache_stats = service.cache_stats()
        return result


class ServedHits(Workload):
    """One closed-loop client asking a warm local server for jobs it has
    already predicted: the pipeline does nothing, so the server, the wire
    and the in-process hit path are the whole cost."""

    name = "served_hits"
    keys = inputs.COARSE_KEYS
    expected_level = "prediction"
    cycle = 1

    process = None
    client = None

    def begin_setup(self):
        # The server trains its own estimator suite before it listens;
        # spawn it now so that overlaps the child's own training.
        from repro.service.server import start_local_server

        def spawn() -> None:
            try:
                # Affinity is per thread and inherited: let the server
                # train on the cores this (pinned) process leaves idle.
                os.sched_setaffinity(0, self.env.cpus)
                self.process = start_local_server(
                    cluster=inputs.CLUSTER, estimator=inputs.ESTIMATOR,
                    backend="serial")
            except BaseException as exc:  # re-raised by setup()
                self._spawn_error = exc

        self._spawn_error: Optional[BaseException] = None
        self._spawner = threading.Thread(target=spawn)
        self._spawner.start()

    def setup(self):
        from repro.service.server import PredictionClient

        self._spawner.join()
        if self._spawn_error is not None:
            raise self._spawn_error
        self.address = self.process.server_address
        self.jobs = self.sets[0]
        self.client = PredictionClient(self.address)
        # Pre-warm: afterwards every job is a prediction-level hit.
        self.client.predict_many(self.jobs)
        # One closed-loop client and its server never need to run at the
        # same time, so the server joins the client's core.  On two cores
        # the cross-core wake-ups made p50 differ by 30% between runs of
        # one seed on the reference host; sharing one held it within 8%.
        for task in os.listdir(f"/proc/{self.process.pid}/task"):
            os.sched_setaffinity(int(task), os.sched_getaffinity(0))

    def run_pass(self, index, budget, tracer=None):
        client = self.client
        if tracer is not None:
            tracer.wrap(client, "predict_many", "service.server")
        minimum = 100 if self.env.quick else 50
        rng = random.Random(self.env.seed)
        size = min(SERVED_BATCH, len(self.jobs))
        before = client.cache_stats()
        deadline = time.perf_counter() + budget

        def requests():
            sent = 0
            while sent < minimum or time.perf_counter() < deadline:
                sent += 1
                yield rng.sample(self.jobs, size)

        result = _request_loop(requests(), client.predict_many, unpack=False)
        result.cache_stats = _stats_delta(before, client.cache_stats())
        if client.busy_replies or client.reconnect_count:
            result.errors.append(
                f"client saw {client.busy_replies} busy replies and "
                f"{client.reconnect_count} reconnects")
        return result

    def teardown(self):
        from repro.service.server import stop_local_server

        if self.client is not None:
            self.client.close()
        if self.process is not None:
            stop_local_server(self.process)

    def leak_probes(self):
        return [self.address] if self.process is not None else []


WORKLOADS = {cls.name: cls for cls in
             (ColdSweep, ResimSweep, PooledBatches, ServedHits)}
