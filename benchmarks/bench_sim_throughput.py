"""Simulator throughput micro-benchmark: the engine and emulation floor
gates.

End-to-end prediction throughput -- cold sweeps, pooled batches, served
hits -- is the repository benchmark's job (``bench/``, with bounds);
nothing here is a claim about it.  What this file keeps:

* **engine events/sec** -- the discrete-event engine replaying a collated
  tp2/pp2 transformer trace (gated against an absolute recorded floor in
  ``--check``);
* **emulation rows/sec** -- trace rows the emulator records while running
  that same tp2/pp2 job's unique ranks (gated the same way), with the
  share of intercepted calls block replay logged (report-only);
* **tracked objects per artifact** -- the objects the garbage collector
  walks in the engine workload's cached artifact (gated against a
  recorded ceiling in ``--check``; a count, so the gate does not depend
  on the host's speed);
* **parent codec calls per cold pooled sweep** -- the parent's
  ``wire.loads`` / ``wire.dumps_columnar`` calls over two cold 4-job
  batches on a 2-worker ``persistent`` pool (gated against a recorded
  ceiling in ``--check``; a count, like the footprint);
* **learned-suite training** -- wall seconds to train ``v100-8``'s
  learned estimator suite uncached (kernel profiling, 22 random forests
  of 8 trees, held-out validation), best of ``SUITE_REPEATS``: what
  every process pays before its first learned prediction (gated against
  a recorded ceiling in ``--check``);
* **testbed measurement** (report-only) -- ms per ``Testbed.measure`` of
  the engine workload's emulated job (a fresh ground-truth provider each
  call, so annotation is paid every time) and the ``TraceEvent`` objects
  one call builds;
* **wire bytes per event** -- a shipped worker-trace artifact is its
  recorded columns (raw little-endian column buffers plus the template
  pool); this reports its size per artifact and per event, and
  (report-only) the bytes, encode and decode ms of the engine job's
  whole ``EmulationArtifacts`` as a pooled worker ships it;
* **chaos recovery** (``--chaos``, report-only) -- the persistent-pool
  batch makespan with one fault-injected straggler slept past its job
  lease, vs the clean run: the measured cost of speculative re-dispatch
  (waiting the straggler out would cost the full injected delay);
* **cold vs warm store** (``--store``, report-only) -- the serial
  predict_many batch run twice against one ``--store-dir``: first with
  an empty disk store (cold, populates it), then in a *fresh* service
  whose memory tier starts empty but whose cold tier is the populated
  store, so the warm wall time is what a second process pays when it
  hydrates artifacts from disk instead of re-simulating them.

``--check`` prints an explicit gate summary naming every gate that ran
and every gate that was skipped (with the reason).

Results land in ``BENCH_sim_throughput.json`` at the repository root (the
perf trajectory file CI uploads as an artifact).  ``--check`` compares a
fresh measurement against a recorded baseline and fails when the engine's
replay rate or the emulator's recording rate regresses more than 30% below
its recorded floor, or when the artifact keeps more tracked objects (or
the cold pooled sweep makes more parent codec calls, or the learned suite
takes longer to train) than its recorded ceiling.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py
    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        --check benchmarks/sim_throughput_baseline.json

Not collected by pytest (no ``test_`` prefix): throughput numbers are
hardware-dependent and belong in CI's artifact trail, not the tier-1 gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_sim_throughput.json"

#: The engine may regress at most this far below the baseline.
REGRESSION_TOLERANCE = 0.30

CLUSTER = "v100-8"
MODEL = "gpt-tiny"
GLOBAL_BATCH = 16
#: Timed engine replays and emulations (best-of to shed scheduler noise).
ENGINE_REPEATS = 3
#: Timed uncached trainings of the learned suite (best-of).
SUITE_REPEATS = 2
#: Training iterations of the emulated engine workload.
ITERATIONS = 2
#: Distinct configurations in the chaos and store legs' batch; the codec
#: leg runs them as two batches of ``CODEC_BATCH``.
TRIAL_CONFIGS = 8
CODEC_BATCH = 4
#: Chaos leg (``--chaos``): job lease on the measured batch, and how far
#: past it the injected straggler sleeps.
CHAOS_LEASE_TIMEOUT = 0.5
CHAOS_STRAGGLER_DELAY = 3.0


def _engine_job():
    """The engine workload: a tp2/pp2 ``gpt-tiny`` training job."""
    from repro.framework.recipe import TrainingRecipe
    from repro.hardware.cluster import get_cluster
    from repro.workloads.job import TransformerTrainingJob
    from repro.workloads.models import get_transformer

    cluster = get_cluster(CLUSTER)
    job = TransformerTrainingJob(
        get_transformer(MODEL),
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        cluster, global_batch_size=GLOBAL_BATCH, iterations=ITERATIONS)
    return cluster, job


def _emulate(cluster, job):
    """Emulate ``job``'s unique ranks."""
    from repro.core.emulator import EmulationSession

    return EmulationSession(cluster).run(job.worker_fn,
                                         ranks=job.unique_ranks(),
                                         world_size=job.world_size)


def _engine_setup():
    from repro.core.collator import TraceCollator
    from repro.core.pipeline import MayaPipeline, simulation_ranks

    cluster, job = _engine_job()
    collated = TraceCollator().collate(_emulate(cluster, job).job_trace,
                                       topology=job.topology())
    pipeline = MayaPipeline(cluster, estimator_mode="analytical")
    return cluster, collated, pipeline.make_provider(), simulation_ranks(job)


def bench_engine() -> Dict[str, float]:
    """Events/sec of the engine's replay, best of ``ENGINE_REPEATS``."""
    from repro.core.simulator.engine import ClusterSimulator, SimulationConfig

    cluster, collated, provider, ranks = _engine_setup()
    simulator = ClusterSimulator(cluster, provider,
                                 SimulationConfig(simulate_ranks=ranks))
    report = simulator.simulate(collated, iterations=ITERATIONS)  # warm-up
    best_wall = float("inf")
    for _ in range(ENGINE_REPEATS):
        start = time.perf_counter()
        report = simulator.simulate(collated, iterations=ITERATIONS)
        best_wall = min(best_wall, time.perf_counter() - start)
    return {
        "trace_events": int(report.metadata["processed_events"]),
        "replayed_ranks": int(report.metadata["replayed_ranks"]),
        "columnar_events_per_sec":
            report.metadata["processed_events"] / best_wall,
    }


def bench_emulation() -> Dict[str, float]:
    """Rows/sec the emulator records on the engine workload's unique
    ranks, best of ``ENGINE_REPEATS`` (rows are flushed in ``finalize``,
    so inside the timed span)."""
    cluster, job = _engine_job()
    _emulate(cluster, job)  # warm-up
    best_wall = float("inf")
    for _ in range(ENGINE_REPEATS):
        start = time.perf_counter()
        emulated = _emulate(cluster, job)
        best_wall = min(best_wall, time.perf_counter() - start)
    workers = emulated.job_trace.workers.values()
    rows = emulated.job_trace.total_events()
    calls = sum(trace.metadata["api_calls"] for trace in workers)
    return {
        "emulated_ranks": len(workers),
        "trace_rows": rows,
        "rows_per_sec": rows / best_wall,
        # Report-only: the share of intercepted calls block replay logged
        # from an earlier run of the same block.
        "replayed_call_share": emulated.replayed_calls / calls,
    }


def bench_suite_train() -> Dict[str, float]:
    """Wall seconds to train the cluster's learned estimator suite with
    the suite cache bypassed, best of ``SUITE_REPEATS``."""
    from repro.core.estimators.suite import build_estimator_suite
    from repro.hardware.cluster import get_cluster

    cluster = get_cluster(CLUSTER)
    best_wall = float("inf")
    for _ in range(SUITE_REPEATS):
        start = time.perf_counter()
        suite = build_estimator_suite(cluster, mode="learned",
                                      use_cache=False)
        best_wall = min(best_wall, time.perf_counter() - start)
    forests = [estimator.forest
               for estimator in suite.kernel_estimators.values()]
    return {
        "kernel_classes": len(forests),
        "trees": sum(len(forest._trees) for forest in forests),
        "train_s": best_wall,
    }


def bench_testbed() -> Dict[str, float]:
    """Report-only: ``Testbed.measure`` of the engine workload's emulated
    job, best of ``ENGINE_REPEATS``, and the ``TraceEvent`` objects one
    call builds."""
    from repro.core.pipeline import MayaPipeline
    from repro.core.trace import TraceEvent
    from repro.testbed import Testbed

    cluster, job = _engine_job()
    artifacts = MayaPipeline(cluster).emulate(job)
    testbed = Testbed(cluster)
    built = 0
    init = TraceEvent.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    TraceEvent.__init__ = counting_init
    try:
        testbed.measure(job, artifacts)  # also the warm-up
    finally:
        TraceEvent.__init__ = init
    best_wall = float("inf")
    for _ in range(ENGINE_REPEATS):
        start = time.perf_counter()
        testbed.measure(job, artifacts)
        best_wall = min(best_wall, time.perf_counter() - start)
    return {"measure_ms": best_wall * 1000.0, "trace_events_built": built}


def _settled_tracked_objects() -> int:
    """``len(gc.get_objects())`` once collections stop untracking (a pass
    untracks a tuple only once its items are, one nesting level at a
    time)."""
    count = None
    while True:
        gc.collect()
        tracked = len(gc.get_objects())
        if tracked == count:
            return tracked
        count = tracked


def bench_footprint() -> Dict[str, int]:
    """Objects the garbage collector must walk in one cached artifact.

    Counts the GC-tracked objects the engine workload's collated trace
    keeps alive once emulated, collated and simulated (its annotations
    included), after a warm-up run of the same job has built the
    process-wide memos.  A count, not a timing: it does not depend on the
    host's speed, so its gate runs wherever the benchmark does.
    """
    from repro.core.simulator.engine import ClusterSimulator, SimulationConfig

    def cold_artifact(provider):
        cluster, collated, _, ranks = _engine_setup()
        ClusterSimulator(cluster, provider, SimulationConfig(
            simulate_ranks=ranks)).simulate(collated, iterations=ITERATIONS)
        return collated

    _, _, provider, _ = _engine_setup()
    cold_artifact(provider)  # warm-up
    before = _settled_tracked_objects()
    collated = cold_artifact(provider)
    tracked = _settled_tracked_objects() - before
    return {
        "artifact_rows": sum(len(trace) for trace in collated.traces.values()),
        "tracked_objects": tracked,
    }


def bench_pool_codec() -> Dict[str, int]:
    """Parent-side artifact codec calls over a cold pooled sweep.

    Runs two cold ``CODEC_BATCH``-job batches on a 2-worker
    ``persistent`` pool and counts the calls the parent process makes to
    ``wire.loads`` and ``wire.dumps_columnar``.  The parent holds each
    worker's artifact payload as received and forwards it unchanged to
    the sibling worker at the second batch's sync, and nothing looks a
    cold artifact up, so both counts should be 0.  A count, not a
    timing, so its gate runs wherever the benchmark does.
    """
    from repro.analysis.experiments import candidate_recipes
    from repro.hardware.cluster import get_cluster
    from repro.service import PredictionService, wire
    from repro.workloads.job import TransformerTrainingJob
    from repro.workloads.models import get_transformer

    cluster = get_cluster(CLUSTER)
    model = get_transformer(MODEL)
    jobs = [TransformerTrainingJob(model, recipe, cluster,
                                   global_batch_size=GLOBAL_BATCH)
            for recipe in candidate_recipes(model, cluster, GLOBAL_BATCH,
                                            limit=2 * CODEC_BATCH)]
    parent_pid = os.getpid()
    real = {name: getattr(wire, name)
            for name in ("loads", "dumps_columnar")}
    calls = dict.fromkeys(real, 0)

    def counted(name):
        def wrapper(*args, **kwargs):
            if os.getpid() == parent_pid:  # forked workers inherit it
                calls[name] += 1
            return real[name](*args, **kwargs)
        return wrapper

    for name in real:
        setattr(wire, name, counted(name))
    try:
        with PredictionService(cluster=cluster,
                               estimator_mode="analytical",
                               backend="persistent",
                               max_workers=2) as service:
            service.warm()
            for start in range(0, len(jobs), CODEC_BATCH):
                predictions = service.predict_many(
                    jobs[start:start + CODEC_BATCH])
                assert all(prediction.metadata["service_cache"] == "miss"
                           for prediction in predictions), \
                    "codec leg batch was not cold"
            delta_syncs = service.backend_impl.sync_stats["delta_syncs"]
    finally:
        for name, function in real.items():
            setattr(wire, name, function)
    assert delta_syncs > 0, "codec leg forwarded nothing to a sibling"
    return {
        "trials": len(jobs),
        "delta_syncs": delta_syncs,
        "parent_loads": calls["loads"],
        "parent_dumps": calls["dumps_columnar"],
    }


def bench_wire_shipping() -> Dict[str, object]:
    """Bytes per shipped trace artifact and per event, plus the whole
    artifact as a pooled worker ships it.

    Serialises the benchmark workload's representative worker traces as
    the backends ship them: their columns, in the columnar wire payload.
    Report-only: the engine job's ``EmulationArtifacts`` without ``job``
    and ``cluster``, in that same payload, with its encode and decode
    times (best of ``ENGINE_REPEATS``).
    """
    import dataclasses

    from repro.core.pipeline import MayaPipeline
    from repro.service import wire

    _, collated, _, _ = _engine_setup()
    traces = list(collated.traces.values())
    events = sum(len(trace) for trace in traces)
    columnar = sum(len(wire.dumps_columnar(trace)) for trace in traces)
    cluster, job = _engine_job()
    artifacts = dataclasses.replace(MayaPipeline(cluster).emulate(job),
                                    job=None, cluster=None)
    encode = decode = float("inf")
    for _ in range(ENGINE_REPEATS):
        start = time.perf_counter()
        payload = wire.dumps_columnar(artifacts)
        encode = min(encode, time.perf_counter() - start)
        start = time.perf_counter()
        wire.loads(payload)
        decode = min(decode, time.perf_counter() - start)
    return {
        "artifacts": len(traces),
        "trace_events": events,
        "columnar_bytes": columnar,
        "columnar_bytes_per_event": columnar / events,
        "artifact_bytes": len(payload),
        "artifact_encode_ms": encode * 1000.0,
        "artifact_decode_ms": decode * 1000.0,
    }


def bench_chaos() -> Dict[str, object]:
    """Recovery cost of one straggler re-dispatched past its lease.

    Report-only: runs the persistent-pool batch twice -- clean, then with
    a deterministic :class:`~repro.service.FaultPlan` that puts one worker
    to sleep ``CHAOS_STRAGGLER_DELAY`` seconds on one job, well past the
    ``CHAOS_LEASE_TIMEOUT`` lease.  The lease machinery must re-dispatch
    the job to the other worker and finish the batch without waiting the
    straggler out; the makespan ratio is the measured cost of that
    recovery (waiting would cost roughly the full straggler delay).
    Predictions must stay identical between the two runs.
    """
    from repro.analysis.experiments import candidate_recipes
    from repro.hardware.cluster import get_cluster
    from repro.service import (FaultPlan, FaultRule, PredictionService,
                               install_fault_plan)
    from repro.workloads.job import TransformerTrainingJob
    from repro.workloads.models import get_transformer

    cluster = get_cluster(CLUSTER)
    model = get_transformer(MODEL)
    recipes = candidate_recipes(model, cluster, GLOBAL_BATCH,
                                limit=TRIAL_CONFIGS)

    def run_once(plan):
        install_fault_plan(plan)
        try:
            with PredictionService(cluster=cluster,
                                   estimator_mode="analytical",
                                   backend="persistent", max_workers=2,
                                   lease_timeout=CHAOS_LEASE_TIMEOUT
                                   ) as service:
                service.warm()
                jobs = [TransformerTrainingJob(model, recipe, cluster,
                                               global_batch_size=GLOBAL_BATCH)
                        for recipe in recipes]
                start = time.perf_counter()
                predictions = service.predict_many(jobs)
                wall = time.perf_counter() - start
                stats = dict(service.backend_impl.resilience_stats)
            return ([prediction.iteration_time
                     for prediction in predictions], wall, stats)
        finally:
            install_fault_plan(None)

    clean_times, clean_wall, _ = run_once(None)
    straggler = FaultPlan([FaultRule(action="slow", job=2, when="before",
                                     delay_s=CHAOS_STRAGGLER_DELAY,
                                     worker=0)])
    chaos_times, chaos_wall, stats = run_once(straggler)
    assert chaos_times == clean_times, \
        "chaos leg diverged from the clean persistent run"
    return {
        "trials": len(recipes),
        "lease_timeout_s": CHAOS_LEASE_TIMEOUT,
        "straggler_delay_s": CHAOS_STRAGGLER_DELAY,
        "clean_wall_s": clean_wall,
        "chaos_wall_s": chaos_wall,
        "recovery_overhead": chaos_wall / clean_wall,
        "lease_expirations": stats["lease_expirations"],
        "redispatched_jobs": stats["redispatched_jobs"],
        "stragglers_discarded": stats["stragglers_discarded"],
    }


def bench_store() -> Dict[str, object]:
    """Cold vs warm wall time of one batch against a shared artifact store.

    Report-only: runs the serial predict_many batch twice against the
    same temporary ``--store-dir``.  The cold run starts with an empty
    store and populates it (every artifact simulated, then written
    through).  The warm run is a *fresh* service -- empty memory tier,
    no journal -- attached to the now-populated store, so every
    artifact hydrates from disk instead of being re-simulated.  The
    predictions must be byte-identical; the speedup is what a second
    process (or a restart) gains from the persistent cold tier.
    """
    import shutil
    import tempfile

    from repro.analysis.experiments import candidate_recipes
    from repro.hardware.cluster import get_cluster
    from repro.service import PredictionService
    from repro.workloads.job import TransformerTrainingJob
    from repro.workloads.models import get_transformer

    cluster = get_cluster(CLUSTER)
    model = get_transformer(MODEL)
    recipes = candidate_recipes(model, cluster, GLOBAL_BATCH,
                                limit=TRIAL_CONFIGS)
    store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")

    def run_once():
        with PredictionService(cluster=cluster,
                               estimator_mode="analytical",
                               backend="serial",
                               store_dir=store_dir) as service:
            service.warm()
            jobs = [TransformerTrainingJob(model, recipe, cluster,
                                           global_batch_size=GLOBAL_BATCH)
                    for recipe in recipes]
            start = time.perf_counter()
            predictions = service.predict_many(jobs)
            wall = time.perf_counter() - start
            stats = service.cache_stats()
            store_stats = service.store_stats()
        return ([prediction.iteration_time for prediction in predictions],
                wall, stats, store_stats)

    try:
        cold_times, cold_wall, cold_stats, _ = run_once()
        assert cold_stats["store_hits"] == 0, \
            "cold store leg started with a populated store"
        warm_times, warm_wall, warm_stats, store_stats = run_once()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    assert warm_times == cold_times, \
        "warm store leg diverged from the cold run"
    assert warm_stats["store_hits"] > 0, \
        "warm store leg did not hydrate from the populated store"
    return {
        "trials": len(recipes),
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "warm_speedup": cold_wall / warm_wall,
        "store_hits": warm_stats["store_hits"],
        "store_entries": store_stats["entries"],
        "store_bytes": store_stats["total_bytes"],
    }


def run_benchmark(output: Path, chaos: bool = False,
                  store: bool = False) -> Dict[str, object]:
    import numpy

    payload = {
        "benchmark": "sim_throughput",
        "cluster": CLUSTER,
        "model": MODEL,
        "cpu_count": os.cpu_count() or 1,
        "numpy_version": numpy.__version__,
        "unix_time": time.time(),
        "engine": bench_engine(),
        "emulation": bench_emulation(),
        "wire_shipping": bench_wire_shipping(),
        "footprint": bench_footprint(),
        "pool_codec": bench_pool_codec(),
        "suite_train": bench_suite_train(),
        "testbed": bench_testbed(),
    }
    if chaos:
        payload["chaos"] = bench_chaos()
    if store:
        payload["cold_vs_warm_store"] = bench_store()
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    engine = payload["engine"]
    print(f"engine: replay of {engine['replayed_ranks']} ranks "
          f"{engine['columnar_events_per_sec']:,.0f} ev/s")
    emulation = payload["emulation"]
    print(f"emulation: {emulation['trace_rows']} rows over "
          f"{emulation['emulated_ranks']} ranks "
          f"{emulation['rows_per_sec']:,.0f} rows/s, "
          f"{emulation['replayed_call_share']:.0%} of calls replayed")
    footprint = payload["footprint"]
    print(f"footprint: {footprint['tracked_objects']} tracked objects in "
          f"a cached {footprint['artifact_rows']}-row artifact")
    codec = payload["pool_codec"]
    print(f"pool codec: {codec['parent_loads']} parent decodes, "
          f"{codec['parent_dumps']} parent encodes over "
          f"{codec['trials']} cold pooled trials")
    suite_train = payload["suite_train"]
    print(f"suite train: {suite_train['train_s']:.2f} s for "
          f"{suite_train['trees']} trees over "
          f"{suite_train['kernel_classes']} kernel classes")
    testbed = payload["testbed"]
    print(f"testbed: {testbed['measure_ms']:.1f} ms per measurement, "
          f"{testbed['trace_events_built']} TraceEvents built")
    shipping = payload["wire_shipping"]
    print(f"wire shipping: {shipping['columnar_bytes_per_event']:.1f} "
          f"B/event over {shipping['artifacts']} artifacts; whole "
          f"artifact {shipping['artifact_bytes']} B, encode "
          f"{shipping['artifact_encode_ms']:.2f} ms, decode "
          f"{shipping['artifact_decode_ms']:.2f} ms")
    if "chaos" in payload:
        # Report-only: the recovery machinery's measured cost, not a gate.
        leg = payload["chaos"]
        print(f"chaos leg: clean {leg['clean_wall_s']:.2f}s vs one "
              f"{leg['straggler_delay_s']:.1f}s straggler "
              f"{leg['chaos_wall_s']:.2f}s "
              f"({leg['recovery_overhead']:.2f}x; "
              f"{leg['lease_expirations']} lease expirations, "
              f"{leg['redispatched_jobs']} re-dispatches)")
    if "cold_vs_warm_store" in payload:
        # Report-only: what a fresh process gains from the disk tier.
        leg = payload["cold_vs_warm_store"]
        print(f"store leg: cold {leg['cold_wall_s']:.2f}s vs warm "
              f"{leg['warm_wall_s']:.2f}s ({leg['warm_speedup']:.2f}x; "
              f"{leg['store_hits']:.0f} store hits over "
              f"{leg['store_entries']} entries)")
    return payload


def check_against_baseline(current: Dict[str, object],
                           baseline_path: Path) -> int:
    # Every gate (blocking or report-only) records whether it RAN or was
    # SKIPPED and why; the summary at the end names both sets.
    gates: List[tuple] = []
    baseline = json.loads(baseline_path.read_text())
    failed = False
    for gate, leg, metric, unit in (
            ("engine-regression", "engine", "columnar_events_per_sec",
             "ev/s"),
            ("emulation-regression", "emulation", "rows_per_sec",
             "rows/s")):
        recorded = float(baseline[leg][metric])
        floor = recorded * (1.0 - REGRESSION_TOLERANCE)
        measured = float(current[leg][metric])
        print(f"{leg}: measured {measured:,.0f} {unit}, "
              f"baseline {recorded:,.0f} {unit}, floor {floor:,.0f} {unit}")
        gates.append((gate, None))
        if measured < floor:
            print(f"FAIL: {leg} regressed "
                  f"{(1 - measured / recorded) * 100:.1f}% below the "
                  f"recorded baseline (tolerance "
                  f"{REGRESSION_TOLERANCE * 100:.0f}%)")
            failed = True
    # A count, not a rate: the artifact's GC-tracked objects must stay
    # under the recorded ceiling (per-row objects would scale it with the
    # trace's 1.9k rows).
    ceiling = int(baseline["footprint"]["tracked_objects"])
    tracked = int(current["footprint"]["tracked_objects"])
    print(f"footprint: measured {tracked} tracked objects, "
          f"ceiling {ceiling}")
    gates.append(("footprint-ceiling", None))
    if tracked > ceiling:
        print(f"FAIL: a cached artifact keeps {tracked} tracked objects, "
              f"above the recorded ceiling of {ceiling}")
        failed = True
    # Counts too: what the parent decodes and encodes while two cold
    # batches run on the pool (held payloads are forwarded as received).
    gates.append(("pool-codec-ceiling", None))
    for metric, what in (("parent_loads", "decodes"),
                         ("parent_dumps", "encodes")):
        ceiling = int(baseline["pool_codec"][metric])
        measured = int(current["pool_codec"][metric])
        print(f"pool codec: measured {measured} parent {what}, "
              f"ceiling {ceiling}")
        if measured > ceiling:
            print(f"FAIL: a cold pooled sweep makes {measured} parent "
                  f"artifact {what}, above the recorded ceiling of "
                  f"{ceiling}")
            failed = True
    # Wall time, but against a ceiling ~2.5x above a healthy host: on a
    # 2-core VM the level-wise tree builder trains the suite in 1.3-1.6 s
    # and the recursive one it replaced (a sort and a scan per node and
    # feature) took 8.4 s.
    ceiling_s = float(baseline["suite_train"]["train_s"])
    train_s = float(current["suite_train"]["train_s"])
    print(f"suite train: measured {train_s:.2f} s, ceiling {ceiling_s:.2f} s")
    gates.append(("suite-train-ceiling", None))
    if train_s > ceiling_s:
        print(f"FAIL: training the learned suite took {train_s:.2f} s, "
              f"above the recorded ceiling of {ceiling_s:.2f} s")
        failed = True
    store_leg = current.get("cold_vs_warm_store", {})
    if store_leg:
        # Report-only: the warm run hydrates every artifact from disk, so
        # it must beat re-simulating them; the ratio is recorded in the
        # uploaded JSON.
        speedup = float(store_leg["warm_speedup"])
        print(f"store leg: warm-from-store {speedup:.2f}x vs cold"
              + ("" if speedup > 1.0
                 else " (WARNING: warm store run did not beat cold)"))
        gates.append(("warm-store-speedup", None))
    else:
        gates.append(("warm-store-speedup", "leg not measured (--store)"))
    ran = [name for name, skip in gates if skip is None]
    skipped = [(name, skip) for name, skip in gates if skip is not None]
    print(f"gate summary: {len(ran)} ran ({', '.join(ran)})")
    for name, reason in skipped:
        print(f"gate summary: SKIPPED {name}: {reason}")
    if not failed:
        print("throughput check passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the benchmark JSON")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="baseline JSON to compare the fresh "
                             "measurement against (exit 1 on regression)")
    parser.add_argument("--chaos", action="store_true",
                        help="also measure the report-only chaos leg: "
                             "persistent-pool makespan with one injected "
                             "straggler re-dispatched past its lease")
    parser.add_argument("--store", action="store_true",
                        help="also measure the report-only store leg: the "
                             "serial batch cold against an empty artifact "
                             "store, then warm from the populated store in "
                             "a fresh service")
    args = parser.parse_args(argv)
    payload = run_benchmark(args.output, chaos=args.chaos, store=args.store)
    if args.check is not None:
        return check_against_baseline(payload, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
