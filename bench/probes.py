"""Per-layer probes of the traced run.

Each probe times calls the benchmark itself makes into one layer's public
functions, on a small job subset generated from the seed, and reads the
layer's own counters.  The same probes run whatever the workload, so a
per-layer metric means the same thing in every traced run; ``_ms`` and
``_us`` values are the median host time of the named call, counts are
exact and must repeat for one seed.
"""

from __future__ import annotations

import os
import pickle
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Sequence, Tuple

from bench import inputs
from bench.workloads import BATCH_JOBS, SERVED_BATCH, WORKERS, Env

PROBE_JOBS = 12
STAGES = ("emulation", "collation", "prediction", "simulation")


def _timed(function: Callable, *args, **kwargs) -> Tuple[float, object]:
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return time.perf_counter() - start, result


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def _median_us(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e6


def _simulation_ranks(job) -> List[int]:
    """One data-parallel replica, as ``MayaPipeline`` simulates it."""
    topology = job.topology()
    return [topology.rank_of(0, pp, tp)
            for pp in range(topology.pipeline_parallel)
            for tp in range(topology.tensor_parallel)]


def probe_core(env: Env, jobs: Sequence) -> Tuple[Dict[str, float], List]:
    """Emulator, collator, estimators, simulator and testbed, stage by
    stage on each probe job; returns the artifacts for later probes."""
    from repro.core.collator import TraceCollator
    from repro.core.emulator import EmulationSession
    from repro.core.pipeline import EmulationArtifacts
    from repro.core.simulator.engine import ClusterSimulator, SimulationConfig
    from repro.testbed import Testbed

    cluster = env.cluster
    provider = env.pipeline.make_provider()
    testbed = Testbed(cluster)
    run, collate, annotate, first, warm, measure = [], [], [], [], [], []
    trace_events = launched = world = unique = matched = queries = 0
    sim_events = 0
    artifacts: List = []
    for job in jobs:
        ranks = job.unique_ranks()
        seconds, emulation = _timed(
            EmulationSession(cluster).run, job.worker_fn, ranks=ranks,
            world_size=job.world_size)
        run.append(seconds)
        trace_events += emulation.job_trace.total_events()
        launched += len(ranks)
        world += job.world_size
        seconds, collated = _timed(
            TraceCollator(deduplicate=True).collate, emulation.job_trace,
            topology=job.topology())
        collate.append(seconds)
        unique += collated.unique_trace_count()
        matched += sum(len(table) for table in collated.resolutions.values())

        events = [(trace.rank, event)
                  for trace in collated.traces.values()
                  for event in trace.device_events()
                  if event.kernel_class and not event.collective]
        queries += len(events)
        start = time.perf_counter()
        for rank, event in events:
            provider.kernel_duration(rank, event)
        annotate.append(time.perf_counter() - start)

        simulator = ClusterSimulator(
            cluster, provider,
            SimulationConfig(simulate_ranks=_simulation_ranks(job)))
        seconds, _ = _timed(simulator.simulate, collated,
                            iterations=job.iterations)
        first.append(seconds)
        seconds, report = _timed(simulator.simulate, collated,
                                 iterations=job.iterations)
        warm.append(seconds)
        sim_events += int(report.metadata["processed_events"])

        item = EmulationArtifacts(job=job, cluster=cluster,
                                  job_trace=emulation.job_trace,
                                  collated=collated, oom=emulation.oom)
        artifacts.append(item)
        seconds, _ = _timed(testbed.measure, job, item)
        measure.append(seconds)
    return {
        "emulator.run_ms": _median_ms(run),
        "emulator.trace_events": trace_events,
        "emulator.events_per_s": trace_events / sum(run),
        "emulator.ranks_launched_share": launched / world,
        "collator.collate_ms": _median_ms(collate),
        "collator.unique_worker_share": unique / world,
        "collator.collectives_matched": matched,
        "estimators.annotate_ms": _median_ms(annotate),
        "estimators.kernel_queries": queries,
        "simulator.first_replay_ms": _median_ms(first),
        "simulator.warm_replay_ms": _median_ms(warm),
        "simulator.build_share": 1.0 - sum(warm) / sum(first),
        "simulator.events": sim_events,
        "simulator.events_per_s": sim_events / sum(warm),
        "testbed.measure_ms": _median_ms(measure),
    }, artifacts


def probe_pipeline_and_predictor(env: Env, jobs: Sequence) -> Dict[str, float]:
    """``MayaPipeline.predict`` wall against its stage times, then the
    service's miss overhead and its two hit paths."""
    from repro.service import PredictionService

    provider = env.pipeline.make_provider()
    walls, glue = [], []
    stage_totals = dict.fromkeys(STAGES, 0.0)
    for job in jobs:
        seconds, result = _timed(env.pipeline.predict, job, provider=provider)
        walls.append(seconds)
        glue.append(seconds - sum(result.stage_times.values()))
        for stage in STAGES:
            stage_totals[stage] += result.stage_times.get(stage, 0.0)
    metrics = {f"pipeline.{stage}_share": stage_totals[stage] / sum(walls)
               for stage in STAGES}
    metrics["pipeline.glue_ms"] = _median_ms(glue)

    miss, hit, batch_hit = [], [], []
    with PredictionService(pipeline=env.pipeline, backend="serial") as service:
        service.warm()
        for job in jobs:
            seconds, result = _timed(service.predict, job)
            miss.append(seconds - sum(result.stage_times.values()))
        for _ in range(5):
            for job in jobs:
                hit.append(_timed(service.predict, job)[0])
        batch = list(jobs[:SERVED_BATCH])
        for _ in range(50):
            batch_hit.append(_timed(service.predict_many, batch)[0])
    metrics["predictor.miss_overhead_ms"] = _median_ms(miss)
    metrics["predictor.hit_ms"] = _median_ms(hit)
    metrics["predictor.batch_hit_ms"] = _median_ms(batch_hit)
    return metrics


def _cache_keys(env: Env, job) -> Tuple[Tuple, Tuple]:
    """Artifact and prediction keys as the service composes them."""
    pipeline = env.pipeline
    return ((job.structural_signature(), pipeline.collation_fingerprint()),
            (job.signature(), pipeline.collation_fingerprint(),
             pipeline.estimator_fingerprint()))


def probe_cache(env: Env, jobs: Sequence, artifacts: Sequence,
                results: Sequence) -> Dict[str, float]:
    """The ``ArtifactCache`` methods, and a delta over a 4-artifact gap."""
    from repro.service import wire
    from repro.service.cache import ArtifactCache

    cache = ArtifactCache()
    keys = [_cache_keys(env, job) for job in jobs]
    gap = BATCH_JOBS
    put_a, get_a, put_p, get_p = [], [], [], []
    for _ in range(20):
        cache.clear()
        for (a_key, p_key), item, result in zip(keys[:-gap], artifacts,
                                                results):
            put_a.append(_timed(cache.put_artifacts, a_key, item)[0])
            get_a.append(_timed(cache.lookup_artifacts, a_key)[0])
            put_p.append(_timed(cache.put_prediction, p_key, result)[0])
            get_p.append(_timed(cache.get_prediction, p_key)[0])
    epoch = cache.sync_epoch
    for (a_key, _), item in zip(keys[-gap:], artifacts[-gap:]):
        cache.put_artifacts(a_key, item)
    delta, apply_delta = [], []
    for _ in range(20):
        seconds, (_, entries) = _timed(cache.delta_since, epoch)
        delta.append(seconds)
        apply_delta.append(
            _timed(ArtifactCache().apply_artifact_delta, entries)[0])
    return {
        "cache.get_prediction_us": _median_us(get_p),
        "cache.put_prediction_us": _median_us(put_p),
        "cache.lookup_artifacts_us": _median_us(get_a),
        "cache.put_artifacts_us": _median_us(put_a),
        "cache.delta_since_ms": _median_ms(delta),
        "cache.apply_delta_ms": _median_ms(apply_delta),
        "cache.delta_bytes": len(wire.dumps(entries)),
    }


def probe_store(env: Env, jobs: Sequence,
                artifacts: Sequence) -> Dict[str, float]:
    """``ArtifactStore.put`` / ``get`` in a scratch directory.  The files
    stay in the page cache: real disk behaviour is not claimed."""
    from repro.service.store import ArtifactStore

    root = tempfile.mkdtemp(prefix="tmp-store-", dir=env.out_dir)
    try:
        store = ArtifactStore(root)
        keys = [_cache_keys(env, job)[0] for job in jobs]
        put = [_timed(store.put, key, item)[0]
               for key, item in zip(keys, artifacts)]
        get = [_timed(store.get, key)[0] for key in keys]
        store.get(("absent",))
        stats = store.stats()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    counters = stats["counters"]
    return {
        "store.put_ms": _median_ms(put),
        "store.get_ms": _median_ms(get),
        "store.entry_bytes": stats["total_bytes"] / stats["entries"],
        "store.hits": counters["hits"],
        "store.misses": counters["misses"],
        "store.corrupt": counters["corrupt"],
    }


def probe_wire(jobs: Sequence, artifacts: Sequence,
               results: Sequence) -> Dict[str, float]:
    """Frame encode/decode of an 8-job request and its reply, and the two
    payloads a pooled worker ships: one result, one artifact."""
    from repro.service import wire

    features = frozenset(wire.local_features())
    request = ("predict", 1, list(jobs[:SERVED_BATCH]))
    reply = ("results", 1, list(results[:SERVED_BATCH]))
    req_encode, rep_encode, rep_decode = [], [], []
    res_pickle, art_encode, art_decode = [], [], []
    for _ in range(30):
        seconds, request_frame = _timed(wire.encode_frame, request, features)
        req_encode.append(seconds)
        seconds, reply_frame = _timed(wire.encode_frame, reply, features)
        rep_encode.append(seconds)
        fmt, _ = wire.parse_header(reply_frame[:wire.HEADER_SIZE])
        rep_decode.append(_timed(wire.decode_payload, fmt,
                                 reply_frame[wire.HEADER_SIZE:])[0])
        seconds, result_bytes = _timed(wire.dumps, results[0])
        res_pickle.append(seconds)
    for item in artifacts[:4]:
        seconds, artifact_bytes = _timed(wire.dumps_columnar, item)
        art_encode.append(seconds)
        art_decode.append(_timed(pickle.loads, artifact_bytes)[0])
    return {
        "wire.request_encode_ms": _median_ms(req_encode),
        "wire.request_bytes": len(request_frame),
        "wire.reply_encode_ms": _median_ms(rep_encode),
        "wire.reply_decode_ms": _median_ms(rep_decode),
        "wire.reply_bytes": len(reply_frame),
        "wire.result_pickle_ms": _median_ms(res_pickle),
        "wire.result_bytes": len(result_bytes),
        "wire.artifact_encode_ms": _median_ms(art_encode),
        "wire.artifact_decode_ms": _median_ms(art_decode),
        "wire.artifact_bytes": len(wire.dumps_columnar(artifacts[0])),
        "wire.artifact_pickle_bytes": len(wire.dumps(artifacts[0])),
    }


def probe_backends(env: Env, jobs: Sequence) -> Dict[str, float]:
    """The persistent pool's lifecycle on cold batches of four, and the
    same batches through ``serial``."""
    from repro.service import PredictionService

    batches = [list(jobs[start:start + BATCH_JOBS])
               for start in range(0, len(jobs), BATCH_JOBS)]
    trials = sum(len(batch) for batch in batches)
    service = PredictionService(pipeline=env.pipeline, backend="persistent",
                                max_workers=WORKERS)
    backend = service.backend_impl
    submit, drain = [], []
    stage_total = 0.0
    try:
        warm_s, _ = _timed(service.warm)
        for batch in batches:
            seconds, _ = _timed(backend.submit, service, batch)
            submit.append(seconds)
            seconds, results = _timed(backend.drain)
            drain.append(seconds)
            stage_total += sum(sum(result.stage_times.values())
                               for result in results)
        sync = dict(backend.sync_stats)
        resilience = service.resilience_stats()
    finally:
        close_s, _ = _timed(service.close)
    pooled_wall = sum(submit) + sum(drain)
    with PredictionService(pipeline=env.pipeline, backend="serial") as serial:
        serial.warm()
        serial_wall = sum(_timed(serial.predict_many, batch)[0]
                          for batch in batches)
    return {
        "backends.warm_ms": warm_s * 1e3,
        "backends.submit_ms": _median_ms(submit),
        "backends.drain_ms": _median_ms(drain),
        "backends.close_ms": close_s * 1e3,
        "backends.worker_stage_ms_per_trial": stage_total / trials * 1e3,
        "backends.parallel_efficiency": stage_total / (WORKERS * pooled_wall),
        "backends.unattributed_ms_per_trial":
            (pooled_wall - stage_total / WORKERS) / trials * 1e3,
        "backends.speedup_vs_serial": serial_wall / pooled_wall,
        "backends.delta_syncs": sync["delta_syncs"],
        "backends.full_syncs": sync["full_syncs"],
        "backends.skipped_syncs": sync["skipped_syncs"],
        "backends.worker_deaths": resilience["worker_deaths"],
        "backends.redispatched_jobs": resilience["redispatched_jobs"],
        "backends.parent_evaluations": resilience["parent_evaluations"],
        "backends.lease_expirations": resilience["lease_expirations"],
        "scheduling.placements": sync["placements"],
        "scheduling.locality_hits": sync["locality_hits"],
        "scheduling.ship_bytes_avoided": sync["ship_bytes_avoided"],
    }


def probe_scheduling(env: Env, jobs: Sequence) -> Dict[str, float]:
    """The default policy's ``assign`` on a 4-job x 2-worker view."""
    from repro.service.scheduling import (JobSpec, WorkerSnapshot,
                                          get_scheduler)

    specs = [JobSpec(index=index, artifact_key=_cache_keys(env, job)[0])
             for index, job in enumerate(jobs[:BATCH_JOBS])]
    workers = [WorkerSnapshot(slot=slot) for slot in range(WORKERS)]
    policy = get_scheduler("round_robin")
    assign = [_timed(policy.assign, specs, workers)[0] for _ in range(200)]
    return {"scheduling.assign_us": _median_us(assign)}


def probe_server(env: Env, jobs: Sequence,
                 batch_hit_ms: float) -> Dict[str, float]:
    """Round trips to a server on a thread of this process (its pipeline
    is already trained, so the probe costs no second training)."""
    from repro.service import PredictionService
    from repro.service.server import PredictionClient, start_server_thread

    server = start_server_thread(
        PredictionService(pipeline=env.pipeline, backend="serial"))
    try:
        with PredictionClient(server.address) as client:
            batch = list(jobs[:SERVED_BATCH])
            client.predict_many(batch)
            stats = [_timed(client.stats)[0] for _ in range(100)]
            hits = [_timed(client.predict_many, batch)[0]
                    for _ in range(200)]
            counters = client.server_stats()
            reconnects = client.reconnect_count
    finally:
        server.stop_threadsafe()
    return {
        "server.stats_roundtrip_ms": _median_ms(stats),
        "server.hit_roundtrip_overhead_ms": _median_ms(hits) - batch_hit_ms,
        "server.requests": counters["requests"],
        "server.batches": counters["batches"],
        "server.coalesced_jobs": counters["coalesced_jobs"],
        "server.cross_client_coalesced": counters["cross_client_coalesced"],
        "server.busy_rejections": counters["busy_rejections"],
        "server.client_reconnects": reconnects,
    }


def probe_search(env: Env) -> Dict[str, float]:
    """A CMA search over the benchmark model, with the evaluator's batch
    call timed so the runner's own cost per sample is what remains."""
    from repro.search.runner import MayaSearch, MayaTrialEvaluator
    from repro.service import PredictionService

    service = PredictionService(pipeline=env.pipeline, backend="serial")
    evaluator = MayaTrialEvaluator(env.model, env.cluster,
                                   inputs.GLOBAL_BATCH, service=service)
    evaluate_many = evaluator.evaluate_many
    walls: List[float] = []
    widths: List[int] = []

    def timed_evaluate_many(recipes):
        seconds, trials = _timed(evaluate_many, recipes)
        walls.append(seconds)
        widths.append(len(recipes))
        return trials

    evaluator.evaluate_many = timed_evaluate_many
    search = MayaSearch(
        evaluator, algorithm="cma", world_size=env.cluster.world_size,
        global_batch_size=inputs.GLOBAL_BATCH,
        num_layers=env.model.num_layers, num_heads=env.model.num_heads,
        gpus_per_node=env.cluster.gpus_per_node, concurrency=8,
        seed=env.seed)
    try:
        seconds, result = _timed(search.run, budget=60 if env.quick else 300)
    finally:
        evaluator.close()
    counts = result.status_counts
    best = result.best.iteration_time if result.best is not None else 0.0
    return {
        "search.overhead_ms_per_sample":
            (seconds - sum(walls)) / result.samples_used * 1e3,
        "search.samples": result.samples_used,
        "search.executed": counts.get("executed", 0),
        "search.cached": counts.get("cached", 0),
        "search.skipped": counts.get("skipped", 0),
        "search.invalid": counts.get("invalid", 0),
        "search.mean_batch_width": statistics.mean(widths) if widths else 0.0,
        "search.best_iteration_time_ms": best * 1e3,
    }


def run_all(env: Env) -> Dict[str, float]:
    """Every layer probe, on ``PROBE_JOBS`` jobs spread over the seed's
    fine-grained job set."""
    fine = inputs.job_sets(env.model, env.cluster, env.seed,
                           inputs.FINE_KEYS, sets=1)[0]
    jobs = inputs.reference_subset(fine, PROBE_JOBS)
    metrics, artifacts = probe_core(env, jobs)
    provider = env.pipeline.make_provider()
    results = [env.pipeline.predict(job, item, provider=provider)
               for job, item in zip(jobs, artifacts)]
    metrics.update(probe_pipeline_and_predictor(env, jobs))
    metrics.update(probe_cache(env, jobs, artifacts, results))
    metrics.update(probe_store(env, jobs, artifacts))
    metrics.update(probe_wire(jobs, artifacts, results))
    if (os.cpu_count() or 1) < WORKERS:
        raise SystemExit(f"the backends probe needs at least {WORKERS} "
                         f"cores (this host has {os.cpu_count()})")
    # The pool forks: probe it before the server thread exists.
    metrics.update(probe_backends(env, jobs))
    metrics.update(probe_scheduling(env, jobs))
    metrics.update(probe_server(env, jobs, metrics["predictor.batch_hit_ms"]))
    metrics.update(probe_search(env))
    return metrics
