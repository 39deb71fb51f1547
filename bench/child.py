"""One workload in one fresh interpreter (``python -m bench.child``).

``bench/run.py`` starts this module once per workload so that set-up time,
peak RSS and the per-process estimator-suite cache are honest per workload.
The last line of standard output is one JSON object: the contract keys
(``correct``, ``attempted``, ``failed``, ``metrics``) plus what the driver
needs for its report and its leak check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from bench import inputs, procstat
from bench.trace import Tracer
from bench.workloads import (WORKLOADS, Env, PassResult, Workload,
                             summarize)

#: Layers whose self time per trial the traced pass reports.
TRACE_LAYERS = ("service.server", "service.predictor", "service.cache",
                "service.backends", "core.pipeline", "core.emulator",
                "core.collator", "core.estimators", "core.simulator")
MAPE_LIMIT_PCT = 5.0


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolation percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def compute_reference(pipeline, jobs: Sequence, perturb: bool
                      ) -> Tuple[Dict[Tuple, Tuple], float]:
    """Plain ``MayaPipeline`` predictions of ``jobs`` keyed by signature,
    and their mean absolute % error against the testbed."""
    from repro.testbed import Testbed

    testbed = Testbed(pipeline.cluster)
    provider = pipeline.make_provider()
    reference: Dict[Tuple, Tuple] = {}
    errors: List[float] = []
    for job in jobs:
        artifacts = pipeline.emulate(job)
        predicted = pipeline.predict(job, artifacts, provider=provider)
        measured = testbed.measure(job, artifacts)
        reference[job.signature()] = summarize(predicted)[0]
        if predicted.succeeded and measured.succeeded:
            errors.append(abs(predicted.iteration_time
                              - measured.iteration_time)
                          / measured.iteration_time * 100.0)
    if perturb:
        # Smoke-test hook: a wrong reference must make the check fail.
        key = next(iter(reference))
        time_s, oom, peak = reference[key]
        reference[key] = (time_s * 1.001, oom, peak)
    return reference, statistics.mean(errors) if errors else math.inf


def check_passes(workload: Workload, passes: Sequence[PassResult],
                 reference: Dict[Tuple, Tuple]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, messages)`` over every timed request.

    A request fails when it raised or was refused, when a result does not
    carry the cache level the workload is built to exercise, when one job
    got two different outcomes, or when an outcome differs from the plain
    pipeline's.
    """
    attempted = failed = 0
    messages: List[str] = []
    seen: Dict[Tuple, Tuple] = {}
    for result in passes:
        attempted += len(result.observed) + len(result.errors)
        failed += len(result.errors)
        messages.extend(result.errors[:3])
        for jobs, replies in result.observed:
            problem: Optional[str] = None
            if len(replies) != len(jobs):
                problem = f"{len(replies)} results for {len(jobs)} jobs"
            for job, (outcome, level) in zip(jobs, replies):
                key = job.signature()
                if level != workload.expected_level:
                    problem = (f"{job.name}: cache level {level!r}, "
                               f"expected {workload.expected_level!r}")
                elif seen.setdefault(key, outcome) != outcome:
                    problem = f"{job.name}: outcome changed between requests"
                elif key in reference and reference[key] != outcome:
                    problem = (f"{job.name}: {outcome} differs from "
                               f"the reference {reference[key]}")
            if problem is not None:
                failed += 1
                if len(messages) < 5:
                    messages.append(problem)
    return attempted, failed, messages


def end_to_end(passes: Sequence[PassResult]) -> Dict[str, float]:
    latencies = [value for result in passes for value in result.latencies]
    trials = sum(result.trials for result in passes)
    # The passes of a cycle differ in cost, so the median pass wall is
    # taken per position in the cycle: one whole cycle is the unit of work.
    cycle_trials = 0
    cycle_wall = 0.0
    for phase in {result.phase for result in passes}:
        members = [result for result in passes if result.phase == phase]
        cycle_trials += members[0].trials
        cycle_wall += statistics.median(result.wall for result in members)
    return {
        "trials_per_s": cycle_trials / cycle_wall,
        "request_latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "request_latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "cpu_s_per_trial": sum(result.cpu for result in passes) / trials,
    }


def trace_metrics(tracer: Tracer, traced: PassResult, untraced: PassResult
                  ) -> Dict[str, float]:
    self_times = tracer.self_times()
    metrics = {f"trace.{layer}.self_ms_per_trial":
               self_times.get(layer, 0.0) / traced.trials * 1e3
               for layer in TRACE_LAYERS}
    metrics["trace.spans"] = len(tracer.spans)
    # Requests are timed by the request loop, spans by the tracer: the two
    # agree when the layers' self times account for the request wall.
    metrics["trace.reconcile_share"] = (sum(self_times.values())
                                        / sum(traced.latencies))
    metrics["trace.overhead_share"] = 1.0 - ((traced.trials / traced.wall)
                                             / (untraced.trials
                                                / untraced.wall))
    stats = traced.cache_stats
    predictions = stats["prediction_hits"] + stats["prediction_misses"]
    lookups = stats["artifact_hits"] + stats["artifact_misses"]
    metrics["cache.prediction_hit_ratio"] = (
        stats["prediction_hits"] / predictions if predictions else 0.0)
    metrics["cache.artifact_hit_ratio"] = (
        stats["artifact_hits"] / lookups if lookups else 0.0)
    metrics["cache.memory_hits"] = stats["memory_hits"]
    metrics["cache.store_hits"] = stats["store_hits"]
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="time.monotonic() when the driver started us")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)

    from repro.core.pipeline import MayaPipeline
    from repro.hardware.cluster import get_cluster

    cluster = get_cluster(inputs.CLUSTER)
    env = Env(seed=args.seed, quick=args.quick, cluster=cluster,
              model=inputs.benchmark_model(), pipeline=None,
              out_dir=args.out_dir, cpus=frozenset(os.sched_getaffinity(0)))
    workload = WORKLOADS[args.workload](env)
    if workload.pinned:
        os.sched_setaffinity(0, {max(env.cpus)})
    passes: List[PassResult] = []
    layer_metrics: Dict[str, float] = {}
    try:
        workload.begin_setup()
        start = time.perf_counter()
        env.pipeline = MayaPipeline(cluster, estimator_mode=inputs.ESTIMATOR)
        _ = env.pipeline.suite  # trains the learned estimators
        train_s = time.perf_counter() - start
        workload.setup()
        setup_s = time.monotonic() - args.spawn_time

        begin = time.perf_counter()
        if args.trace:
            # The same inputs twice, untraced then traced: the difference
            # is what tracing costs.
            passes.append(workload.run_pass(0, args.seconds / 2))
            tracer = Tracer()
            passes.append(workload.run_pass(0, args.seconds / 2, tracer))
            tracer.unwrap_all()
            tracer.write(os.path.join(args.out_dir,
                                      f"trace-{args.workload}.json"))
            layer_metrics = trace_metrics(tracer, passes[1], passes[0])
        else:
            # Whole cycles, until the time is up.
            while (not passes or len(passes) % workload.cycle
                   or time.perf_counter() - begin < args.seconds):
                remaining = args.seconds - (time.perf_counter() - begin)
                passes.append(workload.run_pass(len(passes), remaining))
                passes[-1].phase = (len(passes) - 1) % workload.cycle

        reference, mape = compute_reference(
            env.pipeline, workload.reference_jobs(), args.perturb_reference)
        attempted, failed, messages = check_passes(workload, passes,
                                                   reference)
        if args.trace:
            from bench import probes

            os.sched_setaffinity(0, env.cpus)  # the pool probe forks
            layer_metrics.update(probes.run_all(env))
            layer_metrics["estimators.train_s"] = train_s
    finally:
        workload.teardown()

    if mape >= MAPE_LIMIT_PCT:
        messages.append(f"prediction MAPE {mape:.2f}% is not below "
                        f"{MAPE_LIMIT_PCT}%")
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = end_to_end(passes)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = procstat.peak_rss_mb()
        metrics["prediction_mape_pct"] = mape
    print(json.dumps({
        "correct": failed == 0 and mape < MAPE_LIMIT_PCT,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "messages": messages,
        "samples": sum(len(result.latencies) for result in passes),
        "passes": len(passes),
        "leak_probes": workload.leak_probes(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
