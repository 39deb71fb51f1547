"""Command-line interface for the Maya reproduction.

The CLI exposes the main workflows as subcommands so the system can be used
without writing Python:

``python -m repro clusters``
    List the preset clusters (Section 7.1 testbeds).
``python -m repro models``
    List the transformer and vision model presets.
``python -m repro predict``
    Predict iteration time / memory / MFU of one training recipe, optionally
    comparing against the testbed reference model.
``python -m repro compare``
    Evaluate a pool of candidate recipes with Maya, the baselines and the
    testbed (the Figure 7 / 8 workflow).
``python -m repro search``
    Run Maya-Search over the Table 5 configuration space through the
    prediction service and report artifact-cache and throughput statistics.
``python -m repro serve``
    Keep one warm prediction service alive behind a TCP endpoint and
    multiplex many clients over it (cross-client request coalescing,
    admission control, round-robin fairness).
``python -m repro cache``
    Inspect and maintain a disk-backed artifact store (``--store-dir`` /
    ``$REPRO_STORE_DIR``): report stats, garbage-collect to a size
    budget, or verify entry checksums.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.experiments import candidate_recipes, evaluate_setup
from repro.analysis.metrics import cost_of_run, mfu
from repro.core.pipeline import MayaPipeline
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import PRESET_CLUSTERS, get_cluster
from repro.search import MayaSearch, MayaTrialEvaluator
from repro.search.space import default_search_space
from repro.service.backends import BACKEND_NAMES, validate_timeout
from repro.testbed import Testbed
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import CONVNET_PRESETS, TRANSFORMER_PRESETS, get_transformer


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def _add_recipe_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tensor-parallel", "-tp", type=int, default=1)
    parser.add_argument("--pipeline-parallel", "-pp", type=int, default=1)
    parser.add_argument("--microbatch-multiplier", "-mb", type=int, default=1)
    parser.add_argument("--virtual-stages", type=int, default=1)
    parser.add_argument("--activation-recomputation", action="store_true")
    parser.add_argument("--sequence-parallelism", action="store_true")
    parser.add_argument("--distributed-optimizer", action="store_true")
    parser.add_argument("--zero-stage", type=int, default=0, choices=(0, 1, 2, 3))


def _sync_timeout_arg(raw: str) -> float:
    try:
        return validate_timeout("--sync-timeout", raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _lease_timeout_arg(raw: str) -> float:
    try:
        return validate_timeout("--lease-timeout", raw, allow_zero=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="serial",
                        choices=BACKEND_NAMES,
                        help="batch-evaluation backend: serial (reference, "
                             "default) or a long-lived persistent fork pool "
                             "synced by incremental cache deltas (fork cost "
                             "is paid once, not per batch)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker count for the persistent backend "
                             "(default: search uses the search's trial "
                             "concurrency capped at the CPU count, "
                             "compare/serve use 1)")
    parser.add_argument("--sync-timeout", type=_sync_timeout_arg,
                        default=None, metavar="SECONDS",
                        help="seconds a persistent-pool worker "
                             "gets to ack a cache sync before it is "
                             "discarded (> 0; default 60, or "
                             "$REPRO_SYNC_TIMEOUT)")
    parser.add_argument("--lease-timeout", type=_lease_timeout_arg,
                        default=None, metavar="SECONDS",
                        help="job lease for the persistent pool: a job "
                             "unanswered this long is speculatively "
                             "re-dispatched to another live worker, so a "
                             "straggler costs one job's latency, not the "
                             "batch (>= 0; 0 disables re-dispatch; default "
                             "30, or $REPRO_LEASE_TIMEOUT)")
    _add_store_argument(parser)


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store-dir", default=os.environ.get(
                            "REPRO_STORE_DIR") or None,
                        metavar="DIR",
                        help="disk-backed artifact store shared across "
                             "processes: cache misses fall through to it "
                             "and fresh artifacts persist into it, so a "
                             "second run warm-starts from disk (defaults "
                             "to $REPRO_STORE_DIR; unset = memory-only)")


def _add_server_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--server", default=None, metavar="HOST:PORT",
                        help="evaluate through a running `repro serve` "
                             "endpoint instead of a local service "
                             "(--backend/--jobs then apply "
                             "to the server process, not this one)")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dtype", default=None,
                        help="bfloat16 / float16 (defaults per architecture)")
    parser.add_argument("--cluster", default="v100-8",
                        help=f"one of {sorted(PRESET_CLUSTERS)}")
    parser.add_argument("--model", default="gpt3-2.7b",
                        help="transformer preset name (see `repro models`)")
    parser.add_argument("--global-batch-size", "-b", type=int, default=256)
    parser.add_argument("--estimator", default="learned",
                        choices=("learned", "analytical", "oracle"),
                        help="kernel runtime estimator family")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maya reproduction: GPU-free performance prediction for "
                    "distributed deep-learning training.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("clusters", help="list preset clusters")
    subparsers.add_parser("models", help="list model presets")

    predict = subparsers.add_parser("predict",
                                    help="predict one training recipe")
    _add_common_arguments(predict)
    _add_recipe_arguments(predict)
    predict.add_argument("--with-testbed", action="store_true",
                         help="also run the testbed reference model")

    compare = subparsers.add_parser(
        "compare", help="compare Maya and the baselines over candidate recipes")
    _add_common_arguments(compare)
    _add_backend_arguments(compare)
    compare.add_argument("--configs", type=int, default=8,
                         help="number of candidate recipes to evaluate")
    compare.add_argument("--seed", type=int, default=0)

    search = subparsers.add_parser("search", help="run Maya-Search")
    _add_common_arguments(search)
    _add_backend_arguments(search)
    _add_server_argument(search)
    search.add_argument("--algorithm", default="cma",
                        choices=("cma", "oneplusone", "pso", "twopointsde",
                                 "random", "grid"))
    search.add_argument("--budget", type=int, default=200)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--no-pruning", action="store_true",
                        help="disable fidelity-preserving trial pruning")

    serve = subparsers.add_parser(
        "serve",
        help="keep one warm prediction service alive behind a TCP endpoint "
             "and multiplex many clients over it (connect with --server)")
    serve.add_argument("--cluster", default="v100-8",
                       help=f"one of {sorted(PRESET_CLUSTERS)}")
    serve.add_argument("--estimator", default="learned",
                       choices=("learned", "analytical", "oracle"),
                       help="kernel runtime estimator family")
    _add_backend_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: localhost; the "
                            "wire protocol is unauthenticated pickle -- "
                            "bind non-loopback interfaces only on trusted "
                            "networks)")
    serve.add_argument("--port", type=int, default=0,
                       help="port to listen on (0 picks an ephemeral port, "
                            "printed on stdout)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission control: predict requests queued "
                            "beyond this bound get a structured busy reply "
                            "instead of buffering unboundedly")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="artifact/prediction cache capacity per level")

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain a disk-backed artifact store: report "
             "stats, garbage-collect to a size budget, or verify entry "
             "checksums")
    cache.add_argument("action", choices=("stats", "gc", "verify"),
                       help="stats: entry count / bytes / op counters; "
                            "gc: sweep orphaned temp files and evict "
                            "least-recently-used entries over the size "
                            "budget; verify: re-checksum every entry")
    _add_store_argument(cache)
    cache.add_argument("--budget", type=int, default=None, metavar="BYTES",
                       help="gc: evict LRU entries until the store fits "
                            "this many bytes (default: the store's "
                            "configured budget)")
    cache.add_argument("--quarantine", action="store_true",
                       help="verify: rename corrupt entries to *.corrupt "
                            "so scans and lookups stop touching them")
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of text")
    return parser


def _default_dtype(cluster_name: str, dtype: Optional[str]) -> str:
    if dtype:
        return dtype
    cluster = get_cluster(cluster_name)
    return "float16" if cluster.gpu.architecture == "volta" else "bfloat16"


def _recipe_from_args(args: argparse.Namespace) -> TrainingRecipe:
    return TrainingRecipe(
        tensor_parallel=args.tensor_parallel,
        pipeline_parallel=args.pipeline_parallel,
        microbatch_multiplier=args.microbatch_multiplier,
        virtual_stages=args.virtual_stages,
        activation_recomputation=args.activation_recomputation,
        sequence_parallelism=args.sequence_parallelism,
        distributed_optimizer=args.distributed_optimizer,
        zero_stage=args.zero_stage,
        dtype=_default_dtype(args.cluster, args.dtype),
    )


def _emit(payload: dict, as_json: bool, lines: List[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for line in lines:
            print(line)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_clusters(_: argparse.Namespace) -> int:
    for name, cluster in sorted(PRESET_CLUSTERS.items()):
        print(f"{name:<10} {cluster.world_size:>4}x {cluster.gpu.name:<5} "
              f"{cluster.gpu.memory_gb:.0f} GB  "
              f"{cluster.interconnect.intra_node.name} / "
              f"{cluster.interconnect.inter_node.name}  "
              f"${cluster.hourly_cost:,.0f}/h")
    return 0


def cmd_models(_: argparse.Namespace) -> int:
    print("transformers:")
    for name, model in sorted(TRANSFORMER_PRESETS.items()):
        print(f"  {name:<14} layers={model.num_layers:<3} "
              f"hidden={model.hidden_size:<6} heads={model.num_heads:<3} "
              f"params={model.total_params / 1e9:6.2f}B")
    print("convnets:")
    for name, spec in sorted(CONVNET_PRESETS.items()):
        print(f"  {name:<14} conv layers={spec.num_conv_layers:<4} "
              f"params={spec.total_params / 1e6:7.1f}M")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cluster = get_cluster(args.cluster)
    model = get_transformer(args.model)
    recipe = _recipe_from_args(args)
    job = TransformerTrainingJob(model, recipe, cluster,
                                 global_batch_size=args.global_batch_size)
    problems = job.validate()
    if problems:
        print("invalid configuration: " + "; ".join(problems), file=sys.stderr)
        return 2

    pipeline = MayaPipeline(cluster, estimator_mode=args.estimator)
    prediction = pipeline.predict(job)
    payload = {
        "cluster": cluster.name,
        "model": model.name,
        "recipe": recipe.to_dict(),
        "oom": prediction.oom,
        "iteration_time_s": prediction.iteration_time,
        "communication_time_s": prediction.communication_time,
        "peak_memory_gb": prediction.peak_memory_gb,
        "mfu": mfu(prediction.iteration_time, job.flops_per_iteration(),
                   cluster, dtype=recipe.dtype),
        "cost_per_iteration_usd": cost_of_run(prediction.iteration_time,
                                              cluster),
        "stage_times_s": prediction.stage_times,
    }
    lines = [
        f"recipe {recipe.short_name()} on {cluster.name} ({model.name})",
        ("OUT OF MEMORY" if prediction.oom else
         f"iteration time:     {prediction.iteration_time:.3f} s"),
        f"communication time: {prediction.communication_time:.3f} s",
        f"peak memory:        {prediction.peak_memory_gb:.1f} GB",
        f"MFU:                {payload['mfu'] * 100:.1f}%",
        f"cost / iteration:   ${payload['cost_per_iteration_usd']:.2f}",
    ]
    if args.with_testbed and not prediction.oom:
        actual = Testbed(cluster).measure(job)
        payload["testbed_iteration_time_s"] = actual.iteration_time
        error = abs(prediction.iteration_time - actual.iteration_time) \
            / actual.iteration_time * 100.0
        payload["prediction_error_pct"] = error
        lines.append(f"testbed reference:  {actual.iteration_time:.3f} s "
                     f"(error {error:.1f}%)")
    _emit(payload, args.json, lines)
    return 1 if prediction.oom else 0


def cmd_compare(args: argparse.Namespace) -> int:
    cluster = get_cluster(args.cluster)
    model = get_transformer(args.model)
    recipes = candidate_recipes(model, cluster, args.global_batch_size,
                                limit=args.configs, seed=args.seed,
                                dtype=_default_dtype(args.cluster, args.dtype)
                                if args.dtype else None)
    setup = evaluate_setup("cli", model, cluster, args.global_batch_size,
                           recipes, estimator_mode=args.estimator,
                           backend=args.backend, jobs=args.jobs,
                           sync_timeout=args.sync_timeout,
                           lease_timeout=args.lease_timeout,
                           store_dir=args.store_dir)
    rows = []
    for evaluation in sorted(setup.feasible(), key=lambda ev: ev.actual_time):
        rows.append({
            "recipe": evaluation.recipe.short_name(),
            "actual_s": evaluation.actual_time,
            "maya_s": evaluation.maya.iteration_time,
            "maya_error_pct": evaluation.maya_error,
            "baselines_s": evaluation.baselines,
        })
    payload = {
        "cluster": cluster.name, "model": model.name,
        "rows": rows,
        "selection_cost": {system: setup.selection_cost(system)
                           for system in ("maya", "Proteus", "Calculon",
                                          "AMPeD")},
    }
    lines = [f"{'recipe':<30}{'actual':>9}{'maya':>9}{'err%':>7}"]
    for row in rows:
        lines.append(f"{row['recipe']:<30}{row['actual_s']:9.2f}"
                     f"{row['maya_s']:9.2f}{row['maya_error_pct']:7.1f}")
    for system, cost in payload["selection_cost"].items():
        label = "n/a" if math.isinf(cost) else f"{(cost - 1) * 100:+.1f}%"
        lines.append(f"{system} pick vs optimal: {label}")
    _emit(payload, args.json, lines)
    return 0 if rows else 1


def _run_search(args: argparse.Namespace, evaluator, cluster, model):
    """Build and run a MayaSearch from shared CLI arguments."""
    dtype = _default_dtype(args.cluster, args.dtype)
    search = MayaSearch(
        evaluator,
        space=default_search_space(dtype=dtype),
        algorithm=args.algorithm,
        world_size=cluster.world_size,
        global_batch_size=args.global_batch_size,
        num_layers=model.num_layers,
        num_heads=model.num_heads,
        gpus_per_node=cluster.gpus_per_node,
        enable_pruning=not args.no_pruning,
        seed=args.seed,
    )
    return search.run(budget=args.budget)


def cmd_search(args: argparse.Namespace) -> int:
    cluster = get_cluster(args.cluster)
    model = get_transformer(args.model)
    with MayaTrialEvaluator(model, cluster, args.global_batch_size,
                            estimator_mode=args.estimator,
                            max_workers=args.jobs,
                            backend=None if args.server else args.backend,
                            sync_timeout=args.sync_timeout,
                            lease_timeout=args.lease_timeout,
                            store_dir=args.store_dir,
                            server=args.server) as evaluator:
        result = _run_search(args, evaluator, cluster, model)
        stats = result.cache_stats
        throughput = evaluator.throughput_stats()
    payload = {
        "cluster": cluster.name,
        "model": model.name,
        "backend": evaluator.service.backend,
        "jobs": evaluator.service.max_workers,
        "samples_used": result.samples_used,
        "unique_valid_configs": result.unique_valid_configs,
        "status_counts": result.status_counts,
        "cache_stats": stats,
        "throughput": throughput,
        "best": (None if result.best is None else {
            "recipe": result.best.recipe.to_dict(),
            "iteration_time_s": result.best.iteration_time,
            "mfu": result.best.mfu,
        }),
        "wall_time_s": result.total_wall_time,
        "measured_makespan_s": result.measured_makespan,
        "evaluation_batches": result.evaluation_batches,
    }
    lines = [
        f"search finished in {result.total_wall_time:.1f}s "
        f"({result.samples_used} samples, "
        f"{result.unique_valid_configs} unique valid configs)",
        f"trial statuses: {result.status_counts}",
        (f"artifact cache: {stats.get('hits', 0):.0f}/"
         f"{stats.get('lookups', 0):.0f} hits "
         f"({stats.get('hit_rate', 0.0) * 100:.1f}%): "
         f"{stats.get('prediction_hits', 0):.0f} full predictions reused, "
         f"{stats.get('artifact_hits', 0):.0f} emulations skipped "
         f"({stats.get('memory_hits', 0):.0f} memory tier, "
         f"{stats.get('store_hits', 0):.0f} store tier)"
         if stats else "artifact cache: disabled"),
        f"throughput: {throughput['trials']} trials in "
        f"{throughput['batch_wall_s']:.1f}s "
        f"({throughput['trials_per_sec']:.1f} trials/s) on backend "
        f"{evaluator.service.backend} (jobs={evaluator.service.max_workers}); "
        f"{throughput['simulated_events']:,} simulated events at "
        f"{throughput['events_per_sec']:,.0f} events/s",
    ]
    if result.best is not None:
        lines.append(f"best recipe: {result.best.recipe.short_name()} "
                     f"({result.best.iteration_time:.2f} s/iter, "
                     f"MFU {result.best.mfu * 100:.1f}%)")
    _emit(payload, args.json, lines)
    return 0 if result.best is not None else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ArtifactCache, PredictionService
    from repro.service.server import serve

    cluster = get_cluster(args.cluster)
    service = PredictionService(
        cluster=cluster,
        estimator_mode=args.estimator,
        cache=ArtifactCache(max_entries=args.cache_entries),
        max_workers=args.jobs or 1,
        backend=args.backend,
        sync_timeout=args.sync_timeout,
        lease_timeout=args.lease_timeout,
        store_dir=args.store_dir,
    )
    serve(service, host=args.host, port=args.port,
          max_pending=args.max_pending)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.service.store import ArtifactStore, StoreError

    if not args.store_dir:
        print("error: cache requires --store-dir (or $REPRO_STORE_DIR)",
              file=sys.stderr)
        return 2
    try:
        store = ArtifactStore(args.store_dir, create=False)
        if args.action == "stats":
            payload = store.stats()
            counters = payload["counters"]
            lines = [
                f"store {payload['store_dir']} "
                f"(format {payload['store_format']})",
                f"entries:     {payload['entries']} "
                f"({payload['total_bytes']:,} bytes, budget "
                f"{payload['size_budget_bytes']:,})",
                f"this process: {counters['hits']} hits, "
                f"{counters['misses']} misses, {counters['puts']} puts, "
                f"{counters['corrupt']} corrupt",
            ]
            _emit(payload, args.json, lines)
            return 0
        if args.action == "gc":
            payload = store.gc(size_budget=args.budget)
            _emit(payload, args.json, [
                f"removed {payload['removed']} files "
                f"({payload['freed_bytes']:,} bytes freed, "
                f"{payload['remaining_bytes']:,} bytes remain)",
            ])
            return 0
        payload = store.verify(quarantine=args.quarantine)
        lines = [f"checked {payload['checked']} entries: "
                 f"{len(payload['corrupt'])} corrupt, "
                 f"{len(payload['quarantined'])} quarantined"]
        lines.extend(f"  corrupt: {name}" for name in payload["corrupt"])
        _emit(payload, args.json, lines)
        return 1 if payload["corrupt"] else 0
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_COMMANDS = {
    "clusters": cmd_clusters,
    "models": cmd_models,
    "predict": cmd_predict,
    "compare": cmd_compare,
    "search": cmd_search,
    "serve": cmd_serve,
    "cache": cmd_cache,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
