"""The repository benchmark driver.

One workload, as the benchmark contract runs it (the last line of standard
output is the result object)::

    python3 bench/run.py --workload cold_sweep --seed 0 --seconds 10 --trace 0

Every workload one after another, each in a fresh child interpreter, with
every end-to-end and per-layer metric printed by name and unit::

    python3 bench/run.py [--seed S] [--trace] [--quick] [--check-repeat]

``BENCHMARK.json`` at the repository root is the single list of workloads,
metrics, units and bounds; see ``bench/README.md`` for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The script directory would shadow the standard library's ``trace``.
sys.path[0] = str(ROOT)

from bench import procstat  # noqa: E402  (needs the path fix above)

SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
HISTORY = BENCH_DIR / "history.jsonl"
CHILD_TIMEOUT_S = 170


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def fingerprint() -> Dict[str, object]:
    """Where the numbers were taken; rows are comparable only when equal."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def check_leaks(session: int, result: Optional[Dict[str, object]]
                ) -> List[str]:
    """Processes, listening sockets and scratch directories a workload
    child left behind (all of them a defect of the program or of us)."""
    leaks: List[str] = []
    survivors = procstat.session_members(session)
    if survivors:
        leaks.append(f"processes outlived the workload child: {survivors}")
        for pid, _ in survivors:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
    for address in (result or {}).get("leak_probes", ()):
        host, _, port = address.rpartition(":")
        try:
            socket.create_connection((host, int(port)), timeout=1).close()
        except OSError:
            continue
        leaks.append(f"{address} still accepts connections")
    leftovers = sorted(path.name for path in OUT_DIR.glob("tmp-*"))
    if leftovers:
        leaks.append(f"scratch directories left in {OUT_DIR}: {leftovers}")
    return leaks


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool = False, perturb: bool = False
              ) -> Dict[str, object]:
    """Run one workload in a fresh interpreter and return its result."""
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out-dir", str(OUT_DIR),
               "--spawn-time", repr(time.monotonic())]
    if quick:
        command.append("--quick")
    if perturb:
        command.append("--perturb-reference")
    # Its own session, so that everything it starts can be found (and
    # must be gone) when it exits.
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        stdout = ""
    result: Optional[Dict[str, object]] = None
    lines = stdout.strip().splitlines()
    if child.returncode == 0 and lines:
        result = json.loads(lines[-1])
    leaks = check_leaks(child.pid, result)
    if result is None:
        raise SystemExit(f"workload {workload} did not finish "
                         f"(exit code {child.returncode})")
    if leaks:
        raise SystemExit(f"workload {workload} leaked: " + "; ".join(leaks))
    return result


def check_declared(spec: Dict[str, object], result: Dict[str, object],
                   trace: int) -> Dict[str, Dict[str, object]]:
    """The result's metrics in declared order, with their units; refuses a
    result that lacks a declared metric or reports an undeclared one."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    measured = result["metrics"]
    if set(names) != set(measured):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(measured))}, undeclared "
            f"{sorted(set(measured) - set(names))}")
    return {metric["name"]: {"value": measured[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


def print_metrics(workload: str, result: Dict[str, object],
                  metrics: Dict[str, Dict[str, object]]) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"== {workload}: {result['attempted']} requests attempted, "
          f"{result['failed']} failed ({verdict}); {result['samples']} "
          f"latency samples over {result['passes']} passes")
    for message in result["messages"]:
        print(f"   ! {message}")
    for name, metric in metrics.items():
        print(f"   {name:44s} {metric['value']:>16.6g} {metric['unit']}")


def contract_line(result: Dict[str, object],
                  metrics: Dict[str, Dict[str, object]]) -> str:
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_all(spec: Dict[str, object], args) -> Dict[str, object]:
    """Every workload, untraced and (with ``--trace``) traced."""
    seconds = 0.0 if args.quick else float(spec["run_seconds"])
    record: Dict[str, object] = {
        "unix_time": time.time(), "seed": args.seed, "quick": args.quick,
        "host": fingerprint(), "workloads": {}}
    for workload in (item["name"] for item in spec["workloads"]):
        entry: Dict[str, object] = {}
        for trace in ((0, 1) if args.trace else (0,)):
            result = run_child(workload, args.seed, seconds, trace,
                               quick=args.quick,
                               perturb=args.perturb_reference)
            metrics = check_declared(spec, result, trace)
            print_metrics(workload, result, metrics)
            entry["per_layer" if trace else "end_to_end"] = {
                name: metric["value"] for name, metric in metrics.items()}
            entry.setdefault("attempted", result["attempted"])
            entry["failed"] = entry.get("failed", 0) + result["failed"]
            entry["correct"] = (entry.get("correct", True)
                                and result["correct"])
        record["workloads"][workload] = entry
    return record


def check_repeat(spec: Dict[str, object], first: Dict[str, object],
                 second: Dict[str, object]) -> bool:
    """Print both runs side by side; false when any pair disagrees by more
    than the metric's bound."""
    agree = True
    print(f"{'workload':16s} {'metric':26s} {'first':>14s} {'second':>14s} "
          f"{'rel.diff':>9s} {'bound':>6s}")
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            one, two = entry["end_to_end"][name], other[name]
            difference = abs(two - one) / abs(one)
            within = difference <= metric["bound"]
            agree = agree and within
            print(f"{workload:16s} {name:26s} {one:14.6g} {two:14.6g} "
                  f"{difference:9.4f} {metric['bound']:6.2f}"
                  f"{'' if within else '  BEYOND BOUND'}")
    return agree


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run this workload only and end "
                        "with the contract's result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one pass: a smoke run, not a "
                             "measurement")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run everything twice and compare the runs "
                             "with each metric's bound")
    parser.add_argument("--perturb-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"bench/run.py: {SRC / 'repro'} is missing; the benchmark "
              f"measures the program in src/ and cannot run without it",
              file=sys.stderr)
        return 2
    spec = load_spec()

    if args.workload is not None:
        names = [item["name"] for item in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"BENCHMARK.json declares {names}")
        seconds = (args.seconds if args.seconds is not None
                   else 0.0 if args.quick else float(spec["run_seconds"]))
        result = run_child(args.workload, args.seed, seconds, args.trace,
                           quick=args.quick, perturb=args.perturb_reference)
        metrics = check_declared(spec, result, args.trace)
        print_metrics(args.workload, result, metrics)
        print(contract_line(result, metrics))
        return 0

    record = run_all(spec, args)
    correct = all(entry["correct"] for entry in record["workloads"].values())
    if args.check_repeat:
        correct = check_repeat(spec, record, run_all(spec, args)) and correct
    OUT_DIR.mkdir(exist_ok=True)
    output = OUT_DIR / (f"result-{'quick-' if args.quick else ''}"
                        f"seed{args.seed}.json")
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"result written to {output.relative_to(ROOT)}")
    if not args.quick:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
