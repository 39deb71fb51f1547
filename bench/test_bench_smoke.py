"""Smoke test of the benchmark itself (``python -m pytest bench -q``).

Not part of tier-1: it spawns eight workload children (~2 minutes).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_emits_every_declared_metric():
    done = subprocess.run(RUN + ["--quick", "--trace"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads((ROOT / "bench" / "out" / "result-quick-seed0.json")
                        .read_text(encoding="utf-8"))
    spec = _spec()
    assert list(record["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in record["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        for key in ("end_to_end", "per_layer"):
            assert list(entry[key]) == [m["name"] for m in spec[key]], name
        assert all(value != 0 for value in entry["end_to_end"].values())
    assert set(record["host"]) == {"nproc", "python", "numpy", "platform"}


def test_perturbed_reference_fails_the_correctness_check():
    done = subprocess.run(
        RUN + ["--workload", "cold_sweep", "--quick", "--perturb-reference"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] >= 1
