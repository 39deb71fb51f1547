"""Absolute pins for the replay engine.

``goldens/engine_reports.json`` holds ``float.hex()`` of every clock,
counter and marker timestamp of a fixed set of simulations, recorded from
the per-event replay loop before it left ``src/`` (it lives on as
``tests/reference_engine.py``).  The differential suites only show that
the engine and that oracle agree with *each other*; these pins are what
stops the two drifting together.  The file is never regenerated to make a
failing test pass: a changed number here is a changed prediction.
"""

from __future__ import annotations

import functools
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.collator import TraceCollator
from repro.core.pipeline import MayaPipeline, simulation_ranks
from repro.core.simulator.engine import ClusterSimulator, SimulationConfig
from repro.core.simulator.providers import GroundTruthDurationProvider
from repro.core.simulator.report import RankReport
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer

from reference_engine import reference_simulate
from test_simulator import (
    ConstantProvider,
    build_random_job,
    build_random_periodic_job,
    jitterize_host_delays,
)

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "engine_reports.json").read_text())

_RANK_FIELDS = [f.name for f in fields(RankReport) if f.name != "rank"]


def snapshot(report):
    """The pinned view of a report: exact floats as hex, counters as ints."""
    def pin(value):
        return value.hex() if isinstance(value, float) else value
    return {
        "total_time": report.total_time.hex(),
        "ranks": {str(rank): {name: pin(getattr(rank_report, name))
                              for name in _RANK_FIELDS}
                  for rank, rank_report in sorted(report.rank_reports.items())},
        "markers": {label: {str(rank): stamp.hex()
                            for rank, stamp in sorted(stamps.items())}
                    for label, stamps in sorted(report.markers.items())},
    }


@functools.lru_cache(maxsize=None)
def _gpt_tiny():
    """The tp2 x pp2 ``gpt-tiny`` trace of ``TestFastPathEquivalence``."""
    cluster = get_cluster("v100-8")
    recipe = TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                            microbatch_multiplier=2, dtype="float16")
    job = TransformerTrainingJob(get_transformer("gpt-tiny"), recipe, cluster,
                                 global_batch_size=16, iterations=2)
    pipeline = MayaPipeline(cluster, estimator_mode="analytical")
    return (cluster, pipeline, pipeline.emulate(job).collated,
            simulation_ranks(job))


def build_case(name):
    """``(cluster, provider, collated, config kwargs, iterations)``."""
    kind, _, rest = name.partition("-")
    cluster = get_cluster("v100-8")
    if kind == "gpt":
        cluster, pipeline, collated, ranks = _gpt_tiny()
        if rest == "tiny-estimated":
            return (cluster, pipeline.make_provider(), collated,
                    {"simulate_ranks": ranks}, 2)
        return (cluster, GroundTruthDurationProvider(cluster), collated,
                {"simulate_ranks": ranks, "sm_contention_factor": 1.045}, 2)
    collate = TraceCollator(deduplicate=False).collate
    if kind == "random":
        return (cluster, ConstantProvider(),
                collate(build_random_job(int(rest))), {}, 1)
    if kind == "jittered":
        seed = int(rest)
        job = jitterize_host_delays(build_random_job(seed, steps=60), seed)
        return cluster, ConstantProvider(), collate(job), {}, 1
    # ``periodic-<seed>-fold`` and ``-full`` were pinned under two replay
    # modes the engine no longer has; their pins are equal, and both
    # names now replay the same trace the one way.
    seed = int(rest.partition("-")[0])
    job = build_random_periodic_job(seed, iterations=8)
    return cluster, ConstantProvider(), collate(job), {}, 8


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_engine_matches_golden(name):
    cluster, provider, collated, config, iterations = build_case(name)
    report = ClusterSimulator(cluster, provider,
                              SimulationConfig(**config)).simulate(
                                  collated, iterations=iterations)
    if name == "gpt-tiny-estimated":
        # The pins, recorded before mirroring, hold the mirrored path: the
        # two stage leaders replay and their tensor-parallel peers copy.
        assert report.metadata["replayed_ranks"] == 2
        assert report.metadata["simulated_ranks"] == 4
    assert snapshot(report) == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_oracle_matches_golden(name):
    cluster, provider, collated, config, iterations = build_case(name)
    report = reference_simulate(cluster, provider, collated,
                                SimulationConfig(**config),
                                iterations=iterations)
    assert snapshot(report) == GOLDENS[name]
