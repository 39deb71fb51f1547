"""Byte pins of the recorded trace and of its shipped payload.

``goldens/trace_goldens.json`` holds, for a fixed stratified set of
``gpt3-345m-l4`` and ``gpt-tiny`` jobs, the sha256 of
``JobTrace.to_json()``, the sha256 of the columnar artifact payload
(``wire.dumps_columnar``, the bytes the disk store writes and pooled
workers ship), the rank -> representative map and the predicted
``iteration_time`` as ``float.hex``.  They were recorded before the
emulator started writing columns directly, and hold every later change
of the recorder to the same JSON export, the same deduplication and the
same prediction.  The payload pin holds the wire format: it moves only
together with a ``wire.PROTOCOL`` bump (which also retires existing
store directories), and then only the ``columnar_sha256`` values are
regenerated.  Like the engine goldens, the file is never regenerated to
make a failing test pass.  The ``gpt-tiny``
``iteration_time`` pins are the per-event oracle's
(``tests/reference_engine.py``), and :func:`test_oracle_reproduces_pin`
recomputes them from it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import candidate_recipes
from repro.core.pipeline import (
    MayaPipeline,
    _iteration_time_from_report,
    simulation_ranks,
)
from repro.core.simulator.engine import SimulationConfig
from repro.cuda import nccl
from repro.hardware.cluster import get_cluster
from repro.service import wire
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer

from reference_engine import reference_simulate

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "trace_goldens.json").read_text())

#: (model, global batch, iterations, jobs): gpt-tiny runs six iterations
#: so that its predictions replay several windows on one carried-over
#: clock, with the default host model's per-call jitter in every window.
_SETUPS = (("gpt3-345m-l4", 64, 1, 12), ("gpt-tiny", 16, 6, 12))


def _model(name):
    if name == "gpt3-345m-l4":
        return dataclasses.replace(get_transformer("gpt3-345m"),
                                   num_layers=4, name=name)
    return get_transformer(name)


@functools.lru_cache(maxsize=None)
def _jobs():
    """``name -> job``: one recipe from each of ``count`` evenly spaced
    (tp, pp, microbatch multiplier) cells, the variant rotating by cell."""
    cluster = get_cluster("v100-8")
    jobs = {}
    for model_name, batch, iterations, count in _SETUPS:
        model = _model(model_name)
        cells = {}
        for recipe in candidate_recipes(model, cluster, batch):
            key = (recipe.tensor_parallel, recipe.pipeline_parallel,
                   recipe.microbatch_multiplier)
            cells.setdefault(key, []).append(recipe)
        order = sorted(cells)
        for index in range(count):
            cell = order[(index * len(order)) // count]
            variants = sorted(cells[cell], key=lambda r: r.short_name())
            recipe = variants[index % len(variants)]
            jobs[f"{model_name}/{recipe.short_name()}"] = \
                TransformerTrainingJob(model, recipe, cluster,
                                       global_batch_size=batch,
                                       iterations=iterations)
    return jobs


@functools.lru_cache(maxsize=None)
def _pipeline():
    return MayaPipeline(get_cluster("v100-8"), estimator_mode="analytical")


def _sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def snapshot(job):
    """The pinned view of one job's emulation, collation and prediction."""
    pipeline = _pipeline()
    artifacts = pipeline.emulate(job)
    # Stage times are wall clocks; everything else in the payload is data.
    payload = wire.dumps_columnar(dataclasses.replace(
        artifacts, job=None, cluster=None, stage_times={}))
    pinned = {
        "to_json_sha256": _sha256(artifacts.job_trace.to_json()),
        "columnar_sha256": _sha256(payload),
        "representative": {str(rank): rep for rank, rep
                           in sorted(artifacts.collated.representative.items())},
    }
    result = pipeline.predict(job, artifacts)
    pinned["iteration_time"] = result.iteration_time.hex()
    return pinned


def test_job_set_is_the_pinned_one():
    assert sorted(_jobs()) == sorted(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_trace_matches_golden(name, monkeypatch):
    # Communicator ids come from a process-wide counter: start every job
    # from the same id so the pins do not depend on what ran before.
    monkeypatch.setattr(nccl, "_unique_id_counter", itertools.count(1))
    assert snapshot(_jobs()[name]) == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(name for name in GOLDENS
                                        if name.startswith("gpt-tiny/")))
def test_oracle_reproduces_pin(name, monkeypatch):
    # The multi-iteration pins come from the per-event oracle, not from
    # the engine they check.
    monkeypatch.setattr(nccl, "_unique_id_counter", itertools.count(1))
    job = _jobs()[name]
    pipeline = _pipeline()
    report = reference_simulate(
        pipeline.cluster, pipeline.make_provider(),
        pipeline.emulate(job).collated,
        SimulationConfig(simulate_ranks=simulation_ranks(job)),
        iterations=job.iterations)
    assert (_iteration_time_from_report(report, job.iterations).hex()
            == GOLDENS[name]["iteration_time"])
