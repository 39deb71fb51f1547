"""Scheduler-policy conformance harness.

Placement must never change what a batch computes.  Every registered
:class:`~repro.service.SchedulerPolicy` (``round_robin`` /
``locality``), run under every pooled backend
(``persistent`` / ``socket``), must reproduce the serial reference
byte-for-byte -- identical results AND identical cache accounting over
the standard two-batch conformance workload -- and must keep doing so
while a seeded fault plan kills a worker mid-batch.  This module writes
that contract down once; ``tests/test_scheduler_conformance.py``
parametrizes it over the full policy x backend matrix.

``REPRO_CONFORMANCE_SCHEDULERS`` (comma-separated) restricts which
policies the parametrized tests cover, mirroring
``REPRO_CONFORMANCE_BACKENDS`` -- CI's ``scheduler`` job uses both to
run the dedicated matrix leg.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from backend_conformance import (
    ConformanceRun,
    conformance_backends,
    run_conformance,
)
from repro.framework.recipe import TrainingRecipe
from repro.service import SCHEDULER_NAMES, PredictionService

#: Counters every pooled backend must mirror from its policy into
#: ``sync_stats`` (and thereby into the server stats payload).
PLACEMENT_COUNTER_KEYS = ("placements", "locality_hits",
                          "ship_bytes_avoided")

#: The backends whose placement is actually policy-driven.  ``serial`` /
#: ``thread`` have no persistent pool to place onto.
POOLED_BACKENDS = ("persistent", "socket")


def conformance_schedulers() -> Sequence[str]:
    """Scheduler policies the parametrized conformance tests cover.

    All registered policies by default; ``REPRO_CONFORMANCE_SCHEDULERS``
    narrows the set (unknown names are rejected so a typo cannot
    silently skip the suite).
    """
    selected = os.environ.get("REPRO_CONFORMANCE_SCHEDULERS")
    if not selected:
        return SCHEDULER_NAMES
    names = tuple(name.strip() for name in selected.split(",") if name.strip())
    unknown = [name for name in names if name not in SCHEDULER_NAMES]
    if unknown:
        raise ValueError(f"REPRO_CONFORMANCE_SCHEDULERS names unknown "
                         f"policies {unknown}; expected {SCHEDULER_NAMES}")
    return names


def scheduler_backends() -> Sequence[str]:
    """Pooled backends in the covered set (honours the backend filter)."""
    covered = conformance_backends()
    return tuple(name for name in POOLED_BACKENDS if name in covered)


def run_scheduler_conformance(
    model, cluster, backend: str, scheduler: str, workers: int = 2,
    batches: Optional[Sequence[Sequence[TrainingRecipe]]] = None,
    worker_hosts: Optional[Sequence[str]] = None,
    **service_kwargs,
) -> ConformanceRun:
    """Run the conformance workload under one policy and close the pool."""
    service = PredictionService(cluster=cluster, estimator_mode="analytical",
                                backend=backend, max_workers=workers,
                                workers=(list(worker_hosts)
                                         if worker_hosts else None),
                                scheduler=scheduler, **service_kwargs)
    return run_conformance(model, cluster, backend, workers=workers,
                           batches=batches, service=service)


def assert_placement_counters(run: ConformanceRun, scheduler: str) -> None:
    """Every pooled run surfaces the placement counters through sync_stats."""
    for key in PLACEMENT_COUNTER_KEYS:
        assert key in run.sync_stats, \
            f"{run.backend}/{scheduler}: sync_stats missing {key!r} " \
            f"({run.sync_stats})"
    cold = sum(1 for result in run.flat_results
               if result.metadata.get("service_cache") == "miss")
    assert run.sync_stats["placements"] >= cold, \
        f"{run.backend}/{scheduler}: placements counter did not cover " \
        f"the {cold} dispatched cold jobs ({run.sync_stats})"
