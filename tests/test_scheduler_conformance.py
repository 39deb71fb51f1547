"""Scheduler x backend conformance matrix.

Runs the two-batch conformance workload through every covered placement
policy under every covered pooled backend and asserts the full contract
(byte-identical results, serial-exact cache accounting, placement
counters surfaced) -- both on a clean pool and while a seeded fault plan
kills worker 0 mid-batch.  ``REPRO_CONFORMANCE_SCHEDULERS`` and
``REPRO_CONFORMANCE_BACKENDS`` narrow the matrix; CI's ``scheduler`` job
runs the full one.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from backend_conformance import assert_conformant, run_conformance
from repro.service import (
    FaultPlan,
    FaultRule,
    install_fault_plan,
)
from repro.service.faults import FAULT_PLAN_ENV, FAULT_WORKER_ENV
from repro.service.scheduling import get_scheduler, validate_scheduler
from scheduler_conformance import (
    assert_placement_counters,
    conformance_schedulers,
    run_scheduler_conformance,
    scheduler_backends,
)
from repro.service.worker_host import spawn_local_worker_hosts

SCHEDULERS = conformance_schedulers()
BACKENDS = scheduler_backends()


@pytest.fixture(autouse=True)
def _clear_fault_plan():
    yield
    install_fault_plan(None)


@pytest.fixture(scope="module", autouse=True)
def socket_worker_hosts():
    """Clean-pool socket runs share one pair of localhost worker hosts."""
    if "socket" not in BACKENDS:
        yield None
        return
    with spawn_local_worker_hosts(2) as addresses:
        previous = os.environ.get("REPRO_WORKER_HOSTS")
        os.environ["REPRO_WORKER_HOSTS"] = ",".join(addresses)
        try:
            yield addresses
        finally:
            if previous is None:
                os.environ.pop("REPRO_WORKER_HOSTS", None)
            else:
                os.environ["REPRO_WORKER_HOSTS"] = previous


@pytest.fixture(scope="module")
def reference(tiny_model, v100_cluster):
    """Serial reference run every policy is compared against."""
    return run_conformance(tiny_model, v100_cluster, "serial", workers=1)


def _wait_no_extra_children(before, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        extra = set(multiprocessing.active_children()) - set(before)
        if not extra:
            return []
        time.sleep(0.05)
    return sorted(p.pid for p in extra)


class TestSchedulerRegistry:
    def test_every_registered_policy_is_covered_by_default(self, monkeypatch):
        from repro.service import SCHEDULER_NAMES
        monkeypatch.delenv("REPRO_CONFORMANCE_SCHEDULERS", raising=False)
        assert conformance_schedulers() == SCHEDULER_NAMES
        assert SCHEDULER_NAMES == ("round_robin", "locality")

    def test_unknown_scheduler_filter_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONFORMANCE_SCHEDULERS", "rond_robin")
        with pytest.raises(ValueError, match="unknown policies"):
            conformance_schedulers()

    def test_validate_and_get_agree_with_registry(self):
        for name in SCHEDULERS:
            assert validate_scheduler(name) == name
            assert get_scheduler(name).name == name
        for unknown in ("first_fit", "least_loaded"):
            with pytest.raises(ValueError, match="unknown scheduler"):
                validate_scheduler(unknown)


class TestSchedulerConformance:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_policy_conformant_with_serial(self, tiny_model, v100_cluster,
                                           reference, backend, scheduler):
        run = run_scheduler_conformance(tiny_model, v100_cluster, backend,
                                        scheduler)
        assert_conformant(reference, run)
        assert_placement_counters(run, scheduler)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_policy_conformant_under_worker_death(
            self, tiny_model, v100_cluster, reference, backend, scheduler):
        # Worker 0 dies just before evaluating job 2 of batch 1 -- the
        # policy's placement must not leak into results even while the
        # drain loop re-dispatches the victim's leased jobs.
        before = multiprocessing.active_children()
        plan = FaultPlan([
            FaultRule(action="kill", job=2, when="before", worker=0)])
        if backend == "socket":
            env = [{FAULT_PLAN_ENV: plan.to_json(), FAULT_WORKER_ENV: "0"},
                   {FAULT_PLAN_ENV: plan.to_json(), FAULT_WORKER_ENV: "1"}]
            with spawn_local_worker_hosts(2, env_per_host=env) as hosts:
                run = run_scheduler_conformance(
                    tiny_model, v100_cluster, backend, scheduler,
                    worker_hosts=hosts)
        else:
            install_fault_plan(plan)
            run = run_scheduler_conformance(tiny_model, v100_cluster,
                                            backend, scheduler)
            install_fault_plan(None)
        assert_conformant(reference, run)
        assert_placement_counters(run, scheduler)
        assert run.resilience_stats["worker_deaths"] >= 1
        assert run.resilience_stats["redispatched_jobs"] >= 1
        assert _wait_no_extra_children(before) == []
