"""Deterministic chaos matrix for the resilient persistent worker pool.

Every scenario runs the standard two-batch conformance workload while a
:class:`~repro.service.FaultPlan` injects exactly one failure at a
well-defined protocol point -- a worker killed before a specific job, a
straggler slowed past its lease, a sync ack dropped or delayed -- and
then asserts the full conformance contract: results byte-identical to
serial, cache accounting replayed exactly, and no leaked worker
processes.  The resilience counters additionally pin down *how* the run
survived (leased jobs re-dispatched to live workers, never whole-batch
parent fallback).

CI runs this module as the ``chaos`` job with
``REPRO_CONFORMANCE_BACKENDS=persistent``.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from backend_conformance import (
    assert_conformant,
    conformance_backends,
    default_batches,
    make_jobs,
    run_conformance,
)
from repro.service import (
    FaultPlan,
    FaultRule,
    PredictionService,
    install_fault_plan,
)

BACKENDS = conformance_backends()

needs_persistent = pytest.mark.skipif(
    "persistent" not in BACKENDS,
    reason="persistent backend excluded by REPRO_CONFORMANCE_BACKENDS")


@pytest.fixture(autouse=True)
def _clear_fault_plan():
    """No chaos scenario may leak its plan into the next test."""
    yield
    install_fault_plan(None)


@pytest.fixture(scope="module")
def reference(tiny_model, v100_cluster):
    """Serial reference run every chaos scenario is compared against."""
    return run_conformance(tiny_model, v100_cluster, "serial", workers=1)


def _wait_no_extra_children(before, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        extra = set(multiprocessing.active_children()) - set(before)
        if not extra:
            return []
        time.sleep(0.05)
    return sorted(p.pid for p in extra)


class TestFaultPlan:
    def test_rules_validate_eagerly(self):
        for action in ("explode", "join", "leave", "corrupt"):
            with pytest.raises(ValueError, match="unknown fault action"):
                FaultRule(action=action, job=0)
        with pytest.raises(ValueError, match="needs a trigger"):
            FaultRule(action="kill")
        with pytest.raises(ValueError, match="'when'"):
            FaultRule(action="kill", job=0, when="sometime")
        with pytest.raises(ValueError, match="delays"):
            FaultRule(action="slow", job=0, delay_s=-1.0)

    def test_worker_scoped_rules_ignore_other_workers(self):
        plan = FaultPlan([FaultRule(action="slow", job=1, worker=0,
                                    delay_s=0.0)], worker_id=1)
        plan.before_job(1)  # would sleep/fire on worker 0; worker 1 is inert
        assert plan.stats["faults_fired"] == 0
        plan.worker_id = 0
        plan.before_job(1)
        assert plan.stats["faults_fired"] == 1
        plan.before_job(1)  # one-shot: spent rules never re-fire
        assert plan.stats["faults_fired"] == 1


@needs_persistent
class TestPersistentChaos:
    def test_kill_mid_batch_redispatches_without_batch_fallback(
            self, tiny_model, v100_cluster, reference):
        # Worker 0 (fork spawn order) dies just before evaluating job 2 of
        # batch 1.  The victim's leased jobs must re-dispatch to the
        # surviving worker -- never degrade the whole batch to the parent
        # -- and everything stays byte-identical to serial.
        before = multiprocessing.active_children()
        install_fault_plan(FaultPlan([
            FaultRule(action="kill", job=2, when="before", worker=0)]))
        run = run_conformance(tiny_model, v100_cluster, "persistent")
        install_fault_plan(None)
        assert_conformant(reference, run)
        stats = run.resilience_stats
        assert stats["worker_deaths"] >= 1
        assert stats["redispatched_jobs"] >= 1
        tagged = [result for result in run.flat_results
                  if "backend_fallback" in result.metadata]
        assert 1 <= len(tagged) < len(run.flat_results), \
            "only the victim's jobs may degrade, never the whole batch"
        assert _wait_no_extra_children(before) == []

    def test_discarded_worker_leaves_no_artifact_origin_entries(
            self, tiny_model, v100_cluster):
        # Worker 0 answers job 0 -- a fresh emulation the origin map
        # credits it with -- and dies before job 2.  Discarding it must
        # take its origin entries along: a stale one would pin the dead
        # handle (process object, closed pipe) until close().
        install_fault_plan(FaultPlan([
            FaultRule(action="kill", job=2, when="before", worker=0)]))
        with PredictionService(cluster=v100_cluster,
                               estimator_mode="analytical",
                               backend="persistent",
                               max_workers=2) as service:
            service.predict_many(make_jobs(tiny_model, v100_cluster,
                                           default_batches()[0]))
            backend = service.backend_impl
            assert backend.resilience_stats["worker_deaths"] >= 1
            assert backend._artifact_origin, \
                "the survivor's fresh emulations must still be credited"
            assert all(owner in backend._workers
                       for owner in backend._artifact_origin.values())

    def test_straggler_past_lease_is_speculatively_redispatched(
            self, tiny_model, v100_cluster, reference):
        # Worker 0 sleeps far past the lease on one job: the parent must
        # re-dispatch that job to the other worker, take the first result,
        # and discard the straggler instead of gating the batch on it.
        before = multiprocessing.active_children()
        install_fault_plan(FaultPlan([
            FaultRule(action="slow", job=2, when="before", delay_s=6.0,
                      worker=0)]))
        service = PredictionService(cluster=v100_cluster,
                                    estimator_mode="analytical",
                                    backend="persistent", max_workers=2,
                                    lease_timeout=1.0)
        started = time.monotonic()
        run = run_conformance(tiny_model, v100_cluster, "persistent",
                              service=service)
        elapsed = time.monotonic() - started
        install_fault_plan(None)
        assert_conformant(reference, run)
        stats = run.resilience_stats
        assert stats["lease_expirations"] >= 1
        assert stats["redispatched_jobs"] >= 1
        assert stats["stragglers_discarded"] >= 1
        assert elapsed < 6.0, \
            "the batch waited out the straggler instead of re-dispatching"
        assert _wait_no_extra_children(before) == []

    @pytest.mark.parametrize("victim", [0, 1])
    @pytest.mark.parametrize("fault", ["drop", "delay"])
    def test_pipelined_sync_survives_one_failed_ack(
            self, tiny_model, v100_cluster, reference, fault, victim):
        # Batch 2 syncs both workers in one pipelined round (all sends,
        # then all acks).  One worker's ack never arrives -- it drops the
        # connection instead, or sleeps far past the sync timeout -- and
        # the other worker's ack, sent in the same round, must still be
        # honoured: only the victim's share degrades to the parent.
        before = multiprocessing.active_children()
        install_fault_plan(FaultPlan([
            FaultRule(action=fault, epoch=1, delay_s=5.0, worker=victim)]))
        service = PredictionService(cluster=v100_cluster,
                                    estimator_mode="analytical",
                                    backend="persistent", max_workers=2,
                                    sync_timeout=0.5)
        started = time.monotonic()
        run = run_conformance(tiny_model, v100_cluster, "persistent",
                              service=service)
        elapsed = time.monotonic() - started
        install_fault_plan(None)
        assert_conformant(reference, run)
        assert run.sync_stats["delta_syncs"] == 2, \
            "both workers must have been sent their delta"
        assert run.resilience_stats["worker_deaths"] == 1
        assert elapsed < 5.0, "the batch waited out the delayed ack"
        # Batch 2 dispatches three jobs round-robin (the fourth is a
        # prediction hit): worker 0 holds two of them, worker 1 one.
        tagged = [result.metadata["backend_fallback"]
                  for result in run.results[1]
                  if "backend_fallback" in result.metadata]
        assert len(tagged) == (2, 1)[victim], \
            "exactly the victim's share may fall back to the parent"
        assert all("cache sync" in reason for reason in tagged)
        assert not any("backend_fallback" in result.metadata
                       for result in run.results[0])
        assert _wait_no_extra_children(before) == []
