"""Deterministic fault injection for the persistent worker pool.

The resilience machinery in :mod:`repro.service.backends` -- liveness
polls, sync timeouts, job leases with speculative re-dispatch -- only
earns its keep if every failure path can be exercised on demand and
*reproducibly*.  This module supplies that: a :class:`FaultPlan` is a
declarative list of :class:`FaultRule` entries that the worker
loop (:func:`repro.service.backends._pool_worker_main`) consults at
well-defined hook points.  Every trigger is a piece of plan state (a job
index, a sync epoch, a per-process worker id, a fired counter) -- never
wall-clock randomness -- so a chaos scenario replays identically run
after run and the conformance harness can assert byte-identical results
against a serial evaluation.

Rules (:class:`FaultRule`)::

    FaultRule(action="kill",  job=2, when="before", worker=0)
    FaultRule(action="slow",  job=1, delay_s=1.5,   worker=1)
    FaultRule(action="drop",  job=1, when="after")
    FaultRule(action="drop",  epoch=3)
    FaultRule(action="delay", epoch=2, delay_s=0.5)

Actions and where they fire (all in the worker):

``kill``
    ``os._exit`` the evaluating process before (or after) it handles the
    job whose batch index matches ``job`` -- a crashed worker process.
``slow``
    Sleep ``delay_s`` (plus ``(factor - 1)`` times the measured
    evaluation time for ``when="after"``) around the matching job -- a
    straggler, used to drive jobs past their lease deadline.
``drop``
    Close the pipe cleanly at the matching job or at the first sync
    whose epoch is ``>= epoch`` -- a worker that hangs up.
``delay``
    Sleep ``delay_s`` before acking the matching sync -- drives the
    parent's sync timeout.

``worker`` scopes a rule to one worker: forked workers are numbered in
spawn order.  Rules are one-shot by default (``once=False`` makes them
recurring) and one-shot state lives in the plan instance.

Install a plan with :func:`install_fault_plan` before the pool forks
(forked workers inherit it).  Without one, every hook is a no-op through
the shared :data:`NO_FAULTS` plan.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Exit status used by ``kill`` rules, distinguishable from real crashes.
KILL_EXIT_CODE = 43

_ACTIONS = ("kill", "slow", "drop", "delay")
_WHENS = ("before", "after")


class FaultInjected(RuntimeError):
    """Raised by ``drop`` rules: the worker loop closes its connection."""


@dataclass
class FaultRule:
    """One declarative fault: a trigger plus an action.

    Triggers: ``job`` matches the batch index carried in a job message
    (``when`` picks the before/after-evaluation hook), ``epoch`` matches
    the first cache sync whose epoch is >= the value.  ``worker``
    restricts the rule to one worker id; ``None`` matches every worker.
    """

    action: str
    job: Optional[int] = None
    when: str = "before"
    epoch: Optional[int] = None
    worker: Optional[int] = None
    delay_s: float = 0.0
    factor: float = 1.0
    once: bool = True
    #: How many times this rule has fired (plan state, not configuration).
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"expected one of {_ACTIONS}")
        if self.when not in _WHENS:
            raise ValueError(f"fault rule 'when' must be one of {_WHENS}, "
                             f"got {self.when!r}")
        if self.job is None and self.epoch is None:
            raise ValueError(f"fault rule {self.action!r} needs a trigger: "
                             f"set 'job' or 'epoch'")
        if self.delay_s < 0 or self.factor < 1.0:
            raise ValueError("fault rule delays must be >= 0 and factors "
                             ">= 1.0")

    def spent(self) -> bool:
        return self.once and self.fired > 0

    def matches_worker(self, worker_id: Optional[int]) -> bool:
        return self.worker is None or self.worker == worker_id


class FaultPlan:
    """A stateful set of fault rules consulted at the hook points.

    The plan object *is* the chaos scenario: rules fire purely on plan
    state (indices, epochs, fired counters), so two runs with the same
    plan inject exactly the same faults at exactly the same protocol
    points.
    """

    def __init__(self, rules: Sequence[FaultRule] = (),
                 worker_id: Optional[int] = None) -> None:
        self.rules: List[FaultRule] = list(rules)
        #: Which worker this process is, for ``worker``-scoped rules
        #: (``None`` on the parent and on unnumbered workers).
        self.worker_id = worker_id
        #: Hook-invocation counters (observability / test assertions).
        self.stats: Dict[str, int] = {"jobs_seen": 0, "syncs_seen": 0,
                                      "faults_fired": 0}

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _fire(self, rule: FaultRule) -> None:
        rule.fired += 1
        self.stats["faults_fired"] += 1

    def _job_rules(self, index: int, when: str) -> List[FaultRule]:
        return [rule for rule in self.rules
                if rule.job == index and rule.when == when
                and not rule.spent() and rule.matches_worker(self.worker_id)]

    # ------------------------------------------------------------------
    # worker-side hooks (called from the pool worker loop)
    # ------------------------------------------------------------------
    def before_job(self, index: int) -> None:
        """Hook before a worker evaluates batch index ``index``."""
        self.stats["jobs_seen"] += 1
        for rule in self._job_rules(index, "before"):
            self._fire(rule)
            self._apply_worker_action(rule, elapsed=0.0)

    def after_job(self, index: int, elapsed: float = 0.0) -> None:
        """Hook after a worker evaluated (and answered) ``index``."""
        for rule in self._job_rules(index, "after"):
            self._fire(rule)
            self._apply_worker_action(rule, elapsed=elapsed)

    def on_sync(self, epoch: int) -> None:
        """Hook before a worker acks cache-sync ``epoch``."""
        self.stats["syncs_seen"] += 1
        for rule in self.rules:
            if (rule.epoch is None or rule.spent()
                    or not rule.matches_worker(self.worker_id)
                    or epoch < rule.epoch):
                continue
            self._fire(rule)
            if rule.action == "delay":
                time.sleep(rule.delay_s)
            elif rule.action == "drop":
                raise FaultInjected(f"fault plan dropped the connection at "
                                    f"sync epoch {epoch}")
            elif rule.action == "kill":  # pragma: no cover - symmetry
                os._exit(KILL_EXIT_CODE)

    def _apply_worker_action(self, rule: FaultRule, elapsed: float) -> None:
        if rule.action == "kill":
            os._exit(KILL_EXIT_CODE)
        elif rule.action == "slow":
            time.sleep(rule.delay_s + (rule.factor - 1.0) * elapsed)
        elif rule.action == "drop":
            raise FaultInjected(f"fault plan dropped the connection at job "
                                f"{rule.job}")


#: Shared no-op plan: every hook falls through instantly.
NO_FAULTS = FaultPlan()

#: Installed plan (parent process and its forked workers).
_INSTALLED: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears it).

    Forked workers inherit the installed plan at fork time, which is how
    a chaos test arms them.
    """
    global _INSTALLED
    _INSTALLED = plan


def current_fault_plan(worker_id: Optional[int] = None) -> FaultPlan:
    """The installed plan, or :data:`NO_FAULTS`.  ``worker_id`` (fork-time
    numbering) tells ``worker``-scoped rules which worker this is."""
    if _INSTALLED is None:
        return NO_FAULTS
    if worker_id is not None:
        _INSTALLED.worker_id = worker_id
    return _INSTALLED
