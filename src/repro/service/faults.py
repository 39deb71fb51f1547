"""Deterministic fault injection for the pooled evaluation backends.

The resilience machinery in :mod:`repro.service.backends` -- liveness
pings, job leases with speculative re-dispatch, reconnect-with-backoff --
only earns its keep if every failure path can be exercised on demand and
*reproducibly*.  This module supplies that: a :class:`FaultPlan` is a
seeded, declarative list of :class:`FaultRule` entries that the worker
loop (:func:`repro.service.backends._pool_worker_main`) and the parent's
scatter/gather consult at well-defined hook points.  Every trigger is a
piece of plan state (a job index, a sync epoch, a per-process worker id,
a fired counter) -- never wall-clock randomness -- so a chaos scenario
replays identically run after run and the conformance harness can assert
byte-identical results against a serial evaluation.

Rule schema (JSON, via ``REPRO_FAULT_PLAN``, or :class:`FaultRule`)::

    {"seed": 0,
     "rules": [
       {"action": "kill",    "job": 2, "when": "before", "worker": 0},
       {"action": "slow",    "job": 1, "delay_s": 1.5,   "worker": 1},
       {"action": "drop",    "job": 1, "when": "after"},
       {"action": "drop",    "epoch": 3},
       {"action": "delay",   "epoch": 2, "delay_s": 0.5},
       {"action": "corrupt", "job": 2}
     ]}

Actions and where they fire:

``kill``
    Worker side.  ``os._exit`` the evaluating process before (or after)
    it handles the job whose batch index matches ``job`` -- a crashed
    worker process / worker host.
``slow``
    Worker side.  Sleep ``delay_s`` (plus ``(factor - 1)`` times the
    measured evaluation time for ``when: after``) around the matching
    job -- a straggler, used to drive jobs past their lease deadline.
``drop``
    Worker side.  Close the connection cleanly at the matching job or at
    the first sync whose epoch is ``>= epoch`` -- a lost network path
    whose host stays up and can be reconnected to.
``delay``
    Worker side.  Sleep ``delay_s`` before acking the matching sync --
    drives the parent's sync timeout.
``corrupt``
    Parent side.  Deliberately corrupt the wire frame carrying the
    matching job dispatch (:meth:`~repro.service.wire.WireConnection.corrupt_next_frame`),
    so the receiving worker host rejects the stream and hangs up.
``worker`` scopes a rule to one worker: forked persistent workers are
numbered in spawn order, remote worker hosts read ``REPRO_FAULT_WORKER``
(one id per host).  Rules are one-shot by default (``once: false`` makes
them recurring) and one-shot state lives in the plan instance, so a
worker host that serves several connections in a row fires each rule at
most once across all of them.

Install a plan programmatically with :func:`install_fault_plan` (forked
workers inherit it) or via the ``REPRO_FAULT_PLAN`` environment variable
(JSON; how worker-host subprocesses receive theirs).  Without either,
every hook is a no-op through the shared :data:`NO_FAULTS` plan.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Environment variable holding a JSON fault plan (see module docstring).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment variable numbering a worker-host process for ``worker``-
#: scoped rules (forked workers are numbered by the parent instead).
FAULT_WORKER_ENV = "REPRO_FAULT_WORKER"

#: Exit status used by ``kill`` rules, distinguishable from real crashes.
KILL_EXIT_CODE = 43

_ACTIONS = ("kill", "slow", "drop", "delay", "corrupt")
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
    """A seeded, stateful set of fault rules consulted at the hook points.

    The plan object *is* the chaos scenario: rules fire purely on plan
    state (indices, epochs, fired counters), and ``seed`` feeds
    :attr:`rng` for scenarios that want reproducible pseudo-random
    choices (e.g. picking a victim job), so two runs with the same plan
    inject exactly the same faults at exactly the same protocol points.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0,
                 worker_id: Optional[int] = None) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        #: Deterministic generator for plan-construction helpers; never
        #: consulted implicitly by the hooks themselves.
        self.rng = random.Random(seed)
        #: Which worker this process is, for ``worker``-scoped rules
        #: (``None`` on the parent and on unnumbered workers).
        self.worker_id = worker_id
        #: Hook-invocation counters (observability / test assertions).
        self.stats: Dict[str, int] = {"jobs_seen": 0, "syncs_seen": 0,
                                      "faults_fired": 0}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Dict,
                  worker_id: Optional[int] = None) -> "FaultPlan":
        rules = [FaultRule(**rule) for rule in payload.get("rules", ())]
        return cls(rules=rules, seed=int(payload.get("seed", 0)),
                   worker_id=worker_id)

    @classmethod
    def from_json(cls, text: str,
                  worker_id: Optional[int] = None) -> "FaultPlan":
        return cls.from_dict(json.loads(text), worker_id=worker_id)

    def to_json(self) -> str:
        rules = []
        for rule in self.rules:
            entry = {"action": rule.action, "when": rule.when,
                     "delay_s": rule.delay_s, "factor": rule.factor,
                     "once": rule.once}
            for key in ("job", "epoch", "worker"):
                if getattr(rule, key) is not None:
                    entry[key] = getattr(rule, key)
            rules.append(entry)
        return json.dumps({"seed": self.seed, "rules": rules})

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
        # "corrupt" is parent-side only; ignore it here so one JSON plan
        # can be installed on both sides.

    # ------------------------------------------------------------------
    # parent-side hooks (called from the scatter/gather loop)
    # ------------------------------------------------------------------
    def job_frame_action(self, index: int) -> Optional[str]:
        """Action to apply to the outbound frame dispatching ``index``."""
        for rule in self.rules:
            if (rule.action == "corrupt" and rule.job == index
                    and not rule.spent()):
                self._fire(rule)
                return rule.action
        return None


#: Shared no-op plan: every hook falls through instantly.
NO_FAULTS = FaultPlan()

#: Programmatically installed plan (parent process and its forked
#: workers); takes precedence over the environment.
_INSTALLED: Optional[FaultPlan] = None

#: Cache of the environment-derived plan, keyed by the raw JSON so plan
#: *state* (fired counters) survives repeated lookups but a changed
#: environment is picked up.
_ENV_PLAN: Optional[tuple] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears it).

    Forked (``persistent``) workers inherit the installed plan at fork
    time, which is how a chaos test arms local workers; remote worker
    hosts read ``REPRO_FAULT_PLAN`` from their environment instead.
    """
    global _INSTALLED
    _INSTALLED = plan


def local_worker_id() -> Optional[int]:
    """This process's worker id for ``worker``-scoped rules, if numbered."""
    raw = os.environ.get(FAULT_WORKER_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def current_fault_plan(worker_id: Optional[int] = None) -> FaultPlan:
    """The active plan: installed > environment > :data:`NO_FAULTS`.

    ``worker_id`` (fork-time numbering) overrides the environment-derived
    id; the environment plan is parsed once and its instance cached so
    rule state persists across calls and connections.
    """
    if _INSTALLED is not None:
        if worker_id is not None:
            _INSTALLED.worker_id = worker_id
        return _INSTALLED
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return NO_FAULTS
    global _ENV_PLAN
    if _ENV_PLAN is None or _ENV_PLAN[0] != raw:
        _ENV_PLAN = (raw, FaultPlan.from_json(raw,
                                              worker_id=local_worker_id()))
    plan = _ENV_PLAN[1]
    if worker_id is not None:
        plan.worker_id = worker_id
    return plan
