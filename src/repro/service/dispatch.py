"""Per-batch dispatch bookkeeping of the worker pool, with no transport.

:class:`BatchDispatch` is the state machine behind
:meth:`repro.service.backends.PersistentBackend.drain`.  It never touches
a pipe, a process or a clock: the caller feeds it *events* -- ``result``,
``error``, ``worker_failed``, ``tick``, each stamped with the caller's
``now`` -- and carries out the *actions* it queues (``send`` a job,
``discard`` a worker).  An action that fails on the pipe comes back as
``worker_failed``, so every failure path runs through one place.  The
fault model:

* **Liveness**: on every tick each worker is polled (``alive()``), and
  the caller ticks at least every :data:`LIVENESS_POLL_INTERVAL`
  seconds, so silent death is detected in bounded time instead of only
  when a read fails.
* **Job leases**: a job unanswered past ``lease_timeout`` is
  speculatively re-dispatched to another live worker, or the parent as
  last resort.  Exactly once all the same: every index ends in exactly
  one of ``done`` (first answer wins, a late duplicate is only counted)
  or ``missing`` (the parent evaluates it), and at most two live copies
  of an index exist -- jobs taken off a *failed* worker do not count,
  its connection cannot answer late.
* **Degradation is per job, never per batch**: a dead worker costs
  re-dispatching its share; each affected index records its reason.
* **Bounded window**: a worker never holds more than ``max_inflight``
  unanswered jobs, so neither side can block on a full pipe buffer, and
  nothing is sent to a worker after it failed.

``tests/test_dispatch.py`` drives these through seeded random fault
schedules with fake workers and a fake clock.
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, Iterable, KeysView, List, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro.service.scheduling import JobSpec, SchedulerPolicy, WorkerSnapshot

#: Lease deadline of a job that cannot expire (any more, or at all).
NO_DEADLINE = float("inf")

#: Longest the transport may block between ticks, so a worker that died
#: without closing its pipe is noticed by the next ``alive()`` poll.
LIVENESS_POLL_INTERVAL = 5.0


class Action(NamedTuple):
    """One thing the transport loop must do on the state machine's behalf."""

    #: ``"send"`` (job ``arg`` to ``worker``) or ``"discard"`` (drop
    #: ``worker`` from the pool).
    kind: str
    worker: object
    arg: Optional[int] = None
    #: The ``why`` to report through :meth:`BatchDispatch.worker_failed`
    #: when carrying the action out hits a connection failure.
    on_failure: str = ""


class BatchDispatch:
    """Lease / re-dispatch / exactly-once bookkeeping of one pooled batch.

    ``assignments`` pairs each participating worker with its share of
    batch indices; ``parent_eval`` lists ``(index, reason)`` pairs that
    fell to the parent before the batch started (failed cache sync);
    ``stats`` is the backend's resilience counter dict, updated in
    place.  Construction queues the first window of sends.
    """

    def __init__(self, assignments: Iterable[Tuple[object, Sequence[int]]],
                 parent_eval: Iterable[Tuple[int, str]], *, name: str,
                 policy: SchedulerPolicy, stats: Dict[str, int],
                 max_inflight: int, lease_timeout: float,
                 now: float) -> None:
        self.name = name
        self.policy = policy
        self.stats = stats
        self.max_inflight = max_inflight
        self.lease = lease_timeout or 0.0
        #: Indices some worker answered (result or error).
        self.done: Set[int] = set()
        #: index -> reason, for the parent to evaluate after the batch.
        self.missing: Dict[int, str] = {}
        #: index -> reason recorded whenever the resilience machinery
        #: touched a job (per-job ``backend_fallback`` metadata).
        self.fallback_reasons: Dict[int, str] = {}
        #: ``(index, traceback)`` of jobs whose evaluation raised.
        self.errors: List[Tuple[int, str]] = []
        for index, reason in parent_eval:
            self.missing[index] = self.fallback_reasons[index] = reason
        #: Active workers: (unsent queue, in-flight index -> lease deadline).
        self._states: Dict[object, Tuple[Deque[int], Dict[int, float]]] = {}
        #: Indices assigned to workers and not yet done or missing.
        self._pending: Set[int] = set()
        #: Indices already speculatively re-dispatched once (a second
        #: lease expiry falls back to the parent, bounding copies).
        self._redispatched: Set[int] = set()
        #: Workers that finished their share cleanly: still synced and
        #: alive, so re-dispatch can pull them back in as targets.
        self._standby: List[object] = []
        self._actions: Deque[Action] = deque()
        for worker, assigned in assignments:
            self._states[worker] = (deque(assigned), {})
            self._pending.update(assigned)
        for worker in list(self._states):
            self._top_up(worker, now, "connection failed during dispatch")
            self._park_if_idle(worker)

    # ------------------------------------------------------------------
    # what the transport loop reads
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """No worker left to wait on, or nothing left to wait for."""
        return not (self._states and self._pending)

    @property
    def active(self) -> KeysView:
        """Workers whose connections the transport should be reading."""
        return self._states.keys()

    def next_action(self) -> Optional[Action]:
        """Pop the next queued action (``None``: nothing to do)."""
        return self._actions.popleft() if self._actions else None

    def next_deadline(self, now: float) -> float:
        """Seconds the transport may block before the next :meth:`tick`."""
        bound = LIVENESS_POLL_INTERVAL
        for _, inflight in self._states.values():
            for deadline in inflight.values():
                if deadline != NO_DEADLINE:
                    bound = min(bound, deadline - now)
        return min(max(bound, 0.05), LIVENESS_POLL_INTERVAL)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def result(self, worker, index: int, now: float) -> bool:
        """``worker`` answered ``index``.  True when this is the first
        answer (the caller keeps its payload); False for the losing copy
        of a speculative pair, whose accounting must not be replayed."""
        queue, inflight = self._states[worker]
        inflight.pop(index, None)
        first = index not in self.done
        if first:
            self.done.add(index)
            self._pending.discard(index)
            self.missing.pop(index, None)
        else:
            self.stats["duplicate_results"] += 1
        self._top_up(worker, now, "connection failed during dispatch")
        # Share done: park it so an expiring lease elsewhere can
        # re-dispatch to it.
        self._park_if_idle(worker)
        return first

    def error(self, worker, index: int, detail: str, now: float) -> None:
        """``worker`` answered ``index`` with a traceback: an answer like
        any other, remembered for the caller to raise after the merge."""
        if self.result(worker, index, now):
            self.errors.append((index, detail))

    def worker_failed(self, worker, why: str, now: float) -> None:
        """``worker`` died, or its connection did: its unanswered and
        unsent share moves to the surviving workers (parent as last
        resort), outside the one-speculative-copy bound."""
        if worker not in self._states:
            return
        queue, inflight = self._states.pop(worker)
        self.stats["worker_deaths"] += 1
        self._actions = deque(action for action in self._actions
                              if action.worker is not worker)
        self._actions.append(Action("discard", worker))
        self._hand_off(
            list(inflight) + list(queue), None,
            f"{self.name} worker {why}; job re-dispatched to a live worker",
            f"{self.name} worker {why}; job evaluated on parent", now)

    def tick(self, now: float) -> None:
        """Time passed: probe liveness, expire leases."""
        self._liveness_pass(now)
        if self.lease:
            self._lease_pass(now)

    def finish(self) -> None:
        """The batch is over.  A worker still owing an answer (its job
        went to the parent when its lease ran out) cannot return to the
        pool: the late result would desync the next batch's sync ack.
        Workers holding only unsent queue leftovers are clean."""
        for worker, (_, inflight) in list(self._states.items()):
            if inflight:
                self.stats["stragglers_discarded"] += 1
                del self._states[worker]
                self._actions.append(Action("discard", worker))
        for index in sorted(self._pending):  # pragma: no cover - guard
            if index not in self.done and index not in self.missing:
                reason = f"{self.name} pool exhausted; evaluated on parent"
                self.missing[index] = self.fallback_reasons[index] = reason

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _top_up(self, worker, now: float, on_failure: str) -> None:
        """Queue sends until ``worker``'s window is full."""
        queue, inflight = self._states[worker]
        while queue and len(inflight) < self.max_inflight:
            index = queue.popleft()
            if index in self.done or index in self.missing:
                continue  # resolved elsewhere meanwhile
            inflight[index] = now + self.lease if self.lease else NO_DEADLINE
            self._actions.append(Action("send", worker, index, on_failure))

    def _park_if_idle(self, worker) -> None:
        queue, inflight = self._states[worker]
        if not queue and not inflight:
            del self._states[worker]
            self._standby.append(worker)

    def _unpark(self) -> Optional[object]:
        while self._standby:
            worker = self._standby.pop()
            if worker.alive():
                self._states[worker] = (deque(), {})
                return worker
            self.stats["worker_deaths"] += 1
            self._actions.append(Action("discard", worker))
        return None

    def _live_target(self, index: int, exclude) -> Optional[object]:
        """Re-dispatch target among the active workers, chosen by the
        policy (default: least loaded); workers already holding a copy
        of ``index`` are not candidates."""
        candidates = [
            (worker, len(queue) + len(inflight))
            for worker, (queue, inflight) in self._states.items()
            if worker is not exclude and index not in inflight
            and index not in queue]
        slot = self.policy.select_target(
            JobSpec(index=index),
            [WorkerSnapshot(slot=slot, load=load)
             for slot, (_, load) in enumerate(candidates)])
        return None if slot is None else candidates[slot][0]

    def _reassign(self, index: int, exclude, reason_worker: str,
                  reason_parent: str, now: float) -> None:
        """Hand one unresolved index to another live worker -- active or
        pulled back from standby -- or to the parent as last resort
        (also when this copy was already a speculative one)."""
        target = None
        if index not in self._redispatched:
            target = self._live_target(index, exclude) or self._unpark()
        if target is None:
            self.missing[index] = self.fallback_reasons[index] = reason_parent
            self._pending.discard(index)
            self.stats["parent_evaluations"] += 1
            return
        self._states[target][0].append(index)
        self._redispatched.add(index)
        self.fallback_reasons[index] = reason_worker
        self.stats["redispatched_jobs"] += 1
        self._top_up(target, now, "connection failed during re-dispatch")

    def _hand_off(self, indices: Sequence[int], exclude, reason_worker: str,
                  reason_parent: str, now: float) -> None:
        """Move jobs no live copy of which exists (never sent, or sent to
        a worker that is gone): a plain move, not a speculative one."""
        for index in indices:
            if index in self.done or index in self.missing:
                continue
            self._redispatched.discard(index)
            self._reassign(index, exclude, reason_worker, reason_parent, now)

    def _liveness_pass(self, now: float) -> None:
        for worker in list(self._states):
            if not worker.alive():
                self.worker_failed(worker, "process died silently", now)

    def _lease_pass(self, now: float) -> None:
        for worker in list(self._states):
            queue, inflight = self._states[worker]
            expired = [index for index, deadline in inflight.items()
                       if deadline <= now and index not in self.done]
            for index in expired:
                # The straggler's copy stays tracked (first result wins
                # either way) but can only expire once.
                self.stats["lease_expirations"] += 1
                inflight[index] = NO_DEADLINE
                self._reassign(
                    index, worker,
                    f"{self.name} job lease expired after {self.lease:g}s; "
                    f"speculatively re-dispatched",
                    f"{self.name} job lease expired after {self.lease:g}s; "
                    f"evaluated on parent", now)
            if expired:
                # An expired lease marks this worker a straggler: its
                # unsent queue would strand behind it (it is topped up
                # only after it answers), so hand it off now.
                stranded = list(queue)
                queue.clear()
                self._hand_off(
                    stranded, worker,
                    f"{self.name} job re-queued off a straggling worker",
                    f"{self.name} job stranded behind a straggling worker; "
                    f"evaluated on parent", now)
