"""Job placement for the persistent worker pool.

:class:`~repro.service.backends.PersistentBackend` hands each batch's
dispatch list to a :class:`SchedulerPolicy`, which sees immutable
:class:`JobSpec` / :class:`WorkerSnapshot` views and returns one index
share per worker.  One policy is registered:

``round_robin``
    Job *p* of the dispatch list lands on worker ``p % width`` where
    ``width`` is ``min(workers, jobs)``.

Mid-batch re-dispatch (worker death, expired lease) asks the same
policy's :meth:`SchedulerPolicy.select_target`: the least-loaded
candidate, first slot winning ties.

Placement never changes *results*: the pool merges in input order
and evaluates exactly once, so it stays byte-identical to serial
(``tests/backend_conformance.py`` enforces it).  What placement could
change is how many artifact bytes the cache-delta sync ships; the
counters in :attr:`SchedulerPolicy.stats` (surfaced through
``sync_stats`` and the server stats payload) measure what an
artifact-aware policy would have to save.

Policies are pure and synchronous, which makes them directly
unit-testable (``tests/test_scheduling.py`` property-tests them on
randomized scenarios, no backend required).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "JobSpec", "WorkerSnapshot", "SchedulerPolicy", "RoundRobinPolicy",
    "get_scheduler",
]


@dataclass(frozen=True)
class JobSpec:
    """Placement-relevant view of one dispatchable job."""

    #: Position in the submitted batch (what the policy hands out).
    index: int
    #: The job's artifact cache key, or ``None`` when the job type does
    #: not support structural keying.
    artifact_key: Optional[Tuple] = None
    #: Whether the parent's memory cache holds the artifact -- i.e. the
    #: next sync would ship it to workers that lack it.  Cold jobs are
    #: ``False``: nothing ships either way, every worker costs the same.
    artifact_cached: bool = False
    #: Estimated wire bytes a snapshot/delta ship of this artifact would
    #: cost (a proxy, not a measurement -- see
    #: ``PersistentBackend._estimate_ship_bytes``).
    ship_bytes: int = 0


@dataclass(frozen=True)
class WorkerSnapshot:
    """Placement-relevant view of one live pool worker."""

    #: Position in the candidate list the policy was handed (shares are
    #: returned parallel to it).
    slot: int
    #: Outstanding jobs (queued + in flight) before this assignment.
    load: int = 0
    #: Artifact keys this worker already holds: everything synced at or
    #: before its acked epoch, plus artifacts it emulated itself.
    held_keys: frozenset = field(default_factory=frozenset)


class SchedulerPolicy:
    """Places dispatchable jobs onto pool workers.

    Stateless between batches except for the monotonic :attr:`stats`
    counters; safe to reuse across batches and services.
    """

    name = "?"

    def __init__(self) -> None:
        #: Monotonic placement counters, copied into the owning backend's
        #: ``sync_stats`` after every assignment:
        #:
        #: ``placements``
        #:     jobs placed (one per dispatched job).
        #: ``locality_hits``
        #:     placements of an artifact-holding job onto a worker that
        #:     already holds the artifact.
        #: ``ship_bytes_avoided``
        #:     estimated wire bytes those zero-ship placements saved.
        self.stats: Dict[str, int] = {
            "placements": 0, "locality_hits": 0, "ship_bytes_avoided": 0,
        }

    # -- placement ----------------------------------------------------
    def assign(self, jobs: Sequence[JobSpec],
               workers: Sequence[WorkerSnapshot]) -> List[List[int]]:
        """Partition ``jobs`` into per-worker shares.

        Returns one list of job indices per worker, parallel to
        ``workers``; each share preserves dispatch order (the backends
        send a worker's share strictly in order).  Every job appears in
        exactly one share.  Empty shares are legal -- the backend skips
        syncing (and therefore shipping anything to) an idle worker.
        """
        raise NotImplementedError

    def select_target(self, job: JobSpec,
                      workers: Sequence[WorkerSnapshot]) -> Optional[int]:
        """Pick a re-dispatch target for one orphaned/straggling job.

        Called by the batch dispatch when a job must move (worker death,
        expired lease).  Returns the least-loaded candidate's ``slot``
        (first slot winning ties), or ``None`` when there is no
        candidate.  Mid-batch the artifacts were already synced to every
        participating worker, so nothing else distinguishes them.
        """
        best: Optional[int] = None
        best_load: Optional[int] = None
        for worker in workers:
            if best_load is None or worker.load < best_load:
                best, best_load = worker.slot, worker.load
        return best

    # -- accounting ---------------------------------------------------
    def zero_ship(self, job: JobSpec, worker: WorkerSnapshot) -> bool:
        """True when placing ``job`` on ``worker`` ships no artifact."""
        return job.artifact_key is not None \
            and job.artifact_key in worker.held_keys

    def _record(self, job: JobSpec, worker: WorkerSnapshot) -> None:
        self.stats["placements"] += 1
        if job.artifact_cached and self.zero_ship(job, worker):
            self.stats["locality_hits"] += 1
            self.stats["ship_bytes_avoided"] += job.ship_bytes


class RoundRobinPolicy(SchedulerPolicy):
    """Stripe the dispatch list over the workers in order."""

    name = "round_robin"

    def assign(self, jobs: Sequence[JobSpec],
               workers: Sequence[WorkerSnapshot]) -> List[List[int]]:
        shares: List[List[int]] = [[] for _ in workers]
        if not jobs or not workers:
            return shares
        width = min(len(workers), len(jobs))
        for position, job in enumerate(jobs):
            worker = workers[position % width]
            shares[position % width].append(job.index)
            self._record(job, worker)
        return shares


_SCHEDULERS = {RoundRobinPolicy.name: RoundRobinPolicy}


def get_scheduler(name: str) -> SchedulerPolicy:
    """Instantiate a placement policy by registered name."""
    if name not in _SCHEDULERS:
        raise ValueError(f"unknown scheduler policy {name!r}; "
                         f"expected one of {sorted(_SCHEDULERS)}")
    return _SCHEDULERS[name]()
