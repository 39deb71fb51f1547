"""Pluggable job-placement policies for the pooled evaluation backends.

:class:`~repro.service.backends.PooledBackend` historically striped each
batch round-robin over the live worker list.  This module extracts that
decision behind a :class:`SchedulerPolicy` interface (the scheduler-zoo
shape of ``atumanov/ray-scheduler-prototype``: several placement policies
behind one interface, compared by replaying the same workload) so that
placement can weigh per-worker load and artifact locality without
touching the dispatch/drain machinery:

``round_robin``
    The pre-refactor striping, byte-for-byte: job *p* of the dispatch
    list lands on worker ``p % width`` where ``width`` is
    ``min(workers, jobs)``.  This is the byte-identity reference -- the
    scheduler conformance harness holds every other policy to the same
    results and cache accounting.

``locality``
    Greedy shortest-queue (each job, in dispatch order, goes to the
    worker with the fewest outstanding jobs, lowest slot winning ties)
    biased by estimated ship cost: a worker whose acked
    sync epoch already covers the job's artifact key (or which produced
    the artifact itself, or which shares the parent's disk store and can
    hydrate the key from it) costs zero ship; any other worker pays a
    penalty of at least one job-unit, scaled by the artifact's estimated
    wire size.  An equally-loaded zero-ship worker therefore always
    wins over one that would need the artifact shipped.

Placement never changes *results*: the pooled backends merge in input
order and evaluate exactly once, so every policy stays byte-identical to
serial (``tests/scheduler_conformance.py`` enforces it).  What placement
changes is how many bytes the cache-delta sync ships and how evenly the
batch spreads -- the counters in :attr:`SchedulerPolicy.stats` (surfaced
through ``sync_stats`` and the server stats payload) and the
``bench_sim_throughput.py --schedulers`` leg measure exactly that.

Policies are pure and synchronous: they see immutable
:class:`JobSpec` / :class:`WorkerSnapshot` views and return index
shares, which makes them directly unit-testable
(``tests/test_scheduling.py`` property-tests the invariants above on
randomized scenarios, no backend required).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SCHEDULER_NAMES", "SCHEDULER_ENV", "JobSpec", "WorkerSnapshot",
    "SchedulerPolicy", "RoundRobinPolicy", "LocalityPolicy",
    "get_scheduler", "validate_scheduler",
]

#: Environment variable selecting the default placement policy (the
#: ``PredictionService(scheduler=)`` argument and ``--scheduler`` CLI
#: flag override it; unset means ``round_robin``).
SCHEDULER_ENV = "REPRO_SCHEDULER"


@dataclass(frozen=True)
class JobSpec:
    """Placement-relevant view of one dispatchable job."""

    #: Position in the submitted batch (what the policy hands out).
    index: int
    #: The job's artifact cache key, or ``None`` when the job type does
    #: not support structural keying (placement then ignores locality).
    artifact_key: Optional[Tuple] = None
    #: Whether the parent's memory cache holds the artifact -- i.e. the
    #: next sync would ship it to workers that lack it.  Cold jobs are
    #: ``False``: nothing ships either way, every worker costs the same.
    artifact_cached: bool = False
    #: Whether the parent's disk store holds the artifact, making it free
    #: for any ``shares_store`` worker (the ``StoreRef`` skip-ship path).
    in_store: bool = False
    #: Estimated wire bytes a snapshot/delta ship of this artifact would
    #: cost (a proxy, not a measurement -- see
    #: ``PooledBackend._estimate_ship_bytes``).
    ship_bytes: int = 0


@dataclass(frozen=True)
class WorkerSnapshot:
    """Placement-relevant view of one live pool worker."""

    #: Position in the candidate list the policy was handed (shares are
    #: returned parallel to it).
    slot: int
    #: Outstanding jobs (queued + in flight) before this assignment.
    load: int = 0
    #: The cache sync epoch this worker last acked.
    acked_epoch: int = 0
    #: Whether the worker reads the parent's disk store directly
    #: (fork-local workers with an attached ``--store-dir``): store-held
    #: artifacts reach it as tiny ``StoreRef`` messages, never payloads.
    shares_store: bool = False
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
        #:     placements of an artifact-holding job onto a zero-ship
        #:     worker (recorded by *every* policy, so round_robin's
        #:     accidental hit rate is comparable to locality's).
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
        expired lease).  Returns the chosen worker's
        ``slot`` or ``None`` when no candidate fits.  The default --
        least-loaded candidate, first slot winning ties -- is the
        pre-refactor behaviour and what every built-in policy uses:
        mid-batch the artifacts were already synced to every
        participating worker, so locality is moot for re-dispatch.
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
        if job.artifact_key is None:
            return False
        if job.artifact_key in worker.held_keys:
            return True
        return worker.shares_store and job.in_store

    def _record(self, job: JobSpec, worker: WorkerSnapshot) -> None:
        self.stats["placements"] += 1
        if job.artifact_cached and self.zero_ship(job, worker):
            self.stats["locality_hits"] += 1
            self.stats["ship_bytes_avoided"] += job.ship_bytes


class RoundRobinPolicy(SchedulerPolicy):
    """The pre-refactor striping, kept byte-for-byte as the reference."""

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


class LocalityPolicy(SchedulerPolicy):
    """Least-loaded placement biased by estimated artifact-ship cost.

    Score = outstanding load + ship penalty.  The penalty is zero for a
    zero-ship worker (acked epoch covers the key, worker produced the
    artifact, or a shared store can hydrate it) and at least
    :data:`MIN_SHIP_PENALTY` job-units otherwise, growing with the
    artifact's estimated wire size -- so an equally-loaded zero-ship
    worker always wins, and a large artifact tolerates a longer queue
    before being shipped elsewhere.
    """

    name = "locality"

    #: A needed ship costs at least this many job-units, so ties on load
    #: always break toward the worker that ships nothing.
    MIN_SHIP_PENALTY = 1.0
    #: Ship-size normaliser: a ship of this many estimated bytes costs
    #: one extra job-unit of penalty on top of the minimum.
    BYTES_PER_JOB_UNIT = 1 << 20

    def assign(self, jobs: Sequence[JobSpec],
               workers: Sequence[WorkerSnapshot]) -> List[List[int]]:
        shares: List[List[int]] = [[] for _ in workers]
        if not jobs or not workers:
            return shares
        loads = [worker.load for worker in workers]
        for job in jobs:
            slot = min(range(len(workers)),
                       key=lambda s: (loads[s]
                                      + self._ship_penalty(job, workers[s]),
                                      s))
            shares[slot].append(job.index)
            loads[slot] += 1
            self._record(job, workers[slot])
        return shares

    def _ship_penalty(self, job: JobSpec, worker: WorkerSnapshot) -> float:
        if not job.artifact_cached or self.zero_ship(job, worker):
            # Cold jobs ship nothing anywhere; zero-ship workers already
            # hold (or can hydrate) the artifact.
            return 0.0
        return self.MIN_SHIP_PENALTY + job.ship_bytes / self.BYTES_PER_JOB_UNIT


_SCHEDULERS = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LocalityPolicy.name: LocalityPolicy,
}

#: Registered policy names (ARCHITECTURE.md must document every one --
#: ``tools/check_docs.py`` enforces it).
SCHEDULER_NAMES = tuple(_SCHEDULERS)


def validate_scheduler(name: str) -> str:
    """Return ``name`` if it is a registered policy, else raise."""
    if name not in _SCHEDULERS:
        raise ValueError(f"unknown scheduler policy {name!r}; "
                         f"expected one of {sorted(_SCHEDULERS)}")
    return name


def get_scheduler(name: str) -> SchedulerPolicy:
    """Instantiate a placement policy by registered name."""
    return _SCHEDULERS[validate_scheduler(name)]()
