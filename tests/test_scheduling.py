"""Property tests for the pure placement policies.

Fifty seeded random scenarios (worker counts, outstanding loads, held
artifact keys, job mixes) drive each policy directly -- no backend, no
service -- and check the invariants the docstrings promise:

* structural: every job placed exactly once, shares parallel to the
  worker list, dispatch order preserved inside each share;
* ``round_robin``: byte-for-byte the historical striping
  (job *p* on worker ``p % min(workers, jobs)``), loads ignored;
* ``select_target``: the least-loaded candidate, first slot winning.

``round_robin`` is the only registered policy.  Two placements that
were once registered live on here as oracles held to the same
invariants: :class:`ReferenceLeastLoaded` (greedy shortest-queue; one
step of it is ``select_target``) and :class:`ReferenceLocality` (the
same greedy biased by estimated artifact-ship cost -- the artifact-aware
placement the ``locality_hits`` / ``ship_bytes_avoided`` counters would
have to justify).  They drive the base class's counter accounting
(``zero_ship``, ``_record``) with placements ``round_robin`` never
makes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import pytest

from repro.service.scheduling import (
    JobSpec,
    SchedulerPolicy,
    WorkerSnapshot,
    get_scheduler,
)

SEEDS = range(50)


class ReferenceLeastLoaded(SchedulerPolicy):
    """Greedy shortest-queue placement, lowest slot winning ties."""

    name = "least_loaded"

    def assign(self, jobs, workers):
        shares: List[List[int]] = [[] for _ in workers]
        if not jobs or not workers:
            return shares
        loads = [worker.load for worker in workers]
        for job in jobs:
            slot = min(range(len(workers)), key=lambda s: (loads[s], s))
            shares[slot].append(job.index)
            loads[slot] += 1
            self._record(job, workers[slot])
        return shares


class ReferenceLocality(SchedulerPolicy):
    """Least-loaded placement biased by estimated artifact-ship cost.

    Score = outstanding load + ship penalty.  The penalty is zero for a
    zero-ship worker and at least :data:`MIN_SHIP_PENALTY` job-units
    otherwise, growing with the artifact's estimated wire size -- so an
    equally-loaded zero-ship worker always wins, and a large artifact
    tolerates a longer queue before being shipped elsewhere.
    """

    name = "locality"

    MIN_SHIP_PENALTY = 1.0
    #: A ship of this many estimated bytes costs one extra job-unit.
    BYTES_PER_JOB_UNIT = 1 << 20

    def assign(self, jobs, workers):
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
            return 0.0
        return self.MIN_SHIP_PENALTY + job.ship_bytes / self.BYTES_PER_JOB_UNIT


ORACLES = {oracle.name: oracle
           for oracle in (ReferenceLeastLoaded, ReferenceLocality)}

#: The registered policy, plus the oracles.
POLICY_NAMES = sorted(("round_robin", *ORACLES))


def make_policy(name: str) -> SchedulerPolicy:
    if name in ORACLES:
        return ORACLES[name]()
    return get_scheduler(name)

#: Small shared key universe so held/required keys actually collide.
KEY_UNIVERSE = [("recipe", index) for index in range(8)]


def random_workers(rng: random.Random) -> List[WorkerSnapshot]:
    count = rng.randint(1, 6)
    workers = []
    for slot in range(count):
        held = frozenset(key for key in KEY_UNIVERSE if rng.random() < 0.3)
        workers.append(WorkerSnapshot(
            slot=slot,
            load=rng.randint(0, 5),
            held_keys=held,
        ))
    return workers


def random_jobs(rng: random.Random) -> List[JobSpec]:
    count = rng.randint(1, 12)
    jobs = []
    for index in range(count):
        key = rng.choice(KEY_UNIVERSE) if rng.random() < 0.8 else None
        jobs.append(JobSpec(
            index=index,
            artifact_key=key,
            artifact_cached=key is not None and rng.random() < 0.6,
            ship_bytes=rng.choice([0, 1024, 1 << 20, 5 << 20]),
        ))
    return jobs


def replay_order(jobs: Sequence[JobSpec],
                 shares: Sequence[Sequence[int]]) -> List[int]:
    """Map each job (in dispatch order) to the slot its share sits in.

    Also verifies the structural contract: every index appears in exactly
    one share, and each share preserves dispatch order.
    """
    cursors = [0] * len(shares)
    slots = []
    for job in jobs:
        owner: Optional[int] = None
        for slot, share in enumerate(shares):
            if cursors[slot] < len(share) and share[cursors[slot]] == job.index:
                owner = slot
                cursors[slot] += 1
                break
        assert owner is not None, \
            f"job {job.index} missing or out of order in shares {shares}"
        slots.append(owner)
    assert all(cursors[slot] == len(share)
               for slot, share in enumerate(shares)), \
        f"shares contain surplus indices: {shares}"
    return slots


class TestStructuralInvariants:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_job_placed_exactly_once_in_order(self, name, seed):
        rng = random.Random(seed)
        jobs, workers = random_jobs(rng), random_workers(rng)
        policy = make_policy(name)
        shares = policy.assign(jobs, workers)
        assert len(shares) == len(workers)
        replay_order(jobs, shares)
        assert policy.stats["placements"] == len(jobs)

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_empty_inputs_produce_empty_shares(self, name):
        policy = make_policy(name)
        workers = random_workers(random.Random(0))
        assert policy.assign([], workers) == [[] for _ in workers]
        assert policy.assign([JobSpec(index=0)], []) == []
        assert policy.stats["placements"] == 0


class TestRoundRobin:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_pre_refactor_striping_exactly(self, seed):
        rng = random.Random(seed)
        jobs, workers = random_jobs(rng), random_workers(rng)
        shares = get_scheduler("round_robin").assign(jobs, workers)
        width = min(len(workers), len(jobs))
        expected: List[List[int]] = [[] for _ in workers]
        for position, job in enumerate(jobs):
            expected[position % width].append(job.index)
        assert shares == expected, \
            "round_robin must reproduce the historical striping " \
            "byte-for-byte regardless of loads or locality"


class TestLeastLoaded:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_placement_lands_on_a_minimum_load_worker(self, seed):
        rng = random.Random(seed)
        jobs, workers = random_jobs(rng), random_workers(rng)
        shares = ReferenceLeastLoaded().assign(jobs, workers)
        loads = [worker.load for worker in workers]
        for job, slot in zip(jobs, replay_order(jobs, shares)):
            floor = min(loads)
            assert loads[slot] == floor, \
                f"job {job.index} placed on slot {slot} (load " \
                f"{loads[slot]}) while a worker sat at {floor}"
            # Lowest slot wins ties -- determinism the conformance
            # matrix relies on.
            assert slot == min(s for s in range(len(workers))
                               if loads[s] == floor)
            loads[slot] += 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_start_never_exceeds_min_outstanding_plus_one(self, seed):
        # From a level start the greedy keeps the pool level: no worker
        # ever ends more than one job above the minimum.
        rng = random.Random(seed)
        workers = [WorkerSnapshot(slot=slot)
                   for slot in range(rng.randint(1, 6))]
        jobs = [JobSpec(index=index) for index in range(rng.randint(1, 12))]
        shares = ReferenceLeastLoaded().assign(jobs, workers)
        sizes = [len(share) for share in shares]
        assert max(sizes) <= min(sizes) + 1


class TestLocality:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_placement_minimises_load_plus_ship_penalty(self, seed):
        rng = random.Random(seed)
        jobs, workers = random_jobs(rng), random_workers(rng)
        policy = ReferenceLocality()
        shares = policy.assign(jobs, workers)
        loads = [worker.load for worker in workers]
        for job, slot in zip(jobs, replay_order(jobs, shares)):
            scores = [loads[s] + policy._ship_penalty(job, workers[s])
                      for s in range(len(workers))]
            assert scores[slot] == min(scores)
            assert slot == min(s for s in range(len(workers))
                               if scores[s] == min(scores))
            loads[slot] += 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_never_ships_past_an_equally_loaded_holder(self, seed):
        # The headline invariant: an artifact-holding job never lands on
        # a worker that needs the artifact shipped while some zero-ship
        # worker is no more loaded.
        rng = random.Random(seed)
        jobs, workers = random_jobs(rng), random_workers(rng)
        policy = ReferenceLocality()
        shares = policy.assign(jobs, workers)
        loads = [worker.load for worker in workers]
        for job, slot in zip(jobs, replay_order(jobs, shares)):
            if job.artifact_cached and not policy.zero_ship(
                    job, workers[slot]):
                cheaper = [s for s in range(len(workers))
                           if policy.zero_ship(job, workers[s])
                           and loads[s] <= loads[slot]]
                assert not cheaper, \
                    f"job {job.index} shipped to slot {slot} while " \
                    f"zero-ship slots {cheaper} were no more loaded"
            loads[slot] += 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_jobs_place_exactly_like_the_greedy_oracle(self, seed):
        # Nothing cached on the parent means nothing to ship anywhere:
        # the penalty vanishes and locality *is* shortest-queue greedy.
        rng = random.Random(seed)
        workers = random_workers(rng)
        jobs = [JobSpec(index=job.index, artifact_key=job.artifact_key,
                        ship_bytes=job.ship_bytes)
                for job in random_jobs(rng)]
        assert ReferenceLocality().assign(jobs, workers) \
            == ReferenceLeastLoaded().assign(jobs, workers)

    def test_counters_credit_only_zero_ship_placements(self):
        holder = WorkerSnapshot(slot=0, held_keys=frozenset({("recipe", 0)}))
        stranger = WorkerSnapshot(slot=1)
        policy = ReferenceLocality()
        policy.assign([JobSpec(index=0, artifact_key=("recipe", 0),
                               artifact_cached=True, ship_bytes=2048)],
                      [holder, stranger])
        assert policy.stats["locality_hits"] == 1
        assert policy.stats["ship_bytes_avoided"] == 2048
        # A cold job saves nothing even on the holder.
        policy.assign([JobSpec(index=0, artifact_key=("recipe", 1))],
                      [holder, stranger])
        assert policy.stats["locality_hits"] == 1
        assert policy.stats["ship_bytes_avoided"] == 2048

    def test_large_artifacts_tolerate_longer_queues(self):
        # A 5 MiB artifact costs 1 + 5 job-units of penalty: the holder
        # wins even carrying six more outstanding jobs, but loses once
        # the gap exceeds the penalty.
        holder = WorkerSnapshot(slot=0, load=6,
                                held_keys=frozenset({("recipe", 0)}))
        idle = WorkerSnapshot(slot=1, load=0)
        job = JobSpec(index=0, artifact_key=("recipe", 0),
                      artifact_cached=True, ship_bytes=5 << 20)
        assert ReferenceLocality().assign(
            [job], [holder, idle]) == [[0], []]
        far = WorkerSnapshot(slot=0, load=7,
                             held_keys=frozenset({("recipe", 0)}))
        assert ReferenceLocality().assign(
            [job], [far, idle]) == [[], [0]]


class TestSelectTarget:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_redispatch_targets_the_least_loaded_candidate(self, name, seed):
        # Every policy inherits the base re-dispatch choice:
        # least-loaded candidate, first wins -- one step of the greedy
        # oracle.
        rng = random.Random(seed)
        workers = random_workers(rng)
        policy = make_policy(name)
        slot = policy.select_target(JobSpec(index=0), workers)
        floor = min(worker.load for worker in workers)
        assert slot == next(worker.slot for worker in workers
                            if worker.load == floor)
        [greedy] = [worker.slot for worker, share in zip(
            workers, ReferenceLeastLoaded().assign([JobSpec(index=0)],
                                                   workers)) if share]
        assert slot == greedy

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_no_candidates_means_no_target(self, name):
        assert make_policy(name).select_target(JobSpec(index=0), []) is None


def test_locality_penalty_scales_with_ship_bytes():
    policy = ReferenceLocality()
    stranger = WorkerSnapshot(slot=0)
    small = JobSpec(index=0, artifact_key=("recipe", 0),
                    artifact_cached=True, ship_bytes=0)
    large = JobSpec(index=1, artifact_key=("recipe", 0),
                    artifact_cached=True,
                    ship_bytes=2 * ReferenceLocality.BYTES_PER_JOB_UNIT)
    assert policy._ship_penalty(small, stranger) \
        == ReferenceLocality.MIN_SHIP_PENALTY
    assert policy._ship_penalty(large, stranger) \
        == ReferenceLocality.MIN_SHIP_PENALTY + 2.0
