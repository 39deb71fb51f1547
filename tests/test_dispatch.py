"""Property tests for the pooled backends' batch state machine.

:class:`~repro.service.dispatch.BatchDispatch` is driven here the way
``PersistentBackend.drain`` drives it -- pop actions, carry them out,
feed back what happened -- but against fake workers and a fake clock, so
600 seeded fault schedules (random share sizes, answer orders, errors,
late duplicate answers, loud and silent worker deaths, mute workers,
failed sends, lease expiries) run in about a second with no fork.
Each scenario is run once and recorded; each test checks one invariant
over every recording:

* every index ends in exactly one of ``done`` / ``missing``;
* the first answer wins, later ones are only counted;
* at most two live copies of an index exist at any time;
* a worker never holds more than ``max_inflight`` unanswered jobs;
* nothing is sent to a worker after it failed;
* the batch terminates, and stragglers are discarded at its end.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, List

from repro.service.dispatch import LIVENESS_POLL_INTERVAL, BatchDispatch
from repro.service.scheduling import get_scheduler

SEEDS = range(600)
STEP_LIMIT = 5000
#: An occasional clock jump past every lease and several liveness polls.
LONG_PAUSE = 4 * LIVENESS_POLL_INTERVAL + 1.0
COUNTERS = ("worker_deaths", "lease_expirations", "redispatched_jobs",
            "duplicate_results", "parent_evaluations",
            "stragglers_discarded")


class FakeWorker:
    """What the dispatch sees of a pool worker, plus the fake's own fate."""

    def __init__(self, name: int) -> None:
        self.name = name
        #: ``alive()`` turns False: the liveness pass must notice.
        self.dead = False
        #: Never answers a job, but ``alive()`` stays True.
        self.mute = False
        #: The dispatch was told (or decided) this worker is gone.
        self.gone = False
        #: Jobs sent and not answered yet, oldest first.
        self.held: List[int] = []

    def alive(self) -> bool:
        return not self.dead

    def __repr__(self) -> str:
        return f"w{self.name}"


class Recording:
    """Everything one scenario did, for the invariant tests to judge."""

    def __init__(self) -> None:
        self.indices: set = set()
        self.max_inflight = 0
        self.lease = 0.0
        self.finished = False
        self.peak_held: Dict[FakeWorker, int] = {}
        self.peak_copies: Dict[int, int] = {}
        self.sent_to_gone: List[tuple] = []
        #: index -> what ``result`` returned for each answer, in order.
        self.answers: Dict[int, List[bool]] = {}
        self.first_errors: List[int] = []
        self.discarded: List[FakeWorker] = []
        self.workers: List[FakeWorker] = []
        self.dispatch: BatchDispatch = None
        self.stats: Dict[str, int] = {}


def _perform(rng, dispatch, record, now, send_failure):
    for action in iter(dispatch.next_action, None):
        worker = action.worker
        if action.kind == "discard":
            worker.gone = True
            record.discarded.append(worker)
            continue
        if worker.gone:
            record.sent_to_gone.append(action)
        if rng.random() < send_failure:
            worker.gone = True
            dispatch.worker_failed(worker, action.on_failure, now)
        else:
            worker.held.append(action.arg)
            record.peak_held[worker] = max(record.peak_held.get(worker, 0),
                                           len(worker.held))
            copies = sum(1 for other in record.workers
                         if not other.gone and action.arg in other.held)
            record.peak_copies[action.arg] = max(
                record.peak_copies.get(action.arg, 0), copies)


@functools.lru_cache(maxsize=None)
def run_scenario(seed: int) -> Recording:
    rng = random.Random(seed)
    record = Recording()
    lease = record.lease = rng.choice([0.0, 1.0, 4.0])
    record.max_inflight = rng.randint(1, 3)
    send_failure = rng.choice([0.0, 0.0, 0.02, 0.1])
    death_rate = rng.choice([0.0, 0.01, 0.05])
    pace = rng.choice([0.05, 0.3, 2.0])
    workers = record.workers = [FakeWorker(slot)
                                for slot in range(rng.randint(1, 5))]
    for worker in workers:
        # A mute worker only ever ends a batch through a lease; without
        # one it gates the batch by design.
        worker.mute = lease > 0 and rng.random() < 0.15
    cursor = 0
    assignments = []
    for worker in workers:
        share = list(range(cursor, cursor + rng.randint(0, 6)))
        cursor += len(share)
        if share:
            assignments.append((worker, share))
    parent_eval = [(cursor + extra, "failed during cache sync")
                   for extra in range(rng.choice([0, 0, 0, 2]))]
    record.indices = set(range(cursor + len(parent_eval)))
    now = 100.0
    stats = record.stats = dict.fromkeys(COUNTERS, 0)
    dispatch = record.dispatch = BatchDispatch(
        assignments, parent_eval, name="fake",
        policy=get_scheduler("round_robin"), stats=stats,
        max_inflight=record.max_inflight, lease_timeout=lease, now=now)
    _perform(rng, dispatch, record, now, send_failure)
    for _ in range(STEP_LIMIT):
        if dispatch.finished:
            break
        active = list(dispatch.active)
        answerable = [w for w in active if w.held and not w.mute
                      and not w.dead]
        roll = rng.random()
        if answerable and roll < 0.6:
            worker = rng.choice(answerable)
            index = worker.held.pop(0 if rng.random() < 0.8
                                    else rng.randrange(len(worker.held)))
            if rng.random() < 0.05:
                before = len(dispatch.errors)
                dispatch.error(worker, index, "Traceback: boom", now)
                first = len(dispatch.errors) > before
                if first:
                    record.first_errors.append(index)
            else:
                first = dispatch.result(worker, index, now)
            record.answers.setdefault(index, []).append(first)
        elif active and roll < 0.7 + death_rate:
            worker = rng.choice(active)
            if rng.random() < 0.5:
                worker.dead = True      # silent: the next tick finds out
            else:
                worker.gone = True      # loud: the read failed
                dispatch.worker_failed(worker, "died mid-batch", now)
        else:
            now += (LONG_PAUSE if rng.random() < 0.05
                    else pace * rng.choice([0.2, 1.0, 3.0]))
            dispatch.tick(now)
        _perform(rng, dispatch, record, now, send_failure)
    record.finished = dispatch.finished
    dispatch.finish()
    _perform(rng, dispatch, record, now, 0.0)
    return record


def _each():
    for seed in SEEDS:
        yield seed, run_scenario(seed)


def test_scenarios_cover_every_fault_path():
    # The schedule generator is only worth something if it actually
    # reaches the machinery: every counter the dispatch owns moves.
    totals = dict.fromkeys(COUNTERS, 0)
    for _, record in _each():
        for key, value in record.stats.items():
            totals[key] += value
    idle = [key for key, value in totals.items() if not value]
    assert not idle, f"no scenario exercised {idle}"
    assert any(record.first_errors for _, record in _each())
    assert any(record.dispatch.missing for _, record in _each())


def test_every_batch_terminates():
    for seed, record in _each():
        assert record.finished, f"seed {seed}: still waiting after " \
                                f"{STEP_LIMIT} steps"
        assert record.dispatch.next_action() is None


def test_every_index_ends_in_exactly_one_of_done_or_missing():
    for seed, record in _each():
        done, missing = record.dispatch.done, set(record.dispatch.missing)
        assert done | missing == record.indices, \
            f"seed {seed}: lost {record.indices - done - missing}"
        assert not done & missing, \
            f"seed {seed}: {done & missing} both answered and left to " \
            f"the parent"
        assert missing <= set(record.dispatch.fallback_reasons), \
            f"seed {seed}: a parent evaluation carries no reason"


def test_first_result_wins_and_later_ones_are_only_counted():
    for seed, record in _each():
        for index, firsts in record.answers.items():
            assert firsts[0] is True and not any(firsts[1:]), \
                f"seed {seed}: index {index} accepted answers {firsts}"
        assert set(record.answers) == record.dispatch.done, f"seed {seed}"
        duplicates = sum(len(firsts) - 1
                         for firsts in record.answers.values())
        assert record.stats["duplicate_results"] == duplicates, \
            f"seed {seed}"
        assert sorted(index for index, _ in record.dispatch.errors) \
            == sorted(record.first_errors), f"seed {seed}"


def test_at_most_two_live_copies_of_an_index():
    for seed, record in _each():
        crowded = {index: copies
                   for index, copies in record.peak_copies.items()
                   if copies > 2}
        assert not crowded, f"seed {seed}: live copies {crowded}"
        if not record.lease:
            assert not record.stats["lease_expirations"], f"seed {seed}"


def test_inflight_window_is_never_exceeded():
    for seed, record in _each():
        over = {worker: held for worker, held in record.peak_held.items()
                if held > record.max_inflight}
        assert not over, f"seed {seed}: window {record.max_inflight}, " \
                         f"held {over}"


def test_nothing_is_sent_to_a_failed_worker():
    for seed, record in _each():
        assert not record.sent_to_gone, \
            f"seed {seed}: {record.sent_to_gone}"
        assert len(set(record.discarded)) == len(record.discarded), \
            f"seed {seed}: a worker was discarded twice"


def test_workers_still_owing_an_answer_are_discarded_at_the_end():
    for seed, record in _each():
        owing = [worker for worker in record.workers
                 if worker.held and not worker.gone]
        assert not owing, f"seed {seed}: {owing} would answer into the " \
                          f"next batch"
