"""Discrete-event cluster simulator (Algorithms 1-2 of the paper).

The engine replays a collated job trace against a cluster specification:

* each simulated rank has a **host dispatch queue** that walks its trace in
  program order, paying the measured host delays (structured ``HOST_DELAY``
  events record only the deterministic base cost; the per-call jitter factor
  is materialized at replay time -- same seed, same call seq, same multiply
  as pre-split emulators, so replay is bit-identical to traces that baked
  the jitter in), enqueueing device work onto streams and blocking on
  synchronisation calls;
* each (rank, stream) pair is a FIFO **execution stream** that runs kernels,
  copies and collectives one at a time;
* CUDA events and collectives are resolved through the wait maps of
  Algorithm 3, which is where pipeline bubbles and compute/communication
  overlap emerge from first principles.

Durations come from a pluggable :class:`DurationProvider`; the engine itself
is shared between Maya's prediction path and the testbed reference model.

**How the engine reads a trace.**  There is one replay loop, and it never
touches a ``TraceEvent``.  Each representative trace's columns are lowered
once to an :class:`~repro.core.columnar.EngineProgram` (flat opcode /
operand lists, memoized on the columns), and every duration it will need is
resolved up front into :class:`TraceAnnotations` -- per-rank arrays of
kernel and materialized host-delay durations plus pre-resolved communicator
groups and matching keys.  Providers that implement ``annotate_trace`` (both
built-in ones, memoized per trace content) supply them; for any other
provider the engine makes one :func:`build_trace_annotations` pass over the
two-method per-event protocol.  The inner loop is then integer dispatch and
list indexing only.

**Tensor-parallel mirrors.**  Selective launch emulates one rank per
pipeline stage because tensor- and data-parallel peers do identical work;
the engine carries that over to replay.  When
:func:`tensor_parallel_mirrors` allows it, rank ``(dp, pp, t)`` with
``t > 0`` is not replayed: it *mirrors* ``(dp, pp, 0)``, and the report
gives it a copy of that rank's counters and markers.  This is exact, not
an approximation: under the rule's conditions column ``t`` runs the same
program with the same durations as column 0 (the same representative
trace, a shape-keyed provider, groups of the same size spanning the same
nodes), and the columns meet only in ``tp`` collectives.  With every
column replayed such a collective starts at the latest of identical
arrival times; with column 0 alone it expects one participant and starts
at that same time.  So every clock, counter and marker is bit-identical
to the full replay (the differential suites check it against the
per-event oracle); only ``processed_events`` and the timing metadata
shrink, and ``replayed_ranks`` records how many ranks ran.  There is no
switch: a provider that does not declare ``rank_invariant_kernels`` (the
jittered testbed) replays every rank.

**Steady-state iteration folding.**  When the trace contains ``N >= 5``
iteration-marker windows whose bodies and inter-iteration glue are
canonically identical (see :func:`repro.core.collator.windows_are_periodic`)
and the provider declares ``supports_iteration_folding`` (duration is a
pure function of the event's shape, e.g. Maya's estimated provider, but
*not* the jittered testbed provider), the engine simulates the first four
windows plus the trace tail and extrapolates the remaining ``N - 4``
iterations analytically.  The fold only commits if every rank was
quiescent at its window boundaries and the measured per-rank period was
stable across the two verification windows (within
``SimulationConfig.fold_tolerance``, which defaults to rounding-level
drift; set 0.0 to demand bitwise-identical periods); otherwise the
engine transparently re-runs the full simulation.  Folding is exact up to
that rounding-level period drift except on structured jittered host
delays, which are treated *analytically*: the truncated replay
materializes them at the window-mean jitter factor of 1.0 (i.e. the
recorded base cost), so the windows stay exactly periodic and the
extrapolated total differs from the full replay by at most
``sqrt(3) * jitter`` times the total base host-delay time (``fast_noise``
is uniform within ``1 +- jitter*sqrt(3)``, and a critical path can
traverse each host delay at most once); the committed bound is reported as
``host_jitter_bound_s`` in the fold metadata.  Disable with
``SimulationConfig.fold_iterations=False``.

The loop is checked against an independent per-event replay that walks the
event objects and calls the provider once per event
(``tests/reference_engine.py``), bit for bit over seeded random traces, and
both are pinned to recorded reports (``tests/goldens/engine_reports.json``).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.collator import (
    CollatedTrace,
    IterationWindows,
    TopologyGroupResolver,
    find_iteration_windows,
    windows_are_periodic,
)
from repro.core.columnar import (
    _ITERATION_MARKER,
    E_COLLECTIVE,
    E_DEVICE_SYNC,
    E_EVENT_SYNC,
    E_HOST_DELAY,
    E_KERNEL,
    E_MARKER,
    E_RECORD,
    E_STREAM_SYNC,
    EngineProgram,
    engine_program,
)
from repro.core.simulator.providers import (
    DurationProvider,
    TraceAnnotations,
    build_trace_annotations,
)
from repro.core.simulator.report import RankReport, SimulationReport
from repro.core.simulator.waitmaps import (
    CollectiveWaitMap,
    CudaEventWaitMap,
    P2PWaitMap,
)
from repro.core.trace import K_MARKER, WorkerTrace
from repro.hardware.cluster import ClusterSpec
from repro.hardware.host_model import HOST_MODEL_METADATA_KEY


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress (deadlock) or is
    otherwise mis-configured."""


@dataclass
class SimulationConfig:
    """Tunables of the simulation engine."""

    #: Ranks to simulate explicitly; ``None`` simulates the full world.
    simulate_ranks: Optional[Sequence[int]] = None
    #: Extra per-kernel slowdown applied while a collective is in flight on
    #: the same device.  Models SM contention; the paper notes Maya does NOT
    #: model this (Section 8), so it is enabled only for the testbed.
    sm_contention_factor: float = 1.0
    #: Fixed receiver-side completion overhead for point-to-point transfers.
    p2p_recv_overhead: float = 3.0e-6
    #: Whether host-side delays captured during emulation are replayed.
    include_host_overheads: bool = True
    #: Safety valve: maximum number of processed simulation events.
    max_events: int = 50_000_000
    #: Fold repeated steady-state iterations instead of simulating each.
    fold_iterations: bool = True
    #: Maximum *relative* disagreement between the two verification-window
    #: periods for a fold to commit.  Even a perfectly periodic workload
    #: accumulates floating-point rounding of ~1 ulp per window, so the
    #: default admits rounding-level drift (the extrapolated total then
    #: differs from the full replay by at most that much per
    #: folded iteration).  Set to 0.0 to require bitwise-identical periods.
    fold_tolerance: float = 1e-9


# Internal host states.
_HOST_RUNNING = 0
_HOST_BLOCKED = 1
_HOST_DONE = 2

#: Iteration windows simulated explicitly before folding: warm-up (0), the
#: representative window (1) and two verification windows (2, 3) whose
#: boundary-to-boundary periods must agree bitwise.
_FOLD_SIMULATED_WINDOWS = 4
#: Folding needs the simulated windows plus at least one window to fold.
_FOLD_MIN_ITERATIONS = _FOLD_SIMULATED_WINDOWS + 1

#: Bound on the provider-attached fold-veto memo (oldest-first eviction).
_FOLD_VETO_LIMIT = 256

#: Half-width of ``fast_noise``'s uniform support relative to ``scale``
#: (the jitter factor lies in ``1 +- scale * sqrt(3)``).
_SQRT3 = math.sqrt(3.0)

#: Communicator tags whose groups the topology resolver remaps per rank.
_TOPOLOGY_TAGS = frozenset(("tp", "pp", "dp"))


class _Stream:
    """FIFO execution stream of one simulated rank."""

    __slots__ = ("rank", "stream_id", "queue", "busy", "available_time",
                 "blocked", "sync_waiters", "kernel_durations",
                 "collective_annotations", "codes", "seqs", "ekeys")

    def __init__(self, rank: int, stream_id: int, program: EngineProgram,
                 annotations: TraceAnnotations) -> None:
        self.rank = rank
        self.stream_id = stream_id
        #: Pending work, as positions into the rank's program.
        self.queue: Deque[int] = deque()
        self.busy = False
        self.blocked = False
        self.available_time = 0.0
        self.sync_waiters: List["_Host"] = []
        #: Per-seq duration array shared by all of the rank's streams.
        self.kernel_durations = annotations.kernel_durations[rank]
        #: Per-seq pre-resolved (resolution, group, key, duration) tuples.
        self.collective_annotations = annotations.collectives[rank]
        self.codes = program.codes
        self.seqs = program.seqs
        self.ekeys = program.ekeys

    def drained(self) -> bool:
        return not self.busy and not self.queue


class _Host:
    """Host dispatch queue of one simulated rank."""

    __slots__ = ("rank", "cursor", "state", "time", "waiting_streams",
                 "markers", "host_durations", "codes", "streams0", "seqs",
                 "ekeys", "labels", "base_durations", "n")

    def __init__(self, rank: int, program: EngineProgram,
                 host_durations: Optional[List[float]]) -> None:
        self.rank = rank
        self.cursor = 0
        self.state = _HOST_RUNNING
        self.time = 0.0
        self.waiting_streams: Set[Tuple[int, int]] = set()
        self.markers: Dict[str, float] = {}
        #: Per-seq materialized HOST_DELAY durations; ``None`` in a fold
        #: replay, which pays the position-indexed ``base_durations``.
        self.host_durations = host_durations
        self.codes = program.codes
        self.streams0 = program.streams
        self.seqs = program.seqs
        self.ekeys = program.ekeys
        self.labels = program.labels
        self.base_durations = program.durations
        self.n = program.n


@dataclass(frozen=True)
class _FoldPlan:
    """A validated opportunity to fold steady-state iterations."""

    #: Iteration windows present in every simulated representative trace.
    iterations: int
    #: Marker indices per representative rank.
    windows: Dict[int, IterationWindows]
    #: Windows simulated explicitly (0 .. simulated-1).
    simulated: int = _FOLD_SIMULATED_WINDOWS

    @property
    def folded(self) -> int:
        return self.iterations - self.simulated

    @property
    def capture_labels(self) -> Tuple[str, ...]:
        """End markers snapshotted for period measurement/verification."""
        return tuple(f"iteration-{k}-end"
                     for k in range(1, self.simulated))

    def truncate(self, collated: CollatedTrace) -> CollatedTrace:
        """Copy of ``collated`` keeping only the simulated windows + tail.

        Rows keep their original sequence numbers (and the template pool
        is shared), so the collator's per-seq collective resolutions stay
        valid.
        """
        traces: Dict[int, WorkerTrace] = {}
        for rep, trace in collated.traces.items():
            windows = self.windows.get(rep)
            if windows is None:
                traces[rep] = trace
                continue
            traces[rep] = WorkerTrace(
                rank=trace.rank, device=trace.device,
                peak_memory_bytes=trace.peak_memory_bytes, oom=trace.oom,
                metadata=trace.metadata,
                columns=trace.columns.drop_rows(
                    windows.ends[self.simulated - 1] + 1, windows.tail_index),
            )
        return CollatedTrace(
            world_size=collated.world_size,
            traces=traces,
            representative=collated.representative,
            resolutions=collated.resolutions,
            group_resolver=collated.group_resolver,
            stats=collated.stats,
        )


def plan_iteration_fold(collated: CollatedTrace,
                        ranks: Sequence[int]) -> Optional[_FoldPlan]:
    """Check whether ``collated`` supports steady-state iteration folding.

    Requires every simulated representative trace to carry a full, ordered
    set of ``N >= 5`` iteration-marker windows, with windows ``1 .. N-1``
    canonically periodic, no cross-window event-synchronisation and a
    marker-free tail.
    """
    representatives = sorted({collated.representative[rank] for rank in ranks})
    windows: Dict[int, IterationWindows] = {}
    count: Optional[int] = None
    for rep in representatives:
        trace = collated.traces[rep]
        found = find_iteration_windows(trace)
        if found is None:
            return None
        if count is None:
            count = found.count
        elif found.count != count:
            return None
        markers = trace.columns.rows(K_MARKER)
        if markers and markers[-1] >= found.tail_index:
            return None  # tail markers would need extrapolation too
        windows[rep] = found
    if count is None or count < _FOLD_MIN_ITERATIONS:
        return None
    for rep in representatives:
        if not windows_are_periodic(collated.traces[rep], windows[rep]):
            return None
    return _FoldPlan(iterations=count, windows=windows)


def tensor_parallel_mirrors(cluster: ClusterSpec, provider: DurationProvider,
                            collated: CollatedTrace,
                            ranks: Sequence[int]) -> Dict[int, int]:
    """Requested ranks whose timeline is a copy of a tensor-parallel peer's.

    Maps rank ``(dp, pp, t)``, ``t > 0``, to ``(dp, pp, 0)`` (see the
    module docstring for why that is exact) when all of these hold:

    * the provider declares ``rank_invariant_kernels``;
    * groups come from a :class:`TopologyGroupResolver` and every
      collective of the requested ranks' representatives is tagged
      ``tp``, ``pp`` or ``dp``;
    * ``gpus_per_node`` is a multiple of the tensor-parallel degree, so
      each of column ``t``'s groups spans the nodes of column 0's;
    * the requested ranks are whole tensor-parallel groups, every member
      sharing the representative trace of the group's column-0 rank.

    Otherwise nothing is mirrored.
    """
    resolver = collated.group_resolver
    if not (getattr(provider, "rank_invariant_kernels", False)
            and isinstance(resolver, TopologyGroupResolver)):
        return {}
    topology = resolver.topology
    width = topology.tensor_parallel
    if width == 1 or cluster.gpus_per_node % width:
        return {}
    representative = collated.representative
    for rep in {representative[rank] for rank in ranks}:
        if any(resolution.tag not in _TOPOLOGY_TAGS
               for resolution in collated.resolutions.get(rep, {}).values()):
            return {}
    requested = set(ranks)
    mirrors: Dict[int, int] = {}
    for rank in ranks:
        group = topology.tensor_parallel_group(rank)
        source = group[0]
        if (not requested.issuperset(group)
                or representative[rank] != representative[source]):
            return {}
        if rank != source:
            mirrors[rank] = source
    return mirrors


class ClusterSimulator:
    """Replays a collated trace on a simulated cluster."""

    def __init__(self, cluster: ClusterSpec, provider: DurationProvider,
                 config: Optional[SimulationConfig] = None) -> None:
        self.cluster = cluster
        self.provider = provider
        self.config = config or SimulationConfig()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def simulate(self, collated: CollatedTrace,
                 iterations: int = 1) -> SimulationReport:
        start = time.perf_counter()
        ranks = self._resolve_ranks(collated)
        mirrors = tensor_parallel_mirrors(self.cluster, self.provider,
                                          collated, ranks)
        state = self._run_state(collated, ranks, mirrors)
        report = state.build_report(iterations)
        wall_time = time.perf_counter() - start
        report.metadata["wall_time_s"] = wall_time
        report.metadata["events_per_sec"] = (
            state.processed_events / wall_time if wall_time > 0.0 else 0.0)
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_ranks(self, collated: CollatedTrace) -> List[int]:
        if self.config.simulate_ranks is not None:
            ranks = sorted(set(self.config.simulate_ranks))
        else:
            ranks = list(range(collated.world_size))
        missing = [rank for rank in ranks if rank not in collated.representative]
        if missing:
            raise SimulationError(f"no trace available for ranks {missing[:8]}")
        return ranks

    def _run_state(self, collated: CollatedTrace, ranks: List[int],
                   mirrors: Dict[int, int]) -> "_SimulationState":
        replayed = [rank for rank in ranks if rank not in mirrors]
        plan = truncated = None
        veto_key = None
        if (self.config.fold_iterations
                and getattr(self.provider, "supports_iteration_folding",
                            False)):
            plan, truncated = self._fold_plan_for(collated, replayed)
        if plan is not None:
            # Fold-commit failures depend on this provider's durations and
            # the configured tolerance, so the negative memo lives on the
            # provider (the structural plan above stays provider-agnostic).
            # An insertion-ordered dict doubles as a bounded FIFO: when the
            # memo fills up, the oldest veto is evicted -- hot traces keep
            # their entries instead of the whole memo being wiped.
            vetoes = getattr(self.provider, "_fold_vetoes", None)
            if vetoes is None:
                vetoes = {}
                self.provider._fold_vetoes = vetoes
            veto_key = (collated.content_signature(), tuple(replayed),
                        self.config.fold_tolerance)
            if veto_key in vetoes:
                plan = None
        if plan is not None:
            state = _SimulationState(self, truncated, ranks, mirrors,
                                     fold_plan=plan)
            try:
                state.run()
            except SimulationError:
                state = None  # truncated replay failed; use the full trace
            if state is not None and state.commit_fold(plan):
                return state
            # Boundary verification failed: don't pay the truncated replay
            # again for this (trace, ranks, tolerance) on this provider.
            while len(vetoes) >= _FOLD_VETO_LIMIT:
                vetoes.pop(next(iter(vetoes)))
            vetoes[veto_key] = True
        state = _SimulationState(self, collated, ranks, mirrors)
        state.run()
        return state

    @staticmethod
    def _fold_plan_for(collated: CollatedTrace, ranks: List[int]
                       ) -> Tuple[Optional[_FoldPlan], Optional[CollatedTrace]]:
        """Fold plan + truncated trace, memoized on the collated object.

        Window fingerprinting and truncation are O(events); artifacts are
        shared across trials through the service cache, so stashing the
        result on the instance makes repeated simulations pay it once.
        """
        cache: Dict[Tuple[int, ...], Tuple] = getattr(
            collated, "_fold_plan_cache", None)
        if cache is None:
            cache = {}
            collated._fold_plan_cache = cache  # type: ignore[attr-defined]
        key = tuple(ranks)
        entry = cache.get(key)
        if entry is None:
            plan = plan_iteration_fold(collated, ranks)
            truncated = plan.truncate(collated) if plan is not None else None
            entry = (plan, truncated)
            cache[key] = entry
        return entry


class _SimulationState:
    """Mutable state of one simulation run.

    Only the replayed ranks (``ranks``) get hosts, streams and reports;
    the mirrors are added back by :meth:`build_report`.
    """

    def __init__(self, simulator: ClusterSimulator, collated: CollatedTrace,
                 requested: List[int], mirrors: Dict[int, int],
                 fold_plan: Optional[_FoldPlan] = None) -> None:
        self.sim = simulator
        self.collated = collated
        self.config = simulator.config
        self.provider = simulator.provider
        #: Every requested rank, in rank order; mirror -> replayed source.
        self.requested = requested
        self.mirrors = mirrors
        ranks = [rank for rank in requested if rank not in mirrors]
        self.ranks = ranks
        self.rank_set = set(ranks)

        # Providers without a batch ``annotate_trace`` get one un-memoized
        # pass over their per-event protocol.
        annotate = getattr(self.provider, "annotate_trace", None)
        self.annotations: TraceAnnotations = (
            annotate(collated, ranks) if annotate is not None
            else build_trace_annotations(self.provider, collated, ranks))

        self.fold_plan = fold_plan
        self._fold_capture_labels: Set[str] = (
            set(fold_plan.capture_labels) if fold_plan is not None else set())
        self.fold_valid = fold_plan is not None
        #: (rank, label) -> (host time, report counter snapshot).
        self.fold_snapshots: Dict[Tuple[int, str], Tuple] = {}
        self.fold_info: Optional[Dict[str, object]] = None

        rep_programs = {
            rep: engine_program(collated.traces[rep].columns)
            for rep in {collated.representative[rank] for rank in ranks}}
        self.programs: Dict[int, EngineProgram] = {
            rank: rep_programs[collated.representative[rank]]
            for rank in ranks}
        # A full replay pays the materialized host delays (structured
        # traces: base cost times the per-call jitter factor).  A fold
        # replay deliberately pays the recorded base cost instead -- the
        # window-mean jitter factor of 1.0 -- so that steady-state windows
        # stay exactly periodic and extrapolation is the analytic mean over
        # the folded jitter stream.
        self.hosts: Dict[int, _Host] = {
            rank: _Host(rank, self.programs[rank],
                        self.annotations.host_durations[rank]
                        if fold_plan is None else None)
            for rank in ranks}
        self._sm_contention = self.config.sm_contention_factor > 1.0
        self.streams: Dict[Tuple[int, int], _Stream] = {}
        self.event_map = CudaEventWaitMap()
        self.collective_map = CollectiveWaitMap()
        self.p2p_map = P2PWaitMap()
        #: Number of in-flight collectives per rank (SM-contention modelling).
        self.inflight_collectives: Dict[int, int] = {rank: 0 for rank in ranks}
        self.queue: List[Tuple[float, int, int, object]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self.processed_events = 0
        self.rank_reports: Dict[int, RankReport] = {
            rank: RankReport(rank=rank) for rank in ranks
        }

    # ------------------------------------------------------------------
    # event queue helpers
    # ------------------------------------------------------------------
    _HOST_READY = 0
    #: Op completions carry only the stream; whether the finished op was a
    #: collective (for SM-contention accounting) is encoded in the heap kind.
    _OP_END = 1
    _COLL_END = 2

    def _schedule(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self.queue, (time, next(self._counter), kind, payload))

    def _stream(self, rank: int, stream_id: int) -> _Stream:
        # Programs already map the default stream (``None``) to 0.
        key = (rank, stream_id)
        stream = self.streams.get(key)
        if stream is None:
            stream = _Stream(rank, stream_id, self.programs[rank],
                             self.annotations)
            self.streams[key] = stream
        return stream

    # ------------------------------------------------------------------
    # main loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> None:
        for host in self.hosts.values():
            self._advance_host(host, 0.0)
        queue = self.queue
        heappop = heapq.heappop
        max_events = self.config.max_events
        host_ready = self._HOST_READY
        coll_end = self._COLL_END
        while queue:
            time, _, kind, payload = heappop(queue)
            if self.now < time:
                self.now = time
            self.processed_events += 1
            if self.processed_events > max_events:
                raise SimulationError(
                    f"simulation exceeded max_events budget "
                    f"({self.config.max_events:,}): world size "
                    f"{self.collated.world_size} with {len(self.ranks)} "
                    f"replayed ranks processed {self.processed_events:,} "
                    f"events at simulated time {self.now:.3f}s"
                )
            if kind == host_ready:
                host = payload
                if host.state != _HOST_DONE:
                    host.state = _HOST_RUNNING
                    self._advance_host(host, time)
            else:
                self._finish_op(payload, kind == coll_end, time)
        self._check_finished()

    def _check_finished(self) -> None:
        stuck_hosts = [host.rank for host in self.hosts.values()
                       if host.state != _HOST_DONE]
        stuck_streams = [key for key, stream in self.streams.items()
                         if not stream.drained()]
        if stuck_hosts or stuck_streams:
            pending_colls = list(self.collective_map.pending().keys())[:4]
            pending_p2p = list(self.p2p_map.pending().keys())[:4]
            raise SimulationError(
                "simulation deadlocked: "
                f"hosts blocked on ranks {stuck_hosts[:8]}, "
                f"streams stuck {stuck_streams[:8]}, "
                f"pending collectives {pending_colls}, "
                f"pending p2p {pending_p2p}"
            )

    # ------------------------------------------------------------------
    # host dispatch queue
    # ------------------------------------------------------------------
    def _advance_host(self, host: _Host, now: float) -> None:
        """Run ``host`` forward until it pays a delay, blocks or finishes.

        Every state transition, float operation and schedule happens in the
        order the reference replay performs it, which is what makes the two
        bit-identical (asserted by the randomized differential suites).
        """
        if host.time < now:
            host.time = now
        codes = host.codes
        streams0 = host.streams0
        streams = self.streams
        rank = host.rank
        n = host.n
        cursor = host.cursor
        while cursor < n:
            code = codes[cursor]
            if code < E_HOST_DELAY:  # enqueue device work (E_KERNEL..E_WAIT)
                stream = streams.get((rank, streams0[cursor]))
                if stream is None:
                    stream = self._stream(rank, streams0[cursor])
                stream.queue.append(cursor)
                cursor += 1
                # A busy/blocked stream cannot start new work: the drain
                # loop would return immediately, so skip the call.
                if not stream.busy and not stream.blocked:
                    self._try_start_stream(stream, host.time)
                continue
            if code == E_HOST_DELAY:
                cursor += 1
                if not self.config.include_host_overheads:
                    continue
                if host.host_durations is not None:
                    duration = host.host_durations[host.seqs[cursor - 1]]
                else:
                    # Fold replay: the recorded base cost (the window-mean
                    # jitter factor of 1.0).
                    duration = host.base_durations[cursor - 1]
                host.time += duration
                self.rank_reports[rank].host_time += duration
                host.cursor = cursor
                self._schedule(host.time, self._HOST_READY, host)
                return
            if code == E_MARKER:
                label = host.labels[cursor]
                host.markers[label] = host.time
                if label in self._fold_capture_labels:
                    self._capture_fold_snapshot(host, label)
                cursor += 1
                continue
            if code == E_EVENT_SYNC:
                key = (rank,) + host.ekeys[cursor]
                if self.event_map.is_complete(key):
                    completion = self.event_map.completion_time(key)
                    if host.time < completion:
                        host.time = completion
                    cursor += 1
                    continue
                host.cursor = cursor
                self.event_map.block(key, ("host", host))
                host.state = _HOST_BLOCKED
                return
            if code == E_STREAM_SYNC:
                stream = self._stream(rank, streams0[cursor])
                if stream.drained():
                    if host.time < stream.available_time:
                        host.time = stream.available_time
                    cursor += 1
                    continue
                stream.sync_waiters.append(host)
                host.waiting_streams = {(rank, stream.stream_id)}
                host.state = _HOST_BLOCKED
                host.cursor = cursor + 1
                return
            if code == E_DEVICE_SYNC:
                pending = {key for key, stream in streams.items()
                           if key[0] == rank and not stream.drained()}
                if not pending:
                    latest = max((stream.available_time
                                  for key, stream in streams.items()
                                  if key[0] == rank), default=host.time)
                    if host.time < latest:
                        host.time = latest
                    cursor += 1
                    continue
                for key in pending:
                    streams[key].sync_waiters.append(host)
                host.waiting_streams = pending
                host.state = _HOST_BLOCKED
                host.cursor = cursor + 1
                return
            # E_SKIP: event-handle create/destroy records never enqueue.
            cursor += 1
        host.cursor = cursor
        host.state = _HOST_DONE
        report = self.rank_reports[rank]
        if report.finish_time < host.time:
            report.finish_time = host.time

    def _release_host(self, host: _Host, time: float) -> None:
        # Only a blocked host may be released.  Two streams draining at the
        # same timestamp can both notify one device-synchronize waiter; the
        # duplicate release used to enqueue a second HOST_READY that pushed
        # the host past its *next* synchronize (the cursor advances before
        # blocking), letting it run ahead of busy streams.
        if host.state != _HOST_BLOCKED:
            return
        host.state = _HOST_RUNNING
        self._schedule(time, self._HOST_READY, host)

    def _notify_stream_drained(self, stream: _Stream, time: float) -> None:
        if not stream.drained() or not stream.sync_waiters:
            return
        waiters, stream.sync_waiters = stream.sync_waiters, []
        for host in waiters:
            host.waiting_streams.discard((stream.rank, stream.stream_id))
            if not host.waiting_streams:
                host.time = max(host.time, time)
                self._release_host(host, time)
            else:
                # Still waiting on other streams (device synchronize).
                stream_key_pending = False
                for key in list(host.waiting_streams):
                    pending_stream = self.streams.get(key)
                    if pending_stream is None or pending_stream.drained():
                        host.waiting_streams.discard(key)
                    else:
                        stream_key_pending = True
                if not stream_key_pending:
                    host.time = max(host.time, time)
                    self._release_host(host, time)

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def _try_start_stream(self, stream: _Stream, now: float) -> None:
        """Drain ``stream`` and wake its synchronizers if it ran dry.

        Inlines :meth:`_Stream.drained`; the notification is skipped when
        nobody is synchronizing on the stream (it would be a no-op).
        """
        self._drain_stream(stream, now)
        if (stream.sync_waiters and not stream.busy and not stream.blocked
                and not stream.queue):
            available = stream.available_time
            self._notify_stream_drained(
                stream, available if available > now else now)

    def _drain_stream(self, stream: _Stream, now: float) -> None:
        """Start queued work until the stream is busy, blocked or empty."""
        codes = stream.codes
        seqs = stream.seqs
        queue = stream.queue
        kernel_durations = stream.kernel_durations
        while not stream.busy and not stream.blocked and queue:
            pos = queue[0]
            start = stream.available_time
            if start < now:
                start = now
            code = codes[pos]
            if code < E_COLLECTIVE:  # kernel / memcpy / memset
                duration = kernel_durations[seqs[pos]]
                if (code == E_KERNEL and self._sm_contention
                        and self.inflight_collectives.get(stream.rank,
                                                          0) > 0):
                    duration *= self.config.sm_contention_factor
                queue.popleft()
                stream.busy = True
                end = start + duration
                stream.available_time = end
                report = self.rank_reports[stream.rank]
                if code == E_KERNEL:
                    report.compute_time += duration
                    report.kernel_count += 1
                else:
                    report.memcpy_time += duration
                self._schedule(end, self._OP_END, stream)
                return
            if code == E_COLLECTIVE:
                if self._start_collective(stream, seqs[pos], start):
                    continue
                return
            if code == E_RECORD:
                queue.popleft()
                stream.available_time = start
                key = (stream.rank,) + stream.ekeys[pos]
                for waiter in self.event_map.record(key, start):
                    self._release_waiter(waiter, start)
                continue
            # E_WAIT: stream-waits-event.
            key = (stream.rank,) + stream.ekeys[pos]
            if self.event_map.is_complete(key):
                queue.popleft()
                completion = self.event_map.completion_time(key)
                stream.available_time = (start if start > completion
                                         else completion)
                continue
            stream.blocked = True
            self.event_map.block(key, ("stream", stream))
            return

    def _release_waiter(self, waiter: Tuple[str, object], time: float) -> None:
        kind, target = waiter
        if kind == "host":
            host = target
            host.time = max(host.time, time)
            host.cursor += 1  # consume the EVENT_SYNCHRONIZE entry
            self._release_host(host, time)
        elif kind == "stream":
            stream = target
            stream.blocked = False
            stream.queue.popleft()  # consume the STREAM_WAIT_EVENT entry
            stream.available_time = max(stream.available_time, time)
            self._try_start_stream(stream, time)
        else:  # "recv": the matching send's payload has arrived
            stream, recv_ready = target
            self._complete_recv(stream, recv_ready, time)

    # ------------------------------------------------------------------
    # collectives and point-to-point transfers
    # ------------------------------------------------------------------
    def _start_collective(self, stream: _Stream, seq: int,
                          start: float) -> bool:
        """Start the collective at the head of ``stream``.

        Returns True when the stream can keep draining immediately, False
        when it is now busy or blocked.  Every resolvable collective carries
        a pre-resolved (resolution, group, key, duration) annotation; a
        missing entry means the collator had no resolution for it, and it
        replays as a local no-op.
        """
        annotated = stream.collective_annotations.get(seq)
        if annotated is None:
            stream.queue.popleft()
            stream.available_time = start
            return True
        resolution, group, key, duration = annotated
        if resolution.is_p2p:
            self._start_p2p(stream, resolution.op, key, start, duration)
            return False
        expected = sum(1 for rank in group if rank in self.rank_set)
        expected = max(expected, 1)
        instance = self.collective_map.join(key, expected, stream.rank,
                                            stream.stream_id, start)
        if instance is None:
            stream.blocked = True
            return False
        coll_start = instance.start_time
        end = coll_start + duration
        for rank, stream_id, ready in instance.joined:
            member = self._stream(rank, stream_id)
            member.blocked = False
            if member.queue:
                member.queue.popleft()
            member.busy = True
            member.available_time = end
            report = self.rank_reports[rank]
            report.communication_time += duration
            report.exposed_communication_time += max(end - ready, 0.0) - \
                max(coll_start - ready, 0.0)
            report.collective_count += 1
            self.inflight_collectives[rank] = (
                self.inflight_collectives.get(rank, 0) + 1)
            self._schedule(end, self._COLL_END, member)
        return False

    def _start_p2p(self, stream: _Stream, op: str, key: Tuple,
                   start: float, duration: float) -> None:
        report = self.rank_reports[stream.rank]
        if op == "send":
            stream.queue.popleft()
            stream.busy = True
            end = start + duration
            stream.available_time = end
            report.communication_time += duration
            report.collective_count += 1
            waiter = self.p2p_map.post_send(key, end)
            if waiter is not None:
                self._release_waiter(("recv", waiter), end)
            self._schedule(end, self._COLL_END, stream)
            return
        # Receive: completes once the matching send's payload has arrived.
        send_end = self.p2p_map.post_recv(key, (stream, start), start)
        if send_end is None:
            stream.blocked = True
            return
        self._complete_recv(stream, start, send_end)

    def _complete_recv(self, stream: _Stream, recv_ready: float,
                       send_end: float) -> None:
        end = max(recv_ready, send_end) + self.config.p2p_recv_overhead
        stream.blocked = False
        if stream.queue:
            stream.queue.popleft()
        stream.busy = True
        stream.available_time = end
        duration = max(end - recv_ready, 0.0)
        report = self.rank_reports[stream.rank]
        report.communication_time += duration
        report.exposed_communication_time += duration
        report.collective_count += 1
        self._schedule(end, self._COLL_END, stream)

    # ------------------------------------------------------------------
    # op completion
    # ------------------------------------------------------------------
    def _finish_op(self, stream: _Stream, was_collective: bool,
                   time: float) -> None:
        stream.busy = False
        if stream.available_time < time:
            stream.available_time = time
        if was_collective:
            count = self.inflight_collectives.get(stream.rank, 0)
            if count > 0:
                self.inflight_collectives[stream.rank] = count - 1
        report = self.rank_reports[stream.rank]
        if report.finish_time < time:
            report.finish_time = time
        self._try_start_stream(stream, time)

    # ------------------------------------------------------------------
    # steady-state iteration folding
    # ------------------------------------------------------------------
    def _capture_fold_snapshot(self, host: _Host, label: str) -> None:
        """Snapshot a rank's clocks/counters at an iteration boundary.

        Valid only if the rank is quiescent (all of its streams drained) at
        the marker: then every duration of the finished window has already
        been booked to its report and the boundary state reduces to the
        host clock.
        """
        rank = host.rank
        if not self.fold_valid:
            return
        for (stream_rank, _), stream in self.streams.items():
            if stream_rank == rank and not stream.drained():
                self.fold_valid = False
                return
        report = self.rank_reports[rank]
        self.fold_snapshots[(rank, label)] = (
            host.time,
            report.compute_time,
            report.communication_time,
            report.exposed_communication_time,
            report.host_time,
            report.memcpy_time,
            report.kernel_count,
            report.collective_count,
        )

    def commit_fold(self, plan: _FoldPlan) -> bool:
        """Verify boundary periodicity and extrapolate the folded windows.

        The truncated replay simulated windows ``0 .. simulated-1`` plus the
        trace tail.  The fold commits only if every rank was quiescent at
        its last three window boundaries and the two measured periods agree
        to within ``config.fold_tolerance`` (relative; 0.0 demands bitwise
        equality); the remaining iterations then advance every clock,
        counter and marker by the verified per-rank period.  Any violation
        reports failure so the caller re-runs the full simulation.

        Structured host delays were replayed at their base cost (the
        window-mean jitter factor of 1.0), so the committed result is the
        analytic mean over the folded jitter stream.  The worst-case
        deviation from the full replay is bounded by
        ``sqrt(3) * jitter * H`` where ``H`` is the total base host-delay
        time across the simulated ranks: every materialized delay lies
        within ``base * (1 +- sqrt(3) * jitter)`` (``fast_noise``'s uniform
        support; the 0.2 floor only tightens it) and any critical path
        traverses each host delay at most once.  The bound is published as
        ``host_jitter_bound_s`` in the fold metadata.
        """
        if not self.fold_valid:
            return False
        labels = plan.capture_labels
        folded = plan.folded
        periods: Dict[int, float] = {}
        deltas: Dict[int, Tuple] = {}
        for rank in self.ranks:
            snaps = [self.fold_snapshots.get((rank, label))
                     for label in labels]
            if any(snap is None for snap in snaps):
                return False
            first, second, third = snaps
            period_a = second[0] - first[0]
            period_b = third[0] - second[0]
            tolerance = self.config.fold_tolerance * max(abs(period_a),
                                                         abs(period_b))
            if period_b < 0.0 or abs(period_a - period_b) > tolerance:
                return False
            delta = tuple(third[i] - second[i] for i in range(1, 8))
            check = tuple(second[i] - first[i] for i in range(6, 8))
            if check != delta[5:]:
                return False  # event counts drifted between windows
            periods[rank] = period_b
            deltas[rank] = delta
        offsets: Dict[int, float] = {}
        for rank in self.ranks:
            period = periods[rank]
            delta = deltas[rank]
            # Iterative addition mirrors the engine's per-window clock
            # accumulation (and is exact whenever the full replay is).
            offset = 0.0
            for _ in range(folded):
                offset += period
            offsets[rank] = offset
            host = self.hosts[rank]
            host.time += offset
            report = self.rank_reports[rank]
            report.finish_time += offset
            for _ in range(folded):
                report.compute_time += delta[0]
                report.communication_time += delta[1]
                report.exposed_communication_time += delta[2]
                report.host_time += delta[3]
                report.memcpy_time += delta[4]
            report.kernel_count += folded * delta[5]
            report.collective_count += folded * delta[6]
            self._extrapolate_markers(host, plan, period, offset)
        for (rank, _), stream in self.streams.items():
            offset = offsets.get(rank)
            if offset is not None:
                stream.available_time += offset
        jitter_scale = 0.0
        for rank in self.ranks:
            profile = (self.collated.trace_for(rank).metadata.get(
                HOST_MODEL_METADATA_KEY) or {})
            jitter_scale = max(jitter_scale,
                               float(profile.get("jitter", 0.0)))
        host_base_total = sum(self.rank_reports[self.mirrors.get(rank, rank)]
                              .host_time for rank in self.requested)
        self.fold_info = {
            "iterations": plan.iterations,
            "simulated_iterations": plan.simulated,
            "folded_iterations": folded,
            "period_s": max(periods.values(), default=0.0),
            # Structured host delays fold at the analytic mean jitter
            # factor of 1.0; the full replay can deviate by at most
            # this much (see the commit_fold docstring).
            "host_jitter_scale": jitter_scale,
            "host_jitter_bound_s": _SQRT3 * jitter_scale * host_base_total,
        }
        return True

    def _extrapolate_markers(self, host: _Host, plan: _FoldPlan,
                             period: float, offset: float) -> None:
        last = plan.simulated - 1
        for suffix in ("start", "end"):
            base = host.markers.get(f"iteration-{last}-{suffix}")
            if base is None:
                continue
            timestamp = base
            for k in range(plan.simulated, plan.iterations):
                timestamp += period
                host.markers[f"iteration-{k}-{suffix}"] = timestamp
        # Non-iteration markers recur every window (the windows are
        # canonically identical); their final occurrence belongs to the last
        # real window, so shift anything recorded after the second-to-last
        # simulated boundary.
        boundary = self.fold_snapshots[(host.rank,
                                        f"iteration-{last - 1}-end")][0]
        for label, timestamp in list(host.markers.items()):
            if _ITERATION_MARKER.match(label):
                continue
            if timestamp > boundary:
                host.markers[label] = timestamp + offset

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def build_report(self, iterations: int) -> SimulationReport:
        """The report of every requested rank; a mirror gets a copy of its
        source's counters and markers (the maxima below are unchanged by
        the duplicates it would have added)."""
        finish_times = [report.finish_time for report in self.rank_reports.values()]
        host_times = [host.time for host in self.hosts.values()]
        stream_times = [stream.available_time for stream in self.streams.values()]
        total = max(finish_times + host_times + stream_times + [0.0])

        rank_reports: Dict[int, RankReport] = {}
        markers: Dict[str, Dict[int, float]] = {}
        for rank in self.requested:
            source = self.mirrors.get(rank, rank)
            report = self.rank_reports[source]
            rank_reports[rank] = (report if source == rank
                                  else replace(report, rank=rank))
            for label, timestamp in self.hosts[source].markers.items():
                markers.setdefault(label, {})[rank] = timestamp

        metadata: Dict[str, object] = {
            "simulated_ranks": len(self.requested),
            "replayed_ranks": len(self.ranks),
            "processed_events": self.processed_events,
            "world_size": self.collated.world_size,
        }
        if self.fold_info is not None:
            metadata["iteration_folding"] = dict(self.fold_info)
        return SimulationReport(
            total_time=total,
            iterations=iterations,
            rank_reports=rank_reports,
            peak_memory_bytes=self.collated.peak_memory_bytes(),
            oom=self.collated.any_oom(),
            markers=markers,
            metadata=metadata,
        )
