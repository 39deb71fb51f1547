"""Duration providers: where the simulator gets per-operation runtimes.

The same discrete-event engine is used both by Maya (durations come from the
pluggable estimator suite) and by the testbed reference model (durations come
from the ground-truth cost models, with per-invocation jitter).  Keeping the
engine identical and swapping only the provider mirrors the paper's framing:
the difference between a prediction and a measurement is exactly the quality
of the per-operation runtimes plus the effects the simulator chooses to
model.

Every simulation first resolves the whole trace into
:class:`TraceAnnotations` -- one flat, seq-indexed duration vector per
rank (kernels, collectives and materialized host delays, the latter
re-applying the structured trace's replay-time jitter) plus each
collective template's communicator group, matching-key prefix and
expected participant count -- with one :func:`build_trace_annotations`
pass, and replays array reads.  That pass is the same for every provider.
It reads the collator's :class:`~repro.core.collator.CollectiveTable` (a
record per collective template plus integer columns), so it resolves
groups once per (rank, template), not once per collective; it asks the
provider for one price per distinct (template, stream) kernel shape of the
trace's columns (``shape_duration``) and one per collective template and
rank (``collective_shape_duration``), and builds no event object.  A
provider whose durations also vary per invocation (the testbed's jitter)
applies that as one vector step over each rank's seqs
(``vary_durations``).  The per-event methods ``kernel_duration`` and
``collective_duration`` give the same durations one event at a time; the
reference replay in the tests calls them.

Everything an annotation keeps is an ``array`` or a tuple of atomic
values, so the garbage collector has a fixed handful of objects to walk
per cached artifact, however long its trace.

The engine asks for annotations through :func:`trace_annotations`, which
memoizes the pass on the :class:`~repro.core.collator.CollatedTrace` it
annotates (:meth:`~repro.core.collator.CollatedTrace.annotation_memo`),
keyed by provider and replayed-rank set.  The prediction service shares
one provider across trials and keeps artifacts in its cache, so every
re-simulation of a cached artifact -- the what-if and configuration
search path, where only a non-structural knob changes -- skips annotation.
The memo needs no bound: it is freed with the artifact when the cache
evicts it, an entry is freed with its provider, and it is never pickled,
stored or shipped.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, NamedTuple, Optional,
                    Protocol, Sequence, Tuple)

import numpy as _np

from repro.core.collator import (CollectiveResolution, CollectiveTable,
                                 collective_table)
from repro.core.columnar import (fast_noise_array, kernel_shapes,
                                 materialize_host_delays)
from repro.core.estimators.suite import EstimatorSuite
from repro.core.trace import TraceEvent, WorkerTrace
from repro.hardware.cluster import ClusterSpec
from repro.hardware.kernel_cost import CollectiveCostModel, KernelCostModel
from repro.hardware.noise import fast_noise, stable_hash

if TYPE_CHECKING:  # pragma: no cover - import used for type checking only
    from repro.core.collator import CollatedTrace


class RankCollectives(NamedTuple):
    """One simulated rank's collectives, resolved for replay."""

    #: Seq-indexed index into ``entries``; -1 where no collective was
    #: resolved (such a collective replays as a local no-op).
    slots: array
    #: Seq-indexed last field of each collective's matching key: its
    #: ``seq_in_comm`` for a group op, its ``pair_index`` for a p2p op.
    ordinals: array
    #: Per collective template: ``(p2p op or None, matching-key prefix,
    #: expected participants)``.
    entries: Tuple[Tuple[Optional[str], Tuple, int], ...]


@dataclass
class TraceAnnotations:
    """Pre-resolved durations and communicator groups for one simulation.

    ``durations[rank][seq]`` is the duration of the event with that
    sequence number in the rank's (representative) trace: the provider's
    duration for a kernel, memcpy, memset or collective, and the
    materialized ``HOST_DELAY`` duration for a host delay -- for
    structured events the recorded base cost times the replay-time jitter
    factor (``fast_noise`` over the class seed plus call seq), for legacy
    events the recorded value.  Other slots hold 0.0.
    ``collectives[rank]`` resolves the rank's collectives
    (:class:`RankCollectives`): the communicator group, matching-key
    prefix and expected participant count once per collective template,
    and two seq-indexed integer vectors naming each collective's template
    and the last field of its key.  Both are keyed by the *simulated*
    rank, so borrowed representative traces resolve to the borrowing
    rank's own groups.  Every vector is an ``array`` (8 bytes a duration
    slot, 4 an integer one, never walked by the garbage collector), since
    they live as long as the artifact they annotate; borrowing ranks share
    the representative's seq-indexed collective vectors, and, under a
    provider without a ``vary_durations`` step, one duration vector
    wherever their collective prices agree.
    """

    durations: Dict[int, array] = field(default_factory=dict)
    collectives: Dict[int, RankCollectives] = field(default_factory=dict)


def _seq_vector(size: int, seqs, values, fill: int) -> array:
    """``array('i')`` of ``size`` slots: ``values`` at ``seqs``, else
    ``fill``.  Four bytes a slot: template indices and per-communicator
    message counts stay far below 2**31 (a trace that long would not fit
    in memory)."""
    vector = _np.full(size, fill, dtype=_np.int32)
    vector[seqs] = values
    return array("i", vector.tobytes())


def build_trace_annotations(provider: "DurationProvider",
                            collated: "CollatedTrace",
                            ranks: Sequence[int]) -> TraceAnnotations:
    """One-pass annotation of ``collated`` for the given simulated ranks.

    Each representative trace's distinct (template, stream) kernel shapes
    are priced once and scattered over its rows; each collective template
    is priced once per rank, from its record and the rank's group.
    Groups, matching keys and expected participant counts are resolved
    per (rank, collective template), because group remapping is
    rank-specific; ``ranks`` are the ranks the engine replays, so the
    expected count is the number of group members among them.  A provider
    with a ``vary_durations`` step then applies its per-invocation
    variation to each rank's vector; without one, ranks borrowing a
    representative share one vector wherever their collective prices
    agree.
    """
    annotations = TraceAnnotations()
    rank_set = set(ranks)
    resolver = collated.group_resolver
    vary = getattr(provider, "vary_durations", None)
    # Per representative: host-delay + kernel durations, the collective
    # table and its seq-indexed vectors.
    base: Dict[int, Any] = {}
    tables: Dict[int, Tuple] = {}
    shared: Dict[Any, array] = {}
    for rank in ranks:
        representative = collated.representative[rank]
        trace = collated.trace_for(rank)
        cols = trace.columns

        resolved = tables.get(representative)
        if resolved is None:
            seqs = cols.lists()["seq"]
            size = (seqs[-1] + 1) if seqs else 0
            table = collective_table(trace)
            p2p = _np.array([record.is_p2p for record in table.records],
                            dtype=bool)[table.template]
            resolved = tables[representative] = (
                table,
                _seq_vector(size, table.seqs, table.template, -1),
                _seq_vector(size, table.seqs,
                            _np.where(p2p, table.pair_index,
                                      table.seq_in_comm), 0))
            # Host delays fill their own seqs; kernel seqs are disjoint.
            merged = materialize_host_delays(cols, trace.metadata, size)
            row_seqs, shape_of_row, shapes = kernel_shapes(cols)
            priced = _np.array(
                [provider.shape_duration(*shape) for shape in shapes],
                dtype=_np.float64)
            merged[row_seqs] = priced[shape_of_row]
            base[representative] = merged
        table, slots, ordinals = resolved

        entries = []
        members = []
        for record in table.records:
            group = tuple(resolver.group_for(rank, record.tag,
                                             record.representative_group))
            expected = max(sum(1 for peer in group if peer in rank_set), 1)
            if record.is_p2p:
                me, peer = record.self_position, record.peer_position
                ends = (me, peer) if record.op == "send" else (peer, me)
                entries.append((record.op, ("p2p", record.tag, group) + ends,
                                expected))
                if peer is not None and len(group) > max(me, peer):
                    members.append((group[me], group[peer]))
                else:
                    members.append(tuple(group[:2]) if len(group) >= 2
                                   else group)
            else:
                entries.append((None, ("coll", record.tag, group, record.op),
                                expected))
                members.append(group)
        annotations.collectives[rank] = RankCollectives(slots, ordinals,
                                                        tuple(entries))

        prices = tuple(
            provider.collective_shape_duration(record.op, record.nbytes,
                                               group)
            for record, group in zip(table.records, members))
        # A per-invocation step makes every rank's vector its own.
        key = (representative, prices) if vary is None else rank
        durations = shared.get(key)
        if durations is None:
            # Collective seqs are disjoint from the others too.
            merged = base[representative].copy()
            merged[table.seqs] = _np.array(
                prices, dtype=_np.float64)[table.template]
            if vary is not None:
                vary(rank, merged, trace, table, members)
            durations = shared[key] = array("d", merged.tobytes())
        annotations.durations[rank] = durations
    return annotations


def trace_annotations(provider: "DurationProvider",
                      collated: "CollatedTrace",
                      ranks: Sequence[int]) -> TraceAnnotations:
    """:func:`build_trace_annotations` of ``collated`` for ``ranks``, built
    once per (trace, provider, rank set) and kept in the trace's
    :meth:`~repro.core.collator.CollatedTrace.annotation_memo`.

    Two threads racing on a cold entry may both build it; the results are
    equal and the last one stays.
    """
    memo = collated.annotation_memo(provider)
    key = tuple(ranks)
    annotations = memo.get(key)
    if annotations is None:
        annotations = memo[key] = build_trace_annotations(provider, collated,
                                                          ranks)
    return annotations


class DurationProvider(Protocol):
    """Supplies operation durations to the simulation engine.

    A provider may also define ``vary_durations(rank, durations, trace,
    table, groups)``: per-invocation variation, applied in place to one
    rank's seq-indexed float64 ``durations`` after the shape prices are
    scattered (``table`` is the rank's
    :class:`~repro.core.collator.CollectiveTable`, ``groups`` its group
    per collective template).  The per-event methods must equal the
    annotated durations bit for bit.
    """

    #: Whether durations are rank-invariant.  A provider that sets it
    #: promises two things: it has no ``vary_durations`` step, and a
    #: collective's price depends on its group only through the group's
    #: size and the nodes it spans.  The engine relies on both to mirror
    #: tensor-parallel peers instead of replaying them
    #: (:func:`repro.core.simulator.engine.tensor_parallel_mirrors`).
    rank_invariant_kernels: bool

    def shape_duration(self, kernel_class: Optional[str],
                       params: Dict[str, object], signature: Tuple) -> float:
        """Duration of every kernel / copy / memset of one shape."""
        ...

    def collective_shape_duration(self, op: str, nbytes: float,
                                  group: Sequence[int]) -> float:
        """On-the-wire duration of every collective of one template, as
        replayed by one rank with communicator ``group``."""
        ...

    def kernel_duration(self, rank: int, event: TraceEvent) -> float:
        """Duration of one kernel / copy / memset event, in seconds."""
        ...

    def collective_duration(self, rank: int, event: TraceEvent,
                            resolution: CollectiveResolution,
                            group: Sequence[int]) -> float:
        """On-the-wire duration of one collective event, in seconds."""
        ...


class EstimatedDurationProvider:
    """Maya's provider: durations come from the estimator suite.

    Kernel predictions are cached by shape signature -- a training iteration
    launches the same few dozen distinct kernels thousands of times, so this
    keeps annotation cost negligible (the "Runtime prediction" row of
    Table 6).
    """

    #: Durations are a pure function of the event's shape signature, so
    #: annotation passes are shared across ranks replaying one
    #: representative trace.  Every estimator suite (learned, analytical,
    #: oracle) prices a collective from its op, bytes, group size and the
    #: set of nodes the group spans, which keeps the
    #: ``rank_invariant_kernels`` promise.
    rank_invariant_kernels = True

    def __init__(self, suite: EstimatorSuite, cluster: ClusterSpec) -> None:
        self.suite = suite
        self.cluster = cluster
        self._kernel_cache: Dict[Tuple, float] = {}
        self._collective_cache: Dict[Tuple, float] = {}

    def kernel_duration(self, rank: int, event: TraceEvent) -> float:
        return self.shape_duration(event.kernel_class, event.params,
                                   event.signature())

    def shape_duration(self, kernel_class: Optional[str],
                       params: Dict[str, object], signature: Tuple) -> float:
        key = (kernel_class, signature)
        cached = self._kernel_cache.get(key)
        if cached is None:
            cached = self.suite.estimate_kernel(kernel_class or "elementwise",
                                                params)
            self._kernel_cache[key] = cached
        return cached

    def collective_duration(self, rank: int, event: TraceEvent,
                            resolution: CollectiveResolution,
                            group: Sequence[int]) -> float:
        return self.collective_shape_duration(resolution.op,
                                              resolution.nbytes, group)

    def collective_shape_duration(self, op: str, nbytes: float,
                                  group: Sequence[int]) -> float:
        key = (op, nbytes, tuple(group))
        cached = self._collective_cache.get(key)
        if cached is None:
            cached = self.suite.estimate_collective(
                op, nbytes, group, self.cluster.gpus_per_node)
            self._collective_cache[key] = cached
        return cached


class GroundTruthDurationProvider:
    """Testbed provider: ground-truth costs plus per-invocation jitter.

    This is the stand-in for running the workload on physical GPUs.  The
    jitter term is keyed on (rank, event sequence number) so repeated
    simulations of the same configuration reproduce the same "measurement",
    while different kernels see independent run-to-run variation that no
    estimator can learn.
    """

    #: Jitter keys on the event sequence number, so structurally identical
    #: iterations still get different per-invocation durations.  It is
    #: rank-dependent (:meth:`vary_durations`), so every rank is replayed.
    rank_invariant_kernels = False

    def __init__(self, cluster: ClusterSpec,
                 kernel_cost_model: Optional[KernelCostModel] = None,
                 collective_cost_model: Optional[CollectiveCostModel] = None,
                 run_jitter: float = 0.012) -> None:
        self.cluster = cluster
        self.kernel_cost_model = kernel_cost_model or KernelCostModel()
        self.collective_cost_model = collective_cost_model or CollectiveCostModel()
        self.run_jitter = run_jitter
        self._base_cache: Dict[Tuple, float] = {}

    def shape_duration(self, kernel_class: Optional[str],
                       params: Dict[str, object], signature: Tuple) -> float:
        """Jitter-free ground-truth cost of one kernel shape."""
        key = (kernel_class, signature)
        base = self._base_cache.get(key)
        if base is None:
            base = self._base_cache[key] = self.kernel_cost_model.kernel_time(
                self.cluster.gpu, kernel_class or "elementwise", params,
                invocation=None)
        return base

    def collective_shape_duration(self, op: str, nbytes: float,
                                  group: Sequence[int]) -> float:
        """Jitter-free ground-truth cost of one collective template."""
        interconnect = self.cluster.interconnect
        return self.collective_cost_model.collective_time(
            op=op, nbytes=nbytes, ranks=len(group),
            bus_bandwidth=interconnect.effective_bus_bandwidth(
                group, self.cluster.gpus_per_node),
            latency=interconnect.base_latency(group,
                                              self.cluster.gpus_per_node),
            invocation=None)

    def vary_durations(self, rank: int, durations: Any, trace: WorkerTrace,
                       table: CollectiveTable,
                       groups: Sequence[Sequence[int]]) -> None:
        """Multiply every kernel and collective by its jitter factor: the
        seeds of :meth:`kernel_duration` and :meth:`collective_duration`,
        mixed array-wide (``fast_noise_array`` equals ``fast_noise`` bit
        for bit)."""
        seqs = kernel_shapes(trace.columns)[0]
        durations[seqs] *= fast_noise_array(
            seqs.astype(_np.uint64) + _np.uint64(rank * 1_000_003),
            self.run_jitter)
        lows = [min(group, default=0) for group in groups]
        seeds = [_collective_seed(lows[slot], seq) for slot, seq
                 in zip(table.template.tolist(), table.seqs.tolist())]
        durations[table.seqs] *= fast_noise_array(
            _np.array(seeds, dtype=_np.uint64), self.run_jitter)

    def kernel_duration(self, rank: int, event: TraceEvent) -> float:
        base = self.shape_duration(event.kernel_class, event.params,
                                   event.signature())
        return base * fast_noise(rank * 1_000_003 + event.seq,
                                 scale=self.run_jitter)

    def collective_duration(self, rank: int, event: TraceEvent,
                            resolution: CollectiveResolution,
                            group: Sequence[int]) -> float:
        base = self.collective_shape_duration(resolution.op,
                                              resolution.nbytes, group)
        return base * fast_noise(
            _collective_seed(min(group, default=0), event.seq),
            scale=self.run_jitter)


def _collective_seed(low: int, seq: int) -> int:
    """Jitter seed of collective ``seq`` on a group whose lowest rank is
    ``low``: ``stable_hash``, since ``hash()`` of a string differs per
    process and would make "measurements" irreproducible."""
    return stable_hash("coll", low, seq)
