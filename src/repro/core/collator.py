"""Trace collation and analysis.

The collator turns per-worker traces into a job-level view the simulator can
replay (Section 4.2 of the paper):

* **Worker deduplication** -- rolling hashes over each worker's operation
  stream identify ranks performing identical work; only one representative
  per signature needs to be kept (and, with *selective launch*, only the
  representatives need to be emulated at all).  A p2p op hashes with its
  own and its peer's position in the group, so pipeline stages that run
  the same layers but send to different neighbours stay apart.  When
  selective launch already emulated exactly the topology's unique ranks,
  each is its own representative and nothing is hashed.
* **Collective matching** -- collectives are matched across workers using
  communicator ids and per-communicator sequence numbers, reconstructing the
  communication pattern.  Point-to-point sends and receives are paired by
  (communicator, source position, destination position, message index).
  A trace's collectives resolve in one numpy pass into a
  :class:`CollectiveTable`: one record per collective template plus
  integer columns (template index, ``seq_in_comm``, p2p ``pair_index``)
  keyed by event seq, so a cached artifact holds no per-collective
  objects.  Like every other view derived from the rows, the table is
  memoized on the trace's columns (:func:`collective_table`) and never
  pickled: a stored or shipped artifact carries its traces alone, and a
  decoded one rebuilds the table when first read.  It reads as a
  ``seq -> CollectiveResolution`` mapping.
* **Group remapping** -- when a rank's trace is borrowed from its
  representative, communicator groups recorded in that trace are remapped to
  the borrowing rank's own groups using the job's parallel topology, so that
  e.g. every data-parallel replica still performs its *own* all-reduce.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

import numpy as _np

from repro.core.trace import (
    F_COLL_SEQ,
    K_COLLECTIVE,
    P2P_OPS,
    JobTrace,
    TraceColumns,
    TraceEvent,
    WorkerTrace,
)
from repro.framework.topology import ParallelTopology

class GroupResolver:
    """Maps (rank, communicator tag) to that rank's communicator group."""

    def group_for(self, rank: int, tag: str,
                  representative_group: Sequence[int]) -> Tuple[int, ...]:
        raise NotImplementedError


class IdentityGroupResolver(GroupResolver):
    """Used when every rank was emulated: groups need no remapping."""

    def group_for(self, rank: int, tag: str,
                  representative_group: Sequence[int]) -> Tuple[int, ...]:
        return tuple(representative_group)


class TopologyGroupResolver(GroupResolver):
    """Resolves tp / pp / dp groups from a :class:`ParallelTopology`.

    Groups are memoized per (rank, tag); the memo never rides a pickle, so
    a pickled resolver is the topology alone.
    """

    def __init__(self, topology: ParallelTopology) -> None:
        self.topology = topology
        self._groups: Dict[Tuple[int, str], Tuple[int, ...]] = {}

    def __getstate__(self) -> Dict[str, ParallelTopology]:
        return {"topology": self.topology}

    def __setstate__(self, state: Dict[str, ParallelTopology]) -> None:
        self.__init__(**state)

    def group_for(self, rank: int, tag: str,
                  representative_group: Sequence[int]) -> Tuple[int, ...]:
        group = self._groups.get((rank, tag))
        if group is None:
            if tag == "tp":
                group = tuple(self.topology.tensor_parallel_group(rank))
            elif tag == "pp":
                group = tuple(self.topology.pipeline_parallel_group(rank))
            elif tag == "dp":
                group = tuple(self.topology.data_parallel_group(rank))
            else:
                return tuple(representative_group)
            self._groups[(rank, tag)] = group
        return group


@dataclass(frozen=True)
class CollectiveResolution:
    """Representative-level description of one collective trace event."""

    op: str
    tag: str
    nranks: int
    nbytes: float
    seq_in_comm: int
    representative_group: Tuple[int, ...]
    #: Position of this rank within its communicator group.
    self_position: int
    #: For p2p ops: position of the peer within the group, else None.
    peer_position: Optional[int] = None
    #: For p2p ops: index of this message among messages between the same
    #: ordered (source, destination) pair on this communicator.
    pair_index: Optional[int] = None
    is_p2p: bool = False

    def key_for(self, rank: int, resolver: GroupResolver) -> Tuple:
        """Global matching key of this collective when replayed by ``rank``."""
        group = resolver.group_for(rank, self.tag, self.representative_group)
        if self.is_p2p:
            if self.op == "send":
                src, dst = self.self_position, self.peer_position
            else:
                src, dst = self.peer_position, self.self_position
            return ("p2p", self.tag, group, src, dst, self.pair_index)
        return ("coll", self.tag, group, self.op, self.seq_in_comm)


@dataclass(frozen=True, slots=True)
class CollectiveTemplate:
    """What every collective of one trace template resolves to: a
    :class:`CollectiveResolution` without its per-event ``seq_in_comm``
    and ``pair_index``."""

    op: str
    tag: str
    nranks: int
    nbytes: float
    representative_group: Tuple[int, ...]
    self_position: int
    peer_position: Optional[int]
    is_p2p: bool


class CollectiveTable(Mapping):
    """One representative's resolved collectives, as a read-only mapping
    ``seq -> CollectiveResolution``.

    Stored as one :class:`CollectiveTemplate` per collective template
    (``records``) plus integer columns keyed by the sorted event ``seqs``:
    each event's ``template`` (index into ``records``), its
    ``seq_in_comm`` and its p2p ``pair_index`` (-1 for group ops).  The
    numpy columns are not walked by the garbage collector, and the object
    count does not grow with the trace; a :class:`CollectiveResolution` is
    built only when a reader indexes the mapping.
    """

    __slots__ = ("records", "seqs", "template", "seq_in_comm", "pair_index")

    def __init__(self, records: Tuple[CollectiveTemplate, ...], seqs: Any,
                 template: Any, seq_in_comm: Any, pair_index: Any) -> None:
        # Sorted by seq for lookups (hand-edited traces may reorder rows).
        order = _np.argsort(seqs, kind="stable")
        self.records = records
        self.seqs = seqs[order]
        self.template = template[order]
        self.seq_in_comm = seq_in_comm[order]
        self.pair_index = pair_index[order]

    def __len__(self) -> int:
        return len(self.seqs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.seqs.tolist())

    def __getitem__(self, seq: int) -> CollectiveResolution:
        row = int(_np.searchsorted(self.seqs, seq))
        if row == len(self.seqs) or self.seqs[row] != seq:
            raise KeyError(seq)
        return self.resolution_at(row)

    def resolution_at(self, row: int) -> CollectiveResolution:
        """The resolution of the ``row``-th collective, in seq order."""
        record = self.records[int(self.template[row])]
        return CollectiveResolution(
            op=record.op, tag=record.tag, nranks=record.nranks,
            nbytes=record.nbytes, seq_in_comm=int(self.seq_in_comm[row]),
            representative_group=record.representative_group,
            self_position=record.self_position,
            peer_position=record.peer_position,
            pair_index=int(self.pair_index[row]) if record.is_p2p else None,
            is_p2p=record.is_p2p)


def collective_table(trace: WorkerTrace) -> CollectiveTable:
    """``trace``'s resolved collectives, memoized on its columns like its
    other derived views (a decoded trace builds the table on first read)."""
    return trace.columns.memoized(
        "collectives", lambda cols: _resolve_collectives(cols, trace.rank))


@dataclass
class CollatedTrace:
    """Job-level trace ready for runtime estimation and simulation."""

    world_size: int
    #: Representative worker traces keyed by the representative's rank.
    traces: Dict[int, WorkerTrace]
    #: Maps every rank to the representative whose trace it replays.
    representative: Dict[int, int]
    group_resolver: GroupResolver
    #: Statistics gathered during collation (used by ablation benchmarks).
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def resolutions(self) -> Dict[int, CollectiveTable]:
        """Per representative rank: its collectives, by event seq."""
        return {rep: collective_table(trace)
                for rep, trace in self.traces.items()}

    def trace_for(self, rank: int) -> WorkerTrace:
        return self.traces[self.representative[rank]]

    def resolution_for(self, rank: int,
                       event: TraceEvent) -> Optional[CollectiveResolution]:
        return collective_table(self.trace_for(rank)).get(event.seq)

    def collective_key(self, rank: int, event: TraceEvent) -> Optional[Tuple]:
        resolution = self.resolution_for(rank, event)
        if resolution is None:
            return None
        return resolution.key_for(rank, self.group_resolver)

    def unique_trace_count(self) -> int:
        return len(self.traces)

    def annotation_memo(self, provider: Any) -> Dict[Tuple[int, ...], Any]:
        """``provider``'s simulator annotations of this trace, by
        replayed-rank set (see ``providers.trace_annotations``).

        Collated artifacts are not edited once built, so an entry stays
        valid for the life of this object and the memo needs no bound: it
        dies with the trace, an entry dies with its provider (weak key),
        and pickles and copies leave it behind (:meth:`__getstate__`).
        """
        memos = self.__dict__.get("_annotation_memos")
        if memos is None:
            memos = self._annotation_memos = weakref.WeakKeyDictionary()
        memo = memos.get(provider)
        if memo is None:
            memo = memos[provider] = {}
        return memo

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_annotation_memos", None)
        return state

    def peak_memory_bytes(self) -> int:
        if not self.traces:
            return 0
        return max(trace.peak_memory_bytes for trace in self.traces.values())

    def any_oom(self) -> bool:
        return any(trace.oom for trace in self.traces.values())


class TraceCollator:
    """Combines worker traces into a unified, simulator-ready job trace."""

    def __init__(self, deduplicate: bool = True,
                 group_resolver: Optional[GroupResolver] = None) -> None:
        self.deduplicate = deduplicate
        self.group_resolver = group_resolver or IdentityGroupResolver()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def collate(self, job: JobTrace,
                topology: Optional[ParallelTopology] = None) -> CollatedTrace:
        """Collate ``job`` into a :class:`CollatedTrace`.

        When ``topology`` is given it is used both to expand selectively
        launched ranks to the full world and to remap communicator groups.
        """
        resolver = self.group_resolver
        if topology is not None and isinstance(resolver, IdentityGroupResolver):
            resolver = TopologyGroupResolver(topology)

        representative = self._build_representative_map(job, topology)
        kept_reps = sorted(set(representative.values()))
        traces = {rank: job.workers[rank] for rank in kept_reps}
        for trace in traces.values():
            collective_table(trace)  # collectives match during collation

        stats = {
            "emulated_workers": float(len(job.workers)),
            "unique_workers": float(len(kept_reps)),
            "total_events": float(sum(len(t) for t in traces.values())),
            "dedup_savings": 1.0 - len(kept_reps) / max(job.world_size, 1),
        }
        return CollatedTrace(
            world_size=job.world_size,
            traces=traces,
            representative=representative,
            group_resolver=resolver,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # deduplication / selective-launch expansion
    # ------------------------------------------------------------------
    def _build_representative_map(
        self, job: JobTrace, topology: Optional[ParallelTopology]
    ) -> Dict[int, int]:
        emulated = sorted(job.workers)
        representative: Dict[int, int] = {}

        # Selective launch already emulated one rank per distinct program:
        # hashing them could only merge ranks that must stay apart.
        launched = (topology is not None
                    and emulated == sorted(topology.unique_ranks()))
        if self.deduplicate and not launched:
            by_signature: Dict[int, int] = {}
            for rank in emulated:
                signature = job.workers[rank].rolling_signature()
                by_signature.setdefault(signature, rank)
                representative[rank] = by_signature[signature]
        else:
            for rank in emulated:
                representative[rank] = rank

        # Ranks that were never emulated (selective launch) borrow the trace
        # of their topological representative.
        missing = [rank for rank in range(job.world_size)
                   if rank not in representative]
        if missing:
            if topology is None:
                raise ValueError(
                    "job trace is missing ranks "
                    f"{missing[:8]}{'...' if len(missing) > 8 else ''} and no "
                    "topology was provided to expand selectively-launched runs"
                )
            fallback = emulated[0] if emulated else None
            for rank in missing:
                rep = topology.representative_of(rank)
                if rep not in representative:
                    if job.any_oom() and fallback is not None:
                        # Emulation aborted early on an out-of-memory rank;
                        # the remaining ranks only need a stand-in trace so
                        # the OOM verdict can be reported.
                        representative[rank] = representative[fallback]
                        continue
                    raise ValueError(
                        f"representative rank {rep} for rank {rank} was not "
                        "emulated"
                    )
                representative[rank] = representative[rep]
        return representative


def _resolve_collectives(cols: TraceColumns,
                         trace_rank: int) -> CollectiveTable:
    """One numpy pass over the collective rows of ``cols`` (rank
    ``trace_rank``'s): a record per collective template, each row's
    template index and ``seq_in_comm``, and each p2p row's running
    message count on its (communicator, source, destination) pair."""
    arrays = cols.arrays()
    rows = _np.flatnonzero(arrays["kind"] == K_COLLECTIVE)
    used, template = _np.unique(arrays["template"][rows],
                                return_inverse=True)
    records = []
    #: (comm_id, src_pos, dst_pos) -> pair id; -1 for group ops.
    pair_ids: Dict[Tuple, int] = {}
    record_pairs = []
    for tid in used.tolist():
        fixed = cols.templates[tid]
        info = fixed["collective_fixed"] or {}
        op = str(info.get("op", "all_reduce"))
        group = tuple(info.get("ranks", ()))
        rank = int(info.get("rank", trace_rank))
        self_position = group.index(rank) if rank in group else 0
        peer_position = None
        pair = -1
        if op in P2P_OPS:
            peer = int(info.get("peer", rank))
            peer_position = group.index(peer) if peer in group else 0
            ends = ((self_position, peer_position) if op == "send"
                    else (peer_position, self_position))
            pair = pair_ids.setdefault((info.get("comm_id"),) + ends,
                                       len(pair_ids))
        record_pairs.append(pair)
        records.append(CollectiveTemplate(
            op=op,
            tag=str(info.get("comm_tag", "")) or "default",
            nranks=int(info.get("nranks", max(len(group), 1))),
            nbytes=float(fixed["params_fixed"].get("bytes", 0.0)),
            representative_group=group,
            self_position=self_position,
            peer_position=peer_position,
            is_p2p=op in P2P_OPS,
        ))
    seqs = arrays["seq"][rows]
    seq_in_comm = _np.where(arrays["flags"][rows] & F_COLL_SEQ,
                            arrays["aux_seq"][rows], seqs)
    pairs = _np.array(record_pairs, dtype=_np.int64)[template]
    pair_index = _np.full(rows.size, -1, dtype=_np.int64)
    p2p = _np.flatnonzero(pairs >= 0)
    if p2p.size:
        # Rank of each row among its pair's rows, in trace order.
        order = p2p[_np.argsort(pairs[p2p], kind="stable")]
        keys = pairs[order]
        starts = _np.flatnonzero(_np.append(True, keys[1:] != keys[:-1]))
        pair_index[order] = _np.arange(order.size) - _np.repeat(
            starts, _np.diff(_np.append(starts, order.size)))
    return CollectiveTable(tuple(records), seqs, template, seq_in_comm,
                           pair_index)
