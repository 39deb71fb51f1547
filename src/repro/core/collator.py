"""Trace collation and analysis.

The collator turns per-worker traces into a job-level view the simulator can
replay (Section 4.2 of the paper):

* **Worker deduplication** -- rolling hashes over each worker's operation
  stream identify ranks performing identical work; only one representative
  per signature needs to be kept (and, with *selective launch*, only the
  representatives need to be emulated at all).
* **Collective matching** -- collectives are matched across workers using
  communicator ids and per-communicator sequence numbers, reconstructing the
  communication pattern.  Point-to-point sends and receives are paired by
  (communicator, source position, destination position, message index).
* **Group remapping** -- when a rank's trace is borrowed from its
  representative, communicator groups recorded in that trace are remapped to
  the borrowing rank's own groups using the job's parallel topology, so that
  e.g. every data-parallel replica still performs its *own* all-reduce.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.trace import (
    F_COLL_SEQ,
    K_COLLECTIVE,
    JobTrace,
    TraceEvent,
    WorkerTrace,
)
from repro.framework.topology import ParallelTopology

#: Collective ops that are point-to-point rather than group-wide.
_P2P_OPS = ("send", "recv")


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


@dataclass
class CollatedTrace:
    """Job-level trace ready for runtime estimation and simulation."""

    world_size: int
    #: Representative worker traces keyed by the representative's rank.
    traces: Dict[int, WorkerTrace]
    #: Maps every rank to the representative whose trace it replays.
    representative: Dict[int, int]
    #: Per representative rank: event seq -> collective resolution.
    resolutions: Dict[int, Dict[int, CollectiveResolution]]
    group_resolver: GroupResolver
    #: Statistics gathered during collation (used by ablation benchmarks).
    stats: Dict[str, float] = field(default_factory=dict)

    def trace_for(self, rank: int) -> WorkerTrace:
        return self.traces[self.representative[rank]]

    def resolution_for(self, rank: int,
                       event: TraceEvent) -> Optional[CollectiveResolution]:
        rep = self.representative[rank]
        return self.resolutions.get(rep, {}).get(event.seq)

    def collective_key(self, rank: int, event: TraceEvent) -> Optional[Tuple]:
        resolution = self.resolution_for(rank, event)
        if resolution is None:
            return None
        return resolution.key_for(rank, self.group_resolver)

    def unique_trace_count(self) -> int:
        return len(self.traces)

    def content_signature(self) -> int:
        """Content address of the collated artifacts.

        Combines each representative's rolling operation-stream hash and
        host-delay stream hash with the rank -> representative map, so two
        collated traces with the same signature replay identically in the
        simulator (the rolling hash alone skips host delays, which *do*
        shape replay).  The prediction service uses this to
        content-address cached emulation artifacts.
        """
        from repro.hardware.noise import stable_hash

        signature = stable_hash(self.world_size)
        for rank in sorted(self.traces):
            trace = self.traces[rank]
            signature = stable_hash(signature, rank,
                                    trace.rolling_signature(),
                                    trace.host_delay_signature())
        for rank in sorted(self.representative):
            signature = stable_hash(signature, rank, self.representative[rank])
        return signature

    def annotation_memo(self, provider: Any) -> Dict[Tuple[int, ...], Any]:
        """``provider``'s simulator annotations of this trace, by
        replayed-rank set (see ``providers._AnnotationMemoMixin``).

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
        resolutions = {rank: self._resolve_collectives(traces[rank])
                       for rank in kept_reps}

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
            resolutions=resolutions,
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

        if self.deduplicate:
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

    # ------------------------------------------------------------------
    # collective resolution
    # ------------------------------------------------------------------
    def _resolve_collectives(
        self, trace: WorkerTrace
    ) -> Dict[int, CollectiveResolution]:
        resolutions: Dict[int, CollectiveResolution] = {}
        #: (comm_id, src_pos, dst_pos) -> number of messages seen so far.
        pair_counters: Dict[Tuple, int] = {}
        cols = trace.columns
        lists = cols.lists()

        for row in cols.rows(K_COLLECTIVE):
            template = cols.templates[lists["template"][row]]
            info = template["collective_fixed"] or {}
            op = str(info.get("op", "all_reduce"))
            group = tuple(info.get("ranks", ()))
            tag = str(info.get("comm_tag", "")) or "default"
            rank = int(info.get("rank", trace.rank))
            nranks = int(info.get("nranks", max(len(group), 1)))
            nbytes = float(template["params_fixed"].get("bytes", 0.0))
            seq = lists["seq"][row]
            seq_in_comm = (lists["aux_seq"][row]
                           if lists["flags"][row] & F_COLL_SEQ else seq)
            self_position = group.index(rank) if rank in group else 0

            peer_position = None
            pair_index = None
            is_p2p = op in _P2P_OPS
            if is_p2p:
                peer = int(info.get("peer", rank))
                peer_position = group.index(peer) if peer in group else 0
                if op == "send":
                    pair_key = (info.get("comm_id"), self_position, peer_position)
                else:
                    pair_key = (info.get("comm_id"), peer_position, self_position)
                pair_index = pair_counters.get(pair_key, 0)
                pair_counters[pair_key] = pair_index + 1

            resolutions[seq] = CollectiveResolution(
                op=op,
                tag=tag,
                nranks=nranks,
                nbytes=nbytes,
                seq_in_comm=seq_in_comm,
                representative_group=group,
                self_position=self_position,
                peer_position=peer_position,
                pair_index=pair_index,
                is_p2p=is_p2p,
            )
        return resolutions
