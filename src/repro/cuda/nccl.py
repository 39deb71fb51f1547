"""NCCL front-end for the virtual runtime.

Implements the communicator lifecycle the paper describes under
"Inter-Device Dependencies": each worker obtains a unique id, calls
``ncclCommInitRank`` to join a communicator, and then issues collectives
whose trace records carry the communicator id and a per-communicator
sequence number.  The trace collator later matches collectives across
workers using exactly those two fields.

No data is exchanged between workers -- the control flow of DLT workloads
does not depend on collective results -- so communicators are pure
book-keeping objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cuda.errors import NcclError
from repro.cuda.runtime import DEFAULT_STREAM, CudaRuntime
from repro.hardware.kernel_cost import dtype_size

_unique_id_counter = itertools.count(1)


@dataclass(frozen=True)
class NcclUniqueId:
    """Opaque communicator bootstrap id (``ncclGetUniqueId``).

    All ranks of one communicator must be constructed with the same unique
    id; in the real library it is broadcast out-of-band (e.g. via MPI or a
    TCP store), here the launcher simply shares the object.
    """

    value: int
    #: Optional human-readable tag (e.g. "tp", "dp", "pp") used in traces.
    tag: str = ""

    @staticmethod
    def generate(tag: str = "") -> "NcclUniqueId":
        return NcclUniqueId(value=next(_unique_id_counter), tag=tag)


#: Maps public collective names to cost-model kernel classes.
_COLLECTIVE_CLASSES = {
    "all_reduce": "all_reduce",
    "reduce_scatter": "reduce_scatter",
    "all_gather": "all_gather",
    "broadcast": "broadcast",
    "reduce": "reduce",
    "all_to_all": "all_to_all",
    "send": "send",
    "recv": "recv",
    "barrier": "barrier",
}


class NcclCommunicator:
    """A per-rank handle on a collective communication group."""

    def __init__(
        self,
        runtime: CudaRuntime,
        unique_id: NcclUniqueId,
        rank: int,
        world_ranks: Sequence[int],
    ) -> None:
        if rank not in world_ranks:
            raise NcclError(
                f"rank {rank} is not a member of communicator group {world_ranks}"
            )
        if len(set(world_ranks)) != len(world_ranks):
            raise NcclError(f"duplicate ranks in communicator group {world_ranks}")
        self._runtime = runtime
        self.unique_id = unique_id
        self.rank = rank
        self.world_ranks = tuple(world_ranks)
        self.nranks = len(world_ranks)
        self._seq = 0
        self._destroyed = False

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def all_reduce(self, count: int, dtype: str = "float16",
                   stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclAllReduce", "all_reduce", count, dtype, stream)

    def reduce_scatter(self, count: int, dtype: str = "float16",
                       stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclReduceScatter", "reduce_scatter", count, dtype, stream)

    def all_gather(self, count: int, dtype: str = "float16",
                   stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclAllGather", "all_gather", count, dtype, stream)

    def broadcast(self, count: int, root: int = 0, dtype: str = "float16",
                  stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclBroadcast", "broadcast", count, dtype, stream, root=root)

    def reduce(self, count: int, root: int = 0, dtype: str = "float16",
               stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclReduce", "reduce", count, dtype, stream, root=root)

    def all_to_all(self, count: int, dtype: str = "float16",
                   stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclAllToAll", "all_to_all", count, dtype, stream)

    def send(self, count: int, peer: int, dtype: str = "float16",
             stream: int = DEFAULT_STREAM) -> None:
        self._check_peer(peer)
        self._emit("ncclSend", "send", count, dtype, stream, peer=peer)

    def recv(self, count: int, peer: int, dtype: str = "float16",
             stream: int = DEFAULT_STREAM) -> None:
        self._check_peer(peer)
        self._emit("ncclRecv", "recv", count, dtype, stream, peer=peer)

    def barrier(self, stream: int = DEFAULT_STREAM) -> None:
        self._emit("ncclBarrier", "barrier", 0, "uint8", stream)

    def destroy(self) -> None:
        """``ncclCommDestroy``."""
        self._destroyed = True
        self._runtime.note_config_change()

    @property
    def seq(self) -> int:
        """Sequence number of the last collective issued."""
        return self._seq

    def advance(self, count: int) -> None:
        """Account for ``count`` collectives the emulator replayed from its
        call log instead of re-issuing them."""
        self._seq += count

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _emit(self, api: str, op: str, count: int, dtype: str, stream: int,
              root: Optional[int] = None, peer: Optional[int] = None) -> None:
        if self._destroyed:
            raise NcclError("communicator used after ncclCommDestroy")
        if count < 0:
            raise NcclError(f"negative element count {count} for {api}")
        self._seq += 1
        nbytes = float(count * dtype_size(dtype))
        collective: Dict[str, object] = {
            "comm_id": self.unique_id.value,
            "comm_tag": self.unique_id.tag,
            "seq": self._seq,
            "op": op,
            "rank": self.rank,
            "nranks": self.nranks,
            "ranks": self.world_ranks,
        }
        if root is not None:
            collective["root"] = root
        if peer is not None:
            collective["peer"] = peer
        self._runtime.emit_collective(
            api=api,
            kernel_class=_COLLECTIVE_CLASSES[op],
            params={"bytes": nbytes, "count": float(count), "dtype": dtype},
            collective=collective,
            stream=stream,
        )

    def _check_peer(self, peer: int) -> None:
        if peer not in self.world_ranks:
            raise NcclError(
                f"peer rank {peer} is not a member of communicator "
                f"{self.world_ranks}"
            )


def comm_init_rank(
    runtime: CudaRuntime,
    unique_id: NcclUniqueId,
    rank: int,
    world_ranks: Sequence[int],
) -> NcclCommunicator:
    """``ncclCommInitRank`` -- create this rank's view of a communicator
    and register it on ``runtime``."""
    comm = NcclCommunicator(runtime, unique_id, rank, world_ranks)
    runtime.communicators.append(comm)
    return comm
