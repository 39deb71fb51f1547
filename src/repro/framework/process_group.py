"""Process-group management.

Real frameworks bootstrap NCCL communicators by broadcasting a unique id
through an out-of-band store; the :class:`ProcessGroupRegistry` plays that
store's role, handing every rank of the same group the same
:class:`~repro.cuda.nccl.NcclUniqueId` so the trace collator can later match
their collectives by communicator id and sequence number.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.cuda.nccl import NcclCommunicator, NcclUniqueId, comm_init_rank
from repro.cuda.runtime import CudaRuntime


class ProcessGroupRegistry:
    """Shared registry of communicator bootstrap ids for one training job."""

    def __init__(self) -> None:
        self._unique_ids: Dict[Tuple[str, Tuple[int, ...]], NcclUniqueId] = {}

    def unique_id_for(self, tag: str, ranks: Sequence[int]) -> NcclUniqueId:
        """Return the shared unique id for group ``ranks`` with label ``tag``."""
        key = (tag, tuple(ranks))
        if key not in self._unique_ids:
            self._unique_ids[key] = NcclUniqueId.generate(tag=tag)
        return self._unique_ids[key]

    def init_communicator(
        self,
        runtime: CudaRuntime,
        tag: str,
        rank: int,
        ranks: Sequence[int],
    ) -> NcclCommunicator:
        """``ncclCommInitRank`` for ``rank`` within group ``ranks``."""
        unique_id = self.unique_id_for(tag, ranks)
        return comm_init_rank(runtime, unique_id, rank, ranks)
