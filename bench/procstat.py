"""Process-tree accounting read from ``/proc`` (Linux only)."""

from __future__ import annotations

import os
import resource
from typing import Dict, Iterable, List, Tuple

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name (which may
    contain spaces): index 0 is the state, 1 the parent pid, 3 the session,
    11 and 12 utime and stime in clock ticks."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read().decode("ascii", "replace")
    return data[data.rindex(")") + 2:].split()


def _processes() -> Dict[int, List[str]]:
    table: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                table[int(entry)] = _stat_fields(int(entry))
            except (OSError, ValueError):
                continue  # exited while we were scanning
    return table


def descendants(root: int) -> List[int]:
    """Live descendants of ``root`` (children, grandchildren, ...)."""
    children: Dict[int, List[int]] = {}
    for pid, fields in _processes().items():
        children.setdefault(int(fields[1]), []).append(pid)
    found: List[int] = []
    frontier = [root]
    while frontier:
        frontier = [child for pid in frontier
                    for child in children.get(pid, ())]
        found.extend(frontier)
    return found


def session_members(session: int) -> List[Tuple[int, str]]:
    """``(pid, state)`` of every live, non-zombie process in ``session``."""
    return [(pid, fields[0]) for pid, fields in _processes().items()
            if int(fields[3]) == session and fields[0] != "Z"]


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by the live ``pids``."""
    ticks = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except (OSError, ValueError):
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _TICK


class TreeCpu:
    """CPU seconds of this process and its live descendants over a phase.

    The descendants are listed when the phase starts; they must outlive it
    (pool workers and the local server do), because a reaped child's ticks
    leave ``/proc``.
    """

    def __init__(self) -> None:
        self._pids = [os.getpid(), *descendants(os.getpid())]
        self._start = cpu_seconds(self._pids)

    def elapsed(self) -> float:
        return cpu_seconds(self._pids) - self._start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped
    descendant, in MB (``ru_maxrss`` is in kB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0
