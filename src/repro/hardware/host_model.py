"""Host (CPU) side performance model.

The paper measures wall-clock deltas between device API calls during
emulation and replays them as blocking host delays in the simulator
(Section 4.2, "Worker Trace Generation").  Because this reproduction has no
real PyTorch dispatcher to time, the host model synthesises those deltas.

The cost of one dispatch is split into two components:

* a **deterministic base cost** per API call class
  (:meth:`HostModel.base_cost`) -- this is what the emulator records in the
  ``HOST_DELAY`` trace event, so structurally identical iteration windows
  carry identical recorded host delays;
* a **jitter factor** keyed on the per-worker call sequence number
  (:meth:`HostModel.jitter_factor`) -- applied by the simulation engine when
  it materializes per-event durations, so traces are realistic but
  repeatable.  :func:`host_delay_materializer` is the replay-side half of
  this contract: seeded from the host-model profile the emulator stamps on
  the trace, it reproduces ``base_cost * jitter_factor`` bit for bit.

Legacy traces whose ``HOST_DELAY`` events were recorded pre-jittered (no
``seq`` entry in ``params``) replay by value, exactly as before the split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.hardware.noise import fast_noise, stable_hash


#: Baseline host-side cost in seconds for each API call class.
_DEFAULT_DISPATCH_COSTS: Dict[str, float] = {
    "kernel_launch": 8.0e-6,
    "gemm": 12.0e-6,
    "conv": 15.0e-6,
    "memcpy": 10.0e-6,
    "memset": 4.0e-6,
    "malloc": 20.0e-6,
    "free": 8.0e-6,
    "collective": 25.0e-6,
    "event": 2.5e-6,
    "stream": 3.0e-6,
    "sync": 5.0e-6,
    "misc": 3.0e-6,
    "optimizer": 30.0e-6,
    "dataloader": 150.0e-6,
}

#: Cost of last resort when a caller supplies custom ``dispatch_costs``
#: covering neither the requested call class nor ``"misc"``.
_FALLBACK_DISPATCH_COST: float = _DEFAULT_DISPATCH_COSTS["misc"]

#: Lower clamp on the multiplicative jitter factor (a dispatch can be fast,
#: but never free or negative).
_JITTER_FLOOR = 0.2

#: ``WorkerTrace.metadata`` key under which the emulator records the host
#: model profile (name + jitter magnitude) that produced the trace's
#: structured ``HOST_DELAY`` events.
HOST_MODEL_METADATA_KEY = "host_model"

#: Memo of stable per-(host, call class) jitter seeds (hot path).
_CLASS_SEEDS: Dict[Tuple[str, str], int] = {}


def dispatch_class_seed(host_name: str, call_class: str) -> int:
    """Stable jitter seed of one (host, call class) pair, memoized.

    Shared by emulation-time :meth:`HostModel.jitter_factor` and replay-time
    :func:`host_delay_materializer` so both sides of the host-delay split
    draw the same ``fast_noise`` stream.
    """
    key = (host_name, call_class)
    seed = _CLASS_SEEDS.get(key)
    if seed is None:
        seed = stable_hash("host-dispatch", host_name, call_class)
        _CLASS_SEEDS[key] = seed
    return seed


@dataclass(frozen=True)
class HostModel:
    """Synthesises host-side dispatch overheads for emulated API calls."""

    name: str = "epyc-7513"
    #: Multiplier applied to every dispatch cost (slower / faster hosts).
    speed_factor: float = 1.0
    #: Relative magnitude of deterministic jitter applied per call.
    jitter: float = 0.15
    dispatch_costs: Dict[str, float] = field(
        default_factory=lambda: dict(_DEFAULT_DISPATCH_COSTS)
    )

    def base_cost(self, call_class: str) -> float:
        """Deterministic host time for dispatching one ``call_class`` call.

        This is the value the emulator records in the trace.  Unknown call
        classes fall back to the caller's ``"misc"`` cost, or to the module
        default when a custom table carries no ``"misc"`` entry either.
        """
        base = self.dispatch_costs.get(call_class)
        if base is None:
            base = self.dispatch_costs.get("misc", _FALLBACK_DISPATCH_COST)
        return base * self.speed_factor

    def jitter_factor(self, call_class: str, seq: int) -> float:
        """Multiplicative per-call jitter factor (mean 1.0).

        ``seq`` keys the deterministic jitter so that repeated calls of the
        same class do not all take exactly the same time.  This runs once
        per emulated API call -- millions of times per search -- so the
        jitter comes from the integer-mix ``fast_noise`` seeded by a cached
        per-class stable hash rather than a cryptographic hash per call.
        The factor is uniform in ``1 +- jitter * sqrt(3)``, clamped below
        at 0.2.
        """
        noise = fast_noise(dispatch_class_seed(self.name, call_class) + seq,
                           scale=self.jitter)
        return max(noise, _JITTER_FLOOR)

    def dispatch_cost(self, call_class: str, seq: int = 0) -> float:
        """Host time consumed dispatching one call of ``call_class``.

        Equal to ``base_cost(call_class) * jitter_factor(call_class, seq)``
        by construction -- the same two factors the emulator (base) and the
        simulation engine (jitter) apply on their respective sides of the
        host-delay split.
        """
        return self.base_cost(call_class) * self.jitter_factor(call_class,
                                                               seq)

    def trace_profile(self) -> Dict[str, Any]:
        """Metadata blob the emulator stamps on every worker trace.

        Carries exactly what replay-time materialization needs to reproduce
        this model's jitter stream: the seed namespace (``name``) and the
        jitter magnitude.
        """
        return {"name": self.name, "jitter": self.jitter}


def host_delay_materializer(metadata: Mapping[str, Any]
                            ) -> Callable[[Any], float]:
    """Per-event ``HOST_DELAY`` duration function for one worker trace.

    ``metadata`` is the trace's metadata mapping.  The returned callable
    maps a ``HOST_DELAY`` :class:`~repro.core.trace.TraceEvent` to the
    duration the simulator should replay:

    * **structured** events (a ``"seq"`` entry in ``params``, written by
      post-split emulators) store the deterministic base cost in
      ``duration``; the jitter factor is re-synthesised here from the
      recorded host-model profile -- same seed, same sequence number, same
      multiply -- so per-event replay is bit-identical to traces that baked
      the jitter in at emulation time;
    * **legacy** events (no ``"seq"``) were recorded pre-jittered and
      replay by value.
    """
    profile = metadata.get(HOST_MODEL_METADATA_KEY) or {}
    host_name = str(profile.get("name", ""))
    scale = float(profile.get("jitter", 0.0))

    def materialize(event: Any) -> float:
        base = event.duration or 0.0
        seq = event.params.get("seq")
        if seq is None or scale <= 0.0:
            return base
        seed = dispatch_class_seed(
            host_name, str(event.params.get("call_class", "misc")))
        return base * max(fast_noise(seed + int(seq), scale=scale),
                          _JITTER_FLOOR)

    return materialize
