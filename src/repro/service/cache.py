"""Content-addressed caching of emulation artifacts and predictions.

The cache has two levels, both keyed on job signatures (see
:meth:`repro.workloads.job.TrainingJob.structural_signature`):

* **artifact level** -- :class:`~repro.core.pipeline.EmulationArtifacts`
  keyed by the *structural* signature (the knob subset that determines the
  trace shape) plus the pipeline's collation fingerprint.  A hit skips
  emulation and collation entirely; only estimation and simulation re-run.
* **prediction level** -- finished
  :class:`~repro.core.pipeline.PredictionResult` objects keyed by the *full*
  signature plus the estimator fingerprint.  A hit skips all four stages
  (the paper's trial result reuse).

Both levels are guarded by one lock: a prediction server reads the
stats on its event-loop thread while its executor thread evaluates, and
one service may be called from several threads.  Multiple services (e.g.
a learned and an oracle pipeline over the same cluster) can point at one
cache instance so structurally identical jobs emulate exactly once.

The artifact level additionally keeps a **sync journal** for the
``persistent`` worker pool: every ``put_artifacts`` advances a monotonic
epoch, and :meth:`delta_since` returns exactly the entries a long-lived
worker whose cache copy was last synced at a given epoch is missing.
Entries evicted in the meantime simply never appear in the delta (the
worker not having them matches the parent not having them); an epoch the
journal cannot serve (ahead of the parent, or negative) signals a stale
worker that must receive a full :meth:`snapshot` instead.

**Held payloads.**  An entry may be a :class:`HeldArtifacts`: the wire
payload a pooled worker encoded, kept as received together with the
``job`` / ``cluster`` to re-attach.  The journal hands held entries out
as they are, so the parent forwards a worker's bytes to its siblings
without decoding them, and a worker holds what a sync delivers.  Only
:meth:`~ArtifactCache.lookup_artifacts` and
:meth:`~ArtifactCache.peek_artifacts` decode, once, swapping the decoded
object in place: the entry keeps its epoch and its put order.  Cold
batches never look their merged artifacts up, so they never decode them.
A held payload that fails to decode raises
:class:`~repro.service.wire.WireError` naming its key and is dropped like
an eviction, so the next lookup re-emulates.

The delta protocol's invariants, which the worker pool relies on:

* **Only puts travel.**  A delta never names evictions, so any eviction
  (or :meth:`clear`) after a worker's acked epoch makes that worker's
  cursor unserviceable -- :meth:`delta_since` returns ``None`` and the
  parent must ship a full :meth:`snapshot`, replacing the worker's table
  wholesale.  A worker can therefore never serve an artifact the parent
  no longer has.
* **Origin filtering** happens above this journal: the parent remembers
  which worker freshly emulated each artifact and drops that entry from
  the producer's own delta (it already holds an equivalent local copy).
* **No worker-side capacity eviction.**  :meth:`apply_artifact_delta`
  mirrors the parent's table verbatim instead of choosing its own
  victims, because a locally chosen victim could differ from the
  parent's and make the worker miss where a serial run hits.
* **Input-order merge.**  The parent folds worker payloads back in batch
  input order (not arrival order), so near ``max_entries`` the merge
  evicts the same victim a serial run would -- byte-identical accounting
  is the conformance contract of ``tests/backend_conformance.py``.

Entries are content-keyed tuples and reference no parent memory, so a
delta pickles onto a pipe as it is.

**Tiering.**  The artifact level can sit on top of a disk-backed
:class:`~repro.service.store.ArtifactStore` (the *cold tier*, attached
via :attr:`ArtifactCache.store`): a memory miss falls through to the
store, and fresh puts write through to it (a held payload is decoded
for the write).  A store hit **hydrates** through the exact same
journalled put path a fresh emulation takes --
the epoch advances, capacity eviction runs, and pooled workers receive
the hydrated entry through the ordinary delta protocol.  That is the
*hydration-as-resync invariant*: a fresh service warming from disk is
indistinguishable (to the journal, to workers, to eviction) from one
that re-emulated everything, so results stay byte-identical to a cold
serial run no matter which tier satisfied each lookup.  Accounting is
tier-labelled (``memory_hits`` + ``store_hits`` partition
``artifact_hits``); sync/hydration traffic never touches the counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import EmulationArtifacts, PredictionResult
from repro.hardware.cluster import ClusterSpec
from repro.service import wire
from repro.service.wire import WireError
from repro.workloads.job import TrainingJob


@dataclass
class CacheStats:
    """Counters surfaced by benchmarks, ``SearchResult`` and the CLI."""

    artifact_hits: int = 0
    artifact_misses: int = 0
    prediction_hits: int = 0
    prediction_misses: int = 0
    #: Tier split of ``artifact_hits`` (their sum always equals it):
    #: hits served by the in-memory hot tier vs the disk-backed store.
    memory_hits: int = 0
    store_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups across both cache levels."""
        return (self.prediction_hits + self.prediction_misses
                + self.artifact_hits + self.artifact_misses)

    @property
    def hits(self) -> int:
        """Lookups resolved without re-running pipeline stages."""
        return self.prediction_hits + self.artifact_hits

    @property
    def hit_rate(self) -> float:
        """Share of all lookups served from the cache (always in [0, 1])."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
            "prediction_hits": self.prediction_hits,
            "prediction_misses": self.prediction_misses,
            "memory_hits": self.memory_hits,
            "store_hits": self.store_hits,
            "hits": self.hits,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True, slots=True)
class HeldArtifacts:
    """Artifacts kept as the wire payload a pooled worker encoded.

    ``payload`` is :func:`repro.service.wire.dumps_columnar` output.
    :meth:`decode` re-attaches ``job`` and ``cluster``, the holder's own
    objects (``job`` is ``None`` on a worker, which never reads it).
    """

    payload: bytes = field(repr=False)
    job: Optional[TrainingJob]
    cluster: Optional[ClusterSpec]

    def decode(self, key: Tuple) -> EmulationArtifacts:
        """The artifacts the payload holds; :class:`WireError` naming
        ``key`` when the bytes do not decode to them."""
        try:
            artifacts = wire.loads(self.payload)
        except Exception as exc:
            raise WireError(
                f"held artifact payload for key {key!r} does not decode "
                f"({type(exc).__name__}: {exc})") from exc
        if not isinstance(artifacts, EmulationArtifacts):
            raise WireError(
                f"held artifact payload for key {key!r} decodes to "
                f"{type(artifacts).__name__}, not EmulationArtifacts")
        return replace(artifacts, job=self.job, cluster=self.cluster)


#: What the artifact table stores per key: decoded artifacts, or a held
#: wire payload not yet looked up.
ArtifactEntry = Union[EmulationArtifacts, HeldArtifacts]


class ArtifactCache:
    """Two-level, thread-safe cache of emulation artifacts and predictions."""

    def __init__(self, max_entries: int = 256, store=None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: Optional disk-backed cold tier
        #: (:class:`repro.service.store.ArtifactStore`).
        self._store = store
        self._lock = threading.Lock()
        self._artifacts: Dict[Tuple, ArtifactEntry] = {}
        self._predictions: Dict[Tuple, PredictionResult] = {}
        #: Monotonic artifact-put counter (the persistent backend's sync
        #: epoch) and the epoch at which each live entry was (last) put.
        self._epoch = 0
        self._artifact_epochs: Dict[Tuple, int] = {}
        #: Epoch at the most recent artifact eviction (or ``clear``).  The
        #: delta protocol only ships puts, so a worker synced before an
        #: eviction may still hold the evicted entry -- its next delta
        #: request is refused and it receives a full snapshot instead.
        self._eviction_epoch = 0

    # ------------------------------------------------------------------
    # tiering (disk-backed cold tier)
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The attached cold tier, or ``None`` (memory-only cache)."""
        return self._store

    @store.setter
    def store(self, store) -> None:
        with self._lock:
            self._store = store

    # ------------------------------------------------------------------
    # artifact level
    # ------------------------------------------------------------------

    def lookup_artifacts(self, key: Tuple) -> Tuple[
            Optional[EmulationArtifacts], str]:
        """Tiered lookup: ``(artifacts, tier)``.

        ``tier`` is ``"memory"``, ``"store"`` or ``"miss"``.  A held
        memory entry is decoded here, once (see :meth:`_decoded_locked`).
        A store hit hydrates the memory tier through the journalled put
        path (epoch advance + capacity eviction, no write-back), so to the
        sync journal -- and therefore to every pooled worker -- a
        disk-warmed entry is indistinguishable from a freshly emulated
        one.
        """
        with self._lock:
            artifacts = self._decoded_locked(key)
            if artifacts is not None:
                self.stats.artifact_hits += 1
                self.stats.memory_hits += 1
                # Reused artifacts cost nothing to "produce": report zeroed
                # emulation / collation stage times for the borrowing trial.
                return replace(
                    artifacts,
                    stage_times={"emulation": 0.0, "collation": 0.0}), "memory"
            if self._store is not None:
                artifacts = self._store.get(key)
                if artifacts is not None:
                    self.stats.artifact_hits += 1
                    self.stats.store_hits += 1
                    self._put_artifacts_locked(key, artifacts,
                                               write_through=False)
                    return replace(
                        artifacts,
                        stage_times={"emulation": 0.0,
                                     "collation": 0.0}), "store"
            self.stats.artifact_misses += 1
            return None, "miss"

    def put_artifacts(self, key: Tuple, artifacts: ArtifactEntry) -> None:
        """Journalled put of decoded artifacts or a :class:`HeldArtifacts`
        (a pooled worker's payload, merged undecoded)."""
        with self._lock:
            self._put_artifacts_locked(key, artifacts, write_through=True)

    def _put_artifacts_locked(self, key: Tuple, artifacts: ArtifactEntry,
                              write_through: bool) -> None:
        write_through = write_through and self._store is not None
        if write_through and isinstance(artifacts, HeldArtifacts):
            # The store persists decoded artifacts: decode before the
            # table changes, so bad bytes leave the cache as it was.
            artifacts = artifacts.decode(key)
        if key not in self._artifacts:
            # Re-putting a live key replaces its value in place and must
            # NOT evict: at capacity the victim would be an unrelated
            # entry, and bumping the eviction epoch would force every
            # pooled worker into a needless full-snapshot resync.
            self._evict_artifacts()
        self._epoch += 1
        self._artifacts[key] = artifacts
        self._artifact_epochs[key] = self._epoch
        if write_through:
            # Fresh artifacts persist to the cold tier; store-hydrated
            # ones (write_through=False) came from there.
            self._store.put(key, artifacts)

    def hydrate_from_store(self, key: Tuple) -> bool:
        """Mirror a pooled worker's store-tier hit into the memory tier.

        Merge bookkeeping (never counts stats: the worker's own lookup
        was already replayed): under a pooled backend the store hit
        happened in the worker process, so the parent hydrates its own
        memory tier from its own store -- in batch input order -- to
        land in exactly the state a serial run's lookup would have left.
        """
        with self._lock:
            if key in self._artifacts:
                return True
            if self._store is None:
                return False
            artifacts = self._store.get(key)
            if artifacts is None:
                return False
            self._put_artifacts_locked(key, artifacts, write_through=False)
            return True

    def peek_artifacts(self, key: Tuple) -> Optional[EmulationArtifacts]:
        """Lookup without touching hit/miss counters (decodes a held
        entry, like :meth:`lookup_artifacts`)."""
        with self._lock:
            return self._decoded_locked(key)

    def peek_entry(self, key: Tuple) -> Optional[ArtifactEntry]:
        """The stored entry as it is -- held payloads stay undecoded --
        without touching the counters (merge and placement bookkeeping)."""
        with self._lock:
            return self._artifacts.get(key)

    def _decoded_locked(self, key: Tuple) -> Optional[EmulationArtifacts]:
        """The live entry for ``key``, a held payload decoded in place.

        The swap keeps the key's epoch and put order, so the journal and
        eviction see no change.  Bytes that do not decode are dropped like
        an eviction (workers synced before it full-resync) and raise
        :class:`WireError`: the next lookup misses and re-emulates.
        """
        entry = self._artifacts.get(key)
        if not isinstance(entry, HeldArtifacts):
            return entry
        try:
            artifacts = entry.decode(key)
        except WireError:
            del self._artifacts[key]
            self._artifact_epochs.pop(key, None)
            self._eviction_epoch = self._epoch + 1
            raise
        self._artifacts[key] = artifacts
        return artifacts

    # ------------------------------------------------------------------
    # sync journal (persistent-backend cache-delta protocol)
    # ------------------------------------------------------------------
    @property
    def sync_epoch(self) -> int:
        """Epoch of the newest artifact put (0 for an empty journal)."""
        with self._lock:
            return self._epoch

    def delta_since(self, epoch: int) -> Optional[
            Tuple[int, List[Tuple[Tuple, ArtifactEntry]]]]:
        """Artifact entries put after ``epoch``, oldest first, as stored
        (held payloads stay undecoded).

        Returns ``(current_epoch, entries)``, or ``None`` when this journal
        cannot bring a worker synced at ``epoch`` up to date with puts
        alone: the epoch was never issued (negative, or ahead of the
        current epoch), or an eviction / ``clear`` happened after it (the
        worker may hold entries the parent dropped).  The caller must then
        fall back to a full :meth:`snapshot`, which replaces the worker's
        table wholesale.
        """
        with self._lock:
            if epoch < 0 or epoch > self._epoch:
                return None
            if epoch < self._eviction_epoch:
                return None
            entries = sorted(
                ((seq, key) for key, seq in self._artifact_epochs.items()
                 if seq > epoch),
                key=lambda item: item[0])
            return self._epoch, [(key, self._artifacts[key])
                                 for _, key in entries]

    def keys_synced_at(self, epoch: int) -> frozenset:
        """Artifact keys a worker synced at ``epoch`` is known to hold.

        Every live key whose put epoch is at or before ``epoch`` -- i.e.
        what a delta shipped at that epoch (or earlier) delivered.  Fills
        :attr:`WorkerSnapshot.held_keys`, against which the placement
        counters credit zero-ship placements (``locality_hits``);
        returns the empty set for epochs the journal cannot vouch
        for (pre-journal, future, or behind an eviction), mirroring the
        cases where :meth:`delta_since` forces a full resync.
        """
        with self._lock:
            if epoch <= 0 or epoch > self._epoch:
                return frozenset()
            if epoch < self._eviction_epoch:
                return frozenset()
            return frozenset(key for key, seq in self._artifact_epochs.items()
                             if seq <= epoch)

    def snapshot(self) -> Tuple[int, List[Tuple[Tuple, ArtifactEntry]]]:
        """Every live artifact entry in put order, as stored, plus the
        current epoch."""
        with self._lock:
            entries = sorted(self._artifact_epochs.items(),
                             key=lambda item: item[1])
            return self._epoch, [(key, self._artifacts[key])
                                 for key, _ in entries]

    def apply_artifact_delta(
            self, entries: Sequence[Tuple[Tuple, ArtifactEntry]],
            full: bool = False) -> None:
        """Fold a parent-shipped delta (or full snapshot) into this cache.

        Entries are stored as given: a worker holds the payloads a sync
        delivers and decodes one only when a lookup hits it.  Used on the
        worker side of the persistent backend; never touches the
        hit/miss counters -- sync traffic is bookkeeping, not lookups.
        Capacity eviction deliberately does *not* run here: the parent
        already bounds its table, and an independently chosen local victim
        (this cache's insertion order can differ from the parent's put
        order) would make the worker miss where a serial run hits, breaking
        byte-identical cache accounting.  The worker mirrors the parent's
        table instead of policing its own size; any transient overshoot is
        corrected by the full resync the parent's next eviction forces.
        """
        with self._lock:
            if full:
                self._artifacts.clear()
                self._artifact_epochs.clear()
            for key, artifacts in entries:
                self._artifacts[key] = artifacts

    # ------------------------------------------------------------------
    # prediction level
    # ------------------------------------------------------------------
    def get_prediction(self, key: Tuple) -> Optional[PredictionResult]:
        with self._lock:
            result = self._predictions.get(key)
            if result is None:
                self.stats.prediction_misses += 1
                return None
            self.stats.prediction_hits += 1
            return result

    def put_prediction(self, key: Tuple, result: PredictionResult) -> None:
        with self._lock:
            self._evict(self._predictions)
            self._predictions[key] = result

    def peek_prediction(self, key: Tuple) -> Optional[PredictionResult]:
        """Lookup without touching hit/miss counters (merge bookkeeping)."""
        with self._lock:
            return self._predictions.get(key)

    def drop_predictions(self) -> None:
        """Clear only the prediction level, leaving stats untouched.

        Persistent-worker hygiene: the parent resolves every prediction-
        level hit before dispatch, so a dispatched job by definition has no
        prediction on the parent -- a worker-local entry for it could only
        be one the parent has since evicted.  Workers drop the level before
        each job so they can never serve (and mis-account) such a hit.
        """
        with self._lock:
            self._predictions.clear()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _evict(self, table: Dict) -> None:
        """FIFO eviction keeping each level under ``max_entries``."""
        while len(table) >= self.max_entries:
            table.pop(next(iter(table)))

    def _evict_artifacts(self) -> None:
        """Artifact-level eviction: prunes the journal and records the
        eviction epoch so pre-eviction workers get a full resync."""
        while len(self._artifacts) >= self.max_entries:
            evicted = next(iter(self._artifacts))
            self._artifacts.pop(evicted)
            self._artifact_epochs.pop(evicted, None)
            # Stamp the epoch of the *incoming* put (epoch increments after
            # this runs): a worker synced at exactly the current epoch saw
            # the evicted entry and must resync too.
            self._eviction_epoch = self._epoch + 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts) + len(self._predictions)

    def clear(self) -> None:
        with self._lock:
            self._artifacts.clear()
            self._predictions.clear()
            self._artifact_epochs.clear()
            # Workers synced at any epoch up to now still hold the dropped
            # entries; refuse their deltas until they full-resync.
            self._eviction_epoch = self._epoch + 1
            self.stats = CacheStats()
