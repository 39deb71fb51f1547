"""Disk-backed, content-addressed cold tier of the artifact cache.

:class:`ArtifactStore` persists :class:`~repro.core.pipeline.EmulationArtifacts`
under a *store directory* so the expensive emulation + collation work one
process pays survives into every later ``repro search`` / ``compare`` /
``serve`` invocation -- and so a fleet of service processes on one
filesystem shares a single artifact corpus.  It is the cold tier beneath
the in-memory :class:`~repro.service.cache.ArtifactCache`: memory misses
fall through to :meth:`get`, fresh puts write through via :meth:`put`.

Layout (``store_dir/``)::

    store-format.json             # {"store_format": 1, "protocol": 3}
    objects/<dd>/<digest>.art     # one entry per artifact key

Entries are **content-addressed**: the filename digest is the SHA-256 of
``repr(key)``, where keys are the same ``(structural_signature,
collation_fingerprint)`` tuples the in-memory artifact level uses.  Keys
are tuples of primitives, so their ``repr`` is deterministic across
processes and Python runs -- two processes deriving the same key address
the same file, and a concurrent double-write is harmless (last writer
wins with equivalent content).

Entry file format::

    b"MAYS" | fmt:1 byte | length:8 bytes BE | payload | sha256 trailer

The payload is the pickled ``(key, artifacts)`` pair serialised by the
**wire encoder** (:func:`repro.service.wire.dumps_columnar`), the same
encoder the worker pool ships artifacts with.  The trailer is the SHA-256 of header + payload.

Durability rules:

* **Atomic writes.**  Entries are written to a uniquely named temp file
  in the same directory, flushed + fsynced, then published with
  ``os.replace``.  Readers therefore only ever see absent or complete
  files; interleaved writers cannot corrupt an entry.
* **Partial/corrupt files are data loss, never errors.**  A truncated
  file (crash mid-write before the rename -- or a hand-truncated final
  file), a checksum mismatch, or garbage bytes make :meth:`get` return
  ``None`` (a plain miss) and bump the ``corrupt`` counter.
  :meth:`verify` re-checksums every entry and can quarantine bad files
  (renamed to ``*.corrupt``) so they stop being rescanned.
* **Versioning.**  The store directory carries a ``store-format.json``
  stamp with the store format *and* the wire protocol version; opening a
  store written by an incompatible ``repro`` refuses with
  :class:`StoreFormatError` naming both sides (never silently misreads).

Eviction is size-budgeted LRU by file mtime (:meth:`gc`); reads touch
mtime so warm entries survive.  A store object holds no open file
descriptors between calls and is never picklable: each process attaches
its own (``--store-dir`` / ``REPRO_STORE_DIR``), and forked pool workers
inherit the parent's.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: On-disk entry format version.  Bump on any incompatible change to the
#: entry layout or the key scheme; old stores are then refused, not
#: misread.
STORE_FORMAT = 1

#: First bytes of every entry file ("MAYa Store"; the wire frames use
#: b"MAYA", a store file is deliberately not a valid wire frame).
ENTRY_MAGIC = b"MAYS"

#: fixed-size entry header: magic, payload format byte (the wire format
#: the payload was encoded with), payload length.
_ENTRY_HEADER = struct.Struct(">4sBQ")

#: sha256 digest size of the integrity trailer.
_TRAILER_LEN = hashlib.sha256().digest_size

#: Name of the version stamp at the store root.
FORMAT_FILE = "store-format.json"

#: Environment variable the CLI reads for a default store
#: directory (the fleet-wide "one shared store" switch).
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Default size budget for :meth:`ArtifactStore.gc` (256 MiB).
DEFAULT_SIZE_BUDGET = 256 * 1024 * 1024


class StoreError(RuntimeError):
    """A store operation failed in a way the caller must hear about."""


class StoreFormatError(StoreError):
    """The store directory was written by an incompatible ``repro``."""


def key_digest(key: Tuple) -> str:
    """Content address of ``key``: SHA-256 of its deterministic repr."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class ArtifactStore:
    """Disk-backed, content-addressed artifact store (cold cache tier).

    Thread-safe; safe to share across processes pointing at one
    directory (atomic-rename writes, content-addressed last-writer-wins).
    Never picklable: each process attaches its own instance.
    """

    def __init__(self, root, size_budget: int = DEFAULT_SIZE_BUDGET,
                 create: bool = True) -> None:
        self.root = Path(root)
        if size_budget < 1:
            raise ValueError("size_budget must be at least 1 byte")
        self.size_budget = int(size_budget)
        self._lock = threading.Lock()
        self._tmp_counter = 0
        #: Per-process operation counters (surfaced by ``repro cache
        #: stats``); deliberately *not* part of :class:`CacheStats` --
        #: conformance compares cache accounting, not disk traffic.
        self.counters: Dict[str, int] = {
            "gets": 0, "hits": 0, "misses": 0, "puts": 0,
            "put_skips": 0, "corrupt": 0, "evicted": 0,
        }
        self._objects = self.root / "objects"
        if create:
            self._objects.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"store directory {self.root} does not exist")
        self._check_format(create)

    # ------------------------------------------------------------------
    # format stamp
    # ------------------------------------------------------------------
    def _format_stamp(self) -> Dict[str, int]:
        from repro.service import wire
        return {"store_format": STORE_FORMAT, "protocol": wire.PROTOCOL}

    def _check_format(self, create: bool) -> None:
        """Stamp a fresh store; refuse an incompatible existing one."""
        stamp_path = self.root / FORMAT_FILE
        expected = self._format_stamp()
        try:
            recorded = json.loads(stamp_path.read_text())
        except FileNotFoundError:
            if not create:
                raise StoreFormatError(
                    f"{self.root} has no {FORMAT_FILE}; not an artifact "
                    f"store (or one from before versioning)")
            # First writer wins; a concurrent stamp of the same content is
            # fine (os.replace), and a mismatched one is caught next open.
            self._atomic_write(stamp_path,
                               json.dumps(expected).encode("utf-8"))
            return
        except (OSError, ValueError) as exc:
            raise StoreFormatError(
                f"unreadable store format stamp {stamp_path}: {exc}")
        if not isinstance(recorded, dict) or recorded != expected:
            raise StoreFormatError(
                f"store {self.root} was written with format "
                f"{recorded!r}, but this repro speaks {expected!r}; "
                f"point --store-dir at a fresh directory or upgrade the "
                f"older side")

    # ------------------------------------------------------------------
    # paths / encoding
    # ------------------------------------------------------------------
    def _entry_path(self, key: Tuple) -> Path:
        digest = key_digest(key)
        return self._objects / digest[:2] / f"{digest}.art"

    def _encode(self, key: Tuple, artifacts) -> bytes:
        """Serialise one entry: wire-encoded payload + checksummed frame.

        The payload is encoded with :func:`repro.service.wire.dumps_columnar`,
        the worker pool's artifact encoder.
        """
        from repro.service import wire
        payload = wire.dumps_columnar((key, artifacts))
        body = _ENTRY_HEADER.pack(ENTRY_MAGIC, wire._FORMAT_PICKLE_COLUMNAR,
                                  len(payload)) + payload
        return body + hashlib.sha256(body).digest()

    def _decode(self, data: bytes):
        """Decode + integrity-check one entry file; None when invalid."""
        from repro.service import wire
        if len(data) < _ENTRY_HEADER.size + _TRAILER_LEN:
            return None
        magic, fmt, length = _ENTRY_HEADER.unpack_from(data)
        if magic != ENTRY_MAGIC:
            return None
        body_len = _ENTRY_HEADER.size + length
        if len(data) != body_len + _TRAILER_LEN:
            return None
        body, trailer = data[:body_len], data[body_len:]
        if hashlib.sha256(body).digest() != trailer:
            return None
        try:
            return wire.decode_payload(fmt, data[_ENTRY_HEADER.size:body_len])
        except Exception:
            return None

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """temp file + fsync + ``os.replace``: readers never see partials."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        tmp = path.parent / f".tmp-{os.getpid()}-{counter}-{path.name}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: Tuple):
        """The stored artifacts for ``key``, or ``None``.

        Corrupt / partial files count as misses (and bump ``corrupt``);
        a hit touches the entry's mtime so LRU ``gc`` keeps warm entries.
        """
        self.counters["gets"] += 1
        path = self._entry_path(key)
        try:
            data = path.read_bytes()
        except (FileNotFoundError, OSError):
            self.counters["misses"] += 1
            return None
        decoded = self._decode(data)
        if decoded is None:
            self.counters["corrupt"] += 1
            self.counters["misses"] += 1
            return None
        stored_key, artifacts = decoded
        if stored_key != key:  # digest collision / tampered file
            self.counters["corrupt"] += 1
            self.counters["misses"] += 1
            return None
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        self.counters["hits"] += 1
        return artifacts

    def put(self, key: Tuple, artifacts) -> bool:
        """Persist ``artifacts`` under ``key``; True when bytes were written.

        An existing entry is left in place (content-addressed: an entry
        for the same key is equivalent), so steady-state warm runs do no
        write IO.  Unpicklable artifacts are skipped silently -- the
        store is an optimisation, never a correctness dependency.
        """
        path = self._entry_path(key)
        if path.is_file():
            self.counters["put_skips"] += 1
            return False
        try:
            data = self._encode(key, artifacts)
        except Exception:
            self.counters["put_skips"] += 1
            return False
        self._atomic_write(path, data)
        self.counters["puts"] += 1
        return True

    # ------------------------------------------------------------------
    # maintenance: scan / stats / gc / verify
    # ------------------------------------------------------------------
    def _iter_entries(self) -> Iterator[Path]:
        """Every published entry file (temp and quarantined files skipped)."""
        if not self._objects.is_dir():
            return
        for bucket in sorted(self._objects.iterdir()):
            if not bucket.is_dir():
                continue
            for path in sorted(bucket.iterdir()):
                if path.suffix == ".art" and not path.name.startswith("."):
                    yield path

    def stats(self) -> Dict[str, object]:
        """Entry count + on-disk bytes, plus this process's op counters."""
        entries = 0
        total_bytes = 0
        for path in self._iter_entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - entry raced away
                continue
            entries += 1
        return {
            "store_dir": str(self.root),
            "store_format": STORE_FORMAT,
            "entries": entries,
            "total_bytes": total_bytes,
            "size_budget_bytes": self.size_budget,
            "counters": dict(self.counters),
        }

    def gc(self, size_budget: Optional[int] = None) -> Dict[str, int]:
        """Evict oldest-mtime entries until the store fits the budget.

        Also sweeps orphaned temp files (crash leftovers).  Safe against
        concurrent readers/writers: deleting a file a reader just opened
        is fine (POSIX), and a concurrently re-put entry simply survives
        with a fresh mtime.
        """
        budget = self.size_budget if size_budget is None else int(size_budget)
        if budget < 0:
            raise ValueError("size_budget must be >= 0")
        removed = 0
        freed = 0
        aged: List[Tuple[float, int, Path]] = []
        total = 0
        if self._objects.is_dir():
            for bucket in list(self._objects.iterdir()):
                if not bucket.is_dir():
                    continue
                for path in list(bucket.iterdir()):
                    if path.name.startswith(".tmp-"):
                        # Crash leftover: a live writer holds its temp file
                        # only for the instant before os.replace.
                        try:
                            size = path.stat().st_size
                            path.unlink()
                            removed += 1
                            freed += size
                        except OSError:  # pragma: no cover - raced away
                            pass
                        continue
                    if path.suffix != ".art":
                        continue
                    try:
                        stat = path.stat()
                    except OSError:  # pragma: no cover - raced away
                        continue
                    aged.append((stat.st_mtime, stat.st_size, path))
                    total += stat.st_size
        aged.sort(key=lambda item: (item[0], item[2].name))
        for mtime, size, path in aged:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - raced away
                continue
            total -= size
            removed += 1
            freed += size
            self.counters["evicted"] += 1
        return {"removed": removed, "freed_bytes": freed,
                "remaining_bytes": total}

    def verify(self, quarantine: bool = False) -> Dict[str, object]:
        """Re-checksum every entry; optionally quarantine corrupt files.

        Quarantined files are renamed to ``<name>.corrupt`` so scans and
        lookups stop touching them but the bytes stay inspectable.
        """
        checked = 0
        corrupt: List[str] = []
        quarantined: List[str] = []
        for path in list(self._iter_entries()):
            checked += 1
            try:
                data = path.read_bytes()
            except OSError:  # pragma: no cover - entry raced away
                continue
            if self._valid_frame(data):
                continue
            corrupt.append(path.name)
            if quarantine:
                try:
                    path.rename(path.with_suffix(".art.corrupt"))
                    quarantined.append(path.name)
                except OSError:  # pragma: no cover - raced away
                    pass
        return {"checked": checked, "corrupt": sorted(corrupt),
                "quarantined": sorted(quarantined)}

    @staticmethod
    def _valid_frame(data: bytes) -> bool:
        """Structural + checksum validity (no unpickling: ``verify`` must
        be safe on stores written by other processes)."""
        if len(data) < _ENTRY_HEADER.size + _TRAILER_LEN:
            return False
        magic, _, length = _ENTRY_HEADER.unpack_from(data)
        if magic != ENTRY_MAGIC:
            return False
        body_len = _ENTRY_HEADER.size + length
        if len(data) != body_len + _TRAILER_LEN:
            return False
        return hashlib.sha256(data[:body_len]).digest() == data[body_len:]

    # ------------------------------------------------------------------
    # pickling: refused
    # ------------------------------------------------------------------
    def __reduce__(self):
        raise TypeError(
            "ArtifactStore is not picklable: each process must attach its "
            "own store (see PredictionService(store_dir=...), "
            "--store-dir and REPRO_STORE_DIR)")
