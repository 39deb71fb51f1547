"""Tests for the disk-backed artifact store (the cold cache tier).

Covers the on-disk format (stamping, refusal of incompatible stores,
checksummed entries), durability (atomic writes, partial/corrupt files as
misses, crash-leftover sweeping), maintenance (LRU gc, verify +
quarantine), the tiered lookup path through :class:`ArtifactCache` and
:class:`PredictionService` (tier accounting, journalled hydration,
warm-starting a second service from disk), cross-process sharing
(interleaved writers never corrupt the store), and pickle safety (a
store handle never travels to another process).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.framework.recipe import TrainingRecipe
from repro.service import (
    ArtifactCache,
    ArtifactStore,
    PredictionService,
    StoreError,
    StoreFormatError,
)
from repro.service.store import (
    DEFAULT_SIZE_BUDGET,
    FORMAT_FILE,
    STORE_FORMAT,
    key_digest,
)

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def make_job(model, cluster, recipe, global_batch_size=16, iterations=1):
    # Local copy of the conftest helper: subprocess scripts import this
    # module by name, and a bare `from conftest import ...` is ambiguous
    # under full-repo collection (benchmarks/ has its own conftest).
    from repro.workloads.job import TransformerTrainingJob

    return TransformerTrainingJob(model, recipe, cluster,
                                  global_batch_size=global_batch_size,
                                  iterations=iterations)


def _store(tmp_path, **kwargs) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store", **kwargs)


def _has_entry(store: ArtifactStore, key) -> bool:
    """Whether ``key``'s entry file exists (no read, no counters)."""
    return store._entry_path(key).is_file()


def _service(cluster, **kwargs) -> PredictionService:
    return PredictionService(cluster=cluster, estimator_mode="analytical",
                             **kwargs)


def _recipes(count: int = 4):
    """Structurally distinct recipes (distinct artifact keys)."""
    pool = [
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=1, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=1,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=1, pipeline_parallel=1,
                       microbatch_multiplier=1, dtype="float16"),
        TrainingRecipe(tensor_parallel=4, pipeline_parallel=1,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=4, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
    ]
    return pool[:count]


class TestStoreBasics:
    def test_roundtrip_and_contains(self, tmp_path):
        store = _store(tmp_path)
        key = ("sig", ("tp", 2), "fp")
        payload = {"events": [1, 2, 3], "name": "artifact"}
        assert not _has_entry(store, key)
        assert store.get(key) is None
        assert store.put(key, payload)
        assert _has_entry(store, key)
        assert store.get(key) == payload
        assert store.counters["puts"] == 1
        assert store.counters["hits"] == 1
        assert store.counters["misses"] == 1

    def test_second_put_skips_existing_entry(self, tmp_path):
        store = _store(tmp_path)
        key = ("sig", 1)
        assert store.put(key, "first")
        assert not store.put(key, "second")
        assert store.counters["put_skips"] == 1
        # Content-addressed: the existing (equivalent) entry survives.
        assert store.get(key) == "first"

    def test_unstorable_payload_is_skipped_not_fatal(self, tmp_path):
        store = _store(tmp_path)
        assert not store.put(("sig", 2), lambda: None)  # unpicklable
        assert store.counters["put_skips"] == 1
        assert store.get(("sig", 2)) is None

    def test_entry_for_wrong_key_is_treated_as_corrupt(self, tmp_path):
        # A file whose decoded key differs from the lookup key (digest
        # collision or a copied/tampered file) must be a miss, not a
        # silently wrong artifact.
        store = _store(tmp_path)
        store.put(("sig", "a"), "payload-a")
        src = store._entry_path(("sig", "a"))
        dst = store._entry_path(("sig", "b"))
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, dst)
        assert store.get(("sig", "b")) is None
        assert store.counters["corrupt"] == 1

    def test_entries_are_bucketed_by_digest_prefix(self, tmp_path):
        store = _store(tmp_path)
        key = ("sig", 3)
        store.put(key, "x")
        digest = key_digest(key)
        expected = (tmp_path / "store" / "objects" / digest[:2]
                    / f"{digest}.art")
        assert expected.is_file()


class TestStoreFormat:
    def test_fresh_store_is_stamped(self, tmp_path):
        from repro.service import wire

        _store(tmp_path)
        stamp = json.loads((tmp_path / "store" / FORMAT_FILE).read_text())
        assert stamp == {"store_format": STORE_FORMAT,
                         "protocol": wire.PROTOCOL}

    def test_reopening_a_compatible_store_succeeds(self, tmp_path):
        _store(tmp_path).put(("k",), "v")
        assert _store(tmp_path).get(("k",)) == "v"

    def test_incompatible_format_refused_naming_both_sides(self, tmp_path):
        _store(tmp_path)
        stamp = tmp_path / "store" / FORMAT_FILE
        stamp.write_text(json.dumps({"store_format": 999, "protocol": 1}))
        with pytest.raises(StoreFormatError) as excinfo:
            _store(tmp_path)
        message = str(excinfo.value)
        assert "999" in message  # what the directory speaks
        assert str(STORE_FORMAT) in message  # what we speak

    @staticmethod
    def _assert_refused(tmp_path, protocol):
        _store(tmp_path)
        stamp = tmp_path / "store" / FORMAT_FILE
        stamp.write_text(json.dumps({"store_format": STORE_FORMAT,
                                     "protocol": protocol}))
        with pytest.raises(StoreFormatError,
                           match=f"'protocol': {protocol}"):
            _store(tmp_path)

    def test_protocol_1_store_is_refused(self, tmp_path):
        # Entries hold wire payloads, so a store written before the wire
        # protocol bump is refused, not misread.
        self._assert_refused(tmp_path, 1)

    def test_protocol_2_store_is_refused(self, tmp_path):
        # Protocol 2 entries pickle a per-event collective dict with each
        # collated trace; protocol 3 artifacts carry none.
        self._assert_refused(tmp_path, 2)

    def test_unreadable_stamp_refused(self, tmp_path):
        _store(tmp_path)
        (tmp_path / "store" / FORMAT_FILE).write_text("not json{")
        with pytest.raises(StoreFormatError):
            _store(tmp_path)

    def test_missing_directory_without_create_refused(self, tmp_path):
        with pytest.raises(StoreError):
            ArtifactStore(tmp_path / "absent", create=False)

    def test_unstamped_directory_without_create_refused(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(StoreFormatError):
            ArtifactStore(tmp_path / "plain", create=False)

    def test_service_attach_propagates_format_refusal(self, tmp_path,
                                                      v100_cluster):
        _store(tmp_path)
        stamp = tmp_path / "store" / FORMAT_FILE
        stamp.write_text(json.dumps({"store_format": 999, "protocol": 1}))
        with pytest.raises(StoreFormatError):
            _service(v100_cluster, store_dir=str(tmp_path / "store"))


class TestStoreCorruption:
    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        key = ("sig", "t")
        store.put(key, {"payload": list(range(100))})
        path = store._entry_path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # crash-like truncation
        assert store.get(key) is None
        assert store.counters["corrupt"] == 1

    def test_flipped_byte_fails_the_checksum(self, tmp_path):
        store = _store(tmp_path)
        key = ("sig", "f")
        store.put(key, {"payload": "x" * 256})
        path = store._entry_path(key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(key) is None
        assert store.counters["corrupt"] == 1

    def test_orphaned_temp_file_is_invisible_and_swept(self, tmp_path):
        store = _store(tmp_path)
        store.put(("live",), "payload")
        bucket = store._entry_path(("live",)).parent
        orphan = bucket / ".tmp-99999-1-deadbeef.art"
        orphan.write_bytes(b"partial write from a crashed process")
        # Invisible to lookups and stats ...
        assert store.get(("live",)) == "payload"
        assert store.stats()["entries"] == 1
        assert store.verify()["checked"] == 1
        # ... and swept by gc without touching live entries.
        report = store.gc()
        assert report["removed"] == 1
        assert not orphan.exists()
        assert store.get(("live",)) == "payload"

    def test_verify_reports_and_quarantines_corrupt_entries(self, tmp_path):
        store = _store(tmp_path)
        store.put(("good",), "payload")
        store.put(("bad",), "payload")
        bad_path = store._entry_path(("bad",))
        bad_path.write_bytes(b"garbage")
        report = store.verify()
        assert report["checked"] == 2
        assert report["corrupt"] == [bad_path.name]
        assert report["quarantined"] == []
        assert bad_path.exists()  # report-only by default

        report = store.verify(quarantine=True)
        assert report["quarantined"] == [bad_path.name]
        assert not bad_path.exists()
        assert bad_path.with_suffix(".art.corrupt").exists()
        # Quarantined files leave the scan set and the lookup path.
        assert store.verify() == {"checked": 1, "corrupt": [],
                                  "quarantined": []}
        assert store.get(("bad",)) is None
        # The slot is free again: a re-put repairs the store.
        assert store.put(("bad",), "payload")
        assert store.get(("bad",)) == "payload"


class TestStoreGC:
    def _put_aged(self, store, items):
        """Put entries and pin their mtimes (oldest first)."""
        for age, (key, payload) in enumerate(items):
            store.put(key, payload)
            path = store._entry_path(key)
            os.utime(path, (1_000_000 + age, 1_000_000 + age))

    def test_gc_evicts_lru_until_budget(self, tmp_path):
        store = _store(tmp_path)
        self._put_aged(store, [(("old",), "x" * 64),
                               (("mid",), "y" * 64),
                               (("new",), "z" * 64)])
        entry_size = store._entry_path(("new",)).stat().st_size
        report = store.gc(size_budget=entry_size)
        assert report["removed"] == 2
        assert report["remaining_bytes"] <= entry_size
        assert store.counters["evicted"] == 2
        assert not _has_entry(store, ("old",))
        assert not _has_entry(store, ("mid",))
        assert _has_entry(store, ("new",))

    def test_gc_budget_zero_clears_the_store(self, tmp_path):
        store = _store(tmp_path)
        self._put_aged(store, [(("a",), "x"), (("b",), "y")])
        report = store.gc(size_budget=0)
        assert report["removed"] == 2
        assert report["remaining_bytes"] == 0
        assert store.stats()["entries"] == 0

    def test_reads_touch_mtime_so_warm_entries_survive(self, tmp_path):
        store = _store(tmp_path)
        self._put_aged(store, [(("hot",), "x" * 64), (("cold",), "y" * 64)])
        assert store.get(("hot",)) == "x" * 64  # refreshes mtime
        entry_size = store._entry_path(("hot",)).stat().st_size
        store.gc(size_budget=entry_size)
        assert _has_entry(store, ("hot",))
        assert not _has_entry(store, ("cold",))

    def test_default_budget_is_settable(self, tmp_path):
        assert _store(tmp_path).size_budget == DEFAULT_SIZE_BUDGET
        assert ArtifactStore(tmp_path / "s2", size_budget=123).size_budget \
            == 123
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path / "s3", size_budget=0)


class TestTieredCacheLookup:
    def test_tier_accounting_memory_then_store(self, tmp_path, tiny_model,
                                               v100_cluster):
        store_dir = str(tmp_path / "store")
        recipe = _recipes(1)[0]
        job = make_job(tiny_model, v100_cluster, recipe)

        with _service(v100_cluster, store_dir=store_dir) as service:
            cold = service.predict(job)
            assert cold.metadata["service_cache"] == "miss"
            assert "artifact_tier" not in cold.metadata
            sibling = make_job(tiny_model, v100_cluster,
                               recipe.replace(compiled=True))
            warm = service.predict(sibling)
            assert warm.metadata["service_cache"] == "artifacts"
            assert warm.metadata["artifact_tier"] == "memory"
            stats = service.cache_stats()
            assert stats["memory_hits"] == 1
            assert stats["store_hits"] == 0

        # A fresh service (empty memory tier) resolves from disk.
        with _service(v100_cluster, store_dir=store_dir) as service:
            disk = service.predict(job)
            assert disk.metadata["service_cache"] == "artifacts"
            assert disk.metadata["artifact_tier"] == "store"
            assert disk.iteration_time == cold.iteration_time
            assert disk.peak_memory_bytes == cold.peak_memory_bytes
            stats = service.cache_stats()
            assert stats["store_hits"] == 1
            assert stats["memory_hits"] + stats["store_hits"] \
                == stats["artifact_hits"]

    def test_store_hydration_is_journalled(self, tmp_path, tiny_model,
                                           v100_cluster):
        # A store hit enters the memory tier through the ordinary journal
        # path, so pooled workers receive hydrated entries as regular
        # deltas -- a disk-warmed entry is indistinguishable from a
        # freshly emulated one.
        store_dir = str(tmp_path / "store")
        job = make_job(tiny_model, v100_cluster, _recipes(1)[0])
        with _service(v100_cluster, store_dir=store_dir) as service:
            service.predict(job)
            key = service._artifact_key(job)

        cache = ArtifactCache(store=ArtifactStore(store_dir))
        epoch_before = cache.sync_epoch
        artifacts, tier = cache.lookup_artifacts(key)
        assert tier == "store" and artifacts is not None
        delta = cache.delta_since(epoch_before)
        assert delta is not None
        epoch_after, entries = delta
        assert epoch_after == epoch_before + 1
        assert [entry_key for entry_key, _ in entries] == [key]

    def test_hydrated_entries_do_not_write_back(self, tmp_path, tiny_model,
                                                v100_cluster):
        store_dir = str(tmp_path / "store")
        job = make_job(tiny_model, v100_cluster, _recipes(1)[0])
        with _service(v100_cluster, store_dir=store_dir) as service:
            service.predict(job)
        with _service(v100_cluster, store_dir=store_dir) as service:
            service.predict(job)  # store hit hydrates memory
            service.predict(make_job(tiny_model, v100_cluster,
                                     _recipes(1)[0].replace(compiled=True)))
            counters = service.store.counters
            # The only lookup that reached the store was the hydration;
            # neither the hydration nor the memory hit re-wrote the entry.
            assert counters["puts"] == 0
            assert counters["put_skips"] == 0

    def test_cache_disabled_ignores_the_store(self, tmp_path, tiny_model,
                                              v100_cluster):
        store_dir = str(tmp_path / "store")
        job = make_job(tiny_model, v100_cluster, _recipes(1)[0])
        with _service(v100_cluster, store_dir=store_dir) as service:
            service.predict(job)
        with _service(v100_cluster, store_dir=store_dir,
                      enable_cache=False) as service:
            result = service.predict(job)
            assert result.metadata["service_cache"] == "disabled"
            assert service.store.counters["gets"] == 0

    def test_store_stats_surface_on_the_service(self, tmp_path, tiny_model,
                                                v100_cluster):
        store_dir = str(tmp_path / "store")
        with _service(v100_cluster, store_dir=store_dir) as service:
            assert service.store_stats()["entries"] == 0
            service.predict(make_job(tiny_model, v100_cluster,
                                     _recipes(1)[0]))
            stats = service.store_stats()
            assert stats["entries"] == 1
            assert stats["total_bytes"] > 0
        with _service(v100_cluster) as service:
            assert service.store_stats() is None

    def test_server_stats_payload_includes_tiers_and_store(
            self, tmp_path, tiny_model, v100_cluster):
        from repro.service.server import PredictionServer

        store_dir = str(tmp_path / "store")
        with _service(v100_cluster, store_dir=store_dir) as service:
            service.predict(make_job(tiny_model, v100_cluster,
                                     _recipes(1)[0]))
            payload = PredictionServer(service).stats_payload()
            assert payload["cache"]["memory_hits"] == 0
            assert payload["cache"]["store_hits"] == 0
            assert payload["store"]["entries"] == 1
        with _service(v100_cluster) as service:
            assert PredictionServer(service).stats_payload()["store"] is None


class TestCrossProcessSharing:
    def _run_in_subprocess(self, store_dir, recipes_spec, out_path):
        """Run a search-like predict batch in a fresh process."""
        script = textwrap.dedent(f"""
            import json, sys
            sys.path.insert(0, {SRC_ROOT!r})
            sys.path.insert(0, {str(Path(__file__).parent)!r})
            from repro.hardware.cluster import get_cluster
            from repro.workloads.models import get_transformer
            from repro.service import PredictionService
            from test_store import _recipes, make_job

            cluster = get_cluster("v100-8")
            model = get_transformer("gpt-tiny")
            jobs = [make_job(model, cluster, recipe)
                    for recipe in _recipes({recipes_spec})]
            with PredictionService(cluster=cluster,
                                   estimator_mode="analytical",
                                   store_dir={str(store_dir)!r}) as service:
                results = service.predict_many(jobs)
                payload = {{
                    "iteration_times": [r.iteration_time for r in results],
                    "tiers": [r.metadata.get("artifact_tier")
                              for r in results],
                    "cache_stats": service.cache_stats(),
                    "store_counters": dict(service.store.counters),
                }}
            with open({str(out_path)!r}, "w") as handle:
                json.dump(payload, handle)
        """)
        subprocess.run([sys.executable, "-c", script], check=True,
                       timeout=240)
        return json.loads(Path(out_path).read_text())

    def test_second_process_warm_starts_from_store(self, tmp_path,
                                                   tiny_model, v100_cluster):
        store_dir = tmp_path / "store"
        first = self._run_in_subprocess(store_dir, 3, tmp_path / "one.json")
        assert first["cache_stats"]["store_hits"] == 0
        second = self._run_in_subprocess(store_dir, 3, tmp_path / "two.json")
        assert second["cache_stats"]["store_hits"] == 3
        assert second["tiers"] == ["store"] * 3
        assert second["iteration_times"] == first["iteration_times"]
        assert second["store_counters"]["puts"] == 0

    def test_interleaved_writers_never_corrupt_the_store(self, tmp_path,
                                                         tiny_model,
                                                         v100_cluster):
        # Two processes writing overlapping entry sets concurrently: every
        # write is atomic-rename, so the union must verify clean and a
        # third (in-process) service must warm-start from all of it.
        store_dir = tmp_path / "store"
        script = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {SRC_ROOT!r})
            sys.path.insert(0, {str(Path(__file__).parent)!r})
            from repro.hardware.cluster import get_cluster
            from repro.workloads.models import get_transformer
            from repro.service import PredictionService
            from test_store import _recipes, make_job

            lo, hi = int(sys.argv[1]), int(sys.argv[2])
            cluster = get_cluster("v100-8")
            model = get_transformer("gpt-tiny")
            jobs = [make_job(model, cluster, recipe)
                    for recipe in _recipes(6)[lo:hi]]
            with PredictionService(cluster=cluster,
                                   estimator_mode="analytical",
                                   store_dir={str(store_dir)!r}) as service:
                service.predict_many(jobs)
        """)
        writers = [
            subprocess.Popen([sys.executable, "-c", script, "0", "4"]),
            subprocess.Popen([sys.executable, "-c", script, "2", "6"]),
        ]
        for writer in writers:
            assert writer.wait(timeout=240) == 0

        store = ArtifactStore(store_dir)
        report = store.verify()
        assert report["corrupt"] == []
        assert report["checked"] == 6
        with _service(v100_cluster, store_dir=str(store_dir)) as service:
            jobs = [make_job(tiny_model, v100_cluster, recipe)
                    for recipe in _recipes(6)]
            results = service.predict_many(jobs)
            assert all(result.metadata["artifact_tier"] == "store"
                       for result in results)

    def test_crash_mid_write_leaves_a_recoverable_store(self, tmp_path,
                                                        tiny_model,
                                                        v100_cluster):
        # Simulate the observable outcome of a writer dying mid-write: an
        # orphaned temp file next to healthy entries.  Readers never see
        # it, `repro cache gc` sweeps it, and the entry it was meant to
        # publish is simply re-emulated and re-put by the next run.
        store_dir = str(tmp_path / "store")
        jobs = [make_job(tiny_model, v100_cluster, recipe)
                for recipe in _recipes(2)]
        with _service(v100_cluster, store_dir=store_dir) as service:
            service.predict(jobs[0])
        store = ArtifactStore(store_dir)
        victim_key_path = store._entry_path(("unpublished",))
        victim_key_path.parent.mkdir(parents=True, exist_ok=True)
        tmp_file = victim_key_path.parent / ".tmp-1234-1-crash.art"
        tmp_file.write_bytes(b"\x00" * 128)

        with _service(v100_cluster, store_dir=store_dir) as service:
            results = service.predict_many(jobs)
            assert results[0].metadata["artifact_tier"] == "store"
            assert results[1].metadata["service_cache"] == "miss"
            assert service.store.counters["corrupt"] == 0
        swept = ArtifactStore(store_dir).gc()
        assert swept["removed"] == 1
        assert not tmp_file.exists()
        assert ArtifactStore(store_dir).stats()["entries"] == 2


class TestPickleSafety:
    def test_store_refuses_to_pickle(self, tmp_path):
        store = _store(tmp_path)
        with pytest.raises(TypeError, match="attach its own store"):
            pickle.dumps(store)
