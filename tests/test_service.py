"""Tests for the prediction-service layer: structural signatures, the
artifact cache, parallel batch evaluation and search integration."""

from __future__ import annotations

import dataclasses
import gc
import json
import multiprocessing
import os

import pytest

from backend_conformance import assert_results_identical
from repro.core.collator import TraceCollator
from repro.core.trace import JobTrace
from repro.framework.recipe import STRUCTURAL_KNOBS, TrainingRecipe
from repro.search import MayaSearch, MayaTrialEvaluator, TrialStatus
from repro.search.space import default_search_space
from repro.service import ArtifactCache, PredictionService, wire
from repro.service.cache import HeldArtifacts
from repro.workloads.job import TransformerTrainingJob
from repro.workloads.models import get_transformer


@pytest.fixture()
def service(v100_cluster):
    return PredictionService(cluster=v100_cluster,
                             estimator_mode="analytical")


def _fingerprint(collated):
    """What a collated trace replays: each representative's operation
    stream and host-delay stream hashes, plus the rank -> representative
    map."""
    return (collated.world_size,
            [(rank, trace.rolling_signature(), trace.host_delay_signature())
             for rank, trace in sorted(collated.traces.items())],
            sorted(collated.representative.items()))


def _job(model, cluster, recipe, batch=16):
    return TransformerTrainingJob(model, recipe, cluster,
                                  global_batch_size=batch)


class TestStructuralSignatures:
    def test_compiled_is_non_structural(self, basic_recipe):
        variant = basic_recipe.replace(compiled=True)
        assert basic_recipe.structural_signature() == variant.structural_signature()
        assert basic_recipe.signature() != variant.signature()

    @pytest.mark.parametrize("knob,value", [
        ("tensor_parallel", 4),
        ("pipeline_parallel", 4),
        ("microbatch_multiplier", 4),
        ("activation_recomputation", True),
        ("sequence_parallelism", True),
        ("distributed_optimizer", True),
        ("zero_stage", 2),
        ("offload", True),
        ("dtype", "bfloat16"),
    ])
    def test_structural_knobs_change_signature(self, basic_recipe, knob, value):
        variant = basic_recipe.replace(**{knob: value})
        assert basic_recipe.structural_signature() != variant.structural_signature()

    def test_structural_knobs_cover_all_but_compiled(self):
        data = TrainingRecipe().to_dict()
        assert set(STRUCTURAL_KNOBS) == set(data) - {"compiled"}

    def test_job_signature_includes_workload_shape(self, tiny_model,
                                                   v100_cluster, basic_recipe):
        job_a = _job(tiny_model, v100_cluster, basic_recipe, batch=16)
        job_b = _job(tiny_model, v100_cluster, basic_recipe, batch=32)
        assert job_a.structural_signature() != job_b.structural_signature()
        other_model = get_transformer("gpt-small")
        job_c = _job(other_model, v100_cluster, basic_recipe, batch=16)
        assert job_a.structural_signature() != job_c.structural_signature()
        job_d = _job(tiny_model, v100_cluster, basic_recipe, batch=16)
        assert job_a.structural_signature() == job_d.structural_signature()

    def test_job_signature_is_the_asdict_rendering(self, tiny_model,
                                                   v100_cluster, basic_recipe):
        # Store entries are addressed by sha256(repr(key)): the field walk
        # that replaced ``dataclasses.asdict`` must render the same tuple.
        from dataclasses import asdict

        job = _job(tiny_model, v100_cluster, basic_recipe)
        assert job.structural_signature()[1] \
            == tuple(sorted(asdict(tiny_model).items()))
        assert repr(job.structural_signature()[1]) \
            == repr(tuple(sorted(asdict(tiny_model).items())))

    def test_structurally_equal_jobs_collate_identically(self, tiny_model,
                                                         v100_cluster,
                                                         basic_recipe,
                                                         service):
        job_a = _job(tiny_model, v100_cluster, basic_recipe)
        job_b = _job(tiny_model, v100_cluster,
                     basic_recipe.replace(compiled=True))
        content_a = _fingerprint(service.pipeline.emulate(job_a).collated)
        content_b = _fingerprint(service.pipeline.emulate(job_b).collated)
        assert content_a == content_b


class TestArtifactCache:
    def test_prediction_hit_and_miss_counts(self, tiny_model, v100_cluster,
                                            basic_recipe, service):
        job = _job(tiny_model, v100_cluster, basic_recipe)
        first = service.predict(job)
        assert first.metadata["service_cache"] == "miss"
        assert service.stats.prediction_misses == 1
        assert service.stats.artifact_misses == 1

        again = service.predict(_job(tiny_model, v100_cluster, basic_recipe))
        assert again.metadata["service_cache"] == "prediction"
        assert service.stats.prediction_hits == 1
        # 3 lookups total (prediction miss + artifact miss, then prediction
        # hit), one of them served from the cache.
        assert service.stats.hit_rate == pytest.approx(1 / 3)
        assert 0.0 <= service.stats.hit_rate <= 1.0

    def test_structural_hit_skips_emulation_only(self, tiny_model,
                                                 v100_cluster, basic_recipe,
                                                 service):
        cold = service.predict(_job(tiny_model, v100_cluster, basic_recipe))
        variant = service.predict(
            _job(tiny_model, v100_cluster, basic_recipe.replace(compiled=True)))
        assert variant.metadata["service_cache"] == "artifacts"
        assert service.stats.artifact_hits == 1
        # Emulation + collation were reused (zero cost), estimation and
        # simulation re-ran.
        assert variant.stage_times["emulation"] == 0.0
        assert variant.stage_times["collation"] == 0.0
        assert variant.stage_times["simulation"] > 0.0
        # The non-structural knob cannot change the prediction.
        assert variant.iteration_time == cold.iteration_time
        assert variant.peak_memory_bytes == cold.peak_memory_bytes

    def test_cached_prediction_identical_to_cold(self, tiny_model,
                                                 v100_cluster, basic_recipe):
        cold_service = PredictionService(cluster=v100_cluster,
                                         estimator_mode="analytical",
                                         enable_cache=False,
                                         share_provider=False)
        warm_service = PredictionService(cluster=v100_cluster,
                                         estimator_mode="analytical")
        job = lambda: _job(tiny_model, v100_cluster, basic_recipe)  # noqa: E731
        cold = cold_service.predict(job())
        warm_first = warm_service.predict(job())
        warm_cached = warm_service.predict(job())
        for result in (warm_first, warm_cached):
            assert result.iteration_time == cold.iteration_time
            assert result.peak_memory_bytes == cold.peak_memory_bytes
            assert result.oom == cold.oom

    def test_cached_results_are_isolated_copies(self, tiny_model, v100_cluster,
                                                basic_recipe, service):
        job = _job(tiny_model, v100_cluster, basic_recipe)
        first = service.predict(job)
        first.stage_times["simulation"] = -1.0
        first.metadata["tampered"] = True
        again = service.predict(_job(tiny_model, v100_cluster, basic_recipe))
        # A prediction-level hit ran no stages, so it reports none -- and in
        # particular not the tampered copy of the first caller's dict.
        assert again.stage_times == {}
        assert "tampered" not in again.metadata

    def test_eviction_keeps_cache_bounded(self, tiny_model, v100_cluster):
        cache = ArtifactCache(max_entries=2)
        service = PredictionService(cluster=v100_cluster,
                                    estimator_mode="analytical", cache=cache)
        recipes = [TrainingRecipe(tensor_parallel=tp, pipeline_parallel=pp,
                                  dtype="float16")
                   for tp, pp in ((1, 1), (2, 1), (1, 2), (2, 2))]
        for recipe in recipes:
            service.predict(_job(tiny_model, v100_cluster, recipe))
        assert len(cache) <= 4  # two entries per level

    def test_invalid_jobs_bypass_cache(self, tiny_model, v100_cluster, service):
        bad = TrainingRecipe(tensor_parallel=3, dtype="float16")
        result = service.predict(_job(tiny_model, v100_cluster, bad))
        assert not result.succeeded
        assert service.stats.lookups == 0

    def test_oom_verdict_cached(self, v100_cluster, service):
        # A model far too large for a single V100 OOMs during emulation;
        # the verdict must be identical when served from the cache.
        huge = get_transformer("gpt3-18.4b")
        recipe = TrainingRecipe(dtype="float16")
        cold = service.predict(_job(huge, v100_cluster, recipe, batch=8))
        cached = service.predict(_job(huge, v100_cluster, recipe, batch=8))
        assert cold.oom and cached.oom
        assert cached.metadata["service_cache"] == "prediction"


def _settled_tracked_objects():
    """``len(gc.get_objects())`` once collections stop untracking: one
    pass untracks a tuple only if its items are already untracked, so
    nested tuples take one pass per level."""
    count = None
    while True:
        gc.collect()
        tracked = len(gc.get_objects())
        if tracked == count:
            return count
        count = tracked


class TestColdArtifactFootprint:
    """A cached cold artifact keeps a fixed number of objects the garbage
    collector must walk, whatever its row count: its per-row views are
    tuples of atomic values (untracked after a collection), its
    collectives one record per template plus numpy columns."""

    #: Tracked objects two such artifacts may differ by.
    SLACK = 10

    def _retained(self, cluster, model, multiplier):
        # Same microbatch size, ``multiplier`` times the microbatches.
        job = _job(model, cluster,
                   TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                  microbatch_multiplier=multiplier,
                                  dtype="float16"),
                   batch=8 * multiplier)
        # First use of a job shape builds process-wide memos; not counted.
        PredictionService(cluster=cluster,
                          estimator_mode="analytical").predict(job)
        service = PredictionService(cluster=cluster,
                                    estimator_mode="analytical")
        service.warm()
        before = _settled_tracked_objects()
        service.predict(job)
        added = _settled_tracked_objects() - before
        artifacts = service.cache.peek_artifacts(service._artifact_key(job))
        rows = sum(len(trace) for trace in artifacts.collated.traces.values())
        return rows, added

    def test_tracked_objects_do_not_grow_with_rows(self, v100_cluster,
                                                   tiny_model):
        short_rows, short = self._retained(v100_cluster, tiny_model, 1)
        long_rows, long = self._retained(v100_cluster, tiny_model, 8)
        assert long_rows >= 4 * short_rows
        assert abs(long - short) <= self.SLACK, (short, long)


class TestSyncJournal:
    """Artifact-cache sync journal used by the persistent backend."""

    def test_delta_since_tracks_puts(self):
        cache = ArtifactCache(max_entries=8)
        cache.put_artifacts(("k1",), "a1")
        cache.put_artifacts(("k2",), "a2")
        assert cache.sync_epoch == 2
        epoch, entries = cache.delta_since(0)
        assert epoch == 2
        assert [key for key, _ in entries] == [("k1",), ("k2",)]
        _, tail = cache.delta_since(1)
        assert [key for key, _ in tail] == [("k2",)]
        assert cache.delta_since(2) == (2, [])

    def test_unserviceable_epochs_refused(self):
        cache = ArtifactCache()
        cache.put_artifacts(("k",), "a")
        assert cache.delta_since(-1) is None
        assert cache.delta_since(99) is None

    def test_eviction_boundary_forces_resync(self):
        # A worker synced at the exact pre-eviction epoch saw the evicted
        # entry, so its delta request must be refused too (regression for
        # an off-by-one that served it a delta).
        cache = ArtifactCache(max_entries=2)
        cache.put_artifacts(("k1",), "a1")
        cache.put_artifacts(("k2",), "a2")
        assert cache.delta_since(2) == (2, [])
        cache.put_artifacts(("k3",), "a3")  # evicts k1
        assert cache.delta_since(2) is None
        assert cache.delta_since(3) == (3, [])
        epoch, snapshot = cache.snapshot()
        assert epoch == 3
        assert [key for key, _ in snapshot] == [("k2",), ("k3",)]

    def test_reput_of_live_key_at_capacity_evicts_nothing(self):
        # Re-putting a key that is already live replaces its value in
        # place.  At capacity the old code ran eviction anyway, dropping an
        # unrelated victim and bumping the eviction epoch -- which forced
        # every pooled worker into a needless full-snapshot resync
        # (regression for an unconditional _evict_artifacts on re-put).
        cache = ArtifactCache(max_entries=2)
        cache.put_artifacts(("k1",), "a1")
        cache.put_artifacts(("k2",), "a2")
        cache.put_artifacts(("k1",), "a1-prime")  # re-put at capacity
        assert cache.peek_artifacts(("k1",)) == "a1-prime"
        assert cache.peek_artifacts(("k2",)) == "a2"  # not evicted
        # A worker synced before the re-put still gets a delta, not a
        # refused epoch: no full resync is forced.
        epoch, entries = cache.delta_since(2)
        assert epoch == 3
        assert [key for key, _ in entries] == [("k1",)]
        # A genuinely new key at capacity still evicts (FIFO victim by
        # insertion order, which a re-put does not refresh: k1).
        cache.put_artifacts(("k3",), "a3")
        assert cache.peek_artifacts(("k1",)) is None
        assert cache.delta_since(3) is None

    def test_clear_refuses_all_prior_epochs(self):
        cache = ArtifactCache()
        cache.put_artifacts(("k",), "a")
        cache.clear()
        assert cache.delta_since(1) is None
        assert cache.delta_since(cache.sync_epoch) is None

    def test_apply_full_replaces_table_without_touching_stats(self):
        cache = ArtifactCache()
        cache.put_artifacts(("stale",), "s")
        cache.apply_artifact_delta([(("fresh",), "f")], full=True)
        assert cache.peek_artifacts(("stale",)) is None
        assert cache.peek_artifacts(("fresh",)) == "f"
        assert cache.stats.lookups == 0

    def test_apply_delta_mirrors_parent_without_local_eviction(self):
        # Worker-side capacity eviction could pick a different victim than
        # the parent (insertion order vs. put order), turning a serial-run
        # hit into a worker miss near max_entries.  Applying a delta must
        # mirror the parent's table verbatim; the parent alone polices
        # capacity (regression for an _evict_artifacts call here).
        cache = ArtifactCache(max_entries=2)
        cache.apply_artifact_delta(
            [(("k1",), "a1"), (("k2",), "a2"), (("k3",), "a3")])
        assert cache.peek_artifacts(("k1",)) == "a1"
        assert cache.peek_artifacts(("k2",)) == "a2"
        assert cache.peek_artifacts(("k3",)) == "a3"

    def test_drop_predictions_clears_only_prediction_level(self):
        cache = ArtifactCache()
        cache.put_artifacts(("art",), "a")
        cache.put_prediction(("pred",), "p")
        cache.drop_predictions()
        assert cache.peek_prediction(("pred",)) is None
        assert cache.peek_artifacts(("art",)) == "a"
        assert cache.stats.lookups == 0


class TestParallelEvaluation:
    def test_predict_many_matches_serial(self, tiny_model, v100_cluster):
        recipes = [
            TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                           microbatch_multiplier=2, dtype="float16"),
            TrainingRecipe(tensor_parallel=1, pipeline_parallel=2,
                           microbatch_multiplier=2, dtype="float16"),
            TrainingRecipe(tensor_parallel=2, pipeline_parallel=1,
                           microbatch_multiplier=2, dtype="float16"),
        ]
        serial = PredictionService(cluster=v100_cluster,
                                   estimator_mode="analytical",
                                   enable_cache=False, share_provider=False)
        parallel = PredictionService(cluster=v100_cluster,
                                     estimator_mode="analytical",
                                     max_workers=2)
        serial_results = [serial.predict(_job(tiny_model, v100_cluster, r))
                          for r in recipes]
        parallel_results = parallel.predict_many(
            [_job(tiny_model, v100_cluster, r) for r in recipes])
        assert len(parallel_results) == len(serial_results)
        for cold, batched in zip(serial_results, parallel_results):
            assert batched.iteration_time == cold.iteration_time
            assert batched.peak_memory_bytes == cold.peak_memory_bytes
            assert batched.oom == cold.oom

    def test_predict_many_deduplicates_in_flight(self, tiny_model,
                                                 v100_cluster, basic_recipe):
        service = PredictionService(cluster=v100_cluster,
                                    estimator_mode="analytical",
                                    max_workers=2)
        jobs = [_job(tiny_model, v100_cluster, basic_recipe)
                for _ in range(4)]
        results = service.predict_many(jobs)
        assert service.stats.prediction_misses == 1
        assert service.stats.prediction_hits == 3
        assert len({result.iteration_time for result in results}) == 1


class TestSearchIntegration:
    def _evaluator(self, cluster, **kwargs):
        return MayaTrialEvaluator(get_transformer("gpt-small"), cluster,
                                  global_batch_size=32,
                                  estimator_mode="analytical", **kwargs)

    def test_search_reuses_service_cache(self, v100_cluster):
        evaluator = self._evaluator(v100_cluster)
        space = default_search_space(
            tensor_parallel=(1, 2), pipeline_parallel=(1, 2),
            microbatch_multiplier=(1, 2), virtual_stages=(1,),
            activation_recomputation=(False,),
            sequence_parallelism=(False,),
            distributed_optimizer=(False,), dtype="float16")
        search = MayaSearch(evaluator, space=space, algorithm="random",
                            world_size=8, global_batch_size=32, num_layers=4,
                            num_heads=8, gpus_per_node=8,
                            early_stop_patience=10_000, seed=1)
        result = search.run(budget=60)
        # 60 random samples over an 8-point space must re-propose configs;
        # the service resolves the duplicates from its cross-trial cache.
        assert result.cache_stats["prediction_hits"] > 0
        assert result.status_counts["cached"] > 0
        assert (result.status_counts["executed"]
                == result.cache_stats["prediction_misses"])
        statuses = {trial.status for trial in result.history}
        assert statuses <= {TrialStatus.EXECUTED, TrialStatus.SKIPPED}

    def test_cold_and_warm_searches_agree(self, v100_cluster):
        space = default_search_space(
            tensor_parallel=(1, 2), pipeline_parallel=(1, 2),
            microbatch_multiplier=(1, 2), virtual_stages=(1,),
            activation_recomputation=(True, False),
            sequence_parallelism=(False,),
            distributed_optimizer=(False,), dtype="float16")

        def run(**kwargs):
            evaluator = self._evaluator(v100_cluster, **kwargs)
            search = MayaSearch(evaluator, space=space, algorithm="cma",
                                world_size=8, global_batch_size=32,
                                num_layers=4, num_heads=8, gpus_per_node=8,
                                seed=7)
            return search.run(budget=40)

        warm = run(enable_cache=True, max_workers=2)
        cold = run(enable_cache=False, share_provider=False, max_workers=1)
        assert warm.best is not None and cold.best is not None
        assert warm.best.recipe == cold.best.recipe
        assert warm.best.iteration_time == cold.best.iteration_time


class TestEvaluationBackends:
    """Backend-specific regression tests (the full interchangeability
    contract lives in tests/test_backend_conformance.py, built on the
    shared harness in tests/backend_conformance.py)."""

    RECIPES = [
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=1, pipeline_parallel=2,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=2, pipeline_parallel=1,
                       microbatch_multiplier=2, dtype="float16"),
        TrainingRecipe(tensor_parallel=1, pipeline_parallel=1,
                       microbatch_multiplier=1, dtype="float16"),
    ]

    def _jobs(self, model, cluster):
        return [_job(model, cluster, recipe) for recipe in self.RECIPES]

    def _run(self, model, cluster, backend, workers=2):
        service = PredictionService(cluster=cluster,
                                    estimator_mode="analytical",
                                    backend=backend, max_workers=workers)
        return service, service.predict_many(self._jobs(model, cluster))

    def test_unknown_backend_rejected(self, v100_cluster):
        with pytest.raises(ValueError):
            PredictionService(cluster=v100_cluster, backend="mpi")
        service = PredictionService(cluster=v100_cluster,
                                    estimator_mode="analytical")
        with pytest.raises(ValueError):
            service.backend = "mpi"

    @pytest.mark.parametrize("backend", ["persistent"])
    def test_backend_results_byte_identical_to_serial(self, tiny_model,
                                                      v100_cluster, backend):
        _, reference = self._run(tiny_model, v100_cluster, "serial",
                                 workers=1)
        service, results = self._run(tiny_model, v100_cluster, backend)
        service.close()
        assert_results_identical(reference, results, backend=backend)
        assert service.throughput_stats()["trials"] == len(self.RECIPES)

    def test_pooled_backend_replays_serial_cache_accounting(self, tiny_model,
                                                            v100_cluster):
        serial_service, _ = self._run(tiny_model, v100_cluster, "serial",
                                      workers=1)
        pooled_service, _ = self._run(tiny_model, v100_cluster, "persistent")
        pooled_service.close()
        assert pooled_service.cache_stats() == serial_service.cache_stats()

    def test_pooled_backend_merges_worker_artifacts(self, tiny_model,
                                                    v100_cluster):
        service, results = self._run(tiny_model, v100_cluster, "persistent")
        assert all(r.metadata["service_cache"] == "miss" for r in results)
        # Freshly emulated artifacts were shipped back as wire payloads and
        # merged: every artifact and prediction key now resolves locally.
        for job in self._jobs(tiny_model, v100_cluster):
            assert service.cache.peek_artifacts(
                service._artifact_key(job)) is not None
            assert service.cache.peek_prediction(
                service._prediction_key(job)) is not None
        # A second batch is served entirely from the parent cache.
        again = service.predict_many(self._jobs(tiny_model, v100_cluster))
        service.close()
        assert all(r.metadata["service_cache"] == "prediction" for r in again)
        for first, second in zip(results, again):
            assert second.iteration_time == first.iteration_time

    def test_pooled_backend_defers_structural_siblings(self, tiny_model,
                                                       v100_cluster):
        # Two jobs differing only in a non-structural knob share emulation
        # artifacts.  Forked workers can't share in-flight work, so the
        # sibling must be held back and resolved on the parent from the
        # merged artifacts -- matching the serial backend's accounting
        # (one miss + one artifact hit, not two cold emulations).  The
        # third job keeps two jobs dispatchable, so the pool really runs.
        def batch(cluster):
            base = self.RECIPES[0]
            return [_job(tiny_model, cluster, base),
                    _job(tiny_model, cluster, base.replace(compiled=True)),
                    _job(tiny_model, cluster, self.RECIPES[1])]

        serial = PredictionService(cluster=v100_cluster,
                                   estimator_mode="analytical",
                                   backend="serial")
        serial_results = serial.predict_many(batch(v100_cluster))
        with PredictionService(cluster=v100_cluster,
                               estimator_mode="analytical",
                               backend="persistent",
                               max_workers=2) as pooled:
            pooled_results = pooled.predict_many(batch(v100_cluster))
            assert pooled.backend_impl.sync_stats["placements"] == 2
        assert pooled.cache_stats() == serial.cache_stats()
        assert pooled.stats.artifact_hits == 1
        for a, b in zip(serial_results, pooled_results):
            assert b.iteration_time == a.iteration_time
            assert b.metadata["service_cache"] == a.metadata["service_cache"]

    def test_merged_artifacts_replay_identically(self, tiny_model,
                                                 v100_cluster):
        # Artifacts decoded from a worker's wire payload must predict
        # exactly like locally emulated ones (estimation + simulation
        # re-run on the merged artifacts for a structural sibling).
        service, _ = self._run(tiny_model, v100_cluster, "persistent")
        service.close()
        local = PredictionService(cluster=v100_cluster,
                                  estimator_mode="analytical")
        sibling = self.RECIPES[0].replace(compiled=True)
        merged = service.predict(_job(tiny_model, v100_cluster, sibling))
        reference = local.predict(_job(tiny_model, v100_cluster,
                                       self.RECIPES[0]))
        assert merged.metadata["service_cache"] == "artifacts"
        assert merged.iteration_time == reference.iteration_time
        assert merged.peak_memory_bytes == reference.peak_memory_bytes

    def test_jittered_testbed_identical_across_backends(self, v100_cluster):
        # evaluate_setup routes testbed measurements (jittered ground-truth
        # provider) through the shared service cache; pooled evaluation
        # must not change a single measured number.
        from repro.analysis.experiments import candidate_recipes, evaluate_setup

        model = get_transformer("gpt-tiny")
        recipes = candidate_recipes(model, v100_cluster, 16, limit=3)
        serial = evaluate_setup("serial", model, v100_cluster, 16, recipes,
                                estimator_mode="analytical",
                                include_baselines=False)
        parallel = evaluate_setup("persistent", model, v100_cluster, 16,
                                  recipes, estimator_mode="analytical",
                                  include_baselines=False,
                                  backend="persistent", jobs=2)
        assert len(parallel.evaluations) == len(serial.evaluations)
        for a, b in zip(serial.evaluations, parallel.evaluations):
            assert b.actual.iteration_time == a.actual.iteration_time
            assert b.actual.total_time == a.actual.total_time
            assert b.maya.iteration_time == a.maya.iteration_time
            assert b.maya.peak_memory_bytes == a.maya.peak_memory_bytes

    def test_search_identical_across_backends(self, v100_cluster):
        space = default_search_space(
            tensor_parallel=(1, 2), pipeline_parallel=(1, 2),
            microbatch_multiplier=(1, 2), virtual_stages=(1,),
            activation_recomputation=(False,),
            sequence_parallelism=(False,),
            distributed_optimizer=(False,), dtype="float16")

        def run(backend):
            with self._evaluator(v100_cluster, backend=backend,
                                 max_workers=2) as evaluator:
                search = MayaSearch(evaluator, space=space, algorithm="cma",
                                    world_size=8, global_batch_size=32,
                                    num_layers=4, num_heads=8,
                                    gpus_per_node=8, seed=11)
                return search.run(budget=40)

        serial = run("serial")
        assert serial.best is not None
        other = run("persistent")
        assert other.best.recipe == serial.best.recipe
        assert other.best.iteration_time == serial.best.iteration_time
        assert len(other.history) == len(serial.history)

    def _evaluator(self, cluster, **kwargs):
        return MayaTrialEvaluator(get_transformer("gpt-small"), cluster,
                                  global_batch_size=32,
                                  estimator_mode="analytical", **kwargs)


def _trace_json(artifacts, comm_ids=True):
    """``job_trace.to_json()``; ``comm_ids=False`` blanks the communicator
    ids, which come from a per-process counter (they depend on how many
    jobs that process emulated before, not on the job)."""
    if comm_ids:
        return artifacts.job_trace.to_json()
    data = artifacts.job_trace.to_dict()
    for worker in data["workers"].values():
        for event in worker["events"]:
            if event["collective"] is not None:
                event["collective"]["comm_id"] = None
    return json.dumps(data)


class _CodecCounts:
    """Counts ``wire.loads`` / ``wire.dumps_columnar`` calls, split into
    the parent's and the forked workers' (patch before the pool forks)."""

    NAMES = ("loads", "dumps_columnar")

    def __init__(self, monkeypatch):
        context = multiprocessing.get_context("fork")
        self._parent_pid = os.getpid()
        # Fork-shared totals see the workers' calls; the dict only the
        # parent's (each worker increments its own copy).
        self._totals = {name: context.Value("i", 0) for name in self.NAMES}
        self._parent = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            monkeypatch.setattr(wire, name,
                                self._counted(name, getattr(wire, name)))

    def _counted(self, name, real):
        def wrapper(*args, **kwargs):
            with self._totals[name].get_lock():
                self._totals[name].value += 1
            if os.getpid() == self._parent_pid:
                self._parent[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def parent(self, name):
        return self._parent[name]

    def workers(self, name):
        return self._totals[name].value - self._parent[name]


class TestPooledArtifactReturnPath:
    """Workers return fresh artifacts as one wire payload that the parent
    holds as received and forwards to the sibling workers unchanged:
    no JSON round-trip, no second collation, and a decode only where a
    lookup hits the entry."""

    RECIPES = TestEvaluationBackends.RECIPES
    #: A second cold batch: structurally distinct from ``RECIPES``.
    RECOMPUTE = [recipe.replace(activation_recomputation=True)
                 for recipe in RECIPES]
    POOLED = pytest.mark.parametrize("backend", ["persistent"])

    def _jobs(self, model, cluster, recipes=RECIPES):
        return [_job(model, cluster, recipe) for recipe in recipes]

    def _service(self, cluster, backend="serial"):
        return PredictionService(cluster=cluster,
                                 estimator_mode="analytical",
                                 backend=backend, max_workers=2)

    @POOLED
    def test_no_json_round_trip_and_no_parent_collation(
            self, tiny_model, v100_cluster, backend, monkeypatch):
        # Counters live in fork-shared memory, so calls made inside the
        # forked workers (where _evaluate_job runs) are counted too.
        context = multiprocessing.get_context("fork")
        json_calls = context.Value("i", 0)
        collations = context.Value("i", 0)
        parent_pid = os.getpid()
        parent_calls = {"collate": 0}

        def counted(real, counter, parent_key=None):
            def wrapper(*args, **kwargs):
                with counter.get_lock():
                    counter.value += 1
                if parent_key is not None and os.getpid() == parent_pid:
                    parent_calls[parent_key] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(TraceCollator, "collate", counted(
            TraceCollator.collate, collations, "collate"))
        monkeypatch.setattr(JobTrace, "to_json",
                            counted(JobTrace.to_json, json_calls))
        monkeypatch.setattr(JobTrace, "from_json", staticmethod(
            counted(JobTrace.from_json, json_calls)))
        codec = _CodecCounts(monkeypatch)

        with self._service(v100_cluster, backend) as service:
            results = service.predict_many(
                self._jobs(tiny_model, v100_cluster))
        assert all(r.metadata["service_cache"] == "miss" for r in results)
        # Each worker collated its own cold jobs (so the patches are live
        # in the workers) -- and nothing else collated or touched JSON.
        assert collations.value == len(self.RECIPES)
        assert parent_calls["collate"] == 0
        assert json_calls.value == 0
        # No decode at all: the merge holds each payload as received, and
        # a cold batch never looks its merged artifacts up.
        assert codec.parent("loads") == 0
        assert all(isinstance(
            service.cache.peek_entry(service._artifact_key(job)),
            HeldArtifacts) for job in self._jobs(tiny_model, v100_cluster))

    def test_merge_reproduces_the_workers_artifacts_exactly(
            self, tiny_model, v100_cluster):
        # Both halves of the return path, in one process: what the parent
        # caches must be, byte for byte, what the worker emulated.
        from repro.service.backends import _evaluate_job, _merge_batch

        job = _job(tiny_model, v100_cluster, self.RECIPES[0])
        worker = self._service(v100_cluster)
        parent = self._service(v100_cluster)
        payload = _evaluate_job(worker, 0, job)
        [result] = _merge_batch(parent, [job], [payload])
        key = parent._artifact_key(job)
        emulated = worker.cache.peek_artifacts(key)
        merged = parent.cache.peek_artifacts(key)
        assert merged is not emulated
        assert _trace_json(merged) == _trace_json(emulated)
        assert _fingerprint(merged.collated) == \
            _fingerprint(emulated.collated)
        assert merged.oom == emulated.oom
        assert merged.stage_times == emulated.stage_times
        # Cached under the parent's own objects, not shipped copies.
        assert merged.job is job
        assert merged.cluster is parent.pipeline.cluster
        assert parent.cache.peek_prediction(
            parent._prediction_key(job)) is result
        assert parent.cache_stats() == worker.cache_stats()

    @POOLED
    def test_merged_artifacts_match_serial_and_serve_siblings(
            self, tiny_model, v100_cluster, backend):
        jobs = self._jobs(tiny_model, v100_cluster)
        with self._service(v100_cluster) as serial, \
                self._service(v100_cluster, backend) as pooled:
            serial.predict_many(self._jobs(tiny_model, v100_cluster))
            results = pooled.predict_many(jobs)
            for job, result in zip(jobs, results):
                key = pooled._artifact_key(job)
                expected = serial.cache.peek_artifacts(key)
                merged = pooled.cache.peek_artifacts(key)
                assert _trace_json(merged, comm_ids=False) == \
                    _trace_json(expected, comm_ids=False)
                assert _fingerprint(merged.collated) == \
                    _fingerprint(expected.collated)
                assert merged.oom == expected.oom
                # Wall-clock stage times are the worker's own measurements
                # (exactly what its result reports), shaped like serial's.
                assert merged.stage_times == {
                    stage: result.stage_times[stage]
                    for stage in expected.stage_times}
                assert merged.job is job
            # A structural sibling re-simulates on the merged artifacts.
            sibling = self.RECIPES[0].replace(compiled=True)
            reused = pooled.predict(_job(tiny_model, v100_cluster, sibling))
            reference = serial.predict(_job(tiny_model, v100_cluster,
                                            sibling))
        assert reused.metadata["service_cache"] == "artifacts"
        assert_results_identical([reference], [reused], backend=backend)

    def _cold_sweep(self, model, cluster, pooled):
        """Two cold batches on ``pooled``; the second batch's sync forwards
        the first batch's artifacts to the sibling of each producer."""
        first = pooled.predict_many(self._jobs(model, cluster))
        second = pooled.predict_many(
            self._jobs(model, cluster, self.RECOMPUTE))
        return first + second

    @POOLED
    def test_forwarded_sync_payload_is_the_workers_result_payload(
            self, tiny_model, v100_cluster, backend, monkeypatch):
        from multiprocessing.connection import Connection

        from repro.service.backends import PersistentBackend

        received, synced = {}, []
        real_feed, real_send = PersistentBackend._feed, Connection.send

        def feed(backend_self, dispatch, worker, message, payloads):
            if message[0] == "result" and message[3] is not None:
                job = backend_self._jobs[message[1]]
                received[backend_self._service._artifact_key(job)] = \
                    message[3]
            return real_feed(backend_self, dispatch, worker, message,
                             payloads)

        def send(conn, obj):
            if isinstance(obj, tuple) and obj[0] == "sync":
                synced.append(obj)
            return real_send(conn, obj)

        monkeypatch.setattr(PersistentBackend, "_feed", feed)
        monkeypatch.setattr(Connection, "send", send)
        with self._service(v100_cluster, backend) as pooled:
            results = self._cold_sweep(tiny_model, v100_cluster, pooled)
        assert all(r.metadata["service_cache"] == "miss" for r in results)
        shipped = [entry for message in synced for entry in message[3]]
        # Each first-batch artifact reaches the one worker that did not
        # emulate it, as the very bytes its producer returned.
        assert sorted(key for key, _ in shipped) == sorted(
            pooled._artifact_key(job)
            for job in self._jobs(tiny_model, v100_cluster))
        for key, payload in shipped:
            assert payload == received[key]

    @POOLED
    def test_cold_sweep_decodes_nothing_anywhere(
            self, tiny_model, v100_cluster, backend, monkeypatch):
        codec = _CodecCounts(monkeypatch)
        with self._service(v100_cluster, backend) as pooled:
            results = self._cold_sweep(tiny_model, v100_cluster, pooled)
            assert pooled.backend_impl.sync_stats["delta_syncs"] == 2
        assert all(r.metadata["service_cache"] == "miss" for r in results)
        # The sibling workers hold what the second sync forwarded and
        # never look it up; the parent forwards bytes, encoding nothing.
        assert codec.workers("loads") == 0
        assert codec.parent("loads") == 0
        assert codec.parent("dumps_columnar") == 0
        # Each cold job's own encode in its worker is the only codec work.
        assert codec.workers("dumps_columnar") == 2 * len(self.RECIPES)

    @POOLED
    def test_artifact_hit_decodes_once_on_the_pool_and_the_parent(
            self, tiny_model, v100_cluster, backend, monkeypatch):
        cold = self._jobs(tiny_model, v100_cluster)
        compiled = [_job(tiny_model, v100_cluster,
                         recipe.replace(compiled=True))
                    for recipe in self.RECIPES]
        # Round-robin striping put jobs 0 and 2 on worker 0 and jobs 1 and
        # 3 on worker 1; this order sends each variant to the worker that
        # holds its artifacts only as forwarded bytes.
        through_pool = [compiled[3], compiled[2], compiled[1]]
        codec = _CodecCounts(monkeypatch)
        with self._service(v100_cluster) as serial, \
                self._service(v100_cluster, backend) as pooled:
            expected = (serial.predict_many(cold)
                        + serial.predict_many(through_pool)
                        + [serial.predict(compiled[0])])
            before = (codec.parent("loads"), codec.workers("loads"))
            results = pooled.predict_many(cold)
            results += pooled.predict_many(through_pool)
            assert codec.workers("loads") - before[1] == len(through_pool)
            assert codec.parent("loads") == before[0]
            epoch = pooled.cache.sync_epoch
            results.append(pooled.predict(compiled[0]))
            assert codec.parent("loads") == before[0] + 1
            # Decoded in place: a second read decodes nothing, and the
            # journal does not see the swap.
            key = pooled._artifact_key(compiled[0])
            assert not isinstance(pooled.cache.peek_entry(key),
                                  HeldArtifacts)
            assert pooled.cache.peek_artifacts(key).job is cold[0]
            assert codec.parent("loads") == before[0] + 1
            assert pooled.cache.sync_epoch == epoch
            assert pooled.cache_stats() == serial.cache_stats()
        assert [r.metadata["service_cache"] for r in results] == \
            ["miss"] * 4 + ["artifacts"] * 4
        assert_results_identical(expected, results, backend=backend)

    @pytest.mark.parametrize("damage", ["truncated", "not-artifacts"])
    def test_bad_held_payload_raises_named_error_and_is_dropped(
            self, tiny_model, v100_cluster, damage):
        from repro.service.backends import _evaluate_job

        job = _job(tiny_model, v100_cluster, self.RECIPES[0])
        worker = self._service(v100_cluster)
        _, reference, payload = _evaluate_job(worker, 0, job)
        bad = (payload[:len(payload) // 2] if damage == "truncated"
               else wire.dumps(("not", "artifacts")))
        service = self._service(v100_cluster)
        key = service._artifact_key(job)
        service.cache.put_artifacts(key, HeldArtifacts(
            bad, job, service.pipeline.cluster))
        epoch = service.cache.sync_epoch
        with pytest.raises(wire.WireError) as raised:
            service.predict(job)
        assert repr(key) in str(raised.value)
        # Dropped like an eviction: gone from the table, and a worker
        # synced before the drop gets a full resync, not a delta.
        assert service.cache.peek_entry(key) is None
        assert service.cache.delta_since(epoch) is None
        result = service.predict(job)
        assert result.metadata["service_cache"] == "miss"
        assert_results_identical([reference], [result])

    def test_placement_sizes_decoded_entries_without_trace_events(
            self, tiny_model, v100_cluster, monkeypatch):
        # Placement reads every held entry's ship size on every batch: a
        # decoded entry is sized by its row count, with no event view.
        from repro.core.trace import TraceEvent
        from repro.service.backends import PersistentBackend

        service = self._service(v100_cluster)
        jobs = self._jobs(tiny_model, v100_cluster)[:2]
        rows = []
        for job in jobs:
            artifacts = service.pipeline.emulate(job)
            shipped = wire.loads(wire.dumps_columnar(dataclasses.replace(
                artifacts, job=None, cluster=None)))
            service.cache.put_artifacts(
                service._artifact_key(job),
                dataclasses.replace(shipped, job=job, cluster=v100_cluster))
            rows.append(artifacts.job_trace.total_events())
        built = []
        init = TraceEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counting_init)
        specs = PersistentBackend()._job_specs(service, jobs,
                                               range(len(jobs)))
        assert built == []
        assert [spec.ship_bytes for spec in specs] == [48 * n for n in rows]
