"""End-to-end tests for the Maya pipeline and the testbed reference model."""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing

import pytest

from repro.analysis.metrics import absolute_percentage_error, mfu
from repro.core.pipeline import MayaPipeline
from repro.core.trace import TraceEvent
from repro.cuda.errors import CudaInvalidValueError
from repro.service import PredictionService, wire
from repro.framework.recipe import TrainingRecipe
from repro.hardware.cluster import get_cluster
from repro.testbed import Testbed
from repro.workloads.job import TransformerTrainingJob, VisionTrainingJob
from repro.workloads.models import get_convnet, get_transformer


@pytest.fixture(scope="module")
def v100():
    return get_cluster("v100-8")


@pytest.fixture(scope="module")
def tiny_gpt():
    return get_transformer("gpt-tiny")


def _job(model, cluster, gbs=16, **recipe_kwargs):
    recipe = TrainingRecipe(dtype="float16", **recipe_kwargs)
    return TransformerTrainingJob(model, recipe, cluster, global_batch_size=gbs)


class TestMayaPipeline:
    def test_emulation_artifacts_contain_traces(self, v100, tiny_gpt):
        pipeline = MayaPipeline(v100, estimator_mode="analytical")
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        artifacts = pipeline.emulate(job)
        assert artifacts.job_trace.total_events() > 0
        assert artifacts.collated.unique_trace_count() >= 1
        assert "emulation" in artifacts.stage_times
        assert not artifacts.oom

    def test_prediction_reports_all_metrics(self, v100, tiny_gpt):
        pipeline = MayaPipeline(v100, estimator_mode="analytical")
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        result = pipeline.predict(job)
        assert result.succeeded
        assert result.iteration_time > 0
        assert result.communication_time > 0
        assert result.peak_memory_bytes > 0
        assert set(result.stage_times) >= {"emulation", "collation",
                                           "prediction", "simulation"}

    def test_invalid_recipe_reported_not_raised(self, v100, tiny_gpt):
        job = _job(tiny_gpt, v100, tensor_parallel=3)
        result = MayaPipeline(v100, estimator_mode="analytical").predict(job)
        assert not result.succeeded
        assert "invalid" in result.metadata

    def test_oom_config_reported(self, v100):
        # gpt3-6.7b with no parallelism cannot fit in 40 GB.
        model = get_transformer("gpt3-6.7b")
        job = _job(model, v100, gbs=64, tensor_parallel=1, pipeline_parallel=1)
        result = MayaPipeline(v100, estimator_mode="analytical").predict(job)
        assert result.oom
        assert math.isinf(result.iteration_time)

    def test_failed_rank_reported_not_predicted(self, v100, tiny_gpt):
        # A rank raising a CUDA error mid-iteration leaves a truncated
        # trace; predicting from it would replay half an iteration.
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        failing_rank = job.unique_ranks()[-1]
        run_worker = job.worker_fn

        def worker_fn(rank, emulator):
            if rank == failing_rank:
                launch = emulator.runtime.launch_kernel
                launches = itertools.count()

                def flaky_launch(*args, **kwargs):
                    if next(launches) == 40:
                        raise CudaInvalidValueError("injected launch failure")
                    return launch(*args, **kwargs)

                emulator.runtime.launch_kernel = flaky_launch
            run_worker(rank, emulator)

        job.worker_fn = worker_fn
        pipeline = MayaPipeline(v100, estimator_mode="analytical")
        # The testbed measures neither its own emulation of the job nor
        # the pipeline's: both report the failure the way predict() does.
        testbed = Testbed(v100)
        for result in (pipeline.predict(job), testbed.measure(job),
                       testbed.measure(job, pipeline.emulate(job))):
            assert not result.succeeded and not result.oom
            assert math.isinf(result.iteration_time)
            assert result.report is None
            assert ("rank 2: injected launch failure"
                    in result.metadata["emulation_error"])

    def test_fingerprint_annotations_resolve(self):
        for method in (MayaPipeline.collation_fingerprint,
                       MayaPipeline.estimator_fingerprint):
            assert typing.get_type_hints(method)["return"] is typing.Tuple

    def test_cold_prediction_builds_no_trace_events(self, v100, tiny_gpt,
                                                    monkeypatch):
        # Columns are the trace: neither a cold serial prediction, a
        # pooled artifact round-trip nor a testbed measurement may
        # materialize the event view.
        built = []
        init = TraceEvent.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TraceEvent, "__init__", counting_init)
        service = PredictionService(cluster=v100, estimator_mode="analytical")
        job = TransformerTrainingJob(
            tiny_gpt, TrainingRecipe(tensor_parallel=2, pipeline_parallel=2,
                                     microbatch_multiplier=2, dtype="float16"),
            v100, global_batch_size=16, iterations=6)
        cold = service.predict(job)
        assert cold.succeeded and built == []

        pipeline = service.pipeline
        artifacts = pipeline.emulate(job)
        shipped = wire.loads(wire.dumps_columnar(
            dataclasses.replace(artifacts, job=None, cluster=None)))
        pooled = pipeline.predict(
            job, dataclasses.replace(shipped, job=job, cluster=v100),
            provider=service.provider())
        assert built == []
        assert pooled.iteration_time == cold.iteration_time

        measured = Testbed(v100).measure(job)
        assert measured.succeeded and built == []

    def test_selective_launch_matches_full_emulation(self, v100, tiny_gpt):
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        selective = MayaPipeline(v100, estimator_mode="analytical",
                                 selective_launch=True).predict(job)
        job2 = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                    microbatch_multiplier=2)
        full = MayaPipeline(v100, estimator_mode="analytical",
                            selective_launch=False,
                            deduplicate_workers=True).predict(job2)
        assert selective.iteration_time == pytest.approx(full.iteration_time,
                                                         rel=0.02)

    def test_replica_reduction_matches_full_simulation(self, v100, tiny_gpt):
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        pipeline_reduced = MayaPipeline(v100, estimator_mode="analytical",
                                        reduce_replicas=True)
        pipeline_full = MayaPipeline(v100, estimator_mode="analytical",
                                     reduce_replicas=False)
        artifacts = pipeline_reduced.emulate(job)
        reduced = pipeline_reduced.predict(job, artifacts)
        full = pipeline_full.predict(job, artifacts)
        assert reduced.iteration_time == pytest.approx(full.iteration_time,
                                                       rel=0.05)
        assert reduced.metadata["simulated_ranks"] < \
            full.metadata["simulated_ranks"]

    def test_vision_job_prediction(self, tiny_gpt):
        cluster = get_cluster("a40-8")
        job = VisionTrainingJob(get_convnet("convnet-tiny"), cluster,
                                global_batch_size=32)
        result = MayaPipeline(cluster, estimator_mode="analytical").predict(job)
        assert result.succeeded
        assert result.iteration_time > 0


class TestTestbed:
    def test_measurement_close_to_oracle_prediction(self, v100, tiny_gpt):
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        pipeline = MayaPipeline(v100, estimator_mode="oracle")
        artifacts = pipeline.emulate(job)
        predicted = pipeline.predict(job, artifacts)
        actual = Testbed(v100).measure(job, artifacts)
        error = absolute_percentage_error(actual.iteration_time,
                                          predicted.iteration_time)
        assert error < 10.0

    def test_measurements_are_reproducible(self, v100, tiny_gpt):
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=1,
                   microbatch_multiplier=2)
        first = Testbed(v100).measure(job)
        second = Testbed(v100).measure(job)
        assert first.iteration_time == pytest.approx(second.iteration_time)

    def test_contention_increases_measured_time(self, v100, tiny_gpt):
        job = _job(tiny_gpt, v100, tensor_parallel=2, pipeline_parallel=1,
                   microbatch_multiplier=2)
        pipeline = MayaPipeline(v100, estimator_mode="analytical")
        artifacts = pipeline.emulate(job)
        plain = Testbed(v100, sm_contention_factor=1.0).measure(job, artifacts)
        contended = Testbed(v100, sm_contention_factor=1.3).measure(job,
                                                                    artifacts)
        assert contended.iteration_time >= plain.iteration_time

    def test_invalid_and_oom_reported(self, v100):
        invalid = _job(get_transformer("gpt-tiny"), v100, tensor_parallel=5)
        assert not Testbed(v100).measure(invalid).succeeded
        oom = _job(get_transformer("gpt3-6.7b"), v100, gbs=64)
        assert Testbed(v100).measure(oom).oom


class TestAccuracyContract:
    """The headline claim: Maya's predictions track the testbed closely."""

    @pytest.mark.parametrize("recipe_kwargs", [
        dict(tensor_parallel=2, pipeline_parallel=2, microbatch_multiplier=2),
        dict(tensor_parallel=4, pipeline_parallel=1, microbatch_multiplier=2,
             distributed_optimizer=True),
        dict(tensor_parallel=2, pipeline_parallel=2, microbatch_multiplier=1,
             activation_recomputation=True, sequence_parallelism=True),
        dict(tensor_parallel=1, pipeline_parallel=2, microbatch_multiplier=2,
             virtual_stages=2),
    ])
    def test_oracle_prediction_within_ten_percent(self, v100, recipe_kwargs):
        model = get_transformer("gpt-small")
        job = _job(model, v100, gbs=32, **recipe_kwargs)
        pipeline = MayaPipeline(v100, estimator_mode="oracle")
        artifacts = pipeline.emulate(job)
        predicted = pipeline.predict(job, artifacts)
        actual = Testbed(v100).measure(job, artifacts)
        assert predicted.succeeded and actual.succeeded
        error = absolute_percentage_error(actual.iteration_time,
                                          predicted.iteration_time)
        assert error < 10.0

    def test_mfu_within_physical_bounds(self, v100):
        model = get_transformer("gpt-small")
        job = _job(model, v100, gbs=32, tensor_parallel=2, pipeline_parallel=2,
                   microbatch_multiplier=2)
        actual = Testbed(v100).measure(job)
        value = mfu(actual.iteration_time, job.flops_per_iteration(), v100,
                    dtype="float16")
        assert 0.0 < value <= 1.0
