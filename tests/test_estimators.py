"""Tests for the kernel runtime estimators: regressors, profiler, suites."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators.analytical import AnalyticalKernelEstimator
from repro.core.estimators.collective import (
    HierarchicalNetworkModel,
    ProfiledCollectiveEstimator,
)
from repro.core.estimators.features import (
    FEATURE_NAMES,
    feature_matrix,
    kernel_features,
)
from repro.core.estimators.oracle import (
    OracleCollectiveEstimator,
    OracleKernelEstimator,
)
from repro.core.estimators.profiler import (
    CollectiveProfiler,
    DEFAULT_KERNEL_CLASSES,
    KernelProfiler,
)
from repro.core.estimators.regression import (
    DecisionTreeRegressor,
    RandomForestRegressor,
    mean_absolute_percentage_error,
)
from repro.core.estimators.suite import (
    EstimatorSuite,
    LearnedKernelEstimator,
    build_estimator_suite,
)
from repro.hardware.cluster import get_cluster
from repro.hardware.gpu_specs import get_gpu
from repro.hardware.interconnect import V100_FABRIC
from repro.hardware.kernel_cost import KernelCostModel

import reference_tree


class TestFeatures:
    def test_feature_vector_length(self):
        vector = kernel_features({"flops": 1e9, "bytes": 1e6})
        assert vector.shape == (len(FEATURE_NAMES),)

    def test_dtype_distinguished(self):
        fp16 = kernel_features({"flops": 1e9, "dtype": "float16"})
        bf16 = kernel_features({"flops": 1e9, "dtype": "bfloat16"})
        assert not np.allclose(fp16, bf16)

    def test_missing_fields_default_to_zero(self):
        vector = kernel_features({})
        assert np.isfinite(vector).all()


class TestRegression:
    def test_tree_fits_piecewise_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 10, size=(400, 1))
        y = np.where(x[:, 0] < 5, 1.0, 3.0)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        prediction = tree.predict(np.array([[2.0], [8.0]]))
        assert prediction[0] == pytest.approx(1.0, abs=0.1)
        assert prediction[1] == pytest.approx(3.0, abs=0.1)

    def test_tree_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_tree_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((3, 2)), np.zeros(4))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_forest_improves_over_constant(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(1, 20, size=(600, 2))
        y = np.log(x[:, 0] * 3 + x[:, 1])
        forest = RandomForestRegressor(n_trees=6, max_depth=10, seed=2)
        forest.fit(x[:500], y[:500])
        prediction = forest.predict(x[500:])
        residual = np.mean((prediction - y[500:]) ** 2)
        baseline = np.var(y[500:])
        assert residual < baseline * 0.1

    def test_forest_is_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(100, 3))
        y = x.sum(axis=1)
        first = RandomForestRegressor(n_trees=3, seed=7).fit(x, y).predict(x[:5])
        second = RandomForestRegressor(n_trees=3, seed=7).fit(x, y).predict(x[:5])
        assert np.allclose(first, second)

    def test_mape_metric(self):
        assert mean_absolute_percentage_error(
            np.array([1.0, 2.0]), np.array([1.1, 1.8])) == pytest.approx(10.0)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_tree_predicts_constant_function_exactly(self, constant):
        x = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, constant)
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.predict(np.array([[3.0]]))[0] == pytest.approx(constant)



def assert_same_tree(expected, actual):
    """Node-for-node equality: structure, ``feature``, ``threshold`` and
    ``value``, each by value and by type."""
    stack = [(expected, actual, "root")]
    while stack:
        want, got, path = stack.pop()
        for name in ("feature", "threshold", "value"):
            want_field, got_field = getattr(want, name), getattr(got, name)
            assert type(got_field) is type(want_field), (path, name)
            assert got_field == want_field, (path, name, got_field,
                                             want_field)
        assert (got.left is None) == (want.left is None), path
        assert (got.right is None) == (want.right is None), path
        if want.left is not None:
            stack.append((want.left, got.left, path + ".left"))
            stack.append((want.right, got.right, path + ".right"))


def _synthetic(case, seed):
    """Seeded rows that reach the builder's edge cases."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 90))
    if case == "tied_features":
        x = rng.integers(0, 3, size=(n, 3)).astype(float)
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.1, n)
    else:
        x = rng.normal(size=(n, 4))
        y = rng.normal(0, 5, n)
    if case == "constant_targets":
        y = np.full(n, rng.normal())
    elif case == "near_constant_targets":
        # Straddle np.allclose's tolerance around the first target.
        base = rng.normal()
        tolerance = 1e-08 + 1e-05 * abs(base)
        y = base + rng.choice([0.5, 0.999, 1.001, 2.0], size=n) * tolerance
        y[0] = base
    elif case == "few_distinct_targets":
        y = rng.integers(0, 2, size=n).astype(float)
    return x, y


class TestLevelWiseBuilder:
    """The level-wise builder grows the recursive reference's trees."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", ["tied_features", "constant_targets",
                                      "near_constant_targets",
                                      "few_distinct_targets", "noise"])
    def test_tree_matches_recursive_reference(self, case, seed):
        x, y = _synthetic(case, seed)
        for max_depth in (0, 1, 3, 12):
            for min_samples_leaf in (0, 1, 2, 5):
                tree = DecisionTreeRegressor(
                    max_depth=max_depth,
                    min_samples_leaf=min_samples_leaf).fit(x, y)
                assert_same_tree(reference_tree.build_tree(
                    x, y, max_depth, min_samples_leaf), tree._root)

    @pytest.mark.parametrize("n_rows", [3, 4, 5, 6, 7])
    def test_min_samples_leaf_boundary(self, n_rows):
        # 2 * min_samples_leaf rows is the smallest node that may split,
        # and a cut must leave min_samples_leaf rows on each side.
        rng = np.random.default_rng(n_rows)
        x = rng.normal(size=(n_rows, 2))
        y = rng.normal(size=n_rows)
        for min_samples_leaf in (2, 3):
            tree = DecisionTreeRegressor(
                max_depth=5, min_samples_leaf=min_samples_leaf).fit(x, y)
            assert_same_tree(reference_tree.build_tree(
                x, y, 5, min_samples_leaf), tree._root)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_forest_grows_its_trees_together_like_one_at_a_time(
            self, bootstrap):
        x, y = _synthetic("tied_features", 11)
        forest = RandomForestRegressor(n_trees=5, max_depth=6, seed=3,
                                       bootstrap=bootstrap).fit(x, y)
        roots = reference_tree.forest_roots(x, y, n_trees=5, max_depth=6,
                                            min_samples_leaf=2, seed=3,
                                            bootstrap=bootstrap)
        for root, tree in zip(roots, forest._trees, strict=True):
            assert_same_tree(root, tree._root)


@pytest.fixture(scope="module")
def v100_training_sets():
    """Each kernel class's training rows as the learned v100-8 suite fits
    them, with its trained estimator and held-out set."""
    cluster = get_cluster("v100-8")
    suite = build_estimator_suite(cluster, mode="learned")
    prior = AnalyticalKernelEstimator(cluster.gpu)
    datasets = KernelProfiler(cluster.gpu, seed=0).profile_default_classes(
        samples_per_class=224)
    sets = {}
    for kernel_class, dataset in datasets.items():
        train, test = dataset.train_test_split(seed=0)
        prior_times = np.array([prior.estimate(kernel_class, params)
                                for params in train.params])
        targets = (np.log(np.maximum(train.runtimes, 1e-9))
                   - np.log(np.maximum(prior_times, 1e-9)))
        sets[kernel_class] = (feature_matrix(train.params), targets,
                              suite.kernel_estimators[kernel_class], test)
    return sets


class TestLearnedSuiteTrees:
    def test_v100_suite_matches_recursive_reference(self, v100_training_sets):
        # Every tree of every kernel class, node by node.  v100-16 trains
        # the same kernel forests (profiling depends only on the GPU and
        # the seed); tab07-09's float.hex goldens cover h100-64 and a40-8.
        assert len(v100_training_sets) == len(DEFAULT_KERNEL_CLASSES)
        trees = 0
        for features, targets, estimator, _ in v100_training_sets.values():
            forest = estimator.forest
            roots = reference_tree.forest_roots(
                features, targets, n_trees=forest.n_trees,
                max_depth=forest.max_depth,
                min_samples_leaf=forest.min_samples_leaf, seed=forest.seed)
            for root, tree in zip(roots, forest._trees, strict=True):
                assert_same_tree(root, tree._root)
                trees += 1
        assert trees == 22 * 8

    def test_forest_prediction_does_not_depend_on_the_batch(
            self, v100_training_sets):
        for features, _, estimator, test in v100_training_sets.values():
            rows = np.vstack([features, feature_matrix(test.params)])
            batched = estimator.forest.predict(rows)
            alone = [estimator.forest.predict(rows[i:i + 1])[0]
                     for i in range(len(rows))]
            assert batched.tolist() == alone

    def test_validation_mape_prices_rows_like_estimate(
            self, v100_training_sets):
        for _, _, estimator, test in list(v100_training_sets.values())[:4]:
            one_by_one = np.array([
                estimator.estimate(test.kernel_class, params)
                for params in test.params])
            assert estimator.validation_mape(test) == \
                mean_absolute_percentage_error(test.runtimes, one_by_one)

class TestAnalyticalAndOracle:
    def test_analytical_monotone_in_flops(self):
        estimator = AnalyticalKernelEstimator(get_gpu("H100"))
        small = estimator.estimate("gemm", {"flops": 1e9, "bytes": 1e6,
                                            "dtype": "float16"})
        large = estimator.estimate("gemm", {"flops": 1e12, "bytes": 1e8,
                                            "dtype": "float16"})
        assert large > small

    def test_analytical_memcpy_uses_pcie(self):
        estimator = AnalyticalKernelEstimator(get_gpu("H100"))
        assert estimator.estimate("memcpy_h2d", {"bytes": 1e9}) > \
            estimator.estimate("memcpy_d2d", {"bytes": 1e9})

    def test_oracle_matches_cost_model(self):
        cost_model = KernelCostModel()
        oracle = OracleKernelEstimator(get_gpu("V100"), cost_model)
        params = {"flops": 2e12, "bytes": 5e8, "m": 4096, "n": 4096, "k": 4096,
                  "dtype": "float16"}
        assert oracle.estimate("gemm", params) == pytest.approx(
            cost_model.expected_kernel_time(get_gpu("V100"), "gemm", params))

    def test_oracle_collective_positive(self):
        oracle = OracleCollectiveEstimator(V100_FABRIC)
        time = oracle.estimate_collective("all_reduce", 1e8, list(range(8)), 8)
        assert time > 0


class TestProfiler:
    def test_profile_class_produces_samples(self):
        profiler = KernelProfiler(get_gpu("V100"), seed=1)
        dataset = profiler.profile_class("gemm", n_samples=50)
        assert len(dataset) == 50
        assert (dataset.runtimes > 0).all()

    def test_profiles_are_deterministic_per_seed(self):
        first = KernelProfiler(get_gpu("V100"), seed=3).profile_class("softmax", 20)
        second = KernelProfiler(get_gpu("V100"), seed=3).profile_class("softmax", 20)
        assert np.allclose(first.runtimes, second.runtimes)

    def test_train_test_split_partitions(self):
        dataset = KernelProfiler(get_gpu("A40")).profile_class("elementwise", 40)
        train, test = dataset.train_test_split(test_fraction=0.25, seed=0)
        assert len(train) + len(test) == 40
        assert len(test) == 10

    def test_default_classes_cover_trace_vocabulary(self):
        for kernel_class in ("gemm", "batched_gemm", "softmax", "memcpy_h2d",
                             "conv_forward", "fused_triton"):
            assert kernel_class in DEFAULT_KERNEL_CLASSES

    def test_collective_profiler_sweeps_sizes_and_ranks(self):
        profiler = CollectiveProfiler(V100_FABRIC, gpus_per_node=8, seed=0)
        samples = profiler.profile(ops=("all_reduce",), rank_counts=(2, 8, 16),
                                   sizes=(1e6, 1e8), repeats=1)
        assert len(samples) == 6
        assert any(not sample.intra_node for sample in samples)
        assert all(sample.runtime > 0 for sample in samples)


class TestLearnedEstimators:
    @pytest.fixture(scope="class")
    def gemm_estimator(self):
        profiler = KernelProfiler(get_gpu("V100"), seed=0)
        dataset = profiler.profile_class("gemm", n_samples=200)
        train, test = dataset.train_test_split(seed=0)
        prior = AnalyticalKernelEstimator(get_gpu("V100"))
        estimator = LearnedKernelEstimator.train(train, prior, seed=0)
        return estimator, test

    def test_validation_mape_reasonable(self, gemm_estimator):
        estimator, test = gemm_estimator
        assert estimator.validation_mape(test) < 25.0

    def test_estimates_are_positive(self, gemm_estimator):
        estimator, _ = gemm_estimator
        value = estimator.estimate("gemm", {"m": 2048, "n": 2048, "k": 2048,
                                            "flops": 2.0 * 2048 ** 3,
                                            "bytes": 2.0 * 3 * 2048 ** 2,
                                            "dtype": "float16"})
        assert value > 0

    def test_profiled_collective_estimator_fits_sweep(self):
        profiler = CollectiveProfiler(V100_FABRIC, gpus_per_node=8, seed=1)
        samples = profiler.profile(ops=("all_reduce", "all_gather"),
                                   rank_counts=(2, 4, 8), repeats=2)
        estimator = ProfiledCollectiveEstimator(gpus_per_node=8).fit(samples)
        predicted = estimator.estimate_collective("all_reduce", 1e8,
                                                  list(range(8)), 8)
        oracle = OracleCollectiveEstimator(V100_FABRIC)
        actual = oracle.estimate_collective("all_reduce", 1e8, list(range(8)), 8)
        assert predicted == pytest.approx(actual, rel=0.35)

    def test_unfitted_collective_estimator_raises(self):
        with pytest.raises(RuntimeError):
            ProfiledCollectiveEstimator(8).estimate_collective(
                "all_reduce", 1e6, [0, 1], 8)

    def test_hierarchical_model_penalises_cross_node(self):
        model = HierarchicalNetworkModel(V100_FABRIC)
        intra = model.estimate_collective("all_reduce", 1e8, list(range(8)), 8)
        inter = model.estimate_collective("all_reduce", 1e8, list(range(16)), 8)
        assert inter > intra


class TestEstimatorSuite:
    def test_oracle_and_analytical_modes(self):
        cluster = get_cluster("v100-8")
        for mode in ("oracle", "analytical"):
            suite = build_estimator_suite(cluster, mode=mode)
            assert suite.estimate_kernel("gemm", {"flops": 1e10, "bytes": 1e7,
                                                  "dtype": "float16"}) > 0
            assert suite.estimate_collective("all_reduce", 1e7,
                                             list(range(4)), 8) > 0

    def test_suite_cache_reuses_instances(self):
        cluster = get_cluster("v100-8")
        first = build_estimator_suite(cluster, mode="analytical")
        second = build_estimator_suite(cluster, mode="analytical")
        assert first is second

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_estimator_suite(get_cluster("v100-8"), mode="quantum")

    def test_missing_estimator_raises(self):
        suite = EstimatorSuite(name="empty")
        with pytest.raises(RuntimeError):
            suite.estimate_kernel("gemm", {})
        with pytest.raises(RuntimeError):
            suite.estimate_collective("all_reduce", 1.0, [0, 1], 8)

    def test_learned_suite_reports_validation_mape(self):
        # Uses the session-level cache when the learned suite was already
        # trained by other tests; otherwise trains a small one.
        cluster = get_cluster("v100-8")
        suite = build_estimator_suite(cluster, mode="learned",
                                      samples_per_class=60, seed=5)
        assert suite.validation_mape
        important = [suite.validation_mape[name]
                     for name in ("gemm", "batched_gemm", "softmax")]
        assert all(value < 40.0 for value in important)
