"""Tables 7-9: per-kernel-class prediction error (MAPE) of the learned
runtime estimators for the H100, V100 and A40 devices.

The paper's tables list mean absolute percentage error on a held-out 20%
split of the profiled kernel data, noting that the heavy-hitter kernels
(GEMMs for language models, convolutions for vision models) stay well under
10% while some short-duration kernels have large relative errors without
affecting end-to-end accuracy.
"""

from __future__ import annotations

from bench_utils import assert_golden, fmt, print_table

from repro.core.estimators.suite import build_estimator_suite
from repro.hardware.cluster import get_cluster

SETUPS = (
    ("Table 7 (H100)", "h100-64",
     ("gemm", "batched_gemm", "softmax", "layernorm", "dropout")),
    ("Table 8 (V100)", "v100-8",
     ("gemm", "batched_gemm", "softmax", "layernorm", "dropout")),
    ("Table 9 (A40)", "a40-8",
     ("conv_forward", "conv_backward_data", "conv_backward_filter",
      "fused_triton", "gemm")),
)


def run_experiment():
    results = {}
    for title, cluster_name, _ in SETUPS:
        suite = build_estimator_suite(get_cluster(cluster_name), mode="learned")
        results[title] = dict(suite.validation_mape)
    return results


def test_tables_7_to_9_kernel_mape(benchmark, run_once):
    results = run_once(benchmark, run_experiment)

    for title, cluster_name, important in SETUPS:
        mape = results[title]
        rows = [[kernel_class, fmt(value, 2)]
                for kernel_class, value in sorted(mape.items())]
        print_table(f"{title}: held-out MAPE per kernel class (%)",
                    ["kernel class", "MAPE %"], rows)

        # The kernel classes that dominate end-to-end time are predicted
        # accurately (paper: <5% for cublas GEMMs, <10% for convolutions).
        for kernel_class in important:
            assert mape[kernel_class] < 15.0, (title, kernel_class)
        # The overall median across all classes is in the single digits.
        values = sorted(mape.values())
        assert values[len(values) // 2] < 10.0, title
    assert_golden("tab07-09", {cluster_name: results[title]
                               for title, cluster_name, _ in SETUPS})
