"""Figure 9: cumulative distribution of prediction errors.

The paper reports that Maya achieves <1% error for ~65% of configurations on
the 8xV100 cluster and <10% error for ~90% of configurations at 64xH100,
while baselines exhibit 10-1000% errors.
"""

from __future__ import annotations

from bench_utils import assert_golden, fmt, print_table

from repro.analysis.metrics import error_cdf, fraction_below

BASELINES = ("Proteus", "Calculon", "AMPeD")

#: Cumulative fractions at which Maya's error CDF is pinned per setup.
GOLDEN_QUANTILES = (0.25, 0.5, 0.75, 0.9, 1.0)


def cdf_quantiles(values):
    """Smallest error whose cumulative fraction reaches each quantile."""
    cdf = error_cdf(values)
    return {str(q): next(err for err, fraction in cdf if fraction >= q)
            for q in GOLDEN_QUANTILES}


def collect(setups):
    data = {}
    for name, setup in setups.items():
        data[name] = {
            "Maya": setup.maya_errors(),
            **{baseline: setup.baseline_errors(baseline)
               for baseline in BASELINES},
        }
    return data


def test_fig09_error_cdf(benchmark, run_once, prediction_setups):
    errors = run_once(benchmark, collect, prediction_setups)

    for name, per_system in errors.items():
        rows = []
        for system, values in per_system.items():
            if not values:
                rows.append([system, "n/a", "n/a", "n/a", 0])
                continue
            cdf = error_cdf(values)
            median = cdf[len(cdf) // 2][0]
            rows.append([
                system,
                fmt(fraction_below(values, 1.0), 2),
                fmt(fraction_below(values, 10.0), 2),
                fmt(median, 2),
                len(values),
            ])
        print_table(f"Figure 9: error CDF summary, {name}",
                    ["system", "P(err<1%)", "P(err<10%)", "median err %", "n"],
                    rows)

    # Maya's distribution is concentrated at low error on every setup, and it
    # dominates any baseline with a meaningful number of supported configs.
    for name, per_system in errors.items():
        maya = per_system["Maya"]
        assert maya, name
        assert fraction_below(maya, 15.0) >= 0.6, name
        assert_golden(f"fig09/{name}", {
            "quantiles": cdf_quantiles(maya),
            "fraction_below_1": fraction_below(maya, 1.0),
            "fraction_below_10": fraction_below(maya, 10.0),
            "configurations": len(maya),
        })
        maya_median = sorted(maya)[len(maya) // 2]
        for baseline in BASELINES:
            values = per_system[baseline]
            if len(values) >= 3:
                baseline_median = sorted(values)[len(values) // 2]
                assert baseline_median >= maya_median - 1e-9, (name, baseline)
