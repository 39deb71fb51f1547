"""Figure 7: runtime-prediction accuracy across configurations and setups.

For each deployment setup (GPT-3 2.7B on 8/16xV100, GPT-3 18.4B on
32/64xH100) the paper plots predicted vs actual iteration time for the top
valid configurations.  Here we print one row per configuration with the
actual (testbed) time and each system's prediction, and check the headline
property: Maya's error is far smaller than every baseline's.
"""

from __future__ import annotations

import math
import statistics

from bench_utils import assert_golden, fmt, print_table

from repro.analysis.metrics import fraction_below


def collect(setups):
    return setups


def test_fig07_prediction_accuracy(benchmark, run_once, prediction_setups):
    setups = run_once(benchmark, collect, prediction_setups)

    overall_maya = []
    overall_baseline = {"Calculon": [], "AMPeD": [], "Proteus": []}
    for name, setup in setups.items():
        rows = []
        for idx, evaluation in enumerate(sorted(setup.feasible(),
                                                key=lambda ev: ev.actual_time)):
            rows.append([
                idx,
                evaluation.recipe.short_name(),
                fmt(evaluation.actual_time),
                fmt(evaluation.maya.iteration_time),
                fmt(evaluation.baselines.get("Proteus", math.nan)),
                fmt(evaluation.baselines.get("Calculon", math.nan)),
                fmt(evaluation.baselines.get("AMPeD", math.nan)),
            ])
            overall_maya.append(evaluation.maya_error)
            for baseline in overall_baseline:
                error = evaluation.baseline_error(baseline)
                if math.isfinite(error):
                    overall_baseline[baseline].append(error)
        print_table(f"Figure 7: {name} (iteration time, seconds)",
                    ["cfg", "recipe", "actual", "maya", "proteus", "calculon",
                     "amped"], rows)

    median_maya = statistics.median(overall_maya)
    print(f"\nMaya median |error|: {median_maya:.2f}%  "
          f"(fraction <10%: {fraction_below(overall_maya, 10.0):.2f})")
    for baseline, errors in overall_baseline.items():
        if errors:
            print(f"{baseline} median |error|: {statistics.median(errors):.2f}%")

    # Headline properties from the paper: Maya stays within a few percent
    # while the baselines are off by tens of percent or worse.
    assert overall_maya, "no feasible configurations were evaluated"
    assert median_maya < 10.0
    assert fraction_below(overall_maya, 10.0) >= 0.8
    assert_golden("fig07", {
        "median_maya_error": median_maya,
        "fraction_below_10": fraction_below(overall_maya, 10.0),
        "configurations": len(overall_maya),
    })
    for baseline, errors in overall_baseline.items():
        if errors:
            assert statistics.median(errors) > 2.0 * median_maya, baseline
