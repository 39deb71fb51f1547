"""Utilities shared by the benchmark files (printing, setup definitions)."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List


#: The four deployment setups of Figures 7-9: (name, model, cluster, batch).
PREDICTION_SETUPS = (
    ("GPT3 2.7B - 8xV100", "gpt3-2.7b", "v100-8", 256),
    ("GPT3 2.7B - 16xV100", "gpt3-2.7b", "v100-16", 256),
    ("GPT3 18.4B - 32xH100", "gpt3-18.4b", "h100-32", 512),
    ("GPT3 18.4B - 64xH100", "gpt3-18.4b", "h100-64", 512),
)


def print_table(title: str, header: List[str], rows: List[List[object]]) -> None:
    """Print a paper-style table to stdout (captured into the bench log)."""
    widths = [max(len(str(header[col])),
                  max((len(str(row[col])) for row in rows), default=0))
              for col in range(len(header))]
    print(f"\n=== {title} ===")
    print("  ".join(str(cell).ljust(width)
                    for cell, width in zip(header, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)))


def fmt(value: float, digits: int = 3) -> str:
    """Format a float compactly for table cells."""
    if value != value or value in (float("inf"), float("-inf")):
        return "n/a"
    return f"{value:.{digits}f}"


def pin(value):
    """The pinned view of a number tree: exact floats as hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): pin(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [pin(item) for item in value]
    return value


def assert_golden(name: str, numbers) -> None:
    """Hold one figure's headline numbers to ``goldens/paper_numbers.json``.

    The file was recorded at the commit before the dispatch refactor and,
    like ``tests/goldens/engine_reports.json``, is never regenerated to
    make a failing test pass: a changed number is a changed prediction.
    The pins only describe the default sizing, so a run that overrides
    ``REPRO_BENCH_CONFIGS`` / ``REPRO_BENCH_SCALE`` keeps just the loose
    bounds.
    """
    if {"REPRO_BENCH_CONFIGS", "REPRO_BENCH_SCALE"} & set(os.environ):
        return
    goldens = json.loads((Path(__file__).parent / "goldens"
                          / "paper_numbers.json").read_text())
    assert pin(numbers) == goldens[name], name
