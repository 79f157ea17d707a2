"""The verdict tools/bench_pairs.py prints for each end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten parent runs, median 1.0, quartiles 0.9925 and 1.0075: spread 1.5%
TIGHT = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
# ten parent runs, median 1.0, quartiles 0.825 and 1.175: spread 35%
WIDE = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]


def test_worse_when_the_median_moves_past_the_bound():
    wins, gain, spread, word = bench_pairs.verdict(TIGHT, [1.3 * v for v in TIGHT],
                                                   "lower", 0.25)
    assert (wins, word) == (0, "worse")
    assert gain == pytest.approx(-0.3) and spread == pytest.approx(0.015)


def test_unresolved_when_the_parent_spreads_past_the_bound():
    change = [0.95 * v for v in reversed(WIDE)]
    wins, gain, spread, word = bench_pairs.verdict(WIDE, change, "lower", 0.25)
    assert word == "unresolved"
    assert gain == pytest.approx(0.05) and spread == pytest.approx(0.35)


def test_better_needs_nine_pairs_in_ten_and_a_gap_past_the_quartiles():
    change = [v - 0.05 for v in TIGHT]
    assert bench_pairs.verdict(TIGHT, change, "lower", 0.25)[::3] == (10, "better")
    # one tie and one loss: 8 of 10 wins is not a gain
    change[0], change[1] = TIGHT[0], TIGHT[1] + 0.01
    assert bench_pairs.verdict(TIGHT, change, "lower", 0.25)[::3] == (8, "within")
    # a wide parent still reads better when every change run beats every
    # parent run, here in the higher-is-better direction
    assert bench_pairs.verdict(WIDE, [v + 1.0 for v in WIDE], "higher", 0.25)[3] == "better"


def test_within_when_no_rule_fires():
    change = [v + 0.001 * (-1) ** i for i, v in enumerate(TIGHT)]
    wins, gain, spread, word = bench_pairs.verdict(TIGHT, change, "lower", 0.25)
    assert (wins, word) == (5, "within")
    assert abs(gain) < 0.01
