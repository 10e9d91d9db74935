"""The paired-run claim verdict of ``scripts/pair_bench.py``."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "pair_bench.py"
_spec = importlib.util.spec_from_file_location("pair_bench", _path)
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)

PARENT = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 100.0, 102.0, 97.0, 101.0]


def test_quartiles():
    assert pair_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pair_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_is_met():
    change = [p * 0.85 for p in PARENT]
    v = pair_bench.claim_verdict(PARENT, change, "lower")
    assert v["met"] and v["wins"] == 10 and v["pairs"] == 10
    assert v["gain"] > v["parent_iqr"] > 0


def test_nine_of_ten_wins_is_enough_eight_is_not():
    change = [p * 0.85 for p in PARENT]
    change[0] = PARENT[0] + 1.0
    assert pair_bench.claim_verdict(PARENT, change, "lower")["met"]
    change[1] = PARENT[1] + 1.0
    v = pair_bench.claim_verdict(PARENT, change, "lower")
    assert v["wins"] == 8 and not v["met"]


def test_ties_count_for_neither_side():
    change = [p * 0.85 for p in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]      # two ties: 8 wins of 10
    v = pair_bench.claim_verdict(PARENT, change, "lower")
    assert v["wins"] == 8 and not v["met"]


def test_every_pair_won_inside_the_parents_spread_is_not_met():
    change = [p - 0.5 for p in PARENT]              # wins all, by less than the IQR
    v = pair_bench.claim_verdict(PARENT, change, "lower")
    assert v["wins"] == 10 and v["gain"] == pytest.approx(0.5)
    assert v["gain"] < v["parent_iqr"] and not v["met"]


def test_fewer_than_ten_pairs_is_never_met():
    v = pair_bench.claim_verdict([100.0], [50.0], "lower")
    assert v["wins"] == 1 and v["gain"] > v["parent_iqr"] == 0 and not v["met"]
    change = [p * 0.85 for p in PARENT]
    v = pair_bench.claim_verdict(PARENT[:9], change[:9], "lower")
    assert v["wins"] == 9 and v["gain"] > v["parent_iqr"] and not v["met"]
    assert pair_bench.claim_verdict(PARENT, change, "lower")["met"]


def test_higher_is_better_flips_the_sign():
    change = [p * 1.2 for p in PARENT]
    assert pair_bench.claim_verdict(PARENT, change, "higher")["met"]
    assert not pair_bench.claim_verdict(PARENT, change, "lower")["met"]


def test_bad_inputs():
    with pytest.raises(ValueError):
        pair_bench.claim_verdict([], [], "lower")
    with pytest.raises(ValueError):
        pair_bench.claim_verdict([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        pair_bench.claim_verdict([1.0], [1.0], "faster")
