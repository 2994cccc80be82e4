"""The arithmetic of tools/pairs.py: quartiles, wins and the rule for claiming a gain."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles(pairs):
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_better_direction_and_ties_count_for_neither(pairs):
    parent, change = [2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 2.0, 1.5]
    assert pairs.wins(parent, change, "lower") == 2
    assert pairs.wins(parent, change, "higher") == 1
    with pytest.raises(ValueError):
        pairs.wins([1.0], [1.0, 2.0], "lower")


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_parents_spread(pairs):
    parent = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0, 2.02, 1.98, 2.1, 1.9]
    faster = [p - 0.4 for p in parent]
    res = pairs.judge(parent, faster, "lower")
    assert res["wins"] == 10 and res["claim"]
    assert res["gain"] == pytest.approx(0.4) and res["parent_iqr"] == pytest.approx(2.0425 - 1.9575)
    # one pair lost: 9 of 10 still meets the rule, 8 of 10 does not
    one_lost = faster[:9] + [parent[9] + 0.1]
    assert pairs.judge(parent, one_lost, "lower")["claim"]
    two_lost = faster[:8] + [p + 0.1 for p in parent[8:]]
    assert not pairs.judge(parent, two_lost, "lower")["claim"]
    # every pair won, but by less than the parent's interquartile distance
    slightly = [p - 0.01 for p in parent]
    res = pairs.judge(parent, slightly, "lower")
    assert res["wins"] == 10 and not res["claim"]
    # a higher-is-better metric that went down claims nothing
    assert not pairs.judge(parent, faster, "higher")["claim"]
    assert pairs.judge(faster, parent, "higher")["claim"]
