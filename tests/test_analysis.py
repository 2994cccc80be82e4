"""Metric tests: reference paths, distance error, curvature, sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpfnav import netloop
from hpfnav.analysis import (
    CurvatureSeries,
    curvature,
    distance_error,
    ideal_path,
    sweep,
)
from hpfnav.workspace import load_scenario, world_to_pixel


@pytest.fixture(scope="module")
def open_scenario(scenario_dir):
    return load_scenario(scenario_dir / "open.json")


@pytest.fixture(scope="module")
def open_state(open_scenario):
    return netloop.prepare(open_scenario)


def test_ideal_path_stays_near_straight_line(open_scenario, open_state):
    # start and target share a row in an empty workspace: the descent should
    # hug the straight segment between them
    sc = open_scenario
    path = ideal_path(sc, open_state)
    assert np.allclose(path[0], [sc.start.x, sc.start.y])
    a = np.array([sc.start.x, sc.start.y])
    b = (np.array(sc.target) + 0.5) * sc.gd
    ab = b - a
    L = np.linalg.norm(ab)
    for p in path:
        h = abs(ab[0] * (p - a)[1] - ab[1] * (p - a)[0]) / L
        assert h < 3 * sc.gd
    assert np.linalg.norm(path[-1] - b) < 2 * sc.gd


def test_ideal_path_avoids_obstacle_cells(scenario_dir):
    sc = load_scenario(scenario_dir / "robust.json")
    state = netloop.prepare(sc)
    path = ideal_path(sc, state)
    from hpfnav.hpf import OBSTACLE

    for x, y in path[1:]:
        cx, cy = world_to_pixel((x, y), sc.gd, sc.width, sc.height)
        assert state.boundary.labels[cy, cx] != OBSTACLE


def test_ideal_path_unreachable_raises(scenario_dir):
    sc = load_scenario(scenario_dir / "barrier.json")
    with pytest.raises(ValueError, match="unreachable"):
        ideal_path(sc)


def test_ideal_path_planner_mismatch(open_scenario, open_state):
    sc = dataclasses.replace(open_scenario, planner="fm")
    with pytest.raises(ValueError, match="does not match"):
        ideal_path(sc, open_state)


def test_ideal_path_fm_uses_planner_path(open_scenario):
    sc = dataclasses.replace(open_scenario, planner="fm")
    state = netloop.prepare(sc)
    path = ideal_path(sc, state)
    assert np.allclose(path[0], [sc.start.x, sc.start.y])
    assert np.allclose(path[1:], state.path)


def _log_with_poses(poses, total_time=1.0):
    """Records at 0.1 s spacing, each observed where it is, with one hop and zero command, delays and contact."""
    xy = np.asarray(poses, float).reshape(-1, 2)
    records = np.zeros((len(xy), len(netloop.RECORD_COLUMNS)))
    records[:, 0] = 0.1 * np.arange(len(xy))
    records[:, 1:3] = records[:, 4:6] = xy
    records[:, netloop.RECORD_COLUMNS.index("delta_l")] = 1
    return netloop.RunLog(records, [], "reached", total_time)


def test_distance_error_against_dense_sampling():
    rng = np.random.default_rng(42)
    poly = np.cumsum(rng.uniform(-0.2, 0.4, size=(12, 2)), axis=0) + 1.0
    poses = rng.uniform(0.0, 3.0, size=(20, 2))
    log = _log_with_poses(poses)
    es = distance_error(log, poly)

    # oracle: distance to 1000 points sampled densely along each segment
    ss = np.linspace(0.0, 1.0, 1000)[:, None]
    dense = np.vstack([a + ss * (b - a) for a, b in zip(poly[:-1], poly[1:])])
    for k, (px, py) in enumerate(poses):
        d = np.min(np.hypot(dense[:, 0] - px, dense[:, 1] - py))
        assert es.err[k] == pytest.approx(d, abs=1e-6)


def test_distance_error_on_and_off_path():
    poly = np.array([[0.0, 0.0], [2.0, 0.0]])
    log = _log_with_poses([(1.0, 0.0), (0.5, 0.3), (3.0, 0.0)])
    es = distance_error(log, poly)
    assert es.err[0] == 0.0
    assert es.err[1] == pytest.approx(0.3, abs=1e-12)
    assert es.err[2] == pytest.approx(1.0, abs=1e-12)  # beyond the end: endpoint distance
    assert es.mean == pytest.approx((0.0 + 0.3 + 1.0) / 3)
    assert es.max == pytest.approx(1.0)


def test_distance_error_rejects_bad_polyline():
    log = _log_with_poses([(0.0, 0.0)])
    with pytest.raises(ValueError):
        distance_error(log, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        distance_error(log, np.zeros((4, 3)))


def _point_polyline_dist(px, py, poly):
    """Distance from one point to the nearest segment of a polyline, one point at a time."""
    if len(poly) == 1:
        return float(math.hypot(px - poly[0, 0], py - poly[0, 1]))
    a = poly[:-1]
    d = poly[1:] - a
    seg2 = (d**2).sum(axis=1)
    seg2 = np.where(seg2 == 0.0, 1.0, seg2)
    t = ((px - a[:, 0]) * d[:, 0] + (py - a[:, 1]) * d[:, 1]) / seg2
    t = np.clip(t, 0.0, 1.0)
    cx = a[:, 0] + t * d[:, 0]
    cy = a[:, 1] + t * d[:, 1]
    return float(np.min(np.hypot(px - cx, py - cy)))


_coords = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def polylines(draw):
    """1 to 200 points; some repeat their predecessor, making zero-length segments."""
    n = draw(st.integers(1, 200))
    poly = draw(arrays(np.float64, (n, 2), elements=_coords))
    repeat = draw(arrays(np.bool_, n))
    for i in range(1, n):
        if repeat[i]:
            poly[i] = poly[i - 1]
    return poly


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(polylines(), arrays(np.float64, st.tuples(st.integers(0, 300), st.just(2)), elements=_coords))
@example(np.linspace([0.0, 0.0], [3.0, 1.0], 200), np.linspace([-1.0, 2.0], [4.0, -1.0], 300))  # > 2**14 pairs
@example(np.zeros((1, 2)), np.ones((5, 2)))
def test_distance_error_matches_the_per_point_formula(poly, poses):
    es = distance_error(_log_with_poses(poses), poly)
    assert es.err.tolist() == [_point_polyline_dist(x, y, poly) for x, y in poses]


def _log_with_trace(rows):
    return netloop.RunLog([], np.array(rows, float), "reached", rows[-1][0])


def test_curvature_straight_and_arc():
    straight = _log_with_trace([(0.1 * i, 0, 0, 0, 0.2, 0.0) for i in range(10)])
    ks = curvature(straight)
    assert np.all(ks.kappa == 0.0)
    assert ks.total_variation() == 0.0

    arc = _log_with_trace([(0.1 * i, 0, 0, 0, 0.2, 0.1) for i in range(10)])
    ka = curvature(arc)
    assert np.allclose(ka.kappa, 0.5)
    assert ka.total_variation() == pytest.approx(0.0, abs=1e-15)


def test_curvature_undefined_below_speed_floor():
    log = _log_with_trace([(0.0, 0, 0, 0, 0.005, 0.1), (0.1, 0, 0, 0, 0.2, 0.1)])
    ks = curvature(log)
    assert math.isnan(ks.kappa[0])
    assert ks.kappa[1] == pytest.approx(0.5)


def _reference_total_variation(k) -> float:
    """Sum of |delta kappa| over consecutive finite samples, one pair at a time."""
    finite = np.isfinite(k)
    tv = 0.0
    prev = None
    for i in range(len(k)):
        if not finite[i]:
            prev = None
            continue
        if prev is not None:
            tv += abs(k[i] - prev)
        prev = k[i]
    return tv


def test_total_variation_resets_across_gaps():
    k = np.array([0.0, 1.0, np.nan, 5.0, 6.0])
    cs = CurvatureSeries(np.arange(5.0), k)
    # |1-0| + |6-5|; the nan breaks the chain so 5-1 never counts
    assert cs.total_variation() == pytest.approx(2.0)


@pytest.mark.parametrize("k, expected", [
    ([np.nan, 1.0, 3.0, 2.0], 3.0),
    ([1.0, 3.0, 2.0, np.nan], 3.0),
    ([np.nan, np.nan, np.nan], 0.0),
    ([], 0.0),
    ([0.5], 0.0),
], ids=["nan-first", "nan-last", "all-nan", "empty", "one"])
def test_total_variation_edge_cases(k, expected):
    k = np.array(k, float)
    tv = CurvatureSeries(np.arange(float(len(k))), k).total_variation()
    assert tv == expected == _reference_total_variation(k)
    assert type(tv) is float


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
    st.floats(-50, 50), st.just(math.nan))))
def test_total_variation_matches_the_pairwise_loop(k):
    tv = CurvatureSeries(np.arange(float(len(k))), k).total_variation()
    assert tv == pytest.approx(_reference_total_variation(k), rel=1e-12, abs=1e-12)


def test_sweep_single_cell_matches_direct_run(open_scenario, open_state):
    res = sweep(open_scenario, delays=[0.0], seeds=[0])
    assert len(res.rows) == 1
    row = res.rows[0]
    assert (row.planner, row.delay, row.seed) == ("hpf", 0.0, 0)
    assert row.outcome == "reached"

    log = netloop.run_loop(open_scenario, open_state)
    ideal = ideal_path(open_scenario, open_state)
    es = distance_error(log, ideal)
    assert row.total_time == log.total_time
    assert row.mean_err == pytest.approx(es.mean, rel=1e-12)
    assert row.max_err == pytest.approx(es.max, rel=1e-12)
    assert res.median_max_err("hpf", 0.0) == pytest.approx(row.max_err)


def test_sweep_median_is_middle_value():
    from hpfnav.analysis import SweepResult, SweepRow

    rows = [SweepRow("hpf", 0.0, s, "reached", 1.0, 0.0, v) for s, v in enumerate([3.0, 1.0, 2.0])]
    res = SweepResult(rows)
    assert res.median_max_err("hpf", 0.0) == 2.0
    rows.append(SweepRow("hpf", 0.0, 3, "reached", 1.0, 0.0, 4.0))
    assert res.median_max_err("hpf", 0.0) == 2.5
    assert math.isnan(res.median_max_err("fm", 0.0))


@pytest.mark.parametrize("values", [[0.5, math.nan, 0.2, 0.1, 0.3], [0.1, 0.2, math.nan, 0.5, 0.3]])
def test_sweep_median_leaves_out_runs_without_an_error(values):
    """A NaN max_err (a run with no record) is skipped, whatever the order of the rows."""
    from hpfnav.analysis import SweepResult, SweepRow

    res = SweepResult([SweepRow("hpf", 0.0, s, "reached", 1.0, 0.0, v) for s, v in enumerate(values)])
    assert res.median_max_err("hpf", 0.0) == 0.25
    only_nan = SweepResult([SweepRow("hpf", 0.0, 0, "unreachable", 0.0, math.nan, math.nan)])
    assert math.isnan(only_nan.median_max_err("hpf", 0.0))


def test_sweep_csv(tmp_path, open_scenario):
    res = sweep(open_scenario, delays=[0.0], seeds=[0])
    out = tmp_path / "sweep.csv"
    res.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "planner,delay,seed,outcome,total_time,mean_err,max_err"
    assert len(lines) == 2
    assert lines[1].startswith("hpf,0.0,0,reached,")
