"""Run metrics: reference paths, tracking error, curvature, delay sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import hpf, netloop
from .workspace import DelayConfig, Scenario, world_to_pixel


def ideal_path(scenario: Scenario, state: netloop.PlannerState | None = None) -> np.ndarray:
    """Reference polyline the vehicle would follow with no network in the way.

    For the potential-field planner this is the one-hop gradient descent from
    the start cell; for the fast-marching baseline it is the planner's own
    descent path.  Unreachable targets raise, and so does a `state` prepared
    for another scenario (`netloop.check_state`).
    """
    if state is None:
        state = netloop.prepare(scenario)
    else:
        netloop.check_state(scenario, state)
    start = np.array([[scenario.start.x, scenario.start.y]])
    if state.kind == "fm":
        if state.path is None:
            raise ValueError("target unreachable from the start cell")
        return np.vstack([start, state.path])
    start_cell = world_to_pixel((scenario.start.x, scenario.start.y), scenario.gd,
                                scenario.width, scenario.height)
    points, reason = hpf.descend(state.grad, start_cell)
    if reason != "reached":
        raise ValueError("target unreachable from the start cell (descent ended %s)" % reason)
    return np.vstack([start, np.asarray(points) * scenario.gd])


PAIR_BLOCK = 1 << 14  # record-segment pairs per distance_error block


@dataclass
class ErrorSeries:
    """Distance from the driven trajectory to the reference, per sample."""

    t: np.ndarray
    err: np.ndarray
    total_time: float

    @property
    def mean(self) -> float:
        return float(self.err.mean()) if len(self.err) else math.nan

    @property
    def max(self) -> float:
        return float(self.err.max()) if len(self.err) else math.nan


def distance_error(log: netloop.RunLog, ideal: np.ndarray) -> ErrorSeries:
    """Per-record distance between the true pose and the reference polyline."""
    poly = np.asarray(ideal, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) == 0:
        raise ValueError("ideal path must be a non-empty (N, 2) array")
    ts = log.records[:, 0]
    pts = log.records[:, 1:3]
    if len(poly) == 1:
        x0, y0 = poly[0].tolist()
        errs = np.array([math.hypot(x - x0, y - y0) for x, y in pts.tolist()])
        return ErrorSeries(ts, errs, log.total_time)
    a = poly[:-1]
    d = poly[1:] - a
    seg2 = (d**2).sum(axis=1)
    seg2 = np.where(seg2 == 0.0, 1.0, seg2)
    errs = np.empty(len(pts))
    # records in blocks of at most PAIR_BLOCK record-segment pairs keep the
    # temporaries small however long the run or the reference is
    rows = max(1, PAIR_BLOCK // len(a))
    for i in range(0, len(pts), rows):
        px = pts[i:i + rows, 0:1]
        py = pts[i:i + rows, 1:2]
        t = np.clip(((px - a[:, 0]) * d[:, 0] + (py - a[:, 1]) * d[:, 1]) / seg2, 0.0, 1.0)
        cx = a[:, 0] + t * d[:, 0]
        cy = a[:, 1] + t * d[:, 1]
        errs[i:i + rows] = np.hypot(px - cx, py - cy).min(axis=1)
    return ErrorSeries(ts, errs, log.total_time)


@dataclass
class CurvatureSeries:
    """kappa = omega/v along the trace; nan where the vehicle is too slow."""

    t: np.ndarray
    kappa: np.ndarray

    def total_variation(self) -> float:
        """Sum of |delta kappa| over consecutive finite samples; a nan sample breaks the chain."""
        d = np.abs(np.diff(self.kappa))
        return float(d[np.isfinite(d)].sum())


SPEED_FLOOR = 0.01  # m/s; below this curvature is left undefined


def curvature(log: netloop.RunLog) -> CurvatureSeries:
    tr = log.trace
    if tr.size == 0:
        return CurvatureSeries(np.empty(0), np.empty(0))
    t = tr[:, 0]
    v = tr[:, 4]
    w = tr[:, 5]
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(np.abs(v) > SPEED_FLOOR, w / v, np.nan)
    return CurvatureSeries(t, kappa)


# --- parameter sweeps --------------------------------------------------------


@dataclass
class SweepRow:
    planner: str
    delay: float
    seed: int
    outcome: str
    total_time: float
    mean_err: float
    max_err: float


@dataclass
class SweepResult:
    rows: list

    def select(self, planner: str, delay: float):
        return [r for r in self.rows if r.planner == planner and r.delay == delay]

    def median_max_err(self, planner: str, delay: float) -> float:
        """Median max_err of the cell's runs that have one; nan when none does.

        A run with no record has no error (nan) and is left out, so the
        median does not depend on the order of the rows.
        """
        vals = sorted(r.max_err for r in self.select(planner, delay) if not math.isnan(r.max_err))
        if not vals:
            return math.nan
        mid = len(vals) // 2
        return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])

    def to_csv(self, path) -> None:
        lines = ["planner,delay,seed,outcome,total_time,mean_err,max_err"]
        for r in self.rows:
            lines.append(
                "%s,%s,%d,%s,%s,%s,%s"
                % (r.planner, repr(float(r.delay)), r.seed, r.outcome,
                   repr(float(r.total_time)), repr(float(r.mean_err)), repr(float(r.max_err)))
            )
        Path(path).write_text("\n".join(lines) + "\n")


def sweep(scenario: Scenario, delays, seeds, planners=("hpf",)) -> SweepResult:
    """Run a (planner x delay x seed) grid over one scenario.

    The static planning products are computed once per planner and shared by
    every run; they do not depend on the delay or seed.
    """
    rows = []
    for planner in planners:
        base = replace(scenario, planner=planner)
        state = netloop.prepare(base)
        ideal = ideal_path(base, state)
        for delay in delays:
            for seed in seeds:
                sc = replace(
                    base,
                    delay=replace(scenario.delay, constant_s=float(delay)),
                    seed=int(seed),
                )
                log = netloop.run_loop(sc, state)
                if len(log.records):
                    es = distance_error(log, ideal)
                    mean_err, max_err = es.mean, es.max
                else:
                    mean_err = max_err = math.nan
                rows.append(SweepRow(planner, float(delay), int(seed), log.outcome,
                                     log.total_time, mean_err, max_err))
    return SweepResult(rows)
