"""The benchmark's three workloads: set-up, timed body, and output checks.

Every workload drives hpfnav's public API in one process, one call after the
other (a closed loop with one client).  Each has three steps:

- ``load`` is the set-up that ``setup_s`` times;
- ``body`` is the iteration that ``wall_s`` times, and the only code the
  traced run wraps;
- ``measure`` checks the outputs and derives the quality metrics.

Only ``sweep-comparison`` draws anything from the workload seed: its 16 run
seeds.  The channels of the other two scenarios have no jitter and no drops,
so their runs are the same for every seed.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hpfnav import analysis, hpf, netloop, workspace

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"

SWEEP_DELAYS = (0.0, 0.3, 0.6, 0.9)   # s, the paper's delay experiment
SWEEP_RUN_SEEDS = 16
SWEEP_PLANNERS = ("hpf", "fm")
FULLRES_DELAY = 0.6                    # s
GOAL_SLACK = 1e-9                      # m, float slack on the goal-radius test
CLEARANCE_CHUNK = 1 << 15              # position-obstacle pairs per distance block
SQRT2 = math.sqrt(2.0)


@dataclass
class Result:
    """What one iteration measured, in the units the metrics report."""

    wall_s: float
    sim_s: float
    max_err_m_p50: float
    min_dm_m: float
    pad_contacts: int       # runs hpfnav flagged any_collision: they entered the planner's pad
    plan_hpf_s: float | None = None   # prepare times, on plan-fullres only
    plan_fm_s: float | None = None
    outcomes: dict = field(default_factory=dict)     # name -> [failed, attempted]
    checks: dict = field(default_factory=dict)       # name -> [failed, made]

    def outcome(self, name: str, ok: bool) -> None:
        """Count one run, agent or plan, and whether it did its job."""
        _tally(self.outcomes, name, ok)

    def check(self, name: str, ok: bool) -> None:
        """Count one test of whether the outputs are correct."""
        _tally(self.checks, name, ok)


def _tally(table: dict, name: str, ok: bool) -> None:
    tally = table.setdefault(name, [0, 0])
    tally[0] += not ok
    tally[1] += 1


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def sweep_run_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(SWEEP_RUN_SEEDS)]


def trace_xy(log: netloop.RunLog) -> np.ndarray:
    """Vehicle positions (m) at every micro-step of a run."""
    return np.asarray(log.trace, dtype=float)[:, 1:3]


class Scene:
    """The obstacles of a scenario as the camera sees them, for physical checks.

    An obstacle is a pixel that differs from the background.  The planner's
    own obstacle cells are the detected edges grown by a one-cell pad, and
    hpfnav flags ``any_collision`` when the vehicle enters the pad; a path
    tracker under delay does so without ever touching an obstacle.  The
    checks therefore test the scene itself, with plain pixel geometry rather
    than hpfnav's own conversions.
    """

    def __init__(self, scenario):
        self.gd = scenario.gd
        self.goal_radius = scenario.goal_radius
        self.obstacle = scenario.build_image().pixels != scenario.background
        # the rim: obstacle pixels with a free 4-neighbour.  From any position
        # outside the obstacles the nearest obstacle centre is a rim centre,
        # since an inner pixel always has a neighbour closer to the position.
        pad = np.pad(self.obstacle, 1)
        inner = pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
        ys, xs = np.nonzero(self.obstacle & ~inner)
        self.rim = (np.column_stack([xs, ys]) + 0.5) * self.gd

    def hit(self, xy: np.ndarray) -> bool:
        """True when a position leaves the workspace or lies in an obstacle pixel."""
        cells = np.floor(xy / self.gd).astype(int)
        h, w = self.obstacle.shape
        inside = ((cells >= 0) & (cells < (w, h))).all(axis=1)
        return not inside.all() or bool(self.obstacle[cells[:, 1], cells[:, 0]].any())

    def clearance(self, xy: np.ndarray) -> float:
        """Smallest distance (m) from a position outside the obstacles to an obstacle centre.

        Exact distances are taken only for the positions in the grid cells
        that can hold the minimum: those whose square comes within one cell
        diagonal of the closest square's distance to the rim.
        """
        if not len(self.rim):
            return math.inf
        cells = np.floor(xy / self.gd).astype(np.int64)
        _, first, where = np.unique((cells[:, 0] << 32) + cells[:, 1], return_index=True,
                                    return_inverse=True)
        lo = cells[first] * self.gd
        near = self._nearest(lo, lambda a: np.clip(self.rim, a[:, None, :],
                                                   a[:, None, :] + self.gd))
        reach = near.min() + SQRT2 * self.gd
        candidates = xy[near[where.ravel()] <= reach]
        return float(self._nearest(candidates, lambda a: a[:, None, :]).min())

    def _nearest(self, points: np.ndarray, anchor) -> np.ndarray:
        """Per point, the smallest distance between a rim centre and ``anchor(points)``.

        ``anchor`` maps a block of points to the spot each rim centre is
        measured from; the blocks keep the temporary arrays small.
        """
        out = np.empty(len(points))
        step = max(1, CLEARANCE_CHUNK // len(self.rim))
        for i in range(0, len(points), step):
            d = anchor(points[i:i + step]) - self.rim[None, :, :]
            out[i:i + step] = np.sqrt(np.einsum("ijk,ijk->ij", d, d).min(axis=1))
        return out

    def in_goal(self, outcome: str, final_xy, target_cell) -> bool:
        """A run that says "reached" really ends inside the goal radius of its target pixel."""
        tx, ty = (np.asarray(target_cell, dtype=float) + 0.5) * self.gd
        dist = math.hypot(final_xy[0] - tx, final_xy[1] - ty)
        return outcome != "reached" or dist <= self.goal_radius + GOAL_SLACK


@dataclass(frozen=True)
class RunSummary:
    """What the checks need from one run, reduced to scalars as the run ends."""

    outcome: str
    total_time: float
    any_collision: bool
    in_goal: bool           # a "reached" run ends inside its goal radius
    hit: bool               # it left the workspace or entered an obstacle pixel
    clearance_m: float

    @classmethod
    def of(cls, log: netloop.RunLog, target_cell, scene: Scene) -> "RunSummary":
        xy = trace_xy(log)
        return cls(log.outcome, log.total_time, log.any_collision,
                   scene.in_goal(log.outcome, xy[-1], target_cell), scene.hit(xy),
                   scene.clearance(xy))

    @property
    def ok(self) -> bool:
        return self.outcome == "reached" and not self.hit


class CapturedRuns(list):
    """RunSummary of every run, and the seconds spent summarising them."""

    spent_s = 0.0


@contextmanager
def captured_runs(summarise):
    """Summarise every run ``analysis.sweep`` makes through ``netloop.run_loop``.

    The sweep reports outcomes and errors but not trajectories.  The capture
    wraps whatever ``netloop.run_loop`` is at the time and reduces each log
    with ``summarise`` as soon as the run ends, so no trajectory outlives its
    run.  In a traced iteration its cost stays outside the run_loop span;
    that cost is timed so the caller can take it out of the body's wall time.
    """
    original = netloop.run_loop
    runs = CapturedRuns()

    def run_loop(*args, **kwargs):
        log = original(*args, **kwargs)
        t = time.perf_counter()
        runs.append(summarise(log))
        runs.spent_s += time.perf_counter() - t
        return log

    netloop.run_loop = run_loop
    try:
        yield runs
    finally:
        netloop.run_loop = original


class SweepComparison:
    """analysis.sweep over comparison 96x72: 2 planners x 4 delays x 16 run seeds."""

    name = "sweep-comparison"

    def load(self, seed: int) -> None:
        self.scenario = workspace.load_scenario(SCENARIOS / "comparison.json")
        self.scene = Scene(self.scenario)
        self.run_seeds = sweep_run_seeds(seed)

    def summarise(self, log: netloop.RunLog) -> RunSummary:
        return RunSummary.of(log, self.scenario.target, self.scene)

    def body(self):
        with captured_runs(self.summarise) as runs:
            result = analysis.sweep(self.scenario, SWEEP_DELAYS, self.run_seeds, SWEEP_PLANNERS)
        return result, runs

    def measure(self, out, wall_s: float) -> Result:
        result, runs = out
        rows = result.rows
        res = Result(
            wall_s=wall_s - runs.spent_s,
            sim_s=sum(r.total_time for r in rows),
            max_err_m_p50=statistics.median(r.max_err for r in rows),
            min_dm_m=statistics.median(run.clearance_m for run in runs),
            pad_contacts=sum(run.any_collision for run in runs),
        )
        expected = len(SWEEP_PLANNERS) * len(SWEEP_DELAYS) * SWEEP_RUN_SEEDS
        res.check("sweep.row_count", len(rows) == len(runs) == expected)
        for row, run in zip(rows, runs):
            right = run.in_goal and math.isfinite(row.max_err)
            res.check("sweep.run_output", right)
            res.outcome("sweep.run_reached_no_collision", right and run.ok)
        return res


class MultiStar:
    """netloop.run_multi over multi_star 80x60: five agents swap sides, all aware of all."""

    name = "multi-star"

    def load(self, seed: int) -> None:
        sc = workspace.load_scenario(SCENARIOS / "multi_star.json")
        self.scenario = replace(sc, seed=seed, awareness="all")
        self.scene = Scene(sc)
        # each agent alone on the static map, for its ideal path
        self.solo = [replace(sc, start=a.start, target=a.target, agents=[])
                     for a in sc.agents]

    def body(self):
        return netloop.run_multi(self.scenario)

    def measure(self, log, wall_s: float) -> Result:
        sc = self.scenario
        errors = [analysis.distance_error(agent, analysis.ideal_path(solo)).max
                  for agent, solo in zip(log.agent_logs, self.solo)]
        res = Result(wall_s=wall_s, sim_s=log.total_time, max_err_m_p50=statistics.median(errors),
                     min_dm_m=log.min_dm(),
                     pad_contacts=sum(agent.any_collision for agent in log.agent_logs))
        for agent, spec in zip(log.agent_logs, sc.agents):
            run = RunSummary.of(agent, spec.target, self.scene)
            res.check("multi.agent_output", run.in_goal)
            res.outcome("multi.agent_reached_no_collision", run.in_goal and run.ok)
        res.outcome("multi.spacing_above_contact", log.min_dm() > 2 * sc.agent_radius)
        return res


class PlanFullres:
    """Per planner, netloop.prepare on fullres 320x240 and one run_loop at 0.6 s delay."""

    name = "plan-fullres"

    def load(self, seed: int) -> None:
        sc = workspace.load_scenario(SCENARIOS / "fullres.json")
        delay = replace(sc.delay, constant_s=FULLRES_DELAY)
        self.scenarios = {p: replace(sc, planner=p, delay=delay, seed=seed) for p in ("hpf", "fm")}
        self.scene = Scene(sc)

    def body(self):
        out = {}
        for planner, sc in self.scenarios.items():
            state, plan_s = timed(netloop.prepare, sc)
            out[planner] = (state, plan_s, netloop.run_loop(sc, state))
        return out

    def measure(self, out, wall_s: float) -> Result:
        hpf_state, fm_state = out["hpf"][0], out["fm"][0]
        sc = self.scenarios["hpf"]
        start = workspace.world_to_pixel((sc.start.x, sc.start.y), sc.gd, sc.width, sc.height)
        descent_ok = hpf.descend(hpf_state.grad, start)[1] == "reached"
        path_ok = fm_state.path is not None
        errors, runs = [], []
        for planner, (state, _, log) in out.items():
            sc = self.scenarios[planner]
            runs.append(RunSummary.of(log, sc.target, self.scene))
            if descent_ok and path_ok:
                errors.append(analysis.distance_error(log, analysis.ideal_path(sc, state)).max)
        res = Result(wall_s=wall_s, sim_s=sum(run.total_time for run in runs),
                     plan_hpf_s=out["hpf"][1], plan_fm_s=out["fm"][1],
                     max_err_m_p50=statistics.median(errors) if errors else math.nan,
                     min_dm_m=statistics.median(run.clearance_m for run in runs),
                     pad_contacts=sum(run.any_collision for run in runs))
        res.outcome("fullres.hpf_descent_reached", descent_ok)
        res.outcome("fullres.fm_path_exists", path_ok)
        for run in runs:
            res.check("fullres.run_output", run.in_goal)
            res.outcome("fullres.run_reached_no_collision", run.in_goal and run.ok)
        return res


WORKLOADS = {w.name: w for w in (SweepComparison, MultiStar, PlanFullres)}
