"""End-to-end checks of the whole stack, one test per release criterion.

Each test records a pass/fail line for the summary that conftest prints
after the run.  Numbers and tolerances here are frozen; loosening them to
make a red test green defeats their purpose.
"""

import collections
import dataclasses
import math
import time

import numpy as np
import pytest

from test_hpf import dense_solve, free_cells_connected_to_target, random_boundary

from hpfnav import analysis, netloop, vision
from hpfnav import hpf as hpf_mod
from hpfnav.fm import cost_ratio
from hpfnav.hpf import FREE, OBSTACLE, TARGET, BoundaryGrid
from hpfnav.workspace import LookaheadConfig, load_scenario


# --- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="session")
def comp_hpf_state(comparison_scenario):
    return netloop.prepare(comparison_scenario)


@pytest.fixture(scope="session")
def comp_fm_state(comparison_scenario):
    return netloop.prepare(dataclasses.replace(comparison_scenario, planner="fm"))


@pytest.fixture(scope="session")
def comp_ideal(comparison_scenario, comp_hpf_state):
    return analysis.ideal_path(comparison_scenario, comp_hpf_state)


SWEEP_DELAYS = [0.0, 0.1, 0.3, 0.6, 0.9, 1.2]


@pytest.fixture(scope="session")
def comp_sweep(comparison_scenario):
    t0 = time.monotonic()
    result = analysis.sweep(comparison_scenario, SWEEP_DELAYS, range(10), planners=("hpf", "fm"))
    return result, time.monotonic() - t0


# --- criteria -------------------------------------------------------------------


def test_criterion_01_solver_matches_dense_oracle(acceptance):
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        bg = random_boundary(rng)
        pot = hpf_mod.relax(bg)
        ref = dense_solve(bg.labels)
        free = bg.labels == FREE
        if free.any():
            worst = max(worst, float(np.abs(pot.phi - ref)[free].max()))
    elapsed = time.monotonic() - t0
    acceptance(1, "relaxation matches dense Laplace solve on 100 grids", worst <= 1e-8 and elapsed < 10.0)
    assert worst <= 1e-8
    assert elapsed < 10.0


def _scatter_rect(rng, labels, n_discs, clearance=3):
    """Random discs kept clear of the frame and each other so no channel
    narrows enough for the potential to saturate below the flatness cutoff."""
    yy, xx = np.mgrid[0 : labels.shape[0], 0 : labels.shape[1]]
    placed = []
    for _ in range(n_discs):
        for _ in range(50):
            cx = int(rng.integers(9, 55))
            cy = int(rng.integers(9, 39))
            r = int(rng.integers(2, 6))
            if all(np.hypot(cx - px, cy - py) >= r + pr + clearance for px, py, pr in placed):
                placed.append((cx, cy, r))
                labels[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = OBSTACLE
                break
    return labels


def test_criterion_02_descent_reaches_every_connected_cell(acceptance):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    failures = 0
    checked = 0
    for _ in range(50):
        labels = np.zeros((48, 64), np.int8)
        labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
        _scatter_rect(rng, labels, int(rng.integers(2, 6)))
        frees = np.argwhere(labels == FREE)
        ty, tx = frees[int(rng.integers(len(frees)))]
        labels[ty, tx] = TARGET
        bg = BoundaryGrid(labels=labels, target=(int(tx), int(ty)))
        grad = hpf_mod.gradient(hpf_mod.relax(bg), bg)
        for cell in free_cells_connected_to_target(labels, bg.target):
            checked += 1
            points, reason = hpf_mod.descend(grad, cell)
            if reason != "reached":
                failures += 1
                continue
            if any(labels[int(py), int(px)] == OBSTACLE for px, py in points):
                failures += 1
    elapsed = time.monotonic() - t0
    acceptance(2, "descent reaches target from every connected free cell", failures == 0 and elapsed < 60.0)
    assert checked > 50_000
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_03_unreachable_vehicle_stays_put(acceptance, scenario_dir):
    sc = load_scenario(scenario_dir / "barrier.json")
    log = netloop.run_loop(sc)
    end = log.trace[-1]
    moved = math.hypot(end[1] - sc.start.x, end[2] - sc.start.y)
    ok = log.outcome == "unreachable" and moved < 2 * sc.gd
    acceptance(3, "walled-off target: run ends unreachable, no motion", ok)
    assert log.outcome == "unreachable"
    assert moved < 2 * sc.gd


def test_criterion_04_template_vs_edge_cost(acceptance):
    c_tm, c_ed, ratio = cost_ratio(320, 240, 20, 7)
    ok = c_tm == 26_400_000 and c_ed == 3_573_521 and 7.3 <= ratio <= 7.4
    acceptance(4, "template/edge detection cost ratio exact", ok)
    assert c_tm == 26_400_000
    assert c_ed == 3_573_521
    assert 7.3 <= ratio <= 7.4


def test_criterion_05_path_length_multiple(acceptance, comparison_scenario, comp_hpf_state, comp_fm_state):
    n_p = len(comp_fm_state.path)
    log = netloop.run_loop(comparison_scenario, comp_hpf_state)
    assert log.outcome == "reached"
    hops = log.records[:, netloop.RECORD_COLUMNS.index("delta_l")].tolist()
    multiples = [n_p / d for d in hops if d > 0]
    ok = len(multiples) == len(log.records) and min(multiples) >= 1.0
    acceptance(5, "stored path is >= delta_L at every control step", ok)
    assert len(multiples) == len(log.records)  # no degenerate zero-hop samples
    assert min(multiples) >= 1.0


def test_criterion_06_error_grows_with_delay(acceptance, comp_sweep):
    result, elapsed = comp_sweep
    medians = [result.median_max_err("hpf", d) for d in SWEEP_DELAYS]
    monotone = all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))
    acceptance(6, "median max error non-decreasing across delays", monotone and elapsed < 300.0)
    assert all(math.isfinite(v) for v in medians)
    assert monotone, medians
    assert elapsed < 300.0


def test_criterion_07_field_guidance_beats_path_tracking(
    acceptance, comparison_scenario, comp_sweep, comp_hpf_state, comp_fm_state
):
    result, _ = comp_sweep
    delayed = [d for d in SWEEP_DELAYS if d >= 0.3]
    head_to_head = {
        d: (result.median_max_err("hpf", d), result.median_max_err("fm", d)) for d in delayed
    }

    log_h = netloop.run_loop(comparison_scenario, comp_hpf_state)
    log_f = netloop.run_loop(
        dataclasses.replace(comparison_scenario, planner="fm"), comp_fm_state
    )
    tv_h = analysis.curvature(log_h).total_variation()
    tv_f = analysis.curvature(log_f).total_variation()

    ok = all(h <= f for h, f in head_to_head.values()) and tv_h < tv_f
    acceptance(7, "field guidance: lower delayed error, smoother steering", ok)
    for d, (h, f) in head_to_head.items():
        assert h <= f, (d, h, f)
    assert tv_h < tv_f


def test_criterion_08_lookahead_tradeoff(acceptance, comparison_scenario, comp_hpf_state, comp_ideal):
    stats = {}
    for key, cfg in (
        (1, LookaheadConfig("fixed", 1)),
        (8, LookaheadConfig("fixed", 8)),
        ("dyn", LookaheadConfig("dynamic")),
    ):
        sc = dataclasses.replace(comparison_scenario, lookahead=cfg)
        log = netloop.run_loop(sc, comp_hpf_state)
        assert log.outcome == "reached"
        es = analysis.distance_error(log, comp_ideal)
        stats[key] = (log.total_time, es.mean)
    t1, e1 = stats[1]
    t8, e8 = stats[8]
    td, ed = stats["dyn"]
    ok = t8 < t1 and e8 > e1 and td <= t1 and ed <= e8
    acceptance(8, "long hops faster but sloppier; dynamic takes both", ok)
    assert t8 < t1
    assert e8 > e1
    assert td <= t1
    assert ed <= e8


def test_criterion_09_reversal_backs_up_first(acceptance, scenario_dir):
    sc = load_scenario(scenario_dir / "reversal.json")
    log = netloop.run_loop(sc)
    vs = log.records[:, netloop.RECORD_COLUMNS.index("v_cmd")].tolist()
    first_fwd = next((i for i, v in enumerate(vs) if v > 0), len(vs))
    ok = (
        log.outcome == "reached"
        and first_fwd >= 1
        and all(v < 0 for v in vs[:first_fwd])
    )
    acceptance(9, "opposite-facing start backs up before driving forward", ok)
    assert log.outcome == "reached"
    assert first_fwd >= 1
    assert all(v < 0 for v in vs[:first_fwd])


def test_criterion_10_tolerates_edge_deletion(acceptance, scenario_dir):
    sc = load_scenario(scenario_dir / "robust.json")
    scene = netloop.build_scene(sc)
    cells = scene.edges
    ys, xs = np.nonzero(cells)
    gd = sc.gd
    disc_c = ((32 + 0.5) * gd, (24 + 0.5) * gd)
    disc_r = 6 * gd

    good = 0
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        drop = rng.choice(len(xs), size=int(round(0.2 * len(xs))), replace=False)
        degraded = cells.copy()
        degraded[ys[drop], xs[drop]] = False
        boundary = hpf_mod.build_boundary(degraded, sc.target)
        pot = hpf_mod.relax(boundary)
        grad = hpf_mod.gradient(pot, boundary)
        state = netloop.PlannerState("hpf", scene, boundary, grad=grad)
        log = netloop.run_loop(sc, state=state)
        tr = log.trace
        d_min = float(np.min(np.hypot(tr[:, 1] - disc_c[0], tr[:, 2] - disc_c[1])))
        if log.outcome == "reached" and d_min > disc_r:
            good += 1
    acceptance(10, "navigates with 20% of contour pixels deleted", good >= 18)
    assert good >= 18, good


def test_criterion_11_five_agent_star(acceptance, scenario_dir):
    sc = load_scenario(scenario_dir / "multi_star.json")
    results = {}
    for mode in ("all", "nearest"):
        log = netloop.run_multi(dataclasses.replace(sc, awareness=mode))
        results[mode] = ([a.outcome for a in log.agent_logs], log.min_dm())
    floor = 2 * sc.agent_radius
    ok = all(
        outs == ["reached"] * len(sc.agents) and dm > floor for outs, dm in results.values()
    )
    acceptance(11, "five-agent star: all arrive, spacing above contact", ok)
    for mode, (outs, dm) in results.items():
        assert outs == ["reached"] * len(sc.agents), (mode, outs)
        assert dm > floor, (mode, dm)


def test_criterion_12_bit_identical_replay(acceptance, comparison_scenario, comp_hpf_state, tmp_path):
    sc = dataclasses.replace(comparison_scenario, seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    netloop.run_loop(sc, comp_hpf_state).to_csv(a)
    netloop.run_loop(sc, comp_hpf_state).to_csv(b)
    same = a.read_bytes() == b.read_bytes()
    acceptance(12, "same scenario and seed replay bit-identically", same)
    assert same


def _contour_is_closed(cells, inside_cell):
    """Flood fill from the border through non-edge cells; a closed contour
    keeps the fill away from the given interior cell."""
    n, m = cells.shape
    openc = ~cells
    seen = np.zeros_like(openc)
    queue = collections.deque()
    for x in range(m):
        for y in (0, n - 1):
            if openc[y, x] and not seen[y, x]:
                seen[y, x] = True
                queue.append((x, y))
    for y in range(n):
        for x in (0, m - 1):
            if openc[y, x] and not seen[y, x]:
                seen[y, x] = True
                queue.append((x, y))
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < m and 0 <= ny < n and openc[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                queue.append((nx, ny))
    ix, iy = inside_cell
    return not seen[iy, ix]


def test_criterion_13_vision_pipeline(acceptance, scenario_dir):
    flat = np.full((40, 40), 128.0)
    empty = vision.detect_edges(flat)
    none_found = not empty.any()

    sc = load_scenario(scenario_dir / "robust.json")
    edges = vision.detect_edges(sc.build_image(), sc.vision)
    closed = _contour_is_closed(edges, (32, 24))

    log_sum = abs(float(vision.make_log(2.0).weights.sum()))
    ok = none_found and closed and log_sum <= 1e-12
    acceptance(13, "flat image empty, disc contour closed, kernel zero-sum", ok)
    assert none_found
    assert closed
    assert log_sum <= 1e-12
