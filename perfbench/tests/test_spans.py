"""Tests for the benchmark's own helpers: span arithmetic, percentiles, hook lifetime.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.begin("outer")            # t = 0
    clock.now = 1.0
    tr.begin("child")            # child 1: 1 .. 3
    clock.now = 2.0
    tr.begin("grandchild")       # inside child 1: 2 .. 2.5
    clock.now = 2.5
    tr.end()
    clock.now = 3.0
    tr.end()
    clock.now = 4.0
    tr.begin("child")            # child 2: 4 .. 4.5
    clock.now = 4.5
    tr.end()
    clock.now = 10.0
    tr.end()                     # outer: 0 .. 10

    outer, child, grand = tr.stats["outer"], tr.stats["child"], tr.stats["grandchild"]
    assert outer.busy_s == 10.0
    assert outer.self_s == 10.0 - 2.0 - 0.5      # both children, not the grandchild again
    assert child.calls == 2
    assert child.busy_s == 2.5
    assert child.self_s == 2.5 - 0.5             # the grandchild sits inside child 1
    assert grand.self_s == grand.busy_s == 0.5
    assert list(child.durations) == [2.0, 0.5]


def test_percentile_is_nearest_rank():
    samples = list(range(1, 11))   # n = 10
    assert spans.percentile(samples, 50) == 5
    assert spans.percentile(samples, 90) == 9
    assert spans.percentile(samples, 100) == 10
    assert spans.percentile(list(reversed(samples)), 90) == 9   # order does not matter
    assert spans.percentile([7.0], 90) == 7.0                    # n = 1: the only sample
    assert spans.percentile(range(1, 101), 90) == 90             # n = 100
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_layer_metrics_read_aggregates():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    for d in (1.0, 3.0, 2.0):
        tr.begin("hpf.relax")
        clock.now += d
        st = tr.end()
    st.add("sweeps", 30)
    st.add("unconverged", 1)
    assert spans.layer_metric(tr.stats, "hpf.relax.calls") == 3
    assert spans.layer_metric(tr.stats, "hpf.relax.busy_s") == 6.0
    assert spans.layer_metric(tr.stats, "hpf.relax.p50_ms") == 2000.0
    assert spans.layer_metric(tr.stats, "hpf.relax.sweeps") == 30
    assert spans.layer_metric(tr.stats, "hpf.relax.converged_ratio") == pytest.approx(2 / 3)
    assert spans.layer_metric(tr.stats, "fm.fm_arrival.busy_s") == 0   # never called


def test_hooks_are_installed_only_inside_the_traced_body():
    from hpfnav import hpf, netloop, plant

    originals = {(h.owner, h.attr): vars(h.owner)[h.attr] for h in spans.layer_hooks()}
    tr = spans.Tracer()
    with spans.installed(tr, spans.layer_hooks()):
        for (owner, attr), fn in originals.items():
            assert getattr(owner, attr) is not fn
            assert getattr(owner, attr).__wrapped__ is fn
        line = netloop.DelayLine(0.1)
        line.push(netloop.Packet("pose", 0, 0.0, (0.0, 0.0, 0.0)))
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn
    assert tr.stats["netloop.DelayLine.push"].extra == {"delivered": 1}

    # an untraced call after the block records nothing
    calls = tr.stats["netloop.DelayLine.push"].calls
    netloop.DelayLine(0.1).push(netloop.Packet("pose", 1, 0.0, (0.0, 0.0, 0.0)))
    assert tr.stats["netloop.DelayLine.push"].calls == calls
    assert "plant.step" not in tr.stats and plant.step is originals[(plant, "step")]
    assert hpf.relax is originals[(hpf, "relax")]


def test_hooks_are_restored_when_the_body_raises():
    from hpfnav import hpf

    original = hpf.relax
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer(), spans.layer_hooks()):
            raise RuntimeError("body failed")
    assert hpf.relax is original


def test_sweep_capture_matches_a_fresh_run():
    from dataclasses import replace

    from hpfnav import analysis, netloop

    import workloads

    original = netloop.run_loop
    wl = workloads.SweepComparison()
    wl.load(1)
    with workloads.captured_runs(wl.summarise) as runs:
        result = analysis.sweep(wl.scenario, [0.3], wl.run_seeds[:2], ("fm",))
    assert netloop.run_loop is original
    assert len(runs) == len(result.rows) == 2
    assert runs.spent_s > 0
    # the i-th summary belongs to the i-th row: a fresh run of that row agrees
    for row, captured in zip(result.rows, runs):
        sc = replace(wl.scenario, planner=row.planner, seed=row.seed,
                     delay=replace(wl.scenario.delay, constant_s=row.delay))
        fresh = wl.summarise(netloop.run_loop(sc))
        assert captured == fresh
        assert (captured.outcome, captured.total_time) == (row.outcome, row.total_time)
    assert runs[0] != runs[1]


def test_scene_checks_use_pixel_geometry():
    import numpy as np

    import workloads

    wl = workloads.PlanFullres()
    wl.load(1)
    scene, sc = wl.scene, wl.scenarios["hpf"]
    ys, xs = np.nonzero(scene.obstacle)
    inside = np.array([[(xs[0] + 0.5) * sc.gd, (ys[0] + 0.5) * sc.gd]])
    assert scene.hit(inside)
    assert scene.hit(np.array([[-sc.gd, sc.gd]]))            # left the workspace
    free = np.array([[(sc.target[0] + 0.5) * sc.gd, (sc.target[1] + 0.5) * sc.gd]])
    assert not scene.hit(free)
    # the pruned search over the rim agrees with one full table of every
    # obstacle centre, for positions outside the obstacles
    xy = np.random.default_rng(0).uniform(0, sc.gd * min(sc.width, sc.height), (2000, 2))
    cells = np.floor(xy / sc.gd).astype(int)
    xy = xy[~scene.obstacle[cells[:, 1], cells[:, 0]]]
    centres = (np.column_stack([xs, ys]) + 0.5) * sc.gd
    table = np.sqrt(((xy[:, None, :] - centres[None, :, :]) ** 2).sum(-1)).min(axis=1)
    assert len(scene.rim) < len(centres)
    for block in (xy, xy[:40], xy[table.argsort()[-300:]]):
        full = np.sqrt(((block[:, None, :] - centres[None, :, :]) ** 2).sum(-1)).min()
        assert scene.clearance(block) == pytest.approx(full, rel=1e-12)
    assert scene.in_goal("reached", free[0], sc.target)
    far = free[0] + (sc.goal_radius * 1.5, 0.0)
    assert not scene.in_goal("reached", far, sc.target)
    assert scene.in_goal("timeout", far, sc.target)          # only "reached" is a claim
