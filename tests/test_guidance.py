import dataclasses
import math

import numpy as np
import pytest

from hpfnav.controller import BodyError, body_errors, curve_coeff
from hpfnav.guidance import (
    DELTA_L_MAX,
    ReferencePoint,
    guidance_step,
    lookahead,
    ref_point,
)
from hpfnav.hpf import FREE, OBSTACLE, GradientField
from hpfnav.netloop import prepare
from hpfnav.workspace import ControlConfig, LookaheadConfig, WorldPose


def uniform_grad(w=40, h=21, target=(38, 10)):
    """Synthetic field pointing along +x everywhere."""
    labels = np.full((h, w), FREE, np.int8)
    return GradientField(
        vx=np.ones((h, w)),
        vy=np.zeros((h, w)),
        flat=np.zeros((h, w), bool),
        labels=labels,
        target=target,
    )


def flat_grad(w=21, h=21):
    labels = np.full((h, w), FREE, np.int8)
    return GradientField(
        vx=np.zeros((h, w)),
        vy=np.zeros((h, w)),
        flat=np.ones((h, w), bool),
        labels=labels,
        target=(20, 10),
    )


def test_lookahead_table():
    p = ControlConfig()  # d_max=0.1, beta=1
    assert lookahead(0.0, p, 0.0125) == 8
    assert lookahead(7.0, p, 0.0125) == 1   # d_0 = 0.0125, one cell
    assert lookahead(1e12, p, 0.0125) == 1  # never drops to 0


def test_lookahead_clamps_high():
    p = ControlConfig(d_max=1.0)
    assert lookahead(0.0, p, 0.0125) == DELTA_L_MAX
    # d_max / gd overflows to inf: still the cap, not an OverflowError
    assert lookahead(0.0, ControlConfig(d_max=1e308), 0.0625) == DELTA_L_MAX


def test_safe_curve_coeff_caps_singularity():
    # the fit that sizes the dynamic lookahead caps instead of raising
    assert curve_coeff(BodyError(1e-9, 0.5, 0.0)) == 1e3
    assert curve_coeff(BodyError(1e-9, -0.5, 0.0)) == -1e3
    assert curve_coeff(BodyError(0.5, 0.25, 0.0)) == pytest.approx(1.0)
    # a probe abeam of the vehicle (facing +y, field along +x) gives the
    # capped fit, so the step takes the shortest lookahead
    gd = 0.0125
    pose = WorldPose(10.5 * gd, 10.5 * gd, math.pi / 2)
    ref = guidance_step(uniform_grad(), pose, ControlConfig(), LookaheadConfig("dynamic"), gd)
    assert ref.delta_l == 1
    assert ref.point == pytest.approx((11.5 * gd, 10.5 * gd))
    assert not ref.flat


def test_ref_point_uniform_field():
    pt, hops = ref_point(uniform_grad(), (10.5, 10.5), 2)
    assert (int(pt[0]), int(pt[1])) == (12, 10)
    assert hops == 2


def test_ref_point_flat_field():
    pt, hops = ref_point(flat_grad(), (10.5, 10.5), 2)
    assert pt == (10.5, 10.5)
    assert hops == 0


def test_ref_point_stops_early_on_flat():
    grad = uniform_grad()
    grad.flat[10, 12] = True
    grad.vx[10, 12] = 0.0
    pt, hops = ref_point(grad, (10.5, 10.5), 6)
    assert hops == 2
    assert pt == (12.5, 10.5)


def test_guidance_step_straight_dynamic():
    gd = 0.0125
    grad = uniform_grad()
    pose = WorldPose(10.5 * gd, 10.5 * gd, 0.0)
    ref = guidance_step(grad, pose, ControlConfig(), LookaheadConfig("dynamic"), gd)
    assert ref.delta_l == 8
    assert ref.point == pytest.approx((18.5 * gd, 10.5 * gd))
    assert not ref.flat


def test_guidance_step_fixed_ignores_curvature():
    gd = 0.0125
    grad = uniform_grad()
    pose = WorldPose(10.5 * gd, 10.5 * gd, 0.0)
    for delta_l in (1, 3, 8):
        ref = guidance_step(grad, pose, ControlConfig(), LookaheadConfig("fixed", delta_l), gd)
        assert ref.delta_l == delta_l
        assert ref.point == pytest.approx(((10.5 + delta_l) * gd, 10.5 * gd))


def test_guidance_step_flat_region():
    gd = 0.0125
    pose = WorldPose(10.5 * gd, 10.5 * gd, 0.4)
    ref = guidance_step(flat_grad(), pose, ControlConfig(), LookaheadConfig(), gd)
    assert ref.flat
    assert ref.point == (pose.x, pose.y)
    assert ref.delta_l == 0


def test_guidance_step_rejects_obstacle_cell():
    gd = 0.0125
    grad = uniform_grad()
    grad.labels[10, 10] = OBSTACLE
    with pytest.raises(ValueError):
        guidance_step(grad, WorldPose(10.5 * gd, 10.5 * gd, 0.0), ControlConfig(),
                      LookaheadConfig(), gd)


def test_guidance_step_dynamic_shrinks_on_bend():
    """A sideways reference (bend ahead) must shorten the hop count."""
    gd = 0.0125
    h, w = 21, 40
    grad = uniform_grad(w, h)
    # field turns downward at the vehicle's own cell, so the probe hop
    # lands sideways and the fitted curve bends hard
    grad.vx[:, 11:] = 0.0
    grad.vy[:, 11:] = 1.0
    pose = WorldPose(11.2 * gd, 10.5 * gd, 0.0)
    ref = guidance_step(grad, pose, ControlConfig(), LookaheadConfig("dynamic"), gd)
    straight = guidance_step(uniform_grad(w, h), pose, ControlConfig(),
                             LookaheadConfig("dynamic"), gd)
    assert ref.delta_l < straight.delta_l


def test_reference_point_shape():
    r = ReferencePoint(1.0, 2.0, 4, flat=False)
    assert r.point == (1.0, 2.0)


def _two_walks(grad, pose, control, la, gd):
    """Reference for guidance_step: a one-hop probe from the cell centre, then delta_L hops anew from it."""
    cx, cy = math.floor(pose.x / gd), math.floor(pose.y / gd)

    def walk(n):
        px, py = cx + 0.5, cy + 0.5
        for hops in range(n):
            ix, iy = int(px), int(py)
            if grad.flat[iy, ix]:
                return (px, py), hops
            px += float(grad.vx[iy, ix])
            py += float(grad.vy[iy, ix])
        return (px, py), n

    probe, hops = walk(1)
    if hops == 0:
        return (pose.x, pose.y), 0, True
    if la.mode == "fixed":
        delta_l = max(1, min(DELTA_L_MAX, la.delta_l))
    else:
        a = curve_coeff(body_errors(pose, (probe[0] * gd, probe[1] * gd)))
        delta_l = max(1, min(DELTA_L_MAX, int(control.d_max / (1.0 + control.beta * abs(a)) / gd)))
    point, hops = walk(delta_l)
    return (point[0] * gd, point[1] * gd), max(hops, 1), False


@pytest.mark.parametrize("la", [LookaheadConfig("dynamic"), LookaheadConfig("fixed", 8)],
                         ids=["dynamic", "fixed"])
def test_guidance_step_matches_two_walks_on_every_free_cell(comparison_scenario, la):
    """Continuing from the probe gives exactly the reference of walking again from the cell centre."""
    sc = dataclasses.replace(comparison_scenario, planner="hpf")
    grad, gd = prepare(sc).grad, sc.gd
    ys, xs = np.nonzero(grad.labels == FREE)
    assert len(xs) > 1000
    for cx, cy in zip(xs.tolist(), ys.tolist()):
        theta = ((7 * cx + 3 * cy) % 12) * (math.pi / 6) - math.pi   # a spread of headings
        pose = WorldPose((cx + 0.5) * gd, (cy + 0.5) * gd, theta)
        ref = guidance_step(grad, pose, sc.control, la, gd)
        assert (ref.point, ref.delta_l, ref.flat) == _two_walks(grad, pose, sc.control, la, gd)
