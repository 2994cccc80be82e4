import math

import numpy as np
import pytest

from hpfnav.controller import Command
from hpfnav.plant import arc, collides, contact, observe, step
from hpfnav.workspace import WorldPose


def test_step_straight():
    p = step(WorldPose(0.0, 0.0, 0.0), Command(0.2, 0.0), 1.0)
    assert (p.x, p.y) == pytest.approx((0.2, 0.0))
    assert p.theta == 0.0


def test_step_pure_spin():
    p = step(WorldPose(0.3, 0.4, 0.0), Command(0.0, math.pi), 1.0)
    assert (p.x, p.y) == pytest.approx((0.3, 0.4), abs=1e-15)
    assert p.theta == pytest.approx(math.pi)


def test_step_full_circle():
    pose = WorldPose(1.0, 1.0, 0.7)
    p = step(pose, Command(0.25, 2 * math.pi), 1.0)
    assert (p.x, p.y) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert p.theta == pytest.approx(0.7)


def test_step_y_down_turn_direction():
    # positive omega turns from +x toward +y, which is downward on the image
    p = step(WorldPose(0.0, 0.0, 0.0), Command(0.1, 1.0), 0.5)
    assert p.y > 0


def test_step_substep_invariance():
    cmd = Command(0.1, 0.5)
    coarse = step(WorldPose(0.0, 0.0, 0.2), cmd, 1.0)
    fine = WorldPose(0.0, 0.0, 0.2)
    for _ in range(100):
        fine = step(fine, cmd, 0.01)
    assert (fine.x, fine.y, fine.theta) == pytest.approx(
        (coarse.x, coarse.y, coarse.theta), abs=1e-12
    )


def test_step_matches_euler_in_the_limit():
    cmd = Command(0.15, -0.8)
    exact = step(WorldPose(0.0, 0.0, 0.1), cmd, 1.0)
    x, y, th = 0.0, 0.0, 0.1
    dt = 1e-4
    for _ in range(10000):
        x += cmd.v * math.cos(th) * dt
        y += cmd.v * math.sin(th) * dt
        th += cmd.omega * dt
    assert (exact.x, exact.y) == pytest.approx((x, y), abs=1e-3)


@pytest.mark.parametrize(
    "pose, v, omega, dt",
    [
        ((0.0, 0.0, 0.0), 0.2, 0.0, 1.0),
        ((1.0, 2.0, 0.3), 0.2, 5e-13, 0.01),       # below the straight-line cutoff
        ((1.0, 1.0, 0.7), 0.25, 2 * math.pi, 1.0),
        ((0.5, 0.4, 3.1), 0.3, 1.7, 0.05),          # heading wraps past pi
        ((0.5, 0.4, -3.1), 0.3, -1.7, 0.05),        # and past -pi
        ((2.0, 1.0, 1e-17), -0.1, -0.4, 0.0037),
    ],
)
def test_arc_is_the_kernel_of_step(pose, v, omega, dt):
    start = WorldPose(*pose)
    p = step(start, Command(v, omega), dt)
    assert arc(start.x, start.y, start.theta, v, omega, dt) == (p.x, p.y, p.theta)


def test_observe_snaps_to_cell_center():
    obs = observe(WorldPose(0.013, 0.013, 0.5), 0.0125, 320, 240)
    assert (obs.x, obs.y) == pytest.approx((0.01875, 0.01875))
    assert obs.theta == 0.5  # heading is not quantized


def test_observe_quantization_error_bound():
    rng = np.random.default_rng(0)
    gd = 0.0125
    for _ in range(500):
        pose = WorldPose(rng.uniform(0, 4), rng.uniform(0, 3), rng.uniform(-3, 3))
        obs = observe(pose, gd, 320, 240)
        err = math.hypot(obs.x - pose.x, obs.y - pose.y)
        assert err <= gd * math.sqrt(2) / 2 + 1e-12


def test_observe_out_of_frame():
    with pytest.raises(ValueError):
        observe(WorldPose(4.2, 1.0, 0.0), 0.0125, 320, 240)


def test_collides():
    """The scene rule: an obstacle pixel or outside the workspace, and nothing else."""
    obstacle = np.zeros((24, 32), bool)
    obstacle[10, 16] = True
    gd = 0.1
    assert collides(WorldPose(16.5 * gd, 10.5 * gd, 0.0), obstacle, gd)       # obstacle pixel
    assert not collides(WorldPose(15.5 * gd, 9.5 * gd, 0.0), obstacle, gd)    # its neighbour
    assert not collides(WorldPose(0.05, 0.05, 0.0), obstacle, gd)             # frame ring
    assert not collides(WorldPose(3.19, 2.39, 0.0), obstacle, gd)             # far corner pixel
    for x, y in ((-0.01, 1.0), (3.21, 1.0), (1.0, -1e-9), (1.0, 2.41)):
        assert collides(WorldPose(x, y, 0.0), obstacle, gd)                   # outside


def _edge_coordinates(cells: int, gd: float) -> np.ndarray:
    """Cell edges and centres from two cells before the workspace to two past it, each edge with its
    neighbouring floats, and the signed zeros."""
    edges = np.arange(-2, cells + 3) * gd
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), edges + gd / 2,
                           [0.0, -0.0, -1e-300, cells * gd, np.nextafter(cells * gd, np.inf)]])


def _reference_rule(obstacle: np.ndarray, gd: float, x: float, y: float) -> bool:
    """The collision rule written out for one point: its cell by floor division, then outside or on an obstacle."""
    height, width = obstacle.shape
    cx, cy = math.floor(x / gd), math.floor(y / gd)
    return not (0 <= cx < width and 0 <= cy < height) or bool(obstacle[cy, cx])


def test_the_collision_rule_matches_a_plain_reference():
    """contact (on arrays) and collides (on one pose) against the rule written out, on cell edges, the
    workspace border, negative coordinates, signed zeros and points just past the far edges."""
    rng = np.random.default_rng(3)
    for gd in (0.1, 1 / 24, 0.0125):
        obstacle = rng.random((24, 32)) < 0.3
        x, y = (a.ravel() for a in np.meshgrid(_edge_coordinates(32, gd), _edge_coordinates(24, gd)))
        points = list(zip(x.tolist(), y.tolist()))
        expect = [_reference_rule(obstacle, gd, px, py) for px, py in points]
        got = contact(obstacle, gd, x, y)
        assert got.tolist() == expect
        assert [collides(WorldPose(px, py, 0.0), obstacle, gd) for px, py in points] == expect
        assert got.any() and not got.all()
        outside = (x < 0) | (x >= 32 * gd) | (y < 0) | (y >= 24 * gd)
        assert got[outside].all()
