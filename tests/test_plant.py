import math

import numpy as np
import pytest

from hpfnav.controller import Command
from hpfnav.plant import arc, collides, observe, scene_room, scene_rule, step
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


def test_scene_room_is_a_safe_bound_on_the_collision_rule():
    """No position closer to (x, y) than room(x, y) hits, on random masks with the workspace edge."""
    rng = np.random.default_rng(3)
    for gd in (0.1, 1 / 24, 0.0125):
        obstacle = rng.random((24, 32)) < 0.04
        hits, room = scene_rule(obstacle, gd), scene_room(obstacle, gd)
        starts = rng.uniform(-2 * gd, np.array([32, 24]) * gd + 2 * gd, size=(400, 2))
        for x, y in starts:
            r = room(x, y)
            if hits(x, y):
                assert r <= 0.0
            if r <= 0.0:
                continue
            angles = rng.uniform(0, 2 * math.pi, 16)
            lengths = r * np.sqrt(rng.uniform(0, 1, 16))
            lengths[0] = np.nextafter(r, 0.0)   # right at the bound
            for a, d in zip(angles, lengths):
                assert not hits(x + d * math.cos(a), y + d * math.sin(a))
        assert max(room(x, y) for x, y in starts) > 0.0
