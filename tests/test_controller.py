import math

import numpy as np
import pytest

from hpfnav.controller import (
    BodyError,
    body_errors,
    command,
    curve_coeff,
    sign,
)
from hpfnav.workspace import ControlConfig, WorldPose


def test_sign_convention():
    assert sign(3.2) == 1.0
    assert sign(-0.0001) == -1.0
    assert sign(0.0) == 1.0  # zero counts as forward


def test_body_errors_basic():
    e = body_errors(WorldPose(1.0, 1.0, 0.0), (2.0, 1.0))
    assert (e.e_x, e.e_y) == pytest.approx((1.0, 0.0))

    e = body_errors(WorldPose(1.0, 1.0, math.pi / 2), (1.0, 2.0))
    assert (e.e_x, e.e_y) == pytest.approx((1.0, 0.0), abs=1e-12)

    e = body_errors(WorldPose(0.0, 0.0, 0.0), (-1.0, 0.0))
    assert e.e_x == pytest.approx(-1.0)


def test_body_errors_heading():
    e = body_errors(WorldPose(0.0, 0.0, 0.0), (1.0, 1.0))
    assert e.e_theta == pytest.approx(math.pi / 4)
    # wrapped into (-pi, pi]
    e = body_errors(WorldPose(0.0, 0.0, 3.0), (-1.0, -0.2))
    assert -math.pi < e.e_theta <= math.pi


def test_body_errors_rotation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y, theta = rng.uniform(-5, 5, 3)
        rx, ry = rng.uniform(-5, 5, 2)
        e = body_errors(WorldPose(x, y, theta), (rx, ry))
        # rotating the frame preserves the distance to the reference
        assert math.hypot(e.e_x, e.e_y) == pytest.approx(math.hypot(rx - x, ry - y))


def test_curve_coeff():
    assert curve_coeff(BodyError(0.5, 0.25, 0.0)) == pytest.approx(1.0)
    assert curve_coeff(BodyError(-0.5, 0.25, 0.0)) == pytest.approx(-1.0)
    assert curve_coeff(BodyError(0.7, 0.0, 0.0)) == 0.0
    # a reference abeam of the vehicle caps the fit, turning towards it
    assert curve_coeff(BodyError(1e-9, 0.5, 0.0)) == 1e3
    assert curve_coeff(BodyError(1e-9, -0.5, 0.0)) == -1e3


def test_command_law():
    p = ControlConfig()
    cmd = command(0.0, BodyError(1.0, 0.0, 0.0), p)
    assert (cmd.v, cmd.omega) == pytest.approx((0.2, 0.0))

    cmd = command(1.0, BodyError(1.0, 0.5, 0.0), p)
    assert (cmd.v, cmd.omega) == pytest.approx((0.1, 0.2))

    cmd = command(0.0, BodyError(-1.0, 0.0, 0.0), p)
    assert (cmd.v, cmd.omega) == pytest.approx((-0.2, 0.0))


def test_command_saturation_preserves_ratio():
    p = ControlConfig(alpha=1.0, v_limit=0.3, omega_limit=2.0)
    cmd = command(0.5, BodyError(1.0, 0.3, 0.0), p)
    # unsaturated would be v=2/3, omega=2/3: v hits the 0.3 limit first
    assert cmd.v == pytest.approx(0.3)
    assert cmd.omega / cmd.v == pytest.approx(2 * 0.5)

    p = ControlConfig(alpha=0.2, v_limit=0.3, omega_limit=0.05)
    cmd = command(2.0, BodyError(1.0, 2.0, 0.0), p)
    assert abs(cmd.omega) == pytest.approx(0.05)
    assert cmd.omega / cmd.v == pytest.approx(2 * 2.0)


def test_command_scales_with_curvature():
    p = ControlConfig()
    flat = command(0.0, BodyError(1.0, 0.0, 0.0), p)
    bent = command(4.0, BodyError(1.0, 0.5, 0.0), p)
    assert abs(bent.v) < abs(flat.v)  # sharper curve, slower approach

