"""Quadratic-curve path tracking control law.

Given a reference point expressed in the vehicle body frame, fit the
parabola y = A x^2 through it and command the speed pair whose initial
curvature matches the fit: v = K_n, omega = 2 A K_n.  The forward gain
K_n carries the sign of the longitudinal error, so a reference behind the
vehicle is approached in reverse rather than by turning in place first.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .workspace import ControlConfig, WorldPose, wrap_angle

EX_EPS = 1e-6  # below this |e_x| the parabola fit degenerates
A_CAP = 1e3    # fit coefficient substituted when it degenerates


def sign(x: float) -> float:
    """Sign with the convention sign(0) = +1."""
    return -1.0 if x < 0 else 1.0


class BodyError(NamedTuple):
    """Reference point location in the body frame (meters, radians)."""

    e_x: float
    e_y: float
    e_theta: float


class Command(NamedTuple):
    v: float
    omega: float


def body_errors(pose: WorldPose, ref) -> BodyError:
    """Rotate the world-frame offset to the reference into the body frame."""
    rx, ry = ref
    dx = rx - pose.x
    dy = ry - pose.y
    c = math.cos(pose.theta)
    s = math.sin(pose.theta)
    e_x = c * dx + s * dy
    e_y = -s * dx + c * dy
    e_theta = wrap_angle(math.atan2(dy, dx) - pose.theta)
    return BodyError(e_x, e_y, e_theta)


def curve_coeff(e: BodyError) -> float:
    """Coefficient of the parabola y = A x^2 through the reference point.

    A reference (nearly) abeam of the vehicle, |e_x| < EX_EPS, admits no
    parabola; the fit is capped at A_CAP, turning towards the reference.
    """
    if abs(e.e_x) < EX_EPS:
        return sign(e.e_y) * A_CAP
    return sign(e.e_x) * e.e_y / e.e_x**2


def command(a_coeff: float, e: BodyError, params: ControlConfig) -> Command:
    """Speed pair for the fitted curve, saturated without bending it.

    A steep fit (large |A|) throttles the forward gain, which is what slows
    the vehicle in tight turns.  Saturation scales v and omega by a common
    factor so the commanded curvature omega / v is preserved.
    """
    k_n = sign(e.e_x) * params.alpha / (1.0 + abs(a_coeff))
    v = k_n
    omega = 2.0 * a_coeff * k_n
    scale = 1.0
    if abs(v) > params.v_limit:
        scale = min(scale, params.v_limit / abs(v))
    if abs(omega) > params.omega_limit:
        scale = min(scale, params.omega_limit / abs(omega))
    return Command(v * scale, omega * scale)

