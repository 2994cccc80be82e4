"""Differential-drive plant, the overhead camera observing it, and the collision rule.

The plant integrates a constant (v, omega) command exactly along a circular
arc, so how an interval is split changes nothing but the rounding.  `hold`
is the one integrator: it takes one exact arc (`arc`) for each
constant-command piece of a held command, the watchdog expiry splitting it,
and steps in DT_MICRO only while the goal is within reach.  It records each
piece in a flat buffer, and `sample` expands the buffer into the trace: one
row per DT_MICRO step of every piece.  `step` is `arc` on a pose.

A vehicle collides when it leaves the workspace or lies on a scene obstacle
pixel, one that differs from the scenario's background; the planner's
obstacle pad and the other agents' discs are not part of the scene.
`contact` is that rule, on arrays of positions: on every trace row and on the
pose of every controller record.  `collides` is `contact` on one pose.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import Command
from .workspace import WorldPose, pixel_to_world, world_to_pixel

DT_MICRO = 0.01          # trace sampling and near-goal integration step, s
_OMEGA_STRAIGHT = 1e-12  # below this |omega| the arc degenerates to a line
_ROUNDING = 1e-15        # bound on one step's rounding error, per meter of the figures it mixes
_MERGE = 1e-9            # s: a sample this close to a piece's end is not taken apart from it


def hold(x, y, theta, v, omega, t, t_target, expiry, pieces, goal):
    """Hold the command (v, omega) from time t < t_target to t_target.

    The watchdog zeroes the command at `expiry`, which splits the hold there;
    an expiry less than 1e-12 s after a piece's end, or before t_target,
    zeroes it at that end.  Each piece moves the pose along one exact `arc`
    and appends its start row and end row (t, x, y, theta, v, omega) to
    `pieces`, 12 floats, which `sample` expands.  While the goal = (x, y,
    radius) lies within the command's reach, rounding included, the pieces
    are single DT_MICRO steps and the hold stops at the first one that ends
    within the radius.

    Returns (x, y, theta, t, v, omega, expiry, reached): the state the hold
    ends in and whether the goal was reached.
    """
    tx, ty, goal_radius = goal
    turn = abs(v / omega) if abs(omega) >= _OMEGA_STRAIGHT else 0.0
    slack = ((t_target - t) / DT_MICRO + 2.0) * _ROUNDING * (1.0 + turn + abs(x) + abs(y) + abs(tx) + abs(ty))
    near = math.hypot(x - tx, y - ty) - abs(v) * (t_target - t) - slack <= goal_radius
    extend = pieces.extend
    while t < t_target:
        t_next = expiry if t < expiry < t_target - 1e-12 else t_target
        if near and t + DT_MICRO < t_next - _MERGE:
            t_next = t + DT_MICRO
        x1, y1, theta1 = arc(x, y, theta, v, omega, t_next - t)
        v1, omega1 = v, omega
        if t_next >= expiry - 1e-12:
            v1 = omega1 = 0.0
            expiry = math.inf
        extend((t, x, y, theta, v, omega, t_next, x1, y1, theta1, v1, omega1))
        x, y, theta, t, v, omega = x1, y1, theta1, t_next, v1, omega1
        if near and math.hypot(x - tx, y - ty) <= goal_radius:
            return x, y, theta, t, v, omega, expiry, True
    return x, y, theta, t, v, omega, expiry, False


def arc(x: float, y: float, theta: float, v: float, omega: float, dt: float):
    """Pose (x, y, theta) after dt seconds of a constant (v, omega): the exact arc.

    A line below _OMEGA_STRAIGHT; the heading comes back wrapped to (-pi, pi].
    A dt within 1e-12 s of zero leaves the pose as it is.
    """
    if dt <= 1e-12:
        return x, y, theta
    theta1 = theta + omega * dt
    if abs(omega) < _OMEGA_STRAIGHT:
        x += v * dt * math.cos(theta)
        y += v * dt * math.sin(theta)
    else:
        turn = v / omega
        x += turn * (math.sin(theta1) - math.sin(theta))
        y -= turn * (math.cos(theta1) - math.cos(theta))
    theta = (theta1 + math.pi) % math.tau - math.pi
    return x, y, (math.pi if theta == -math.pi else theta)


def sample(start, pieces) -> np.ndarray:
    """The trace of a hold's `pieces` after the start row: an (N, 6) array of (t, x, y, theta, v, omega).

    A piece from t0 to t1 gives a row at t0 + k * DT_MICRO for each k >= 1
    that falls more than _MERGE before t1, on the exact arc from its start
    row (numpy's trig; a heading already in (-pi, pi] is not wrapped again,
    so it is within an ulp of `arc`'s), then its end row as `hold` computed
    it, bit for bit.
    """
    p = np.asarray(pieces, float).reshape(-1, 12)
    t0, x0, y0, theta0, v, omega = p[:, :6].T
    n = np.maximum(1, np.ceil((p[:, 6] - t0 - _MERGE) / DT_MICRO)).astype(np.intp)   # rows per piece
    last = np.cumsum(n)                               # each piece's end row, the start row being row 0
    h = (np.arange(1, n.sum() + 1) - np.repeat(last - n, n)) * DT_MICRO   # k * DT_MICRO
    straight = np.abs(omega) < _OMEGA_STRAIGHT
    turn = np.where(straight, 0.0, v / np.where(straight, 1.0, omega))   # 0 on a line
    line = np.where(straight, v, 0.0)                                    # 0 on an arc
    t0, x0, y0, theta0, v, omega, turn, line, sin0, cos0 = (
        np.repeat(a, n) for a in (t0, x0, y0, theta0, v, omega, turn, line, np.sin(theta0), np.cos(theta0)))
    theta1 = theta0 + omega * h
    rows = np.empty((len(h) + 1, 6))
    rows[0] = start
    rows[1:, 0] = t0 + h
    rows[1:, 1] = x0 + turn * (np.sin(theta1) - sin0) + line * h * cos0
    rows[1:, 2] = y0 - turn * (np.cos(theta1) - cos0) + line * h * sin0
    out = (theta1 <= -math.pi) | (theta1 > math.pi)   # wrapped as `arc` wraps; the rest are in range
    wrapped = (theta1[out] + math.pi) % math.tau - math.pi
    theta1[out] = np.where(wrapped == -math.pi, math.pi, wrapped)
    rows[1:, 3] = theta1
    rows[1:, 4] = v
    rows[1:, 5] = omega
    rows[last] = p[:, 6:]
    return rows


def step(pose: WorldPose, cmd: Command, dt: float) -> WorldPose:
    """Advance the pose by dt seconds under a constant command (exact arc)."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return WorldPose(*arc(pose.x, pose.y, pose.theta, cmd.v, cmd.omega, dt))


def observe(pose, gd: float, width: int, height: int) -> WorldPose:
    """Camera report of a pose: of any object with float `x`, `y` and `theta`, such as a vehicle.

    Position snaps to the center of the pixel that contains it, matching
    what a segmentation of the image can deliver; heading is reported
    exactly.  Poses outside the workspace cannot be observed and raise.
    """
    cell = world_to_pixel((pose.x, pose.y), gd, width, height)
    cx, cy = pixel_to_world(cell, gd, width, height)
    return WorldPose(cx, cy, pose.theta)


def contact(obstacle: np.ndarray, gd: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The collision rule on arrays of positions: True where one leaves the workspace or lies on an obstacle pixel."""
    height, width = obstacle.shape
    cx, cy = np.floor(x / gd), np.floor(y / gd)
    inside = (0 <= cx) & (cx < width) & (0 <= cy) & (cy < height)
    hit = ~inside
    hit[inside] = obstacle[cy[inside].astype(np.intp), cx[inside].astype(np.intp)]
    return hit


def collides(pose: WorldPose, obstacle: np.ndarray, gd: float) -> bool:
    """True when the pose leaves the workspace or lies on an obstacle pixel of the mask: `contact` on one point."""
    return bool(contact(obstacle, gd, np.array([pose.x]), np.array([pose.y]))[0])
