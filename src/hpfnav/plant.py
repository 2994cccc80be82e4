"""Differential-drive plant, the overhead camera observing it, and the collision rule.

The plant integrates a constant (v, omega) command exactly along a circular
arc, so splitting an interval into sub-steps changes nothing but the number
of samples taken along the way.  `hold` is the one integrator: it runs a
held command through the watchdog in DT_MICRO micro-steps, and `arc` and
`step` are its single-step case.

A vehicle collides when it leaves the workspace or lies on a scene obstacle
pixel, one that differs from the scenario's background; the planner's
obstacle pad and the other agents' discs are not part of the scene.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import Command
from .workspace import WorldPose, make_pose, pixel_to_world, world_to_pixel

DT_MICRO = 0.01          # plant integration micro-step, s
_OMEGA_STRAIGHT = 1e-12  # below this |omega| the arc degenerates to a line
_ROUNDING = 1e-15        # bound on one micro-step's rounding error, per meter of the figures it mixes
_ROOM_CELLS = 6          # Chebyshev distances to the nearest hit cell are counted up to this
_NO_GOAL = (0.0, 0.0, -math.inf)


def hold(x, y, theta, v, omega, t, t_target, expiry, trace, scene=None, goal=_NO_GOAL, dt=DT_MICRO):
    """Hold the command (v, omega) from time t to t_target, in micro-steps of at most dt > 0.

    The watchdog zeroes the command at `expiry`: a micro-step that the expiry
    falls inside is split there.  Each micro-step moves the pose along the
    exact arc (a line below _OMEGA_STRAIGHT), wraps the heading to (-pi, pi]
    and appends (t, x, y, theta, v, omega) to `trace`.  With scene = (hits,
    room) from `scene_rule` and `scene_room`, each new position is tested
    with the collision rule hits(x, y).  The hold stops early at the first
    pose within goal = (x, y, radius) of the goal.

    Two tests are skipped for the whole hold when the command cannot carry
    the pose far enough before t_target, rounding of the arc figures
    included: the collision test when room(x, y) exceeds that reach, and
    the goal test when the goal lies farther.  Neither skip changes a result.

    Returns (x, y, theta, t, v, omega, expiry, hit, contact, reached): the
    state the hold ends in, the last pose's hits (None when the hold took
    no step; False when no pose needed the test), whether any pose hit,
    and whether the goal was reached.
    """
    sin, cos, pi, tau, inf = math.sin, math.cos, math.pi, math.tau, math.inf
    minus_pi = -pi   # outside (-pi, pi]: wraps to pi
    append = trace.append
    tx, ty, goal_radius = goal
    straight = abs(omega) < _OMEGA_STRAIGHT
    turn = 0.0 if straight else v / omega
    steps = (t_target - t) / dt + 2.0
    slack = steps * _ROUNDING * (1.0 + abs(turn) + abs(x) + abs(y) + abs(tx) + abs(ty))
    reach = abs(v) * (t_target - t) + slack
    near = math.hypot(x - tx, y - ty) - reach <= goal_radius
    check = False
    if scene is not None:
        hits, room = scene
        check = reach >= room(x, y)
    # a micro-step ends at t_target, or at the watchdog expiry that falls inside it
    t_stop = expiry if t < expiry < t_target else t_target
    zero_at = expiry - 1e-12
    hit = None if check else False
    contact = reached = False
    t_end = t_target - 1e-12
    while t < t_end:
        t_next = t + dt
        if t_next > t_stop:
            t_next = t_stop
        h = t_next - t
        th1 = theta + omega * h
        if straight:
            x += v * h * cos(theta)
            y += v * h * sin(theta)
        else:
            x += turn * (sin(th1) - sin(theta))
            y -= turn * (cos(th1) - cos(theta))
        theta = (th1 + pi) % tau - pi
        if theta == minus_pi:
            theta = pi
        t = t_next
        if t >= zero_at:
            v = omega = 0.0
            expiry = zero_at = inf
            t_stop = t_target
            straight = True
        append((t, x, y, theta, v, omega))
        if check:
            hit = hits(x, y)
            if hit:
                contact = True
        if near and math.hypot(x - tx, y - ty) <= goal_radius:
            reached = True
            break
    return x, y, theta, t, v, omega, expiry, hit, contact, reached


def arc(x: float, y: float, theta: float, v: float, omega: float, dt: float):
    """Pose (x, y, theta) after dt seconds of a constant (v, omega): the exact arc.

    One micro-step of `hold` as long as the interval; the heading comes back
    wrapped to (-pi, pi].  A dt within 1e-12 s of zero leaves the pose as it is.
    """
    return hold(x, y, theta, v, omega, 0.0, dt, math.inf, [], dt=max(dt, 1e-12))[:3]


def step(pose: WorldPose, cmd: Command, dt: float) -> WorldPose:
    """Advance the pose by dt seconds under a constant command (exact arc)."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    return WorldPose(*arc(pose.x, pose.y, pose.theta, cmd.v, cmd.omega, dt))


def observe(pose: WorldPose, gd: float, width: int, height: int) -> WorldPose:
    """Camera report of a pose.

    Position snaps to the center of the pixel that contains it, matching
    what a segmentation of the image can deliver; heading is reported
    exactly.  Poses outside the workspace cannot be observed and raise.
    """
    cell = world_to_pixel((pose.x, pose.y), gd, width, height)
    cx, cy = pixel_to_world(cell, gd, width, height)
    return make_pose(cx, cy, pose.theta)


def scene_rule(obstacle: np.ndarray, gd: float):
    """The collision rule on an obstacle mask, as a function hits(x, y) of a position in meters."""
    return _rule(memoryview(np.asarray(obstacle, bool).ravel()), *obstacle.shape, gd)   # in place, Python bools


def _rule(cells, height: int, width: int, gd: float):
    """hits(x, y): the position leaves the workspace or lies on an obstacle pixel of the row-major cells."""
    floor = math.floor

    def hits(x: float, y: float) -> bool:
        cx = floor(x / gd)
        cy = floor(y / gd)
        return not (0 <= cx < width and 0 <= cy < height) or cells[cy * width + cx]

    return hits


def scene_room(obstacle: np.ndarray, gd: float):
    """A lower bound room(x, y), in meters, on how far a position can move before `scene_rule` hits.

    k is the Chebyshev distance in cells (counted up to _ROOM_CELLS) from the
    position's cell to the nearest obstacle pixel or cell outside the
    workspace, so k - 1 whole cells lie between and a move shorter than
    (k - 1) * gd stays off every such cell.  That holds up to the rounding of
    x / gd when a position is assigned to its cell, a few 1e-16 of |x| and
    |y|, which the slack in `hold`'s reach covers.  A position outside the
    workspace has no room.
    """
    height, width = obstacle.shape
    k = np.where(np.pad(obstacle, 1, constant_values=True), 0, _ROOM_CELLS).astype(np.int16)
    for _ in range(_ROOM_CELLS - 1):
        # k = min(k, 1 + min over the 3x3 neighbourhood), rows then columns
        rows = k.copy()
        np.minimum(rows[1:], k[:-1], out=rows[1:])
        np.minimum(rows[:-1], k[1:], out=rows[:-1])
        box = rows.copy()
        np.minimum(box[:, 1:], rows[:, :-1], out=box[:, 1:])
        np.minimum(box[:, :-1], rows[:, 1:], out=box[:, :-1])
        np.minimum(k, box + 1, out=k)
    cells = k[1:-1, 1:-1].astype(np.uint8).tobytes()
    floor = math.floor

    def room(x: float, y: float) -> float:
        cx = floor(x / gd)
        cy = floor(y / gd)
        if 0 <= cx < width and 0 <= cy < height:
            return (cells[cy * width + cx] - 1) * gd
        return 0.0

    return room


def collides(pose: WorldPose, obstacle: np.ndarray, gd: float) -> bool:
    """True when the pose leaves the workspace or lies on an obstacle pixel of the mask."""
    return bool(_rule(obstacle.ravel(), *obstacle.shape, gd)(pose.x, pose.y))
