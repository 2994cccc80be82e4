"""Differential-drive plant and the overhead camera observing it.

The plant integrates a constant (v, omega) command exactly along a circular
arc, so splitting an interval into sub-steps changes nothing but the number
of samples taken along the way.
"""

from __future__ import annotations

import math

from .controller import Command
from .hpf import OBSTACLE, BoundaryGrid
from .workspace import WorldPose, pixel_to_world, world_to_pixel

_OMEGA_STRAIGHT = 1e-12  # below this |omega| the arc degenerates to a line


def step(pose: WorldPose, cmd: Command, dt: float) -> WorldPose:
    """Advance the pose by dt seconds under a constant command (exact arc)."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    v, omega = cmd.v, cmd.omega
    th = pose.theta
    if abs(omega) < _OMEGA_STRAIGHT:
        return WorldPose(
            pose.x + v * dt * math.cos(th),
            pose.y + v * dt * math.sin(th),
            th + omega * dt,
        )
    th1 = th + omega * dt
    radius = v / omega
    return WorldPose(
        pose.x + radius * (math.sin(th1) - math.sin(th)),
        pose.y - radius * (math.cos(th1) - math.cos(th)),
        th1,
    )


def observe(pose: WorldPose, gd: float, width: int, height: int) -> WorldPose:
    """Camera report of a pose.

    Position snaps to the center of the pixel that contains it, matching
    what a segmentation of the image can deliver; heading is reported
    exactly.  Poses outside the workspace cannot be observed and raise.
    """
    cell = world_to_pixel((pose.x, pose.y), gd, width, height)
    cx, cy = pixel_to_world(cell, gd, width, height)
    return WorldPose(cx, cy, pose.theta)


def collides(pose: WorldPose, boundary: BoundaryGrid, gd: float) -> bool:
    """True when the pose's cell is an obstacle cell."""
    cx, cy = world_to_pixel((pose.x, pose.y), gd, boundary.width, boundary.height)
    return bool(boundary.labels[cy, cx] == OBSTACLE)
