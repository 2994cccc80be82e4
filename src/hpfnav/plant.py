"""Differential-drive plant, the overhead camera observing it, and the collision rule.

The plant integrates a constant (v, omega) command exactly along a circular
arc, so splitting an interval into sub-steps changes nothing but the number
of samples taken along the way.

A vehicle collides when it leaves the workspace or lies on a scene obstacle
pixel (`scene_obstacles`); the planner's obstacle pad and the other agents'
discs are not part of the scene.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import Command
from .workspace import GridImage, WorldPose, pixel_to_world, world_to_pixel, wrap_angle

_OMEGA_STRAIGHT = 1e-12  # below this |omega| the arc degenerates to a line


def arc(x: float, y: float, theta: float, v: float, omega: float, dt: float):
    """Pose (x, y, theta) after dt seconds of a constant (v, omega): the exact arc.

    The float kernel of `step`; the heading comes back wrapped to (-pi, pi].
    """
    if abs(omega) < _OMEGA_STRAIGHT:
        return (x + v * dt * math.cos(theta), y + v * dt * math.sin(theta),
                wrap_angle(theta + omega * dt))
    th1 = theta + omega * dt
    radius = v / omega
    return (x + radius * (math.sin(th1) - math.sin(theta)),
            y - radius * (math.cos(th1) - math.cos(theta)),
            wrap_angle(th1))


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
    return WorldPose(cx, cy, pose.theta)


def scene_obstacles(image: GridImage, background: int) -> np.ndarray:
    """Obstacle mask (height x width) of the collision rule: pixels that differ from the background."""
    return image.pixels != background


def collides(pose: WorldPose, obstacle: np.ndarray, gd: float) -> bool:
    """True when the pose leaves the workspace or lies on an obstacle pixel of the mask."""
    height, width = obstacle.shape
    cx, cy = math.floor(pose.x / gd), math.floor(pose.y / gd)
    return not (0 <= cx < width and 0 <= cy < height) or bool(obstacle[cy, cx])
