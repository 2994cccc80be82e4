"""Reference point selection on the potential gradient field.

The guidance layer walks the normalized gradient from the vehicle's cell and
hands a look-ahead reference to the tracking controller.  The walk length
delta_L adapts to path bend: the first hop is a probe whose curve
coefficient A shrinks the admissible look-ahead distance to
d_0 = d_max / (1 + beta |A|), and the walk goes on from the probe until
delta_L = floor(d_0 / G_D) hops (clamped to [1, DELTA_L_MAX]) are taken.
"""

from __future__ import annotations

from typing import NamedTuple

from . import controller
from .hpf import OBSTACLE, GradientField
from .workspace import ControlConfig, LookaheadConfig, WorldPose, world_to_pixel

DELTA_L_MAX = 32


class ReferencePoint(NamedTuple):
    """Look-ahead target in world meters; flat means the field gives no direction."""

    x: float
    y: float
    delta_l: int
    flat: bool = False

    @property
    def point(self):
        return (self.x, self.y)


def ref_point(grad: GradientField, point, hops: int):
    """Walk up to `hops` unit hops of the gradient field from a continuous pixel point.

    Returns (point, hops taken); the walk stops short on a flat cell.
    """
    px, py = point
    for taken in range(hops):
        ix, iy = int(px), int(py)
        if grad.flat[iy, ix]:
            return (px, py), taken
        px += float(grad.vx[iy, ix])
        py += float(grad.vy[iy, ix])
    return (px, py), hops


def lookahead(a_coeff: float, params: ControlConfig, gd: float) -> int:
    """Curvature-adaptive hop count delta_L for the look-ahead distance d_0."""
    d_0 = params.d_max / (1.0 + params.beta * abs(a_coeff))
    return max(1, int(min(DELTA_L_MAX, d_0 / gd)))   # clamp first: d_0 / gd may overflow to inf


def guidance_step(
    grad: GradientField,
    pose: WorldPose,
    control: ControlConfig,
    la: LookaheadConfig,
    gd: float,
) -> ReferencePoint:
    """Pick the reference point for one control sample.

    The walk starts at the centre of the vehicle's cell.  Its first hop is a
    probe: in dynamic mode the bend it shows fixes delta_L, in fixed mode the
    configured value is used, and the walk continues from the probe for the
    remaining hops.  If the vehicle's cell is flat (no target reachable from
    here) the reference degenerates to the pose itself with the flat flag
    set, which callers turn into a zero command.
    """
    cx, cy = world_to_pixel((pose.x, pose.y), gd, grad.width, grad.height)
    if grad.labels[cy, cx] == OBSTACLE:
        raise ValueError("pose cell (%d, %d) is an obstacle cell" % (cx, cy))
    if grad.flat[cy, cx]:
        return ReferencePoint(pose.x, pose.y, 0, flat=True)

    probe, _ = ref_point(grad, (cx + 0.5, cy + 0.5), 1)
    if la.mode == "fixed":
        delta_l = max(1, min(DELTA_L_MAX, la.delta_l))
    else:
        e_probe = controller.body_errors(pose, (probe[0] * gd, probe[1] * gd))
        delta_l = lookahead(controller.curve_coeff(e_probe), control, gd)

    point, taken = ref_point(grad, probe, delta_l - 1)
    return ReferencePoint(point[0] * gd, point[1] * gd, 1 + taken)
