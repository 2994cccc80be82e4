"""Fast-marching baseline planner and the template-matching cost model.

This is the comparison pipeline: a first-order fast-marching solve of the
eikonal equation (unit speed in free space) gives an arrival-time field,
steepest descent on that field yields an explicit path, and tracking then
needs a linear scan of the whole path every control sample to find the
nearest point (the path's columns and hop lengths are computed once, in a
`Track`).  The potential-field pipeline replaces that scan with
delta_L additions, which is where its per-sample speedup comes from.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .hpf import OBSTACLE, BoundaryGrid
from .workspace import WorldPose

PATH_STEP = 0.5  # fm_path's step along the descent direction, pixels


def fm_arrival(boundary: BoundaryGrid) -> np.ndarray:
    """Arrival times from the target over the free region.

    First-order upwind update on a unit grid.  The 8 cells around the
    target are seeded with their exact Euclidean distances, which removes
    most of the rarefaction error the scheme otherwise commits right at
    the source.  Obstacle cells and unreachable free cells stay at +inf.

    The march runs on a flat copy of the grid padded by one cell on every
    side, with row length w = m + 2, so that every read and write is a
    plain Python float.  Padding cells are never open and hold +inf, which
    is the value an out-of-range neighbour takes, so no bounds test is
    needed.  Heap entries are (t, k) with k = (y + 1) * w + (x + 1); for a
    fixed w, k orders like (y, x), so equal times pop row-major.
    """
    labels = boundary.labels
    n, m = labels.shape
    w = m + 2
    grid = np.full((n + 2, w), np.inf)
    T = memoryview(grid.reshape(-1))
    mask = np.zeros((n + 2, w), np.uint8)
    mask[1:-1, 1:-1] = labels != OBSTACLE
    open_ = bytearray(mask.tobytes())  # 1 until the cell is finalised
    tx, ty = boundary.target
    k0 = (ty + 1) * w + (tx + 1)
    T[k0] = 0.0
    heap = [(0.0, k0)]
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            k = k0 + dy * w + dx
            if (dx or dy) and open_[k]:
                T[k] = math.hypot(dx, dy)
                heap.append((T[k], k))
    heapq.heapify(heap)
    pop, push, sqrt, inf = heapq.heappop, heapq.heappush, math.sqrt, math.inf
    while heap:
        t, k = pop(heap)
        if not open_[k] or t > T[k]:
            continue
        open_[k] = 0
        for kk in (k + w, k - w, k + 1, k - 1):
            if not open_[kk]:
                continue
            # min() of each axis pair, inlined: the call costs a fifth of the loop
            a, c = T[kk - 1], T[kk + 1]
            if c < a:
                a = c
            b, c = T[kk - w], T[kk + w]
            if c < b:
                b = c
            if a > b:
                a, b = b, a
            if b - a >= 1.0 or b == inf:
                t_new = a + 1.0
            else:
                t_new = 0.5 * (a + b + sqrt(2.0 - (a - b) ** 2))
            if t_new < T[kk]:
                T[kk] = t_new
                push(heap, (t_new, kk))
    return grid[1:-1, 1:-1].copy()


def _descent_dir(T: np.ndarray, ix: int, iy: int):
    """Unit downhill direction of T at a cell, one-sided where neighbors are inf."""
    n, m = T.shape
    c = T[iy, ix]
    if not math.isfinite(c):
        # the continuous step clipped an obstacle corner; head for the
        # cheapest finite neighbor instead of differentiating
        best = None
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                x2, y2 = ix + dx, iy + dy
                if (dx or dy) and 0 <= x2 < m and 0 <= y2 < n and math.isfinite(T[y2, x2]):
                    if best is None or T[y2, x2] < best[0]:
                        best = (T[y2, x2], dx, dy)
        if best is None:
            return 0.0, 0.0
        mag = math.hypot(best[1], best[2])
        return best[1] / mag, best[2] / mag

    def diff(lo, hi):
        lo_ok = math.isfinite(lo)
        hi_ok = math.isfinite(hi)
        if lo_ok and hi_ok:
            return 0.5 * (hi - lo)
        if hi_ok:
            return hi - c
        if lo_ok:
            return c - lo
        return 0.0

    gx = diff(T[iy, ix - 1] if ix > 0 else math.inf, T[iy, ix + 1] if ix < m - 1 else math.inf)
    gy = diff(T[iy - 1, ix] if iy > 0 else math.inf, T[iy + 1, ix] if iy < n - 1 else math.inf)
    mag = math.hypot(gx, gy)
    if mag == 0.0:
        return 0.0, 0.0
    return -gx / mag, -gy / mag


def fm_path(T: np.ndarray, start, gd: float) -> np.ndarray:
    """Steepest-descent polyline from a start cell to the target, in meters.

    Steps are `PATH_STEP` (half a cell) long, so consecutive points are never
    more than 1.5 * G_D apart.
    """
    sx, sy = start
    if not math.isfinite(T[sy, sx]):
        raise ValueError("start cell (%d, %d) is unreachable (infinite arrival time)" % (sx, sy))
    ty, tx = np.unravel_index(int(np.argmin(T)), T.shape)
    tcx, tcy = tx + 0.5, ty + 0.5
    px, py = sx + 0.5, sy + 0.5
    points = [(px, py)]
    n, m = T.shape
    max_steps = int(40 * (n + m) / PATH_STEP)
    for _ in range(max_steps):
        if math.hypot(px - tcx, py - tcy) <= 1.5:
            break
        ix = min(max(int(px), 0), m - 1)
        iy = min(max(int(py), 0), n - 1)
        dx, dy = _descent_dir(T, ix, iy)
        if dx == 0.0 and dy == 0.0:
            raise RuntimeError("descent stalled at (%g, %g)" % (px, py))
        px += PATH_STEP * dx
        py += PATH_STEP * dy
        points.append((px, py))
    else:
        raise RuntimeError("descent did not reach the target in %d steps" % max_steps)
    points.append((tcx, tcy))
    path = np.asarray(points) * gd
    path.setflags(write=False)
    return path


@dataclass(frozen=True, eq=False)
class Track:
    """An (N, 2) path in meters prepared for tracking, once: x and y columns, points, hop lengths.

    Built as Track(path).  The track is frozen, its columns are read-only
    arrays and the points and hops tuples, so a track shared by many runs
    cannot change under them.

    Hop j runs from point j to point j + 1.
    """

    path: InitVar[np.ndarray]
    xs: np.ndarray = field(init=False)
    ys: np.ndarray = field(init=False)
    points: tuple = field(init=False)
    hops: tuple = field(init=False)

    def __post_init__(self, path):
        path = np.asarray(path, dtype=float)
        if len(path) == 0:
            raise ValueError("empty reference path")
        xs = np.ascontiguousarray(path[:, 0])
        ys = np.ascontiguousarray(path[:, 1])
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "points", tuple(tuple(p) for p in path.tolist()))
        object.__setattr__(self, "hops", tuple(np.hypot(np.diff(xs), np.diff(ys)).tolist()))

    def __len__(self) -> int:
        return len(self.points)


def path_reference(track: Track, pose: WorldPose, d_0: float):
    """Reference point a set arc distance ahead of the nearest path point.

    Every path point is examined to find the nearest one (that scan is the
    per-sample cost this baseline pays), then the first point at least d_0
    further along the path is returned, or the last point when the path
    ends sooner.  Returns ((x, y), points_examined).
    """
    nearest = int(np.hypot(track.xs - pose.x, track.ys - pose.y).argmin())
    hops = track.hops
    acc = 0.0
    idx = len(hops)
    for j in range(nearest, len(hops)):
        acc += hops[j]
        if acc >= d_0:
            idx = j + 1
            break
    return track.points[idx], len(track)


def cost_ratio(m: int, n: int, template_side: int, kernel_side: int):
    """Per-frame cost of template matching vs edge detection, and their ratio.

    C_TM = (m - t)(n - t) t^2 positions times window size for a t x t
    template over an m x n image; C_ED likewise for a k x k kernel.
    """
    t, k = template_side, kernel_side
    if not (0 < t < min(m, n) and 0 < k < min(m, n)):
        raise ValueError("template and kernel must fit inside the image")
    c_tm = (m - t) * (n - t) * t * t
    c_ed = (m - k) * (n - k) * k * k
    return c_tm, c_ed, c_tm / c_ed

