"""Harmonic potential field over an occupancy boundary grid.

The free region gets a discrete Laplace solution with Dirichlet data:
obstacle and frame cells are pinned at potential 1, the target cell at 0.
`relax` solves the 5-point system on the free cells by matrix-free
conjugate gradients (Hestenes & Stiefel 1952), in numpy alone.
Because harmonic functions take their extrema on the boundary, the interior
has no local minima, so following the negative gradient from any free cell
connected to the target always runs downhill to it.  Free components with no
target in them settle at the constant 1 and are detected as flat, which is
how an unreachable goal shows up.

Nothing here is set per scenario: the obstacle padding `DILATION`, the
tolerance and iteration cap of `relax` and the flatness threshold of
`gradient` are fixed defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FREE = 0
OBSTACLE = 1
TARGET = 2

DILATION = 1  # Chebyshev radius by which edge cells are padded into obstacles


@dataclass
class BoundaryGrid:
    """Cell labels (FREE / OBSTACLE / TARGET) plus the target cell."""

    labels: np.ndarray
    target: tuple

    def __post_init__(self):
        lab = np.ascontiguousarray(self.labels, dtype=np.int8)
        if lab.ndim != 2:
            raise ValueError("labels must be 2-D")
        tx, ty = self.target
        if lab[ty, tx] != TARGET:
            raise ValueError("target cell (%d, %d) is not labeled TARGET" % (tx, ty))
        border = np.concatenate([lab[0], lab[-1], lab[:, 0], lab[:, -1]])
        if np.any(border == FREE):
            raise ValueError("boundary grid must have a closed obstacle frame")
        self.labels = lab

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass
class PotentialField:
    """Solved potential plus solver diagnostics."""

    phi: np.ndarray
    sweeps: int        # solver iterations, one stencil pass each
    residual: float
    converged: bool


@dataclass
class GradientField:
    """Normalized descent directions; flat cells carry an exact zero vector."""

    vx: np.ndarray
    vy: np.ndarray
    flat: np.ndarray
    labels: np.ndarray
    target: tuple

    @property
    def width(self) -> int:
        return self.vx.shape[1]

    @property
    def height(self) -> int:
        return self.vx.shape[0]


def build_boundary(edges, target, dilation: int = DILATION) -> BoundaryGrid:
    """Turn an edge map into boundary labels.

    Edge cells are dilated by a Chebyshev radius (square element) to pad the
    contour, the outer frame is closed off, and the target cell is pinned.
    """
    cells = np.asarray(edges.cells if hasattr(edges, "cells") else edges, dtype=bool)
    n, m = cells.shape
    if dilation < 0:
        raise ValueError("dilation must be >= 0")
    obst = cells.copy()
    for dy in range(-dilation, dilation + 1):
        for dx in range(-dilation, dilation + 1):
            if dx == 0 and dy == 0:
                continue
            src_y = slice(max(0, -dy), min(n, n - dy))
            src_x = slice(max(0, -dx), min(m, m - dx))
            dst_y = slice(max(0, dy), min(n, n + dy))
            dst_x = slice(max(0, dx), min(m, m + dx))
            obst[dst_y, dst_x] |= cells[src_y, src_x]
    obst[0, :] = obst[-1, :] = True
    obst[:, 0] = obst[:, -1] = True
    tx, ty = target
    if not (0 <= tx < m and 0 <= ty < n):
        raise ValueError("target (%s, %s) outside the grid" % (tx, ty))
    if obst[ty, tx]:
        raise ValueError("target (%d, %d) lies on a (dilated) obstacle cell" % (tx, ty))
    labels = np.where(obst, np.int8(OBSTACLE), np.int8(FREE))
    labels[ty, tx] = TARGET
    return BoundaryGrid(labels, (tx, ty))


def relax(
    boundary: BoundaryGrid,
    *,
    tolerance: float = 1e-10,
    max_sweeps: int | None = None,
    initial: np.ndarray | None = None,
) -> PotentialField:
    """Solve the Dirichlet problem by conjugate gradients.

    The unknowns are the free cells; fixed cells hold 1 (obstacles) or 0
    (target) and enter only through the residual
    r = (sum of 4 neighbors) - 4 * phi, which is the 5-point Laplacian and
    symmetric positive definite on the free cells because the obstacle frame
    closes every component.  The residual and the search direction are kept
    at zero on fixed cells, so fixed values never move.  Free cells start at
    1 (or at `initial` for warm starts); a free component that contains no
    target then starts with a residual of exactly 0, never moves and comes
    out exactly flat.

    Stops when the residual max|mean4 - phi| over free cells drops to
    `tolerance`, or after `max_sweeps` (default 20 * max(side)) iterations
    of one stencil pass each; hitting the cap is reported via `converged`,
    it is not an error.  The test is made on the true residual, recomputed
    from phi whenever the recurrence says the tolerance is met; the
    reported residual is the true one too.
    """
    labels = boundary.labels
    n, m = labels.shape
    if max_sweeps is None:
        max_sweeps = 20 * max(m, n)

    free = labels == FREE
    phi = np.ones((n, m), dtype=float)
    if initial is not None:
        phi[free] = np.asarray(initial, dtype=float)[free]
    phi[labels == TARGET] = 0.0

    # Flat indexing: the 4 neighbors of cell i are i -+ 1 and i -+ m.  The
    # frame is never free, so rows 1 .. n-2 (flat span lo:hi) hold every
    # unknown; the frame columns inside that span are masked like any other
    # fixed cell.  The search direction p spans the whole grid so that its
    # neighbors can be read, and stays zero outside the free cells.
    x = phi.reshape(-1)
    lo, hi = m, max(m, (n - 1) * m)
    mask = free.reshape(-1)[lo:hi].astype(float)

    def laplacian(u, out):
        """out <- sum of 4 neighbors - 4 u on the free cells, 0 elsewhere."""
        np.add(u[lo - 1 : hi - 1], u[lo + 1 : hi + 1], out=out)
        out += u[lo - m : hi - m]
        out += u[lo + m : hi + m]
        out -= 4.0 * u[lo:hi]
        out *= mask
        return out

    def max_abs(v):
        return max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))

    xc = x[lo:hi]
    r = laplacian(x, np.empty(hi - lo))
    p = np.zeros_like(x)
    pc = p[lo:hi]
    pc[:] = r
    q = np.empty_like(r)
    rr = float(np.dot(r, r))
    residual = 0.25 * max_abs(r)
    sweeps = 0
    while residual > tolerance and sweeps < max_sweeps:
        sweeps += 1
        laplacian(p, q)  # q = -A p
        alpha = rr / -float(np.dot(pc, q))
        xc += alpha * pc
        r += alpha * q
        residual = 0.25 * max_abs(r)
        if residual <= tolerance:
            # the recurrence drifts from the true residual: recompute it,
            # and restart from it if the tolerance is not met after all
            laplacian(x, r)
            residual = 0.25 * max_abs(r)
            rr = float(np.dot(r, r))
            pc[:] = r
            continue
        rr_next = float(np.dot(r, r))
        pc *= rr_next / rr
        pc += r
        rr = rr_next
    if residual > tolerance:  # stopped at the cap: report the true residual
        residual = 0.25 * max_abs(laplacian(x, r))
    return PotentialField(phi, sweeps, residual, residual <= tolerance)


def gradient(field: PotentialField, boundary: BoundaryGrid, eps_flat: float = 1e-12) -> GradientField:
    """Unit descent directions -grad(phi)/|grad(phi)|.

    Central differences on free cells; next to a fixed cell the difference
    is one-sided over the free pair so pinned values never enter.  Cells
    whose raw gradient magnitude is below eps_flat (and all fixed cells)
    get an exact zero vector and the flat flag.
    """
    phi = field.phi
    labels = boundary.labels
    fixed = labels != FREE
    n, m = labels.shape
    dx = np.zeros((n, m))
    dy = np.zeros((n, m))

    def axis_diff(out, lo_sl, hi_sl, core_sl):
        lo_fix = fixed[lo_sl]
        hi_fix = fixed[hi_sl]
        p_lo, p_hi, p_c = phi[lo_sl], phi[hi_sl], phi[core_sl]
        d = np.where(
            ~lo_fix & ~hi_fix,
            0.5 * (p_hi - p_lo),
            np.where(lo_fix & ~hi_fix, p_hi - p_c, np.where(~lo_fix & hi_fix, p_c - p_lo, 0.0)),
        )
        out[core_sl] = d

    axis_diff(dx, (slice(1, -1), slice(0, -2)), (slice(1, -1), slice(2, None)), (slice(1, -1), slice(1, -1)))
    axis_diff(dy, (slice(0, -2), slice(1, -1)), (slice(2, None), slice(1, -1)), (slice(1, -1), slice(1, -1)))
    dx[fixed] = 0.0
    dy[fixed] = 0.0

    mag = np.hypot(dx, dy)
    flat = fixed | (mag < eps_flat)
    with np.errstate(invalid="ignore", divide="ignore"):
        vx = np.where(flat, 0.0, -dx / mag)
        vy = np.where(flat, 0.0, -dy / mag)
    return GradientField(vx, vy, flat, labels, boundary.target)


def descend(grad: GradientField, start, max_steps: int | None = None):
    """Follow unit gradient hops from a cell center toward the target.

    Returns (points, reason) where points are continuous pixel coordinates
    (the first is the start cell center) and reason is one of "reached"
    (within 1.5 cells of the target center), "flat", or "exhausted".
    """
    sx, sy = start
    labels = grad.labels
    if labels[sy, sx] == OBSTACLE:
        raise ValueError("descend start (%d, %d) is an obstacle cell" % (sx, sy))
    if max_steps is None:
        max_steps = 10 * (grad.width + grad.height)
    tx, ty = grad.target
    tcx, tcy = tx + 0.5, ty + 0.5
    vx, vy, flat = grad.vx, grad.vy, grad.flat
    px, py = sx + 0.5, sy + 0.5
    points = [(px, py)]
    reason = "exhausted"
    for _ in range(max_steps):
        if math.hypot(px - tcx, py - tcy) <= 1.5:
            reason = "reached"
            break
        cx, cy = int(px), int(py)
        if flat[cy, cx]:
            reason = "flat"
            break
        px += float(vx[cy, cx])
        py += float(vy[cy, cx])
        points.append((px, py))
    else:
        if math.hypot(px - tcx, py - tcy) <= 1.5:
            reason = "reached"
    return points, reason

