"""Harmonic potential field over an occupancy boundary grid.

The free region gets a discrete Laplace solution with Dirichlet data:
obstacle and frame cells are pinned at potential 1, the target cell at 0.
`relax` solves the 5-point system on the free cells by matrix-free
conjugate gradients (Hestenes & Stiefel 1952), in numpy alone.  The stencil
couples only opposite colours of a checkerboard, so the red cells are
eliminated exactly and CG runs on the reduced system of the black cells
(Saad, Iterative Methods for Sparse Linear Systems, 2nd ed. 2003, on
red-black ordering): half the unknowns and about half the iterations.  The
red and the black cells are two contiguous vectors, split once from the grid,
and an iteration of plain CG allocates nothing: it is a fixed sequence of
numpy calls on views and buffers made once per solve.  On a grid the size of
a camera frame the iterations still grow with the side, so there CG is
preconditioned with a coarse correction over square blocks (two-level CG).
Because harmonic functions take their extrema on the boundary, the interior
has no local minima, so in exact arithmetic following the negative gradient
from any free cell connected to the target runs downhill to it.  In floating
point 1 - phi decays exponentially away from the target, and where it falls
below the solver tolerance the field is flat although the target is
connected: deep in a long corridor `descend` stops "flat".  Free components
with no target in them settle at the constant 1 and are detected as flat,
which is how an unreachable goal shows up.

Nothing here is set per scenario: the obstacle padding `DILATION`, the
solver `TOLERANCE` and the flatness threshold `EPS_FLAT` are constants, and
the step caps of `relax` and `descend` follow from the grid size.  So does
the choice of solver: `relax` takes the two-level path on a grid of at least
`COARSE_CELLS` cells, with a block side `block_side` of the cell count, and
plain CG on any smaller grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FREE = 0
OBSTACLE = 1
TARGET = 2

DILATION = 1  # Chebyshev radius by which edge cells are padded into obstacles
TOLERANCE = 1e-10  # max |mean4 - phi| over free cells at which relax stops
EPS_FLAT = 1e-12  # gradient magnitude below which a free cell counts as flat
# Grid cells from which relax adds its coarse correction.  On fullres's scene
# scaled, with one agent disc stamped, one core of a 2-vCPU VM: at 160 x 120
# (19,200 cells) a cold solve takes 0.93-1.03x the time of plain CG and a warm
# re-solve after the disc moves one cell 1.5x; from 168 x 126 (21,168 cells),
# where plain CG's vectors outgrow the cache, cold solves take 1.3-1.8x less
# time and warm ones 1.0-1.3x less.  The rule sits at about twice that
# crossover, so a machine with a larger cache does not lose by it.
COARSE_CELLS = 40_000


@dataclass(frozen=True)
class BoundaryGrid:
    """Cell labels (FREE / OBSTACLE / TARGET) plus the target cell; frozen, so a state that holds it cannot change."""

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
        object.__setattr__(self, "labels", lab)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class PotentialField:
    """Solved potential plus solver diagnostics."""

    phi: np.ndarray
    sweeps: int        # CG iterations on the black-cell reduced system
    residual: float
    converged: bool


@dataclass(frozen=True)
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


def build_boundary(edges, target) -> BoundaryGrid:
    """Turn the edge cells (a bool array) into boundary labels.

    Edge cells are dilated by the Chebyshev radius `DILATION` (square
    element) to pad the contour, the outer frame is closed off, and the
    target cell is pinned.
    """
    cells = np.asarray(edges, dtype=bool)
    n, m = cells.shape
    obst = cells.copy()
    for dy in range(-DILATION, DILATION + 1):
        for dx in range(-DILATION, DILATION + 1):
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
    labels.setflags(write=False)
    return BoundaryGrid(labels, (tx, ty))


def relax(
    boundary: BoundaryGrid,
    *,
    max_sweeps: int | None = None,
    initial: np.ndarray | None = None,
) -> PotentialField:
    """Solve the Dirichlet problem by conjugate gradients on the black cells.

    The unknowns are the free cells; fixed cells hold 1 (obstacles) or 0
    (target).  The 5-point stencil only couples cells of opposite colour on
    a checkerboard, so the red cells are eliminated exactly: each free red
    cell is the mean of its 4 (black or fixed) neighbours.  What remains is
    the reduced system S' phi_B = c on the free black cells, with
    S' p = p - 1/4 N(1/4 N(p) on the free red cells) and N the sum of the 4
    neighbours.  S' is symmetric positive definite (the obstacle frame closes
    every component) and better conditioned than the full Laplacian, so CG
    needs about half the iterations on vectors half as long.  Its residual
    is exactly mean4 - phi at the black cells once the red cells hold their
    means, so the stopping test below has the same meaning as on the full grid.

    On a grid of at least `COARSE_CELLS` cells the iteration count, which
    grows with the grid side, is cut by a two-level preconditioner: the
    additive coarse correction z = r + Z E^-1 Z^T r, where the columns of Z
    are the indicators of the free black cells in each `block_side` square
    block, and E = Z^T S' Z (Nicolaides 1987, "Deflation of conjugate
    gradients with applications to boundary value problems", SIAM J. Numer.
    Anal.; Tang, Nabben, Vuik & Erlangga 2009, "Comparison of two-level
    preconditioners derived from deflation, domain decomposition and
    multigrid methods", J. Sci. Comput.).  E is probed with 9 products by S'
    (the blocks coloured 3 x 3, so that no two blocks of a colour reach the
    same cell) and inverted once per solve.  A block that straddles a wall
    would carry the correction into a free component with no target, so
    that grid first finds the free cells connected to a target cell
    (`_reached`) and pins every other free cell at exactly 1, warm start or
    not.  On a
    smaller grid the set-up and the dearer iterations cost about what the
    saved iterations do, and the solve is plain CG.

    Free cells start at 1 (or at `initial` for warm starts).  If that already
    meets `TOLERANCE`, or `max_sweeps` is 0, phi is returned as it started
    (on the two-level path, with the cells that cannot reach the target at 1).
    A free component that contains no target and starts at 1 stays exactly
    at 1, so it comes out exactly flat.

    Stops when the residual max|mean4 - phi| over free cells drops to
    `TOLERANCE`, or after `max_sweeps` (default 20 * max(side)) iterations
    of the reduced system; hitting the cap is reported via `converged`, it
    is not an error.  The test is made on the true residual, recomputed from
    phi whenever the recurrence says the tolerance is met (the max-norm is
    only taken once the root-mean-square, which bounds it from below, is
    there); the reported residual is the true one too.
    """
    labels = boundary.labels
    n, m = labels.shape
    if max_sweeps is None:
        max_sweeps = 20 * max(m, n)
    coarse = n * m >= COARSE_CELLS
    free = _reached(labels) if coarse else labels == FREE

    # Flat layout with an odd row length mo: an even-width grid gets one
    # obstacle column on the right.  Then the colour of a cell is the parity
    # of its flat index k, and the grid is split once into two contiguous
    # vectors: red cell k is xr[k // 2], black cell k is xb[k // 2].  They
    # are interleaved again only for the result.  The 4 neighbours of red
    # cell xr[i] are the black cells xb[i - 1], xb[i], xb[i + h] and
    # xb[i - h - 1] (h = mo // 2), those of black cell xb[i] the red cells
    # xr[i], xr[i + 1], xr[i + h + 1] and xr[i - h].  The frame is never
    # free, so rows 1 .. n-2 (flat span lo:hi) hold every unknown; the
    # stencils run over that span of each colour (xr[r0:r1], xb[b0:b1]), and
    # the frame columns in it are masked like any other fixed cell.  Every
    # stencil view and scratch vector is made once per call, so the loop
    # allocates nothing but, on the two-level path, its block sums.
    mo = m | 1
    h = mo // 2
    grid = np.ones((n, mo))
    if initial is not None:
        np.copyto(grid[:, :m], np.asarray(initial, dtype=float), where=free)
    grid[:, :m][labels == TARGET] = 0.0
    xr, xb = grid.reshape(-1)[0::2].copy(), grid.reshape(-1)[1::2].copy()
    del grid
    lo, hi = mo, max(mo, (n - 1) * mo)
    r0, r1 = (lo + 1) // 2, (hi + 1) // 2
    b0, b1 = lo // 2, hi // 2
    free_flat = np.zeros((n, mo), dtype=bool)
    free_flat[:, :m] = free
    free_flat = free_flat.reshape(-1)
    red_free = free_flat[0::2][r0:r1].copy()
    black_mask = free_flat[1::2][b0:b1].astype(float)
    red_weight = red_free * (1.0 / 16.0)

    def red_nbrs(b):
        """The 4 neighbours of each red cell in the span, as views of a black-sized vector."""
        return b[r0 - 1 : r1 - 1], b[r0:r1], b[r0 + h : r1 + h], b[r0 - h - 1 : r1 - h - 1]

    def black_nbrs(r):
        """The 4 neighbours of each black cell in the span, as views of a red-sized vector."""
        return r[b0:b1], r[b0 + 1 : b1 + 1], r[b0 + h + 1 : b1 + h + 1], r[b0 - h : b1 - h]

    def nbr_sum(nbrs, out):
        """out <- the sum of 4 neighbour views, added in their order."""
        np.add(nbrs[0], nbrs[1], out=out)
        out += nbrs[2]
        out += nbrs[3]
        return out

    def max_abs(v):
        return max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))

    xrc, xbc = xr[r0:r1], xb[b0:b1]
    xb_to_red, xr_to_black = red_nbrs(xb), black_nbrs(xr)
    t = np.zeros(len(xr))  # red-sized scratch, zero outside the span
    tc = t[r0:r1]
    # The search direction p spans every black cell so that its neighbours
    # can be read, and stays zero outside the free ones.
    p = np.zeros(len(xb))
    pc = p[b0:b1]
    r = np.empty(b1 - b0)     # the residual on the black span
    q = np.empty(b1 - b0)     # S' p, then alpha S' p
    step = np.empty(b1 - b0)  # alpha p (and, once it is spent, z on the two-level path)

    def black_residual():
        """r <- mean4 - phi on the free black cells, 0 elsewhere."""
        np.multiply(nbr_sum(xr_to_black, r), 0.25, out=r)
        np.subtract(r, xbc, out=r)
        return np.multiply(r, black_mask, out=r)

    def red_means():
        """tc <- mean of the 4 neighbours of each red cell in the span."""
        return np.multiply(nbr_sum(xb_to_red, tc), 0.25, out=tc)

    def solve_red():
        """Set every free red cell to the mean of its 4 neighbours (exact elimination)."""
        np.copyto(xrc, red_means(), where=red_free)

    # residual of the starting phi over all free cells, red ones included
    residual = max(max_abs(black_residual()), max_abs((red_means() - xrc) * red_free))
    sweeps = 0
    if residual > TOLERANCE and max_sweeps > 0:
        p1, p2, p3, p4 = red_nbrs(p)
        t1, t2, t3, t4 = black_nbrs(t)
        add, multiply, subtract = np.add, np.multiply, np.subtract

        def reduced_product():
            """q <- S' p, with nbr_sum's additions written out."""
            add(p1, p2, tc)
            add(tc, p3, tc)
            add(tc, p4, tc)
            multiply(tc, red_weight, tc)
            add(t1, t2, q)
            add(q, t3, q)
            add(q, t4, q)
            multiply(q, black_mask, q)
            return subtract(pc, q, q)

        if coarse:
            z = step  # the preconditioned residual, formed after alpha p is spent
            blocks, starts, owners, inverse = _coarse_space(
                black_mask, mo, b0, block_side(n, m), pc, reduced_product)
            coarse_z = np.empty(len(inverse))

            def precondition():
                """z <- r + Z E^-1 Z^T r."""
                coarse_r = np.bincount(owners, weights=np.add.reduceat(r, starts), minlength=len(inverse))
                np.matmul(inverse, coarse_r, out=coarse_z)
                np.take(coarse_z, blocks, out=z, mode="clip")  # ids are in range: "clip" skips the check
                return add(z, r, z)
        else:
            z = r  # plain CG: the preconditioner is the identity
        solve_red()
        residual = max_abs(black_residual())
        r_dot = r.dot  # np.dot of r with another vector
        rz = float(r_dot(precondition() if coarse else r))
        np.copyto(pc, z)
        p_dot = pc.dot
        rr_stop = TOLERANCE * TOLERANCE * float(np.count_nonzero(black_mask))
        while residual > TOLERANCE and sweeps < max_sweeps:
            sweeps += 1
            reduced_product()
            alpha = rz / float(p_dot(q))
            multiply(pc, alpha, step)
            xbc += step
            q *= alpha
            r -= q
            rr_next = float(r_dot(r))
            if rr_next <= rr_stop:  # rms(r) <= TOLERANCE, so max|r| may be too
                residual = max_abs(r)
                if residual <= TOLERANCE:
                    # the recurrence drifts from the true residual: recompute
                    # it, and restart from it if the tolerance is not met
                    solve_red()
                    residual = max_abs(black_residual())
                    rz = float(r_dot(precondition() if coarse else r))
                    np.copyto(pc, z)
                    continue
            rz_next = float(r_dot(precondition())) if coarse else rr_next
            pc *= rz_next / rz
            pc += z
            rz = rz_next
        if residual > TOLERANCE:  # stopped at the cap: fill in red, report the true residual
            solve_red()
            residual = max_abs(black_residual())
    out = np.empty((n, mo))
    out.reshape(-1)[0::2] = xr
    out.reshape(-1)[1::2] = xb
    phi = out if mo == m else np.ascontiguousarray(out[:, :m])
    phi.setflags(write=False)
    return PotentialField(phi, sweeps, residual, residual <= TOLERANCE)


def block_side(n: int, m: int) -> int:
    """Side of the square blocks of `relax`'s coarse correction on an n x m grid.

    The iterations grow about in proportion to the side and each costs in
    proportion to the cells, while inverting E costs the cube of the number
    of blocks, cells / side^2: the sum is least for a side that grows as
    cells^(2/7).  The factor is measured on fullres's scene at 320 x 240 and
    scaled to 640 x 480 (sides 20 and 30), where every side from 16 to 22
    and from 20 to 32 solves within 10% of the best time; of those, the
    larger sides keep E, and the peak memory, smaller.
    """
    return round((n * m) ** (2 / 7) / 1.25)


def _reached(labels: np.ndarray) -> np.ndarray:
    """The free cells 4-connected to a target cell, as a bool grid.

    Alternating sweeps along rows and columns: a run is a maximal stretch of
    non-obstacle cells in one row or column, and a sweep marks every run
    that holds a marked cell.  Starting from the target cells, it stops at
    the first sweep after the first that marks nothing new.
    """
    n, m = labels.shape
    passable = labels != OBSTACLE
    # run ids: an obstacle cell opens a new id, so a run shares the id of the
    # obstacle before it; the frame ends every run within its row or column
    along_rows = np.cumsum(~passable.reshape(-1), dtype=np.int32)
    along_cols = np.cumsum(~passable.T.reshape(-1), dtype=np.int32).reshape(m, n).T.reshape(-1)
    passable = passable.reshape(-1)
    marked = labels.reshape(-1) == TARGET
    count, sweep = int(np.count_nonzero(marked)), 0
    while True:
        runs = along_rows if sweep % 2 == 0 else along_cols
        hit = np.zeros(int(runs[-1]) + 1, dtype=bool)
        hit[runs[marked]] = True
        np.logical_and(hit[runs], passable, out=marked)
        sweep += 1
        grown = int(np.count_nonzero(marked))
        if grown == count and sweep > 1:
            break
        count = grown
    return (marked & (labels.reshape(-1) == FREE)).reshape(n, m)


def _coarse_space(black_mask, mo, b0, side, pc, reduced_product):
    """The blocks of `relax`'s coarse correction over the black span, and E^-1.

    A block is a side x side square of the grid.  Returns
    - blocks: the int32 block id of each black cell of the span, and the
      padding id k on its fixed cells;
    - starts, owners: where the span is cut into pieces of one row of one
      block, and the block of each piece, so that Z^T v is
      bincount(owners, reduceat(v, starts)) for any v that is 0 on the fixed
      cells, as every residual and product by S' is;
    - inverse: E^-1 as a (k + 1) x (k + 1) array whose last row and column
      are 0, so that the padding id k drops out of the correction.  A block
      with no free cell gets a 1 on the diagonal of E.
    E is probed with one product by S' per colour of a 3 x 3 colouring of
    the blocks: S' reaches 2 cells, less than a block side, so the product
    of the indicator of all blocks of one colour, summed over block a, is
    E[a, b] for the one block b of that colour in the 3 x 3 neighbourhood
    of a.  `pc` is the black span of the vector that `reduced_product`
    multiplies; the probes overwrite it.
    """
    # row and column of each black cell, from its flat index
    row, col = np.divmod(2 * np.arange(b0, b0 + len(black_mask), dtype=np.int32) + 1, np.int32(mo))
    cols = -(-(mo - 1) // side)  # the last column, never free, joins the last block
    rows = -(-int(row[-1] + 1) // side)
    k = rows * cols
    owners = (row // side) * np.int32(cols) + np.minimum(col // side, cols - 1)
    del row, col  # not held while E is inverted
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    blocks = np.where(black_mask == 0.0, np.int32(k), owners)
    owners = owners[starts]
    by, bx = np.divmod(np.arange(k), cols)
    colour = np.append((by % 3) * 3 + bx % 3, -1).astype(np.int8)[blocks]
    e = np.zeros((k + 1, k + 1))
    blocks_e = e[:k, :k]
    for c in range(9):
        np.equal(colour, c, out=pc, casting="unsafe")
        sums = np.bincount(owners, weights=np.add.reduceat(reduced_product(), starts), minlength=k)
        # the block of colour c next to (or at) each block
        ny, nx = by + (c // 3 - by + 1) % 3 - 1, bx + (c % 3 - bx + 1) % 3 - 1
        near = (ny >= 0) & (ny < rows) & (nx >= 0) & (nx < cols)
        blocks_e[near, (ny * cols + nx)[near]] = sums[near]
    e += e.T
    e *= 0.5
    empty = np.bincount(blocks, minlength=k + 1) == 0
    empty[k] = True
    e[empty, empty] = 1.0
    inverse = np.linalg.inv(e)
    inverse[k, k] = 0.0  # row and column k of E are those of the identity
    return blocks, starts, owners, inverse


def gradient(field: PotentialField, boundary: BoundaryGrid) -> GradientField:
    """Unit descent directions -grad(phi)/|grad(phi)|.

    Central differences on free cells; next to a fixed cell the difference
    is one-sided over the free pair so pinned values never enter: a fixed
    neighbour counts as the cell itself, and the difference is halved only
    where both neighbours are free.  Cells whose raw gradient magnitude is
    below `EPS_FLAT` (and all fixed cells) get an exact zero vector and the
    flat flag.
    """
    phi = field.phi
    labels = boundary.labels
    fixed = labels != FREE
    n, m = labels.shape
    dx = np.zeros((n, m))
    dy = np.zeros((n, m))
    core = (slice(1, -1), slice(1, -1))
    p_c = phi[core]

    def axis_diff(out, lo_sl, hi_sl):
        lo_fix, hi_fix = fixed[lo_sl], fixed[hi_sl]
        d = np.where(hi_fix, p_c, phi[hi_sl]) - np.where(lo_fix, p_c, phi[lo_sl])
        out[core] = np.where(lo_fix | hi_fix, d, 0.5 * d)

    axis_diff(dx, (slice(1, -1), slice(0, -2)), (slice(1, -1), slice(2, None)))
    axis_diff(dy, (slice(0, -2), slice(1, -1)), (slice(2, None), slice(1, -1)))
    dx[fixed] = 0.0
    dy[fixed] = 0.0

    mag = np.hypot(dx, dy)
    flat = fixed | (mag < EPS_FLAT)
    with np.errstate(invalid="ignore", divide="ignore"):
        vx = np.where(flat, 0.0, -dx / mag)
        vy = np.where(flat, 0.0, -dy / mag)
    for a in (vx, vy, flat):
        a.setflags(write=False)
    return GradientField(vx, vy, flat, labels, boundary.target)


def descend(grad: GradientField, start):
    """Follow unit gradient hops from a cell center toward the target.

    Returns (points, reason) where points are continuous pixel coordinates
    (the first is the start cell center) and reason is one of "reached"
    (within 1.5 cells of the target center), "flat", or "exhausted" (after
    10 * (width + height) hops).
    """
    sx, sy = start
    if grad.labels[sy, sx] == OBSTACLE:
        raise ValueError("descend start (%d, %d) is an obstacle cell" % (sx, sy))
    max_steps = 10 * (grad.width + grad.height)
    tx, ty = grad.target
    tcx, tcy = tx + 0.5, ty + 0.5
    vx, vy, flat = grad.vx, grad.vy, grad.flat
    px, py = sx + 0.5, sy + 0.5
    points = [(px, py)]
    for _ in range(max_steps):
        if math.hypot(px - tcx, py - tcy) <= 1.5:
            break
        cx, cy = int(px), int(py)
        if flat[cy, cx]:
            return points, "flat"
        px += float(vx[cy, cx])
        py += float(vy[cy, cx])
        points.append((px, py))
    return points, "reached" if math.hypot(px - tcx, py - tcy) <= 1.5 else "exhausted"

