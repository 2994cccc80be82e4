import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpfnav import hpf
from hpfnav.hpf import (
    FREE,
    OBSTACLE,
    TARGET,
    TOLERANCE,
    EPS_FLAT,
    BoundaryGrid,
    GradientField,
    PotentialField,
    build_boundary,
    descend,
    gradient,
    relax,
)
from hpfnav.netloop import build_scene


def dense_solve(labels):
    """Direct solve of the 5-point Laplace system over the FREE cells."""
    free = np.argwhere(labels == FREE)
    index = {(int(y), int(x)): i for i, (y, x) in enumerate(free)}
    n = len(free)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, (y, x) in enumerate(free):
        A[i, i] = 4.0
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            lab = labels[y + dy, x + dx]
            if lab == FREE:
                A[i, index[(y + dy, x + dx)]] = -1.0
            elif lab == OBSTACLE:
                b[i] += 1.0
    phi = np.linalg.solve(A, b)
    out = np.where(labels == OBSTACLE, 1.0, 0.0)
    for i, (y, x) in enumerate(free):
        out[y, x] = phi[i]
    return out


def random_boundary(rng, max_side=12):
    h = int(rng.integers(5, max_side + 1))
    w = int(rng.integers(5, max_side + 1))
    labels = np.zeros((h, w), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    for _ in range(int(rng.integers(0, (h - 2) * (w - 2) // 4 + 1))):
        labels[int(rng.integers(1, h - 1)), int(rng.integers(1, w - 1))] = OBSTACLE
    frees = np.argwhere(labels == FREE)
    if len(frees) == 0:
        return random_boundary(rng, max_side)
    ty, tx = frees[int(rng.integers(len(frees)))]
    labels[ty, tx] = TARGET
    return BoundaryGrid(labels=labels, target=(int(tx), int(ty)))


def free_cells_connected_to_target(labels, target):
    """4-connected FREE cells reachable from the target, by flood fill."""
    h, w = labels.shape
    seen = np.zeros((h, w), bool)
    queue = collections.deque([target])
    seen[target[1], target[0]] = True
    while queue:
        x, y = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h and not seen[ny, nx] and labels[ny, nx] != OBSTACLE:
                seen[ny, nx] = True
                queue.append((nx, ny))
    return [(x, y) for y, x in np.argwhere(seen & (labels == FREE))]


# -- boundary construction


def test_build_boundary_counts():
    edges = np.zeros((11, 11), bool)
    bg = build_boundary(edges, (5, 5))
    assert (bg.labels == OBSTACLE).sum() == 40
    assert (bg.labels == TARGET).sum() == 1
    assert (bg.labels == FREE).sum() == 80


def test_build_boundary_dilation():
    edges = np.zeros((15, 15), bool)
    edges[6, 6] = True
    bg = build_boundary(edges, (12, 12))
    assert bg.labels[5:8, 5:8].tolist() == [[OBSTACLE] * 3] * 3
    assert bg.labels[4, 6] == FREE


def test_build_boundary_target_on_edge():
    edges = np.zeros((15, 15), bool)
    edges[6, 6] = True
    with pytest.raises(ValueError):
        build_boundary(edges, (6, 6))
    with pytest.raises(ValueError):
        build_boundary(edges, (7, 7))  # covered by the dilated block


def test_boundary_grid_rejects_open_frame():
    labels = np.zeros((11, 11), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[0, 4] = FREE
    labels[5, 5] = TARGET
    with pytest.raises(ValueError):
        BoundaryGrid(labels=labels, target=(5, 5))


# -- relaxation vs direct solve


def test_relax_small_grid_matches_dense():
    labels = np.zeros((6, 6), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[2, 2] = OBSTACLE
    labels[4, 4] = TARGET
    bg = BoundaryGrid(labels=labels, target=(4, 4))
    field = relax(bg)
    assert field.converged
    np.testing.assert_allclose(field.phi, dense_solve(labels), atol=1e-8)


def test_relax_random_grids_match_dense():
    rng = np.random.default_rng(0)
    for _ in range(25):
        bg = random_boundary(rng)
        field = relax(bg)
        np.testing.assert_allclose(field.phi, dense_solve(bg.labels), atol=1e-8)


def test_relax_fixed_cells_and_open_interval():
    rng = np.random.default_rng(4)
    bg = random_boundary(rng)
    field = relax(bg)
    assert (field.phi[bg.labels == OBSTACLE] == 1.0).all()
    assert (field.phi[bg.labels == TARGET] == 0.0).all()
    connected = free_cells_connected_to_target(bg.labels, bg.target)
    for x, y in connected:
        assert 0.0 < field.phi[y, x] < 1.0


def test_relax_no_interior_extremum():
    """Maximum principle: every connected FREE cell sits strictly between
    at least one lower and one higher 4-neighbor."""
    rng = np.random.default_rng(11)
    bg = random_boundary(rng, max_side=12)
    phi = relax(bg).phi
    for x, y in free_cells_connected_to_target(bg.labels, bg.target):
        neigh = [phi[y + dy, x + dx] for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        assert min(neigh) < phi[y, x] < max(neigh) or np.isclose(min(neigh), max(neigh))


def test_relax_targetless_component_stays_one():
    labels = np.zeros((12, 12), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[:, 5] = OBSTACLE  # full wall: left component has no target
    labels[6, 8] = TARGET
    bg = BoundaryGrid(labels=labels, target=(8, 6))
    field = relax(bg)
    left = field.phi[1:-1, 1:5]
    assert (left == 1.0).all()
    right = field.phi[1:-1, 6:-1]
    assert (right < 1.0).all()


def test_relax_max_sweeps_cutoff():
    labels = np.zeros((16, 16), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[8, 8] = TARGET
    bg = BoundaryGrid(labels=labels, target=(8, 8))
    field = relax(bg, max_sweeps=3)
    assert field.sweeps == 3
    assert not field.converged


def test_relax_warm_start_converges_fast():
    rng = np.random.default_rng(2)
    bg = random_boundary(rng)
    cold = relax(bg)
    warm = relax(bg, initial=cold.phi)
    assert warm.sweeps <= 2
    np.testing.assert_allclose(warm.phi, cold.phi, atol=1e-9)


def disc_boundary(cx, cy, w=32, h=24, r=4):
    labels = np.zeros((h, w), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    yy, xx = np.mgrid[:h, :w]
    labels[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = OBSTACLE
    labels[h // 2, w - 4] = TARGET
    return BoundaryGrid(labels=labels, target=(w - 4, h // 2))


def test_relax_warm_start_after_disc_moves():
    """A replan after an obstacle moves by one cell starts close to the
    answer, so it needs fewer iterations than a cold solve of the same grid."""
    before = relax(disc_boundary(14, 12))
    moved = disc_boundary(15, 12)
    cold = relax(moved)
    warm = relax(moved, initial=before.phi)
    assert cold.converged and warm.converged
    assert warm.sweeps < cold.sweeps
    ref = dense_solve(moved.labels)
    np.testing.assert_allclose(cold.phi, ref, atol=1e-8)
    np.testing.assert_allclose(warm.phi, ref, atol=1e-8)


def test_relax_cold_solve_of_moved_disc_takes_few_iterations():
    """The reduced system on the black cells needs about half the iterations
    of CG on the full 5-point system (89 on this grid)."""
    field = relax(disc_boundary(15, 12))
    assert field.converged
    assert field.sweeps <= 50


def framed(h, w):
    labels = np.zeros((h, w), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    return labels


def corridor(h, w, vertical=False):
    """A 1-cell-wide corridor: row (or column) 1 free, the target at its far end."""
    labels = np.full((h, w), OBSTACLE, np.int8)
    if vertical:
        labels[1:-1, 1] = FREE
        target = (1, h - 2)
    else:
        labels[1, 1:-1] = FREE
        target = (w - 2, 1)
    labels[target[1], target[0]] = TARGET
    return BoundaryGrid(labels=labels, target=target)


def bent_corridor(h, w):
    """An L-shaped 1-cell-wide corridor along the top row and the right column."""
    labels = np.full((h, w), OBSTACLE, np.int8)
    labels[1, 1:-1] = FREE
    labels[1:-1, w - 2] = FREE
    labels[h - 2, w - 2] = TARGET
    return BoundaryGrid(labels=labels, target=(w - 2, h - 2))


def scattered(h, w, seed):
    rng = np.random.default_rng(seed)
    labels = framed(h, w)
    inner = labels[1:-1, 1:-1]
    inner[rng.random(inner.shape) < 0.2] = OBSTACLE
    frees = np.argwhere(labels == FREE)
    ty, tx = frees[len(frees) // 2]
    labels[ty, tx] = TARGET
    return BoundaryGrid(labels=labels, target=(int(tx), int(ty)))


@pytest.mark.parametrize(
    "bg",
    [
        scattered(10, 13, 1),          # odd width, even n*m
        scattered(9, 12, 2),           # even width: padded with an obstacle column
        scattered(11, 13, 3),          # odd n*m
        scattered(12, 4, 4),           # narrow, even width
        corridor(3, 17),               # 1-cell-wide corridors
        corridor(3, 16),
        corridor(18, 3, vertical=True),
        corridor(17, 4, vertical=True),
        bent_corridor(9, 12),
        bent_corridor(10, 11),
    ],
    ids=["odd-w", "even-w", "odd-nm", "narrow-even-w", "row-odd-w", "row-even-w",
         "column-odd-w", "column-even-w", "bend-even-w", "bend-odd-w"],
)
def test_relax_matches_dense_on_every_layout(bg):
    field = relax(bg)
    assert field.converged and field.residual <= 1e-10
    assert field.phi.shape == bg.labels.shape
    np.testing.assert_allclose(field.phi, dense_solve(bg.labels), atol=1e-8)


def test_relax_zero_sweeps_returns_initial_bit_for_bit():
    bg = scattered(9, 12, 5)
    initial = np.random.default_rng(5).random(bg.labels.shape)
    field = relax(bg, max_sweeps=0, initial=initial)
    free = bg.labels == FREE
    assert field.sweeps == 0 and not field.converged
    assert np.array_equal(field.phi[free], initial[free])


@pytest.mark.parametrize("max_sweeps", [0, 1, 5, None])
def test_relax_reports_the_true_residual(max_sweeps):
    """Whether it stops at the cap or converges, the reported residual is
    max|mean4 - phi| over the free cells of the returned phi."""
    bg = scattered(9, 12, 6)
    field = relax(bg, max_sweeps=max_sweeps)
    phi = field.phi
    mean4 = 0.25 * (phi[:-2, 1:-1] + phi[2:, 1:-1] + phi[1:-1, :-2] + phi[1:-1, 2:])
    true = np.abs(mean4 - phi[1:-1, 1:-1])[bg.labels[1:-1, 1:-1] == FREE].max()
    assert field.residual == pytest.approx(true, rel=1e-6, abs=1e-15)
    assert field.converged == (max_sweeps is None)


def test_relax_restarts_when_the_recomputed_residual_misses_the_tolerance(comparison_scenario, monkeypatch):
    """At a tolerance of 1e-15 on comparison's boundary the recurrence meets it once before the
    true residual does: relax recomputes the residual, restarts CG from it, and stops on the true one."""
    monkeypatch.setattr(hpf, "TOLERANCE", 1e-15)
    bg = build_boundary(build_scene(comparison_scenario).edges, comparison_scenario.target)
    field = relax(bg)
    phi = field.phi
    # summed in relax's neighbour order (left, right, below, above), so the figure is the same to the bit
    mean4 = (((phi[1:-1, :-2] + phi[1:-1, 2:]) + phi[2:, 1:-1]) + phi[:-2, 1:-1]) * 0.25
    true = np.abs(mean4 - phi[1:-1, 1:-1])[bg.labels[1:-1, 1:-1] == FREE].max()
    assert field.converged
    assert field.residual == true
    assert field.residual <= 1e-15


@st.composite
def boundaries(draw):
    h = draw(st.integers(3, 14))
    w = draw(st.integers(3, 14))
    labels = framed(h, w)
    inner = draw(st.lists(st.booleans(), min_size=(h - 2) * (w - 2), max_size=(h - 2) * (w - 2)))
    labels[1:-1, 1:-1] = np.where(np.reshape(inner, (h - 2, w - 2)), OBSTACLE, FREE)
    ty = draw(st.integers(1, h - 2))
    tx = draw(st.integers(1, w - 2))
    labels[ty, tx] = TARGET
    initial = None
    if draw(st.booleans()):
        initial = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=h * w, max_size=h * w)), (h, w))
    return BoundaryGrid(labels=labels, target=(tx, ty)), initial


@settings(max_examples=60, deadline=2000, derandomize=True, database=None)
@given(boundaries())
def test_relax_property_matches_dense(case):
    """Any framed grid, obstacles, target and warm start: relax converges to
    the dense solution and leaves every fixed cell at exactly 1 or 0."""
    bg, initial = case
    field = relax(bg, initial=initial)
    assert field.converged
    np.testing.assert_allclose(field.phi, dense_solve(bg.labels), atol=1e-8)
    assert (field.phi[bg.labels == OBSTACLE] == 1.0).all()
    assert (field.phi[bg.labels == TARGET] == 0.0).all()


def _reference_relax(boundary, *, max_sweeps=None, initial=None):
    """relax with the red and black cells as stride-2 views of one interleaved
    flat grid, the layout that the two contiguous colour vectors replace: the
    same operations in the same order, kept to check `relax` bit for bit."""
    labels = boundary.labels
    n, m = labels.shape
    if max_sweeps is None:
        max_sweeps = 20 * max(m, n)

    # Flat layout with an odd row length mo: an even-width grid gets one
    # obstacle column on the right.  Then the colour of a cell is the parity
    # of its flat index, the red cells are x[0::2] and the black cells x[1::2],
    # and the 4 neighbours of red cell k are black cells k - 1, k, k + h and
    # k - h - 1 (h = mo // 2), those of black cell k red cells k, k + 1,
    # k + h + 1 and k - h.  The frame is never free, so rows 1 .. n-2 (flat
    # span lo:hi) hold every unknown; the stencils run over that span of
    # each colour, and the frame columns in it are masked like any other
    # fixed cell.
    mo = m | 1
    h = mo // 2
    x = np.ones(n * mo)
    phi = x.reshape(n, mo)[:, :m]
    free = labels == FREE
    if initial is not None:
        phi[free] = np.asarray(initial, dtype=float)[free]
    phi[labels == TARGET] = 0.0
    xr, xb = x[0::2], x[1::2]
    lo, hi = mo, max(mo, (n - 1) * mo)
    r0, r1 = (lo + 1) // 2, (hi + 1) // 2
    b0, b1 = lo // 2, hi // 2
    free_flat = np.zeros((n, mo), dtype=bool)
    free_flat[:, :m] = free
    free_flat = free_flat.reshape(-1)
    red_free = free_flat[0::2][r0:r1]
    black_mask = free_flat[1::2][b0:b1].astype(float)
    red_weight = red_free * (1.0 / 16.0)

    def to_red(b, out):
        """out <- sum of the 4 neighbours of each red cell in the span, read from b."""
        np.add(b[r0 - 1 : r1 - 1], b[r0:r1], out=out)
        out += b[r0 + h : r1 + h]
        out += b[r0 - h - 1 : r1 - h - 1]
        return out

    def to_black(r, out):
        """out <- sum of the 4 neighbours of each black cell in the span, read from r."""
        np.add(r[b0:b1], r[b0 + 1 : b1 + 1], out=out)
        out += r[b0 + h + 1 : b1 + h + 1]
        out += r[b0 - h : b1 - h]
        return out

    def black_residual(out):
        """out <- mean4 - phi on the free black cells, 0 elsewhere."""
        to_black(xr, out)
        out *= 0.25
        out -= xb[b0:b1]
        out *= black_mask
        return out

    def max_abs(v):
        return max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))

    t = np.zeros(len(xr))  # red-sized scratch, zero outside the span
    tc = t[r0:r1]

    def red_means():
        """tc <- mean of the 4 neighbours of each red cell in the span."""
        return np.multiply(to_red(xb, tc), 0.25, out=tc)

    def solve_red():
        """Set every free red cell to the mean of its 4 neighbours (exact elimination)."""
        np.copyto(xr[r0:r1], red_means(), where=red_free)

    # residual of the starting phi over all free cells, red ones included
    r = black_residual(np.empty(b1 - b0))
    residual = max(max_abs(r), max_abs((red_means() - xr[r0:r1]) * red_free))
    sweeps = 0
    if residual > TOLERANCE and max_sweeps > 0:
        solve_red()
        residual = max_abs(black_residual(r))
        # The search direction p spans every black cell so that its
        # neighbours can be read, and stays zero outside the free ones.
        p = np.zeros(len(xb))
        pc = p[b0:b1]
        pc[:] = r
        q = np.empty_like(r)
        xbc = xb[b0:b1]
        rr = float(np.dot(r, r))
        rr_stop = TOLERANCE * TOLERANCE * np.count_nonzero(black_mask)
        while residual > TOLERANCE and sweeps < max_sweeps:
            sweeps += 1
            to_red(p, tc)  # q = S' p
            tc *= red_weight
            to_black(t, q)
            q *= black_mask
            np.subtract(pc, q, out=q)
            alpha = rr / float(np.dot(pc, q))
            xbc += alpha * pc
            q *= alpha
            r -= q
            rr_next = float(np.dot(r, r))
            if rr_next <= rr_stop:  # rms(r) <= TOLERANCE, so max|r| may be too
                residual = max_abs(r)
                if residual <= TOLERANCE:
                    # the recurrence drifts from the true residual: recompute
                    # it, and restart from it if the tolerance is not met
                    solve_red()
                    residual = max_abs(black_residual(r))
                    rr = float(np.dot(r, r))
                    pc[:] = r
                    continue
            pc *= rr_next / rr
            pc += r
            rr = rr_next
        if residual > TOLERANCE:  # stopped at the cap: fill in red, report the true residual
            solve_red()
            residual = max_abs(black_residual(r))
    return PotentialField(np.ascontiguousarray(phi), sweeps, residual, residual <= TOLERANCE)


def _same_solve(bg, **options):
    """relax and the reference give the same phi bytes, iterations, residual and verdict."""
    field, ref = relax(bg, **options), _reference_relax(bg, **options)
    assert field.phi.shape == ref.phi.shape
    assert field.phi.tobytes() == ref.phi.tobytes()
    assert (field.sweeps, field.residual, field.converged) == (ref.sweeps, ref.residual, ref.converged)
    return field


def walled(h, w):
    """A full wall at column 2: the free cells left of it form a component with no target."""
    labels = framed(h, w)
    labels[:, 2] = OBSTACLE
    labels[h // 2, w - 2] = TARGET
    return BoundaryGrid(labels=labels, target=(w - 2, h // 2))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(boundaries(), st.sampled_from([0, 1, 2, 7, None]))
@example((walled(9, 8), None), None)                      # targetless component, even width
@example((walled(8, 9), np.full((8, 9), 0.5)), None)      # the same, warm started below 1
@example((scattered(10, 13, 1), None), 1)
@example((scattered(9, 12, 2), None), 0)
@example((scattered(11, 13, 3), None), None)
@example((scattered(12, 4, 4), None), 20 * 12)            # exactly the default cap
def test_relax_matches_the_reference_bitwise(case, max_sweeps):
    """Odd and even sides, targetless components, warm starts, and a cap of
    0, 1, a few iterations or the default: every output of relax is the
    reference's, byte for byte."""
    bg, initial = case
    _same_solve(bg, max_sweeps=max_sweeps, initial=initial)


def test_relax_matches_the_reference_bitwise_at_the_cap_and_warm():
    """A solve stopped by its cap, then a warm solve of a moved disc from its phi."""
    bg = disc_boundary(14, 12)
    capped = _same_solve(bg, max_sweeps=9)
    assert capped.sweeps == 9 and not capped.converged
    warm = _same_solve(disc_boundary(15, 12), initial=capped.phi)
    assert warm.converged


def test_relax_output_is_read_only_and_leaves_initial_alone():
    initial = np.array(relax(disc_boundary(14, 12)).phi)   # a writable copy
    before = initial.copy()
    field = relax(disc_boundary(15, 12), initial=initial)
    assert not field.phi.flags.writeable
    assert np.array_equal(initial, before)
    with pytest.raises(ValueError):
        field.phi[1, 1] = 0.5


def test_relax_options_are_keyword_only():
    bg = disc_boundary(14, 12)
    with pytest.raises(TypeError):
        relax(bg, 1e-10)


# -- gradient field


def linear_field(w=12, h=10):
    labels = np.zeros((h, w), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[h // 2, w - 2] = TARGET
    bg = BoundaryGrid(labels=labels, target=(w - 2, h // 2))
    phi = np.tile(np.linspace(1.0, 0.0, w), (h, 1))
    field = relax(bg, max_sweeps=0, initial=phi)
    return bg, field


def test_gradient_of_linear_potential():
    bg, field = linear_field()
    grad = gradient(field, bg)
    inner = (slice(2, -2), slice(2, -2))
    np.testing.assert_allclose(grad.vx[inner], 1.0, atol=1e-12)
    np.testing.assert_allclose(grad.vy[inner], 0.0, atol=1e-12)


def test_gradient_unit_norm_or_flat():
    rng = np.random.default_rng(8)
    bg = random_boundary(rng)
    grad = gradient(relax(bg), bg)
    mag = np.hypot(grad.vx, grad.vy)
    assert ((np.abs(mag - 1.0) < 1e-12) | grad.flat).all()
    assert grad.flat[bg.labels != FREE].all()
    assert (mag[grad.flat] == 0.0).all()


def test_gradient_flat_component():
    labels = np.zeros((12, 12), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[:, 5] = OBSTACLE
    labels[6, 8] = TARGET
    bg = BoundaryGrid(labels=labels, target=(8, 6))
    grad = gradient(relax(bg), bg)
    assert grad.flat[1:-1, 1:5].all()
    assert not grad.flat[1:-1, 6:-1].all()


def _reference_gradient(field, boundary):
    """gradient with one nested np.where over the four cases of a neighbour pair, the rule that
    one difference of substituted neighbours replaced: kept to check `gradient` bit for bit."""
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
    flat = fixed | (mag < EPS_FLAT)
    with np.errstate(invalid="ignore", divide="ignore"):
        vx = np.where(flat, 0.0, -dx / mag)
        vy = np.where(flat, 0.0, -dy / mag)
    for a in (vx, vy, flat):
        a.setflags(write=False)
    return GradientField(vx, vy, flat, labels, boundary.target)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(boundaries())
@example((corridor(3, 17), None))
@example((corridor(18, 3, vertical=True), None))
@example((bent_corridor(9, 12), None))
@example((bent_corridor(10, 11), np.full((10, 11), 0.5)))   # equal neighbours: zero differences
@example((walled(9, 8), None))                             # a flat, targetless component
def test_gradient_matches_the_reference_bitwise(case):
    """Framed grids of any side from 3 (1-cell corridors included), on a solved field or, with a
    warm start, on the start itself, ties and all: vx, vy and flat are the reference's, byte for
    byte, signed zeros included."""
    bg, initial = case
    field = relax(bg) if initial is None else relax(bg, max_sweeps=0, initial=initial)
    grad, ref = gradient(field, bg), _reference_gradient(field, bg)
    for got, want in ((grad.vx, ref.vx), (grad.vy, ref.vy), (grad.flat, ref.flat)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# -- descent


def test_descend_adjacent_to_target():
    labels = np.zeros((15, 15), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[5, 5] = TARGET
    bg = BoundaryGrid(labels=labels, target=(5, 5))
    grad = gradient(relax(bg), bg)
    points, reason = descend(grad, (6, 5))
    assert reason == "reached"
    assert len(points) <= 2


def test_descend_flat_component():
    labels = np.zeros((12, 12), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[:, 5] = OBSTACLE
    labels[6, 8] = TARGET
    bg = BoundaryGrid(labels=labels, target=(8, 6))
    grad = gradient(relax(bg), bg)
    points, reason = descend(grad, (2, 3))
    assert reason == "flat"
    assert len(points) == 1


def test_descend_rejects_obstacle_start():
    rng = np.random.default_rng(1)
    bg = random_boundary(rng)
    grad = gradient(relax(bg), bg)
    with pytest.raises(ValueError):
        descend(grad, (0, 0))


def scatter_discs(rng, labels, lo, hi, n_discs, r_lo=2, r_hi=5, clearance=3):
    """Random discs kept clear of the frame and of each other, so no channel
    narrows to the point where the potential saturates below EPS_FLAT."""
    yy, xx = np.mgrid[0 : labels.shape[0], 0 : labels.shape[1]]
    placed = []
    for _ in range(n_discs):
        for _ in range(50):
            cx, cy = (int(v) for v in rng.integers(lo, hi, 2))
            r = int(rng.integers(r_lo, r_hi + 1))
            if all(np.hypot(cx - px, cy - py) >= r + pr + clearance for px, py, pr in placed):
                placed.append((cx, cy, r))
                labels[(xx - cx) ** 2 + (yy - cy) ** 2 <= r * r] = OBSTACLE
                break
    return labels


def test_descend_reaches_from_every_connected_cell():
    """Property behind the guidance guarantee: on random scenes every
    target-connected FREE cell descends to the target without touching
    an obstacle cell."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        labels = np.zeros((40, 40), np.int8)
        labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
        scatter_discs(rng, labels, 9, 31, int(rng.integers(2, 5)))
        frees = np.argwhere(labels == FREE)
        ty, tx = frees[int(rng.integers(len(frees)))]
        labels[ty, tx] = TARGET
        bg = BoundaryGrid(labels=labels, target=(int(tx), int(ty)))
        grad = gradient(relax(bg), bg)
        for cell in free_cells_connected_to_target(labels, bg.target):
            points, reason = descend(grad, cell)
            assert reason == "reached", (cell, reason)
            for px, py in points:
                assert labels[int(py), int(px)] != OBSTACLE, (cell, (px, py))


def test_is_reachable():
    """A component walled off from the target reads flat everywhere; the target side does not."""
    labels = np.zeros((12, 12), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[:, 5] = OBSTACLE
    labels[6, 8] = TARGET
    bg = BoundaryGrid(labels=labels, target=(8, 6))
    grad = gradient(relax(bg), bg)
    walled_off = labels[:, :5] == FREE
    assert walled_off.any() and grad.flat[:, :5][walled_off].all()
    target_side = labels[:, 6:] == FREE
    assert (~grad.flat[:, 6:][target_side]).any()
    assert not grad.flat[6, 7] and not grad.flat[5, 8]  # the target's own neighborhood
