import collections
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpfnav import hpf
from hpfnav.hpf import (
    COARSE_CELLS,
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
from hpfnav.workspace import Disc, load_scenario


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


@pytest.mark.parametrize("n, m", [(12, 12), (200, 240)], ids=["plain", "two-level"])
def test_relax_targetless_component_stays_one(n, m):
    """On the two-level grid the wall runs through the first column of blocks, so a block holds
    cells on both of its sides: the pocket stays exactly 1 only because relax pins the free cells
    that cannot reach the target before it builds the blocks."""
    labels = np.zeros((n, m), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    labels[:, 5] = OBSTACLE  # full wall: left component has no target
    labels[n // 2, m - 4] = TARGET
    bg = BoundaryGrid(labels=labels, target=(m - 4, n // 2))
    assert (n * m >= COARSE_CELLS) == (n > 12)
    assert n == 12 or hpf.block_side(n, m) > 5
    field = relax(bg)
    assert field.converged
    left = field.phi[1:-1, 1:5]
    assert (left == 1.0).all()
    assert gradient(field, bg).flat[1:-1, 1:5].all()
    right = field.phi[1:-1, 6:-1]
    assert (right < 1.0).all()


def test_relax_warm_start_pins_a_cut_off_pocket_at_one():
    """A disc stamped into the one gap of a wall cuts the free cells behind it off from the target.
    Warm started from the field before the cut, the two-level path pins that pocket at exactly 1, so
    it reads flat; plain CG would only bring it within the tolerance of 1, where the gradient of
    the old field's remains still points somewhere."""
    n, m = 200, 240
    labels = framed(n, m)
    labels[:, 60] = OBSTACLE
    labels[90:110, 60] = FREE  # the gap
    labels[100, 200] = TARGET
    before = BoundaryGrid(labels=labels, target=(200, 100))
    assert n * m >= COARSE_CELLS
    cold = relax(before)
    assert cold.converged and (cold.phi[1:-1, 1:60] < 1.0).all()
    cut = labels.copy()
    yy, xx = np.mgrid[:n, :m]
    cut[((xx - 60) ** 2 + (yy - 100) ** 2 <= 12 * 12) & (cut == FREE)] = OBSTACLE
    after = BoundaryGrid(labels=cut, target=(200, 100))
    warm = relax(after, initial=cold.phi)
    assert warm.converged
    pocket = (cut == FREE) & (xx < 60)
    assert pocket.sum() > 100 * 50
    assert (warm.phi[pocket] == 1.0).all()
    assert gradient(warm, after).flat[pocket].all()
    np.testing.assert_allclose(warm.phi, relax(after).phi, rtol=0, atol=TOLERANCE * (n - 1) ** 2)


def test_two_level_relax_solves_every_component_that_holds_a_target_cell():
    """A BoundaryGrid may label more cells TARGET than its `target`: a walled-off component that
    holds one is solved on the two-level path, as on plain CG, and not pinned at 1."""
    n, m = 200, 240
    labels = framed(n, m)
    labels[:, 60] = OBSTACLE
    labels[100, 200] = labels[100, 30] = TARGET
    bg = BoundaryGrid(labels=labels, target=(200, 100))
    assert n * m >= COARSE_CELLS
    field = relax(bg)
    assert field.converged
    assert (field.phi[1:-1, 1:60] < 1.0).all() and (field.phi[1:-1, 61:-1] < 1.0).all()


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


def scene_boundary(scenario):
    return build_boundary(build_scene(scenario).edges, scenario.target)


def doubled(scenario):
    """The scenario with every coordinate, radius and side of its scene doubled, and its target."""
    shapes = [replace(s, cx=2 * s.cx, cy=2 * s.cy, r=2 * s.r) if isinstance(s, Disc)
              else replace(s, x0=2 * s.x0, y0=2 * s.y0, x1=2 * s.x1, y1=2 * s.y1) for s in scenario.shapes]
    tx, ty = scenario.target
    return replace(scenario, width=2 * scenario.width, height=2 * scenario.height, shapes=shapes,
                   target=(2 * tx, 2 * ty))


@pytest.fixture(scope="module")
def camera_frames(scenario_dir):
    """fullres's boundary at 320 x 240, and at 640 x 480 (`MAX_CELLS`) with its scene doubled;
    and a 200 x 201 grid, odd in width, walled off at column 2."""
    fullres = load_scenario(scenario_dir / "fullres.json")
    return {"fullres": scene_boundary(fullres), "fullres-vga": scene_boundary(doubled(fullres)),
            "walled-odd-w": walled(200, 201)}


@pytest.mark.parametrize("grid, max_sweeps", [  # the small grid's cases keep their ids
    pytest.param(grid, cap, id=str(cap) if grid == "scattered" else "%s-%s" % (grid, cap))
    for grid in ("scattered", "fullres", "fullres-vga") for cap in (0, 1, 5, None)])
def test_relax_reports_the_true_residual(grid, max_sweeps, camera_frames):
    """Whether it stops at the cap or converges, the reported residual is
    max|mean4 - phi| over the free cells of the returned phi, on plain CG and
    on the two-level path (fullres at 320 x 240 and at 640 x 480)."""
    bg = scattered(9, 12, 6) if grid == "scattered" else camera_frames[grid]
    field = relax(bg, max_sweeps=max_sweeps)
    phi = field.phi
    mean4 = 0.25 * (phi[:-2, 1:-1] + phi[2:, 1:-1] + phi[1:-1, :-2] + phi[1:-1, 2:])
    true = np.abs(mean4 - phi[1:-1, 1:-1])[bg.labels[1:-1, 1:-1] == FREE].max()
    assert field.residual == pytest.approx(true, rel=1e-6, abs=1e-15)
    assert field.converged == (max_sweeps is None)


@pytest.mark.parametrize("name", ["comparison", "fullres"])
def test_relax_restarts_when_the_recomputed_residual_misses_the_tolerance(name, scenario_dir, monkeypatch):
    """At a tolerance of 1e-15 on comparison's boundary (plain CG) and on fullres's (two-level),
    the recurrence meets it once before the true residual does: relax recomputes the residual,
    restarts CG from it, and stops on the true one."""
    monkeypatch.setattr(hpf, "TOLERANCE", 1e-15)
    bg = scene_boundary(load_scenario(scenario_dir / (name + ".json")))
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
@example((disc_boundary(100, 99, w=201, h=199, r=30), None), None)   # the largest grid below COARSE_CELLS
def test_relax_matches_the_reference_bitwise(case, max_sweeps):
    """Odd and even sides, targetless components, warm starts, and a cap of
    0, 1, a few iterations or the default: every output of relax is the
    reference's, byte for byte, on every grid below `COARSE_CELLS`."""
    bg, initial = case
    assert bg.labels.size < COARSE_CELLS
    _same_solve(bg, max_sweeps=max_sweeps, initial=initial)


def test_the_two_level_path_starts_at_coarse_cells():
    """199 x 201 is the largest grid on plain CG (checked bit for bit above); 200 x 200, the
    smallest on the two-level path, already needs fewer iterations than the reference."""
    assert 199 * 201 < COARSE_CELLS == 200 * 200
    bg = disc_boundary(100, 100, w=200, h=200, r=30)
    field, ref = relax(bg), _reference_relax(bg)
    assert field.converged and ref.converged
    assert field.sweeps < ref.sweeps
    np.testing.assert_allclose(field.phi, ref.phi, rtol=0, atol=TOLERANCE * 199 ** 2)


@pytest.mark.parametrize("grid, cap", [("fullres", 120), ("fullres-vga", 250), ("walled-odd-w", 100)])
def test_two_level_relax_solves_a_camera_frame_in_few_iterations(grid, cap, camera_frames):
    """fullres at 320 x 240 and at 640 x 480, and a walled grid of odd width, where the last block
    takes the frame column, converge in at most `cap` iterations, where the reference (plain CG)
    takes 394, 763 and 282; every free cell that cannot reach the target stays exactly 1 and flat,
    and both phi agree within TOLERANCE (s - 1)^2, s the shorter side.  Why: each solve stops with
    |mean4(phi) - phi| <= TOLERANCE on every free cell,
    so its error e against the exact solution solves (I - P) e = rho with P the mean of the 4
    neighbours (0 on fixed ones) and |rho| <= TOLERANCE.  Then |e| <= TOLERANCE E[T], with T the
    steps a random walk from the cell takes before it meets a fixed cell.  The walk stays between
    two frame rows (or columns) s - 1 apart, and with u the product of its distances to them,
    u(walk) + T / 2 is a martingale, since each step moves across with probability 1/2: so
    E[T] <= 2 max u = (s - 1)^2 / 2, and the two solves differ by at most twice that."""
    bg = camera_frames[grid]
    n, m = bg.labels.shape
    assert n * m >= COARSE_CELLS
    field, ref = relax(bg), _reference_relax(bg)
    assert field.converged and field.residual <= TOLERANCE
    assert field.sweeps <= cap < ref.sweeps
    components, _ = ndimage.label(bg.labels != OBSTACLE)
    pocket = (bg.labels == FREE) & (components != components[bg.target[1], bg.target[0]])
    assert pocket.any()
    assert (field.phi[pocket] == 1.0).all() and gradient(field, bg).flat[pocket].all()
    np.testing.assert_allclose(field.phi, ref.phi, rtol=0, atol=TOLERANCE * (min(n, m) - 1) ** 2)


def _layout(free):
    """`relax`'s layout of a free mask: the arguments of `hpf._coarse_space` but the block side,
    and the row and column of each black cell of the span."""
    n, m = free.shape
    mo = m | 1
    flat = np.zeros((n, mo), bool)
    flat[:, :m] = free
    flat = flat.reshape(-1)
    r0, r1, b0, b1 = (mo + 1) // 2, ((n - 1) * mo + 1) // 2, mo // 2, (n - 1) * mo // 2
    rows, cols = np.divmod(2 * np.arange(b0, b1) + 1, mo)
    return (flat[0::2][r0:r1].copy(), flat[1::2][b0:b1].astype(float), mo, r0, b0), rows, cols


@pytest.mark.parametrize("n, m", [(203, 205), (200, 240)], ids=["odd-w", "even-w"])
def test_coarse_correction_is_the_galerkin_product(n, m):
    """The correction z = r + Z E^-1 Z^T r of the two-level path uses E = Z^T S' Z to the bit.
    Here Z^T S' Z is formed from one product by S' per block indicator, S' taken on the 2-D grid,
    and inverted as `_coarse_space` documents (row and column k and empty blocks of the identity);
    on a unit r at a free black cell of block a, the correction is r plus column a of that inverse
    exactly.  Walls cut blocks, one block has no free cell, and every fixed black cell gets 0."""
    side = hpf.block_side(n, m)
    rng = np.random.default_rng(n)
    labels = framed(n, m)
    labels[1:-1, 1:-1][rng.random((n - 2, m - 2)) < 0.1] = OBSTACLE
    labels[:, 3 * side + 5] = OBSTACLE
    labels[90:97, 3 * side + 5] = FREE
    labels[2 * side + 3, 1:-1] = OBSTACLE
    labels[side - 1 : 2 * side + 1, side - 1 : 2 * side + 1] = OBSTACLE  # block (1, 1) is empty
    free = labels == FREE
    args, rows, cols = _layout(free)
    correct = hpf._coarse_space(*args, side)
    black_mask = args[1]
    on = black_mask == 1.0
    blocks_across = -(-(args[2] - 1) // side)
    k = -(-(n - 1) // side) * blocks_across
    block = np.where(on, (rows // side) * blocks_across + np.minimum(cols // side, blocks_across - 1), k)
    grid = np.zeros((n, args[2]), bool)  # padded to the odd row length, as relax lays it out
    grid[:, :m] = free
    yy, xx = np.indices(grid.shape)
    red, black = grid & ((yy + xx) % 2 == 0), grid & ((yy + xx) % 2 == 1)

    def nbr_sum(a):
        out = np.zeros_like(a)
        out[1:-1, 1:-1] = a[1:-1, :-2] + a[1:-1, 2:] + a[2:, 1:-1] + a[:-2, 1:-1]
        return out

    e = np.zeros((k + 1, k + 1))
    for b in range(k):
        z_b = np.zeros(grid.shape)
        z_b[rows[block == b], cols[block == b]] = 1.0
        product = np.where(black, z_b - nbr_sum(np.where(red, nbr_sum(z_b) / 16, 0.0)), 0.0)
        e[:, b] = np.bincount(block, weights=product[rows, cols], minlength=k + 1)
    e[k] = e[:, k] = 0.0
    empty = np.bincount(block, minlength=k + 1) == 0
    assert empty[:k].any()
    empty[k] = True
    e[empty, empty] = 1.0
    inverse = np.linalg.inv(e)
    inverse[k, k] = 0.0
    z = np.empty(len(black_mask))
    for a in np.flatnonzero(~empty):
        r = np.zeros(len(black_mask))
        r[np.flatnonzero(block == a)[0]] = 1.0
        correct(r, z)
        assert z.tobytes() == (inverse[block, a] + r).tobytes()
        assert (z[~on] == 0.0).all()


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
