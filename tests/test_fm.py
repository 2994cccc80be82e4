import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpfnav.fm import Track, cost_ratio, fm_arrival, fm_path, path_reference
from hpfnav.hpf import FREE, OBSTACLE, TARGET, BoundaryGrid
from hpfnav.workspace import WorldPose


def make_boundary(w, h, target, obstacles=()):
    labels = np.zeros((h, w), np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    for x, y in obstacles:
        labels[y, x] = OBSTACLE
    labels[target[1], target[0]] = TARGET
    return BoundaryGrid(labels=labels, target=target)


def dijkstra8(labels, target):
    """8-connected shortest path with diagonal weight sqrt(2)."""
    h, w = labels.shape
    dist = np.full((h, w), np.inf)
    dist[target[1], target[0]] = 0.0
    heap = [(0.0, target[1], target[0])]
    while heap:
        d, y, x = heapq.heappop(heap)
        if d > dist[y, x]:
            continue
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                ny, nx = y + dy, x + dx
                if not (0 <= ny < h and 0 <= nx < w) or labels[ny, nx] == OBSTACLE:
                    continue
                nd = d + math.hypot(dx, dy)
                if nd < dist[ny, nx]:
                    dist[ny, nx] = nd
                    heapq.heappush(heap, (nd, ny, nx))
    return dist


def test_arrival_zero_at_target():
    bg = make_boundary(20, 20, (10, 10))
    T = fm_arrival(bg)
    assert T[10, 10] == 0.0
    assert T[10, 11] == pytest.approx(1.0)


def test_arrival_inf_on_obstacles():
    bg = make_boundary(20, 20, (10, 10), obstacles=[(5, 5)])
    T = fm_arrival(bg)
    assert math.isinf(T[5, 5])
    assert math.isinf(T[0, 0])


def test_arrival_near_euclidean_on_empty_grid():
    bg = make_boundary(50, 50, (25, 25))
    T = fm_arrival(bg)
    yy, xx = np.mgrid[0:50, 0:50]
    euclid = np.hypot(xx - 25, yy - 25)
    free = bg.labels != OBSTACLE
    rel = np.abs(T[free] - euclid[free]) / np.maximum(euclid[free], 1e-12)
    rel[euclid[free] == 0] = 0.0
    assert rel.max() <= 0.10


def test_arrival_vs_dijkstra_bounds():
    """First-order upwind arrival versus the 8-connected grid metric.

    The continuous-metric solve undercuts the grid metric on most cells but
    overshoots near the source (rarefaction error), so the honest bounds
    are: never below Euclidean, within 10% of it on an empty grid, and
    below Dijkstra on the bulk of the cells.
    """
    bg = make_boundary(50, 50, (10, 40))
    T = fm_arrival(bg)
    D = dijkstra8(bg.labels, (10, 40))
    free = bg.labels != OBSTACLE
    yy, xx = np.mgrid[0:50, 0:50]
    euclid = np.hypot(xx - 10, yy - 40)
    assert (T[free] >= euclid[free] - 1e-9).all()
    assert (T[free] <= D[free] + 1.25).all()
    frac_below = (T[free] <= D[free] + 1e-9).mean()
    assert frac_below >= 0.85


def test_arrival_with_wall_detours():
    wall = [(25, y) for y in range(1, 40)]
    bg = make_boundary(50, 50, (40, 25), obstacles=wall)
    T = fm_arrival(bg)
    direct = math.hypot(40 - 10, 0)
    assert T[25, 10] > direct  # has to loop under the wall
    assert math.isfinite(T[25, 10])


def _reference_fm_arrival(boundary):
    """fm_arrival as a (t, y, x) heap over 2-D numpy arrays with bounds tests."""
    labels = boundary.labels
    n, m = labels.shape
    blocked = labels == OBSTACLE
    T = np.full((n, m), np.inf)
    tx, ty = boundary.target
    T[ty, tx] = 0.0
    heap = [(0.0, ty, tx)]
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            y, x = ty + dy, tx + dx
            if 0 <= y < n and 0 <= x < m and not blocked[y, x]:
                T[y, x] = math.hypot(dx, dy)
                heap.append((T[y, x], y, x))
    heapq.heapify(heap)
    done = np.zeros((n, m), dtype=bool)
    while heap:
        t, y, x = heapq.heappop(heap)
        if done[y, x] or t > T[y, x]:
            continue
        done[y, x] = True
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            yy, xx = y + dy, x + dx
            if not (0 <= yy < n and 0 <= xx < m) or blocked[yy, xx] or done[yy, xx]:
                continue
            a = min(T[yy, xx - 1] if xx > 0 else math.inf,
                    T[yy, xx + 1] if xx < m - 1 else math.inf)
            b = min(T[yy - 1, xx] if yy > 0 else math.inf,
                    T[yy + 1, xx] if yy < n - 1 else math.inf)
            if a > b:
                a, b = b, a
            if b - a >= 1.0 or b == math.inf:
                t_new = a + 1.0
            else:
                t_new = 0.5 * (a + b + math.sqrt(2.0 - (a - b) ** 2))
            if t_new < T[yy, xx]:
                T[yy, xx] = t_new
                heapq.heappush(heap, (t_new, yy, xx))
    return T


@st.composite
def _framed_grids(draw):
    """A closed obstacle frame around random obstacles; the target may sit on the frame."""
    n, m = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.where(rng.random((n, m)) < density, OBSTACLE, FREE).astype(np.int8)
    labels[0, :] = labels[-1, :] = labels[:, 0] = labels[:, -1] = OBSTACLE
    tx, ty = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    labels[ty, tx] = TARGET
    return BoundaryGrid(labels=labels, target=(tx, ty))


def _assert_matches_reference(bg):
    T = fm_arrival(bg)
    assert T.dtype == np.float64
    assert T.shape == bg.labels.shape
    assert T.flags["C_CONTIGUOUS"]
    assert T.tobytes() == _reference_fm_arrival(bg).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_framed_grids())
# some of the 8 seeded neighbours are blocked
@example(make_boundary(9, 8, (3, 3), obstacles=[(2, 2), (4, 3), (3, 4), (4, 4)]))
@example(make_boundary(6, 5, (0, 0)))    # target in a corner of the frame
@example(make_boundary(7, 9, (6, 4)))    # target on the right edge of the frame
def test_arrival_matches_the_reference_bitwise(bg):
    _assert_matches_reference(bg)


def test_arrival_matches_the_reference_on_fullres(scenario_dir):
    from hpfnav.hpf import build_boundary
    from hpfnav.vision import detect_edges
    from hpfnav.workspace import load_scenario

    sc = load_scenario(scenario_dir / "fullres.json")
    bg = build_boundary(detect_edges(sc.build_image(), sc.vision), sc.target)
    _assert_matches_reference(bg)


def test_path_neighbor_start():
    bg = make_boundary(20, 20, (10, 10))
    T = fm_arrival(bg)
    path = fm_path(T, (11, 10), gd=0.1)
    assert len(path) <= 3


def test_path_near_straight_on_empty_grid():
    bg = make_boundary(50, 50, (44, 25))
    T = fm_arrival(bg)
    path = fm_path(T, (5, 25), gd=0.1)
    length = np.hypot(*np.diff(path, axis=0).T).sum()
    straight = math.hypot((44 - 5) * 0.1, 0.0)
    assert length <= 1.05 * straight


def test_path_descends_arrival_time():
    bg = make_boundary(40, 40, (30, 8), obstacles=[(20, y) for y in range(1, 30)])
    T = fm_arrival(bg)
    path = fm_path(T, (5, 20), gd=1.0)
    cells = [(int(x), int(y)) for x, y in path]
    samples = [T[cy, cx] for cx, cy in cells if math.isfinite(T[cy, cx])]
    changes = [samples[i + 1] - samples[i] for i in range(len(samples) - 1)
               if samples[i + 1] != samples[i]]
    assert changes and all(c < 0 for c in changes)


def test_path_unreachable_start():
    bg = make_boundary(20, 20, (15, 15), obstacles=[(5, y) for y in range(20)])
    T = fm_arrival(bg)
    with pytest.raises(ValueError):
        fm_path(T, (2, 10), gd=0.1)


def test_path_reference_walks_ahead():
    path = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [1.0, 0.0]])
    (rx, ry), examined = path_reference(Track(path), WorldPose(0.1, 0.0, 0.0), 0.05)
    assert (rx, ry) == (0.2, 0.0)  # first point past d_0 from the nearest
    assert examined == len(path)


def test_path_reference_falls_back_to_last():
    path = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    (rx, ry), _ = path_reference(Track(path), WorldPose(0.19, 0.001, 0.0), 5.0)
    assert (rx, ry) == (0.2, 0.0)


def test_path_reference_off_path_pose():
    path = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    (rx, ry), _ = path_reference(Track(path), WorldPose(0.4, 2.0, 0.0), 0.2)
    assert ry == 0.0  # the reference stays on the path no matter the pose


def _scalar_path_reference(path, pose, d_0):
    """path_reference with the arc length summed one numpy-scalar hop at a time."""
    d = np.hypot(path[:, 0] - pose.x, path[:, 1] - pose.y)
    nearest = int(np.argmin(d))
    acc = 0.0
    idx = nearest
    for j in range(nearest + 1, len(path)):
        acc += float(np.hypot(*(path[j] - path[j - 1])))
        idx = j
        if acc >= d_0:
            break
    else:
        idx = len(path) - 1
    return (float(path[idx, 0]), float(path[idx, 1])), len(path)


_coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
_LINE = np.linspace([0.0, 0.0], [1.0, 0.5], 9)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 60), st.just(2)), elements=_coords),
       _coords, _coords, st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.just(1e9)))
@example(_LINE, 1.0, 0.5, 0.3)      # nearest is the last point
@example(_LINE, 0.2, 0.1, 50.0)     # d_0 beyond the end of the path
@example(_LINE, 0.2, 0.1, 0.0)      # d_0 = 0: the next point
def test_path_reference_matches_the_scalar_scan(path, x, y, d_0):
    pose = WorldPose(x, y, 0.0)
    assert path_reference(Track(path), pose, d_0) == _scalar_path_reference(path, pose, d_0)


def test_cost_ratio_printed_values():
    c_tm, c_ed, ratio = cost_ratio(320, 240, 20, 7)
    assert c_tm == 26_400_000
    assert c_ed == 3_573_521
    assert 7.3 <= ratio <= 7.4


def test_cost_ratio_equal_sides():
    _, _, ratio = cost_ratio(320, 240, 9, 9)
    assert ratio == 1.0


def test_cost_ratio_scales_quadratically():
    c1, e1, r1 = cost_ratio(320, 240, 20, 7)
    c2, e2, r2 = cost_ratio(640, 480, 20, 7)
    assert 3.7 <= c2 / c1 <= 4.4
    assert 3.7 <= e2 / e1 <= 4.4
    # finite-size ratios sit below the asymptote (t/k)^2 and creep toward it
    asymptote = (20 / 7) ** 2
    assert r1 < r2 < asymptote
    assert r2 / r1 <= 1.10
