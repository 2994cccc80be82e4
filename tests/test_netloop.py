"""Networked-loop tests: delay lines and closed-loop runs."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from hpfnav import analysis, hpf, netloop, plant, vision, workspace
from hpfnav.controller import Command
from hpfnav.netloop import (
    CSV_COLUMNS,
    RECORD_COLUMNS,
    DelayLine,
    Packet,
    _make_lines,
    _stamp_agents,
    _Vehicle,
    build_scene,
    prepare,
    run_loop,
    run_multi,
)
from hpfnav.workspace import (
    AgentSpec,
    DelayConfig,
    Rect,
    Scenario,
    VisionConfig,
    WorldPose,
    load_scenario,
    pixel_to_world,
    world_to_pixel,
)


# --- delay line ---------------------------------------------------------------


def _pkt(seq, t):
    return Packet("pose", seq, t, (0.0, 0.0, 0.0))


def test_delayline_zero_delay_delivers_at_once():
    line = DelayLine(0.0)
    assert line.push(_pkt(0, 0.0)) == 0.0


def test_delayline_constant_delay():
    line = DelayLine(0.3)
    assert [line.push(_pkt(k, 1.0 + k)) for k in range(3)] == [0.3, 0.3, 0.3]


def test_delayline_deadline_discards():
    line = DelayLine(0.6, deadline=0.5)
    assert line.push(_pkt(0, 0.0)) is None
    assert DelayLine(0.5, deadline=0.5).push(_pkt(0, 0.0)) == 0.5


def test_delayline_drop_all():
    line = DelayLine(0.1, drop_prob=1.0)
    assert [line.push(_pkt(k, 0.1 * k)) for k in range(5)] == [None] * 5


class _Recording:
    """A channel that keeps every packet pushed through it, and its fate: a delay, or None if lost."""

    def __init__(self, line):
        self.line = line
        self.sent = []
        self.fates = []

    def push(self, pkt):
        self.sent.append(pkt)
        self.fates.append(self.line.push(pkt))
        return self.fates[-1]


def _column(log, name):
    """One column of a run's records, by its RECORD_COLUMNS name."""
    return log.records[:, RECORD_COLUMNS.index(name)]


def test_delayline_fifo_order(open_scenario, open_state):
    """With zero jitter the engine delivers poses in frame order, one record per frame."""
    uplink = _Recording(DelayLine(0.3))
    log = run_loop(open_scenario, open_state, uplink=uplink, downlink=DelayLine(0.3))
    assert log.outcome == "reached"
    assert [p.seq for p in uplink.sent] == list(range(len(uplink.sent)))
    obs = [p.payload for p in uplink.sent[:len(log.records)]]
    assert log.records[:, 4:7].tolist() == [[o.x, o.y, o.theta] for o in obs]   # x_obs, y_obs, theta_obs
    assert _column(log, "t").tolist() == [p.send_time + 0.3 for p in uplink.sent[:len(log.records)]]


def test_packet_is_handled_at_its_own_delivery_time(open_scenario, open_state):
    """0.4 s each way is two 5 Hz frame periods, yet no sample moves to a frame's time."""
    sc = dataclasses.replace(open_scenario, delay=dataclasses.replace(open_scenario.delay, constant_s=0.8))
    log = run_loop(sc, open_state)
    assert log.outcome == "reached" and len(log.records) > 100
    f = 0.0
    for t, delay_up in zip(_column(log, "t").tolist(), _column(log, "delay_up").tolist()):
        assert t == f + delay_up   # no drops and no jitter: record k carries frame k's pose
        f += 1.0 / sc.camera.rate_hz


def test_delayline_jitter_bounds():
    line = DelayLine(0.3, jitter=0.1, seed=11)
    delays = [line.push(_pkt(k, 0.0)) for k in range(200)]
    assert all(d is not None for d in delays)
    assert all(0.2 - 1e-12 <= d <= 0.4 + 1e-12 for d in delays)
    assert len(set(delays)) > 10


def test_delayline_validation():
    with pytest.raises(ValueError):
        DelayLine(-0.1)
    with pytest.raises(ValueError):
        DelayLine(0.1, jitter=-0.2)
    with pytest.raises(ValueError):
        DelayLine(0.1, drop_prob=1.5)


# --- single-vehicle closed loop -----------------------------------------------


@pytest.fixture(scope="module")
def open_scenario(scenario_dir):
    return load_scenario(scenario_dir / "open.json")


@pytest.fixture(scope="module")
def open_state(open_scenario):
    return prepare(open_scenario)


def test_zero_delay_run_reaches_target(open_scenario, open_state):
    log = run_loop(open_scenario, state=open_state)
    assert log.outcome == "reached"
    assert not log.any_collision
    assert 0.0 < log.total_time < open_scenario.timeout_s
    tx, ty = _column(log, "x_obs")[0], _column(log, "y_obs")[0]  # sanity: obs in frame
    assert 0.0 <= tx and 0.0 <= ty
    end = log.trace[-1]
    goal = (open_scenario.target[0] + 0.5) * open_scenario.gd, (
        open_scenario.target[1] + 0.5
    ) * open_scenario.gd
    assert math.hypot(end[1] - goal[0], end[2] - goal[1]) <= open_scenario.goal_radius + 1e-9
    times = _column(log, "t").tolist()
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(1 <= d <= 32 for d in _column(log, "delta_l").tolist())


def test_timeout_outcome(open_scenario, open_state):
    short = dataclasses.replace(open_scenario, timeout_s=1.0)
    log = run_loop(short, state=open_state)
    assert log.outcome == "timeout"
    assert log.total_time == 1.0
    assert log.trace[-1][0] == pytest.approx(1.0, abs=1e-9)


def test_fm_planner_reaches(open_scenario):
    sc = dataclasses.replace(open_scenario, planner="fm")
    log = run_loop(sc)
    assert log.outcome == "reached"
    assert not log.any_collision
    assert (_column(log, "delta_l") == 0).all()  # no field hops on the path tracker


def test_unreachable_scenario_stops_early(scenario_dir):
    sc = load_scenario(scenario_dir / "barrier.json")
    log = run_loop(sc)
    assert log.outcome == "unreachable"
    end = log.trace[-1]
    moved = math.hypot(end[1] - sc.start.x, end[2] - sc.start.y)
    assert moved < 2 * sc.gd
    assert _column(log, "delta_l")[-1] == 0


def test_unreachable_fm_has_no_path(scenario_dir):
    sc = dataclasses.replace(load_scenario(scenario_dir / "barrier.json"), planner="fm")
    log = run_loop(sc)
    assert log.outcome == "unreachable"
    assert log.total_time == 0.0
    assert log.records.shape == (0, len(RECORD_COLUMNS))


def test_reversal_starts_backward(scenario_dir):
    sc = load_scenario(scenario_dir / "reversal.json")
    log = run_loop(sc)
    assert log.outcome == "reached"
    assert _column(log, "v_cmd")[0] < 0.0
    assert (_column(log, "v_cmd") > 0.0).any()
    assert not log.any_collision


class _OneShotDownlink:
    """Delivers the first command instantly, silently loses the rest."""

    def __init__(self):
        self._used = False

    def push(self, pkt):
        if self._used:
            return None
        self._used = True
        return 0.0


def test_watchdog_zeroes_stale_command(open_scenario, open_state):
    sc = dataclasses.replace(open_scenario, timeout_s=3.0)
    log = run_loop(sc, state=open_state, uplink=DelayLine(0.0), downlink=_OneShotDownlink())
    assert log.outcome == "timeout"
    tr = log.trace  # columns t, x, y, theta, v, omega
    before = tr[(tr[:, 0] > 0.1) & (tr[:, 0] < 0.9)]
    after = tr[tr[:, 0] > 1.1]
    assert (before[:, 4] > 0).all()
    assert (after[:, 4] == 0.0).all()
    # frozen in place once the watchdog fires
    assert np.ptp(after[:, 1]) < 1e-12 and np.ptp(after[:, 2]) < 1e-12
    assert before[:, 1].max() > tr[0, 1] + 0.05


def test_drop_everything_never_moves(open_scenario, open_state):
    sc = dataclasses.replace(
        open_scenario,
        timeout_s=2.0,
        delay=DelayConfig(constant_s=0.0, drop_prob=1.0),
    )
    log = run_loop(sc, state=open_state)
    assert log.outcome == "timeout"
    tr = log.trace
    assert np.ptp(tr[:, 1]) == 0.0 and np.ptp(tr[:, 2]) == 0.0


def test_runlog_csv_shape(open_scenario, open_state, tmp_path):
    log = run_loop(open_scenario, state=open_state)
    out = tmp_path / "runlog.csv"
    log.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + len(log.records)
    with pytest.raises(ValueError, match="dist_err"):
        log.to_csv(out, dist_err=[0.0])


def test_the_record_array_holds_what_the_controller_saw(open_scenario, tmp_path):
    """A lossy run across a stripe too faint for the camera: records in and out of contact, commands lost."""
    sc = dataclasses.replace(open_scenario, shapes=[Rect(30, 0, 32, 47, 200)], seed=1,
                             delay=DelayConfig(constant_s=0.2, jitter_s=0.05, drop_prob=0.2))
    [(up, down)] = _make_lines(sc, 1)
    downlink = _Recording(down)
    log = run_loop(sc, uplink=up, downlink=downlink)
    lost = np.isnan(_column(log, "delay_down"))
    contact = _column(log, "collision") == 1.0
    assert lost.any() and contact.any() and not contact.all()
    assert RECORD_COLUMNS == ("t", "x", "y", "theta", "x_obs", "y_obs", "theta_obs", "v_cmd", "omega_cmd",
                              "delta_l", "delay_up", "delay_down", "collision")
    assert log.records.shape == (len(log.records), 13) and log.records.dtype == np.float64
    # every sample sent one command: delay_down is its delay, or nan where it was lost
    assert len(downlink.fates) == len(log.records)
    assert lost.tolist() == [d is None for d in downlink.fates]
    assert _column(log, "delay_down")[~lost].tolist() == [d for d in downlink.fates if d is not None]
    # collision is the rule on the row's true position, and any of it is a run in contact
    obstacle = build_scene(sc).obstacle
    assert _column(log, "collision").tolist() == [float(plant.collides(WorldPose(x, y, 0.0), obstacle, sc.gd))
                                                  for x, y in log.records[:, 1:3].tolist()]
    assert log.any_collision
    # the CSV holds every column but theta_obs, bit for bit
    log.to_csv(tmp_path / "runlog.csv")
    header, *rows = (tmp_path / "runlog.csv").read_text().splitlines()
    back = np.array([[float(f) for f in row.split(",")] for row in rows])
    names = header.replace("delta_L", "delta_l").split(",")
    assert [n for n in RECORD_COLUMNS if n not in names] == ["theta_obs"]
    for name in RECORD_COLUMNS:
        if name != "theta_obs":
            assert back[:, names.index(name)].tobytes() == _column(log, name).tobytes(), name


def test_identical_runs_are_bit_identical(open_scenario, open_state, tmp_path):
    sc = dataclasses.replace(
        open_scenario,
        delay=DelayConfig(constant_s=0.3, jitter_s=0.05, drop_prob=0.05, deadline_s=1.0),
        seed=7,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_loop(sc, state=open_state).to_csv(a)
    run_loop(sc, state=open_state).to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    other = dataclasses.replace(sc, seed=8)
    c = tmp_path / "c.csv"
    run_loop(other, state=open_state).to_csv(c)
    assert a.read_bytes() != c.read_bytes()


# --- a prepared state is used only for the scenario it was prepared for -------


@pytest.mark.parametrize("planner", ["hpf", "fm"])
def test_a_state_prepared_for_another_target_is_refused(comparison_scenario, planner):
    """Run with target (20, 14), a state prepared for (80, 14) ended hpf unreachable and fm in a timeout."""
    sc = dataclasses.replace(comparison_scenario, planner=planner)
    assert sc.target == (80, 14)
    moved = dataclasses.replace(sc, target=(20, 14))
    message = r"^target: \(20, 14\) does not match the planner state, prepared for \(80, 14\)$"
    for call in (run_loop, analysis.ideal_path):
        with pytest.raises(ValueError, match=message):
            call(moved, prepare(sc))
    assert run_loop(moved).outcome == "reached"


def test_a_state_prepared_for_another_planner_is_refused(comparison_scenario):
    """An fm scenario given an hpf state ran hpf and reported reached."""
    fm_sc = dataclasses.replace(comparison_scenario, planner="fm")
    with pytest.raises(ValueError, match="^planner: 'fm' does not match the planner state, prepared for 'hpf'$"):
        run_loop(fm_sc, prepare(comparison_scenario))


def test_a_state_prepared_for_another_scene_is_refused(open_scenario, open_state):
    """A wall open's zeta does not see: with open's state the run drove through it and reported no contact."""
    walled = dataclasses.replace(open_scenario, shapes=[Rect(30, 0, 33, 47)])
    with pytest.raises(ValueError, match=r"^shapes: \(Rect\(x0=30, .*\),\) does not match the planner state, "
                                         r"prepared for \(\)$"):
        run_loop(walled, open_state)
    assert run_loop(walled).any_collision


# --- a prepared state cannot change -------------------------------------------


def _attributes(obj) -> list:
    """The names of obj's own attributes: dataclass fields, named-tuple fields or, for any other
    hpfnav object, its instance attributes; none for anything else."""
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return list(obj._fields)
    if type(obj).__module__.startswith("hpfnav."):
        return list(vars(obj))
    return []


def _reachable(obj):
    """obj and everything reachable from it through attributes, tuples and lists."""
    yield obj
    items = obj if isinstance(obj, (tuple, list)) else [getattr(obj, name) for name in _attributes(obj)]
    for item in items:
        yield from _reachable(item)


def _assert_read_only(obj) -> list:
    """Assert that no array reachable from obj, nor an array it is a view of, can be written, and
    that no attribute of any object reachable from obj can be reassigned.  Returns the arrays."""
    reachable = list(_reachable(obj))
    arrays = [a for a in reachable if isinstance(a, np.ndarray)]
    for a in arrays:
        assert not a.flags.writeable
        assert not (isinstance(a.base, np.ndarray) and a.base.flags.writeable)
    for item in reachable:
        for name in _attributes(item):
            with pytest.raises(AttributeError):
                setattr(item, name, getattr(item, name))
    return arrays


@pytest.mark.parametrize("planner, count", [("hpf", 9), ("fm", 7)])
def test_a_prepared_state_is_read_only(open_scenario, planner, count):
    """After `state.scene.obstacle[:] = True` a run on the state reported a collision, and no error.

    hpf: the image, obstacle mask, edges, labels (twice: the boundary's and
    the gradient's), phi and the gradient's vx, vy and flat; fm: the image,
    obstacle mask, edges, labels, the path and the track's two columns."""
    sc = dataclasses.replace(open_scenario, planner=planner)
    state = prepare(sc)
    assert len(_assert_read_only(state)) == count
    with pytest.raises(ValueError, match="read-only"):
        state.scene.obstacle[:] = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.boundary = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.boundary.target = (1, 1)   # check_state once accepted a scenario with this target
    assert not run_loop(sc, state).any_collision


def test_run_multi_builds_read_only_states(monkeypatch):
    """Every state `replan` builds, and the scene the agents share, cannot be written or reassigned."""
    made = []
    real = netloop.PlannerState

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(netloop, "PlannerState", recording)
    log = run_multi(dataclasses.replace(_cross_scenario(), timeout_s=2.0))
    assert len(made) >= 2
    for state in made:
        assert len(_assert_read_only(state)) == 9
    _assert_read_only(log.scene)


def _pgm(tmp_path, sc):
    path = tmp_path / "scene.pgm"
    path.write_bytes(b"P5\n%d %d\n255\n" % (sc.width, sc.height) + sc.build_image().pixels.tobytes())
    return str(path)


@pytest.mark.parametrize("name, edit", [
    ("width", dict(width=128, extent=(8.0, 3.0))),
    ("height", dict(height=96, extent=(4.0, 6.0))),
    ("extent", dict(extent=(4.8, 3.6))),
    ("background", dict(background=200)),
    ("shapes", dict(shapes=[Rect(30, 0, 33, 47)])),
    ("image_path", dict(image_path=_pgm)),
    ("vision", dict(vision=VisionConfig(zeta=30.0))),
])
def test_every_scene_field_is_checked(open_scenario, open_state, tmp_path, name, edit):
    assert name in workspace.SCENE_FIELDS
    edit = {k: v(tmp_path, open_scenario) if callable(v) else v for k, v in edit.items()}
    with pytest.raises(ValueError, match="^%s: .* does not match the planner state" % name):
        run_loop(dataclasses.replace(open_scenario, **edit), open_state)


def test_a_list_where_a_tuple_is_declared_matches_its_state():
    """The boundary keeps the target as a tuple; a Python-built scenario may hold a list."""
    sc = Scenario(name="lists", extent=[4.0, 3.0], target=[48, 24], timeout_s=2.0)
    assert run_loop(sc, prepare(sc)).total_time == 2.0


def test_workspace_declares_the_scene_fields():
    assert workspace.SCENE_FIELDS == ("width", "height", "extent", "background", "shapes", "image_path", "vision")


def test_an_fm_state_prepared_for_another_start_cell_is_refused(open_scenario):
    sc = dataclasses.replace(open_scenario, planner="fm")
    state = prepare(sc)
    moved = dataclasses.replace(sc, start=WorldPose(2.0, 2.0, 0.0))
    message = r"^start: cell \(32, 32\) does not match the planner state, prepared for \(8, 24\)$"
    for call in (run_loop, analysis.ideal_path):
        with pytest.raises(ValueError, match=message):
            call(moved, state)
    # another pose in the start cell tracks the same path
    same_cell = dataclasses.replace(sc, start=WorldPose(sc.start.x + 0.01, sc.start.y, 0.3))
    assert run_loop(same_cell, state).outcome == "reached"


def test_an_fm_state_without_a_path_is_refused_for_another_start(scenario_dir):
    """With the state of barrier's walled-off start, a start on the target's side reported unreachable at t = 0."""
    sc = dataclasses.replace(load_scenario(scenario_dir / "barrier.json"), planner="fm")
    state = prepare(sc)
    assert state.path is None
    (tx, ty), start = sc.target, world_to_pixel((sc.start.x, sc.start.y), sc.gd, sc.width, sc.height)
    x, y = pixel_to_world((tx - 6, ty), sc.gd, sc.width, sc.height)
    moved = dataclasses.replace(sc, start=WorldPose(x, y, 0.0))
    message = r"^start: cell \(%d, %d\) does not match the planner state, prepared for \(%d, %d\)$" % (
        tx - 6, ty, *start)
    for call in (run_loop, analysis.ideal_path):
        with pytest.raises(ValueError, match=message):
            call(moved, state)
    assert run_loop(moved).outcome == "reached"


# A scenario cannot be edited after construction: setting a frame rate the
# constructor would refuse, or adding a shape, fails at once, and the same
# rate given to a new scenario through `replace` is refused when it is built.
# The child prints each refusal, then runs the unedited scenario to its end.
_EDITED_RUN = """
import dataclasses, sys
from hpfnav import netloop
from hpfnav.workspace import Rect, load_scenario
sc = load_scenario(sys.argv[1])
edits = (lambda: setattr(sc.camera, "rate_hz", 1e20),
         lambda: sc.shapes.append(Rect(0, 0, 3, 3)),
         lambda: dataclasses.replace(sc, camera=dataclasses.replace(sc.camera, rate_hz=1e20)))
for edit in edits:
    try:
        edit()
    except (AttributeError, ValueError) as e:
        print(type(e).__name__, e)
run = getattr(netloop, sys.argv[2])(dataclasses.replace(sc, timeout_s=1.0))
print(sc.camera.rate_hz, len(sc.shapes), run.total_time)
"""


@pytest.mark.parametrize("entry, name", [("run_loop", "open"), ("run_multi", "multi_star")])
def test_a_run_always_ends_even_after_an_edit(scenario_dir, child_env, entry, name):
    """Every edit is refused, so no run can take more than MAX_FRAMES camera frames."""
    proc = subprocess.run([sys.executable, "-c", _EDITED_RUN, str(scenario_dir / (name + ".json")), entry],
                          capture_output=True, text=True, env=child_env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    frozen, append, budget, run = proc.stdout.splitlines()
    assert frozen == "FrozenInstanceError cannot assign to field 'rate_hz'"
    assert append.startswith("AttributeError ") and "append" in append
    assert budget.startswith("ValueError timeout_s: ") and budget.endswith("above the budget of 100000")
    assert run.split()[:2] == ["5.0", str(len(load_scenario(scenario_dir / (name + ".json")).shapes))]


# --- plant loop ------------------------------------------------------------------


def _mask(sc):
    """The scene's obstacle mask, as build_scene builds it for the collision rule."""
    return build_scene(sc).obstacle


def _reference_integrate_to(veh, t_target, gd, obstacle, rows, ends):
    """Reference plant loop: one plant.arc per piece of constant command, the pieces single
    micro-steps while the goal is in reach, and plant.collides on every trace row.

    Appends the trace rows to `rows`, on the math-based arc from each piece's start, and the index
    of each piece's end row to `ends`.  Returns whether any row hit.
    """
    if veh.outcome is not None or veh.t >= t_target - 1e-12:
        return False
    dt = plant.DT_MICRO
    tx, ty, goal_radius = veh.goal
    x, y, theta = veh.x, veh.y, veh.theta
    # the hold's rounding slack is far below 1e-9 m, and no case starts that close to the bound
    in_reach = math.hypot(x - tx, y - ty) - abs(veh.v) * (t_target - veh.t) <= goal_radius + 1e-9
    contact = False
    while veh.t < t_target:
        t0, (x0, y0, theta0), (v, omega) = veh.t, (x, y, theta), (veh.v, veh.omega)
        t1 = veh.cmd_expiry if t0 < veh.cmd_expiry < t_target - 1e-12 else t_target
        if in_reach and t0 + dt < t1 - 1e-9:
            t1 = t0 + dt
        k = 1
        while k * dt < t1 - t0 - 1e-9:
            rows.append((t0 + k * dt, *plant.arc(x0, y0, theta0, v, omega, k * dt), v, omega))
            k += 1
        x, y, theta = plant.arc(x0, y0, theta0, v, omega, t1 - t0)
        veh.t = t1
        if veh.t >= veh.cmd_expiry - 1e-12:
            veh.v = veh.omega = 0.0
            veh.cmd_expiry = math.inf
        ends.append(len(rows))
        rows.append((veh.t, x, y, theta, veh.v, veh.omega))
        for row in rows[ends[-1] - k + 1:]:
            contact |= plant.collides(WorldPose(*row[1:4]), obstacle, gd)
            # outside the goal's reach, no sample lies within the goal radius
            assert in_reach or math.hypot(row[1] - tx, row[2] - ty) > goal_radius
        if in_reach and math.hypot(x - tx, y - ty) <= goal_radius:
            veh.finish("reached", veh.t)
            break
    pose = WorldPose(x, y, theta)   # wraps theta again; the engine, which does not, must agree bit for bit
    veh.x, veh.y, veh.theta = pose.x, pose.y, pose.theta
    return contact


# (start pose, command, watchdog_s, integration targets)
PLANT_CASES = {
    "straight": ((1.0, 1.5, 0.3), (0.2, 1e-13), 9.0, [0.123, 0.5, 0.5, 1.234]),
    "arc": ((1.0, 1.5, 3.0), (0.25, 1.3), 9.0, [0.07, 0.731, 2.5]),
    "negative_arc": ((2.0, 1.0, -2.9), (0.3, -2.0), 9.0, [1.0, 3.0]),
    "watchdog_mid_step": ((1.0, 1.5, 0.0), (0.2, 0.4), 0.4567, [0.3, 0.9, 1.5]),
    "goal_mid_segment": ((2.7, 1.53125, 0.0), (0.3, 0.0), 9.0, [0.5, 2.0, 3.0]),
    "leaves_workspace": ((0.3, 1.5, math.pi), (0.3, 0.1), 9.0, [0.5, 2.0]),
    "starts_outside": ((-0.01, 1.5, 0.0), (0.05, 0.0), 9.0, [0.2]),
    "starts_past_far_edge": ((1.0, 3.01, 0.0), (0.05, 0.0), 9.0, [0.2]),
    "target_not_ahead": ((1.0, 1.5, 0.0), (0.2, 0.5), 9.0, [0.0, -1.0]),
    # edges of the hold's shortcuts (the goal is (3.03125, 1.53125), radius 0.1)
    "reverse_into_goal": ((3.3, 1.53125, 0.0), (-0.2, 0.1), 9.0, [0.5, 1.5]),
    "goal_on_last_micro_step": ((2.7, 1.53125, 0.0), (0.3, 0.0), 9.0, [0.5, 0.78]),
    "watchdog_in_straight": ((1.0, 1.5, 0.3), (0.2, 1e-13), 0.4567, [0.3, 0.9]),
    "just_outside_skip_bound": ((2.7, 1.53125, 0.0), (0.3, 0.0), 9.0, [0.77, 1.0]),
}


@pytest.mark.parametrize("case", sorted(PLANT_CASES))
def test_plant_loop_matches_chained_steps_bitwise(case, open_scenario, open_state):
    (x, y, theta), (v, omega), watchdog, targets = PLANT_CASES[case]
    sc = dataclasses.replace(open_scenario, watchdog_s=watchdog)
    gd = sc.gd
    target = pixel_to_world(sc.target, gd, sc.width, sc.height)
    obstacle = open_state.scene.obstacle
    fast, slow = (_Vehicle(sc, WorldPose(x, y, theta), target, open_state.scene, open_state, None, None)
                  for _ in range(2))
    for veh in (fast, slow):
        veh.latch(0.0, Command(v, omega))
    rows, ends = [(0.0, slow.x, slow.y, slow.theta, 0.0, 0.0)], [0]
    contact = plant.collides(slow, obstacle, gd)
    for t_target in targets:
        fast.integrate_to(t_target)
        contact |= _reference_integrate_to(slow, t_target, gd, obstacle, rows, ends)
        log, ref = fast.log(), np.array(rows)
        assert log.trace.shape == ref.shape
        assert np.array_equal(log.trace[:, 0], ref[:, 0])          # the sample times
        assert np.array_equal(log.trace[ends], ref[ends])           # each piece's end row
        assert np.abs(log.trace - ref).max() <= 1e-12               # numpy's trig against libm's
        assert (fast.x, fast.y, fast.theta) == (slow.x, slow.y, slow.theta)
        assert (fast.t, fast.v, fast.omega, fast.cmd_expiry) == (slow.t, slow.v, slow.omega, slow.cmd_expiry)
        assert (fast.outcome, fast.end_time) == (slow.outcome, slow.end_time)
        assert log.any_collision == contact and isinstance(log.any_collision, bool)
    log = fast.log()
    got = {"applied": Command(fast.v, fast.omega), "outcome": fast.outcome, "end_time": fast.end_time,
           "any_collision": log.any_collision, "trace": log.trace.tolist()}
    expect = {"watchdog_mid_step": ("applied", Command(0.0, 0.0)), "goal_mid_segment": ("outcome", "reached"),
              "leaves_workspace": ("any_collision", True), "starts_outside": ("any_collision", True),
              "starts_past_far_edge": ("any_collision", True),
              "target_not_ahead": ("trace", [[0.0, x, y, theta, 0.0, 0.0]]),
              "reverse_into_goal": ("outcome", "reached"), "goal_on_last_micro_step": ("end_time", targets[-1]),
              "watchdog_in_straight": ("applied", Command(0.0, 0.0)),
              "just_outside_skip_bound": ("outcome", "reached")}
    if case in expect:
        attr, value = expect[case]
        assert got[attr] == value
    if case in ("goal_mid_segment", "reverse_into_goal"):
        assert fast.end_time < targets[-1]
    if case == "leaves_workspace":
        assert fast.x < 0.0
    if case == "reverse_into_goal":
        assert fast.x < x and (log.trace[1:, 4] < 0.0).all()
    if case == "goal_on_last_micro_step":
        before = log.trace[-2]   # the micro-step before the last one is still outside the goal
        assert math.hypot(before[1] - target[0], before[2] - target[1]) > sc.goal_radius
    if case == "just_outside_skip_bound":
        # the first hold starts 0.25 mm farther from the goal than its command can carry it,
        # so it takes one arc, and the next hold reaches the goal on its first micro-step
        margin = math.hypot(x - target[0], y - target[1]) - v * targets[0] - sc.goal_radius
        assert 0.0 < margin < 1e-3
        assert fast.end_time == pytest.approx(0.78) and log.trace[-2, 0] == targets[0]


def test_trace_samples_are_spaced_by_one_micro_step_at_most(scenario_dir):
    """fullres hpf at 0.9 s delay: a micro-step clock that ended holds just short of their targets
    once wrote 47 steps of ~1e-12 s, each repeating the row before."""
    sc = load_scenario(scenario_dir / "fullres.json")
    sc = dataclasses.replace(sc, planner="hpf", delay=dataclasses.replace(sc.delay, constant_s=0.9), seed=0)
    gaps = np.diff(np.asarray(run_loop(sc).trace)[:, 0])
    assert gaps.min() > 1e-9 and gaps.max() <= plant.DT_MICRO + 1e-12


def test_plant_loop_without_a_planner_does_nothing_at_time_zero(open_scenario):
    # run_multi's vehicles have no planner state before the first frame
    veh = _Vehicle(open_scenario, WorldPose(1.0, 1.5, 0.0), (3.0, 1.5), build_scene(open_scenario), None, None,
                   None)
    veh.integrate_to(0.0)
    assert veh.t == 0.0 and len(veh.log().trace) == 1


# --- collision rule --------------------------------------------------------------


def _scene_hit(scenario, trace) -> bool:
    """Independent check: a trace position outside the workspace or on a pixel unlike the background."""
    obstacle = scenario.build_image().pixels != scenario.background
    cells = np.floor(np.asarray(trace)[:, 1:3] / scenario.gd).astype(int)
    inside = ((cells >= 0) & (cells < (scenario.width, scenario.height))).all(axis=1)
    return not inside.all() or bool(obstacle[cells[:, 1], cells[:, 0]].any())


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_any_collision_is_contact_with_the_scene(comparison_scenario, seed):
    """Delayed fm runs cut through the planner's pad; only scene pixels count."""
    sc = dataclasses.replace(comparison_scenario, planner="fm", seed=seed,
                             delay=dataclasses.replace(comparison_scenario.delay, constant_s=0.6))
    log = run_loop(sc)
    assert log.any_collision is _scene_hit(sc, log.trace)
    assert not _column(log, "collision").any() or log.any_collision


def _driven(sc, state, pose, v, t_targets):
    """A vehicle holding (v, 0) from pose; any_collision after each integration target."""
    target = pixel_to_world(sc.target, sc.gd, sc.width, sc.height)
    veh = _Vehicle(sc, pose, target, state.scene, state, None, None)
    veh.latch(0.0, Command(v, 0.0))
    flags = []
    for t in t_targets:
        veh.integrate_to(t)
        flags.append(veh.log().any_collision)
    return veh, flags


def test_pad_ring_beside_a_rect_is_not_a_collision():
    sc = Scenario(name="rect", shapes=[Rect(30, 20, 40, 30)], target=(5, 5), watchdog_s=60.0,
                  vision=VisionConfig(zeta=20.0))
    state = prepare(sc)
    gd, row = sc.gd, 25
    labels, obstacle = state.boundary.labels[row], _mask(sc)[row]
    pad = [x for x in range(1, 30) if labels[x] == hpf.OBSTACLE and not obstacle[x]]
    assert pad == [28, 29] and obstacle[30]   # the planner's pad ring lies right before the rect
    # 0.2 m/s along the row from the centre of cell 20: to the centre of the pad
    # cell 29, then on into the rect's first column
    veh, flags = _driven(sc, state, WorldPose(20.5 * gd, (row + 0.5) * gd, 0.0), 0.2,
                         [9.0 * gd / 0.2, 10.0 * gd / 0.2])
    assert flags == [False, True]
    assert plant.collides(veh, state.scene.obstacle, gd) and math.floor(veh.x / gd) == 30


def test_default_vision_sees_a_default_shape():
    """Default zeta finds a default-intensity rect on the default background, so the run steers round it."""
    sc = Scenario(name="r", shapes=[Rect(20, 14, 30, 34)], start=WorldPose(0.5, 1.5, 0.0), target=(50, 24))
    state = prepare(sc)
    assert (state.boundary.labels[14:35, 20:31] == hpf.OBSTACLE).sum() == 71
    log = run_loop(sc, state)
    assert log.outcome == "reached" and not log.any_collision


def test_frame_ring_is_free_and_leaving_the_workspace_is_a_collision(open_scenario, open_state):
    sc = dataclasses.replace(open_scenario, watchdog_s=60.0)
    gd = sc.gd
    assert (open_state.boundary.labels[0] == hpf.OBSTACLE).all()   # the planner pins the frame
    # along row 0 from cell 40 at 0.2 m/s: cell 63 (the last) at 23.5 cells, outside at 24.5
    veh, flags = _driven(sc, open_state, WorldPose(40.5 * gd, 0.5 * gd, 0.0), 0.2,
                         [23.0 * gd / 0.2, 24.0 * gd / 0.2])
    assert flags == [False, True]
    assert plant.collides(veh, open_state.scene.obstacle, gd) and veh.x > sc.extent[0]


def test_start_on_an_obstacle_pixel_is_a_collision(tmp_path):
    """The rule for an image_path scene: a pixel that differs from `background` is an obstacle."""
    pixels = np.full((48, 64), 210, np.uint8)
    pixels[10:38, 20:44] = 90
    pgm = tmp_path / "block.pgm"
    pgm.write_bytes(b"P5\n64 48\n255\n" + pixels.tobytes())
    sc = Scenario(name="block", image_path=str(pgm), start=WorldPose(2.0, 1.5, 0.0), target=(5, 5),
                  timeout_s=2.0)
    log = run_loop(sc)
    assert log.any_collision and _column(log, "collision")[0] == 1.0
    assert (_mask(sc) == (pixels != 210)).all()
    clear = run_loop(dataclasses.replace(sc, start=WorldPose(0.5, 0.5, 0.0)), prepare(sc))
    assert not clear.any_collision


def test_another_agents_disc_is_not_a_scene_collision():
    """Two agents start inside each other's stamped disc: that is spacing, measured by dm."""
    sc = Scenario(name="pair", agents=[AgentSpec(WorldPose(1.5, 1.5, 0.0), (56, 24)),
                                       AgentSpec(WorldPose(1.6, 1.5, math.pi), (8, 24))],
                  agent_radius=0.05, timeout_s=2.0)
    edges = np.zeros((sc.height, sc.width), bool)
    for i, spec in enumerate(sc.agents):
        cells = _stamp_agents(edges, [sc.agents[1 - i].start], spec.target, sc)
        labels = hpf.build_boundary(cells, spec.target).labels
        cx, cy = world_to_pixel((spec.start.x, spec.start.y), sc.gd, sc.width, sc.height)
        assert labels[cy, cx] == hpf.OBSTACLE   # the planner sees the other agent here
    log = run_multi(sc)
    for agent in log.agent_logs:
        assert len(agent.records)
        assert not agent.any_collision and not _column(agent, "collision").any()
    assert log.min_dm() == pytest.approx(0.1)


# --- multi-vehicle loop ---------------------------------------------------------


def _cross_scenario(**kw):
    return Scenario(
        name="cross2",
        width=64,
        height=48,
        agents=[
            AgentSpec(WorldPose(0.8, 1.5, 0.0), (51, 24)),
            AgentSpec(WorldPose(3.2, 1.56, math.pi), (12, 24)),
        ],
        timeout_s=90.0,
        **kw,
    )


def test_multi_needs_two_agents():
    sc = Scenario(name="solo", agents=[AgentSpec(WorldPose(0.8, 1.5, 0.0), (51, 24))])
    with pytest.raises(ValueError, match="at least 2"):
        run_multi(sc)


def test_multi_rejects_shared_target():
    sc = _cross_scenario()
    with pytest.raises(ValueError, match="share a target"):
        dataclasses.replace(sc, agents=(sc.agents[0], AgentSpec(sc.agents[1].start, sc.agents[0].target)))


def test_multi_rejects_the_fm_planner():
    with pytest.raises(ValueError, match=r"^planner: run_multi plans with hpf only, got 'fm'$"):
        run_multi(_cross_scenario(planner="fm"))


def test_multi_rejects_overlapping_starts():
    sc = _cross_scenario()
    a0 = sc.agents[0]
    with pytest.raises(ValueError, match="overlap"):
        dataclasses.replace(sc, agents=(a0, AgentSpec(WorldPose(a0.start.x + 0.1, a0.start.y, 0.0), (12, 24))))


def test_two_crossing_agents_pass_cleanly():
    log = run_multi(_cross_scenario())
    assert log.outcome == "reached"
    assert [a.outcome for a in log.agent_logs] == ["reached", "reached"]
    assert log.total_time < 90.0
    assert log.min_dm() > 0.4  # never closer than the 0.3 m contact distance
    assert len(log.dm_times) == len(log.dm_values) > 0


def test_multi_timeout_ends_every_agent_at_the_timeout():
    log = run_multi(dataclasses.replace(_cross_scenario(), timeout_s=2.0))
    assert log.outcome == "timeout"
    assert log.total_time == 2.0
    assert [a.outcome for a in log.agent_logs] == ["timeout", "timeout"]
    assert [a.total_time for a in log.agent_logs] == [2.0, 2.0]
    for agent in log.agent_logs:
        assert abs(agent.trace[-1][0] - 2.0) < 1e-9
    assert len(log.dm_values) == 11  # the 5 Hz frames from 0 s to 2 s


def test_every_multi_agent_replan_converges(monkeypatch):
    """Warm-started per-frame re-solves run to tolerance, like cold ones."""
    solve = hpf.relax
    converged = []

    def recording(*args, **kwargs):
        pot = solve(*args, **kwargs)
        converged.append(pot.converged)
        return pot

    monkeypatch.setattr(hpf, "relax", recording)
    log = run_multi(_cross_scenario())
    assert log.outcome == "reached"
    assert len(converged) > 2
    assert all(converged), "%d of %d solves stopped unconverged" % (converged.count(False), len(converged))


def _multi_star(scenario_dir, awareness, timeout_s=10.0):
    return dataclasses.replace(load_scenario(scenario_dir / "multi_star.json"), awareness=awareness,
                               timeout_s=timeout_s)


@pytest.mark.parametrize("awareness", ["all", "nearest"])
def test_replan_stamps_the_other_agents_where_the_camera_saw_them(scenario_dir, monkeypatch, awareness):
    """The server knows the other agents only from camera frames: every pose it stamps is a camera report."""
    observe, stamp = plant.observe, netloop._stamp_agents
    reports, stamped = [], []

    def observing(*args):
        reports.append(observe(*args))
        return reports[-1]

    def stamping(edges, poses, *rest):
        stamped.extend(poses)
        return stamp(edges, poses, *rest)

    monkeypatch.setattr(plant, "observe", observing)
    monkeypatch.setattr(netloop, "_stamp_agents", stamping)
    run_multi(_multi_star(scenario_dir, awareness))
    reported = {id(p) for p in reports}   # every report is still alive in `reports`, so ids are unique
    assert stamped
    assert all(type(p) is WorldPose and id(p) in reported for p in stamped)


@pytest.mark.parametrize("awareness", ["all", "nearest"])
def test_a_field_is_solved_only_when_its_stamped_poses_change(scenario_dir, monkeypatch, awareness):
    """Each solve follows one stamp, of poses unlike the agent's last, and after every replan the agent's
    field was last solved for where the camera last saw the agents it is aware of."""
    sc = _multi_star(scenario_dir, awareness)
    observe, stamp, simulate = plant.observe, netloop._stamp_agents, netloop._simulate
    last = {}       # vehicle -> the camera's last report of it
    stamps = {}     # own target -> the stamped positions of each of its solves, in order
    stale = []      # (agent, time) of each replan that left a field solved for another view

    def observing(pose, *args):
        last[pose] = observe(pose, *args)
        return last[pose]

    def stamping(edges, poses, *rest):
        stamps.setdefault(rest[-2], []).append([(p.x, p.y) for p in poses])
        return stamp(edges, poses, *rest)

    def simulating(scenario, vehicles, replan):
        def checked(i):
            replan(i)
            seen = [last.get(u) for u in vehicles]
            others = [p for j, p in enumerate(seen) if j != i]
            if awareness == "nearest" and None not in seen:
                others = [min(others, key=lambda p: math.hypot(p.x - seen[i].x, p.y - seen[i].y))]
            view = None if None in seen else [(p.x, p.y) for p in others]
            if stamps[sc.agents[i].target][-1] != view:
                stale.append((i, vehicles[i].t))
        return simulate(scenario, vehicles, checked)

    counts = _count_calls(monkeypatch, [(hpf, "relax")])
    monkeypatch.setattr(plant, "observe", observing)
    monkeypatch.setattr(netloop, "_stamp_agents", stamping)
    monkeypatch.setattr(netloop, "_simulate", simulating)
    run_multi(sc)
    assert sorted(stamps) == sorted(spec.target for spec in sc.agents)
    assert counts["relax"] == sum(map(len, stamps.values()))
    for target, solves in stamps.items():
        assert all(a != b for a, b in zip(solves, solves[1:])), target
    assert not stale


def test_an_agent_out_of_frame_is_stamped_at_its_last_sighting(monkeypatch):
    """Agent 1 is carried out of the frame at 1 s: the camera loses it, nothing raises, and agent 0
    keeps planning around the cell where the camera last saw it."""
    sc = dataclasses.replace(_cross_scenario(), timeout_s=3.0)
    hold, observe = plant.hold, plant.observe
    vehicles, sightings = [], []

    def simulating(scenario, vs, replan):
        vehicles.extend(vs)
        return simulate(scenario, vs, replan)

    def carried(*args):
        out = hold(*args)
        if args[-1] == vehicles[1].goal and args[6] >= 1.0:   # args[6] is t_target
            return (-0.5, *out[1:])
        return out

    def observing(pose, *args):
        seen = observe(pose, *args)   # raises out of frame
        if pose is vehicles[1]:
            sightings.append(seen)
        return seen

    simulate = netloop._simulate
    monkeypatch.setattr(netloop, "_simulate", simulating)
    monkeypatch.setattr(plant, "hold", carried)
    monkeypatch.setattr(plant, "observe", observing)
    log = run_multi(sc)
    assert log.outcome == "timeout" and log.agent_logs[1].any_collision
    assert len(sightings) == 5   # the frames at 0, 0.2, ..., 0.8 s
    leaver = vehicles[1]
    assert leaver.x < 0.0 and leaver.seen is sightings[-1]
    target = sc.agents[0].target
    cells = _stamp_agents(build_scene(sc).edges, [sightings[-1]], target, sc)
    assert np.array_equal(vehicles[0].state.boundary.labels, hpf.build_boundary(cells, target).labels)


# --- one scene per scenario -----------------------------------------------------


def _count_calls(monkeypatch, targets):
    """Count the calls to each (module, name) through its module attribute."""
    counts = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_a_sweep_builds_one_scene_per_planner(open_scenario, monkeypatch):
    """One scene per planner, and two contact passes per run: its trace and its records."""
    counts = _count_calls(monkeypatch, [(workspace, "rasterize"), (vision, "detect_edges"), (plant, "contact")])
    result = analysis.sweep(open_scenario, [0, 0.3], [0, 1], ("hpf", "fm"))
    assert len(result.rows) == 8
    assert counts == {"rasterize": 2, "detect_edges": 2, "contact": 2 * 8}


def test_a_sweep_checks_each_scenario_once(open_scenario, monkeypatch):
    """P planners of R runs build P + P*R scenarios, each checked once, when it is built."""
    counts = _count_calls(monkeypatch, [(Scenario, "validate")])
    analysis.sweep(open_scenario, [0, 0.3], [0, 1], ("hpf", "fm"))
    assert counts == {"validate": 2 + 2 * 4}


def test_a_multi_run_builds_one_scene_for_every_agent(scenario_dir, monkeypatch):
    counts = _count_calls(monkeypatch, [(workspace, "rasterize"), (vision, "detect_edges")])
    sc = dataclasses.replace(load_scenario(scenario_dir / "multi_star.json"), timeout_s=2.0)
    log = run_multi(sc)
    assert len(log.agent_logs) == 5 and len(log.dm_values) == 11   # 11 camera frames, each replanning the agents
    assert counts == {"rasterize": 1, "detect_edges": 1}


def _image_path_twin(sc, tmp_path):
    """The scenario with its image read from a PGM file of its drawn shapes."""
    pgm = tmp_path / (sc.name + ".pgm")
    pgm.write_bytes(b"P5\n%d %d\n255\n" % (sc.width, sc.height) + sc.build_image().pixels.tobytes())
    return dataclasses.replace(sc, shapes=[], image_path=str(pgm))


def _assert_same_log(a, b, tmp_path):
    """The same trace, the same runlog CSV bytes and the same any_collision."""
    assert np.array_equal(a.trace, b.trace)
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a.any_collision is b.any_collision


@pytest.mark.parametrize("planner", ["hpf", "fm"])
def test_an_image_path_scene_runs_like_its_shapes(comparison_scenario, planner, tmp_path):
    sc = dataclasses.replace(comparison_scenario, planner=planner)
    twin = _image_path_twin(sc, tmp_path)
    scene, twin_scene = build_scene(sc), build_scene(twin)
    assert sc.shapes and (scene.obstacle == twin_scene.obstacle).all() and (scene.edges == twin_scene.edges).all()
    _assert_same_log(run_loop(sc), run_loop(twin), tmp_path)


def test_an_image_path_multi_scene_runs_like_its_shapes(scenario_dir, tmp_path):
    sc = load_scenario(scenario_dir / "multi_star.json")
    log, twin_log = run_multi(sc), run_multi(_image_path_twin(sc, tmp_path))
    assert log.outcome == "reached"
    assert (log.dm_times, log.dm_values, log.total_time) == (twin_log.dm_times, twin_log.dm_values,
                                                             twin_log.total_time)
    for a, b in zip(log.agent_logs, twin_log.agent_logs, strict=True):
        _assert_same_log(a, b, tmp_path)
