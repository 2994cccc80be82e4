"""Networked control loop tying camera, planner, controller and plant together.

The simulation is a single-threaded discrete-event loop.  The camera samples
the true pose at a fixed rate and ships it through an uplink channel; when a
pose packet arrives at the controller it picks a reference (potential-field
guidance or path tracking on the fast-marching baseline), computes one
command, and ships it through a downlink channel; when the command arrives
the plant latches it (zero-order hold).  A pose packet carries the camera's
`WorldPose`, a command packet the `Command`, and a vehicle keeps its plant
state as plain floats.  Between events the plant takes one exact arc per
held piece of command; a watchdog zeroes the held command after a
configurable silence window.  The trace is sampled at
`plant.DT_MICRO` = 0.01 s along those arcs.  Each pose packet the controller
acts on adds one row of floats to the run's records (`RECORD_COLUMNS`).  When
the run ends, `plant.contact` tests every trace row and every record's pose
against the scene's obstacle mask: the planner's labels (its pad, other
agents' discs) play no part.
That scene (image, obstacle mask, edge cells) is built once per scenario by
`build_scene`; a `PlannerState` carries it to every run and agent, so a state
is reused only for scenarios with the same image.

One event engine drives every run; each vehicle in it carries its own
channels and planner state.  A single run (`run_loop`) is the one-vehicle
case with a static planner, where a flat field sample means the target is
unreachable and ends the run.  A multi-agent run (`run_multi`) plans each
vehicle around the others where the camera last saw them, re-solving its
field only when that view changes, and a flat sample there only holds the
vehicle until the blocker moves on.

All events sit on one heap, ordered by time, then packets before the camera
frame of the same instant, then push order.  Each delivered packet is one
event at its own delivery time.  Channels only sample: a ``DelayLine`` draws
each packet's delay (constant, optional uniform jitter, drops and a
deadline, all in simulation time) and the engine queues the delivery.
``run_loop`` accepts any object with the same ``push(packet) -> delay or
None`` method in their place.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import controller as ctl
from . import fm, guidance, hpf, plant, vision
from .controller import Command
from .workspace import SCENE_FIELDS, GridImage, Scenario, WorldPose, pixel_to_world, world_to_pixel


class Packet(NamedTuple):
    """One message on the control network."""

    kind: str          # "pose" or "cmd"
    seq: int
    send_time: float   # s, simulation clock
    payload: object    # the camera's WorldPose for pose, the Command for cmd


class DelayLine:
    """Simulated one-way channel with delay, jitter, drops and a deadline.

    Each pushed packet draws a delay (constant + uniform jitter, clamped at
    zero) and a drop decision from the line's own seeded RNG.  Packets whose
    sampled delay exceeds the deadline would arrive stale and are discarded
    at once.  The line holds no packets: the event engine queues each
    delivery at send time + delay.
    """

    def __init__(self, constant: float, jitter: float = 0.0, drop_prob: float = 0.0,
                 deadline: float = math.inf, seed: int = 0):
        if constant < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")
        self.constant = constant
        self.jitter = jitter
        self.drop_prob = drop_prob
        self.deadline = deadline
        self._rng = random.Random(seed)

    def push(self, pkt: Packet):
        """Sample a packet's fate: its delay, or None if it is lost."""
        u = self._rng.random()
        delay = max(0.0, self.constant + (2.0 * u - 1.0) * self.jitter)
        dropped = self._rng.random() < self.drop_prob
        if dropped or delay > self.deadline:
            return None
        return delay


# --- run logs ----------------------------------------------------------------


# One row of RunLog.records per controller sample: the true pose at the sample
# instant, the stale camera pose the controller acted on, the command, the
# hops, the packet delays (delay_down nan when the command was lost) and 1.0
# where the true pose is in contact with the scene.
RECORD_COLUMNS = ("t", "x", "y", "theta", "x_obs", "y_obs", "theta_obs", "v_cmd", "omega_cmd", "delta_l",
                  "delay_up", "delay_down", "collision")
CSV_COLUMNS = "t,x,y,theta,x_obs,y_obs,v_cmd,omega_cmd,delta_L,delay_up,delay_down,dist_err,collision"


@dataclass
class RunLog:
    """Everything one run produced."""

    records: np.ndarray      # (N, 13) rows in RECORD_COLUMNS order, one per controller sample
    trace: np.ndarray        # (N, 6) rows (t, x, y, theta, v_applied, omega_applied), one per DT_MICRO of each piece
    outcome: str             # "reached" | "timeout" | "unreachable"
    total_time: float
    any_collision: bool = False   # any trace row in contact with the scene

    def to_csv(self, path, dist_err=None) -> None:
        """Write records in the documented column order: every RECORD_COLUMNS but theta_obs, and dist_err.

        dist_err is an optional per-record series (see analysis.distance_error);
        absent values are written as nan.
        """
        if dist_err is not None and len(dist_err) != len(self.records):
            raise ValueError("dist_err length %d != %d records" % (len(dist_err), len(self.records)))
        lines = [CSV_COLUMNS]
        for i, r in enumerate(self.records.tolist()):
            err = float(dist_err[i]) if dist_err is not None else math.nan
            lines.append(",".join([*map(repr, r[:6]), *map(repr, r[7:9]), str(int(r[9])),
                                   repr(r[10]), repr(r[11]), repr(err), str(int(r[12]))]))
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class MultiRunLog:
    agent_logs: list
    dm_times: list
    dm_values: list          # min pairwise distance at each camera frame
    outcome: str
    total_time: float
    scene: Scene             # the one scene every agent ran on

    def min_dm(self) -> float:
        return min(self.dm_values) if self.dm_values else math.inf


# --- scene and planner preparation -------------------------------------------


class Scene(NamedTuple):
    """A scenario's camera frame and what the planner and the collision rule read off it."""

    image: GridImage
    obstacle: np.ndarray     # bool (height, width): the collision rule's pixels, those unlike `background`
    edges: np.ndarray        # bool (height, width): the edge cells of `vision.detect_edges`
    inputs: tuple            # (field, value) of each of the scenario's SCENE_FIELDS


def build_scene(scenario: Scenario) -> Scene:
    """Build the image, its obstacle mask and edge cells, once per scenario."""
    image = scenario.build_image()
    obstacle = image.pixels != scenario.background
    edges = vision.detect_edges(image, scenario.vision)
    obstacle.setflags(write=False)
    edges.setflags(write=False)
    inputs = tuple((name, getattr(scenario, name)) for name in SCENE_FIELDS)
    return Scene(image, obstacle, edges, inputs)


@dataclass(frozen=True)
class PlannerState:
    """Static planning products and the scene they come from.

    Reusable across runs of scenarios with the same scene fields, target and
    planner (and, for fm, start cell): delay, seed, look-ahead and control
    may differ.  `check_state` enforces this.  Every array reachable from a
    state is read-only, set so where it is built, and the state itself is
    frozen: runs and agents that share a state cannot change it."""

    kind: str
    scene: Scene
    boundary: hpf.BoundaryGrid
    grad: hpf.GradientField | None = None
    potential: hpf.PotentialField | None = None
    path: np.ndarray | None = None   # None when the start cell cannot reach the target
    track: fm.Track | None = None    # the path prepared for tracking
    start: tuple | None = None       # fm: the start cell the path was prepared from


def prepare(scenario: Scenario) -> PlannerState:
    """Run the static pipeline: scene (image -> edges) -> boundary -> field or path."""
    scene = build_scene(scenario)
    boundary = hpf.build_boundary(scene.edges, scenario.target)
    if scenario.planner == "hpf":
        potential = hpf.relax(boundary)
        return PlannerState("hpf", scene, boundary, grad=hpf.gradient(potential, boundary), potential=potential)
    arrival = fm.fm_arrival(boundary)
    start = _start_cell(scenario)
    if not math.isfinite(arrival[start[1], start[0]]):
        return PlannerState("fm", scene, boundary, start=start)
    path = fm.fm_path(arrival, start, scenario.gd)
    return PlannerState("fm", scene, boundary, path=path, track=fm.Track(path), start=start)


def _start_cell(scenario: Scenario) -> tuple:
    """The pixel the scenario's start pose lies in."""
    return world_to_pixel((scenario.start.x, scenario.start.y), scenario.gd, scenario.width, scenario.height)


def check_state(scenario: Scenario, state: PlannerState) -> None:
    """Raise ValueError, naming the field, if `state` was not prepared for `scenario`.

    The state depends on the scenario's SCENE_FIELDS (recorded on its scene),
    target and planner; an fm state also on the start cell, with a path or
    without one.
    """
    prepared = (*state.scene.inputs, ("target", state.boundary.target), ("planner", state.kind))
    for name, value in prepared:
        if getattr(scenario, name) != value:
            raise ValueError("%s: %r does not match the planner state, prepared for %r"
                             % (name, getattr(scenario, name), value))
    cell = _start_cell(scenario)
    if state.kind == "fm" and cell != state.start:
        raise ValueError("start: cell %r does not match the planner state, prepared for %r" % (cell, state.start))


def _make_lines(scenario: Scenario, k: int):
    """k uplink/downlink delay-line pairs, seeded in turn from the run seed."""
    rng = random.Random(scenario.seed)
    d = scenario.delay
    lines = []
    for _ in range(k):
        up = DelayLine(d.constant_s * d.up_fraction, d.jitter_s * d.up_fraction,
                       d.drop_prob, d.deadline_s, rng.getrandbits(32))
        down = DelayLine(d.constant_s * (1.0 - d.up_fraction), d.jitter_s * (1.0 - d.up_fraction),
                         d.drop_prob, d.deadline_s, rng.getrandbits(32))
        lines.append((up, down))
    return lines


# --- event engine ------------------------------------------------------------


class _Vehicle:
    """One plant with its own channels and planner state, on the shared scene.

    The plant state is floats: `t`, the pose `x`, `y`, `theta` (so a vehicle reads as a pose),
    the held command `v`, `omega` and its watchdog expiry `cmd_expiry`.  `seen` is the
    camera's last report of it, the one view of it the server has."""

    def __init__(self, scenario, start: WorldPose, target_world, scene: Scene, state, uplink, downlink):
        self.t = 0.0
        self.x, self.y, self.theta = start.x, start.y, start.theta
        self.v = self.omega = 0.0
        self.cmd_expiry = math.inf
        self.start_row = (0.0, start.x, start.y, start.theta, 0.0, 0.0)
        self.seen = None   # the camera's last report of this vehicle, a WorldPose
        self.pieces = []   # `plant.hold`'s record of every piece held so far, 12 floats each
        self.records = []  # the first 12 RECORD_COLUMNS of every controller sample so far
        self.scene = scene
        self.gd = scenario.gd
        self.outcome = None
        self.end_time = None
        self.goal = (*target_world, scenario.goal_radius)
        self.watchdog = scenario.watchdog_s
        self.state = state
        self.uplink = uplink
        self.downlink = downlink

    def finish(self, outcome: str, t: float) -> None:
        self.outcome = outcome
        self.end_time = t

    def integrate_to(self, t_target: float) -> None:
        """Advance the plant to t_target with `plant.hold`.

        The hold records its pieces, zeroes the command at the watchdog
        expiry, and ends the run as "reached" once a DT_MICRO sample is within
        goal_radius of the target.
        """
        if self.outcome is not None or self.t >= t_target - 1e-12:
            return
        self.x, self.y, self.theta, self.t, self.v, self.omega, self.cmd_expiry, reached = plant.hold(
            self.x, self.y, self.theta, self.v, self.omega, self.t, t_target, self.cmd_expiry, self.pieces,
            self.goal)
        if reached:
            self.finish("reached", self.t)

    def latch(self, t: float, cmd: Command) -> None:
        self.v, self.omega = cmd
        self.cmd_expiry = t + self.watchdog

    def log(self) -> RunLog:
        """The run so far: its trace sampled from the held pieces, its records, and both tested for contact."""
        trace = plant.sample(self.start_row, self.pieces)
        contact = plant.contact(self.scene.obstacle, self.gd, trace[:, 1], trace[:, 2]).any()
        rows = np.array(self.records, float).reshape(-1, 12)
        records = np.column_stack((rows, plant.contact(self.scene.obstacle, self.gd, rows[:, 1], rows[:, 2])))
        return RunLog(records, trace, self.outcome, self.end_time, bool(contact))


def _control_sample(scenario, state, obs: WorldPose):
    """One controller evaluation: returns (cmd, delta_l, flat).

    Each planner picks the reference point its own way; the curve tracker
    turns it into the command.
    """
    if state.kind == "hpf":
        try:
            ref = guidance.guidance_step(state.grad, obs, scenario.control, scenario.lookahead, scenario.gd)
        except ValueError:
            return Command(0.0, 0.0), 0, False  # observed cell blocked: hold
        if ref.flat:
            return Command(0.0, 0.0), 0, True
        point, delta_l = ref.point, ref.delta_l
    else:
        # fast-marching baseline: track the precomputed path
        d0 = scenario.fm_d0 if scenario.fm_d0 is not None else scenario.control.d_max
        point, _ = fm.path_reference(state.track, obs, d0)
        delta_l = 0
    e = ctl.body_errors(obs, point)
    return ctl.command(ctl.curve_coeff(e), e, scenario.control), delta_l, False


def _simulate(scenario: Scenario, vehicles: list, replan=None):
    """Run the event loop until every vehicle has an outcome.

    Every camera frame observes each vehicle once with `plant.observe` and
    keeps the report as the vehicle's `seen`, the one view of it the server
    has; an active vehicle's report goes up as its pose packet, the same
    object.  A vehicle out of frame yields no report, and its last `seen`
    stands.  Without `replan` each vehicle keeps the planner it came with,
    and a flat sample means its target is unreachable: the vehicle stops
    there.  With `replan`, every camera frame calls replan(i) for each
    active vehicle once all are observed, and a flat sample means "blocked
    right now": a zero command goes out and holds the vehicle, since the
    blocker moves on.  Returns (end time,
    dm_times, dm_values), the last two holding the minimum pairwise distance
    at each camera frame when there are several vehicles.

    A scenario is checked when it is built and cannot change after, so a run
    takes at most MAX_FRAMES camera frames, and each frame leads to at most
    two packets per vehicle.
    """
    gd, width, height, timeout = scenario.gd, scenario.width, scenario.height, scenario.timeout_s
    frame_dt = 1.0 / scenario.camera.rate_hz
    # (time, 0 for a packet or 1 for a frame, push order, vehicle, packet, sampled delay)
    heap = [(0.0, 1, 0, None, None, None)]
    pop, push = heapq.heappop, heapq.heappush
    order = itertools.count(1)
    frame_seq = 0
    dm_times, dm_values = [], []
    outcome = operator.attrgetter("outcome")   # None until the vehicle finishes, then a word

    while not all(map(outcome, vehicles)):
        t_ev, _, _, v, pkt, delay = pop(heap)
        if t_ev > timeout:
            for v in vehicles:
                v.integrate_to(timeout)   # a no-op once a vehicle has an outcome
                if v.outcome is None:
                    v.finish("timeout", timeout)
            return timeout, dm_times, dm_values
        if pkt is not None:
            v.integrate_to(t_ev)
            if v.outcome is not None:
                continue
            if pkt.kind == "cmd":
                v.latch(t_ev, pkt.payload)
                continue
            obs = pkt.payload
            cmd, delta_l, flat = _control_sample(scenario, v.state, obs)
            delay_down = math.nan
            if replan is not None or not flat:
                cmd_pkt = Packet._make(("cmd", pkt.seq, t_ev, cmd))
                d = v.downlink.push(cmd_pkt)
                if d is not None:
                    delay_down = d
                    push(heap, (t_ev + d, 0, next(order), v, cmd_pkt, d))
            v.records.extend((t_ev, v.x, v.y, v.theta, obs.x, obs.y, obs.theta, cmd.v, cmd.omega,
                              delta_l, delay, delay_down))
            if flat and replan is None:
                v.finish("unreachable", t_ev)
            continue
        # camera frame: move everyone, measure spacing, observe and report, replan
        for v in vehicles:
            v.integrate_to(t_ev)
        if len(vehicles) > 1:
            dm_times.append(t_ev)
            dm_values.append(min(math.hypot(a.x - b.x, a.y - b.y) for a, b in itertools.combinations(vehicles, 2)))
        for v in vehicles:
            try:
                v.seen = obs = plant.observe(v, gd, width, height)
            except ValueError:
                continue  # vehicle out of frame: camera has nothing to report, its last sighting stands
            if v.outcome is None:
                pose_pkt = Packet._make(("pose", frame_seq, t_ev, obs))
                d = v.uplink.push(pose_pkt)
                if d is not None:
                    push(heap, (t_ev + d, 0, next(order), v, pose_pkt, d))
        if replan is not None:
            for i, v in enumerate(vehicles):
                if v.outcome is None:
                    replan(i)
        frame_seq += 1
        push(heap, (t_ev + frame_dt, 1, next(order), None, None, None))
    return max(v.end_time for v in vehicles), dm_times, dm_values


# --- entry points ------------------------------------------------------------


def run_loop(scenario: Scenario, state: PlannerState | None = None,
             uplink=None, downlink=None) -> RunLog:
    """Simulate one networked run of a single vehicle.

    `state` may carry a planner prepared earlier, with its scene, for a
    scenario that differs only in what the static field and the collision
    tables do not depend on, such as delay or seed; `check_state` raises
    otherwise.  `uplink` and `downlink` default to seeded DelayLines; any
    object with the same push works.
    """
    if state is None:
        state = prepare(scenario)
    else:
        check_state(scenario, state)
    if uplink is None or downlink is None:
        [(up, down)] = _make_lines(scenario, 1)
        uplink = uplink or up
        downlink = downlink or down
    target_world = pixel_to_world(scenario.target, scenario.gd, scenario.width, scenario.height)
    veh = _Vehicle(scenario, scenario.start, target_world, state.scene, state, uplink, downlink)
    if state.kind == "fm" and state.path is None:
        veh.finish("unreachable", 0.0)  # no path to track: the loop never starts
    _simulate(scenario, [veh])
    return veh.log()


def _aware_of(poses, me: int, awareness: str) -> list:
    """The poses agent `me` plans around: every other agent's, or with "nearest" the closest to its own.

    Of equally close agents "nearest" picks the first.
    """
    others = [p for j, p in enumerate(poses) if j != me]
    if awareness == "nearest" and others:
        mine = poses[me]
        others = [min(others, key=lambda p: math.hypot(p.x - mine.x, p.y - mine.y))]
    return others


def _stamp_agents(static_edges: np.ndarray, poses, own_target, scenario) -> np.ndarray:
    """Static edges plus an `agent_radius` disc at each of `poses`, clear of this agent's own target.

    `poses` are anything with `x` and `y`; `run_multi` passes the camera's
    last reports of the agents `_aware_of` picks, cell centres all.
    """
    n, m = static_edges.shape
    gd = scenario.gd
    r_px = scenario.agent_radius / gd
    stamp = np.zeros_like(static_edges)
    for p in poses:
        ax, ay = p.x / gd, p.y / gd
        # test only the disc's bounding box, widened by a cell against rounding
        x0, x1 = (min(m, max(0, v)) for v in (math.floor(ax - r_px) - 1, math.ceil(ax + r_px) + 2))
        y0, y1 = (min(n, max(0, v)) for v in (math.floor(ay - r_px) - 1, math.ceil(ay + r_px) + 2))
        xs = np.arange(x0, x1)
        ys = np.arange(y0, y1)[:, None]
        stamp[y0:y1, x0:x1] |= (xs - ax) ** 2 + (ys - ay) ** 2 <= r_px**2
    # never wall off this agent's own goal: clear enough around the target
    # that the later dilation step cannot re-cover it
    d = hpf.DILATION
    tx, ty = own_target
    stamp[max(0, ty - d):ty + d + 1, max(0, tx - d):tx + d + 1] = False
    return static_edges | stamp


def run_multi(scenario: Scenario) -> MultiRunLog:
    """Decentralized multi-vehicle run.

    The server knows the other agents only from camera frames.  Each agent
    plans on its own boundary: the shared scene's edges plus a disc at the
    camera's last report of each agent it is aware of (`_aware_of`), a cell
    centre.  An agent the camera cannot see, out of frame, stays stamped at
    its last observed cell; its true pose is never used.  Those stamped
    cells are the only input of an agent's field besides the scene and its
    target, so the field is re-solved, warm started from the last one, only
    in a frame where they changed: a stamped agent was seen in another cell,
    or with "nearest" another agent became the nearest.  Otherwise each
    agent runs the same networked loop as a single vehicle.  A flat sample
    here means "blocked right now" and holds the vehicle instead of ending
    the run, since the blocker moves.  Collisions are with the scene only;
    how close the agents come to each other is measured by the minimum
    pairwise distance (`MultiRunLog.min_dm`).
    """
    if scenario.planner != "hpf":
        raise ValueError("planner: run_multi plans with hpf only, got %r" % scenario.planner)
    k = len(scenario.agents)
    if k < 2:
        raise ValueError("run_multi needs at least 2 agents (use run_loop for one)")
    gd = scenario.gd
    scene = build_scene(scenario)
    vehicles = [
        _Vehicle(scenario, spec.start, pixel_to_world(spec.target, gd, scenario.width, scenario.height),
                 scene, None, up, down)
        for spec, (up, down) in zip(scenario.agents, _make_lines(scenario, k))
    ]

    keys = [None] * k   # per agent, the stamped cell centres its field was last solved for

    def replan(i: int) -> None:
        stamped = _aware_of([u.seen for u in vehicles], i, scenario.awareness)
        key = [(p.x, p.y) for p in stamped]
        if key == keys[i]:
            return  # the camera saw no stamped agent change cell: the field still holds
        v, target = vehicles[i], scenario.agents[i].target
        boundary = hpf.build_boundary(_stamp_agents(scene.edges, stamped, target, scenario), target)
        prev = v.state
        pot = hpf.relax(boundary, initial=None if prev is None else prev.potential.phi)
        v.state = PlannerState("hpf", scene, boundary, grad=hpf.gradient(pot, boundary), potential=pot)
        keys[i] = key

    t_end, dm_times, dm_values = _simulate(scenario, vehicles, replan)
    outcome = "reached" if all(v.outcome == "reached" for v in vehicles) else "timeout"
    return MultiRunLog([v.log() for v in vehicles], dm_times, dm_values, outcome, t_end, scene)
