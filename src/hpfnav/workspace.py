"""Workspace data model: grids, poses, scenarios, and the pixel/world mapping.

Coordinate conventions used across the package:

* Pixel frame: cell (px, py) with px counting columns to the right and py
  counting rows downward, origin at the top-left cell.  Arrays are indexed
  ``a[py, px]``.
* World frame: meters, x to the right, y downward, origin at the top-left
  corner of the image.  The center of cell (px, py) sits at
  ``((px + 0.5) * G_D, (py + 0.5) * G_D)`` where ``G_D`` is the ground
  distance covered by one pixel.
* Headings: theta measured from +x toward +y, wrapped to (-pi, pi].
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass
from pathlib import Path

import numpy as np

MIN_GRID_SIDE = 15
SCENARIO_SCHEMA_VERSION = 1


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval (-pi, pi]."""
    a = (angle + math.pi) % math.tau - math.pi
    if a == -math.pi:
        a = math.pi
    return a


@dataclass(frozen=True)
class WorldPose:
    """Planar pose in world coordinates (meters, radians)."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


@dataclass
class GridImage:
    """Grayscale workspace image, shape (height, width), uint8."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError("image must be 2-D, got shape %r" % (px.shape,))
        n, m = px.shape
        if m < MIN_GRID_SIDE or n < MIN_GRID_SIDE:
            raise ValueError(
                "image must be at least %dx%d pixels, got %dx%d"
                % (MIN_GRID_SIDE, MIN_GRID_SIDE, m, n)
            )
        if px.dtype != np.uint8:
            if px.min() < 0 or px.max() > 255:
                raise ValueError("intensities must lie in [0, 255]")
            px = px.astype(np.uint8)
        self.pixels = px

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class EdgeMap:
    """Binary edge raster, shape (height, width)."""

    cells: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cells)
        if c.ndim != 2:
            raise ValueError("edge map must be 2-D, got shape %r" % (c.shape,))
        self.cells = c.astype(bool)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]


# --- obstacle shapes ---------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    """Filled disc; a cell belongs to it when (px-cx)^2 + (py-cy)^2 <= r^2."""

    cx: float
    cy: float
    r: float
    intensity: int = 40


@dataclass(frozen=True)
class Rect:
    """Filled axis-aligned rectangle, inclusive pixel bounds."""

    x0: int
    y0: int
    x1: int
    y1: int
    intensity: int = 40


def _gray(value, what: str):
    """An intensity as np.uint8; outside 0..255 np.uint8 would raise OverflowError."""
    if not 0 <= value <= 255:
        raise ValueError("%s must lie in [0, 255], got %r" % (what, value))
    return np.uint8(value)


def _inside(s, width: int, height: int) -> bool:
    """Whether a disc or rect lies wholly inside the image; a reversed rect does not."""
    if isinstance(s, Disc):
        return 0 <= s.cx - s.r and s.cx + s.r <= width - 1 and 0 <= s.cy - s.r and s.cy + s.r <= height - 1
    return 0 <= s.x0 <= s.x1 < width and 0 <= s.y0 <= s.y1 < height


def _describe(s) -> str:
    if isinstance(s, Disc):
        return "disc at (%g, %g) r=%g" % (s.cx, s.cy, s.r)
    return "rect (%s, %s)-(%s, %s)" % (s.x0, s.y0, s.x1, s.y1)


def rasterize(shapes, width: int, height: int, background: int = 210) -> GridImage:
    """Draw filled shapes over a constant background.

    Shapes are painted in list order.  A shape reaching outside the image is
    rejected rather than clipped, so scenario files stay honest about what
    the camera would actually see.  Intensities outside 0..255, a negative
    disc radius and non-integer rect bounds are rejected too.
    """
    img = np.full((height, width), _gray(background, "background"))
    ys, xs = np.mgrid[0:height, 0:width]
    for s in shapes:
        if isinstance(s, Disc):
            if s.r < 0:
                raise ValueError("disc at (%g, %g) has negative radius %g" % (s.cx, s.cy, s.r))
            if not _inside(s, width, height):
                raise ValueError("%s exceeds image bounds" % _describe(s))
            mask = (xs - s.cx) ** 2 + (ys - s.cy) ** 2 <= s.r**2
            img[mask] = _gray(s.intensity, "disc intensity")
        elif isinstance(s, Rect):
            bounds = (s.x0, s.y0, s.x1, s.y1)
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in bounds):
                raise ValueError("rect bounds must be integers, got %r" % (bounds,))
            if not _inside(s, width, height):
                raise ValueError("%s exceeds image bounds" % _describe(s))
            img[s.y0 : s.y1 + 1, s.x0 : s.x1 + 1] = _gray(s.intensity, "rect intensity")
        else:
            raise TypeError("unknown shape %r" % (s,))
    return GridImage(img)


# --- pixel <-> world ---------------------------------------------------------


def pixel_to_world(cell, gd: float, width: int, height: int):
    """Center of a pixel cell in world meters."""
    px, py = cell
    if not (0 <= px < width and 0 <= py < height):
        raise ValueError("cell (%s, %s) outside %dx%d grid" % (px, py, width, height))
    return ((px + 0.5) * gd, (py + 0.5) * gd)


def world_to_pixel(point, gd: float, width: int, height: int):
    """Cell containing a world point (floor mapping)."""
    x, y = point
    px = math.floor(x / gd)
    py = math.floor(y / gd)
    if not (0 <= px < width and 0 <= py < height):
        raise ValueError("point (%g, %g) outside the %gx%g m workspace" % (x, y, width * gd, height * gd))
    return (px, py)


# --- PGM input ---------------------------------------------------------------


def load_image(path) -> GridImage:
    """Read a binary PGM (P5, maxval 255) workspace image."""
    data = Path(path).read_bytes()
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            c = data[pos : pos + 1]
            if c.isspace():
                pos += 1
            elif c == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("%s: malformed PGM header" % path)
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise ValueError("%s: not a binary PGM (magic %r)" % (path, magic))
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as e:
        raise ValueError("%s: malformed PGM header" % path) from e
    if maxval != 255:
        raise ValueError("%s: unsupported maxval %d (only 255)" % (path, maxval))
    pos += 1  # single whitespace after maxval
    payload = data[pos : pos + width * height]
    if len(payload) != width * height:
        raise ValueError(
            "%s: truncated pixel payload (%d bytes for %dx%d)" % (path, len(payload), width, height)
        )
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return GridImage(px.copy())


# --- scenario ----------------------------------------------------------------


@dataclass
class CameraConfig:
    rate_hz: float = 5.0


@dataclass
class DelayConfig:
    constant_s: float = 0.0
    jitter_s: float = 0.0      # uniform half-width added to the constant part
    drop_prob: float = 0.0
    # packets older than this at delivery are discarded; inf turns the deadline off
    deadline_s: float = field(default=1.0, metadata={"allow_inf": True})
    up_fraction: float = 0.5   # share of the constant delay on the uplink


@dataclass
class ControlConfig:
    alpha: float = 0.2         # speed gain, m/s
    beta: float = 1.0          # look-ahead shrink per unit |A|
    d_max: float = 0.1         # max look-ahead distance, m
    v_limit: float = 0.3       # m/s
    omega_limit: float = 2.0   # rad/s


@dataclass
class VisionConfig:
    sigma: float = 2.0         # Gaussian scale, pixels; kernels reach ceil(3*sigma)
    zeta: float = 40.0         # contrast threshold


@dataclass
class LookaheadConfig:
    mode: str = "dynamic"           # "dynamic" or "fixed"
    delta_l: int = 1                # used when mode == "fixed"


@dataclass
class AgentSpec:
    start: WorldPose
    target: tuple


@dataclass
class Scenario:
    """Complete description of one experiment."""

    name: str = "scenario"
    width: int = 64
    height: int = 48
    extent: tuple = (4.0, 3.0)      # (x_a, y_a) meters
    background: int = 210
    shapes: list = field(default_factory=list)
    image_path: str | None = None   # PGM alternative to shapes
    target: tuple = (32, 24)        # pixel cell
    start: WorldPose = field(default_factory=lambda: WorldPose(0.5, 1.5, 0.0))
    planner: str = "hpf"
    camera: CameraConfig = field(default_factory=CameraConfig)
    delay: DelayConfig = field(default_factory=DelayConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    vision: VisionConfig = field(default_factory=VisionConfig)
    lookahead: LookaheadConfig = field(default_factory=LookaheadConfig)
    fm_d0: float | None = None      # tracker look-ahead, m; None means control.d_max
    goal_radius: float = 0.1        # m
    timeout_s: float = 60.0
    watchdog_s: float = 1.0
    seed: int = 0
    agents: list = field(default_factory=list)   # AgentSpec for multi-agent runs
    agent_radius: float = 0.15      # m, footprint disc other agents must avoid
    awareness: str = "all"          # "all" or "nearest"

    def __post_init__(self):
        self.validate()

    @property
    def gd(self) -> float:
        """Ground distance of one pixel in meters."""
        return self.extent[0] / self.width

    def validate(self):
        # a NaN or infinite frame rate or timeout keeps the event loop from ever ending
        for name, value in (("camera.rate_hz", self.camera.rate_hz), ("timeout_s", self.timeout_s),
                            ("watchdog_s", self.watchdog_s), ("goal_radius", self.goal_radius),
                            ("vision.sigma", self.vision.sigma)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s: must be finite and positive, got %r" % (name, value))
        _check_finite(self, "")
        if self.width < MIN_GRID_SIDE or self.height < MIN_GRID_SIDE:
            raise ValueError("width/height: grid must be at least %dx%d" % (MIN_GRID_SIDE, MIN_GRID_SIDE))
        # rasterize rejects these too, but only here does the message name the field
        if not 0 <= self.background <= 255:
            raise ValueError("background: must lie in [0, 255], got %r" % (self.background,))
        for i, s in enumerate(self.shapes):
            if not isinstance(s, (Disc, Rect)):
                raise ValueError("shapes[%d]: expected a Disc or a Rect, got %r" % (i, s))
            # the type checks a scenario file gets, for shapes built in Python
            for f in fields(s):
                _scalar(getattr(s, f.name), f.type, "shapes[%d].%s" % (i, f.name))
            if not 0 <= s.intensity <= 255:
                raise ValueError("shapes[%d].intensity: must lie in [0, 255], got %r" % (i, s.intensity))
            if isinstance(s, Disc) and s.r < 0:
                raise ValueError("shapes[%d].r: must be non-negative, got %r" % (i, s.r))
            if not _inside(s, self.width, self.height):
                raise ValueError("shapes[%d]: %s must lie inside the %dx%d image"
                                 % (i, _describe(s), self.width, self.height))
        x_a, y_a = self.extent
        if x_a <= 0 or y_a <= 0:
            raise ValueError("extent: workspace size must be positive")
        if abs(x_a / self.width - y_a / self.height) > 1e-9:
            raise ValueError(
                "extent: pixels must be square, x_a/width=%g differs from y_a/height=%g"
                % (x_a / self.width, y_a / self.height)
            )
        tx, ty = self.target
        if not (0 <= tx < self.width and 0 <= ty < self.height):
            raise ValueError("target: cell (%s, %s) outside the grid" % (tx, ty))
        if not (0 <= self.start.x < x_a and 0 <= self.start.y < y_a):
            raise ValueError("start: pose (%g, %g) outside the workspace" % (self.start.x, self.start.y))
        for i, spec in enumerate(self.agents):
            ax, ay = spec.target
            if not (0 <= ax < self.width and 0 <= ay < self.height):
                raise ValueError("agents[%d].target: cell outside the grid" % i)
            if not (0 <= spec.start.x < x_a and 0 <= spec.start.y < y_a):
                raise ValueError("agents[%d].start: pose outside the workspace" % i)
        if self.planner not in ("hpf", "fm"):
            raise ValueError("planner: must be 'hpf' or 'fm', got %r" % (self.planner,))
        if self.lookahead.mode not in ("dynamic", "fixed"):
            raise ValueError("lookahead.mode: must be 'dynamic' or 'fixed'")
        if self.lookahead.mode == "fixed" and self.lookahead.delta_l < 1:
            raise ValueError("lookahead.delta_l: must be >= 1")
        # ceil(3*sigma) >= side exactly when 3*sigma > side - 1, and this form
        # cannot overflow when 3*sigma rounds to inf
        if 3 * self.vision.sigma > min(self.width, self.height) - 1:
            raise ValueError("vision.sigma: kernel radius ceil(3*sigma) must be below the grid side")
        if self.control.d_max < self.gd:
            raise ValueError("control.d_max: must be at least one pixel (%g m)" % self.gd)
        if not 0.0 <= self.delay.drop_prob <= 1.0:
            raise ValueError("delay.drop_prob: must lie in [0, 1]")
        for name in ("constant_s", "jitter_s", "deadline_s"):
            if getattr(self.delay, name) < 0:
                raise ValueError("delay.%s: must be non-negative, got %r" % (name, getattr(self.delay, name)))
        if not 0.0 <= self.delay.up_fraction <= 1.0:
            raise ValueError("delay.up_fraction: must lie in [0, 1]")
        if self.fm_d0 is not None and self.fm_d0 <= 0:
            raise ValueError("fm_d0: look-ahead distance must be positive")
        if self.awareness not in ("all", "nearest"):
            raise ValueError("awareness: must be 'all' or 'nearest'")
        if self.agent_radius <= 0:
            raise ValueError("agent_radius: must be positive")

    # -- image / file handling

    def build_image(self, base_dir=None) -> GridImage:
        """Materialize the workspace image from shapes or a PGM file."""
        if self.image_path is not None:
            p = Path(self.image_path)
            if base_dir is not None and not p.is_absolute():
                p = Path(base_dir) / p
            img = load_image(p)
            if img.width != self.width or img.height != self.height:
                raise ValueError(
                    "image %s is %dx%d but scenario declares %dx%d"
                    % (p, img.width, img.height, self.width, self.height)
                )
            return img
        return rasterize(self.shapes, self.width, self.height, self.background)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCENARIO_SCHEMA_VERSION
        d["shapes"] = [_shape_to_dict(s) for s in self.shapes]
        d["agents"] = [
            {"start": asdict(a.start), "target": list(a.target)} for a in self.agents
        ]
        return d

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _check_finite(value, path: str, allow_inf: bool = False) -> None:
    """Every float in a scenario, nested configs and lists included, must be
    finite; a field declared with metadata allow_inf may also be +-inf.

    NaN fails every range comparison and inf passes most of them, so either
    would otherwise run as if the value were absent or unbounded (a NaN delay
    acts as no delay, a NaN limit never saturates, an infinite rate never ends).
    """
    if is_dataclass(value):
        for f in fields(value):
            _check_finite(getattr(value, f.name), path + "." + f.name if path else f.name,
                          f.metadata.get("allow_inf", False))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(item, "%s[%d]" % (path, i))
    elif isinstance(value, float) and not (math.isfinite(value) or allow_inf and not math.isnan(value)):
        raise ValueError("%s: must be %s, got %r" % (path, "a number" if allow_inf else "finite", value))


def _shape_to_dict(s) -> dict:
    if isinstance(s, Disc):
        return {"kind": "disc", "cx": s.cx, "cy": s.cy, "r": s.r, "intensity": s.intensity}
    if isinstance(s, Rect):
        return {"kind": "rect", "x0": s.x0, "y0": s.y0, "x1": s.x1, "y1": s.y1, "intensity": s.intensity}
    raise TypeError("unknown shape %r" % (s,))


_SCALARS = {"float": ((int, float), "a number"), "int": (int, "an integer"), "str": (str, "a string")}


def _scalar(value, annotation: str, path: str):
    """Check a JSON value against a field annotation such as 'float' or 'str | None'."""
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return value
    types, what = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError("%s: expected %s, got %r" % (path, what, value))
    return value


def _each(item):
    """Converter for a JSON list that applies item(value, path) to each entry."""
    def convert(value, path: str) -> list:
        if not isinstance(value, list):
            raise ValueError("%s: expected a list, got %r" % (path, value))
        return [item(v, "%s[%d]" % (path, i)) for i, v in enumerate(value)]
    return convert


def _pair(kind: str):
    def convert(value, path: str) -> tuple:
        items = _each(lambda v, p: _scalar(v, kind, p))(value, path)
        if len(items) != 2:
            raise ValueError("%s: expected 2 values, got %r" % (path, value))
        return tuple(items)
    return convert


def _build(cls, data, context: str, convert=None):
    """Construct a dataclass from a JSON object, rejecting unknown or missing keys.

    A value must have its field's scalar type unless `convert` maps the field
    to a converter(value, path).  Errors carry the field path, e.g. shapes[0].cy.
    """
    where = context or "scenario"
    if not isinstance(data, dict):
        raise ValueError("%s: expected an object, got %r" % (where, data))
    fields = cls.__dataclass_fields__
    extra = set(data) - set(fields)
    if extra:
        raise ValueError("%s: unknown field %s" % (where, ", ".join(sorted(extra))))
    missing = [name for name, f in fields.items()
               if name not in data and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError("%s: missing field %s" % (where, ", ".join(missing)))
    kwargs = {}
    for name, value in data.items():
        path = context + "." + name if context else name
        if convert and name in convert:
            kwargs[name] = convert[name](value, path)
        else:
            kwargs[name] = _scalar(value, fields[name].type, path)
    return cls(**kwargs)


def _nested(cls, convert=None):
    return lambda value, path: _build(cls, value, path, convert)


def _shape(s, path: str):
    kind = s.get("kind") if isinstance(s, dict) else None
    cls = Disc if kind == "disc" else Rect if kind == "rect" else None
    if cls is None:
        raise ValueError("%s.kind: must be 'disc' or 'rect'" % path)
    return _build(cls, {k: v for k, v in s.items() if k != "kind"}, path)


_SCENARIO_FIELDS = {
    "extent": _pair("float"),
    "shapes": _each(_shape),
    "target": _pair("int"),
    "start": _nested(WorldPose),
    "camera": _nested(CameraConfig),
    "delay": _nested(DelayConfig),
    "control": _nested(ControlConfig),
    "vision": _nested(VisionConfig),
    "lookahead": _nested(LookaheadConfig),
    "agents": _each(_nested(AgentSpec, {"start": _nested(WorldPose), "target": _pair("int")})),
}


def scenario_from_dict(d: dict) -> Scenario:
    d = dict(d)
    version = d.pop("schema_version", None)
    if version != SCENARIO_SCHEMA_VERSION:
        raise ValueError(
            "schema_version: expected %d, got %r" % (SCENARIO_SCHEMA_VERSION, version)
        )
    return _build(Scenario, d, "", _SCENARIO_FIELDS)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError("%s: invalid JSON (%s)" % (path, e)) from e
    if not isinstance(raw, dict):
        raise ValueError("%s: scenario must be a JSON object" % path)
    sc = scenario_from_dict(raw)
    if sc.image_path is not None and not Path(sc.image_path).is_absolute():
        sc.image_path = str(path.parent / sc.image_path)
    return sc
