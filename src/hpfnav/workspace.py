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

The scenario schema is the dataclass declarations below: field types
(e.g. ``target: tuple[int, int]``, ``shapes: tuple[Disc | Rect, ...]``) plus
each field's domain in its metadata: ``gt`` (above), ``ge`` (at least),
``le`` (at most, with ``ge``), ``choices`` (the allowed strings) and
``allow_inf`` (may be +-inf).  One walker reads them to build a scenario from
JSON and to check one built in Python; `Scenario.validate` adds only the
rules that relate fields.  A ``scene`` flag in the metadata marks the fields
the camera frame is built from (`SCENE_FIELDS`).  Every config dataclass is
frozen and holds its sequences as tuples, so a scenario is checked once, when
it is built, and cannot change afterwards; a variant is a new scenario made
with `dataclasses.replace`.
"""

import functools
import itertools
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass, replace
from pathlib import Path

import numpy as np

MIN_GRID_SIDE = 15
MAX_FRAMES = 100_000   # camera frames one run may take: timeout_s * camera.rate_hz
MAX_CELLS = 640 * 480  # pixels one scene may have: width * height, a VGA camera frame
SCENARIO_SCHEMA_VERSION = 1


def _domain(default=MISSING, factory=MISSING, **meta):
    """A dataclass field whose metadata declares its domain, e.g. _domain(0.2, gt=0)."""
    return field(default=default, default_factory=factory, metadata=meta)


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
        # a theta that is not a number is left for Scenario.validate to name
        if _is(self.theta, float):
            object.__setattr__(self, "theta", wrap_angle(float(self.theta)))


@dataclass(frozen=True)
class GridImage:
    """Grayscale workspace image, shape (height, width), uint8; frozen, so a scene that holds it cannot change."""

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
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


# --- obstacle shapes ---------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    """Filled disc; a cell belongs to it when (px-cx)^2 + (py-cy)^2 <= r^2."""

    cx: float
    cy: float
    r: float = _domain(ge=0)
    intensity: int = _domain(40, ge=0, le=255)


@dataclass(frozen=True)
class Rect:
    """Filled axis-aligned rectangle, inclusive pixel bounds."""

    x0: int
    y0: int
    x1: int
    y1: int
    intensity: int = _domain(40, ge=0, le=255)


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
    """Draw filled shapes over a constant background, in order.

    It paints what a built `Scenario` holds: that scenario's checks keep every
    shape inside the image (rather than clipped, so scenario files stay honest
    about what the camera would see) and every intensity in 0..255.
    """
    img = np.full((height, width), background, np.uint8)
    ys, xs = np.mgrid[0:height, 0:width]
    for s in shapes:
        if isinstance(s, Disc):
            mask = (xs - s.cx) ** 2 + (ys - s.cy) ** 2 <= s.r**2
            img[mask] = s.intensity
        else:
            img[s.y0 : s.y1 + 1, s.x0 : s.x1 + 1] = s.intensity
    img.setflags(write=False)
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
    """Read a binary PGM (P5, maxval 255) workspace image.

    The header is read first: an image of more than `MAX_CELLS` pixels is
    refused before its payload is read.  The pixels come back read-only.
    """
    with open(path, "rb") as f:

        def next_token():
            """The next header token; whitespace and # comments before it are skipped,
            and the one whitespace byte after it is consumed."""
            c = f.read(1)
            while c.isspace() or c == b"#":
                if c == b"#":
                    while c not in (b"\n", b"\r", b""):
                        c = f.read(1)
                c = f.read(1)
            token = b""
            while c and not c.isspace():
                token += c
                c = f.read(1)
            if not token:
                raise ValueError("%s: malformed PGM header" % path)
            return token

        magic = next_token()
        if magic != b"P5":
            raise ValueError("%s: not a binary PGM (magic %r)" % (path, magic))
        try:
            width = int(next_token())
            height = int(next_token())
            maxval = int(next_token())
        except ValueError as e:
            raise ValueError("%s: malformed PGM header" % path) from e
        if width < 1 or height < 1:
            raise ValueError("%s: malformed PGM header (%dx%d)" % (path, width, height))
        if maxval != 255:
            raise ValueError("%s: unsupported maxval %d (only 255)" % (path, maxval))
        if width * height > MAX_CELLS:
            raise ValueError("%s: the %dx%d image is %d pixels, above the budget of %d"
                             % (path, width, height, width * height, MAX_CELLS))
        payload = f.read(width * height)   # the single whitespace after maxval is consumed
    if len(payload) != width * height:
        raise ValueError(
            "%s: truncated pixel payload (%d bytes for %dx%d)" % (path, len(payload), width, height)
        )
    return GridImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width))


# --- scenario ----------------------------------------------------------------


@dataclass(frozen=True)
class CameraConfig:
    rate_hz: float = _domain(5.0, gt=0)


@dataclass(frozen=True)
class DelayConfig:
    constant_s: float = _domain(0.0, ge=0)
    jitter_s: float = _domain(0.0, ge=0)       # uniform half-width added to the constant part
    drop_prob: float = _domain(0.0, ge=0, le=1)
    # packets older than this at delivery are discarded; inf turns the deadline off
    deadline_s: float = _domain(1.0, ge=0, allow_inf=True)
    up_fraction: float = _domain(0.5, ge=0, le=1)   # share of the constant delay on the uplink


@dataclass(frozen=True)
class ControlConfig:
    alpha: float = _domain(0.2, gt=0)          # speed gain, m/s
    beta: float = _domain(1.0, ge=0)           # look-ahead shrink per unit |A|
    d_max: float = _domain(0.1, gt=0)          # max look-ahead distance, m
    v_limit: float = _domain(0.3, gt=0)        # m/s
    omega_limit: float = _domain(2.0, gt=0)    # rad/s


@dataclass(frozen=True)
class VisionConfig:
    # Gaussian scale, pixels; kernels reach ceil(3*sigma)
    sigma: float = _domain(2.0, gt=0)
    zeta: float = _domain(20.0, ge=0)          # contrast threshold, intensity units per pixel


@dataclass(frozen=True)
class LookaheadConfig:
    mode: str = _domain("dynamic", choices=("dynamic", "fixed"))
    delta_l: int = _domain(1, ge=1)            # used when mode == "fixed"


@dataclass(frozen=True)
class AgentSpec:
    start: WorldPose
    target: tuple[int, int]


@dataclass(frozen=True)
class Scenario:
    """Complete description of one experiment."""

    name: str = "scenario"
    width: int = _domain(64, ge=MIN_GRID_SIDE, scene=True)
    height: int = _domain(48, ge=MIN_GRID_SIDE, scene=True)
    extent: tuple[float, float] = _domain((4.0, 3.0), gt=0, scene=True)   # (x_a, y_a) meters
    background: int = _domain(210, ge=0, le=255, scene=True)
    shapes: tuple[Disc | Rect, ...] = _domain((), scene=True)
    image_path: str | None = _domain(None, scene=True)   # PGM alternative to shapes
    target: tuple[int, int] = (32, 24)          # pixel cell
    start: WorldPose = field(default_factory=lambda: WorldPose(0.5, 1.5, 0.0))
    planner: str = _domain("hpf", choices=("hpf", "fm"))
    camera: CameraConfig = field(default_factory=CameraConfig)
    delay: DelayConfig = field(default_factory=DelayConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    vision: VisionConfig = _domain(factory=VisionConfig, scene=True)
    lookahead: LookaheadConfig = field(default_factory=LookaheadConfig)
    fm_d0: float | None = _domain(None, gt=0)   # tracker look-ahead, m; None means control.d_max
    goal_radius: float = _domain(0.1, gt=0)    # m
    # a NaN or infinite frame rate or timeout keeps the event loop from ever ending
    timeout_s: float = _domain(60.0, gt=0)
    watchdog_s: float = _domain(1.0, gt=0)
    seed: int = 0
    agents: tuple[AgentSpec, ...] = ()   # for multi-agent runs
    agent_radius: float = _domain(0.15, gt=0)   # m, footprint disc other agents must avoid
    awareness: str = _domain("all", choices=("all", "nearest"))

    def __post_init__(self):
        self.validate()
        # a sequence given in Python as a list is stored as a tuple
        tuples = dict(extent=tuple(self.extent), target=tuple(self.target), shapes=tuple(self.shapes),
                      agents=tuple(AgentSpec(a.start, tuple(a.target)) for a in self.agents))
        for name, value in tuples.items():
            object.__setattr__(self, name, value)

    @property
    def gd(self) -> float:
        """Ground distance of one pixel in meters."""
        return self.extent[0] / self.width

    def validate(self):
        """Raise ValueError, naming the field path, on the first fault found.

        Every field is first checked on its own against its declaration (see
        `_walk`); what is left here are the rules that relate fields.
        """
        _walk(self, Scenario, "", build=False)
        if self.width * self.height > MAX_CELLS:
            raise ValueError("width: width * height is %d cells, above the budget of %d"
                             % (self.width * self.height, MAX_CELLS))
        if self.timeout_s * self.camera.rate_hz > MAX_FRAMES:
            raise ValueError("timeout_s: timeout_s * camera.rate_hz is %g camera frames, above the "
                             "budget of %d" % (self.timeout_s * self.camera.rate_hz, MAX_FRAMES))
        for i, s in enumerate(self.shapes):
            if not _inside(s, self.width, self.height):
                raise ValueError("shapes[%d]: %s must lie inside the %dx%d image"
                                 % (i, _describe(s), self.width, self.height))
        x_a, y_a = self.extent
        if abs(x_a / self.width - y_a / self.height) > 1e-9:
            raise ValueError(
                "extent: pixels must be square, x_a/width=%g differs from y_a/height=%g"
                % (x_a / self.width, y_a / self.height)
            )
        vehicles = [("", self.start, self.target)]
        vehicles += [("agents[%d]." % i, spec.start, spec.target) for i, spec in enumerate(self.agents)]
        for where, start, (tx, ty) in vehicles:
            if not (0 <= tx < self.width and 0 <= ty < self.height):
                raise ValueError("%starget: cell (%s, %s) outside the grid" % (where, tx, ty))
            if not (0 <= start.x < x_a and 0 <= start.y < y_a):
                raise ValueError("%sstart: pose (%g, %g) outside the workspace" % (where, start.x, start.y))
        for (i, a), (j, b) in itertools.combinations(enumerate(self.agents), 2):
            if math.hypot(a.start.x - b.start.x, a.start.y - b.start.y) < 2 * self.agent_radius:
                raise ValueError("agents[%d].start: agents %d and %d start overlapping" % (j, i, j))
            if tuple(a.target) == tuple(b.target):
                raise ValueError("agents[%d].target: agents %d and %d share a target cell" % (j, i, j))
        # ceil(3*sigma) >= side exactly when 3*sigma > side - 1, and this form
        # cannot overflow when 3*sigma rounds to inf
        if 3 * self.vision.sigma > min(self.width, self.height) - 1:
            raise ValueError("vision.sigma: kernel radius ceil(3*sigma) must be below the grid side")
        if self.control.d_max < self.gd:
            raise ValueError("control.d_max: must be at least one pixel (%g m)" % self.gd)

    # -- image / file handling

    def build_image(self) -> GridImage:
        """Materialize the workspace image from shapes or a PGM file."""
        if self.image_path is not None:
            img = load_image(self.image_path)
            if img.width != self.width or img.height != self.height:
                raise ValueError(
                    "image %s is %dx%d but scenario declares %dx%d"
                    % (self.image_path, img.width, img.height, self.width, self.height)
                )
            return img
        return rasterize(self.shapes, self.width, self.height, self.background)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = SCENARIO_SCHEMA_VERSION
        d["shapes"] = [{"kind": _kind(type(s)), **sd} for s, sd in zip(self.shapes, d["shapes"])]
        return d

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


# the fields `netloop.build_scene` reads: image, obstacle mask, edge cells and collision tables
SCENE_FIELDS = tuple(f.name for f in fields(Scenario) if f.metadata.get("scene"))


_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _is(value, kind) -> bool:
    """Whether value has the declared scalar type kind; an int is a number, a bool is neither."""
    return isinstance(value, _SCALARS[kind][0]) and not isinstance(value, bool)


def _kind(cls) -> str:
    """A shape's `kind` in JSON: 'disc' for Disc, 'rect' for Rect."""
    return cls.__name__.lower()


def _one_of(classes) -> str:
    """'a Disc or a Rect' for (Disc, Rect)."""
    return " or ".join(("an " if c.__name__[0] in "AEIOU" else "a ") + c.__name__ for c in classes)


@functools.cache
def _declared(cls) -> tuple:
    """(name, resolved type, metadata) per field of a dataclass, e.g. ('target', tuple[int, int], {})."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata) for f in fields(cls))


@functools.cache
def _parts(hint) -> tuple:
    """(origin, args) of a declared type hint, e.g. (tuple, (int, int)) for tuple[int, int];
    cached, since every validate call walks every declared hint."""
    return typing.get_origin(hint), typing.get_args(hint)


def _broken_rule(value, meta):
    """The declared domain rule that value breaks, e.g. 'must be positive', or None."""
    if "choices" in meta:
        return None if value in meta["choices"] else "must be " + " or ".join(map(repr, meta["choices"]))
    gt, ge, le = meta.get("gt"), meta.get("ge"), meta.get("le")
    if gt is not None and not value > gt:
        return "must be positive" if gt == 0 else "must be above %g" % gt
    if le is not None and not ge <= value <= le:
        return "must lie in [%g, %g]" % (ge, le)
    if ge is not None and not value >= ge:
        return "must be non-negative" if ge == 0 else "must be at least %g" % ge
    return None


def _walk(value, hint, path: str, build: bool, meta=types.MappingProxyType({})):
    """Check value against its declared type hint; every error names the field path.

    With build, value is parsed JSON and the declared value is returned: an
    object becomes the dataclass, with unknown and missing keys rejected (a
    shape picks its class by `kind`), and a list becomes the declared tuple.
    Without it, value must already be the declared dataclass or shape, and a
    sequence a list or tuple; nothing is converted.  Scalars are checked
    alike either way, in one order: the declared type; for a number
    finiteness, because NaN fails every range comparison and inf passes most
    of them (metadata `allow_inf` lets +-inf through, never NaN); then the
    domain that the metadata declares: `gt`, `ge`, `le` (with `ge`) or
    `choices`.  A tuple's metadata holds for each of its items.
    """
    if hint in _SCALARS:
        if not _is(value, hint):
            raise ValueError("%s: expected %s, got %r" % (path, _SCALARS[hint][1], value))
        if isinstance(value, float) and not math.isfinite(value):
            allow_inf = meta.get("allow_inf", False)
            if not allow_inf or math.isnan(value):
                raise ValueError("%s: must be %s, got %r" % (path, "a number" if allow_inf else "finite", value))
        rule = meta and _broken_rule(value, meta)
        if rule:
            raise ValueError("%s: %s, got %r" % (path, rule, value))
        return value
    origin, args = _parts(hint)
    if origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        classes = [c for c in args if c is not type(None)]
        if len(classes) == 1:
            return _walk(value, classes[0], path, build, meta)
        if build:
            kind = value.get("kind") if isinstance(value, dict) else None
            cls = next((c for c in classes if _kind(c) == kind), None)
            if cls is None:
                raise ValueError("%s.kind: must be %s" % (path, " or ".join(repr(_kind(c)) for c in classes)))
            return _walk({k: v for k, v in value.items() if k != "kind"}, cls, path, build)
        cls = next((c for c in classes if isinstance(value, c)), None)
        if cls is None:
            raise ValueError("%s: expected %s, got %r" % (path, _one_of(classes), value))
        return _walk(value, cls, path, build)
    if is_dataclass(hint):
        where = path or "scenario"
        if build:
            if not isinstance(value, dict):
                raise ValueError("%s: expected an object, got %r" % (where, value))
            extra = set(value) - {f.name for f in fields(hint)}
            if extra:
                raise ValueError("%s: unknown field %s" % (where, ", ".join(sorted(extra))))
            missing = [f.name for f in fields(hint) if f.name not in value
                       and f.default is MISSING and f.default_factory is MISSING]
            if missing:
                raise ValueError("%s: missing field %s" % (where, ", ".join(missing)))
        elif not isinstance(value, hint):
            raise ValueError("%s: expected %s, got %r" % (where, _one_of([hint]), value))
        kwargs = {}
        for name, sub, sub_meta in _declared(hint):
            sub_path = path + "." + name if path else name
            if not build:
                _walk(getattr(value, name), sub, sub_path, build, sub_meta)
            elif name in value:   # an absent key keeps its default
                kwargs[name] = _walk(value[name], sub, sub_path, build, sub_meta)
        return hint(**kwargs) if build else value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError("%s: expected a list, got %r" % (path, value))
        variadic = args[-1] is Ellipsis   # tuple[X, ...]: any number of X
        if not variadic and len(value) != len(args):
            raise ValueError("%s: expected %d values, got %r" % (path, len(args), value))
        items = [_walk(v, args[0] if variadic else args[i], "%s[%d]" % (path, i), build, meta)
                 for i, v in enumerate(value)]
        return tuple(items) if build else value
    raise TypeError("no rule for the declared type %r at %s" % (hint, path))


def scenario_from_dict(d: dict) -> Scenario:
    d = dict(d)
    version = d.pop("schema_version", None)
    if version != SCENARIO_SCHEMA_VERSION:
        raise ValueError(
            "schema_version: expected %d, got %r" % (SCENARIO_SCHEMA_VERSION, version)
        )
    return _walk(d, Scenario, "", build=True)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:  # a JSONDecodeError, a UnicodeDecodeError, an integer of over 4300 digits
        raise ValueError("%s: invalid JSON (%s)" % (path, e)) from e
    except RecursionError:
        raise ValueError("%s: invalid JSON (nested too deeply)" % path) from None
    if not isinstance(raw, dict):
        raise ValueError("%s: scenario must be a JSON object" % path)
    sc = scenario_from_dict(raw)
    if sc.image_path is not None and not Path(sc.image_path).is_absolute():
        sc = replace(sc, image_path=str(path.parent / sc.image_path))
    return sc
