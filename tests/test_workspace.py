import dataclasses
import json
import math
import re
import types
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hpfnav.controller import A_CAP
from hpfnav.guidance import lookahead
from hpfnav.workspace import (
    AgentSpec,
    CameraConfig,
    ControlConfig,
    DelayConfig,
    Disc,
    GridImage,
    Rect,
    Scenario,
    VisionConfig,
    WorldPose,
    load_image,
    load_scenario,
    pixel_to_world,
    rasterize,
    scenario_from_dict,
    world_to_pixel,
    wrap_angle,
)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    for k in range(-7, 8):
        a = 0.3 + 2 * math.pi * k
        assert wrap_angle(a) == pytest.approx(0.3)


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
@example(-math.pi)
@example(math.pi)
@example(0.3)
@example(0.0)
@example(-0.0)
@example(math.nextafter(math.pi, 0.0))
@example(math.nextafter(math.pi, 4.0))
@example(math.nextafter(-math.pi, 0.0))
@example(math.nextafter(-math.pi, -4.0))
def test_wrap_angle_returns_its_own_outputs_bitwise(a):
    """A second wrap changes no bit, so the plant may keep a heading that `plant.arc` wrapped as it is.

    The wrap is w = fl(m - pi) with m = fl(a + pi) mod tau in [0, tau).  Re-wrapping w first takes
    w + pi, and that sum is exact, by Sterbenz's lemma (x - y is exact when y/2 <= x <= 2y): where
    m >= pi/2, m - pi was exact, so w + pi = m; where m < pi/2, w <= -pi/2 and pi - |w| is exact.
    So w + pi lies in [0, tau] and comes back from the mod as itself (tau, for w = pi, goes to 0
    and then to pi again), and (w + pi) - pi = w is a float, so it is computed exactly too.  The
    first wrap does move angles, 0.3 to 0.2999999999999998 among them."""
    w = wrap_angle(a)
    assert wrap_angle(w).hex() == w.hex()


def test_world_pose_normalizes_theta():
    p = WorldPose(1.0, 2.0, 5 * math.pi / 2)
    assert p.theta == pytest.approx(math.pi / 2)


# -- PGM I/O


def test_load_pgm_bytes(tmp_path):
    f = tmp_path / "tiny.pgm"
    f.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    # 2x2 is below the minimum grid side, so go through the raw reader path
    with pytest.raises(ValueError):
        load_image(f)


def test_load_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    pix = rng.integers(0, 256, (20, 30), dtype=np.uint8)
    f = tmp_path / "img.pgm"
    f.write_bytes(b"P5\n30 20\n255\n" + pix.tobytes())
    img = load_image(f)
    assert img.width == 30 and img.height == 20
    np.testing.assert_array_equal(img.pixels, pix)


def test_load_pgm_camera_resolution(tmp_path):
    f = tmp_path / "big.pgm"
    f.write_bytes(b"P5\n320 240\n255\n" + bytes(320 * 240))
    img = load_image(f)
    assert (img.width, img.height) == (320, 240)


def test_load_pgm_errors(tmp_path):
    bad_magic = tmp_path / "p2.pgm"
    bad_magic.write_bytes(b"P2\n16 16\n255\n" + bytes(256))
    with pytest.raises(ValueError, match="PGM"):
        load_image(bad_magic)

    truncated = tmp_path / "short.pgm"
    truncated.write_bytes(b"P5\n16 16\n255\n" + bytes(15))
    with pytest.raises(ValueError, match="truncated|payload"):
        load_image(truncated)

    maxval = tmp_path / "deep.pgm"
    maxval.write_bytes(b"P5\n16 16\n65535\n" + bytes(512))
    with pytest.raises(ValueError, match="255"):
        load_image(maxval)

    garbage = tmp_path / "noise.pgm"
    garbage.write_bytes(b"P5\nxx yy\n255\n")
    with pytest.raises(ValueError):
        load_image(garbage)


def test_load_pgm_header_over_the_cell_budget_is_refused_before_the_payload(tmp_path):
    """The header alone decides: this file has no payload, and it was reported truncated."""
    huge = tmp_path / "huge.pgm"
    huge.write_bytes(b"P5\n# a comment\n100000 75000\n255\n")
    with pytest.raises(ValueError, match=r"the 100000x75000 image is 7500000000 pixels, above the budget of 307200$"):
        load_image(huge)
    for dims in (b"0 16", b"16 -1"):
        empty = tmp_path / "empty.pgm"
        empty.write_bytes(b"P5\n" + dims + b"\n255\n")
        with pytest.raises(ValueError, match="malformed PGM header"):
            load_image(empty)


def test_loaded_and_drawn_pixels_are_read_only(tmp_path):
    f = tmp_path / "img.pgm"
    f.write_bytes(b"P5\n# comment\n20 16\n255\n" + bytes(20 * 16))
    for img in (load_image(f), rasterize([], 20, 16)):
        with pytest.raises(ValueError, match="read-only"):
            img.pixels[0, 0] = 1


# -- synthetic scenes


def test_rasterize_uniform_background():
    img = rasterize([], 16, 16, background=200)
    assert (img.pixels == 200).all()


def test_rasterize_disc_pixel_count():
    img = rasterize([Disc(10, 10, 3, intensity=20)], 21, 21, background=200)
    # brute-force membership count
    hits = 0
    for py in range(21):
        for px in range(21):
            if (px - 10) ** 2 + (py - 10) ** 2 <= 9:
                hits += 1
                assert img.pixels[py, px] == 20
            else:
                assert img.pixels[py, px] == 200
    assert hits == 29
    assert (img.pixels == 20).sum() == 29


def test_rasterize_full_rect():
    img = rasterize([Rect(0, 0, 15, 15, intensity=33)], 16, 16, background=200)
    assert (img.pixels == 33).all()


# rasterize paints only what a built scenario holds: a shape or background it
# could not paint is refused, with its field path, when the scenario is built
def _scenario_16x16(shapes, background=210):
    return Scenario(name="s", width=16, height=16, extent=(1.6, 1.6), target=(8, 8),
                    start=WorldPose(0.5, 0.5), shapes=shapes, background=background)


def test_rasterize_rejects_out_of_bounds():
    for shape, message in [(Disc(30, 8, 2), "shapes[0]: disc at (30, 8) r=2 must lie inside the 16x16 image"),
                           (Rect(-1, 0, 4, 4), "shapes[0]: rect (-1, 0)-(4, 4) must lie inside the 16x16 image")]:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            _scenario_16x16([shape])


@pytest.mark.parametrize(
    "shapes, background, message",
    [
        ([Disc(10, 10, 3, intensity=300)], 210, "shapes[0].intensity: must lie in [0, 255], got 300"),
        ([Rect(2, 2, 4, 4, intensity=-1)], 210, "shapes[0].intensity: must lie in [0, 255], got -1"),
        ([], 256, "background: must lie in [0, 255], got 256"),
        ([], -0.5, "background: expected an integer, got -0.5"),
        ([Disc(10, 10, -2)], 210, "shapes[0].r: must be non-negative, got -2"),
        ([Rect(3.5, 3, 10, 10)], 210, "shapes[0].x0: expected an integer, got 3.5"),
        ([Rect("3", 3, 10, 10)], 210, "shapes[0].x0: expected an integer, got '3'"),
        ([Disc("1", 2, 3)], 210, "shapes[0].cx: expected a number, got '1'"),
    ],
    ids=["shapes0-210-disc intensity", "shapes1-210-rect intensity", "shapes2-256-background",
         "shapes3--0.5-background", "shapes4-210-negative radius", "shapes5-210-rect bounds must be integers",
         "shapes6-210-rect bounds must be integers", "shapes7-210-disc centre and radius must be numbers"],
)
def test_rasterize_rejects_bad_intensity_and_radius(shapes, background, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        _scenario_16x16(shapes, background)


def test_grid_image_minimum_side():
    with pytest.raises(ValueError):
        GridImage(np.zeros((8, 40), dtype=np.uint8))


# -- coordinate transforms


def test_pixel_to_world_cell_origin():
    assert pixel_to_world((0, 0), 0.0125, 320, 240) == pytest.approx((0.00625, 0.00625))


def test_pixel_world_roundtrip():
    for cell in [(0, 0), (319, 239), (57, 101)]:
        w = pixel_to_world(cell, 0.0125, 320, 240)
        assert world_to_pixel(w, 0.0125, 320, 240) == cell


def test_world_to_pixel_out_of_bounds():
    with pytest.raises(ValueError):
        world_to_pixel((4.1, 1.0), 0.0125, 320, 240)
    with pytest.raises(ValueError):
        pixel_to_world((320, 0), 0.0125, 320, 240)


# -- scenario schema


def test_scenario_gd_square_pixels():
    sc = Scenario(name="t")
    assert sc.gd == pytest.approx(4.0 / 64)
    with pytest.raises(ValueError, match="extent"):
        Scenario(name="bad", extent=(4.0, 2.0))


def test_scenario_roundtrip(tmp_path):
    sc = Scenario(
        name="rt",
        shapes=[Disc(40, 20, 5), Rect(4, 4, 8, 9, intensity=25)],
        start=WorldPose(0.5, 1.5, 0.3),
        agents=[
            AgentSpec(start=WorldPose(1.0, 1.0, 0.0), target=(50, 40)),
            AgentSpec(start=WorldPose(3.0, 2.0, 1.0), target=(10, 10)),
        ],
        fm_d0=0.2,
    )
    f = tmp_path / "rt.json"
    sc.save(f)
    back = load_scenario(f)
    assert back.to_dict() == sc.to_dict()
    assert back.shapes[0] == Disc(40, 20, 5)
    assert back.agents[1].target == (10, 10)


def test_scenario_rejects_unknown_field():
    d = Scenario(name="x").to_dict()
    d["turbo"] = True
    with pytest.raises(ValueError, match="turbo"):
        scenario_from_dict(d)


def test_scenario_rejects_wrong_schema_version():
    d = Scenario(name="x").to_dict()
    d["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        scenario_from_dict(d)


def test_scenario_validation_messages():
    with pytest.raises(ValueError, match="target"):
        Scenario(name="t", target=(64, 24))
    with pytest.raises(ValueError, match="start"):
        Scenario(name="t", start=WorldPose(5.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="up_fraction"):
        Scenario(name="t", delay=DelayConfig(up_fraction=1.5))
    with pytest.raises(ValueError, match="planner"):
        Scenario(name="t", planner="rrt")
    with pytest.raises(ValueError, match="fm_d0"):
        Scenario(name="t", fm_d0=-0.1)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("camera.rate_hz", {"camera": CameraConfig(rate_hz=math.nan)}),
        ("camera.rate_hz", {"camera": CameraConfig(rate_hz=math.inf)}),
        ("timeout_s", {"timeout_s": math.nan}),
        ("timeout_s", {"timeout_s": math.inf}),
        ("timeout_s", {"timeout_s": -1.0}),
        ("watchdog_s", {"watchdog_s": 0.0}),
        ("watchdog_s", {"watchdog_s": math.nan}),
        ("goal_radius", {"goal_radius": -0.1}),
        ("goal_radius", {"goal_radius": math.inf}),
        ("delay.deadline_s", {"delay": DelayConfig(deadline_s=-0.5)}),
        ("delay.deadline_s", {"delay": DelayConfig(deadline_s=math.nan)}),
        ("vision.sigma", {"vision": VisionConfig(sigma=math.nan)}),
        ("vision.sigma", {"vision": VisionConfig(sigma=16.0)}),
        ("vision.sigma", {"vision": VisionConfig(sigma=1e308)}),
        ("background", {"background": -1}),
        ("background", {"background": 300}),
        ("shapes[0].intensity", {"shapes": [Disc(10.0, 10.0, 3.0, intensity=256)]}),
        ("shapes[1].intensity", {"shapes": [Disc(10.0, 10.0, 3.0), Rect(1, 1, 4, 4, intensity=-5)]}),
        ("shapes[0].r", {"shapes": [Disc(10.0, 10.0, -1.0)]}),
        ("shapes[0].r", {"shapes": [Disc(10.0, 10.0, -1e308)]}),
        ("shapes[0].x0", {"shapes": [Rect(3.5, 3, 10, 10)]}),
        ("shapes[0].x0", {"shapes": [Rect("3", 3, 10, 10)]}),
        ("shapes[0].x1", {"shapes": [Rect(3, 3, True, 10)]}),
        ("shapes[0].cx", {"shapes": [Disc("1", 10.0, 3.0)]}),
        ("shapes[0]", {"shapes": [Rect(10, 10, 3, 3)]}),
        ("shapes[1]", {"shapes": [Disc(10.0, 10.0, 3.0), Rect(0, 40, 10, 48)]}),
        ("shapes[0]", {"shapes": [Disc(60.0, 10.0, 5.0)]}),
        ("vision.zeta", {"vision": VisionConfig(zeta=-1.0)}),
        ("timeout_s", {"camera": CameraConfig(rate_hz=1e20)}),
        ("timeout_s", {"timeout_s": 1e12}),
        ("timeout_s", {"camera": CameraConfig(rate_hz=1e308), "timeout_s": 1e308}),
    ],
    ids=["rate-nan", "rate-inf", "timeout-nan", "timeout-inf", "timeout-negative", "watchdog-zero",
         "watchdog-nan", "goal-negative", "goal-inf", "deadline-negative", "deadline-nan",
         "sigma-nan", "sigma-kernel-wider-than-grid", "sigma-huge", "background-negative",
         "background-300", "disc-intensity-256", "rect-intensity-negative", "disc-r-negative",
         "disc-r-huge-negative", "rect-x0-float", "rect-x0-string", "rect-x1-bool", "disc-cx-string",
         "rect-reversed", "rect-outside", "disc-outside", "zeta-negative", "frames-rate-huge",
         "frames-timeout-huge", "frames-overflow"],
)
def test_scenario_rejects_non_finite_or_out_of_range_times(field, kwargs):
    with pytest.raises(ValueError, match="^" + re.escape(field) + ": "):
        Scenario(name="t", **kwargs)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("delay.constant_s", {"delay": DelayConfig(constant_s=math.nan)}),
        ("delay.jitter_s", {"delay": DelayConfig(jitter_s=math.nan)}),
        ("delay.drop_prob", {"delay": DelayConfig(drop_prob=math.nan)}),
        ("control.alpha", {"control": ControlConfig(alpha=math.inf)}),
        ("control.beta", {"control": ControlConfig(beta=math.nan)}),
        ("control.d_max", {"control": ControlConfig(d_max=math.nan)}),
        ("control.v_limit", {"control": ControlConfig(v_limit=math.nan)}),
        ("control.omega_limit", {"control": ControlConfig(omega_limit=-math.inf)}),
        ("agent_radius", {"agent_radius": math.nan}),
        ("fm_d0", {"fm_d0": math.nan}),
        ("extent[0]", {"extent": (math.nan, 3.0)}),
        ("start.theta", {"start": WorldPose(0.5, 1.5, math.nan)}),
        ("shapes[0].r", {"shapes": [Disc(10.0, 10.0, math.nan)]}),
        ("agents[1].start.x", {"agents": [AgentSpec(WorldPose(0.5, 0.5), (5, 5)),
                                          AgentSpec(WorldPose(math.nan, 0.5), (9, 9))]}),
    ],
    ids=["constant-nan", "jitter-nan", "drop-nan", "alpha-inf", "beta-nan", "dmax-nan", "vlimit-nan",
         "omega-neg-inf", "agent-radius-nan", "fm-d0-nan", "extent-nan", "theta-nan", "disc-r-nan",
         "agent-start-nan"],
)
def test_scenario_rejects_every_non_finite_float(field, kwargs):
    """One rule for every float field: finite, unless declared to allow inf (delay.deadline_s)."""
    with pytest.raises(ValueError, match="^" + re.escape(field) + ": must be finite, got"):
        Scenario(name="t", **kwargs)


# one shape of each kind and one agent, so that every declared field is reached
TYPED_BASE = Scenario(name="t", shapes=[Disc(10.0, 10.0, 3.0), Rect(1, 1, 4, 4)],
                      agents=[AgentSpec(WorldPose(0.5, 0.5), (5, 5))], fm_d0=0.2)


def _scalar_fields(value, hint, steps=(), meta=types.MappingProxyType({})):
    """(steps, declared type, metadata) of every scalar field reachable from value,
    read from the dataclass declarations; steps are field names and list indices,
    and a tuple's items share its metadata."""
    if typing.get_origin(hint) is types.UnionType:   # a shape, or an optional scalar
        hint = type(value) if dataclasses.is_dataclass(value) else typing.get_args(hint)[0]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        for f in dataclasses.fields(hint):
            yield from _scalar_fields(getattr(value, f.name), hints[f.name], steps + (f.name,), f.metadata)
    elif origin is tuple:
        for i, item in enumerate(value):
            yield from _scalar_fields(item, args[0] if args[-1] is Ellipsis else args[i], steps + (i,), meta)
    else:
        yield steps, hint, meta


def _path(steps):
    return "".join("[%d]" % s if isinstance(s, int) else "." + s for s in steps).lstrip(".")


def _replaced(value, steps, new):
    """value with the field or item at steps set to new; the outermost replace validates."""
    if not steps:
        return new
    head, rest = steps[0], steps[1:]
    if isinstance(head, int):
        items = list(value)
        items[head] = _replaced(items[head], rest, new)
        return type(value)(items)
    return dataclasses.replace(value, **{head: _replaced(getattr(value, head), rest, new)})


WRONG_TYPES = {float: ["1", True], int: ["1", True, 2.5], str: [1]}
WRONG_TYPE_CASES = [
    (steps, bad, _path(steps) + ": expected ")
    for steps, hint, _ in _scalar_fields(TYPED_BASE, Scenario)
    for bad in WRONG_TYPES[hint]
] + [
    (("shapes", 0), {"kind": "disc", "cx": 10.0, "cy": 10.0, "r": 3.0}, "shapes[0]: expected a Disc or a Rect"),
    (("camera",), {"rate_hz": 5.0}, "camera: expected a CameraConfig, got "),
    (("start",), {"x": 0.5, "y": 1.5, "theta": 0.0}, "start: expected a WorldPose, got "),
]


@pytest.mark.parametrize("steps, bad, message", WRONG_TYPE_CASES,
                         ids=["%s=%r" % (_path(steps), bad) for steps, bad, _ in WRONG_TYPE_CASES])
def test_python_built_scenario_gets_the_declared_types(steps, bad, message):
    """Every declared field of a scenario built in Python is type-checked as a file is."""
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        _replaced(TYPED_BASE, steps, bad)


# fields left free on their own: positions and cells, which validate checks
# against the grid, and values that any number or text may take
FREE_FIELDS = {"name", "image_path", "seed", "shapes[0].cx", "shapes[0].cy", "shapes[1].x0",
               "shapes[1].y0", "shapes[1].x1", "shapes[1].y1", "target[0]", "target[1]",
               "start.x", "start.y", "start.theta", "agents[0].start.x", "agents[0].start.y",
               "agents[0].start.theta", "agents[0].target[0]", "agents[0].target[1]"}
# fields whose bound a rule relating fields forbids in TYPED_BASE: a 15-cell
# side or a tiny extent breaks square pixels, a tiny d_max is below one pixel
RELATED_AT_BOUND = {"width", "height", "extent[0]", "extent[1]", "control.d_max"}
DOMAIN_CASES = [(steps, hint, meta) for steps, hint, meta in _scalar_fields(TYPED_BASE, Scenario)
                if _path(steps) not in FREE_FIELDS]


def _at_and_beyond(hint, meta):
    """(values the declared domain accepts at its edge, nearest values it rejects)."""
    if "choices" in meta:
        return list(meta["choices"]), [meta["choices"][0].upper(), ""]
    step = (lambda v, d: v + d) if hint is int else (lambda v, d: math.nextafter(v, d * math.inf))
    inside, outside = [], []
    if "gt" in meta:
        inside, outside = [step(meta["gt"], 1)], [meta["gt"]]
    if "ge" in meta:
        inside, outside = [meta["ge"]], [step(meta["ge"], -1)]
    if "le" in meta:
        inside, outside = inside + [meta["le"]], outside + [step(meta["le"], 1)]
    return inside, outside


@pytest.mark.parametrize("steps, hint, meta", DOMAIN_CASES, ids=[_path(c[0]) for c in DOMAIN_CASES])
def test_every_declared_domain_holds_at_its_bound(steps, hint, meta):
    """Each field's declared domain, read from its metadata: the bound itself
    passes (unless a rule relating fields forbids it) and the nearest value
    beyond it fails with the field path.  A field outside FREE_FIELDS must
    declare one."""
    inside, outside = _at_and_beyond(hint, meta)
    assert outside, "%s declares no domain" % _path(steps)
    if _path(steps) not in RELATED_AT_BOUND:
        for value in inside:
            _replaced(TYPED_BASE, steps, value)
    for value in outside:
        with pytest.raises(ValueError, match="^" + re.escape(_path(steps)) + ": "):
            _replaced(TYPED_BASE, steps, value)


def test_every_reachable_dataclass_is_frozen_and_no_field_is_a_list():
    """A scenario is checked once, when it is built, so nothing in it may change later:
    every dataclass its declarations reach is frozen, and every sequence is a tuple."""
    todo, seen = [Scenario], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        assert cls.__dataclass_params__.frozen, "%s is not frozen" % cls.__name__
        for name, hint in typing.get_type_hints(cls).items():
            parts = [hint]
            while parts:
                part = parts.pop()
                assert part is not list and typing.get_origin(part) is not list, "%s.%s" % (cls.__name__, name)
                if dataclasses.is_dataclass(part):
                    todo.append(part)
                parts.extend(a for a in typing.get_args(part) if a is not Ellipsis)
    assert {c.__name__ for c in seen} == {"Scenario", "CameraConfig", "DelayConfig", "ControlConfig",
                                          "VisionConfig", "LookaheadConfig", "AgentSpec", "WorldPose",
                                          "Disc", "Rect"}
    # lists given in Python are stored as tuples
    sc = Scenario(name="t", extent=[4.0, 3.0], target=[5, 6], shapes=[Disc(10.0, 10.0, 3.0)],
                  agents=[AgentSpec(WorldPose(0.5, 0.5), [5, 5])])
    assert (sc.extent, sc.target, sc.shapes, sc.agents) == ((4.0, 3.0), (5, 6), (Disc(10.0, 10.0, 3.0),),
                                                           (AgentSpec(WorldPose(0.5, 0.5), (5, 5)),))
    assert all(type(v) is tuple for v in (sc.extent, sc.target, sc.shapes, sc.agents, sc.agents[0].target))


def test_negative_beta_is_rejected_before_lookahead_can_divide_by_zero():
    """With beta -0.001 the capped curve coefficient made 1 + beta*|A| exactly 0."""
    with pytest.raises(ValueError, match=r"^control\.beta: must be non-negative, got -0\.001$"):
        Scenario(name="b", control=ControlConfig(beta=-0.001))
    sc = Scenario(name="b", control=ControlConfig(beta=0.0))
    assert lookahead(A_CAP, sc.control, sc.gd) == lookahead(0.0, sc.control, sc.gd)


def test_scenario_accepts_infinite_deadline():
    assert Scenario(name="t", delay=DelayConfig(deadline_s=math.inf)).delay.deadline_s == math.inf


def test_load_scenario_bad_json(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{ not json")
    with pytest.raises(ValueError, match="JSON"):
        load_scenario(f)


@pytest.mark.parametrize("content", [b"[" * 200_000, b'{"name": "\xff"}', b'{"seed": 1' + b"0" * 5000 + b"}"],
                         ids=["deeply-nested", "not-utf-8", "huge-integer"])
def test_load_scenario_names_the_file_of_unreadable_json(tmp_path, content):
    """A RecursionError, a UnicodeDecodeError and Python's limit on the digits of an integer, met
    while reading the file, all become a ValueError that starts with the path, as any other JSON
    fault does."""
    f = tmp_path / "broken.json"
    f.write_bytes(content)
    with pytest.raises(ValueError, match=r"^%s: invalid JSON \(" % re.escape(str(f))):
        load_scenario(f)


def test_committed_scenarios_match_their_save_output(scenario_dir, tmp_path):
    paths = sorted(scenario_dir.glob("*.json"))
    assert paths, "no committed scenarios found"
    for path in paths:
        text = path.read_text()
        scenario_from_dict(json.loads(text)).save(tmp_path / path.name)
        assert (tmp_path / path.name).read_text() == text, path.name


def test_committed_scenarios_all_load(scenario_dir):
    names = sorted(p.name for p in scenario_dir.glob("*.json"))
    assert names, "no committed scenarios found"
    for name in names:
        sc = load_scenario(scenario_dir / name)
        sc.validate()
        img = sc.build_image()
        assert img.width == sc.width and img.height == sc.height
