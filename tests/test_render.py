"""Rendering tests: PNG encoder validity, deterministic SVG, layer content."""

import re
import zlib

import numpy as np
import pytest

from hpfnav import netloop
from hpfnav.render import encode_png_gray, render_svg
from hpfnav.workspace import load_scenario


def _chunks(png: bytes) -> dict:
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    off = 8
    out = {}
    while off < len(png):
        length = int.from_bytes(png[off : off + 4], "big")
        tag = png[off + 4 : off + 8]
        data = png[off + 8 : off + 8 + length]
        crc = int.from_bytes(png[off + 8 + length : off + 12 + length], "big")
        assert crc == zlib.crc32(tag + data)
        out[tag] = data
        off += 12 + length
    return out


def test_png_encoder_decodes_back():
    pix = (np.arange(48).reshape(6, 8) * 5 % 256).astype(np.uint8)
    png = encode_png_gray(pix)
    ch = _chunks(png)
    ihdr = ch[b"IHDR"]
    w, h, depth, color = int.from_bytes(ihdr[0:4], "big"), int.from_bytes(ihdr[4:8], "big"), ihdr[8], ihdr[9]
    assert (w, h, depth, color) == (8, 6, 8, 0)
    raw = zlib.decompress(ch[b"IDAT"])
    assert len(raw) == 6 * (1 + 8)
    rows = [raw[r * 9 : (r + 1) * 9] for r in range(6)]
    assert all(r[0] == 0 for r in rows)
    back = np.frombuffer(b"".join(r[1:] for r in rows), dtype=np.uint8).reshape(6, 8)
    assert np.array_equal(back, pix)
    assert b"IEND" in ch


@pytest.fixture(scope="module")
def open_scenario(scenario_dir):
    return load_scenario(scenario_dir / "open.json")


@pytest.fixture(scope="module")
def open_state(open_scenario):
    return netloop.prepare(open_scenario)


def _render_full(path, sc, state, traj):
    gd = sc.gd
    tgt = ((sc.target[0] + 0.5) * gd, (sc.target[1] + 0.5) * gd)
    render_svg(
        path,
        sc,
        image=sc.build_image(),
        boundary=state.boundary,
        grad=state.grad,
        ideal=np.array([[sc.start.x, sc.start.y], [tgt[0], tgt[1]]]),
        trajectories=[traj],
        markers=[(sc.start.x, sc.start.y, "start"), (tgt[0], tgt[1], "target")],
    )


def test_svg_is_byte_identical(tmp_path, open_scenario, open_state):
    traj = np.array([[0.5, 1.5], [1.0, 1.5], [1.5, 1.6]])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    _render_full(a, open_scenario, open_state, traj)
    _render_full(b, open_scenario, open_state, traj)
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert data.startswith(b"<?xml")
    assert b"</svg>" in data
    assert b"<image" in data and b"<circle" in data and b'<path d="M' in data


def _arrow_lines(svg: str):
    m = re.search(r'<g stroke="#2a6f97"[^>]*>(.*?)</g>', svg, re.S)
    assert m
    out = {}
    for x1, y1, x2, y2 in re.findall(
        r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"/>', m.group(1)
    ):
        out[(float(x1), float(y1))] = (float(x2) - float(x1), float(y2) - float(y1))
    return out


def test_gradient_arrows_point_toward_target(tmp_path, open_scenario, open_state):
    out = tmp_path / "field.svg"
    render_svg(out, open_scenario, grad=open_state.grad)
    arrows = _arrow_lines(out.read_text())
    assert len(arrows) > 100
    # target cell is (48, 24); sample arrows on its row from both sides
    dx_left, _ = arrows[(37.5, 23.5)]
    dx_right, _ = arrows[(57.5, 23.5)]
    assert dx_left > 0.0
    assert dx_right < 0.0


def test_trajectory_is_decimated_and_keeps_endpoint(tmp_path, open_scenario):
    n = 5000
    xs = np.linspace(0.1, 3.9, n)
    ys = 1.5 + 0.2 * np.sin(xs)
    traj = np.column_stack([xs, ys])
    out = tmp_path / "traj.svg"
    render_svg(out, open_scenario, trajectories=[traj])
    svg = out.read_text()
    m = re.search(r'<polyline[^>]*stroke="#d62728"[^>]*points="([^"]+)"', svg)
    assert m
    pts = m.group(1).split()
    assert len(pts) <= 1501
    lx, ly = map(float, pts[-1].split(","))
    gd = open_scenario.gd
    assert lx == pytest.approx(xs[-1] / gd, abs=5e-3)
    assert ly == pytest.approx(ys[-1] / gd, abs=5e-3)
    for p in pts:
        px, py = map(float, p.split(","))
        assert 0.0 <= px <= open_scenario.width
        assert 0.0 <= py <= open_scenario.height
