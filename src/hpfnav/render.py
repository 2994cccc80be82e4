"""Deterministic SVG rendering of workspaces, fields and trajectories.

Everything is written with fixed number formatting and no timestamps, so the
same run always produces byte-identical output.  The workspace image is
embedded as a small hand-encoded grayscale PNG.
"""

from __future__ import annotations

import base64
import zlib
from pathlib import Path

import numpy as np

from .hpf import OBSTACLE

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def encode_png_gray(pixels: np.ndarray) -> bytes:
    """Minimal 8-bit grayscale PNG encoder (deterministic output)."""
    a = np.asarray(pixels, dtype=np.uint8)
    h, w = a.shape
    raw = b"".join(b"\x00" + a[y].tobytes() for y in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        body = tag + data
        return len(data).to_bytes(4, "big") + body + zlib.crc32(body).to_bytes(4, "big")

    # width, height, bit depth 8, grayscale, default compression/filter, no interlace
    ihdr = w.to_bytes(4, "big") + h.to_bytes(4, "big") + bytes([8, 0, 0, 0, 0])
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def _f(x: float) -> str:
    return "%.3f" % x


def _polyline(points, color: str, width: float, dash: str = "") -> str:
    pts = " ".join("%s,%s" % (_f(x), _f(y)) for x, y in points)
    extra = ' stroke-dasharray="%s"' % dash if dash else ""
    return '<polyline fill="none" stroke="%s" stroke-width="%s"%s points="%s"/>' % (
        color, _f(width), extra, pts)


def _decimate(points, limit: int = 1500):
    if len(points) <= limit:
        return points
    stride = (len(points) + limit - 1) // limit
    kept = list(points[::stride])
    if tuple(kept[-1]) != tuple(points[-1]):
        kept.append(points[-1])
    return kept


def render_svg(
    path,
    scenario,
    image=None,
    edges=None,
    grad=None,
    boundary=None,
    ideal=None,
    trajectories=(),
    markers=(),
) -> None:
    """Compose the requested layers into one SVG file.

    All overlay geometry is given in world meters and drawn in pixel units
    (divided by G_D); trajectories is a sequence of (N, 2+) arrays, markers a
    sequence of (x, y, kind) with kind "start" or "target".
    """
    gd = scenario.gd
    w, h = scenario.width, scenario.height
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (w * 6, h * 6, w, h),
    ]
    if image is not None:
        png = encode_png_gray(image.pixels if hasattr(image, "pixels") else image)
        parts.append(
            '<image x="0" y="0" width="%d" height="%d" preserveAspectRatio="none" '
            'image-rendering="pixelated" href="data:image/png;base64,%s"/>'
            % (w, h, base64.b64encode(png).decode("ascii"))
        )
    if boundary is not None:
        ys, xs = np.nonzero(boundary.labels == OBSTACLE)
        cells = "".join('<rect x="%d" y="%d" width="1" height="1"/>' % (x, y) for y, x in zip(ys, xs))
        parts.append('<g fill="#444444" fill-opacity="0.55">%s</g>' % cells)
    elif edges is not None:
        ys, xs = np.nonzero(edges)
        cells = "".join('<rect x="%d" y="%d" width="1" height="1"/>' % (x, y) for y, x in zip(ys, xs))
        parts.append('<g fill="#333333">%s</g>' % cells)
    if grad is not None:
        step = max(1, w // 24)
        lines = []
        for cy in range(step // 2, h, step):
            for cx in range(step // 2, w, step):
                if grad.flat[cy, cx]:
                    continue
                x0, y0 = cx + 0.5, cy + 0.5
                lines.append(
                    '<line x1="%s" y1="%s" x2="%s" y2="%s"/>'
                    % (_f(x0), _f(y0), _f(x0 + 0.8 * grad.vx[cy, cx]), _f(y0 + 0.8 * grad.vy[cy, cx]))
                )
        parts.append('<g stroke="#2a6f97" stroke-width="0.12">%s</g>' % "".join(lines))
    if ideal is not None and len(ideal):
        pts = [(x / gd, y / gd) for x, y in _decimate(np.asarray(ideal))]
        parts.append(_polyline(pts, "#2ca02c", 0.25, dash="0.9,0.6"))
    for i, tr in enumerate(trajectories):
        tr = np.asarray(tr)
        if tr.size == 0:
            continue
        pts = [(x / gd, y / gd) for x, y in _decimate(tr[:, :2])]
        parts.append(_polyline(pts, PALETTE[i % len(PALETTE)], 0.35))
    for x, y, kind in markers:
        px, py = x / gd, y / gd
        if kind == "start":
            parts.append('<circle cx="%s" cy="%s" r="1.1" fill="none" stroke="#1f77b4" '
                         'stroke-width="0.3"/>' % (_f(px), _f(py)))
        else:
            parts.append(
                '<path d="M %s %s L %s %s M %s %s L %s %s" stroke="#d62728" '
                'stroke-width="0.3" fill="none"/>'
                % (_f(px - 1), _f(py - 1), _f(px + 1), _f(py + 1),
                   _f(px + 1), _f(py - 1), _f(px - 1), _f(py + 1))
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
