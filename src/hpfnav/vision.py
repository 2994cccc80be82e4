"""Edge extraction for workspace images.

Two filter branches run over the camera image: a Laplacian-of-Gaussian branch
whose zero crossings nominate edge candidates, and a Gaussian-derivative
branch whose gradient magnitude confirms that a candidate sits on real
contrast rather than noise.  A cell is an edge only when both branches agree.

Kernels reach out ceil(3 * sigma) pixels, so sigma alone sets their size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .workspace import VisionConfig


@dataclass(frozen=True)
class Kernel:
    """Square filter mask with odd side length 2*radius + 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 1:
            raise ValueError("kernel must be square with odd side, got %r" % (w.shape,))
        object.__setattr__(self, "weights", w)

    @property
    def radius(self) -> int:
        return (self.weights.shape[0] - 1) // 2


def _offsets(sigma: float):
    """Pixel offsets (xx, yy) of a kernel with radius ceil(3 * sigma)."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be finite and positive")
    radius = math.ceil(3 * sigma)
    d = np.arange(-radius, radius + 1, dtype=float)
    return np.meshgrid(d, d)  # each (2r+1, 2r+1)


def make_log(sigma: float) -> Kernel:
    """Laplacian-of-Gaussian mask with zero mean.

    The continuous form ((x^2 + y^2 - 2 sigma^2) / (2 pi sigma^6)) *
    exp(-(x^2 + y^2) / (2 sigma^2)) does not sum to zero once truncated, so
    the sampled mask is mean-subtracted; a constant image then yields an
    exactly zero response and no spurious zero crossings.
    """
    xx, yy = _offsets(sigma)
    r2 = xx**2 + yy**2
    w = (r2 - 2 * sigma**2) / (2 * math.pi * sigma**6) * np.exp(-r2 / (2 * sigma**2))
    w -= w.mean()
    return Kernel(w)


def make_gog(sigma: float) -> tuple[Kernel, Kernel]:
    """Gradient-of-Gaussian pair (d/dx, d/dy).

    Each mask is antisymmetric (sums to zero) and scaled so that an intensity
    ramp of slope s produces a response of exactly s per pixel: the first
    moment sum(w * offset) equals 1.
    """
    xx, yy = _offsets(sigma)
    g = np.exp(-(xx**2 + yy**2) / (2 * sigma**2))
    wx = xx * g
    wx /= (wx * xx).sum()
    wy = yy * g
    wy /= (wy * yy).sum()
    return Kernel(wx), Kernel(wy)


def convolve(image, kernel: Kernel) -> np.ndarray:
    """Filter with replicate padding; output is float64, same shape.

    out[y, x] = sum_{dy, dx} w[dy, dx] * image[y + dy, x + dx]
    """
    a = np.asarray(image.pixels if hasattr(image, "pixels") else image, dtype=float)
    r = kernel.radius
    padded = np.pad(a, r, mode="edge")
    windows = sliding_window_view(padded, kernel.weights.shape)
    return np.einsum("ijkl,kl->ij", windows, kernel.weights)


def zero_cross(response: np.ndarray) -> np.ndarray:
    """Mark cells where the filter response changes sign.

    A cell is a candidate when some 4-neighbor has strictly opposite sign
    and the cell is the smaller of the pair in magnitude, or when the cell
    is exactly zero next to a nonzero neighbor.  Taking the smaller side
    keeps the contour one cell thin.
    """
    v = np.asarray(response, dtype=float)
    mark = np.zeros(v.shape, dtype=bool)
    pairs = (
        ((slice(None), slice(1, None)), (slice(None), slice(None, -1))),  # left neighbor
        ((slice(None), slice(None, -1)), (slice(None), slice(1, None))),  # right neighbor
        ((slice(1, None), slice(None)), (slice(None, -1), slice(None))),  # up neighbor
        ((slice(None, -1), slice(None)), (slice(1, None), slice(None))),  # down neighbor
    )
    for cell_sl, nbr_sl in pairs:
        c = v[cell_sl]
        n = v[nbr_sl]
        opposite = (c * n < 0) & (np.abs(c) <= np.abs(n))
        exact = (c == 0) & (n != 0)
        mark[cell_sl] |= opposite | exact
    return mark


def contrast_filter(candidates: np.ndarray, gradients, zeta: float) -> np.ndarray:
    """Keep candidates whose gradient magnitude reaches the threshold zeta, as a bool array."""
    gx, gy = gradients
    mag = np.hypot(gx, gy)
    return np.asarray(candidates, bool) & (mag >= zeta)


def detect_edges(image, params: VisionConfig | None = None) -> np.ndarray:
    """Full edge pipeline: LoG zero crossings gated by gradient contrast; a bool array of edge cells."""
    if params is None:
        params = VisionConfig()
    if params.zeta < 0:
        raise ValueError("zeta must be non-negative")
    log_k = make_log(params.sigma)
    kx, ky = make_gog(params.sigma)
    response = convolve(image, log_k)
    candidates = zero_cross(response)
    gx = convolve(image, kx)
    gy = convolve(image, ky)
    return contrast_filter(candidates, (gx, gy), params.zeta)
