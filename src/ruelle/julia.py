"""Escape/attraction-time rasteriser for the filled Julia sets of the
degree-2 family T(w, z) = z (2z - w)/(2 - wz).

Both 0 and infinity are attracting for the parameters of interest, so
almost every pixel decides quickly; undecided pixels concentrate on the
Julia set (a quasi-circle for small complex perturbations of w in [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BASIN_ZERO", "BASIN_INFINITY", "BASIN_UNDECIDED", "Raster", "render", "write_pgm"]

BASIN_ZERO = 0
BASIN_INFINITY = 1
BASIN_UNDECIDED = 2

_GRAY = np.array([0, 255, 128], dtype=np.uint8)  # PGM gray level by basin code


@dataclass(frozen=True)
class Raster:
    width: int
    height: int
    viewport: tuple
    basin: np.ndarray  # uint8 codes, shape (height, width), row 0 at ymax
    steps: np.ndarray  # iteration count at decision (max_iter if undecided)


def render(
    w: complex,
    viewport: tuple = (-1.6, 1.6, -1.6, 1.6),
    width: int = 512,
    height: int = 512,
    max_iter: int = 500,
    epsilon: float = 1e-3,
) -> Raster:
    """Iterate T(w, .) from every pixel until |z| < epsilon (basin of zero),
    |z| > 1/epsilon (basin of infinity), or max_iter is reached."""
    if width < 16 or height < 16:
        raise ValueError("raster dimensions must be at least 16x16")
    if max_iter < 50:
        raise ValueError("max_iter must be at least 50")
    if not 0 < epsilon < 0.1:
        raise ValueError("epsilon must lie in (0, 0.1)")
    w = complex(w)
    xmin, xmax, ymin, ymax = viewport
    xs = np.linspace(xmin, xmax, width)
    ys = np.linspace(ymax, ymin, height)
    z = (xs[None, :] + 1j * ys[:, None]).astype(complex)

    basin = np.full(z.shape, BASIN_UNDECIDED, dtype=np.uint8)
    steps = np.full(z.shape, max_iter, dtype=np.int32)
    active = np.ones(z.shape, dtype=bool)
    lo, hi = epsilon, 1.0 / epsilon

    for it in range(max_iter):
        za = z[active]
        den = 2 - w * za
        with np.errstate(divide="ignore", invalid="ignore"):
            za = za * (2 * za - w) / den
        za[den == 0] = np.inf  # landed exactly on the pole: preimage of infinity
        za[np.isnan(za)] = np.inf
        z[active] = za

        mods = np.abs(za)
        inner = mods < lo
        outer = mods > hi
        if inner.any() or outer.any():
            idx = np.flatnonzero(active)
            done_in, done_out = idx[inner], idx[outer]
            basin.flat[done_in] = BASIN_ZERO
            basin.flat[done_out] = BASIN_INFINITY
            steps.flat[done_in] = it + 1
            steps.flat[done_out] = it + 1
            active.flat[done_in] = False
            active.flat[done_out] = False
        if not active.any():
            break
    return Raster(width, height, tuple(viewport), basin, steps)


def write_pgm(raster: Raster, path, mode: str = "basin"):
    """Binary PGM (P5, maxval 255).  basin mode: 0 / 255 / 128 for the zero
    basin, infinity basin, undecided; steps mode: counts scaled to 0..255."""
    if mode == "basin":
        payload = _GRAY[raster.basin]
    elif mode == "steps":
        top = max(int(raster.steps.max()), 1)
        payload = (raster.steps.astype(np.float64) * 255.0 / top).astype(np.uint8)
    else:
        raise ValueError(f"mode must be 'basin' or 'steps', got {mode!r}")
    header = f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload.tobytes())
    except OSError as exc:
        raise OSError(f"could not write PGM to {path}: {exc}") from exc
