"""Escape/attraction-time rasteriser for the filled Julia sets of the
degree-2 family T(w, z) = z (2z - w)/(2 - wz).

Both 0 and infinity are attracting for the parameters of interest, so
almost every pixel decides quickly; undecided pixels concentrate on the
Julia set (a quasi-circle for small complex perturbations of w in [0, 1]).

`render` walks the raster in blocks of max(1, BLOCK_PIXELS // width) whole
pixel rows, so that each temporary of a step stays cache-sized.  A block
keeps only its undecided pixels, as a compact iterate array and an index
array, and a step writes T(w, z) over its iterates by
``MobiusFamilyMap.step``, into buffers made once per render.  That step's
bits depend only on the point, so the raster is bit for bit that of
iterating ``MobiusFamilyMap(w).eval`` on the whole pixel array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import MobiusFamilyMap

__all__ = ["BASIN_ZERO", "BASIN_INFINITY", "BASIN_UNDECIDED", "Raster", "render", "write_pgm"]

BASIN_ZERO = 0
BASIN_INFINITY = 1
BASIN_UNDECIDED = 2

BLOCK_PIXELS = 1 << 15  # pixels per block of whole rows, about 512 KB of complex iterates

_GRAY = np.array([0, 255, 128], dtype=np.uint8)  # PGM gray level by basin code


@dataclass(frozen=True)
class Raster:
    width: int
    height: int
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
    |z| > 1/epsilon (basin of infinity), or max_iter is reached.

    A pixel is dropped from its block (module notes) as soon as it is
    decided; the pole 2/w and NaN (0/0) iterates fail |z| <= 1/epsilon and
    count as basin infinity.

    Raises ValueError for a w or viewport that is not finite, and for a
    viewport that does not increase (xmin < xmax and ymin < ymax)."""
    if width < 16 or height < 16:
        raise ValueError("raster dimensions must be at least 16x16")
    if max_iter < 50:
        raise ValueError("max_iter must be at least 50")
    if not 0 < epsilon < 0.1:
        raise ValueError("epsilon must lie in (0, 0.1)")
    if not np.isfinite(w):
        raise ValueError(f"w must be finite, got {w}")
    xmin, xmax, ymin, ymax = viewport
    if not np.isfinite(viewport).all():
        raise ValueError(f"viewport must be finite, got {viewport}")
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"viewport must have xmin < xmax and ymin < ymax, got {viewport}")
    T = MobiusFamilyMap(w)
    xs = np.linspace(xmin, xmax, width)
    ys = np.linspace(ymax, ymin, height)

    basin = np.full(width * height, BASIN_UNDECIDED, dtype=np.uint8)
    steps = np.full(width * height, max_iter, dtype=np.int32)
    lo, hi = epsilon, 1.0 / epsilon
    rows = max(1, BLOCK_PIXELS // width)
    # step buffers made once per render: new block-sized temporaries at every
    # step would be new pages under glibc's default thresholds (mapped afresh
    # above 128 KB, or a heap top handed back and faulted in again)
    num, den = np.empty((2, rows * width), dtype=complex)
    mods = np.empty(rows * width)

    with np.errstate(divide="ignore", invalid="ignore"):
        for row in range(0, height, rows):
            z = np.empty((min(rows, height - row), width), dtype=complex)
            z.real, z.imag = xs, ys[row:row + rows, None]
            z = z.ravel()
            idx = np.arange(row * width, row * width + z.size)
            for it in range(1, max_iter + 1):
                T.step(z, num[:z.size], den[:z.size], out=z)
                m = np.abs(z, out=mods[:z.size])
                keep = (m >= lo) & (m <= hi)  # false for NaN and infinity
                if keep.all():
                    continue
                gone = ~keep
                done = idx[gone]
                basin[done] = np.where(m[gone] < lo, BASIN_ZERO, BASIN_INFINITY)
                steps[done] = it
                z, idx = z[keep], idx[keep]
                if not z.size:
                    break
    shape = (height, width)
    return Raster(width, height, basin.reshape(shape), steps.reshape(shape))


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
            fh.write(np.ascontiguousarray(payload))  # no copy of a C-ordered payload
    except OSError as exc:
        raise OSError(f"could not write PGM to {path}: {exc}") from exc
