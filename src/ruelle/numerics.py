"""Shared numeric kernels: Laurent coefficients as plain arrays, from
samples on a circle and back to values, with their derivatives, by Horner's
rule, and exponentially convergent circle quadrature.

Samples sit at the K-th roots of unity scaled to a circle |z| = radius,
along the last axis (one row per function).  For functions analytic near
the circle both the coefficient recovery and the quadrature converge
geometrically in K, which is what makes the operator assembly and the
contour traces of the package spectrally accurate.

A value's bits depend only on its point, whatever the shape of the input.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["circle_nodes", "circle_integral", "fourier_coeffs_from_samples", "laurent"]

EPS = np.finfo(float).eps  # behind every roundoff floor
TAIL_TOL = 1e-14  # a coefficient tail below it is resolved (unresolved_tails)
MAX_SAMPLES = 1 << 16  # the sample count at which doubling stops


def circle_nodes(radius: float, K: int) -> np.ndarray:
    """The K equispaced sample points radius * e^{2 pi i j / K}, j = 0..K-1."""
    return radius * _roots_of_unity(K)


@lru_cache(maxsize=8)  # assembly passes, annulus search (2048), contour traces (4096) share K
def _roots_of_unity(K: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(K) / K)
    roots.flags.writeable = False  # one array per K for every caller
    return roots


def _modulus(z) -> float:
    """abs(z), or inf where a complex z with finite parts is past the float range."""
    try:
        return abs(z)
    except OverflowError:
        return np.inf


def _check_finite(values: np.ndarray, radius: float):
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))[0] % values.shape[-1]
        theta = 2 * np.pi * bad / values.shape[-1]
        raise ValueError(f"non-finite sample on circle |z|={radius:g} at angle {theta:.8f}")


def _checked_samples(values, radius: float, dtype) -> np.ndarray:
    values = np.asarray(values, dtype=dtype)
    K = values.shape[-1]
    if K < 8 or (K & (K - 1)) != 0:
        raise ValueError(f"sample count K={K} must be a power of two >= 8")
    _check_finite(values, radius)
    return values


def fourier_coeffs_from_samples(values, radius: float, out=None) -> np.ndarray:
    """Fourier coefficients of samples at circle_nodes(radius, K), along the
    last axis: c[..., m] = (1/K) sum_j f(z_j) e^{-2 pi i j m / K}, the
    coefficient of z^m / radius^m, for m in [-K/2, K/2) (a negative m reads
    c[..., m], numpy's fold of index m + K).

    Satisfies the Parseval identity sum |c[m]|^2 = mean |values|^2 to
    roundoff, and recovers trigonometric polynomials of degree < K/2 exactly.
    ``out``, a complex128 array of the samples' shape, receives and returns
    the coefficients, as in np.fft.fft; it may be the samples themselves
    (a complex128 array), which are then transformed in place.
    """
    return np.fft.fft(_checked_samples(values, radius, complex), norm="forward", out=out)


def half_spectrum_from_samples(folded, radius: float, out=None) -> np.ndarray:
    """X = rfft(h) / K, m = 0..K/2, of folded samples h = Re f + Im f at
    circle_nodes(radius, K): for f with real coefficients (Re f even, Im f odd
    in the node index), c[+-m] = Re X[m] -+ Im X[m] in fourier_coeffs_from_samples.
    ``out``, a complex128 array of shape (..., K/2 + 1), receives and returns X,
    as in np.fft.rfft."""
    return np.fft.rfft(_checked_samples(folded, radius, float), norm="forward", out=out)


def unresolved_tails(x, K: int, noise):
    """(tail, floor) of the unresolved rows of coefficients ``x``: a full spectrum c (K
    entries), whose magnitudes are |c_m|, or a half one X (K/2 + 1, m = 0..K/2), whose are
    |Re X[m]| + |Im X[m]| = max(|c_m|, |c_-m|).  The tail, max over 3K/8 <= |m| <= K/2 per
    max|c|, decays geometrically in K to the floor noise / max|c|: the sample roundoff,
    which the FFT spreads evenly, so no K passes it.  Unresolved: above it and TAIL_TOL.
    The band is screened first, by |Re| + |Im| on both spectra, which bounds |c| from above:
    a row whose band sum is at most its noise is resolved (band <= noise gives
    fl(band / scale) <= fl(noise / scale)), and only the other, loud rows' full magnitudes
    are formed; a loud row has a nonzero band entry, so its max|c| is not 0."""
    band = x[..., 3 * K // 8 : 5 * K // 8 + 1]
    noise = np.broadcast_to(noise, band.shape[:-1])
    loud = (np.abs(band.real) + np.abs(band.imag)).max(axis=-1) > noise
    x, noise = x[loud], noise[loud]
    mag = np.abs(x) if x.shape[-1] == K else np.abs(x.real) + np.abs(x.imag)
    scale = mag.max(axis=-1)
    tail = mag[..., 3 * K // 8 : 5 * K // 8 + 1].max(axis=-1) / scale
    bad = tail > TAIL_TOL
    tail, floor = tail[bad], noise[bad] / scale[bad]
    return tail[tail > floor], floor[tail > floor]


def laurent(pos, neg, z):
    """(P(z), P'(z)) for P(z) = sum_k pos[k-1] z^k + neg[k-1] z^-k, k >= 1,
    by Horner's rule in z and in w = 1/z (formed only when neg is nonempty,
    so that P without negative powers evaluates at z = 0); a 0-d z gives
    numpy scalars.  The slope's recurrence only reads the value's, so P has
    the bits of its own recurrence."""
    x = np.atleast_1d(np.asarray(z, dtype=complex))
    value, slope = _horner(pos, x)
    if len(neg):
        w = x**-1
        nv, ns = _horner(neg, w)
        value += nv
        slope -= np.multiply(ns, w * w)
    return (value[0], slope[0]) if np.ndim(z) == 0 else (value, slope)


def _horner(coeffs, x):
    # sum_k coeffs[k-1] x^k and its x-derivative, from the top coefficient; no
    # product is written over its operand, which numpy's one-value loop rounds differently
    if not len(coeffs):
        return np.zeros_like(x), np.zeros_like(x)
    value, slope = coeffs[-1] * x, np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        value += c
        slope = slope * x
        slope += value
        value = value * x
    return value, slope


def circle_integral(f, radius: float, K: int) -> complex:
    """(1/2 pi i) times the integral of f over the circle |z| = radius
    (positively oriented), by the trapezoidal rule: (1/K) sum f(z_j) z_j.

    Exponentially accurate in K for f analytic near the circle; exact (up
    to roundoff) on Laurent polynomials of degree < K, where it returns the
    z^{-1} coefficient.
    """
    if K < 8:
        raise ValueError(f"K={K} too small for circle quadrature (need >= 8)")
    z = circle_nodes(radius, K)
    with np.errstate(all="ignore"):  # non-finite samples rejected below
        values = np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)  # f may be constant
    _check_finite(values, radius)
    return complex(np.mean(values * z))
