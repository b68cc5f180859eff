"""Shared numeric kernels: discrete Fourier analysis on circles and
exponentially convergent circle quadrature.

Everything here works with samples at the K-th roots of unity scaled to a
circle |z| = radius, along the last axis (one row per function).  For
functions analytic near the circle both the coefficient recovery and the
quadrature converge geometrically in K, which is what makes the operator
assembly and the contour traces of the package spectrally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierData",
    "circle_nodes",
    "circle_integral",
    "fourier_coeffs_from_samples",
]


def circle_nodes(radius: float, K: int) -> np.ndarray:
    """The K equispaced sample points radius * e^{2 pi i j / K}, j = 0..K-1."""
    return radius * np.exp(2j * np.pi * np.arange(K) / K)


def _require_power_of_two(K: int):
    if K < 8 or (K & (K - 1)) != 0:
        raise ValueError(f"sample count K={K} must be a power of two >= 8")


def _check_finite(values: np.ndarray, radius: float):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        theta = 2 * np.pi * (bad[0] % values.shape[-1]) / values.shape[-1]
        raise ValueError(
            f"non-finite sample on circle |z|={radius:g} at angle {theta:.8f}"
        )


@dataclass(frozen=True)
class FourierData:
    """Fourier coefficients of samples taken on the circle |z| = radius.

    ``raw`` holds the full FFT layout along its last axis, one row per
    function; tail_max() and max_abs() reduce over that axis.  For one
    function, coeff(m) is (1/K) sum_j f(z_j) e^{-2 pi i j m / K} for m in
    [-K/2, K/2), i.e. the coefficient of z^m / radius^m in the Laurent
    expansion sampled on the circle.
    """

    radius: float
    raw: np.ndarray

    @property
    def samples(self) -> int:
        return self.raw.shape[-1]

    def coeff(self, m: int) -> complex:
        K = self.samples
        if not -K // 2 <= m < K // 2:
            raise IndexError(f"index {m} outside folded range [{-K//2}, {K//2})")
        return complex(self.raw[m % K])

    def tail_max(self):
        """Largest |coeff| over the quarter of indices with largest |m|.

        For an analytic integrand this decays geometrically; a large value
        relative to max|coeff| signals aliasing (K too small).
        """
        K = self.samples
        return np.abs(self.raw[..., 3 * K // 8 : 5 * K // 8 + 1]).max(axis=-1)

    def max_abs(self):
        return np.abs(self.raw).max(axis=-1)


def fourier_coeffs_from_samples(values, radius: float) -> FourierData:
    """FourierData from samples at circle_nodes(radius, K), along the last axis.

    Satisfies the Parseval identity sum |coeff(m)|^2 = mean |values|^2 to
    roundoff, and recovers trigonometric polynomials of degree < K/2 exactly.
    """
    values = np.asarray(values, dtype=complex)
    _require_power_of_two(values.shape[-1])
    _check_finite(values, radius)
    return FourierData(radius, np.fft.fft(values, norm="forward"))


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
        values = np.asarray(f(z), dtype=complex)
    if values.ndim == 0:
        values = np.full(K, complex(values))
    _check_finite(values, radius)
    return complex(np.mean(values * z))
