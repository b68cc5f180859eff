"""Lifts of circle maps and complexified homotopies between them.

A circle map tau of degree d factors through the exponential:
tau(e^{i theta}) = e^{i lift(theta)} with lift(theta) = alpha + d theta +
(periodic part).  The lift is represented spectrally -- Fourier
coefficients of the logarithmic derivative z tau'(z)/tau(z) on the unit
circle -- which gives analytic continuation to a strip |Im theta| <= eps
for free and is spectrally accurate.  Integrated term by term they make a
Laurent polynomial Q with lift(theta) = d theta - i Q(e^{i theta}), so the
lift and every homotopy member are evaluated in z = e^{i theta}, as
z^d e^{Q(z)}, by the Horner routine ``numerics.laurent``.

Two equal-degree maps are joined by the convex combination of their lifts,
T(w, .) = exp(i [(1-w) lift0 + w lift1]), which stays well defined on the
annulus image of the strip and remains holomorphically expansive for w in a
complex neighbourhood of [0, 1].  The neighbourhood half-width eta and the
strip half-width eps are certified by dense sampling with explicit margins
(the existence argument is a compactness one and yields no constants).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .maps import Annulus, _PowerExpMap, check_holo_expansive
from .numerics import (
    EPS, MAX_SAMPLES, circle_nodes, fourier_coeffs_from_samples, laurent, unresolved_tails
)

__all__ = [
    "HomotopyFamily",
    "HomotopyMember",
    "LiftSeries",
    "build_homotopy",
    "find_expansive_annulus",
    "lift",
]


@dataclass(frozen=True)
class LiftSeries:
    """lift(theta) = alpha + d theta + sum_{n != 0} g_n/(i n) (e^{i n theta} - 1),
    valid on the strip |Im theta| <= strip.  In z = e^{i theta}, lift(theta) =
    d theta - i Q(z) with Q(z) = i alpha + sum c_n (z^n - 1), c_n = g_n/n."""

    d: int
    alpha: float
    ns: np.ndarray
    gs: np.ndarray
    strip: float

    def exponent(self, z, derivative=True):
        """(Q(z), Q'(z)) at the points z; Q(z) alone with derivative=False."""
        top = int(np.abs(self.ns).max(initial=0))
        c = np.zeros(2 * top + 1, dtype=complex)  # c_n at position n + top
        c[self.ns + top] = self.gs / self.ns
        P = laurent(c[top + 1 :], c[:top][::-1], z, derivative)
        if not derivative:
            return 1j * self.alpha + P - c.sum()
        return 1j * self.alpha + P[0] - c.sum(), P[1]

    def eval(self, theta):
        th = np.atleast_1d(np.asarray(theta, dtype=complex))
        if th.size and np.max(np.abs(th.imag)) > self.strip + 1e-12:
            raise ValueError(f"Im theta exceeds certified strip half-width {self.strip:g}")
        out = self.d * th - 1j * self.exponent(np.exp(1j * th), derivative=False)
        return complex(out[0]) if np.ndim(theta) == 0 else out

    def deriv(self, theta):
        z = np.exp(1j * np.atleast_1d(np.asarray(theta, dtype=complex)))
        out = self.d + np.multiply(z, self.exponent(z)[1])  # in this order (module notes of maps)
        return complex(out[0]) if np.ndim(theta) == 0 else out


def _roundtrip_error(m, L: LiftSeries, im_offset: float, K: int) -> float:
    theta = 2 * np.pi * np.arange(K) / K + 1j * im_offset
    return float(np.max(np.abs(np.exp(1j * L.eval(theta)) - m.eval(np.exp(1j * theta)))))


def lift(m) -> LiftSeries:
    """Lift of a circle-preserving map from the Fourier data of its
    logarithmic derivative h(z) = z tau'(z)/tau(z) on K nodes of the unit
    circle.  K starts at 1024 and doubles until numerics.unresolved_tails,
    with the noise eps max|h| of the samples, resolves the coefficients c; a
    tail unresolved at MAX_SAMPLES nodes raises RuntimeError quoting it.

    The mean of h is the degree (checked to 1e-8 before rounding); the
    remaining coefficients integrate term by term into the periodic part.
    alpha is the principal argument of tau(1), read off node 0.  The strip half-width is
    certified by halving a decay-based candidate until the roundtrip
    e^{i lift(theta)} = tau(e^{i theta}) holds to 1e-8 on K points of each
    strip boundary, the K at which the coefficients resolved.
    """
    K = 1024
    while True:
        z = circle_nodes(1.0, K)
        tv = m.eval(z)
        if np.min(np.abs(tv)) < 1e-12:
            raise ValueError("tau vanishes on the unit circle; no lift")
        h = z * m.deriv(z) / tv
        c = fourier_coeffs_from_samples(h, 1.0)
        tail, _ = unresolved_tails(np.abs(c), K, EPS * np.abs(h).max())
        if not len(tail):
            break
        if K == MAX_SAMPLES:
            raise RuntimeError(f"log-derivative tail {tail[0]:.3g} unresolved at {K} nodes")
        K *= 2
    c0 = complex(c[0])
    d = round(c0.real)
    if abs(c0 - d) >= 1e-8:
        raise RuntimeError(
            f"inconsistent lift: mean of log-derivative {c0:.3g} is not an integer"
        )
    if abs(d) < 2:
        raise ValueError(f"|degree| must be >= 2, got {d}")

    idx = np.concatenate([np.arange(-K // 2, 0), np.arange(1, K // 2)])
    g = c[idx]
    keep = np.abs(g) > 1e-16 * max(1.0, np.abs(c).max())
    ns, gs = idx[keep], g[keep]
    alpha = cmath.phase(tv[0])  # node 0 is exactly 1 + 0j

    if len(ns) == 0:
        candidate = 4.0
    else:
        sig = np.abs(gs) > 1e-13 * max(1.0, float(np.max(np.abs(gs))))
        if sig.sum() >= 4:
            slope = np.polyfit(np.abs(ns[sig]), np.log(np.abs(gs[sig])), 1)[0]
            candidate = 0.45 * -slope if slope < 0 else 0.05
        else:
            candidate = 0.3
        candidate = min(max(candidate, 1e-3), 0.6)

    probe = LiftSeries(d, alpha, ns, gs, math.inf)
    eps = candidate
    for _ in range(8):
        try:
            err = max(_roundtrip_error(m, probe, eps, K), _roundtrip_error(m, probe, -eps, K))
        except (ValueError, FloatingPointError, OverflowError):
            err = math.inf
        if err < 1e-8:
            return LiftSeries(d, alpha, ns, gs, eps)
        eps /= 2
    raise RuntimeError(
        f"could not certify an analyticity strip for the lift (last eps={eps:g})"
    )


@dataclass(frozen=True)
class HomotopyFamily:
    """Certified complex homotopy between two equal-degree expanding maps.

    For every w within distance eta of [0, 1], T(w, .) maps its inward circle
    (|z| = r0, or |z| = R0 for negative degree) strictly inside |z| = r1 and
    the other strictly outside |z| = R1; margin_inner is read on |z| = r0.
    """

    lift0: LiftSeries
    lift1: LiftSeries
    d: int
    epsilon: float
    eta: float
    r0: float
    R0: float
    r1: float
    R1: float
    margin_inner: float
    margin_outer: float

    def annulus(self) -> Annulus:
        return Annulus(self.r0, self.R0)

    def member(self, w: complex) -> "HomotopyMember":
        return HomotopyMember(self, complex(w))


@dataclass(frozen=True)
class HomotopyMember(_PowerExpMap):
    """The map T(w, .) = exp(i [(1-w) lift0 + w lift1]) = z^d e^{(1-w) Q_0 + w Q_1}
    on the certified annulus, for one parameter value w."""

    family: HomotopyFamily
    w: complex

    def __post_init__(self):
        u = min(max(self.w.real, 0.0), 1.0)
        if abs(self.w - u) > self.family.eta + 1e-12:
            raise ValueError(
                f"w={self.w:.6g} outside the certified neighbourhood "
                f"[0,1] + disk({self.family.eta:g})"
            )

    @property
    def degree(self) -> int:
        return self.family.d

    def _exponent(self, z, derivative=True):
        # (Q_w, Q_w') for Q_w = (1-w) Q_0 + w Q_1, or Q_w alone, on the certified annulus
        fam, mods = self.family, np.abs(z)
        if np.any(mods < fam.r0 * (1 - 1e-10)) or np.any(mods > fam.R0 * (1 + 1e-10)):
            raise ValueError(f"z outside certified annulus ({fam.r0:g}, {fam.R0:g})")
        q0, q1 = fam.lift0.exponent(z, derivative), fam.lift1.exponent(z, derivative)
        if derivative:
            return tuple((1 - self.w) * a + self.w * b for a, b in zip(q0, q1))
        return (1 - self.w) * q0 + self.w * q1


def build_homotopy(
    map0, map1, epsilon: float | None = None, eta_cap: float | None = None
) -> HomotopyFamily:
    """Certify a homotopy family between map0 and map1 (equal degrees).

    The strip half-width eps is bisected until (a) the real part of the
    combined lift derivative stays above 1 in modulus throughout the strip
    and the w-neighbourhood (giving the expansion factor rho), and (b) the
    boundary-circle inclusions hold with positive sampled margin for the
    annuli r0 = e^-eps, R0 = e^eps, r1/R1 the geometric midpoints toward
    e^{-/+ eps (rho+1)/2}.  eta is sized from sup|lift1 - lift0| so the
    whole neighbourhood keeps |T| within the certified corridor; epsilon
    and eta_cap override the starting strip width and the eta ceiling, and
    must be finite, epsilon positive and eta_cap non-negative (ValueError).
    Derivatives and lift differences are sampled on 512 points of the
    three rows Im theta = 0, +eps, -eps, and the inclusions on 4096 points
    of each boundary circle, where the margins are read.
    """
    l0, l1 = lift(map0), lift(map1)
    if l0.d != l1.d:
        raise ValueError(f"degree mismatch: {l0.d} vs {l1.d}")
    d = l0.d
    sgn = 1 if d > 0 else -1

    if epsilon is not None and not 0 < epsilon < math.inf:  # NaN included
        need = "finite" if epsilon > 0 else "positive"
        raise ValueError(f"epsilon override must be {need}, got {epsilon}")
    if eta_cap is not None and not 0 <= eta_cap < math.inf:
        need = "finite" if eta_cap > 0 else "non-negative"
        raise ValueError(f"eta_cap override must be {need}, got {eta_cap}")
    eps = min(l0.strip, l1.strip, 0.35, math.inf if epsilon is None else epsilon)
    while eps >= 1e-4:
        grid = 2 * np.pi * np.arange(512) / 512
        rows = [grid, grid + 1j * eps, grid - 1j * eps]
        derivs = [(l0.deriv(theta), l1.deriv(theta)) for theta in rows]
        rho_real = min(float(np.min(sgn * dl.real)) for pair in derivs for dl in pair)
        if rho_real <= 1 + 1e-3:
            eps /= 2
            continue

        m_deriv = max(float(np.max(np.abs(d1 - d0))) for d0, d1 in derivs)
        m_lift = float(np.max(np.abs(l1.eval(grid) - l0.eval(grid))))
        slack = (rho_real - 1) / 2
        eta = min(
            slack / m_deriv if m_deriv > 1e-14 else math.inf,
            eps * slack / m_lift if m_lift > 1e-14 else math.inf,
            eta_cap if eta_cap is not None else 1.0,
            1.0,
        )
        rho_u = rho_real - eta * m_deriv
        grow = math.exp(eps * (rho_u + 1) / 2)
        r0, R0 = math.exp(-eps), math.exp(eps)
        r1, R1 = math.sqrt(r0 / grow), math.sqrt(R0 * grow)

        ws = [complex(u) for u in np.linspace(0, 1, 11)]
        ws += [
            u + eta * cmath.exp(1j * phi)
            for u in (0.0, 0.5, 1.0)
            for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False)
        ]
        b = 2 * np.pi * np.arange(4096) / 4096
        # the row Im theta = +eps is |z| = r0, mapped inward for d > 0
        row_in, row_out = (b + 1j * eps, b - 1j * eps)[::sgn]
        in0, in1, out0, out1 = (lf.eval(row) for row in (row_in, row_out) for lf in (l0, l1))
        margin_in = margin_out = math.inf
        for w in ws:
            mod_in = np.exp(-((1 - w) * in0 + w * in1).imag)
            mod_out = np.exp(-((1 - w) * out0 + w * out1).imag)
            margin_in = min(margin_in, r1 - float(mod_in.max()))
            margin_out = min(margin_out, float(mod_out.min()) - R1)
        margin_inner, margin_outer = (margin_in, margin_out)[::sgn]
        if margin_inner > 0 and margin_outer > 0:
            return HomotopyFamily(
                l0, l1, d, eps, eta, r0, R0, r1, R1, margin_inner, margin_outer
            )
        eps /= 2
    raise RuntimeError("maps too wild for certified homotopy at this resolution")


def find_expansive_annulus(m) -> Annulus:
    """Search symmetric annuli (e^-t, e^t) for 24 widths t geometrically
    spaced in [0.01, 0.5] and return the one with the best contraction
    ratio, each checked on 2048 nodes per boundary circle.

    The quality of an annulus for the spectral assembly is the relative
    inclusion depth q = ``check_holo_expansive(...).ratio`` (mirrored for
    orientation-reversing maps): truncation errors decay like q^N, so the
    search minimises q rather than the absolute margin, which would always
    favour the widest admissible annulus.
    """
    best = None
    for t in np.geomspace(0.01, 0.5, 24):
        ann = Annulus(math.exp(-t), math.exp(t))
        try:
            q = check_holo_expansive(m, ann).ratio
        except (ValueError, OverflowError, FloatingPointError):
            continue
        if q < 1 and (best is None or q < best[0]):
            best = (q, ann)
    if best is None:
        raise RuntimeError("no annulus in the search range certifies expansivity")
    return best[1]
