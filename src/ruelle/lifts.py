"""Lifts of circle maps and complexified homotopies between them.

A circle map tau of degree d is z^d e^{Q(z)}, and its lift is lift(theta) =
d theta - i Q(e^{i theta}).  Every map class of the library but the
composition has its exponent Q = log(tau(z)/z^d) and Q' in closed form (the
classes' ``_exponent``) and states ``strip``, the half-width s of the annulus
e^-s < |z| < e^s on which Q is analytic, the strip |Im theta| < s (the
classes' notes give s; a homotopy member's exponent (1-w) Q_0 + w Q_1 has
the narrower of its endpoints' strips).  ``lift`` refuses a map that states
no strip, a composition or any other class, and a lift's ``exponent`` (so
its eval and deriv too) refuses z off its annulus, the edge included.
The branch is fixed by Q(1) = i arg tau(1) (principal argument): an offset
2 pi i k would change the members at every w that is not an integer.

Two equal-degree maps are joined by the convex combination of their lifts,
T(w, .) = exp(i [(1-w) lift0 + w lift1]) = z^d e^{(1-w) Q_0 + w Q_1}, which
stays well defined on the annulus image of the strip and remains
holomorphically expansive for w in a complex neighbourhood of [0, 1].  Both
widths depend on the two maps alone.  The strip half-width eps starts
strictly inside both endpoints' analytic annuli, at min(strip0 / 2,
strip1 / 2, 0.35), and is halved until the neighbourhood half-width
eta <= 1 and eps are certified by dense sampling with explicit margins (the
existence argument is a compactness one and yields no constants).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .maps import Annulus, _PowerExpMap, check_holo_expansive

__all__ = [
    "HomotopyFamily",
    "HomotopyMember",
    "build_homotopy",
    "find_expansive_annulus",
    "lift",
]


@dataclass(frozen=True)
class Lift:
    """lift(theta) = d theta - i Q(e^{i theta}) for the closed-form exponent Q of
    the map tau, plus ``shift`` = -2 pi i k so that Q(1) = i arg tau(1), on the
    strip |Im theta| < strip: the annulus e^-strip < |z| < e^strip."""

    tau: object
    strip: float
    shift: complex

    @property
    def d(self) -> int:
        return self.tau.degree

    def exponent(self, z):
        """(Q(z), Q'(z)) at the points z, an array inside the lift's annulus
        (ValueError elsewhere); callers that want Q alone take [0]."""
        s = self.strip
        with np.errstate(divide="ignore"):  # z = 0 is refused like any other point
            if np.any(np.abs(np.log(np.abs(z))) >= s):
                raise ValueError(f"z outside the lift's analytic strip |Im theta| < {s:g}, "
                                 f"the annulus {math.exp(-s):g} < |z| < {math.exp(s):g}")
        Q, slope = self.tau._exponent(z)
        return (Q + self.shift, slope) if self.shift else (Q, slope)

    def eval(self, theta):
        th = np.atleast_1d(np.asarray(theta, dtype=complex))
        out = self.d * th - 1j * self.exponent(np.exp(1j * th))[0]
        return complex(out[0]) if np.ndim(theta) == 0 else out

    def deriv(self, theta):
        z = np.exp(1j * np.atleast_1d(np.asarray(theta, dtype=complex)))
        out = self.d + np.multiply(z, self.exponent(z)[1])  # in this order (module notes of maps)
        return complex(out[0]) if np.ndim(theta) == 0 else out


def lift(m) -> Lift:
    """The closed-form lift of a map that states its ``strip`` (module notes),
    on that strip.  Any other map, a ComposedMap included, raises ValueError
    naming its class, and so does a map whose exponent is analytic on no
    annulus about the unit circle (a Mobius map with |w| >= 2)."""
    strip = getattr(m, "strip", None)
    if strip is None:
        raise ValueError(f"no closed-form lift for a map of class {type(m).__name__}")
    if strip <= 0:
        raise ValueError(f"{type(m).__name__}: exponent analytic on no annulus about |z| = 1")
    q1 = m._exponent(np.ones(1, dtype=complex))[0][0]
    turns = round((q1.imag - cmath.phase(m.eval(1.0))) / (2 * math.pi))
    return Lift(m, strip, -2j * math.pi * turns)


@dataclass(frozen=True)
class HomotopyFamily:
    """Certified complex homotopy between two equal-degree expanding maps.

    For every w within distance eta of [0, 1], T(w, .) maps its inward circle
    (|z| = r0, or |z| = R0 for negative degree) strictly inside |z| = r1 and
    the other strictly outside |z| = R1; margin_inner is read on |z| = r0.
    """

    lift0: Lift
    lift1: Lift
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
    for one parameter value w of the certified neighbourhood.  Its strip is the
    narrower endpoint strip, off which the endpoints' exponents refuse z; it is
    certified expansive on the family's annulus, which lies inside."""

    family: HomotopyFamily
    w: complex

    def __post_init__(self):
        fam = self.family
        object.__setattr__(self, "strip", min(fam.lift0.strip, fam.lift1.strip))
        u = min(max(self.w.real, 0.0), 1.0)
        if not abs(self.w - u) <= fam.eta + 1e-12:  # NaN included
            raise ValueError(
                f"w={self.w:.6g} outside the certified neighbourhood "
                f"[0,1] + disk({fam.eta:g})"
            )

    @property
    def degree(self) -> int:
        return self.family.d

    def _exponent(self, z):
        # (Q_w, Q_w') for Q_w = (1-w) Q_0 + w Q_1
        q0, q1 = (lf.exponent(z) for lf in (self.family.lift0, self.family.lift1))
        return tuple((1 - self.w) * a + self.w * b for a, b in zip(q0, q1))


def build_homotopy(map0, map1) -> HomotopyFamily:
    """Certify a homotopy family between map0 and map1 (equal degrees).

    The strip half-width eps depends on the two maps alone: it starts at
    min(strip0 / 2, strip1 / 2, 0.35) for the lifts' analytic strips, so
    that the rows Im theta = +-eps lie strictly inside both endpoints'
    analytic annuli, and is bisected until (a) the real part of the
    combined lift derivative stays above 1 in modulus throughout the strip
    and the w-neighbourhood (giving the expansion factor rho), and (b) the
    boundary-circle inclusions hold with positive sampled margin for the
    annuli r0 = e^-eps, R0 = e^eps, r1/R1 the geometric midpoints toward
    e^{-/+ eps (rho+1)/2}.  eta is sized from sup|lift1 - lift0| so the
    whole neighbourhood keeps |T| within the certified corridor, at most 1.
    Derivatives and lift differences are sampled on 512 points of the
    three rows Im theta = 0, +eps, -eps, and the inclusions on 4096 points
    of each boundary circle, where the margins are read.
    """
    l0, l1 = lift(map0), lift(map1)
    if l0.d != l1.d:
        raise ValueError(f"degree mismatch: {l0.d} vs {l1.d}")
    d = l0.d
    sgn = 1 if d > 0 else -1

    # what does not depend on eps: the real grid, the boundary base and sup|lift1 - lift0|
    grid = 2 * np.pi * np.arange(512) / 512
    b = 2 * np.pi * np.arange(4096) / 4096
    m_lift = float(np.max(np.abs(l1.eval(grid) - l0.eval(grid))))
    eps = min(l0.strip / 2, l1.strip / 2, 0.35)
    while eps >= 1e-4:
        rows = [grid, grid + 1j * eps, grid - 1j * eps]
        derivs = [(l0.deriv(theta), l1.deriv(theta)) for theta in rows]
        rho_real = min(float(np.min(sgn * dl.real)) for pair in derivs for dl in pair)
        if rho_real <= 1 + 1e-3:
            eps /= 2
            continue

        m_deriv = max(float(np.max(np.abs(d1 - d0))) for d0, d1 in derivs)
        slack = (rho_real - 1) / 2
        eta = min(
            slack / m_deriv if m_deriv > 1e-14 else math.inf,
            eps * slack / m_lift if m_lift > 1e-14 else math.inf,
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
        except ValueError:  # off a lift's analytic strip, or an anti-Blaschke pole met
            continue
        if q < 1 and (best is None or q < best[0]):
            best = (q, ann)
    if best is None:
        raise RuntimeError("no annulus in the search range certifies expansivity")
    return best[1]
