"""Concrete analytic circle/annulus maps.

Every map type evaluates and differentiates in closed form, accepts scalar
or ndarray arguments, is immutable after construction, and carries an
analytically known degree.  Every type but the composition also gives the
pair (Q, Q') of its exponent Q = log(tau(z)/z^d) in closed form
(``_exponent``; a caller that wants Q alone takes [0]) and states
``strip``, the half-width s of the annulus e^-s < |z| < e^s on which Q is
analytic (the class notes give s).  Blaschke products and Mobius members
share one rational base, which holds that exponent, the map's derivative and
its strip once.  The module-level helpers implement the checks that the
spectral machinery relies on: expansivity on the unit circle,
boundary-circle inclusions certifying holomorphic expansivity (and naming
the inward circle), and interior fixed points with their multipliers.

One evaluation order: a value's bits depend only on its point, whatever the
shape of the input.  A 0-d point is evaluated as a one-element array, and a
product whose right operand is a temporary is an explicit ``np.multiply`` in
its written order (``MobiusFamilyMap.step`` included), as numpy's temporary
elision swaps the operands of ``a * temp`` from 256 KB, and complex products
differ by operand order in their last bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .numerics import _modulus, circle_nodes, laurent

__all__ = [
    "Annulus",
    "BlaschkeProduct",
    "ComposedMap",
    "InclusionCheck",
    "MobiusFamilyMap",
    "TrigLift",
    "check_holo_expansive",
    "fixed_point_disk",
    "from_descriptor",
    "iterate",
    "min_expansion",
    "second_iterate_multiplier",
    "to_descriptor",
]


@dataclass(frozen=True)
class Annulus:
    """The annulus r < |z| < R.  Circle-map work wants r < 1 < R."""

    r: float
    R: float

    def __post_init__(self):
        if not 0 < self.r < self.R < math.inf:
            raise ValueError(f"need 0 < r < R < inf, got r={self.r}, R={self.R}")

    def shrink(self) -> "Annulus":
        """Pull both radii toward the unit circle (halve log r, log R)."""
        return Annulus(math.sqrt(self.r), math.sqrt(self.R))


class _MapBase:
    """Scalar/array evaluation plumbing shared by all map types (module notes)."""

    def eval(self, z):
        out = self._eval(np.atleast_1d(np.asarray(z, dtype=complex)))
        return complex(out[0]) if np.ndim(z) == 0 else out

    def deriv(self, z):
        out = self._deriv(np.atleast_1d(np.asarray(z, dtype=complex)))
        return complex(out[0]) if np.ndim(z) == 0 else out


class _PowerExpMap(_MapBase):
    """z^d e^{Q(z)}, for the degree d and the exponent (Q, Q') of ``_exponent``."""

    def _eval(self, z):
        return z**self.degree * np.exp(self._exponent(z)[0])

    def _deriv(self, z):
        Q, Qprime = self._exponent(z)
        return np.exp(Q) * (self.degree * z ** (self.degree - 1) + z**self.degree * Qprime)


class _RationalMap(_MapBase):
    """alpha prod (z - a_j)/(1 - b_j z) over the ``zeros`` a_j and the pole
    coefficients b_j (``_poles``), or with anti=True its reciprocal, of degree
    -d.  The exponent log alpha + sum log1p(-a_j/z) - log1p(-b_j z) (negated
    when anti) has strip -log max(|a_j|, |b_j|), inf when all are 0.  A factor
    with a_j = b_j = 0 is z itself: it adds nothing to the exponent and
    contributes the derivative term 1."""

    alpha = 1.0
    anti = False

    @property
    def degree(self) -> int:
        d = len(self.zeros)
        return -d if self.anti else d

    @property
    def strip(self) -> float:
        rho = max(map(_modulus, self.zeros + self._poles))
        return -math.log(rho) if rho else math.inf

    def _factors(self, z):
        return [(z - a) / (1 - b * z) if a or b else z for a, b in zip(self.zeros, self._poles)]

    def _product(self, z, us):
        # alpha prod u_j over the factors us at z; its zeros are the anti map's poles
        p = np.full_like(z, self.alpha)
        for u in us:
            p = p * u
        if self.anti and np.any(p == 0):
            raise ValueError("anti-Blaschke pole: underlying product vanishes at z")
        return p

    def _eval(self, z):
        p = self._product(z, self._factors(z))
        return 1.0 / p if self.anti else p

    def _deriv(self, z):
        # product rule; factor derivatives (1 - a b)/(1 - b z)^2, or 1 for a factor z
        us = self._factors(z)
        total = np.zeros_like(z)
        for k, (a, b) in enumerate(zip(self.zeros, self._poles)):
            term = (1 - a * b) / (1 - b * z) ** 2 if a or b else 1
            for j, u in enumerate(us):
                if j != k:
                    term = term * u
            total = total + term
        return -(self.alpha * total) / self._product(z, us) ** 2 if self.anti else self.alpha * total

    def _exponent(self, z):
        # Q = log(tau/z^d) and Q' (class notes); the anti map's exponent is -Q
        Q, slope = np.full_like(z, np.log(self.alpha)), np.zeros_like(z)
        for a, b in zip(self.zeros, self._poles):
            if a or b:  # a factor z adds nothing (class notes)
                Q = Q + np.log1p(-a / z) - np.log1p(-b * z)
                slope = slope + a / np.multiply(z, z - a) + b / (1 - b * z)
        return (-Q, -slope) if self.anti else (Q, slope)


@dataclass(frozen=True)
class BlaschkeProduct(_RationalMap):
    """B(z) = alpha * prod (z - a_j)/(1 - conj(a_j) z), |alpha| = 1, |a_j| < 1,
    the rational map with b_j = conj(a_j).  With anti=True the map is the
    reciprocal 1/B, an orientation-reversing circle map."""

    alpha: complex = 1.0
    zeros: tuple = ()
    anti: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        if len(self.zeros) < 2:
            raise ValueError("need degree >= 2 (at least two zeros)")
        if not abs(_modulus(self.alpha) - 1.0) <= 1e-12:
            raise ValueError(f"|alpha| must be 1, got {_modulus(self.alpha)}")
        for a in self.zeros:
            if not _modulus(a) < 1:
                raise ValueError(f"zero {a} not inside the unit disk")
        object.__setattr__(self, "_poles", tuple(a.conjugate() for a in self.zeros))

    def conjugate_params(self) -> "BlaschkeProduct":
        """The product with conjugated data (alpha and all zeros)."""
        return BlaschkeProduct(
            self.alpha.conjugate(), tuple(a.conjugate() for a in self.zeros), self.anti
        )


@dataclass(frozen=True)
class TrigLift(_PowerExpMap):
    """Map defined through its lift: tau(e^{i theta}) = e^{i (d theta + p(theta))}
    with p(theta) = sum_k a_k cos(k theta) + b_k sin(k theta).

    Evaluation is single-valued on any annulus because cos/sin of k theta
    are Laurent polynomials in z = e^{i theta}: the exponent i p is analytic
    on C*, strip inf.
    """

    d: int
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    strip = math.inf

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        if abs(self.d) < 2:
            raise ValueError(f"need |d| >= 2, got d={self.d}")
        for name in ("cos_coeffs", "sin_coeffs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # i p(theta) = Q(z): z^k has coefficient (i a_k + b_k)/2, z^-k (i a_k - b_k)/2
        n = max(len(self.cos_coeffs), len(self.sin_coeffs))
        a, b = (np.pad(c, (0, n - len(c))) for c in (self.cos_coeffs, self.sin_coeffs))
        object.__setattr__(self, "_laurent_coeffs", ((1j * a + b) / 2, (1j * a - b) / 2))

    @property
    def degree(self) -> int:
        return self.d

    def _exponent(self, z):
        return laurent(*self._laurent_coeffs, z)


@dataclass(frozen=True)
class MobiusFamilyMap(_RationalMap):
    """Degree-2 family T(w, z) = z (2z - w) / (2 - w z), evaluated by ``step``:
    the rational map with a = b = (0, w/2).

    w = 0 gives z^2 and w = 1 the Blaschke product z (z - 1/2)/(1 - z/2); for
    every real w, b = conj(a) and the unit circle is invariant (|2z - w| =
    |2 - wz| on |z| = 1).  The pole 2/w may lie anywhere, even inside an
    annulus of interest: ``check_holo_expansive`` decides whether an annulus
    is usable.  The strip -log(|w|/2) is not positive for |w| >= 2.
    """

    w: complex

    def __post_init__(self):
        object.__setattr__(self, "w", complex(self.w))
        if not _modulus(self.w) < math.inf:
            raise ValueError(f"|w| must be finite, got {_modulus(self.w)}")
        object.__setattr__(self, "zeros", (0j, self.w / 2))
        object.__setattr__(self, "_poles", self.zeros)

    def step(self, z, a, b, out=None):
        """T(w, z) computed in ``a`` and ``b``, arrays of z's shape, into
        ``out`` (z allowed; None: a new array), in the one order of the notes."""
        np.multiply(2, z, out=a)
        np.subtract(a, self.w, out=a)
        np.multiply(z, a, out=b)
        np.multiply(self.w, z, out=a)
        np.subtract(2, a, out=a)
        return np.divide(b, a, out=out)

    def _eval(self, z):
        return self.step(z, np.empty_like(z), np.empty_like(z))


@dataclass(frozen=True)
class ComposedMap(_MapBase):
    """Composition of maps, applied left to right (maps[0] first)."""

    maps: tuple

    def __post_init__(self):
        if not self.maps:
            raise ValueError("empty composition")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def degree(self) -> int:
        d = 1
        for m in self.maps:
            d *= m.degree
        return d

    @staticmethod
    def _clean_escape(z):
        # complex overflow leaves inf+nan*j debris; an escaped orbit is just
        # the point at infinity
        bad = ~np.isfinite(z)
        return np.where(bad, complex(np.inf), z) if np.any(bad) else z

    def _eval(self, z):
        with np.errstate(all="ignore"):
            for m in self.maps:
                z = self._clean_escape(m._eval(z))
        return z

    def _deriv(self, z):
        with np.errstate(all="ignore"):
            p = np.ones_like(z)
            for m in self.maps:
                p = self._clean_escape(np.multiply(p, m._deriv(z)))
                z = self._clean_escape(m._eval(z))
        return p


def iterate(m, n: int):
    """The n-th iterate as a map (chain rule derivative, degree d^n)."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got n={n}")
    return ComposedMap((m,) * n)


def min_expansion(m) -> float:
    """min |tau'| over 4096 equispaced points of the unit circle (expanding iff
    > 1); NaN, without a warning, where a point meets a pole of tau."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(np.abs(m.deriv(circle_nodes(1.0, 4096)))))


@dataclass(frozen=True)
class InclusionCheck:
    """Outcome of the boundary-circle inclusion test on a route's own samples.

    verdict 'A1': tau maps T_r inward, into D_r, and T_R outward, outside D_R
    (orientation preserving); 'A2': T_R inward and T_r outward (reversing);
    'none' otherwise, refused by the assembly.  margin is the distance to
    violation (negative for 'none'); under either verdict |tau(z) - z| >=
    margin at every sampled node, and the contour trace refuses a margin
    below 1e-8.  ratio is the contraction ratio q, the smaller of
    max(sup|tau|_r / r, R / inf|tau|_R) and its mirror max(R / inf|tau|_r,
    sup|tau|_R / r): it is below 1 exactly when the verdict is not 'none',
    and truncation errors decay like q^N.
    """

    verdict: str
    margin: float
    ratio: float


def check_holo_expansive(m, annulus: Annulus) -> InclusionCheck:
    """The inclusion verdict of tau on 2048 nodes of each boundary circle, the
    annulus search's test, for callers that want only the verdict."""
    nodes = (circle_nodes(rho, 2048) for rho in (annulus.r, annulus.R))
    return _inclusions(m, annulus, *nodes)[0]


def _inclusions(m, annulus: Annulus, zr, zR) -> tuple:
    """Evaluate tau at the nodes zr on |z| = r, then zR on |z| = R, and classify
    those samples tr, tR: the one place a route judges the boundary.  Returns
    the InclusionCheck, then the (radius, samples) pairs of the circle tau maps
    inward and of the one it maps outward, (r, tr), (R, tR) or, under A2 only,
    swapped.  Overflow to infinity counts as "outside" (high iterates of maps
    with a superattracting pole do this); NaN samples fail the check outright.
    """
    r, R = annulus.r, annulus.R
    with np.errstate(all="ignore"):
        tr, tR = m.eval(zr), m.eval(zR)
        vr, vR = np.abs(tr), np.abs(tR)
        if np.any(np.isnan(vr)) or np.any(np.isnan(vR)):
            return InclusionCheck("none", -math.inf, math.inf), (r, tr), (R, tR)
        ratio = float(min(max(vr.max() / r, R / vR.min()), max(R / vr.min(), vR.max() / r)))
    a1 = min(r - vr.max(), vR.min() - R)
    a2 = min(vr.min() - R, r - vR.max())
    if a1 > 0:
        return InclusionCheck("A1", float(a1), ratio), (r, tr), (R, tR)
    if a2 > 0:
        return InclusionCheck("A2", float(a2), ratio), (R, tR), (r, tr)
    return InclusionCheck("none", float(max(a1, a2)), ratio), (r, tr), (R, tR)


_NO_FIXED_POINT = "no attracting interior fixed point located"


def fixed_point_disk(m):
    """The unique attracting fixed point z0 in the unit disk and its
    multiplier mu = tau'(z0).

    Plain forward iteration from 0 (globally convergent in practice since
    |mu| < 1 for holomorphically expansive maps) for at most 10000 steps,
    until a step is below 1e-6, then at most 60 Newton steps down to
    |tau(z0) - z0| <= 1e-13.  Every failure, an iterate on a pole included,
    raises RuntimeError, and so does a limit with 1 - |z0| below 1e-6: an
    orbit that tends to the unit circle is refused whichever side of it
    the limit's last bits fall.
    """
    try:
        z = 0j
        for _ in range(10000):
            z, previous = m.eval(z), z
            if not np.isfinite(z):
                raise RuntimeError(_NO_FIXED_POINT)
            if abs(z - previous) < 1e-6:
                break
        else:
            raise RuntimeError(_NO_FIXED_POINT)
        for _ in range(60):
            res = m.eval(z) - z
            if abs(res) <= 1e-13:
                break
            z = z - res / (m.deriv(z) - 1)
        else:
            raise RuntimeError(_NO_FIXED_POINT)
    except (ValueError, ZeroDivisionError) as exc:  # an iterate on a pole, or Newton's tau' = 1
        raise RuntimeError(_NO_FIXED_POINT) from exc
    if 1 - abs(z) < 1e-6:
        raise RuntimeError(f"{_NO_FIXED_POINT}: limit {z:.6g} within 1e-6 of the unit circle")
    return z, m.deriv(z)


def second_iterate_multiplier(params: BlaschkeProduct) -> float:
    """For an anti-Blaschke map, the square root mu in [0, 1) of the
    multiplier of the second iterate's interior fixed point.

    The second iterate of 1/B_a is the ordinary product B_conj(a) o B_a,
    whose multiplier at its fixed point z0 equals |B_a'(z0)|^2; this
    returns |B_a'(z0)|.
    """
    if not isinstance(params, BlaschkeProduct) or not params.anti:
        raise ValueError("second_iterate_multiplier expects an anti-Blaschke map")
    base = replace(params, anti=False)
    second = ComposedMap((base, base.conjugate_params()))
    z0, _ = fixed_point_disk(second)
    return abs(base.deriv(z0))


def _field(obj: dict, name: str, convert, *default):
    # a missing or malformed descriptor field raises a ValueError naming it
    if name not in obj and not default:
        raise ValueError(f"{obj['type']} map descriptor lacks field {name!r}")
    try:
        return convert(obj.get(name, *default))
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"malformed field {name!r} in {obj['type']} map descriptor: {obj[name]!r}"
        ) from exc


def _json(value, kinds=(int, float)):
    # a JSON value of the given kinds only, by default a number (int alone for a
    # degree): a string is no array or number, a boolean is only a boolean, however
    # Python would read them (it counts True an int), and a number is finite as a
    # float (json reads NaN, Infinity and 1e400, and keeps integers of any size)
    if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
        raise TypeError(f"expected JSON {getattr(kinds, '__name__', 'number')}, got {value!r}")
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite JSON number, got {value!r}")
    return value


def _pair(value):
    # a complex number: an array of one or two numbers (complex() reads [] as 0)
    if not 1 <= len(_json(value, list)) <= 2:
        raise TypeError(f"expected one or two JSON numbers, got {value!r}")
    return complex(*map(_json, value))


def from_descriptor(obj: dict):
    """Build a map from its JSON descriptor (see README for the schema)."""
    if not isinstance(obj, dict):
        raise ValueError(f"map descriptor must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "blaschke":
        alpha = _field(obj, "alpha", _pair, [1.0, 0.0])
        zeros = _field(obj, "zeros", lambda zs: tuple(map(_pair, _json(zs, list))))
        return BlaschkeProduct(alpha, zeros, _field(obj, "anti", lambda b: _json(b, bool), False))
    if kind == "triglift":
        cos, sin = (
            _field(obj, k, lambda cs: tuple(map(_json, _json(cs, list))), []) for k in ("cos", "sin")
        )
        return TrigLift(_field(obj, "d", lambda d: _json(d, int)), cos, sin)
    if kind == "mobius":
        return MobiusFamilyMap(_field(obj, "w", _pair))
    raise ValueError(f"unknown map descriptor type: {kind!r}")


def to_descriptor(m) -> dict:
    if isinstance(m, BlaschkeProduct):
        return {
            "type": "blaschke",
            "alpha": [m.alpha.real, m.alpha.imag],
            "zeros": [[a.real, a.imag] for a in m.zeros],
            "anti": m.anti,
        }
    if isinstance(m, TrigLift):
        return {"type": "triglift", "d": m.d, "cos": list(m.cos_coeffs), "sin": list(m.sin_coeffs)}
    if isinstance(m, MobiusFamilyMap):
        return {"type": "mobius", "w": [m.w.real, m.w.imag]}
    raise ValueError(f"no descriptor for map of type {type(m).__name__}")
