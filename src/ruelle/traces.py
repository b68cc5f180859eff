"""Traces and Fredholm determinants of the adjoint transfer operator.

Three independent routes to the same analytic objects:

* contour traces  Tr(L^n) = (1/2 pi i)(int_outward - int_inward) dz/(tau^n(z)-z),
  by quadrature on the boundary circles tau^n maps outward and inward;
* eigenvalue products  det(I - z L) = prod (1 - z lambda_k) from a converged
  spectrum, and the trace series det(I - zL) = exp(-sum z^n Tr(L^n)/n);
* closed forms for (anti-)Blaschke products, where the whole spectrum is a
  geometric sequence in the interior fixed-point multiplier mu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .maps import (
    Annulus,
    _inclusions,
    _RationalMap,
    fixed_point_disk,
    iterate,
    min_expansion,
    second_iterate_multiplier,
)
from .numerics import EPS, circle_integral, circle_nodes
from .operators import assemble_dual
from .spectra import Spectrum

__all__ = [
    "DetResult",
    "TraceReport",
    "blaschke_trace_closed",
    "closed_form_multiplier",
    "det_from_spectrum",
    "det_from_traces",
    "det_product_formula",
    "log_abs_det_product",
    "power_trace_table",
    "trace_contour",
    "trace_power",
    "trace_report",
]


def trace_contour(m, annulus: Annulus) -> complex:
    """Trace of the adjoint operator by contour quadrature: I_outward - I_inward
    of 1/(tau(z) - z), where I integrates over the positively oriented
    boundary circle tau maps outward or inward (I_R - I_r for an orientation
    preserving tau, I_r - I_R for a reversing one), with 4096 nodes per
    circle.  That many nodes resolve high iterates: the traces of the first
    24 iterates of z(z - 1/2)/(1 - z/2) on (0.8, 1.25) match their closed
    forms to 2.3e-16.

    Each circle is evaluated once, the inner first, and those samples are
    classified by the boundary-circle inclusion test, which names the
    inward and outward circles; an inclusion margin below 1e-8 makes the
    contour ill-posed (ValueError naming the margin).  Above it,
    |tau(z) - z| >= margin at every node."""
    nodes = (circle_nodes(rho, 4096) for rho in (annulus.r, annulus.R))
    check, inward, outward = _inclusions(m, annulus, *nodes)
    if check.margin < 1e-8:
        raise ValueError(
            f"inclusion margin {check.margin:.3g} (verdict {check.verdict}) below 1e-8 "
            f"on the annulus r={annulus.r:g}, R={annulus.R:g}: ill-posed contour"
        )
    # 1/(tau - z) -> 0 where the iterate has overflowed to infinity
    i_in, i_out = (
        circle_integral(lambda z, t=t: np.nan_to_num(1.0 / (t - z), nan=0.0), rho, 4096)
        for rho, t in (inward, outward)
    )
    return i_out - i_in


def trace_power(m, n: int, annulus: Annulus) -> complex:
    """Tr(L^n) as the contour trace of the n-th iterate (one evaluation per circle).

    Iterates need thinner annuli; where trace_contour refuses the annulus (a
    ValueError: an inclusion margin below 1e-8, a non-finite sample or an
    anti-Blaschke pole), the annulus is shrunk toward the unit circle (halving
    log r and log R) at most twice: a third gave TrigLift traces up to 3e-4
    off, unflagged.  Any other error is a fault, and passes through unchanged.
    """
    it = iterate(m, n)
    ann = annulus
    last_err = None
    for _ in range(3):
        try:
            return trace_contour(it, ann)
        except ValueError as exc:
            last_err = exc
            ann = ann.shrink()
    raise RuntimeError(
        f"trace of power n={n} failed on every retry annulus "
        f"(last: {last_err}); try a smaller n or a different annulus"
    )


def _families(mu: complex, anti: bool) -> tuple:
    """The non-trivial Blaschke spectrum {c b^k : k >= 1} as (base b, signs c)
    pairs: {mu^k, conj(mu)^k} for a product, {+mu^k, -mu^k} for an anti-product
    (mu the square root of the second-iterate multiplier).  Each base appears
    once with all its signs, so sums over the signs stay exact integers (odd
    anti traces are exactly 1)."""
    mu = complex(mu)
    if abs(mu) >= 1:
        raise ValueError(f"|mu| must be < 1, got {abs(mu)}")
    if anti:
        return ((mu, (1, -1)),)
    return ((mu, (1,)), (mu.conjugate(), (1,)))


def blaschke_trace_closed(mu: complex, anti: bool, n: int = 1) -> complex:
    """Closed-form Tr(L^n) for a Blaschke product with interior multiplier mu:
    1 + sum over bases b of (sum of signs c^n) b^n/(1-b^n), i.e.
    1 + mu^n/(1-mu^n) + conj(mu)^n/(1-conj(mu)^n); in the anti case 1 for
    odd n and 1 + 2 mu^n/(1-mu^n) for even n."""
    families = _families(mu, anti)
    if n < 1:
        raise ValueError(f"power must be >= 1, got n={n}")
    total = 1
    for b, signs in families:
        total += sum(c**n for c in signs) * b**n / (1 - b**n)
    return total


@dataclass(frozen=True)
class DetResult:
    """Determinant value with an attached error estimate: the truncation
    tail, plus the roundoff on the trace and product routes."""

    value: complex
    tail: float


def _tail(value: complex, log_tail: float) -> float:
    """|value| expm1(log_tail), the routes' one tail rule: inf from a log tail
    of 700 on, past exp's range, whatever |value| (0 included)."""
    return abs(value) * math.expm1(log_tail) if log_tail < 700 else math.inf


def _modulus(z: complex) -> float:
    """abs(z), or inf where a finite z is past the float range (abs raises OverflowError)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def det_from_spectrum(s: Spectrum, zeta: complex) -> DetResult:
    """det(I - e^zeta L) as the product over converged eigenvalues of
    (1 - e^zeta lambda_k), with a geometric bound on the omitted tail.  A
    zeta with a NaN part raises ValueError, a product that is not finite
    RuntimeError; zeta = -inf gives 1 with tail 0."""
    zeta = complex(zeta)
    if np.isnan(zeta):
        raise ValueError(f"zeta={zeta} has a NaN part")
    lams = s.converged()
    if len(lams) == 0:
        raise ValueError("empty spectrum")
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(zeta)
        value = complex(np.prod(1 - w * lams))
    if not np.isfinite(value):
        raise RuntimeError(f"spectrum route: the product at zeta={zeta} is not finite")

    # geometric bound on the factors beyond the converged range, anchored at
    # the smallest converged modulus
    mods = np.abs(lams)
    last = float(mods[-1])
    if last <= 1e-12:
        log_tail = abs(w) * 1e-12
    else:
        q = 0.5
        if len(mods) >= 3 and mods[1] > 0 and last < mods[1]:
            q = min((last / mods[1]) ** (1.0 / (len(mods) - 2)), 0.99)
        log_tail = abs(w) * last * q / (1 - q)
    tail = _tail(value, log_tail)
    if tail > 1e-6 * abs(value):
        warnings.warn(
            f"determinant tail estimate {tail:.3g} exceeds 1e-6 of |value|",
            RuntimeWarning,
            stacklevel=2,
        )
    return DetResult(value, tail)


def power_trace_table(m, annulus: Annulus, nmax: int) -> list:
    """Tr(L^n) for n = 1..nmax (reusable across determinant evaluations)."""
    return [trace_power(m, n, annulus) for n in range(1, nmax + 1)]


def det_from_traces(
    m,
    annulus: Annulus,
    z: complex,
    nmax: int = 24,
    traces: list | None = None,
) -> DetResult:
    """det(I - z L) = exp(-sum_{n<=nmax} z^n Tr(L^n) / n).

    The trace series converges only near 0 (the leading eigenvalue is 1);
    |z| <= 0.5 is enforced (a z with a NaN part fails it too) to keep the
    geometric truncation tail tiny.  The tail adds to that truncation the
    roundoff of the sum, nmax eps sum |z^n Tr(L^n) / n|: it covers the
    contour traces' own accuracy of about eps |Tr(L^n)|, the rounding of
    each term and the recursive summation bound (nmax - 1) eps/2 sum |terms|;
    2 eps more cover exp, and a log tail of 700 or more gives tail inf.  An
    exponential that is not finite raises RuntimeError.
    """
    z = complex(z)
    az = _modulus(z)
    if not az <= 0.5:
        raise ValueError(f"|z|={az:.3g} outside the validity window |z| <= 0.5")
    if nmax < 1:
        raise ValueError(f"nmax={nmax} must be at least 1")
    if traces is None:
        traces = power_trace_table(m, annulus, nmax)
    if len(traces) < nmax:
        raise ValueError(f"trace table has {len(traces)} entries, need {nmax}")
    terms = [z**n / n * traces[n - 1] for n in range(1, nmax + 1)]
    total = sum(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.exp(-total))
    if not np.isfinite(value):
        raise RuntimeError(f"trace route: the exponential at z={z} is not finite")
    scale = max(abs(t) for t in traces[nmax - 3 : nmax]) if nmax >= 3 else 1.0
    log_tail = scale * az ** (nmax + 1) / ((nmax + 1) * (1 - az))
    log_tail += EPS * (nmax * sum(abs(t) for t in terms) + 2)
    return DetResult(value, _tail(value, log_tail))


def det_product_formula(mu: complex, anti: bool, z: complex) -> DetResult:
    """Closed-form determinant for (anti-)Blaschke products:
    (1-z) prod_k (1 - mu^k z)(1 - conj(mu)^k z), the second factor replaced
    by (1 + mu^k z) in the anti case.  The product runs to the first
    k >= 4 with |mu|^k (1 + |z|) <= 1e-16, capped at 5000 (to k = 1 for
    mu = 0).  The returned tail bounds the factors left out plus, to first
    order, the rounding of the product: each step k rounds two complex
    products (by at most sqrt(5) eps/2 each; Brent, Percival & Zimmermann,
    Math. Comp. 2007) and two differences, which 4 eps per step covers
    relative to size = (1 + |z|) prod (1 + |mu^k z|)^2 >= |value|; the
    powers mu^k, a few eps of |mu^k z| each, add less while that is small.
    A log tail of 700 or more gives tail inf; a z with a NaN part raises
    ValueError, and a product that is not finite, or a |z| past the float
    range, RuntimeError."""
    families = _families(mu, anti)
    mu, z = complex(mu), complex(z)
    if np.isnan(z):
        raise ValueError(f"z={z} has a NaN part")
    az = _modulus(z)
    if mu == 0 or az == math.inf:
        kmax = 1
    else:
        kmax = max(4, int(math.ceil((16 * math.log(10) + math.log(1 + az)) / -math.log(abs(mu)))))
    kmax = min(kmax, 5000)
    value, size = 1 - z, 1 + az
    for k in range(1, kmax + 1):
        factor = 1
        for b, signs in families:
            for c in signs:
                factor *= 1 - c * b**k * z
                size *= 1 + abs(b) ** k * az
        value *= factor
    if not (np.isfinite(value) and az < math.inf):
        raise RuntimeError(f"product route: the product at z={z} is not finite")
    log_tail = 2 * abs(mu) ** (kmax + 1) * az / max(1 - abs(mu), 1e-12)
    return DetResult(complex(value), _tail(value, log_tail) + 4 * kmax * EPS * size)


def _log_abs_1m_exp(s: np.ndarray) -> np.ndarray:
    """log|1 - e^s| elementwise, stable for large positive Re s; -inf, without
    a warning, where e^s = 1 exactly (a zero of the determinant)."""
    s = np.asarray(s, dtype=complex)
    out = np.empty(s.shape, dtype=float)
    big = s.real > 1.0
    with np.errstate(divide="ignore"):
        out[big] = s.real[big] + np.log(np.abs(1 - np.exp(-s[big])))
        out[~big] = np.log(np.abs(1 - np.exp(s[~big])))
    return out


BLOCK_VALUES = 1 << 17  # arguments per log|1 - e^s| pass of log_abs_det_product, 2 MB


def log_abs_det_product(mu: complex, anti: bool, zeta) -> np.ndarray:
    """log|det(I - e^zeta L)| for the closed-form determinant, computed in
    log space so that quadratic growth in Re zeta never overflows; a factor
    (1 - c b^k e^zeta) with sign c = -1 is (1 - e^(zeta + k log b + i pi)).

    A scalar zeta gives a scalar, an array one value per entry.  The factors
    k <= K = floor((Re zeta - 45) / -l), l = log|mu|, have Re s >= 45, where
    log|1 - e^s| is Re s to the last bit: per sign they add up to
    K (Re zeta + l (K + 1) / 2) in closed form, so the time does not grow with
    Re zeta.  After each entry's own K an array evaluates one band of
    (m + 45) / -l + 2 rows per sign, m = max Re zeta clipped to [-45, 45];
    the extra terms of other entries are log|1 - e^s| with Re s < -45,
    exactly 0.0, as if each ran alone.  The shifted arguments of the band,
    one row per (k, base, sign), are formed and taken through log|1 - e^s| a
    block of about BLOCK_VALUES values at a time, and the rows are added in
    that order, as a loop over the factors would add them.  A log|det| of
    +inf or NaN raises RuntimeError; an exact zero of the determinant gives
    -inf, and zeta = -inf (K = 0) gives 0, the log of det(I - 0 L) = 1."""
    families = _families(mu, anti)
    scalar = np.ndim(zeta) == 0
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    flat = zeta.reshape(-1)
    total = _log_abs_1m_exp(flat)
    K = np.zeros(flat.shape)  # no factor but 1 - e^zeta at mu = 0
    if mu != 0:
        pairs = [(np.log(b), 1j * math.pi * (c < 0)) for b, signs in families for c in signs]
        log_b, turn = np.array(pairs).T
        ell = math.log(abs(mu))
        with np.errstate(over="ignore", invalid="ignore"):
            K = np.floor(np.maximum(flat.real - 45, 0) / -ell)
            far = K > 0  # K = 0 at zeta = -inf, where K Re zeta is 0 * inf = NaN
            total[far] += len(pairs) * K[far] * (flat.real[far] + ell * (K[far] + 1) / 2)
    bad = ~np.isfinite(K) | np.isnan(total) | (total == np.inf)
    if bad.any():
        raise RuntimeError(f"product route: log|det| at zeta={flat[bad][0]} is not finite")
    if mu != 0 and flat.size:
        n = (int((np.clip(flat.real.max(), -45, 45) + 45) / -ell) + 2) * len(pairs)  # band rows
        rows = max(1, BLOCK_VALUES // flat.size)
        for start in range(0, n, rows):
            k, j = np.divmod(np.arange(start, min(start + rows, n)), len(pairs))  # the block's rows
            s = (flat + (K + (k + 1)[:, None]) * log_b[j][:, None]) + turn[j][:, None]
            for term in _log_abs_1m_exp(s):
                total += term
    return total[0] if scalar else total.reshape(zeta.shape)


@dataclass(frozen=True)
class TraceReport:
    """Trace of one operator by every available route."""

    contour: complex
    eigensum: complex
    closed_form: complex | None
    max_pairwise_diff: float


def closed_form_multiplier(m):
    """(mu, anti) for the closed forms of a map that has them, else None: for
    a rational map whose pole coefficients are its zeros' conjugates (every
    Blaschke product, and every Mobius member with real w, mu = -w/2), the
    interior fixed-point multiplier, and for an anti-product the square root
    of its second-iterate multiplier.  A map whose min_expansion is not above
    1, NaN included, is not expanding, and has no closed forms."""
    circle = isinstance(m, _RationalMap) and m._poles == tuple(a.conjugate() for a in m.zeros)
    if not circle or not min_expansion(m) > 1:
        return None
    if m.anti:
        return second_iterate_multiplier(m), True
    return fixed_point_disk(m)[1], False


def trace_report(m, annulus: Annulus, nplus: int = 48) -> TraceReport:
    """Contour trace vs. matrix trace vs. closed form (where one exists);
    the matrix is the symmetric truncation (nplus, nplus - 1), assembled
    with the automatic sample count."""
    contour = trace_contour(m, annulus)
    T = assemble_dual(m, annulus, nplus)
    eigensum = complex(np.trace(T.matrix))
    closed = None
    info = closed_form_multiplier(m)
    if info is not None:
        mu, anti = info
        closed = blaschke_trace_closed(mu, anti, 1)
    values = [contour, eigensum] + ([closed] if closed is not None else [])
    diff = max(abs(a - b) for a in values for b in values)
    return TraceReport(contour, eigensum, closed, diff)
