"""Oracles and comparison utilities shared across the test modules.

Besides the closed-form spectra (of a Blaschke product, and of a rational
map by its two fixed-point multipliers), the seeded panels of random
products (the route-agreement sweep among them) and comparison helpers,
independent checks of the package live here, since only the tests call
them: the winding
number of a map on the unit circle; lifts and homotopy members evaluated
from the endpoint maps' own eval and deriv, the logarithm continued by
unwrapping its argument;
the duality oracle, which applies the transfer operator of a Blaschke
product through its polynomial preimages and compares it with the
assembled adjoint under the duality pairing of the annulus Hardy space;
the zeros of the Blaschke determinant zeta -> det(I - e^zeta L), an
explicit union of vertical lattices, whose enumeration gives an exact zero
count that Jensen's formula ties back to circle averages of log|det|; and
the truncated adjoint of a one-harmonic lift in closed form, entry by entry,
from the Jacobi-Anger expansion and scipy's Bessel functions; and the
mean-value test of a spectrum that is holomorphic in a parameter, with a
cosine lift of complex amplitude to run it on.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import zip_longest

import numpy as np

from ruelle.lifts import find_expansive_annulus
from ruelle.maps import (
    Annulus, BlaschkeProduct, _PowerExpMap, _RationalMap, fixed_point_disk, min_expansion,
)
from ruelle.numerics import circle_integral, circle_nodes, fourier_coeffs_from_samples, laurent
from ruelle.operators import assemble_dual
from ruelle.traces import log_abs_det_product

# anti-Blaschke map with second-iterate multiplier mu = 0.0784, so its eighth
# eigenvalue +-mu^4 = 3.78e-5 lies near the truncation's roundoff floor; its
# zeros miss 0, so its adjoint has no zero pattern
FLOOR_STAR = BlaschkeProduct(
    complex(-0.6931143075585181, 0.7208276886036468),
    (complex(-0.06947472054505469, -0.23304948848809703),
     complex(-0.056942402897746186, 0.14855363242454417)),
    anti=True,
)


def seeded_products(count=40):
    """The seed-7 panel of random degree-2 products, in draw order: zeros of
    modulus below 0.6, a unimodular alpha, plain or anti by a coin.  12 of
    the 40 have min_expansion <= 1."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(count):
        zeros = rng.uniform(0, 0.6, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        alpha = np.exp(2j * np.pi * rng.uniform())
        out.append(BlaschkeProduct(alpha, tuple(zeros), bool(rng.integers(2))))
    return out


def sweep_products(draws=60):
    """The seed-2024 route-agreement sweep, in draw order, as (map, annulus):
    draws cycle through degree 2 and 3, plain then anti, each with zeros
    uniform in modulus below 0.6 and uniform in argument, then a unimodular
    alpha.  A draw is kept when min_expansion > 1 and find_expansive_annulus
    finds its annulus: 53 of the 60."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(draws):
        d, anti = (2, 3, 2, 3)[i % 4], i % 4 >= 2
        zeros = rng.uniform(0, 0.6, d) * np.exp(2j * np.pi * rng.uniform(size=d))
        alpha = np.exp(2j * np.pi * rng.uniform())
        m = BlaschkeProduct(alpha, tuple(zeros), anti)
        if not min_expansion(m) > 1:
            continue
        try:
            out.append((m, find_expansive_annulus(m)))
        except RuntimeError:  # no annulus in the search range
            continue
    return out


def blaschke_spectrum(mu, count, anti=False):
    """Expected leading eigenvalues for a product with interior multiplier mu
    (anti: mu is the square root of the second-iterate multiplier):
    n odd -> conj(mu)^((n-1)/2), n even -> mu^(n/2); anti flips the sign of
    the even entries and drops the conjugate.

    One extra term is generated and the list re-sorted with the package
    ordering (modulus descending, then argument ascending) before cutting,
    so that a cut through a conjugate pair keeps the same member that the
    computed spectrum keeps.
    """
    out = []
    for n in range(1, count + 2):
        if anti:
            lam = -(mu ** (n // 2)) if n % 2 == 0 else mu ** ((n - 1) // 2)
        else:
            lam = mu ** (n // 2) if n % 2 == 0 else np.conj(mu) ** ((n - 1) // 2)
        out.append(complex(lam))
    vals = np.array(out)
    vals = vals[np.lexsort((np.angle(vals), -np.abs(vals)))]
    return vals[:count]


def rational_map(zeros, poles, alpha=1.0):
    """alpha prod (z - a_j)/(1 - b_j z) for the zeros a_j and free pole
    coefficients b_j, by the library's rational formula: no public class
    states it unless b = conj(a) (a Blaschke product) or a = b (a Mobius
    member)."""
    tau = _RationalMap()
    tau.alpha, tau.zeros, tau._poles = complex(alpha), tuple(map(complex, zeros)), tuple(map(complex, poles))
    return tau


def reflected_multiplier(m):
    """mu_out = sigma'(u_0) for sigma(u) = 1/tau(1/u) and its attracting fixed
    point u_0 in the unit disk, for a rational map tau that is not anti: sigma
    = (1/alpha) prod (u - b_j)/(1 - a_j u), the same formula with the a_j and
    b_j swapped.  For a Blaschke product it is conj(mu_in); for a Mobius
    member, where a = b = (0, w/2), mu_in = mu_out = -w/2."""
    return fixed_point_disk(rational_map(m._poles, m.zeros, 1 / m.alpha))[1]


def two_multiplier_spectrum(mu_in, mu_out, count):
    """The leading ``count`` eigenvalues {1} and {mu_in^k, mu_out^k : k >= 1}
    of a rational map holomorphically expansive on its annulus, with mu_in =
    tau'(z_in) at the attracting fixed point inside and mu_out from
    ``reflected_multiplier``.  tau has no pole inside the outer circle and no
    zero outside the inner one, so the adjoint is block triangular, its
    spectrum the union of the two Koenigs spectra.  mu_out = conj(mu_in) is
    ``blaschke_spectrum(mu_in)``; two equal multipliers give each power twice.
    Sorted as the package sorts (modulus descending, then argument)."""
    vals = np.array([1] + [mu**k for k in range(1, count + 1) for mu in (mu_in, mu_out)], dtype=complex)
    vals = vals[np.lexsort((np.angle(vals), -np.abs(vals)))]
    return vals[:count]


def det_product_distance(value, mu, anti, z) -> float:
    """|value - det(I - z L)| for the (anti-)Blaschke product with multiplier
    mu, the determinant taken in 60-digit decimal arithmetic on the binary
    values of mu and z: (1 - z) prod_k (1 - mu^k z)(1 - conj(mu)^k z), the
    second factor (1 + mu^k z) in the anti case, until |mu^k z| < 1e-40."""

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    mu, z, value = complex(mu), complex(z), complex(value)
    with localcontext() as ctx:
        ctx.prec = 60
        dz, power = (Decimal(z.real), Decimal(z.imag)), (Decimal(1), Decimal(0))
        det = (1 - dz[0], -dz[1])
        while abs(power[0]) + abs(power[1]) > Decimal("1e-40"):
            power = mul(power, (Decimal(mu.real), Decimal(mu.imag)))
            w = mul(power, dz)
            w_bar = mul((power[0], -power[1]), dz)
            det = mul(det, (1 - w[0], -w[1]))
            det = mul(det, (1 + w[0], w[1]) if anti else (1 - w_bar[0], -w_bar[1]))
        gap = (Decimal(value.real) - det[0], Decimal(value.imag) - det[1])
        return float((gap[0] ** 2 + gap[1] ** 2).sqrt())


def match_multiset(expected, computed, tol, slack=0):
    """Greedy nearest-value matching; returns the worst matched distance.

    ``slack`` widens the candidate pool beyond len(expected): a cut through
    an equal-modulus conjugate pair is resolved by floating-point noise, so
    an even cut needs one extra slot to find the pair member it expects.
    """
    expected = np.asarray(expected, dtype=complex)
    pool = np.array(computed[: len(expected) + slack], dtype=complex)
    used = np.zeros(len(pool), dtype=bool)
    worst = 0.0
    for lam in expected:
        dist = np.abs(pool - lam)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    assert worst <= tol, f"eigenvalue mismatch {worst:.3g} > {tol:g}"
    return worst


def leading_match_loop(primary, other, tol) -> int:
    """The greedy leading match of ``spectra._leading_match`` one value at a
    time, with one distance vector per value of ``primary``: its reference."""
    used = np.zeros(len(other), dtype=bool)
    count = 0
    for lam in primary[: len(other)]:
        dist = np.abs(other - lam)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > tol:
            break
        used[j] = True
        count += 1
    return count


def residue_sum(poles_and_residues, radius):
    """Reference oracle: sum of residues strictly inside |z| = radius."""
    return sum(res for pole, res in poles_and_residues if abs(pole) < radius)


def brute_force_coeff(f, radius, m, K=4096):
    """O(K) rectangle-rule Fourier coefficient, independent of the FFT path."""
    theta = 2 * np.pi * np.arange(K) / K
    vals = f(radius * np.exp(1j * theta))
    return complex(np.mean(vals * np.exp(-1j * m * theta)))


def finite_difference(m, z, h=1e-6):
    return (m.eval(z + h) - m.eval(z - h)) / (2 * h)


# The leading eigenvalues of TrigLift(2, (0.1,)), one of each conjugate pair,
# from its exact entries in 40-digit arithmetic on (e^-0.5, e^0.5); the
# truncations N = 16, 32, 48 and 64 agree on all of them to 2e-16.
TRIG_STAR_EIGENVALUES = (
    1.0,
    -0.0032995743096689697 + 0.04982873444515009j,
    -0.0016444730448059506 + 0.000389343677881304j,
    2.412423424469547e-05 + 5.45430285601213e-05j,
    1.7761317292576145e-06 + 1.2075560449375754e-06j,
    -5.434402721595426e-08 + 5.572499207255738e-08j,
    -1.6525241e-09 + 2.2944235e-09j,
)


def jacobi_anger_matrix(m, annulus: Annulus, nplus: int, nminus: int | None = None):
    """The truncated adjoint of a lift with one harmonic, entry by entry.

    For tau(e^{i theta}) = e^{i (d theta + A cos(k theta - phi))}, with
    a cos k theta + b sin k theta = A cos(k theta - phi), the Jacobi-Anger
    expansion e^{i x cos t} = sum_j i^j J_j(x) e^{i j t} gives, for every
    integer s, tau^s = sum_j u^j J_j(s A) z^{d s + j k} with u = i e^{-i phi}.
    Plus column n is (tau/r)^n = r^-n tau^n and minus column n is
    (R/tau)^n = R^n tau^-n; the coefficient of z^p lands in plus row p with
    weight r^p (p >= 0) and in minus row -p with weight R^p (p <= -1).  scipy's
    ``jv`` gives each entry to relative accuracy: no FFT, no roundoff floor.
    """
    from scipy.special import jv

    harmonics = [
        (k, a, b)
        for k, (a, b) in enumerate(zip_longest(m.cos_coeffs, m.sin_coeffs, fillvalue=0.0), 1)
        if a or b
    ]
    if len(harmonics) > 1:
        raise ValueError("one harmonic only: more need a convolution of Bessel sequences")
    k, a, b = harmonics[0] if harmonics else (1, 0.0, 0.0)
    if b == 0:  # a cosine, of real or complex amplitude a: A = a and u = i
        amp, u = a, 1j
    else:
        amp = math.hypot(a, b)
        u = complex(b, a) / amp  # exactly 1 for a sine
    nminus = nplus if nminus is None else nminus
    # the exponent p of each row, and the power s of each column, in one list
    p = np.concatenate([np.arange(nplus), -np.arange(1, nminus + 1)])
    weight = np.where(p >= 0, annulus.r, annulus.R) ** p.astype(float)
    jk = p[:, None] - m.d * p[None, :]
    j = jk // k
    phase = {q: u ** (q % 4) * (u**4) ** (q // 4) for q in np.unique(j).tolist()}
    entries = np.vectorize(phase.get, otypes=[complex])(j) * jv(j, p[None, :] * amp)
    entries *= weight[:, None] / weight[None, :]
    return np.where(jk % k == 0, entries, 0.0)


@dataclass(frozen=True)
class CosineLift(_PowerExpMap):
    """tau(z) = z^2 e^{i a (z + 1/z)/2}, whose lift is 2 theta + a cos theta:
    ``TrigLift(2, (a,))`` with the amplitude a allowed complex, so holomorphic
    in a, and evaluated by the library's z^d e^Q routine.  For complex a it is
    no circle map."""

    a: complex
    d = degree = 2
    sin_coeffs = ()

    @property
    def cos_coeffs(self) -> tuple:
        return (self.a,)

    def _exponent(self, z):
        c = np.array([1j * complex(self.a) / 2])  # TrigLift's z and 1/z coefficient
        return laurent(c, c, z)


def holomorphy_gap(spectrum_of, w0, rho, J, cut):
    """The mean-value test of a spectrum holomorphic in a parameter w.

    S(w), the sum of the eigenvalues ``spectrum_of(w)`` of modulus above
    cut, is holomorphic on the disc |w - w0| <= rho when no eigenvalue
    crosses the cut there, so S(w0) is the mean of S over the circle, which
    the J-point trapezoid rule gives to geometric accuracy in J.  Returns
    |S(w0) - mean| and the count of eigenvalues above the cut, which must
    be the same at w0 and at each of the J points (RuntimeError otherwise).
    """
    sums, counts = [], set()
    for w in [w0, *(w0 + rho * np.exp(2j * np.pi * np.arange(J) / J))]:
        vals = np.asarray(spectrum_of(complex(w)))
        group = vals[np.abs(vals) > cut]
        sums.append(group.sum())
        counts.add(len(group))
    if len(counts) > 1:
        raise RuntimeError(f"eigenvalues cross |lambda| = {cut:g} on the disc: {sorted(counts)}")
    return float(abs(sums[0] - np.mean(sums[1:]))), counts.pop()


def winding_degree(m) -> int:
    """Degree as a winding number: the circle integral of tau'/tau over
    2048 nodes of the unit circle, rounded to the nearest integer.

    The quadrature residual must be below 1e-6; a larger residual means the
    map does not preserve the circle (or 2048 nodes are too few, e.g. for a
    high iterate -- use the map's analytic ``degree`` attribute there).
    """
    w = circle_integral(lambda z: m.deriv(z) / m.eval(z), 1.0, 2048)
    d = round(w.real)
    if abs(w - d) >= 1e-6:
        raise ValueError(
            f"winding residual {abs(w - d):.3g}: map does not preserve the "
            "circle or quadrature unresolved"
        )
    return d


def exponent_by_continuation(m, rho, K):
    """Reference Q = log(tau(z)/z^d) on circle_nodes(rho, K), from the map's own
    eval alone: the principal logarithm at z = 1, continued by unwrapping its
    argument along 256 steps of the real segment to rho, then round the circle."""
    path = np.concatenate([np.linspace(1.0, rho, 256), circle_nodes(rho, K)])
    ratio = m.eval(path) / path**m.degree
    q = np.log(np.abs(ratio)) + 1j * np.unwrap(np.angle(ratio))
    return q[256:]


def lift_eval_ref(m, row, K):
    """Reference lift(theta) = d theta - i Q(e^{i theta}) at theta = 2 pi j / K + i row,
    on the circle |z| = e^-row, through exponent_by_continuation."""
    theta = 2 * np.pi * np.arange(K) / K + 1j * row
    return m.degree * theta - 1j * exponent_by_continuation(m, math.exp(-row), K)


def lift_deriv_ref(m, row, K):
    """Reference lift'(theta) = z tau'(z) / tau(z) at the points of lift_eval_ref."""
    z = circle_nodes(math.exp(-row), K)
    return z * m.deriv(z) / m.eval(z)


def member_eval_ref(pair, w, rho, K):
    """Reference homotopy member z^d e^{(1-w) Q_0 + w Q_1} on circle_nodes(rho, K),
    with the endpoints' exponents from exponent_by_continuation."""
    q0, q1 = (exponent_by_continuation(m, rho, K) for m in pair)
    return circle_nodes(rho, K) ** pair[0].degree * np.exp((1 - w) * q0 + w * q1)


def member_deriv_ref(pair, w, rho, K):
    """Reference member derivative: T(w, z) [(1-w) tau_0'/tau_0 + w tau_1'/tau_1](z)."""
    z = circle_nodes(rho, K)
    h0, h1 = (m.deriv(z) / m.eval(z) for m in pair)
    return member_eval_ref(pair, w, rho, K) * ((1 - w) * h0 + w * h1)


@dataclass(frozen=True)
class HardyPair:
    """Coefficients of h1(z) = sum_m plus[m] (z/r)^m (m >= 0) and
    h2(z) = sum_m minus[m-1] (R/z)^m (m >= 1): a dual vector for the annulus
    Hardy space."""

    plus: np.ndarray
    minus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plus", np.asarray(self.plus, dtype=complex))
        object.__setattr__(self, "minus", np.asarray(self.minus, dtype=complex))

    @classmethod
    def basis(cls, kind: str, m: int, nplus: int, nminus: int) -> "HardyPair":
        plus = np.zeros(nplus, dtype=complex)
        minus = np.zeros(nminus, dtype=complex)
        if kind == "plus":
            plus[m] = 1.0
        elif kind == "minus":
            minus[m - 1] = 1.0
        else:
            raise ValueError(f"kind must be 'plus' or 'minus', got {kind!r}")
        return cls(plus, minus)

    @classmethod
    def from_vector(cls, vec: np.ndarray, nplus: int) -> "HardyPair":
        return cls(vec[:nplus], vec[nplus:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.plus, self.minus])


def _laurent_eval(coeffs: dict, z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for mm, c in coeffs.items():
        out = out + c * np.asarray(z, dtype=complex) ** mm
    return out


def pairing(h: HardyPair, f: dict, annulus: Annulus) -> complex:
    """The duality pairing l(f) = (1/2 pi i) [ int_{|z|=r} f h1 dz
    + int_{|z|=R} f h2 dz ] for a finite Laurent series f (index -> coeff),
    read off as the z^-1 coefficients of the Laurent polynomials f h1 and
    f h2: sum_m plus[m] f_{-m-1} / r^m + sum_{m>=1} minus[m-1] R^m f_{m-1}."""
    r, R = annulus.r, annulus.R
    inner = sum(c * f.get(-mm - 1, 0) / r**mm for mm, c in enumerate(h.plus))
    outer = sum(c * R**mm * f.get(mm - 1, 0) for mm, c in enumerate(h.minus, start=1))
    return complex(inner + outer)


def transfer_apply_rational(m: BlaschkeProduct, f: dict, z: complex) -> complex:
    """Apply the transfer operator of a (possibly anti-) Blaschke product to
    a finite Laurent series f at the point z:

        (L f)(z) = omega * sum_k f(phi_k(z)) / tau'(phi_k(z)),

    with the preimages phi_k(z) found as roots of the degree-d polynomial
    alpha N(phi) - y D(phi) (y = z, or 1/z in the anti case), via the
    companion matrix.
    """
    if not isinstance(m, BlaschkeProduct):
        raise ValueError("transfer_apply_rational expects a Blaschke-type map")
    z = complex(z)
    y = 1 / z if m.anti else z

    num = np.array([1.0 + 0j])
    den = np.array([1.0 + 0j])
    for a in m.zeros:
        num = np.polynomial.polynomial.polymul(num, [-a, 1.0])
        den = np.polynomial.polynomial.polymul(den, [1.0, -a.conjugate()])
    d = len(m.zeros)
    poly = m.alpha * num - y * np.pad(den, (0, d + 1 - len(den)))[: d + 1]
    if abs(poly[-1]) < 1e-13 * np.abs(poly).max():
        raise RuntimeError(f"preimage escapes to infinity near z={z:.6g}")
    phis = np.roots(poly[::-1])
    if len(phis) != d:
        raise RuntimeError(f"expected {d} preimages, root finder returned {len(phis)}")

    residual = np.abs(m.eval(phis) - z)
    if residual.max() >= 1e-10:
        raise RuntimeError(
            f"preimage residual {residual.max():.3g} too large at z={z:.6g}"
        )
    dtau = m.deriv(phis)
    if np.min(np.abs(dtau)) < 1e-8:
        raise ValueError(f"degenerate preimage: z={z:.6g} is near a critical value")
    omega = 1 if m.degree > 0 else -1
    return omega * complex(np.sum(_laurent_eval(f, phis) / dtau))


def _project_to_laurent(m: BlaschkeProduct, f: dict) -> dict:
    """Laurent coefficients of L f from 256 nodes of the unit circle (for
    duality checks), without those below 1e-15 of the largest."""
    samples = np.array([transfer_apply_rational(m, f, zz) for zz in circle_nodes(1.0, 256)])
    c = fourier_coeffs_from_samples(samples, 1.0)
    top = max(np.abs(c).max(), 1.0)
    return {mm: complex(c[mm]) for mm in range(-128, 128) if abs(c[mm]) > 1e-15 * top}


def duality_residual(m: BlaschkeProduct, annulus: Annulus, N: int) -> float:
    """Consistency of the assembled adjoint with the transfer operator under
    the duality pairing: max over low-order basis pairs (h, f) of
    |pairing(L^dagger h, f) - pairing(h, L f)|.
    """
    T = assemble_dual(m, annulus, N, N)
    hs = [
        HardyPair.basis("plus", 0, N, N),
        HardyPair.basis("plus", 1, N, N),
        HardyPair.basis("minus", 1, N, N),
        HardyPair.basis("minus", 2, N, N),
    ]
    fs = [{mm: 1.0} for mm in range(-2, 3)]
    worst = 0.0
    for f in fs:
        lf = _project_to_laurent(m, f)
        for h in hs:
            th = HardyPair.from_vector(T.matrix @ h.to_vector(), N)
            lhs = pairing(th, f, annulus)
            rhs = pairing(h, lf, annulus)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _families(mu, anti):
    """The non-trivial Blaschke spectrum {c b^k : k >= 1} as (base b, signs c)
    pairs, written out here rather than read from the package, so that the
    zeros below are enumerated independently of the closed forms."""
    mu = complex(mu)
    return ((mu, (1, -1)),) if anti else ((mu, (1,)), (mu.conjugate(), (1,)))


def _lattice_zeros(mu: complex, center: complex, radius: float, anti: bool) -> list:
    """All zeros of zeta -> det(I - e^zeta L) with |zeta - center| < radius,
    as a multiset (coinciding lattice families count with multiplicity).

    Families: e^zeta = 1 gives 2 pi i m; e^zeta = c^-1 b^-k (k >= 1) gives
    -k log(b) + i pi [c < 0] + 2 pi i m for each base b and sign c.  A zero
    at the center itself is refused (ValueError)."""
    families = _families(mu, anti)
    center = complex(center)
    zeros = []
    mmax = int((radius + abs(center.imag)) / (2 * math.pi)) + 2
    for m in range(-mmax, mmax + 1):
        zc = 2j * math.pi * m
        if abs(zc - center) < radius:
            zeros.append(zc)
    if mu != 0:
        lead = -np.log(families[0][0])
        kmax = int((radius + abs(center.real)) / abs(np.real(lead))) + 2
        mspan = mmax + int(kmax * (abs(np.imag(lead)) / (2 * math.pi) + 1)) + 2
        for b, signs in families:
            base = -np.log(b)
            for c in signs:
                for k in range(1, kmax + 1):
                    anchor = k * base + 1j * math.pi * (c < 0)
                    for m in range(-mspan, mspan + 1):
                        zc = anchor + 2j * math.pi * m
                        if abs(zc - center) < radius:
                            zeros.append(zc)
    if any(abs(zc - center) < 1e-9 for zc in zeros):
        raise ValueError("center coincides with a determinant zero; shift it")
    return zeros


def det_zero_count_lattice(
    mu: complex, center: complex, radius: float, anti: bool = False
) -> int:
    """Exact count (with multiplicity) of determinant zeros in the open disk
    |zeta - center| < radius, by direct lattice enumeration."""
    return len(_lattice_zeros(mu, center, radius, anti))


@dataclass(frozen=True)
class JensenCheck:
    """Both sides of Jensen's identity for the determinant zeros:
    integral of N(t)/t from the enumerated zeros vs. the circle average of
    log|det| minus its value at the center."""

    counting_side: float
    boundary_side: float


def jensen_count_check(
    mu: complex, R: float, anti: bool = False, center: complex = -1.0
) -> JensenCheck:
    """Check int_0^{2R} N(t)/t dt = avg_theta log|Z(center + 2R e^{i theta})|
    - log|Z(center)| for the closed-form determinant Z.

    The left side is exact from the lattice enumeration (each zero at
    distance rho contributes log(2R/rho)); the right side is trapezoidal
    quadrature of the stable log|Z| evaluation, with the angular offset
    jittered away from any zero sitting on a quadrature node.  The circle
    takes 2048 nodes, because log|Z| has logarithmic singularities at the
    zeros, and those near the circle slow the trapezoidal rule.
    """
    K = 2048
    center = complex(center)
    zeros = _lattice_zeros(mu, center, 2 * R, anti)
    counting = float(sum(math.log(2 * R / abs(zc - center)) for zc in zeros))

    zero_arr = np.array(zeros) if zeros else np.empty(0, dtype=complex)
    offset = 0.5
    for _ in range(5):
        theta = 2 * math.pi * (np.arange(K) + offset) / K
        nodes = center + 2 * R * np.exp(1j * theta)
        if zero_arr.size and np.min(
            np.abs(nodes[:, None] - zero_arr[None, :])
        ) < 1e-6:
            offset += 1 / math.sqrt(2)
            offset -= math.floor(offset)
            continue
        boundary = float(np.mean(log_abs_det_product(mu, anti, nodes))) - float(
            log_abs_det_product(mu, anti, center)
        )
        return JensenCheck(counting, boundary)
    raise RuntimeError("could not place quadrature nodes away from determinant zeros")
