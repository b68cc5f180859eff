import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FLOOR_STAR,
    CosineLift,
    finite_difference,
    seeded_products,
    winding_degree,
)
from ruelle.lifts import build_homotopy, find_expansive_annulus, lift
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    ComposedMap,
    MobiusFamilyMap,
    TrigLift,
    _MapBase,
    check_holo_expansive,
    fixed_point_disk,
    from_descriptor,
    iterate,
    min_expansion,
    second_iterate_multiplier,
    to_descriptor,
)
from ruelle.numerics import circle_nodes, laurent


class TestEval:
    def test_bstar_fixes_one(self, bstar):
        assert bstar.eval(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_squaring(self, squaring):
        assert squaring.eval(0.5j) == pytest.approx(-0.25, abs=1e-14)

    def test_mobius_w0_is_squaring(self):
        m = MobiusFamilyMap(0.0)
        for z in (0.3, 1.1 + 0.2j, -0.9j):
            assert m.eval(z) == pytest.approx(z * z, abs=1e-14)

    def test_mobius_w1_is_bstar(self, bstar):
        m = MobiusFamilyMap(1.0)
        for z in (0.9, 1.2j, -1.05):
            assert m.eval(z) == pytest.approx(bstar.eval(z), abs=1e-13)

    def test_anti_is_reciprocal(self, bstar, anti_bstar):
        z = 0.8 * np.exp(0.3j)
        assert anti_bstar.eval(z) == pytest.approx(1.0 / bstar.eval(z), abs=1e-13)

    def test_anti_pole_is_domain_error(self, anti_bstar):
        with pytest.raises(ValueError, match="pole"):
            anti_bstar.eval(0.5)


class TestDeriv:
    def test_bstar_multiplier_at_origin(self, bstar):
        assert bstar.deriv(0.0) == pytest.approx(-0.5, abs=1e-14)

    def test_squaring(self, squaring):
        assert squaring.deriv(1.0) == pytest.approx(2.0, abs=1e-13)

    def test_bstar_at_one(self, bstar):
        # d/dz (2z^2 - z)/(2 - z) at z=1: ((4z-1)(2-z) + (2z^2-z))/(2-z)^2 = 4
        assert bstar.deriv(1.0) == pytest.approx(4.0, abs=1e-13)

    def test_matches_finite_differences_at_random_points(self, bstar, anti_bstar):
        rng = np.random.default_rng(11)
        maps = [
            bstar,
            anti_bstar,
            TrigLift(2, cos_coeffs=(0.1,), sin_coeffs=(0.05, 0.02)),
            MobiusFamilyMap(0.5 + 0.26j),
        ]
        for m in maps:
            for _ in range(100):
                z = rng.uniform(0.9, 1.1) * np.exp(2j * np.pi * rng.uniform())
                fd = finite_difference(m, z)
                an = m.deriv(z)
                assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def _mobius_deriv_ref(m, z):
    # the quotient rule on z (2z - w)/(2 - wz)
    w = m.w
    return ((4 * z - w) * (2 - w * z) + w * (2 * z**2 - w * z)) / (2 - w * z) ** 2


def _blaschke_deriv_ref(m, z):
    # the product rule with factor derivatives (1 - |a|^2)/(1 - conj(a) z)^2,
    # and -B'/B^2 for the anti map
    us = [(z - a) / (1 - a.conjugate() * z) for a in m.zeros]
    total = 0
    for k, a in enumerate(m.zeros):
        term = (1 - abs(a) ** 2) / (1 - a.conjugate() * z) ** 2
        for u in us[:k] + us[k + 1 :]:
            term = term * u
        total = total + term
    return -total / (m.alpha * np.prod(us, axis=0) ** 2) if m.anti else m.alpha * total


_DERIV_REFS = {f"mobius{w}": (MobiusFamilyMap(w), _mobius_deriv_ref)
               for w in (0.7, 0.7 + 0.05j, 0.5 + 0.26j, 1.7, 0.3 - 0.2j, 0)}
_DERIV_REFS.update({f"seeded{i}-{'anti' if anti else 'plain'}": (replace(m, anti=anti), _blaschke_deriv_ref)
                    for i, m in enumerate(seeded_products(10)) for anti in (False, True)})


@pytest.mark.parametrize("m, ref", _DERIV_REFS.values(), ids=list(_DERIV_REFS))
def test_rational_deriv_matches_the_class_formulas(m, ref):
    # the shared product rule against each class's own former derivative
    z = _annulus_points(0.8, 1.25, 10**4, 12)
    expected = ref(m, z)
    assert np.all(np.abs(m.deriv(z) - expected) <= 1e-14 * np.abs(expected))


def _rational_ref(m, z):
    # eval and deriv with every factor as (z - a)/(1 - b z), a = b = 0 included;
    # a Mobius member evaluates by its ``step`` order
    us = [(z - a) / (1 - b * z) for a, b in zip(m.zeros, m._poles)]
    p = np.full_like(z, m.alpha)
    for u in us:
        p = p * u
    total = np.zeros_like(z)
    for k, (a, b) in enumerate(zip(m.zeros, m._poles)):
        term = (1 - a * b) / (1 - b * z) ** 2
        for j, u in enumerate(us):
            if j != k:
                term = term * u
        total = total + term
    if isinstance(m, MobiusFamilyMap):
        value = np.multiply(z, np.subtract(np.multiply(2, z), m.w))
        value = np.divide(value, np.subtract(2, np.multiply(m.w, z)))
    else:
        value = 1.0 / p if m.anti else p
    return value, -(m.alpha * total) / p**2 if m.anti else m.alpha * total


_ZERO_AT_0 = {
    "mobius0.7": MobiusFamilyMap(0.7),
    "mobius0.7+0.05j": MobiusFamilyMap(0.7 + 0.05j),
    "bstar": BlaschkeProduct(1.0, (0.0, 0.5)),
    "anti-bstar": BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
    "z^2": BlaschkeProduct(1.0, (0.0, 0.0)),
    "anti-z^2": BlaschkeProduct(1.0, (0.0, 0.0), anti=True),
}


@pytest.mark.parametrize("m", _ZERO_AT_0.values(), ids=list(_ZERO_AT_0))
def test_factor_z_keeps_the_bits(m):
    # a factor with a = b = 0 is z itself, with derivative 1: the same values
    # at z = 0 (a pole of the anti maps) and on circle nodes
    z = np.concatenate([[0j], circle_nodes(0.8, 512), circle_nodes(1.25, 512)])
    if m.anti:
        z = z[1:]
        for f in (m.eval, m.deriv):
            with pytest.raises(ValueError, match="anti-Blaschke pole"):
                f(0j)
    value, slope = _rational_ref(m, z)
    assert np.array_equal(m.eval(z), value) and np.array_equal(m.deriv(z), slope)


def _full_exponent(m, z):
    # the rational exponent with every factor's log1p terms, a = b = 0 included
    Q, slope = np.full_like(z, np.log(m.alpha)), np.zeros_like(z)
    for a, b in zip(m.zeros, m._poles):
        Q = Q + np.log1p(-a / z) - np.log1p(-b * z)
        slope = slope + a / np.multiply(z, z - a) + b / (1 - b * z)
    return (-Q, -slope) if m.anti else (Q, slope)


_WITH_FACTOR_Z = {
    **_ZERO_AT_0,
    "alpha-i": BlaschkeProduct(1j, (0.0, 0.3 + 0.2j)),
    "mobius0": MobiusFamilyMap(0.0),
}


def _same_bits(x, y):
    # equal float64 views, so that signed zeros count (and NaN matches NaN)
    x, y = (np.asarray(v, dtype=complex).view(np.float64) for v in (x, y))
    return np.array_equal(x, y, equal_nan=True)


@pytest.mark.parametrize("m", _WITH_FACTOR_Z.values(), ids=list(_WITH_FACTOR_Z))
def test_factor_z_keeps_the_exponent_bits(m):
    # skipping a factor z leaves Q and Q' bit for bit as the full loop gives
    # them, on circles inside and outside the unit circle and at +-1, +-i
    # (the node 0.5 is B*'s zero, where Q is -inf)
    radii = (0.5, np.exp(-0.1), 0.8, 1.0, 1.25, np.exp(0.1), 1.5)
    z = np.concatenate([circle_nodes(rho, 1024) for rho in radii] + [[1, -1, 1j, -1j]])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert all(map(_same_bits, m._exponent(z), _full_exponent(m, z)))
    # and so the lift's values and derivatives on the row Im theta = 0.05
    theta = 2 * np.pi * np.arange(1024) / 1024 + 0.05j
    new = lift(m)
    tau = SimpleNamespace(degree=m.degree, _exponent=lambda z: _full_exponent(m, z))
    old = replace(new, tau=tau)
    assert _same_bits(new.eval(theta), old.eval(theta))
    assert _same_bits(new.deriv(theta), old.deriv(theta))


class TestDegreeOrientation:
    def test_squaring(self, squaring):
        assert winding_degree(squaring) == 2

    def test_bstar_winding(self, bstar):
        assert winding_degree(bstar) == 2

    def test_anti_negates_winding(self, anti_bstar):
        assert winding_degree(anti_bstar) == -2

    def test_negative_triglift(self, annulus):
        # the inclusion verdict, which decides the orientation, reads the
        # swapped inclusions of z^-3
        assert check_holo_expansive(TrigLift(-3), annulus).verdict == "A2"

    def test_unresolved_winding_rejected(self):
        class NearCircleZero:
            # zeros a hair outside the unit circle: true winding 0, but the
            # quadrature cannot resolve the near-singularity
            def eval(self, z):
                return z * z - 1.00000001

            def deriv(self, z):
                return 2 * z

        with pytest.raises(ValueError, match="circle|unresolved"):
            winding_degree(NearCircleZero())

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: b,
            lambda b: BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            lambda b: TrigLift(2, (0.1,)),
            lambda b: TrigLift(-3),
            lambda b: MobiusFamilyMap(0.7),
            lambda b: iterate(b, 2),
            lambda b: BlaschkeProduct(1.0, (0.2, 0.3j, -0.4)),
            lambda b: build_homotopy(b, TrigLift(2, (0.1,))).member(0.5),
        ],
        ids=["bstar", "anti-bstar", "triglift", "triglift-neg", "mobius", "bstar-iterate",
             "three-zero", "homotopy-member"],
    )
    def test_winding_matches_degree_attribute(self, bstar, make):
        # the analytic degree against the winding number of every map class
        # on the unit circle
        m = make(bstar)
        assert winding_degree(m) == m.degree


class TestExpansion:
    def test_squaring(self, squaring):
        assert min_expansion(squaring) == pytest.approx(2.0, abs=1e-12)

    def test_bstar_expanding(self, bstar):
        # Sum (1-|a_j|)/(1+|a_j|) = 1 + 1/3 > 1 guarantees expansivity
        assert min_expansion(bstar) > 1.0

    def test_triglift_dense_sampling_oracle(self):
        m = TrigLift(2, cos_coeffs=(0.9,))
        # |lift'| = |2 - 0.9 sin(theta)| has minimum 1.1
        # theta = pi/2 is one of the 4096 nodes
        assert min_expansion(m) == pytest.approx(1.1, abs=1e-6)


class TestInclusions:
    def test_squaring_a1(self, squaring, annulus):
        chk = check_holo_expansive(squaring, annulus)
        assert chk.verdict == "A1"
        # margins from 0.64 < 0.8 and 1.5625 > 1.25
        assert chk.margin == pytest.approx(min(0.8 - 0.64, 1.5625 - 1.25), abs=1e-9)

    def test_anti_a2(self, anti_bstar, annulus):
        assert check_holo_expansive(anti_bstar, annulus).verdict == "A2"

    def test_shifted_map_fails_thin_annulus(self, bstar):
        class Shifted:
            # no longer circle-preserving: both inclusions break
            def eval(self, z):
                return bstar.eval(z) + 0.05

        chk = check_holo_expansive(Shifted(), Annulus(0.99, 1.01))
        assert chk.verdict == "none"
        assert chk.margin <= 0

    def test_orientation_matches_verdict(self, bstar, anti_bstar, squaring):
        for m in (bstar, anti_bstar, squaring):
            for t in (0.1, 0.15, 0.2):
                chk = check_holo_expansive(m, Annulus(np.exp(-t), np.exp(t)))
                if chk.verdict == "none":
                    continue
                assert chk.verdict == ("A1" if m.degree > 0 else "A2")


WIDTHS = np.geomspace(0.01, 0.5, 24)


def _search_maps(bstar, anti_bstar):
    return (bstar, anti_bstar, TrigLift(2, (0.1,)), MobiusFamilyMap(0.7))


class TestContractionRatio:
    def test_ratio_below_one_iff_verdict(self, bstar, anti_bstar):
        class Shifted:
            def eval(self, z):
                return bstar.eval(z) + 0.05

        maps = _search_maps(bstar, anti_bstar) + (Shifted(), iterate(bstar, 6))
        seen = set()
        for m in maps:
            for t in list(WIDTHS) + [0.8, 1.2]:
                chk = check_holo_expansive(m, Annulus(np.exp(-t), np.exp(t)))
                assert (chk.ratio < 1) == (chk.verdict != "none")
                seen.add(chk.verdict)
        assert seen == {"A1", "A2", "none"}

    def test_squaring_ratio(self, squaring, annulus):
        # max(0.64/0.8, 1.25/1.5625) = 0.8
        assert check_holo_expansive(squaring, annulus).ratio == pytest.approx(0.8, abs=1e-12)

    def test_search_returns_argmin_ratio(self, bstar, anti_bstar):
        for m in _search_maps(bstar, anti_bstar):
            best = None
            for t in WIDTHS:
                ann = Annulus(np.exp(-t), np.exp(t))
                try:
                    q = check_holo_expansive(m, ann).ratio
                except ValueError:
                    continue
                if q < 1 and (best is None or q < best[0]):
                    best = (q, ann)
            assert find_expansive_annulus(m) == best[1]

    def test_search_raises_no_runtime_warning(self, bstar, anti_bstar):
        for m in _search_maps(bstar, anti_bstar):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                find_expansive_annulus(m)


class TestFixedPoint:
    def test_bstar(self, bstar):
        z0, mu = fixed_point_disk(bstar)
        assert abs(z0) < 1e-13
        assert mu == pytest.approx(-0.5, abs=1e-12)

    def test_power_map(self, squaring):
        z0, mu = fixed_point_disk(squaring)
        assert abs(z0) < 1e-13 and abs(mu) < 1e-13

    def test_mobius_w1(self):
        z0, mu = fixed_point_disk(MobiusFamilyMap(1.0))
        assert abs(z0) < 1e-12
        assert mu == pytest.approx(-0.5, abs=1e-12)

    def test_off_center_fixed_point(self):
        m = BlaschkeProduct(1.0, (0.2 + 0.1j, -0.3, 0.15))
        z0, mu = fixed_point_disk(m)
        assert abs(m.eval(z0) - z0) < 1e-12
        assert abs(z0) < 1 and abs(mu) < 1

    @pytest.mark.parametrize(
        "a, b",
        [(2.0, 0.5), (1.0, 0.5), (1.0, 1e-7), (0.5, 1.0)],
        # the orbit overflows; it never settles; it settles at once but has no
        # fixed point (Newton divides by tau' - 1 = 0); it converges to z = 2
        ids=["escapes", "no-convergence", "newton-denominator-zero", "outside-the-disk"],
    )
    def test_failures_raise_runtime_error(self, a, b):
        class Affine(_MapBase):  # z -> a z + b
            degree = 1

            def _eval(self, z):
                return a * z + b

            def _deriv(self, z):
                return np.full_like(z, a)

        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="no attracting"):
            fixed_point_disk(Affine())

    def test_newton_exhaustion_raises_runtime_error(self):
        # z -> z + 1e-11 with tau' = 1.001: the orbit settles at once, and each
        # of the 60 Newton steps leaves the residual at 1e-11, above 1e-13
        class Drift(_MapBase):
            degree = 1

            def _eval(self, z):
                return z + 1e-11

            def _deriv(self, z):
                return np.full_like(z, 1.001)

        with pytest.raises(RuntimeError, match="no attracting interior fixed point located"):
            fixed_point_disk(Drift())

    def test_limit_near_the_circle_is_refused(self):
        z0 = (1 - 1e-12) * np.exp(0.3j)

        class Contraction(_MapBase):  # z -> z0 + (z - z0)/2, onto z0 just inside the circle
            degree = 1

            def _eval(self, z):
                return z0 + (z - z0) / 2

            def _deriv(self, z):
                return np.full_like(z, 0.5)

        with pytest.raises(RuntimeError, match="within 1e-6 of the unit circle"):
            fixed_point_disk(Contraction())

    @pytest.mark.parametrize("index", [3, 25])
    def test_panel_orbit_to_the_circle_is_refused(self, index):
        # second iterates of two non-expanding anti maps of the seeded panel,
        # whose orbits from 0 tend to the unit circle: an earlier Newton limit
        # fell 1.6e-15 and 1.1e-16 inside it and was accepted
        with pytest.raises(RuntimeError, match="within 1e-6 of the unit circle"):
            second_iterate_multiplier(seeded_products(40)[index])

    def test_pole_at_start_raises_runtime_error(self, anti_bstar):
        # anti-B* = 1/(z (2z - 1)/(2 - z)) has its pole at 0, the first iterate
        with pytest.raises(RuntimeError, match="no attracting interior fixed point") as info:
            fixed_point_disk(anti_bstar)
        assert isinstance(info.value.__cause__, ValueError)


class TestSecondIterateMultiplier:
    def test_anti_bstar(self, anti_bstar):
        assert second_iterate_multiplier(anti_bstar) == pytest.approx(0.5, abs=1e-12)

    def test_product_of_moduli(self):
        m = BlaschkeProduct(1.0, (0.0, 0.3, -0.4), anti=True)
        assert second_iterate_multiplier(m) == pytest.approx(0.12, abs=1e-12)

    def test_superattracting(self):
        m = BlaschkeProduct(1.0, (0.0, 0.0, 0.0), anti=True)
        assert second_iterate_multiplier(m) == pytest.approx(0.0, abs=1e-13)

    def test_requires_anti(self, bstar):
        with pytest.raises(ValueError, match="anti"):
            second_iterate_multiplier(bstar)


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


# two expanding products of the seeded panel, a plain one with its fixed point
# off 0 and an anti one, whose multipliers missed the array value by an ulp
# while 0-d calls took numpy's scalar products
_PANEL = seeded_products(13)
SEEDED_PLAIN, SEEDED_ANTI = _PANEL[12], _PANEL[2]


class TestMultiplierIsTheArrayValue:
    """The closed forms' multiplier is tau' at the fixed point as an array
    route evaluates it there, bit for bit."""

    @pytest.mark.parametrize(
        "m",
        [BlaschkeProduct(1.0, (0.0, 0.5)), MobiusFamilyMap(0.7), SEEDED_PLAIN],
        ids=["bstar", "mobius-0.7", "seeded-product"],
    )
    def test_fixed_point_multiplier(self, m):
        z0, mu = fixed_point_disk(m)
        assert np.array_equal(_bits(mu), _bits(m.deriv(np.array([z0]))[0]))

    @pytest.mark.parametrize(
        "m",
        [BlaschkeProduct(1.0, (0.0, 0.5), anti=True), FLOOR_STAR, SEEDED_ANTI],
        ids=["anti-bstar", "floor-star", "seeded-anti"],
    )
    def test_second_iterate_multiplier(self, m):
        base = BlaschkeProduct(m.alpha, m.zeros)
        z0, _ = fixed_point_disk(ComposedMap((base, base.conjugate_params())))
        assert second_iterate_multiplier(m) == abs(base.deriv(np.array([z0]))[0])


class TestIterate:
    def test_power_map_composition(self, squaring):
        it = iterate(squaring, 3)
        z = 0.7 * np.exp(0.4j)
        assert it.eval(z) == pytest.approx(z**8, abs=1e-12)

    def test_degree_multiplies(self, bstar):
        assert winding_degree(iterate(bstar, 2)) == 4
        assert iterate(bstar, 5).degree == 32

    def test_multiplier_powers(self, bstar):
        _, mu = fixed_point_disk(iterate(bstar, 2))
        assert mu == pytest.approx(0.25, abs=1e-12)

    def test_rejects_zero(self, bstar):
        with pytest.raises(ValueError, match="power must be >= 1, got n=0"):
            iterate(bstar, 0)


def _annulus_points(r, R, n, seed):
    # n points spread over r < |z| < R, off every lattice of roots of unity
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(r * r, R * R, n)) * np.exp(2j * np.pi * rng.uniform(size=n))


@pytest.fixture(scope="module")
def bstar_to_trig():
    return build_homotopy(BlaschkeProduct(1.0, (0.0, 0.5)), TrigLift(2, (0.1,)))


class TestLengthIndependence:
    """A value's bits depend only on its point: one call on 2^17 points, where
    numpy elides temporaries, gives the bits of 1024-value pieces, and one call
    on 2^15 points gives each point the bits of a 0-d call and of a one-value
    array."""

    MAPS = {
        "bstar": BlaschkeProduct(1.0, (0.0, 0.5)),
        "anti-bstar": BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
        "complex-blaschke": BlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.3j, 0.4)),
        "trig-cos-sin": TrigLift(2, (0.1,), (0.07,)),
        "trig-two-harmonics": TrigLift(3, (0.1, 0.05), (0.02, -0.03)),
        "mobius": MobiusFamilyMap(0.5 + 0.26j),
        "iterate-bstar-3": iterate(BlaschkeProduct(1.0, (0.0, 0.5)), 3),
    }

    @staticmethod
    def _assert_pieces_match(m, z):
        for f in (m.eval, m.deriv):
            pieces = np.concatenate([f(z[i : i + 1024]) for i in range(0, z.size, 1024)])
            assert f(z).tobytes() == pieces.tobytes()

    @pytest.mark.parametrize("name", MAPS)
    def test_map(self, name):
        self._assert_pieces_match(self.MAPS[name], _annulus_points(0.8, 1.25, 1 << 17, 3))

    def test_homotopy_member(self, bstar_to_trig):
        fam = bstar_to_trig
        z = _annulus_points(fam.r0, fam.R0, 1 << 17, 4)
        self._assert_pieces_match(fam.member(0.5 + 0.5j * fam.eta), z)

    def test_cosine_lift_is_the_trig_lift(self):
        # the test-only complex-amplitude lift, at a real amplitude, takes the
        # library's evaluation and derivative bit for bit
        z = _annulus_points(0.8, 1.25, 1 << 15, 10)
        cosine, trig = CosineLift(0.1), TrigLift(2, (0.1,))
        for method in ("eval", "deriv"):
            assert getattr(cosine, method)(z).tobytes() == getattr(trig, method)(z).tobytes()

    @staticmethod
    def _assert_points_match(f, z, points=400):
        # the first points of z, each alone, against one call on all of z
        whole = f(z)
        zero_d = [f(complex(p)) for p in z[:points]]
        one_value = np.concatenate([f(z[i : i + 1]) for i in range(points)])
        assert np.array_equal(_bits(zero_d), _bits(whole[:points]))
        assert np.array_equal(_bits(one_value), _bits(whole[:points]))

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("method", ["eval", "deriv"])
    def test_point_gets_the_array_bits(self, name, method):
        z = _annulus_points(0.8, 1.25, 1 << 15, 6)
        self._assert_points_match(getattr(self.MAPS[name], method), z)

    @pytest.mark.parametrize("method", ["eval", "deriv"])
    def test_member_point_gets_the_array_bits(self, bstar_to_trig, method):
        fam = bstar_to_trig
        member = fam.member(0.5 + 0.5j * fam.eta)
        z = _annulus_points(fam.r0, fam.R0, 1 << 15, 7)
        self._assert_points_match(getattr(member, method), z)

    @pytest.mark.parametrize(
        "m", [TrigLift(2, (0.1,)), BlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.3j, 0.4), anti=True),
              MobiusFamilyMap(0.5 + 0.26j)],
        ids=["triglift", "anti-three-zero", "mobius"],
    )
    @pytest.mark.parametrize("method", ["eval", "deriv"])
    def test_lift_point_gets_the_array_bits(self, m, method):
        L = lift(m)
        rng = np.random.default_rng(8)
        height = 0.9 * min(L.strip, 0.5)
        theta = rng.uniform(0, 2 * np.pi, 1 << 15) + 1j * rng.uniform(-1, 1, 1 << 15) * height
        self._assert_points_match(getattr(L, method), theta)

    @pytest.mark.parametrize("part", [0, 1], ids=["value", "slope"])
    def test_laurent_point_gets_the_array_bits(self, part):
        pos, neg = np.array([0.3 + 0.1j, -0.2j, 0.05, 0.01 - 0.02j]), np.array([0.1, 0.02 - 0.01j])
        self._assert_points_match(lambda z: laurent(pos, neg, z)[part], _annulus_points(0.8, 1.25, 1 << 15, 9))

    @pytest.mark.parametrize("n", [1 << 15, 1], ids=["block", "one-value"])
    def test_mobius_step_in_place(self, n):
        # the step of julia.render, T(w, z) over z itself from caller buffers,
        # down to a block's last pixel: numpy takes its scalar loop for a
        # product written over one of its own operands of length 1
        m, points = MobiusFamilyMap(0.5 + 0.26j), _annulus_points(0.5, 2.0, 1 << 15, 5)
        expected = m.eval(points)
        for i in range(0, min(points.size, 64 * n), n):
            z = points[i : i + n].copy()
            a, b = np.empty((2, n), dtype=complex)
            assert m.step(z, a, b, out=z) is z
            assert z.tobytes() == expected[i : i + n].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=0.7, allow_nan=False), min_size=2, max_size=4),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.floats(min_value=0.6, max_value=1.6),
)
def test_blaschke_reflection(zeros, angle, mod):
    # B_a(1/z) = 1 / B_conj(a)(z) away from zeros/poles
    b = BlaschkeProduct(1.0, zeros)
    z = mod * np.exp(1j * angle)
    rhs = b.conjugate_params().eval(z)
    if abs(rhs) > 1e-6:
        # 1/z is a pole of b exactly where rhs vanishes, so evaluate it here
        lhs = b.eval(1.0 / z)
        assert lhs == pytest.approx(1.0 / rhs, rel=1e-10, abs=1e-12)


def test_point_evaluation_bound():
    # |f(z)| <= r / sqrt(r^2 - |z|^2) * ||f|| with ||f||^2 = sum |f_n|^2 r^(2n)
    rng = np.random.default_rng(5)
    r = 0.9
    for _ in range(50):
        deg = rng.integers(1, 21)
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        z = r * np.sqrt(rng.uniform(0, 0.98)) * np.exp(2j * np.pi * rng.uniform())
        fval = sum(c * z**n for n, c in enumerate(coeffs))
        norm = np.sqrt(sum(abs(c) ** 2 * r ** (2 * n) for n, c in enumerate(coeffs)))
        bound = r / np.sqrt(r**2 - abs(z) ** 2) * norm
        assert abs(fval) <= bound * (1 + 1e-12)


class TestValidation:
    def test_unimodular_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            BlaschkeProduct(1.1, (0.0, 0.5))

    def test_zeros_inside_disk(self):
        with pytest.raises(ValueError, match="unit disk"):
            BlaschkeProduct(1.0, (0.0, 1.2))

    def test_degree_floor(self):
        with pytest.raises(ValueError, match="degree"):
            BlaschkeProduct(1.0, (0.3,))
        with pytest.raises(ValueError, match="d"):
            TrigLift(1)

    def test_annulus_ordering(self):
        with pytest.raises(ValueError):
            Annulus(1.2, 0.8)
        with pytest.raises(ValueError):
            Annulus(-0.1, 1.5)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda b: BlaschkeProduct(1, (0, 0.5), anti=True).deriv(0), "anti-Blaschke pole"),
            (lambda b: ComposedMap(()), "empty composition"),
            (lambda b: to_descriptor(iterate(b, 2)), "no descriptor for map of type ComposedMap"),
        ],
        ids=["anti-pole-deriv", "empty-composition", "composed-descriptor"],
    )
    def test_rejects_invalid_arguments(self, bstar, call, message):
        with pytest.raises(ValueError, match=message):
            call(bstar)


def test_descriptor_round_trip(bstar, anti_bstar):
    for m in (bstar, anti_bstar, TrigLift(3, (0.1,), (0.2,)), MobiusFamilyMap(0.5 + 0.26j)):
        m2 = from_descriptor(to_descriptor(m))
        z = 1.02 * np.exp(0.7j)
        assert m2.eval(z) == pytest.approx(m.eval(z), abs=1e-14)
    with pytest.raises(ValueError, match="descriptor"):
        from_descriptor({"type": "nope"})
