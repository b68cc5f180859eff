import cmath
import math
import warnings

import numpy as np
import pytest

from helpers import lift_deriv_ref, lift_eval_ref, member_deriv_ref, member_eval_ref
from ruelle.lifts import build_homotopy, find_expansive_annulus, lift
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    MobiusFamilyMap,
    TrigLift,
    check_holo_expansive,
    iterate,
    min_expansion,
)
from ruelle.numerics import circle_nodes

THETA = 2 * np.pi * np.arange(512) / 512


class TestLift:
    def test_power_map_is_linear(self):
        L = lift(TrigLift(3))
        assert L.d == 3
        assert L.shift == 0
        assert np.array_equal(L.eval(THETA), 3 * THETA.astype(complex))

    def test_bstar_degree_increment(self, bstar):
        L = lift(bstar)
        assert L.d == 2
        inc = L.eval(2 * np.pi) - L.eval(0.0)
        assert inc == pytest.approx(4 * np.pi, abs=1e-12)

    def test_roundtrip_on_circle(self, bstar, anti_bstar):
        for m in (bstar, anti_bstar, TrigLift(2, (0.1,), (0.05,)), MobiusFamilyMap(0.7)):
            L = lift(m)
            err = np.abs(np.exp(1j * L.eval(THETA)) - m.eval(np.exp(1j * THETA))).max()
            assert err < 1e-14

    def test_triglift_recovery(self):
        # p(theta) = 0.1 sin(theta): lift 2 theta + p, lift' 2 + 0.1 cos(theta)
        L = lift(TrigLift(2, sin_coeffs=(0.1,)))
        assert np.abs(L.eval(THETA) - (2 * THETA + 0.1 * np.sin(THETA))).max() < 1e-15
        assert np.abs(L.deriv(THETA) - (2 + 0.1 * np.cos(THETA))).max() < 1e-15

    @pytest.mark.parametrize(
        "m, strip",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), math.log(2)),
            (BlaschkeProduct(1.0, (0.0, 0.9), anti=True), -math.log(0.9)),
            (BlaschkeProduct(1.0, (0.0, 0.0)), math.inf),
            (MobiusFamilyMap(0.7), -math.log(0.35)),
            (MobiusFamilyMap(0.0), math.inf),
            (TrigLift(2, (0.4,)), math.inf),
        ],
        ids=["bstar", "anti-zero-0.9", "squaring", "mobius-0.7", "mobius-0", "triglift"],
    )
    def test_analytic_strip(self, m, strip):
        # the exponent is analytic on max|a| < |z| < 1/max|a| (|w|/2 for Mobius);
        # the map states that strip, and its lift takes it
        assert m.strip == strip
        assert lift(m).strip == strip

    def test_branch_is_the_principal_argument_at_one(self):
        # Q(1) = i arg tau(1): the products' log1p sums and a TrigLift with
        # p(0) = 3.5 > pi start off it by one turn
        rng = np.random.default_rng(36)
        turns = set()
        for _ in range(20):
            zeros = 0.6 * np.sqrt(rng.uniform(size=3)) * np.exp(2j * np.pi * rng.uniform(size=3))
            m = BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))
            L = lift(m)
            turns.add(round(L.shift.imag / (2 * math.pi)))
            assert L.exponent(np.ones(1, complex))[0][0] == pytest.approx(
                1j * cmath.phase(m.eval(1.0)), abs=1e-15
            )
        assert turns == {-1, 0, 1}
        L = lift(TrigLift(2, (3.5,)))
        assert L.shift == -2j * math.pi
        assert L.eval(0.0) == pytest.approx(3.5 - 2 * math.pi, abs=1e-15)

    @pytest.mark.parametrize(
        "m, message",
        [
            (iterate(BlaschkeProduct(1.0, (0.0, 0.5)), 2),
             "no closed-form lift for a map of class ComposedMap"),
            (type("UserMap", (), {"degree": 2})(),
             "no closed-form lift for a map of class UserMap"),
            (MobiusFamilyMap(3.0), "MobiusFamilyMap: exponent analytic on no annulus"),
        ],
        ids=["composed", "user-class", "mobius-3"],
    )
    def test_refused_maps(self, m, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            lift(m)


class TestLiftEval:
    def test_linear_point(self):
        L = lift(TrigLift(2))
        assert L.eval(np.pi / 2) == pytest.approx(np.pi, abs=1e-14)

    def test_bstar_at_zero(self, bstar):
        # B*(1) = 1 so arg tau(1) = 0 and lift(0) = 0
        L = lift(bstar)
        assert abs(L.eval(0.0)) < 1e-15

    def test_imaginary_argument(self):
        L = lift(TrigLift(2))
        assert L.eval(0.05j) == pytest.approx(0.1j, abs=1e-14)

    def test_strip_guard(self, bstar):
        L = lift(bstar)
        for theta in (1.0 + 1j * L.strip, 1.0 - 1j * L.strip):
            with pytest.raises(ValueError, match="outside the lift's analytic strip"):
                L.eval(theta)


class TestLiftOracle:
    """The closed-form lift against the logarithm of the map's own values,
    continued by unwrapping (helpers), on the rows Im theta = 0 and +-0.9
    strip (+-0.5 for an infinite strip)."""

    @pytest.fixture(
        scope="class",
        params=[
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.2, 0.3j, -0.4)),
            BlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.3j, 0.4), anti=True),
            BlaschkeProduct(1.0, (0.0, 0.99)),
            MobiusFamilyMap(0.7 + 0.05j),
            TrigLift(-3, (0.1, 0.05), (0.02,)),
        ],
        ids=["bstar", "three-zero", "anti-three-zero", "zero-0.99", "mobius-complex", "triglift-neg"],
    )
    def tau(self, request):
        return request.param

    @pytest.mark.parametrize("row", [0.0, 0.9, -0.9])
    def test_eval_and_deriv(self, tau, row):
        L = lift(tau)
        height = row * min(L.strip, 0.5 / 0.9)
        theta = THETA + 1j * height
        np.testing.assert_allclose(L.eval(theta), lift_eval_ref(tau, height, 512), rtol=0, atol=1e-13)
        np.testing.assert_allclose(L.deriv(theta), lift_deriv_ref(tau, height, 512), rtol=1e-13)


class TestBuildHomotopy:
    def test_squaring_to_bstar(self, squaring, bstar):
        fam = build_homotopy(squaring, bstar)
        assert fam.d == 2
        assert fam.eta > 0
        assert fam.margin_inner > 0 and fam.margin_outer > 0
        assert fam.r1 < fam.r0 < 1 < fam.R0 < fam.R1

    def test_degree_mismatch(self, squaring):
        with pytest.raises(ValueError, match="2 vs 3"):
            build_homotopy(squaring, TrigLift(3))

    def test_maps_too_wild(self, bstar):
        # zeros at 0.95 and -0.9: no strip down to 1e-4 certifies the family
        with pytest.raises(RuntimeError, match="^maps too wild for certified homotopy"):
            build_homotopy(bstar, BlaschkeProduct(1.0, (0.95, -0.9)))

    def test_margins_too_thin(self):
        # the lift derivatives pass at every strip width, but the boundary
        # inclusions do not: eps is halved 12 times on a margin failure
        with pytest.raises(RuntimeError, match="^maps too wild for certified homotopy"):
            build_homotopy(MobiusFamilyMap(0.7 + 0.3j), MobiusFamilyMap(0.7))

    @pytest.mark.parametrize(
        "pair, start",
        [
            ((BlaschkeProduct(1.0, (0.0, 0.5)), TrigLift(2, (0.1,))), math.log(2) / 2),
            ((BlaschkeProduct(1.0, (0.0, 0.5)), MobiusFamilyMap(0.7)), math.log(2) / 2),
            ((BlaschkeProduct(1.0, (0.0, 0.5)), BlaschkeProduct(1.0, (0.0, 0.97))),
             0.015229603742354287),
            ((TrigLift(-2), BlaschkeProduct(1.0, (0.0, 0.5), anti=True)), math.log(2) / 2),
        ],
        ids=["bstar-to-triglift", "bstar-to-mobius", "bstar-to-near-circle-zero",
             "reversing"],
    )
    def test_strip_starts_from_the_two_maps(self, pair, start):
        # eps = min(strip0 / 2, strip1 / 2, 0.35), certified without a halving
        fam = build_homotopy(*pair)
        assert fam.epsilon == min(lift(pair[0]).strip / 2, lift(pair[1]).strip / 2, 0.35)
        assert fam.epsilon == pytest.approx(start, rel=1e-15)
        assert 0 < fam.eta <= 1

    def test_constant_family(self, squaring):
        fam = build_homotopy(squaring, TrigLift(2))
        z = 0.9
        for w in (0.0, 0.3, 1.0):
            assert fam.member(w).eval(z) == pytest.approx(0.81, abs=1e-12)

    def test_reversing_pair(self, anti_bstar):
        inv2 = BlaschkeProduct(1.0, (0.0, 0.0), anti=True)
        fam = build_homotopy(inv2, anti_bstar)
        assert fam.d == -2
        assert fam.margin_inner > 0 and fam.margin_outer > 0


PAIRS = pytest.mark.parametrize(
    "pair",
    [
        (BlaschkeProduct(1.0, (0.0, 0.5)), TrigLift(2, (0.1,))),
        (BlaschkeProduct(1.0, (0.0, 0.0), anti=True), BlaschkeProduct(1.0, (0.0, 0.5), anti=True)),
    ],
    ids=["bstar-to-triglift", "reversing"],
)


@PAIRS
def test_members_match_log_oracle(pair):
    # z^d exp((1-w) Q_0 + w Q_1) against the exponents continued from the
    # endpoint maps' own eval (helpers), on the certified circles and |z| = 1
    fam = build_homotopy(*pair)
    for rho in (fam.r0, 1.0, fam.R0):
        z = rho * np.exp(1j * THETA)
        for w in (0.0, 0.5, 1.0, 0.3 + 0.5j * fam.eta):
            member = fam.member(w)
            np.testing.assert_allclose(member.eval(z), member_eval_ref(pair, w, rho, 512), rtol=1e-13)
            np.testing.assert_allclose(member.deriv(z), member_deriv_ref(pair, w, rho, 512), rtol=1e-13)


@PAIRS
def test_endpoint_members_are_the_maps(pair):
    # member(0) and member(1) are the endpoint maps to roundoff, on the
    # certified annulus too, from their closed-form exponents
    fam = build_homotopy(*pair)
    z = np.concatenate([rho * np.exp(1j * THETA) for rho in (fam.r0, 1.0, fam.R0)])
    for w, m in zip((0.0, 1.0), pair):
        for f, g in ((fam.member(w).eval, m.eval), (fam.member(w).deriv, m.deriv)):
            assert np.max(np.abs(f(z) - g(z)) / np.abs(g(z))) <= 1e-14


@PAIRS
def test_margins_match_the_branching_loop(pair):
    # margin_inner is read on |z| = r0 (the row Im theta = +eps) and
    # margin_outer on |z| = R0, whichever way the degree's sign maps each:
    # recomputed with a branch on that sign for every w
    fam = build_homotopy(*pair)
    ws = [complex(u) for u in np.linspace(0, 1, 11)]
    ws += [
        u + fam.eta * cmath.exp(1j * phi)
        for u in (0.0, 0.5, 1.0)
        for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False)
    ]
    b = 2 * np.pi * np.arange(4096) / 4096
    inner = [lf.eval(b + 1j * fam.epsilon) for lf in (fam.lift0, fam.lift1)]
    outer = [lf.eval(b - 1j * fam.epsilon) for lf in (fam.lift0, fam.lift1)]
    margin_inner = margin_outer = math.inf
    for w in ws:
        mod_in = np.exp(-((1 - w) * inner[0] + w * inner[1]).imag)
        mod_out = np.exp(-((1 - w) * outer[0] + w * outer[1]).imag)
        if fam.d > 0:
            margin_inner = min(margin_inner, fam.r1 - float(mod_in.max()))
            margin_outer = min(margin_outer, float(mod_out.min()) - fam.R1)
        else:
            margin_inner = min(margin_inner, float(mod_in.min()) - fam.R1)
            margin_outer = min(margin_outer, fam.r1 - float(mod_out.max()))
    assert (fam.margin_inner, fam.margin_outer) == (margin_inner, margin_outer)


def test_slopes_stay_finite_near_the_strip_edges():
    # eval forms Q' too, whose poles lie on the edges of the strip: members
    # close to both edges, and TrigLifts far from the unit circle, evaluate
    # and differentiate to finite values without a RuntimeWarning
    bstar, anti_bstar = BlaschkeProduct(1.0, (0.0, 0.5)), BlaschkeProduct(1.0, (0.0, 0.5), anti=True)
    cases = []
    for pair in ((bstar, TrigLift(2, (0.1,))),
                 (BlaschkeProduct(1.0, (0.0, 0.0), anti=True), anti_bstar),
                 (MobiusFamilyMap(0.7 + 0.05j), bstar)):
        fam = build_homotopy(*pair)
        for w in (0.0, 0.5, 1.0, 0.5 + 0.5j * fam.eta):
            member = fam.member(w)
            cases.append((member, [math.exp(sgn * 0.999 * member.strip) for sgn in (-1, 1)]))
    cases += [(TrigLift(2, (0.1,)), [0.1, 10.0]), (TrigLift(2, (0.1, 0.05, 0.02)), [0.1, 10.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for m, radii in cases:
            for rho in radii:
                z = circle_nodes(rho, 2048)
                assert np.all(np.isfinite(m.eval(z))) and np.all(np.isfinite(m.deriv(z)))


@pytest.fixture(scope="module")
def family(squaring, bstar):
    return build_homotopy(squaring, bstar)


class TestHomotopyMembers:
    def test_endpoints(self, family, squaring, bstar):
        zs = np.exp(1j * THETA)
        assert np.abs(family.member(0.0).eval(zs) - squaring.eval(zs)).max() < 1e-10
        assert np.abs(family.member(1.0).eval(zs) - bstar.eval(zs)).max() < 1e-10

    def test_single_valued_across_branch_cut(self, family):
        m = family.member(0.3 + 0.01j)
        # points straddling the negative real axis, where the principal log jumps
        near = -1.0 + 1e-9j
        far = -1.0 - 1e-9j
        assert m.eval(near) == pytest.approx(m.eval(far), abs=1e-6)
        zs = np.exp(1j * np.array([np.pi - 1e-12, -np.pi + 1e-12]))
        vals = m.eval(zs)
        assert vals[0] == pytest.approx(vals[1], abs=1e-9)

    def test_real_parameters_preserve_circle(self, family):
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        for w in np.linspace(0, 1, 11):
            member = family.member(w)
            assert np.abs(np.abs(member.eval(zs)) - 1).max() < 1e-10
            assert min_expansion(member) > 1

    def test_complex_parameters_stay_expansive(self, family):
        rng = np.random.default_rng(20)
        ann = family.annulus()
        for _ in range(20):
            w = rng.uniform(0, 1) + 1j * rng.uniform(0.2, 1.0) * family.eta
            member = family.member(w)
            chk = check_holo_expansive(member, ann)
            assert chk.verdict == ("A1" if family.d > 0 else "A2")

    def test_strip_is_the_narrower_endpoint_strip(self, family):
        # squaring (strip inf) to B* (log 2): the members' exponents are analytic
        # where both endpoints' are, beyond the certified epsilon
        strip = min(family.lift0.strip, family.lift1.strip)
        assert family.member(0.3).strip == lift(family.member(0.3)).strip == strip == math.log(2)
        assert family.epsilon < strip

    def test_membership_guard(self, family):
        with pytest.raises(ValueError, match="neighbourhood"):
            family.member(0.5 + 3j * family.eta)

    @pytest.mark.parametrize("w", [math.nan, complex(0.5, math.nan), math.inf],
                             ids=["nan", "nan-imag", "inf"])
    def test_membership_guard_refuses_non_finite(self, family, w):
        # a NaN parameter once passed the guard and evaluated to nan+nanj
        with pytest.raises(ValueError, match="outside the certified neighbourhood"):
            family.member(w)

    def test_domain_guard(self, family):
        # evaluated off the certified annulus up to B*'s 0.5 < |z| < 2, refused
        # on its edge and beyond, and at 0, where squaring's exponent is not
        # defined either
        member = family.member(0.5)
        assert family.R0 < 1.9 and np.all(np.isfinite(member.eval(np.array([0.51, 1.9]))))
        for z in (2.0, 0.5, 1.5 * family.R0, 3.0j):
            with pytest.raises(ValueError, match=r"annulus 0\.5 < \|z\| < 2$"):
                member.eval(z)
        with pytest.raises(ValueError, match=r"annulus 0 < \|z\| < inf$"):
            member.eval(0.0)

    def test_member_drives_operator_pipeline(self, family):
        from ruelle.spectra import converged_spectrum

        member = family.member(1.0)
        spec = converged_spectrum(member, family.annulus(), tol=1e-8, want=5)
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert abs(spec.eigenvalues[1]) == pytest.approx(0.5, abs=1e-7)


def test_mobius_family_preserves_circle_exactly():
    # |2z - w| = |2 - wz| on |z| = 1 for real w
    zs = np.exp(1j * THETA)
    for w in np.linspace(0, 1, 11):
        vals = np.abs(MobiusFamilyMap(w).eval(zs))
        assert np.abs(vals - 1).max() < 1e-12


def test_find_expansive_annulus_without_candidate():
    # T(3, .) has its pole 2/3 inside the unit disk and its zero 3/2 outside, so it
    # winds the unit circle zero times: no annulus maps one circle in, the other out
    with pytest.raises(RuntimeError, match="no annulus in the search range certifies"):
        find_expansive_annulus(MobiusFamilyMap(3.0))


def test_find_expansive_annulus(bstar, anti_bstar):
    for m in (bstar, anti_bstar):
        ann = find_expansive_annulus(m)
        chk = check_holo_expansive(m, ann)
        assert chk.verdict == ("A1" if m.degree > 0 else "A2")
        assert chk.margin > 0


def test_find_expansive_annulus_skips_refused_annuli(bstar):
    # member 0.5 of B* -> the product with zeros 0 and 0.97, whose exponent is
    # analytic on 0.97 < |z| < 1/0.97 only (strip 0.0305): the search's wider
    # annuli are refused, and it returns one inside that strip, outside the
    # certified epsilon 0.0152
    fam = build_homotopy(bstar, BlaschkeProduct(1.0, (0.0, 0.97)))
    member = fam.member(0.5)
    with pytest.raises(ValueError, match="outside the lift's analytic strip"):
        check_holo_expansive(member, Annulus(math.exp(-0.5), math.exp(0.5)))
    ann = find_expansive_annulus(member)
    assert fam.epsilon < -math.log(ann.r) and math.log(ann.R) < member.strip == -math.log(0.97)
    assert check_holo_expansive(member, ann).verdict == "A1"


@pytest.mark.parametrize("error", [OverflowError, FloatingPointError])
def test_find_expansive_annulus_passes_other_errors_on(bstar, monkeypatch, error):
    # only a refusal (ValueError) skips a width; any other error is a fault
    def check(m, ann):
        raise error("check failed")

    monkeypatch.setattr("ruelle.lifts.check_holo_expansive", check)
    with pytest.raises(error, match="check failed"):
        find_expansive_annulus(bstar)


def test_member_lift_is_the_family_exponent(bstar):
    # member 0.5 of B* -> TrigLift(2, (0.1,)) lifts on the narrower endpoint
    # strip, B*'s log 2, beyond the certified epsilon, with Q_w = (1-w) Q_0 + w Q_1
    fam = build_homotopy(bstar, TrigLift(2, (0.1,)))
    L = lift(fam.member(0.5))
    assert L.d == 2 and L.strip == math.log(2) > fam.epsilon and L.shift == 0
    for rho in (1.0, 0.6, 1 / 0.6):
        z = rho * np.exp(1j * THETA)
        want = 0.5 * fam.lift0.exponent(z)[0] + 0.5 * fam.lift1.exponent(z)[0]
        np.testing.assert_allclose(L.exponent(z)[0], want, rtol=0, atol=1e-15)
    assert np.all(np.isfinite(L.eval(THETA + 1j * fam.epsilon)))
    for row in (THETA + 1j * math.log(2), THETA - 1j * math.log(2)):
        with pytest.raises(ValueError, match="outside the lift's analytic strip"):
            L.eval(row)
