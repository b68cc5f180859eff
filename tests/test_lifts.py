import cmath
import math

import numpy as np
import pytest

from helpers import lift_deriv_phases, lift_eval_phases, member_deriv_log, member_eval_log
from ruelle import lifts
from ruelle.lifts import build_homotopy, find_expansive_annulus, lift
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    MobiusFamilyMap,
    TrigLift,
    check_holo_expansive,
    min_expansion,
)

THETA = 2 * np.pi * np.arange(512) / 512


class NonAnalytic:
    """z^2 on the unit circle, 2 z^2 off it: no strip's roundtrip holds."""

    def eval(self, z):
        return np.where(np.abs(np.abs(z) - 1) < 1e-9, z**2, 2 * z**2)

    def deriv(self, z):
        return 2 * z


class Fractional:
    """z^2.5 on the principal branch: the log-derivative is 2.5, no degree."""

    def eval(self, z):
        return z**2.5

    def deriv(self, z):
        return 2.5 * z**1.5


class TestLift:
    def test_power_map_is_linear(self):
        L = lift(TrigLift(3))
        assert L.d == 3
        assert L.alpha == 0.0
        assert len(L.ns) == 0

    def test_bstar_degree_increment(self, bstar):
        L = lift(bstar)
        assert L.d == 2
        inc = L.eval(2 * np.pi) - L.eval(0.0)
        assert inc == pytest.approx(4 * np.pi, abs=1e-12)

    def test_roundtrip_on_circle(self, bstar, anti_bstar):
        for m in (bstar, anti_bstar, TrigLift(2, (0.1,), (0.05,))):
            L = lift(m)
            err = np.abs(np.exp(1j * L.eval(THETA)) - m.eval(np.exp(1j * THETA))).max()
            assert err < 1e-10

    def test_triglift_recovery(self):
        # p(theta) = 0.1 sin(theta): derivative 0.1 cos(theta) has
        # coefficients 0.05 at n = +-1
        m = TrigLift(2, sin_coeffs=(0.1,))
        L = lift(m)
        got = dict(zip(L.ns.tolist(), L.gs.tolist()))
        assert got[1] == pytest.approx(0.05, abs=1e-12)
        assert got[-1] == pytest.approx(0.05, abs=1e-12)
        vals = L.eval(THETA)
        want = 2 * THETA + 0.1 * np.sin(THETA)
        assert np.abs(vals - want).max() < 1e-10

    def test_degenerate_degree_rejected(self):
        class Rotation:
            def eval(self, z):
                return 1j * z

            def deriv(self, z):
                return np.full_like(z, 1j)

        with pytest.raises(ValueError, match="degree"):
            lift(Rotation())

    def test_strip_halved_until_certified(self):
        # the decay fit proposes 0.0474 for a zero at 0.9; the roundtrip holds at half that
        m = BlaschkeProduct(1.0, (0.0, 0.9))
        L = lift(m)
        assert L.strip == pytest.approx(0.0237, abs=1e-4)
        for im in (L.strip, -L.strip):
            th = THETA + 1j * im
            assert np.abs(np.exp(1j * L.eval(th)) - m.eval(np.exp(1j * th))).max() < 1e-8

    @pytest.mark.parametrize("zero", [0.97, 0.99])
    def test_zero_near_the_circle_lifts(self, zero):
        # the log-derivative's coefficients decay like zero^|n|, which 1024
        # nodes alias; the nodes double until the tail resolves (4096, 8192)
        m = BlaschkeProduct(1.0, (0.0, zero))
        L = lift(m)
        assert L.d == 2
        for im in (L.strip, -L.strip):
            th = THETA + 1j * im
            assert np.abs(np.exp(1j * L.eval(th)) - m.eval(np.exp(1j * th))).max() <= 1e-8

    @pytest.mark.parametrize(
        "m, nodes, strip",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), 1024, 0.3119),
            (TrigLift(2, (0.1,)), 1024, 0.3),
            (BlaschkeProduct(1.0, (0.0, 0.97)), 4096, 0.0069),
            # 256 check points missed a roundtrip of 1.48e-8 between them at 0.0045
            (BlaschkeProduct(1.0, (0.0, 0.99)), 8192, 0.0023),
        ],
        ids=["bstar", "triglift", "zero-0.97", "zero-0.99"],
    )
    def test_roundtrip_holds_between_the_nodes(self, m, nodes, strip, monkeypatch):
        # the strip is certified on the nodes the coefficients resolved at;
        # the roundtrip must hold on a grid 4 times finer on both strip edges
        sizes, fft = [], lifts.fourier_coeffs_from_samples
        monkeypatch.setattr(
            lifts, "fourier_coeffs_from_samples", lambda v, r: sizes.append(v.size) or fft(v, r)
        )
        L = lift(m)
        assert sizes[-1] == nodes
        assert L.strip == pytest.approx(strip, abs=1e-4)
        theta = 2 * np.pi * np.arange(4 * nodes) / (4 * nodes)
        for im in (L.strip, -L.strip):
            th = theta + 1j * im
            assert np.abs(np.exp(1j * L.eval(th)) - m.eval(np.exp(1j * th))).max() <= 1e-8

    def test_bstar_lifts_at_1024_nodes(self, bstar, monkeypatch):
        sizes, fft = [], lifts.fourier_coeffs_from_samples
        monkeypatch.setattr(
            lifts, "fourier_coeffs_from_samples", lambda v, r: sizes.append(v.size) or fft(v, r)
        )
        lift(bstar)
        assert sizes == [1024]

    @pytest.mark.parametrize(
        "m, message",
        [
            (NonAnalytic(), "could not certify an analyticity strip for the lift"),
            (Fractional(), "inconsistent lift: mean of log-derivative .* is not an integer"),
            (BlaschkeProduct(1.0, (0.0, 0.9999)),
             r"log-derivative tail 0\.0511 unresolved at 65536 nodes"),
        ],
        ids=["no-strip", "mean-off-the-degree", "tail-unresolved"],
    )
    def test_failure_exits(self, m, message):
        with pytest.raises(RuntimeError, match=f"^{message}"):
            lift(m)

    def test_vanishing_map_rejected(self):
        class Vanishing:
            def eval(self, z):
                return z * z - 1.0

            def deriv(self, z):
                return 2 * z

        with pytest.raises(ValueError, match="vanishes"):
            lift(Vanishing())


class TestLiftEval:
    def test_linear_point(self):
        L = lift(TrigLift(2))
        assert L.eval(np.pi / 2) == pytest.approx(np.pi, abs=1e-14)

    def test_bstar_at_zero(self, bstar):
        # B*(1) = 1 so alpha = 0 and lift(0) = 0
        L = lift(bstar)
        assert abs(L.eval(0.0)) < 1e-12

    def test_imaginary_argument(self):
        L = lift(TrigLift(2))
        assert L.eval(0.05j) == pytest.approx(0.1j, abs=1e-14)

    def test_strip_guard(self, bstar):
        L = lift(bstar)
        with pytest.raises(ValueError, match="strip"):
            L.eval(2j * L.strip + 1.0)


class TestLiftOracle:
    """LiftSeries, evaluated in z = e^{i theta}, against the phase-matrix sum."""

    @pytest.fixture(
        scope="class",
        params=[(0.0, 0.5), (0.2, 0.3j, -0.4)],
        ids=["bstar", "three-zero"],
    )
    def series(self, request):
        return lift(BlaschkeProduct(1.0, request.param))

    @pytest.mark.parametrize("row", [0.0, 0.9, -0.9])
    def test_eval_and_deriv(self, series, row):
        theta = THETA + 1j * row * series.strip
        assert np.abs(series.eval(theta) - lift_eval_phases(series, theta)).max() < 1e-13
        assert np.abs(series.deriv(theta) - lift_deriv_phases(series, theta)).max() < 1e-13


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

    def test_rejects_non_positive_epsilon(self, bstar):
        # and every override that is not finite, or a negative eta ceiling
        for override, message in [
            ({"epsilon": 0.0}, "epsilon override must be positive, got 0.0"),
            ({"epsilon": math.nan}, "epsilon override must be positive, got nan"),
            ({"epsilon": math.inf}, "epsilon override must be finite, got inf"),
            ({"eta_cap": math.nan}, "eta_cap override must be non-negative, got nan"),
            ({"eta_cap": math.inf}, "eta_cap override must be finite, got inf"),
            ({"eta_cap": -1.0}, "eta_cap override must be non-negative, got -1.0"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                build_homotopy(bstar, TrigLift(2, (0.1,)), **override)

    def test_maps_too_wild(self, bstar):
        # zeros at 0.95 and -0.9: no strip down to 1e-4 certifies the family
        with pytest.raises(RuntimeError, match="^maps too wild for certified homotopy"):
            build_homotopy(bstar, BlaschkeProduct(1.0, (0.95, -0.9)))

    def test_zero_eta_ceiling(self, bstar):
        fam = build_homotopy(bstar, TrigLift(2, (0.1,)), eta_cap=0.0)
        assert fam.eta == 0.0 and fam.margin_inner > 0 and fam.margin_outer > 0

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
    # z^d exp((1-w) Q_0 + w Q_1) against exp(i [(1-w) lift0 + w lift1](-i log z))
    fam = build_homotopy(*pair)
    zs = np.concatenate([rho * np.exp(1j * THETA) for rho in (fam.r0, 1.0, fam.R0)])
    for w in (0.0, 0.5, 1.0, 0.3 + 0.5j * fam.eta):
        member = fam.member(w)
        np.testing.assert_allclose(member.eval(zs), member_eval_log(fam, w, zs), rtol=1e-13)
        np.testing.assert_allclose(member.deriv(zs), member_deriv_log(fam, w, zs), rtol=1e-13)


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

    def test_membership_guard(self, family):
        with pytest.raises(ValueError, match="neighbourhood"):
            family.member(0.5 + 3j * family.eta)

    def test_domain_guard(self, family):
        with pytest.raises(ValueError, match="annulus"):
            family.member(0.5).eval(family.R0 * 1.5)

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


@pytest.fixture(scope="module")
def mid_member(bstar):
    # member 0.5 of the B* -> TrigLift(2, (0.1,)) family: it refuses points off its
    # certified annulus, which the wider annuli and strips below reach
    fam = build_homotopy(bstar, TrigLift(2, (0.1,)))
    return fam, fam.member(0.5)


def test_find_expansive_annulus_skips_refused_annuli(mid_member):
    fam, member = mid_member
    with pytest.raises(ValueError, match="outside certified annulus"):
        check_holo_expansive(member, Annulus(math.exp(-0.5), math.exp(0.5)))
    ann = find_expansive_annulus(member)
    assert fam.r0 < ann.r and ann.R < fam.R0
    assert check_holo_expansive(member, ann).verdict == "A1"


def test_lift_halves_past_a_refused_strip(mid_member, monkeypatch):
    fam, member = mid_member
    refused, real = [], lifts._roundtrip_error

    def recording(m, L, im_offset, K):
        try:
            return real(m, L, im_offset, K)
        except ValueError:
            refused.append(im_offset)
            raise

    monkeypatch.setattr(lifts, "_roundtrip_error", recording)
    L = lift(member)
    monkeypatch.undo()
    # the strips refused lie off the certified annulus; the one returned lies on it
    assert refused and min(map(abs, refused)) > fam.epsilon >= L.strip
    for edge in (L.strip, -L.strip):
        assert lifts._roundtrip_error(member, L, edge, 4096) <= 1e-13
