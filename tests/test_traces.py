import cmath
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    FLOOR_STAR,
    blaschke_spectrum,
    det_product_distance,
    det_zero_count_lattice,
    jensen_count_check,
    residue_sum,
    seeded_products,
)
from ruelle import traces
from ruelle.lifts import find_expansive_annulus
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    MobiusFamilyMap,
    TrigLift,
    _MapBase,
    iterate,
    min_expansion,
)
from ruelle.numerics import circle_integral, circle_nodes
from ruelle.spectra import Spectrum, converged_spectrum
from ruelle.traces import (
    blaschke_trace_closed,
    closed_form_multiplier,
    det_from_spectrum,
    det_from_traces,
    det_product_formula,
    log_abs_det_product,
    power_trace_table,
    trace_contour,
    trace_power,
    trace_report,
)

# finite, but its modulus is past the float range: abs() of it raises OverflowError
_PAST_RANGE = complex(1.7e308, 1.7e308)

# the three closed forms, each as a function of mu alone
_CLOSED_FORMS = pytest.mark.parametrize(
    "closed_form",
    [
        lambda mu: blaschke_trace_closed(mu, False),
        lambda mu: det_product_formula(mu, False, 0.3),
        lambda mu: log_abs_det_product(mu, False, 0.3),
    ],
    ids=["trace", "det", "log-det"],
)


class Identity(_MapBase):
    degree = 1

    def _eval(self, z):
        return z


class TestTraceContour:
    def test_squaring_residue_oracle(self, squaring, annulus):
        # 1/(z^2 - z): pole at 1 inside the annulus, residue 1/(2z-1)|_1 = 1;
        # the pole at 0 is excluded by the inner circle
        want = residue_sum([(1.0, 1.0)], annulus.R) - residue_sum([(1.0, 1.0)], annulus.r)
        assert want == 1.0
        assert trace_contour(squaring, annulus) == pytest.approx(1.0, abs=1e-12)

    def test_bstar_closed_form(self, bstar, annulus):
        # 1 + 2 mu/(1 - mu) with mu = -1/2
        assert trace_contour(bstar, annulus) == pytest.approx(1 / 3, abs=1e-12)

    def test_anti_is_one(self, anti_bstar, annulus):
        assert trace_contour(anti_bstar, annulus) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_fixed_point_rejected(self, annulus):
        class HasBoundaryFixedPoint:
            degree = 2

            def eval(self, z):
                # z = annulus.r is (numerically) fixed
                return z * z / annulus.r

        with pytest.raises(ValueError, match="contour"):
            trace_contour(HasBoundaryFixedPoint(), annulus)

    @pytest.mark.parametrize(
        "m, r, R",
        [
            # |tau| >= 0.136 on |z| = 0.1, so tau(T_r) leaves D_r: the verdict
            # is 'none' (the trace is 0.9032; the contour gave -0.0484)
            (BlaschkeProduct(1.0, (0.3, -0.6)), 0.1, 1.2),
            # B* on an annulus off the unit circle (the contour gave 1e-16, not 1/3)
            (BlaschkeProduct(1.0, (0.0, 0.5)), 1.1, 1.5),
            # the identity fixes every node: margin 0
            (Identity(), 0.8, 1.25),
        ],
        ids=["two-zero-wide", "bstar-off-circle", "identity"],
    )
    def test_ill_posed_annulus_rejected(self, m, r, R):
        with pytest.raises(ValueError, match="margin .* below 1e-8 .*ill-posed contour"):
            trace_contour(m, Annulus(r, R))

    def test_each_circle_evaluated_once(self, bstar, annulus):
        class Counting:
            degree = 2

            def __init__(self):
                self.radii = []

            def eval(self, z):
                self.radii.append(float(np.abs(z).max()))
                return bstar.eval(z)

        m = Counting()
        assert trace_contour(m, annulus) == trace_contour(bstar, annulus)
        assert m.radii == pytest.approx([annulus.r, annulus.R], abs=1e-15)

    @pytest.mark.parametrize(
        "m",
        [
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            FLOOR_STAR,
            iterate(BlaschkeProduct(1.0, (0.0, 0.5), anti=True), 3),
        ],
        ids=["bstar", "anti", "floor", "anti-third-iterate"],
    )
    def test_outward_minus_inward_is_the_oriented_contour(self, m, annulus):
        # I_outward - I_inward equals omega (I_R - I_r), with the orientation
        # sign omega = +1 for a preserving map and -1 for a reversing one
        def integral(rho):  # the quadrature trace_contour takes over |z| = rho
            with np.errstate(all="ignore"):
                t = m.eval(circle_nodes(rho, 4096))
            return circle_integral(lambda z: np.nan_to_num(1.0 / (t - z), nan=0.0), rho, 4096)

        omega = 1 if m.degree > 0 else -1
        assert trace_contour(m, annulus) == omega * (integral(annulus.R) - integral(annulus.r))


class TestTracePower:
    def test_bstar_second_power(self, bstar, annulus):
        # 1 + 2 mu^2/(1 - mu^2) with mu^2 = 1/4
        assert trace_power(bstar, 2, annulus) == pytest.approx(5 / 3, abs=1e-10)

    def test_anti_odd_powers_are_one(self, anti_bstar, annulus):
        assert trace_power(anti_bstar, 1, annulus) == pytest.approx(1.0, abs=1e-10)
        assert trace_power(anti_bstar, 3, annulus) == pytest.approx(1.0, abs=1e-10)

    def test_anti_even_power(self, anti_bstar, annulus):
        assert trace_power(anti_bstar, 2, annulus) == pytest.approx(5 / 3, abs=1e-10)

    def test_matches_closed_form_to_five(self, bstar, anti_bstar, annulus):
        for m, mu, anti in ((bstar, -0.5, False), (anti_bstar, 0.5, True)):
            for n in range(1, 6):
                want = blaschke_trace_closed(mu, anti, n)
                assert trace_power(m, n, annulus) == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_iterate_evaluated_once_per_circle(self, bstar, annulus, n):
        # each of the n composed factors runs once on each boundary circle
        class Counting(_MapBase):
            degree = 2

            def __init__(self):
                self.calls = 0

            def _eval(self, z):
                self.calls += 1
                return bstar._eval(z)

        m = Counting()
        assert trace_power(m, n, annulus) == trace_power(bstar, n, annulus)
        assert m.calls == 2 * n

    @pytest.mark.parametrize(
        "m, auto, n",
        [
            (TrigLift(2, (0.1,)), False, 8),
            (TrigLift(2, (0.1,)), True, 7),
            (TrigLift(2, (), (0.1,)), False, 8),
            (TrigLift(2, (), (0.1,)), True, 7),
        ],
        ids=["cos-fixed", "cos-auto", "sin-fixed", "sin-auto"],
    )
    def test_third_shrink_is_refused(self, annulus, m, auto, n):
        # each needs three shrinks, whose trace was 2.3e-11 (cos-fixed) to
        # 3.1e-4 (sin-auto) off tr(M^n) at N = 128; n - 1 needs two, within 6e-16
        from ruelle.operators import assemble_dual

        ann = find_expansive_annulus(m) if auto else annulus
        with pytest.raises(RuntimeError, match=f"^trace of power n={n} failed on every retry"):
            trace_power(m, n, ann)
        T = assemble_dual(m, ann, 128)
        want = np.trace(np.linalg.matrix_power(T.matrix, n - 1))
        assert trace_power(m, n - 1, ann) == pytest.approx(want, abs=1e-14)

    def test_only_a_refusal_shrinks_the_annulus(self, bstar, annulus, monkeypatch):
        # trace_contour refuses an annulus with a ValueError; a RuntimeError is
        # a fault, neither retried nor reworded
        calls = []

        def fault(m, ann):
            calls.append(ann)
            raise RuntimeError("boom")

        monkeypatch.setattr(traces, "trace_contour", fault)
        with pytest.raises(RuntimeError, match="^boom$"):
            trace_power(bstar, 2, annulus)
        assert calls == [annulus]

    def test_matrix_power_cross_check(self, bstar, annulus):
        from ruelle.operators import assemble_dual

        T = assemble_dual(bstar, annulus, 48, 48)
        for n in (2, 3):
            want = np.trace(np.linalg.matrix_power(T.matrix, n))
            assert trace_power(bstar, n, annulus) == pytest.approx(want, abs=1e-9)


class TestClosedForm:
    def test_preserving(self):
        assert blaschke_trace_closed(-0.5, False, 1) == pytest.approx(1 / 3)

    def test_anti_odd(self):
        assert blaschke_trace_closed(0.5, True, 3) == pytest.approx(1.0)

    def test_zero_multiplier(self):
        for anti in (False, True):
            assert blaschke_trace_closed(0.0, anti, 1) == pytest.approx(1.0)

    def test_complex_multiplier_is_real(self):
        mu = 0.3 + 0.2j
        val = blaschke_trace_closed(mu, False, 2)
        assert abs(val.imag) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError, match="mu"):
            blaschke_trace_closed(1.0, False, 1)

    @_CLOSED_FORMS
    @pytest.mark.parametrize("mu", [math.nan, complex(0, math.nan)], ids=["nan", "nan-imag"])
    def test_nan_multiplier_is_refused(self, closed_form, mu):
        # |nan| >= 1 is False: the trace was nan+nanj, and the determinant
        # failed in int(ceil(nan)) as it counted its factors
        with pytest.raises(ValueError, match=r"\|mu\| must be < 1, got nan"):
            closed_form(mu)

    @_CLOSED_FORMS
    def test_multiplier_past_the_float_range_is_refused(self, closed_form):
        # abs() of the finite 1.7e308 (1 + i) raised OverflowError
        with pytest.raises(ValueError, match=r"\|mu\| must be < 1, got inf"):
            closed_form(_PAST_RANGE)


# (mu, anti): B*, a complex multiplier, and anti-B*
ORACLE_CASES = [(-0.5, False), (0.3 + 0.2j, False), (0.5, True)]


def _oracle(mu, anti):
    # enough terms of the independent multiset that the rest is below 1e-40
    return blaschke_spectrum(mu, 160, anti)


class TestClosedFormsAgainstSpectrum:
    """Each closed form against the multiset {1, mu^k, conj(mu)^k} (anti:
    {1, +-mu^k}) built independently by ``helpers.blaschke_spectrum``."""

    @pytest.mark.parametrize("mu, anti", ORACLE_CASES)
    def test_trace_is_power_sum(self, mu, anti):
        lams = _oracle(mu, anti)
        for n in range(1, 9):
            want = complex(np.sum(lams**n))
            assert blaschke_trace_closed(mu, anti, n) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("mu, anti", ORACLE_CASES)
    def test_det_is_product(self, mu, anti):
        lams = _oracle(mu, anti)
        for z in (0.3, 2.0, -1.5 + 0.7j, 1 / mu):
            want = complex(np.prod(1 - lams * z))
            got = det_product_formula(mu, anti, z).value
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    @pytest.mark.parametrize("mu, anti", ORACLE_CASES)
    def test_log_abs_det_is_log_product(self, mu, anti):
        lams = _oracle(mu, anti)
        for zeta in (0.7 + 0.3j, 2.0, -1.0 + 5j, 4.5 - 2j):
            want = math.log(abs(np.prod(1 - lams * np.exp(zeta))))
            assert log_abs_det_product(mu, anti, zeta) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("mu, anti", ORACLE_CASES)
    def test_lattice_count_is_product_zero_count(self, mu, anti):
        # zeta -> prod (1 - lambda e^zeta) vanishes at -log(lambda) + 2 pi i m
        lams = _oracle(mu, anti)
        for center, radius in ((-1.0, 12.0), (3.0 + 1j, 8.0), (-0.5, 20.0)):
            want = 0
            for lam in lams:
                anchor = -np.log(lam)
                mspan = int((radius + abs(anchor.imag - center.imag)) / (2 * math.pi)) + 2
                ms = np.arange(-mspan, mspan + 1)
                want += int(np.sum(np.abs(anchor + 2j * math.pi * ms - center) < radius))
            assert det_zero_count_lattice(mu, center, radius, anti) == want

    @pytest.mark.parametrize("mu", (0.5, -0.5, 0.3 + 0.2j, 0.0, 0.9j, -0.77))
    def test_anti_odd_trace_is_exactly_one(self, mu):
        for n in (1, 3, 5, 7, 9, 15):
            assert blaschke_trace_closed(mu, True, n) == 1


class TestClosedFormMultiplier:
    def test_product(self, bstar):
        mu, anti = closed_form_multiplier(bstar)
        assert mu == pytest.approx(-0.5, abs=1e-12)
        assert anti is False

    def test_anti_product(self, anti_bstar):
        mu, anti = closed_form_multiplier(anti_bstar)
        assert mu == pytest.approx(0.5, abs=1e-12)
        assert anti is True

    def test_real_mobius(self):
        # the interior fixed point is 0 with multiplier -w/2
        mu, anti = closed_form_multiplier(MobiusFamilyMap(0.7))
        assert mu == pytest.approx(-0.35, abs=1e-12)
        assert anti is False

    @pytest.mark.parametrize("w", [-0.5, 1.7, 1.9])
    def test_real_mobius_off_the_unit_segment(self, w):
        # every real w gives b = conj(a): the product with zeros 0 and w/2
        assert closed_form_multiplier(MobiusFamilyMap(w)) == (-w / 2, False)

    def test_mobius_with_a_pole_on_the_circle_has_none(self):
        # w = 2 is z(z - 1)/(1 - z) = -z, whose pole the node z = 1 meets
        # (min_expansion NaN, not expanding); w = -2 is z(z + 1)/(1 + z) = z
        assert math.isnan(min_expansion(MobiusFamilyMap(2.0)))
        for w in (2.0, -2.0):
            assert closed_form_multiplier(MobiusFamilyMap(w)) is None

    def test_complex_mobius_has_none(self):
        # its spectrum is {1} and each power of -w/2 twice (a family in mu and
        # one in mu, not in conj(mu)), which no (mu, anti) pair states
        assert closed_form_multiplier(MobiusFamilyMap(0.5 + 0.26j)) is None

    def test_triglift_has_none(self):
        assert closed_form_multiplier(TrigLift(2, (0.1,))) is None

    def test_non_expanding_product_has_none(self):
        # min_expansion 0.902, and the orbit of 0 ends within an ulp of |z| = 1
        m = BlaschkeProduct(
            complex(0.5347014655892233, 0.8450410301853613),
            (complex(0.47445342717074807, -0.03296355544716902),
             complex(0.0807277311565206, 0.364474349028296)),
            anti=True,
        )
        assert min_expansion(m) < 1
        assert closed_form_multiplier(m) is None

    def test_seeded_panel_has_closed_forms_only_where_expanding(self):
        panel = seeded_products()
        refused = [m for m in panel if min_expansion(m) <= 1]
        assert len(refused) == 12
        assert all(closed_form_multiplier(m) is None for m in refused)
        assert all(closed_form_multiplier(m) is not None for m in panel if m not in refused)


class TestRealMobiusClosedForms:
    """Members with real w off [0, 1] against the independent routes, each on
    its automatic annulus."""

    @pytest.mark.parametrize("w", [-0.5, 1.7, 1.9])
    def test_contour_trace(self, w):
        m = MobiusFamilyMap(w)
        report = trace_report(m, find_expansive_annulus(m))
        assert abs(report.contour - report.closed_form) <= 1e-12

    def test_matrix_trace_and_determinant(self):
        # at w = 1.7 and 1.9 the matrix trace at nplus = 48 is truncated at
        # mu^48, 4.4e-4 and 0.087 off; at w = -0.5 it is not
        m = MobiusFamilyMap(-0.5)
        ann = find_expansive_annulus(m)
        report = trace_report(m, ann)
        assert abs(report.eigensum - report.closed_form) <= 1e-12
        product = det_product_formula(*closed_form_multiplier(m), 0.2)
        spectrum = det_from_spectrum(converged_spectrum(m, ann), math.log(0.2))
        assert abs(product.value - spectrum.value) <= 1e-12


class TestDetRoutes:
    def test_single_eigenvalue(self):
        from ruelle.spectra import Spectrum

        spec = Spectrum(np.array([1.0 + 0j]), None, 1, 1e-9)
        # a one-entry spectrum cannot certify its tail: precision warning
        with pytest.warns(RuntimeWarning, match="tail"):
            res = det_from_spectrum(spec, math.log(0.5))
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_at_unit(self, bstar, annulus):
        spec = converged_spectrum(bstar, annulus)
        assert abs(det_from_spectrum(spec, 0.0).value) < 1e-9

    def test_matches_product_formula_at_two(self, bstar, annulus):
        spec = converged_spectrum(bstar, annulus)
        got = det_from_spectrum(spec, math.log(2.0)).value
        want = det_product_formula(-0.5, False, 2.0).value
        assert got == pytest.approx(want, abs=1e-8)

    def test_trace_route_at_zero(self, bstar, annulus):
        assert det_from_traces(bstar, annulus, 0.0, nmax=4).value == pytest.approx(1.0)

    @pytest.mark.parametrize("nmax", [0, -3])
    def test_trace_route_needs_a_term(self, bstar, annulus, nmax):
        # an empty trace series would return det = 1 with a negative tail
        with pytest.raises(ValueError, match=f"nmax={nmax} must be at least 1"):
            det_from_traces(bstar, annulus, 0.3, nmax=nmax, traces=[1.0])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m, ann: trace_power(m, 0, ann), "power must be >= 1, got n=0"),
            (lambda m, ann: blaschke_trace_closed(0.5, True, 0), "power must be >= 1, got n=0"),
            (  # a spectrum with no converged eigenvalue
                lambda m, ann: det_from_spectrum(Spectrum(np.array([0.5j]), None, 0), 0.3),
                "empty spectrum",
            ),
            (
                lambda m, ann: det_from_traces(m, ann, 0.3, nmax=5, traces=[1.0, 0.5]),
                "trace table has 2 entries, need 5",
            ),
            # a point with a NaN part once gave nan+nanj with a nan tail and no warning
            (
                lambda m, ann: det_from_spectrum(Spectrum(np.array([0.5 + 0j]), None, 1), math.nan),
                r"zeta=\(nan\+0j\) has a NaN part",
            ),
            (
                lambda m, ann: det_from_spectrum(
                    Spectrum(np.array([0.5 + 0j]), None, 1), complex(0, math.nan)
                ),
                "zeta=nanj has a NaN part",
            ),
            (
                lambda m, ann: det_from_traces(m, ann, math.nan, traces=[1.0] * 24),
                r"\|z\|=nan outside the validity window",
            ),
            (
                lambda m, ann: det_from_traces(m, ann, 1j * math.nan, traces=[1.0] * 24),
                r"\|z\|=nan outside the validity window",
            ),
            # these three once raised Python's own OverflowError or ValueError, the
            # last two as int(ceil(nan)) failed in the count of factors
            (
                lambda m, ann: det_from_traces(m, ann, _PAST_RANGE, traces=[1.0] * 24),
                r"\|z\|=inf outside the validity window",
            ),
            (
                lambda m, ann: det_product_formula(-0.5, False, math.nan),
                r"z=\(nan\+0j\) has a NaN part",
            ),
            (
                lambda m, ann: det_product_formula(-0.5, False, complex(0, math.nan)),
                "z=nanj has a NaN part",
            ),
        ],
        ids=["trace-power", "closed-form", "unconverged-spectrum", "short-table",
             "spectrum-zeta-nan", "spectrum-zeta-nan-imag", "traces-z-nan", "traces-z-nan-imag",
             "traces-z-past-range", "product-z-nan", "product-z-nan-imag"],
    )
    def test_rejects_out_of_range_arguments(self, bstar, annulus, call, message):
        with pytest.raises(ValueError, match=message):
            call(bstar, annulus)

    def test_zeta_minus_inf_is_one(self, bstar, annulus):
        # e^zeta = 0: det = 1 exactly, with no tail
        res = det_from_spectrum(converged_spectrum(bstar, annulus), -math.inf)
        assert (res.value, res.tail) == (1, 0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda spec: det_from_spectrum(spec, math.log(1e300)), r"zeta=\(690\.77"),
            (lambda spec: det_from_spectrum(spec, 800), r"zeta=\(800\+0j\)"),
            (lambda spec: det_from_spectrum(spec, math.inf), r"zeta=\(inf\+0j\)"),
            (lambda spec: det_from_spectrum(spec, complex(0, math.inf)), "zeta=infj"),
            (lambda spec: det_product_formula(-0.5, False, 1e300), r"z=\(1e\+300\+0j\)"),
            (lambda spec: det_product_formula(-0.999, False, 100), r"z=\(100\+0j\)"),
            (lambda spec: det_product_formula(-0.5, False, math.inf), r"z=\(inf\+0j\)"),
            (lambda spec: det_product_formula(-0.5, False, _PAST_RANGE), r"z=\(1\.7e\+308\+"),
            (lambda spec: det_product_formula(0, False, _PAST_RANGE), r"z=\(1\.7e\+308\+"),
            (
                lambda spec: det_product_formula(
                    0.3, False, complex(-666835889534.2407, 4794696648632.625)
                ),
                r"z=\(-666835889534\.2407\+4794696648632\.625j\)",
            ),
            (
                lambda spec: det_from_spectrum(
                    Spectrum(np.array([1, 0.9, 0.8], dtype=complex), None, 3), math.log(1e308)
                ),
                r"zeta=\(709\.19",
            ),
        ],
        ids=["spectrum-1e300", "spectrum-800", "spectrum-inf", "spectrum-inf-imag",
             "product-1e300", "product-near-circle", "product-inf", "product-past-range",
             "product-mu-0-past-range", "product-value-past-range", "spectrum-tail-overflow"],
    )
    def test_product_that_is_not_finite_fails_loudly(self, bstar, annulus, call, message):
        # these once gave nan+nanj with a nan tail, or an OverflowError from
        # the product route's tail or from abs(z), as |z| of the finite
        # 1.7e308 (1 + i) is past the float range; the last product has finite
        # parts and a modulus past the float range, which the route's own
        # np.isfinite passed on to abs() in the tail; the spectrum at e^zeta =
        # 1e308 overflows its tail bound too (|w| * 0.8 * q / (1 - q), q = 8/9);
        # no RuntimeWarning escapes on the way
        spec = converged_spectrum(bstar, annulus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=rf"route: the product at {message}"):
                call(spec)

    def test_spectrum_product_past_the_float_range_fails_loudly(self):
        # 1 - e^zeta = 1.3e308 (1 + i) has finite parts and a modulus past the
        # float range: abs() of it, for the tail warning, raised OverflowError
        spec = Spectrum(np.array([1.0 + 0j]), None, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"spectrum route: the product at zeta=\(709\.80"):
                det_from_spectrum(spec, cmath.log(complex(-1.3e308, -1.3e308)))

    def test_product_tail_past_the_exp_range_is_inf(self):
        # 2 |mu|^(kmax + 1) |z| / (1 - |mu|) = 728 at kmax = 5000: the value
        # stands, and the tail is inf rather than an OverflowError
        res = det_product_formula(0.9999, False, 0.06)
        assert np.isfinite(res.value) and res.tail == math.inf

    def test_exact_zero_past_the_exp_range_has_tail_inf(self):
        # value 1 - z = 0 and a log tail of about 1.2e4: inf, not 0 * inf = NaN
        res = det_product_formula(0.9999, False, 1.0)
        assert res.value == 0 and res.tail == math.inf

    def test_spectrum_route_shares_the_tail_rule(self):
        # the factor 1 - 1 vanishes, and the anchor |lambda| = 1000 gives a
        # log tail of 1000: tail inf, which the precision warning reports
        spec = Spectrum(np.array([1.0 + 0j, 1000.0 + 0j]), None)
        with pytest.warns(RuntimeWarning, match="tail estimate inf"):
            res = det_from_spectrum(spec, 0.0)
        assert res.value == 0 and res.tail == math.inf

    @pytest.mark.parametrize(
        "nmax, traces",
        [(3, [-1e5] * 3), (1, [-(709.9 + 1j * math.pi / 4) / 0.5]), (3, np.full(3, -1e308 + 0j))],
        ids=["overflow", "past-range", "numpy-overflow"],
    )
    def test_trace_series_that_is_not_finite_fails_loudly(self, bstar, annulus, nmax, traces):
        # exp(66666.7) overflows, and exp(709.9 + i pi/4) has finite parts and a
        # modulus past the float range, which the route's own np.isfinite once
        # passed; each raised OverflowError from the tail; with numpy traces of
        # -1e308 the tail bound's sum of |terms| overflows too
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match=r"trace route: the exponential at z=\(0\.5\+0j\)"):
                det_from_traces(bstar, annulus, 0.5, nmax=nmax, traces=traces)

    @pytest.mark.parametrize(
        "traces, value", [([1e5] * 3, 0), ([1e5, -4e5, 0.0], 1), ([_PAST_RANGE] * 3, 0)]
    )
    def test_trace_tail_past_the_exp_range_is_inf(self, bstar, annulus, traces, value):
        # log tails of 3125, 12500 and inf: the value stands, and the tail is
        # inf rather than an OverflowError from math.expm1, or from abs() of the
        # given trace 1.7e308 (1 + i), whose modulus is past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = det_from_traces(bstar, annulus, 0.5, nmax=3, traces=traces)
        assert (res.value, res.tail) == (value, math.inf)

    def test_trivial_map_det(self, squaring, annulus):
        # spectrum {1}: det = 1 - z
        res = det_from_traces(squaring, annulus, 0.25, nmax=24)
        assert res.value == pytest.approx(0.75, abs=1e-10)
        assert res.tail < 1e-12

    def test_route_crosscheck(self, bstar, annulus):
        spec = converged_spectrum(bstar, annulus)
        table = power_trace_table(bstar, annulus, 24)
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            a = det_from_spectrum(spec, np.log(z)).value
            b = det_from_traces(bstar, annulus, z, traces=table).value
            c = det_product_formula(-0.5, False, z).value
            assert abs(a - b) < 1e-7 and abs(a - c) < 1e-7 and abs(b - c) < 1e-7

    def test_tail_ignores_unused_table_entries(self, bstar, annulus):
        # the tail scale comes from the last three summed traces, not from the
        # end of a longer table
        table = power_trace_table(bstar, annulus, 8)
        short = det_from_traces(bstar, annulus, 0.45, nmax=4, traces=table[:4])
        assert det_from_traces(bstar, annulus, 0.45, nmax=4, traces=table) == short
        assert short.tail == pytest.approx(0.00789, abs=1e-5)

    @pytest.mark.parametrize(
        "m, z",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), 0.25 + 0.1j),
            (BlaschkeProduct(1.0, (0.0, 0.5), anti=True), 0.3),
            (MobiusFamilyMap(0.7), 0.2),
        ],
        ids=["bstar", "anti_bstar", "mobius"],
    )
    def test_tails_cover_roundoff(self, m, z):
        # the `ruelle det --z` artifacts: each route lies within its own tail
        # of the determinant in 60-digit arithmetic, so within the sum of the
        # two tails of each other; at these points roundoff, not truncation,
        # sets most of each distance
        mu, anti = closed_form_multiplier(m)
        traces = det_from_traces(m, find_expansive_annulus(m), z)
        product = det_product_formula(mu, anti, z)
        assert abs(traces.value - product.value) <= traces.tail + product.tail
        assert det_product_distance(traces.value, mu, anti, z) <= traces.tail
        assert det_product_distance(product.value, mu, anti, z) <= product.tail

    def test_validity_window(self, bstar, annulus):
        with pytest.raises(ValueError, match="0.5"):
            det_from_traces(bstar, annulus, 0.6)

    def test_product_formula_basics(self):
        assert det_product_formula(-0.5, False, 1.0).value == pytest.approx(0.0, abs=1e-15)
        assert det_product_formula(0.0, False, 0.7).value == pytest.approx(0.3)

    def test_product_formula_anti_crosscheck(self, anti_bstar, annulus):
        spec = converged_spectrum(anti_bstar, annulus)
        # z = 2 = 1/mu is a reciprocal eigenvalue: both routes vanish there
        at_two = det_product_formula(0.5, True, 2.0).value
        assert abs(at_two) < 1e-12
        assert at_two == pytest.approx(
            det_from_spectrum(spec, math.log(2.0)).value, abs=1e-8
        )
        at_three = det_product_formula(0.5, True, 3.0).value
        assert abs(at_three) > 0.1
        assert at_three == pytest.approx(
            det_from_spectrum(spec, math.log(3.0)).value, abs=1e-7
        )


class TestLatticeZeros:
    def test_empty_ball(self):
        # nearest zeros to -1: 0, +-2 pi i, log 2 - i pi are all farther than 1
        assert det_zero_count_lattice(-0.5, -1.0, 1.0) == 0

    def test_quadratic_growth(self):
        Rs = np.linspace(10, 40, 7)
        counts = [det_zero_count_lattice(-0.5, -1.0, R) for R in Rs]
        expo = np.polyfit(np.log(Rs), np.log(counts), 1)[0]
        assert expo == pytest.approx(2.0, abs=0.1)

    def test_zero_multiplier_linear(self):
        # only the imaginary lattice 2 pi i m remains
        for R in (5.0, 10.0, 20.0):
            want = 2 * math.floor(R / (2 * math.pi)) + 1
            assert det_zero_count_lattice(0.0, -0.1, R) == want

    def test_center_on_zero_rejected(self):
        with pytest.raises(ValueError, match="shift"):
            det_zero_count_lattice(-0.5, 0.0, 1.0)

    def test_counts_respect_multiplicity(self):
        # real mu: conjugate families coincide, so columns count twice
        n_real = det_zero_count_lattice(-0.5, -1.0, 12.0)
        n_single = det_zero_count_lattice(0.0, -1.0, 12.0)
        assert n_real > 2 * n_single


class TestJensen:
    def test_bstar_multiplier(self):
        chk = jensen_count_check(-0.5, 10.0)
        rel = abs(chk.counting_side - chk.boundary_side) / abs(chk.boundary_side)
        assert rel < 0.05

    def test_zero_multiplier(self):
        chk = jensen_count_check(0.0, 5.0)
        rel = abs(chk.counting_side - chk.boundary_side) / abs(chk.boundary_side)
        assert rel < 0.05

    def test_small_radius_limit(self):
        chk = jensen_count_check(-0.5, 0.01)
        assert chk.counting_side == 0.0
        assert abs(chk.boundary_side) < 1e-3


class TestLogAbsDetOnAGrid:
    @pytest.mark.parametrize("mu, anti", ORACLE_CASES)
    def test_grid_matches_pointwise_word_for_word(self, mu, anti):
        # the per-point cutoffs differ across each grid, so the grid call
        # runs past most points' own cutoff
        for grid in (np.linspace(-3, 40, 17), np.array([0.25, 30.25, -8 + 2j, 12 - 5j])):
            grid = grid.astype(complex)
            got = log_abs_det_product(mu, anti, grid)
            want = np.array([log_abs_det_product(mu, anti, zeta) for zeta in grid])
            assert got.tobytes() == want.tobytes()

    def test_blocks_do_not_change_a_bit(self, monkeypatch):
        # however the factor rows are grouped into blocks, the sum has the
        # same bits
        grid = np.linspace(-3, 40, 17).astype(complex)
        want = log_abs_det_product(-0.5, True, grid)
        for values in (1, 17, 40):
            monkeypatch.setattr(traces, "BLOCK_VALUES", values)
            assert log_abs_det_product(-0.5, True, grid).tobytes() == want.tobytes()

    def test_large_grid_memory_is_bounded_by_the_block(self):
        # 10^5 points and mu = -0.2 take 2 x 36 factor rows of 1.6 MB each:
        # forming them all at once would take about 115 MB
        grid = np.linspace(0, 10, 10**5)
        tracemalloc.start()
        try:
            log_abs_det_product(-0.2, False, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_long_range_memory_is_bounded_by_the_block(self, monkeypatch):
        # mu = 0.999 evaluates a band of 2 x 89956 factor rows past each
        # point's closed-form sum, whatever the range: 176 blocks of 1024 rows
        # for 0:1000 and for 0:4000, each formed as it is reached, so the peak
        # is the block's, not the band's
        monkeypatch.setattr(traces, "BLOCK_VALUES", 1 << 14)
        peaks = []
        for hi in (1000, 4000):
            tracemalloc.start()
            try:
                log_abs_det_product(0.999, False, np.linspace(0, hi, 16))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.5 * min(peaks), peaks

    def test_time_does_not_grow_with_re_zeta(self):
        # the factors with Re s > 45 are summed in closed form: at zeta = 1e12
        # a loop over every factor would take 1.4e12 rows per sign
        start = time.perf_counter()
        got = log_abs_det_product(-0.5, False, 1e12)
        assert time.perf_counter() - start < 1.0
        assert got == pytest.approx(1e24 / math.log(2), rel=1e-9)

    def test_exact_zero_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_abs_det_product(-0.5, False, 0.0) == -np.inf
            assert log_abs_det_product(0.5, True, np.array([0.0, 1.0]))[0] == -np.inf

    def test_minus_inf_is_zero(self):
        # e^zeta = 0, so det = 1 and log|det| = 0, for the squaring map's mu = 0 too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_abs_det_product(-0.5, False, -np.inf) == 0.0
            assert log_abs_det_product(0.0, False, -np.inf) == 0.0

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    @pytest.mark.parametrize(
        "zeta", [np.inf, np.nan, np.array([np.inf, np.nan])], ids=["inf", "nan", "both"]
    )
    def test_log_det_that_is_not_finite_is_refused(self, mu, zeta):
        # the refusal of the docstring holds for every mu, mu = 0 included
        with pytest.raises(RuntimeError, match="log\\|det\\| at zeta=.* is not finite"):
            log_abs_det_product(mu, False, zeta)

    def test_minus_inf_in_a_grid(self):
        # -inf gives 0 and leaves the finite points' bits alone (B*'s values
        # at 0.3 and 50, pinned)
        want = [0.0, float.fromhex("-0x1.4e1dacc36f86cp-1"), float.fromhex("0x1.c257de0d91f72p+11")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_abs_det_product(-0.5, False, np.array([-np.inf, 0.3, 50]))
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("mu", [-0.5, 0.0])
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_zeta_gives_empty(self, mu, shape):
        # one value per entry: none, rather than numpy's error from the max
        # of a zero-size array, for every mu
        got = log_abs_det_product(mu, False, np.empty(shape))
        assert got.shape == shape and got.dtype == float

    def test_shape_follows_zeta(self):
        # a scalar gives a scalar; an array, a length-1 one included, keeps
        # its shape
        scalar = log_abs_det_product(-0.5, False, 1.0)
        assert np.shape(scalar) == ()
        for zeta in (np.array([1.0]), np.array([1.0, 2.0, 3.0])):
            got = log_abs_det_product(-0.5, False, zeta)
            assert got.shape == zeta.shape
            assert got[0] == scalar


class TestGrowth:
    def test_quadratic_log_growth_along_real_axis(self):
        zetas = np.linspace(5, 50, 24)
        vals = log_abs_det_product(-0.5, False, zetas.astype(complex))
        expo = np.polyfit(np.log(zetas), np.log(vals), 1)[0]
        assert 1.8 <= expo <= 2.2

    def test_log_route_matches_direct_product(self):
        for zeta in (0.7 + 0.3j, 2.0, -1.0 + 5j):
            direct = math.log(abs(det_product_formula(-0.5, False, np.exp(zeta)).value))
            assert log_abs_det_product(-0.5, False, zeta) == pytest.approx(direct, abs=1e-10)


class TestTraceReport:
    def test_bstar(self, bstar, annulus):
        rep = trace_report(bstar, annulus)
        assert rep.contour == pytest.approx(1 / 3, abs=1e-10)
        assert rep.closed_form == pytest.approx(1 / 3, abs=1e-12)
        assert rep.max_pairwise_diff < 1e-8

    def test_anti(self, anti_bstar, annulus):
        rep = trace_report(anti_bstar, annulus)
        assert rep.contour == pytest.approx(1.0, abs=1e-10)
        assert rep.max_pairwise_diff < 1e-8

    def test_triglift_has_no_closed_form(self, annulus):
        m = TrigLift(2, cos_coeffs=(0.05,))
        rep = trace_report(m, annulus, nplus=24)
        assert rep.closed_form is None
        assert rep.contour == pytest.approx(rep.eigensum, abs=1e-8)

    def test_matrix_trace_on_the_symmetric_truncation(self, bstar, annulus, monkeypatch):
        # the eigensum route traces the library's own truncation (nplus, nplus - 1)
        seen, real = [], traces.assemble_dual

        def recording(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(traces, "assemble_dual", recording)
        rep = trace_report(bstar, annulus)
        assert [(T.nplus, T.nminus) for T in seen] == [(48, 47)]
        assert rep.eigensum == complex(np.trace(seen[0].matrix))
