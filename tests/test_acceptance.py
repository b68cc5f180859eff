"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity once its assertions hold (run with -s to see them)."""

import math
import time

import numpy as np
import pytest
from scipy import ndimage

from helpers import (
    blaschke_spectrum,
    det_zero_count_lattice,
    duality_residual,
    jensen_count_check,
    match_multiset,
)
from ruelle.julia import BASIN_UNDECIDED, BASIN_ZERO, render
from ruelle.lifts import build_homotopy, find_expansive_annulus, lift
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    MobiusFamilyMap,
    TrigLift,
    min_expansion,
)
from ruelle.operators import assemble_dual, singular_values
from ruelle.spectra import converged_spectrum, decay_fit, eigenvalues
from ruelle.traces import (
    blaschke_trace_closed,
    det_from_spectrum,
    det_from_traces,
    det_product_formula,
    log_abs_det_product,
    power_trace_table,
    trace_power,
    trace_report,
)

ANNULUS = Annulus(0.8, 1.25)
BSTAR = BlaschkeProduct(1.0, (0.0, 0.5))
ANTI_BSTAR = BlaschkeProduct(1.0, (0.0, 0.5), anti=True)


def _report(num, detail):
    print(f"criterion {num:2d}: PASS - {detail}")


def test_criterion_01_blaschke_oracle():
    t0 = time.perf_counter()
    T = assemble_dual(BSTAR, ANNULUS, 48, 48, 512)
    spec = eigenvalues(T)
    worst = match_multiset(blaschke_spectrum(-0.5, 11), spec.eigenvalues, 1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _report(1, f"top 11 within {worst:.2e} of the mu=-1/2 sequence in {elapsed:.2f}s")


def test_criterion_02_randomized_blaschke_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        others = tuple(
            0.55 * math.sqrt(rng.uniform(0.05, 1)) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(d - 1)
        )
        m = BlaschkeProduct(1.0, (0.0,) + others)
        martin = sum((1 - abs(a)) / (1 + abs(a)) for a in m.zeros)
        assert martin > 1.0
        mu = np.prod([-a for a in others])
        spec = eigenvalues(assemble_dual(m, find_expansive_annulus(m), 32, 32))
        # slack 1: an 8-entry cut can split a conjugate pair, whose ordering
        # at equal modulus is decided by roundoff
        worst = max(
            worst, match_multiset(blaschke_spectrum(mu, 8), spec.eigenvalues, 1e-6, slack=1)
        )
    _report(2, f"20 random products, top 8 within {worst:.2e} of the multiplier formula")


def test_criterion_03_anti_blaschke_oracle():
    spec = converged_spectrum(ANTI_BSTAR, ANNULUS, tol=1e-9)
    worst = match_multiset(blaschke_spectrum(0.5, 9, anti=True), spec.eigenvalues, 1e-6)
    imag = float(np.abs(spec.converged().imag).max())
    assert imag < 1e-9
    _report(3, f"top 9 within {worst:.2e} of the anti pattern; max |Im| = {imag:.2e}")


def test_criterion_04_trivial_spectra():
    cases = [TrigLift(2), TrigLift(3), BlaschkeProduct(1.0, (0.0, 0.0), anti=True)]
    worst_lead, worst_second = 0.0, 0.0
    for m in cases:
        spec = eigenvalues(assemble_dual(m, ANNULUS, 32, 32))
        worst_lead = max(worst_lead, abs(spec.eigenvalues[0] - 1.0))
        worst_second = max(worst_second, abs(spec.eigenvalues[1]))
    assert worst_lead < 1e-9
    assert worst_second < 1e-8
    _report(4, f"z^2, z^3, 1/z^2: |lambda1 - 1| <= {worst_lead:.1e}, |lambda2| <= {worst_second:.1e}")


def test_criterion_05_trace_triple_consistency():
    values = {}
    for name, m, want in (("B*", BSTAR, 1 / 3), ("anti-B*", ANTI_BSTAR, 1.0)):
        rep = trace_report(m, ANNULUS)
        assert abs(rep.contour - rep.eigensum) < 1e-8
        assert abs(rep.contour - rep.closed_form) < 1e-8
        assert rep.contour == pytest.approx(want, abs=1e-8)
        values[name] = rep.max_pairwise_diff
    worst_power = 0.0
    for m, mu, anti in ((BSTAR, -0.5, False), (ANTI_BSTAR, 0.5, True)):
        for n in range(1, 6):
            diff = abs(trace_power(m, n, ANNULUS) - blaschke_trace_closed(mu, anti, n))
            worst_power = max(worst_power, diff)
    assert worst_power < 1e-7
    _report(5, f"triple diffs {values['B*']:.1e}/{values['anti-B*']:.1e}; powers 1..5 within {worst_power:.1e}")


def test_criterion_06_duality():
    res = duality_residual(BSTAR, ANNULUS, 32)
    assert res < 1e-8
    _report(6, f"duality residual {res:.2e} at N=32")


def test_criterion_07_embedding_singular_values():
    ratio = 0.75 / 0.9
    want = ratio ** np.arange(20)
    got = singular_values(np.diag(want.astype(complex)))
    np.testing.assert_allclose(got, want, rtol=1e-13)

    sv = singular_values(assemble_dual(BSTAR, ANNULUS, 48, 48, 512))
    sv2 = singular_values(assemble_dual(BSTAR, ANNULUS, 96, 96))
    agree = np.abs(sv - sv2[: len(sv)]) < 1e-8
    cc = int(np.argmin(agree)) if not agree.all() else len(agree)
    n = np.arange(1, cc + 1)
    y = np.log(sv[:cc])
    slope, intercept = np.polyfit(n, y, 1)
    r2 = 1 - np.sum((y - slope * n - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2 > 0.99
    _report(7, f"diagonal embedding exact; B* log-sv fit R^2 = {r2:.4f} over {cc} values")


def test_criterion_08_lift_roundtrip():
    theta = 2 * np.pi * np.arange(512) / 512
    rng = np.random.default_rng(77)
    maps = [TrigLift(2), BSTAR]
    while len(maps) < 7:
        acos = rng.uniform(-0.15, 0.15, 3)
        bsin = rng.uniform(-0.15, 0.15, 3)
        if sum((k + 1) * (abs(a) + abs(b)) for k, (a, b) in enumerate(zip(acos, bsin))) < 0.9:
            maps.append(TrigLift(2, tuple(acos), tuple(bsin)))
    worst_rt, worst_inc = 0.0, 0.0
    for m in maps:
        L = lift(m)
        rt = np.abs(np.exp(1j * L.eval(theta)) - m.eval(np.exp(1j * theta))).max()
        inc = abs((L.eval(2 * np.pi) - L.eval(0.0)) - 2 * np.pi * L.d)
        worst_rt, worst_inc = max(worst_rt, rt), max(worst_inc, inc)
    assert worst_rt < 1e-10
    assert worst_inc < 1e-8
    _report(8, f"7 maps: roundtrip sup {worst_rt:.1e}, increment error {worst_inc:.1e}")


def test_criterion_09_homotopy():
    fam = build_homotopy(TrigLift(2), BSTAR)
    zs = np.exp(1j * 2 * np.pi * np.arange(512) / 512)
    e0 = np.abs(fam.member(0.0).eval(zs) - TrigLift(2).eval(zs)).max()
    e1 = np.abs(fam.member(1.0).eval(zs) - BSTAR.eval(zs)).max()
    assert max(e0, e1) < 1e-10
    worst_mod, worst_exp = 0.0, math.inf
    for w in np.linspace(0, 1, 11):
        member = fam.member(w)
        worst_mod = max(worst_mod, float(np.abs(np.abs(member.eval(zs)) - 1).max()))
        worst_exp = min(worst_exp, min_expansion(member))
    assert worst_mod < 1e-9
    assert worst_exp > 1.0
    _report(9, f"endpoints {max(e0, e1):.1e}; grid: ||T|-1| <= {worst_mod:.1e}, min expansion {worst_exp:.3f}")


def test_criterion_10_determinant_route_equivalence():
    rng = np.random.default_rng(10)
    worst = 0.0
    for m, mu, anti in ((BSTAR, -0.5, False), (ANTI_BSTAR, 0.5, True)):
        spec = converged_spectrum(m, ANNULUS)
        table = power_trace_table(m, ANNULUS, 24)
        for _ in range(20):
            z = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            a = det_from_spectrum(spec, np.log(z)).value
            b = det_from_traces(m, ANNULUS, z, traces=table).value
            c = det_product_formula(mu, anti, z).value
            worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
    assert worst < 1e-7
    _report(10, f"three routes pairwise within {worst:.2e} at 40 random z")


def test_criterion_11_order_of_growth():
    # order 1 + 1/beta from the decay fit; z^2's finite spectrum has order 1
    rho_b = 1 + 1 / decay_fit(converged_spectrum(BSTAR, ANNULUS)).beta
    assert 1.8 <= rho_b <= 2.2
    with pytest.raises(ValueError, match="finite-spectrum"):
        decay_fit(converged_spectrum(TrigLift(2), ANNULUS))
    zetas = np.linspace(5, 50, 24)
    vals = log_abs_det_product(-0.5, False, zetas.astype(complex))
    expo = np.polyfit(np.log(zetas), np.log(vals), 1)[0]
    assert 1.8 <= expo <= 2.2
    _report(11, f"rho(B*) = {rho_b:.3f}, rho(z^2) = 1, log|Z| exponent {expo:.3f}")


def test_criterion_12_jensen_and_lattice_count():
    chk = jensen_count_check(-0.5, 10.0)
    rel = abs(chk.counting_side - chk.boundary_side) / abs(chk.boundary_side)
    assert rel < 0.05
    radii = np.linspace(10, 40, 7)
    counts = [det_zero_count_lattice(-0.5, -1.0, R) for R in radii]
    expo = np.polyfit(np.log(radii), np.log(counts), 1)[0]
    assert abs(expo - 2.0) <= 0.1
    _report(12, f"Jensen sides agree to {rel:.2e}; lattice growth exponent {expo:.3f}")


def test_criterion_13_julia_raster():
    r0 = render(0.0, (-1.6, 1.6, -1.6, 1.6), 512, 512)
    xs = np.linspace(-1.6, 1.6, 512)
    ys = np.linspace(1.6, -1.6, 512)
    zz = xs[None, :] + 1j * ys[:, None]
    frac = np.mean(r0.basin[np.abs(zz) <= 0.9] == BASIN_ZERO)
    assert frac >= 0.99

    t0 = time.perf_counter()
    r1 = render(0.5 + 0.26j, (-1.6, 1.6, -1.6, 1.6), 512, 512)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    undecided = float(np.mean(r1.basin == BASIN_UNDECIDED))
    assert undecided < 0.05
    zero = r1.basin == BASIN_ZERO
    labels, ncomp = ndimage.label(zero)
    sizes = np.bincount(labels.ravel())[1:]
    assert sizes.max() / sizes.sum() > 0.999
    _report(13, f"w=0 disk fraction {frac:.4f}; quasi-circle in {elapsed:.2f}s, undecided {undecided:.2%}, {ncomp} component(s)")


def test_criterion_14_family_scan_report():
    # empirical report over the degree-2 family; the asymptotic lower-bound
    # statement itself is not testable at finite truncation
    rows = []
    for w in np.round(np.linspace(0.1, 1.0, 10), 10):
        spec = converged_spectrum(MobiusFamilyMap(w), ANNULUS)
        second = abs(spec.eigenvalues[1])
        beta = decay_fit(spec).beta
        assert second > 0.01
        assert 0.8 <= beta <= 1.2
        rows.append((float(w), second, beta))
    lo = min(r[2] for r in rows)
    hi = max(r[2] for r in rows)
    _report(14, f"10 grid points: |lambda2| in [{rows[0][1]:.3f}, {rows[-1][1]:.3f}], beta in [{lo:.3f}, {hi:.3f}]")
