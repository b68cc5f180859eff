import functools
import math
import warnings

import numpy as np
import pytest

from helpers import (
    FLOOR_STAR,
    TRIG_STAR_EIGENVALUES,
    CosineLift,
    blaschke_spectrum,
    holomorphy_gap,
    jacobi_anger_matrix,
    leading_match_loop,
    match_multiset,
    rational_map,
    reflected_multiplier,
    two_multiplier_spectrum,
)
from ruelle.cli import _spectrum_summary
from ruelle.lifts import build_homotopy, find_expansive_annulus
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    MobiusFamilyMap,
    TrigLift,
    fixed_point_disk,
    second_iterate_multiplier,
)
from ruelle.operators import TruncatedOperator, assemble_dual
from ruelle.spectra import (
    MATCH_ROWS,
    Spectrum,
    _leading_match,
    _lower_triangular,
    _unisolated,
    converged_spectrum,
    decay_fit,
    eigenvalues,
)


EPS = np.finfo(float).eps


def _synthetic(moduli, tol=1e-9):
    vals = np.array([1.0] + list(moduli), dtype=complex)
    return Spectrum(vals, None, converged_count=len(vals), tol=tol)


class TestLowerTriangular:
    """The argmax test of the zero pattern agrees with ``np.triu``."""

    @pytest.mark.parametrize("shape", [(1, 1), (5, 5), (6, 3), (3, 6), (0, 4), (4, 0), (0, 0)])
    def test_matches_triu(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in (0.0, 0.05, 0.3, 1.0):
            for k in (-1, 0, 1):  # tril(x, -1), tril(x) and dense patterns
                nz = rng.random(shape) < density
                nz = np.tril(nz, k) if k < 1 else nz
                for pattern in (nz, np.asfortranarray(nz)):
                    assert _lower_triangular(pattern) == (not np.triu(nz, 1).any())


class TestEigenvalues:
    def test_trivial_spectrum(self, squaring, annulus):
        spec = eigenvalues(assemble_dual(squaring, annulus, 16, 16, 256))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(spec.eigenvalues[1]) < 1e-10

    def test_bstar_oracle(self, bstar, annulus):
        spec = eigenvalues(assemble_dual(bstar, annulus, 48, 48, 512))
        match_multiset(blaschke_spectrum(-0.5, 9), spec.eigenvalues, 1e-9)

    def test_anti_oracle(self, anti_bstar, annulus):
        spec = eigenvalues(assemble_dual(anti_bstar, annulus, 48, 48, 512))
        match_multiset(blaschke_spectrum(0.5, 9, anti=True), spec.eigenvalues, 1e-9)

    def test_moduli_nonincreasing(self, bstar, annulus):
        spec = eigenvalues(assemble_dual(bstar, annulus, 32, 32))
        mods = np.abs(spec.eigenvalues)
        assert np.all(np.diff(mods) <= 1e-14)

    def test_leading_eigenvalue_is_one(self, bstar, anti_bstar, squaring, annulus):
        for m in (bstar, anti_bstar, squaring):
            spec = eigenvalues(assemble_dual(m, annulus, 32, 32))
            assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)

    def test_conjugate_symmetry(self, bstar, annulus):
        m = BlaschkeProduct(1.0, (0.0, 0.3 + 0.2j, 0.3 - 0.2j))
        spec = eigenvalues(assemble_dual(m, annulus, 32, 32))
        lead = spec.eigenvalues[:9]
        for lam in lead:
            assert np.min(np.abs(lead - np.conj(lam))) < 1e-9


# maps that fix 0 and infinity: their adjoint is lower triangular, with 1,
# the powers of tau'(0) and their conjugates on the diagonal
TRIANGULAR_MAPS = {
    "B*": BlaschkeProduct(1.0, (0.0, 0.5)),
    "mobius0.7": MobiusFamilyMap(0.7),
    "mobius0.6+0.2i": MobiusFamilyMap(0.6 + 0.2j),
    "three-zero": BlaschkeProduct(1.0, (0.0, 0.3 + 0.2j, -0.4)),
}


def _recording_eigvals(monkeypatch):
    calls, real = [], np.linalg.eigvals

    def recording(a):
        calls.append(np.array(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return calls


class TestTriangularShortcut:
    @pytest.mark.parametrize("auto", [False, True], ids=["fixed", "auto"])
    @pytest.mark.parametrize("N", [16, 64, 256])
    @pytest.mark.parametrize("name", list(TRIANGULAR_MAPS))
    def test_diagonal_is_eigvals_bit_for_bit(self, name, N, auto, monkeypatch):
        m = TRIANGULAR_MAPS[name]
        T = assemble_dual(m, find_expansive_annulus(m) if auto else Annulus(0.8, 1.25), N)
        assert not np.triu(T.matrix, 1).any()
        # eigvals of a real matrix with a real spectrum is float64; Spectrum is complex
        vals = np.linalg.eigvals(T.matrix).astype(complex)
        expect = vals[np.lexsort((np.angle(vals), -np.abs(vals)))]

        def refuse(a):
            raise AssertionError("dense eigensolve of a triangular matrix")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        got = eigenvalues(T).eigenvalues
        assert got.dtype == expect.dtype
        # compare the bits, so signed zeros and the order of ties count too
        assert np.array_equal(got.view(np.float64), expect.view(np.float64))

    def test_non_triangular_maps_reach_eigvals(self, annulus, monkeypatch):
        # neither pattern: an anti-product whose zeros miss 0, FLOOR_STAR, a
        # TrigLift; eigvals sees the core that permutations leave of each
        calls = _recording_eigvals(monkeypatch)
        for m in (BlaschkeProduct(1.0, (0.1, 0.5), anti=True), FLOOR_STAR, TrigLift(2, (0.1,))):
            eigenvalues(assemble_dual(m, find_expansive_annulus(m), 16))
        eigenvalues(assemble_dual(TrigLift(2, (0.1,)), annulus, 16))
        assert [c.shape for c in calls] == [(30, 30), (30, 30), (26, 26), (26, 26)]  # of 31

    def test_non_finite_triangular_matrix_fails_loudly(self):
        # the shortcut must not hand back a NaN diagonal as a spectrum
        a = np.diag([1.0, np.nan, 0.5, 0.25]).astype(complex)
        T = TruncatedOperator(2, 2, a, 256)
        with pytest.raises(RuntimeError, match="eigensolver failed"):
            eigenvalues(T)

    @pytest.mark.parametrize(
        "entries", [(np.inf, 0.0), (np.inf, -np.inf)], ids=["inf", "inf-minus-inf"]
    )
    def test_infinite_entries_fail_loudly(self, entries):
        # one entry makes the entry sum inf, two of opposite sign make it NaN
        a = np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex)
        a[1, 0], a[2, 0] = entries
        with pytest.raises(RuntimeError, match="eigensolver failed"):
            eigenvalues(TruncatedOperator(2, 2, a, 256))

    def test_finite_entries_whose_sum_overflows_are_solved(self):
        # the entry sum overflows, so the entries themselves are tested, quietly
        vals = np.array([1e308, 1e308, 0.5, 0.25], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigenvalues(TruncatedOperator(2, 2, np.diag(vals), 256)).eigenvalues
        assert np.array_equal(got, vals)


def _unisolated_loop(nz):
    """Reference for _unisolated: isolate one index at a time, the first
    whose row or column has no off-diagonal True among the remaining ones."""
    keep = list(range(len(nz)))
    while True:
        for i in keep:
            others = [j for j in keep if j != i]
            if not nz[i, others].any() or not nz[others, i].any():
                keep.remove(i)
                break
        else:
            mask = np.zeros(len(nz), dtype=bool)
            mask[keep] = True
            return mask


def _dense_blaschke():
    rng = np.random.default_rng(3)
    zeros = rng.uniform(0, 0.6, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
    return BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))


class TestIsolatedEigenvalues:
    """Neither pattern: the diagonal entries that permutations isolate are
    eigenvalues, and eigvals solves the rest."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40])
    def test_matches_one_at_a_time_loop(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.02, 0.1, 0.3, 1.0):
            for _ in range(4):
                nz = rng.random((n, n)) < density
                for pattern in (nz, np.asfortranarray(nz)):
                    assert np.array_equal(_unisolated(pattern), _unisolated_loop(nz))

    def test_permuted_block_triangular(self, monkeypatch):
        # upper triangular but for a dense 7 x 7 block with known eigenvalues,
        # then permuted symmetrically at random
        rng = np.random.default_rng(27)
        n, lo, k = 40, 12, 7
        a = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mu = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        a[lo : lo + k, lo : lo + k] = v @ np.diag(mu) @ np.linalg.inv(v)
        p = rng.permutation(n)
        a = a[np.ix_(p, p)]
        core = np.flatnonzero((p >= lo) & (p < lo + k))  # in index order
        calls = _recording_eigvals(monkeypatch)
        got = eigenvalues(TruncatedOperator(20, 20, a, 256)).eigenvalues
        assert len(calls) == 1
        assert np.array_equal(calls[0], a[np.ix_(core, core)])
        isolated = np.delete(a.diagonal(), core)
        found = np.isin(got, isolated)
        # the isolated eigenvalues are their diagonal entries, bit for bit
        assert np.array_equal(np.sort_complex(got[found]), np.sort_complex(isolated))
        match_multiset(mu, got[~found], 1e-12)

    @pytest.mark.parametrize(
        "name", ["cos", "sin", "floor-star", "homotopy-half", "dense-blaschke3"]
    )
    @pytest.mark.parametrize("N", [32, 128])
    def test_agrees_with_full_eigvals(self, name, N, monkeypatch):
        if name == "homotopy-half":
            fam = build_homotopy(BlaschkeProduct(1.0, (0.0, 0.5)), TrigLift(2, (0.1,)))
            m, ann = fam.member(0.5), fam.annulus()
        else:
            m = {"cos": TrigLift(2, (0.1,)), "sin": TrigLift(2, (), (0.1,)),
                 "floor-star": FLOOR_STAR, "dense-blaschke3": _dense_blaschke()}[name]
            ann = Annulus(0.8, 1.25) if name in ("cos", "sin") else find_expansive_annulus(m)
        T = assemble_dual(m, ann, N)
        full = np.linalg.eigvals(T.matrix)
        calls = _recording_eigvals(monkeypatch)
        got = eigenvalues(T).eigenvalues
        assert [c.shape[0] < T.size for c in calls] == [True]
        assert len(got) == T.size
        # measured worst moves 3.2e-14 (FLOOR_STAR and the homotopy member)
        big = full[np.abs(full) > 1e-6]
        match_multiset(big, got, 1e-12, slack=1)

    def test_no_zeros_take_one_full_size_solve(self, monkeypatch):
        rng = np.random.default_rng(5)
        a = np.asfortranarray(rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
        full = np.linalg.eigvals(a)
        calls = _recording_eigvals(monkeypatch)
        got = eigenvalues(TruncatedOperator(12, 12, a, 256)).eigenvalues
        assert [c.shape for c in calls] == [(24, 24)]
        assert np.array_equal(calls[0], a)
        assert np.array_equal(np.sort_complex(got), np.sort_complex(full))

    def test_nan_on_an_isolated_diagonal_fails_loudly(self, annulus):
        T = assemble_dual(TrigLift(2, (0.1,)), annulus, 16)
        a = T.matrix.copy()
        i = np.flatnonzero(~_unisolated(a != 0))[0]
        a[i, i] = np.nan
        with pytest.raises(RuntimeError, match="eigensolver failed"):
            eigenvalues(TruncatedOperator(T.nplus, T.nminus, a, T.samples))

    def test_core_solve_failure_fails_loudly(self, annulus, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(RuntimeError, match="eigensolver failed"):
            eigenvalues(assemble_dual(TrigLift(2, (0.1,)), annulus, 16))


class TestTieOrder:
    """Moduli within TIE_RTOL tie and are ordered by argument, so a
    conjugate pair keeps its order whichever member's modulus rounds up."""

    @pytest.mark.parametrize("bump", [1 + 4 * EPS, 1 - 4 * EPS])
    @pytest.mark.parametrize("lam", [0.3 + 0.4j, -0.0033 + 0.0498j])
    def test_pair_ordered_by_argument(self, lam, bump):
        vals = np.array([0.01, lam * bump, np.conj(lam), 1.0])
        assert abs(vals[1]) != abs(vals[2])
        got = eigenvalues(TruncatedOperator(2, 2, np.diag(vals), 256)).eigenvalues
        assert np.array_equal(got, vals[[3, 2, 1, 0]])

    def test_one_value_computed_twice_keeps_the_exact_order(self):
        # the larger modulus has the larger argument: the exact order
        lam = 0.3 + 0.4j
        twice = lam * (1 + 4 * EPS) * np.exp(4j * EPS)
        vals = np.array([lam, 1.0, twice])
        got = eigenvalues(TruncatedOperator(2, 1, np.diag(vals), 256)).eigenvalues
        assert np.array_equal(got, vals[[1, 2, 0]])


# anti-Blaschke products with a zero at 0 swap 0 and infinity: their adjoint
# pairs two lower-triangular off-diagonal blocks
ANTI_MAPS = {
    "anti-B*": BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
    "anti-three-zero": BlaschkeProduct(1.0, (0.0, 0.3 + 0.2j, -0.4), anti=True),
}


def _rank_errors(vals, closed):
    """Distance of each value to the nearest closed-form eigenvalue."""
    return np.abs(vals[:, None] - closed[None, :]).min(axis=1)


class TestAntiProductShortcut:
    @pytest.mark.parametrize("auto", [False, True], ids=["fixed", "auto"])
    @pytest.mark.parametrize("N", [32, 64, 128, 256])
    @pytest.mark.parametrize("name", list(ANTI_MAPS))
    def test_paired_diagonals_match_closed_form(self, name, N, auto, monkeypatch):
        m = ANTI_MAPS[name]
        T = assemble_dual(m, find_expansive_annulus(m) if auto else Annulus(0.8, 1.25), N)
        dense = np.linalg.eigvals(T.matrix)
        dense = dense[np.lexsort((np.angle(dense), -np.abs(dense)))]

        def refuse(a):
            raise AssertionError("dense eigensolve of an anti-product")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        got = eigenvalues(T).eigenvalues
        assert len(got) == T.size
        assert np.all(np.diff(np.abs(got)) <= 0)
        # the pool holds 23 so that a cut through a +-pair finds both members
        closed = blaschke_spectrum(second_iterate_multiplier(m), 23, anti=True)
        err, dense_err = _rank_errors(got[:21], closed), _rank_errors(dense[:21], closed)
        # no worse than eigvals at any rank, up to one roundoff unit of the
        # largest matrix entry, which both routes carry
        eps = np.finfo(float).eps * np.abs(T.matrix).max()
        assert np.all(err <= dense_err + eps), np.max(err - dense_err)
        assert err.max() <= dense_err.max()

    def test_anti_product_with_nan_fails_loudly(self, anti_bstar, annulus):
        T = assemble_dual(anti_bstar, annulus, 16)
        a = T.matrix.copy()
        a[T.nplus + 3, 3] = np.nan  # a diagonal entry of Y
        with pytest.raises(RuntimeError, match="eigensolver failed"):
            eigenvalues(TruncatedOperator(T.nplus, T.nminus, a, T.samples))


class TestEigenvalueDtype:
    """Spectrum.eigenvalues is complex128 whatever the matrix dtype and path."""

    @pytest.mark.parametrize(
        "m, dtype",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), np.float64),  # lower triangular
            (MobiusFamilyMap(0.6 + 0.2j), np.complex128),  # lower triangular
            (BlaschkeProduct(1.0, (0.0, 0.5), anti=True), np.float64),  # anti-product
            (ANTI_MAPS["anti-three-zero"], np.complex128),  # anti-product
            (TrigLift(2, (), (0.1,)), np.float64),  # dense
            (TrigLift(2, (0.1,)), np.complex128),  # dense
        ],
        ids=["triangular-real", "triangular-complex", "anti-real", "anti-complex",
             "dense-real", "dense-complex"],
    )
    def test_complex_on_every_path(self, m, dtype, annulus):
        T = assemble_dual(m, annulus, 32)
        assert T.matrix.dtype == dtype
        assert eigenvalues(T).eigenvalues.dtype == np.complex128

    @pytest.mark.parametrize(
        "m", [TrigLift(2, (), (0.1,)), BlaschkeProduct(1.0, (0.2, -0.5))],
        ids=["odd-triglift", "real-zeros"],
    )
    def test_dense_real_spectrum_in_exact_conjugate_pairs(self, m, annulus):
        T = assemble_dual(m, annulus, 64)
        assert T.matrix.dtype == np.float64
        vals = eigenvalues(T).eigenvalues
        assert np.count_nonzero(vals.imag) >= 2
        assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))

    def test_real_anti_pairs_in_documented_order(self, anti_bstar, annulus):
        # +-x ties sort +x first (argument 0 before pi), as in the closed form:
        # no -0.0 imaginary part may turn the argument of -x into -pi
        vals = eigenvalues(assemble_dual(anti_bstar, annulus, 64)).eigenvalues
        assert not np.signbit(vals.imag).any()
        closed = blaschke_spectrum(0.5, 41, anti=True)[:41]
        assert np.abs(vals[:41] - closed).max() < 1e-15


class TestConverged:
    def test_bstar(self, bstar, annulus):
        spec = converged_spectrum(bstar, annulus, tol=1e-9)
        assert spec.converged_count >= 10
        match_multiset(blaschke_spectrum(-0.5, 11), spec.eigenvalues, 1e-9)

    def test_trivial(self, squaring, annulus):
        spec = converged_spectrum(squaring, annulus, tol=1e-9)
        assert spec.converged_count >= 10
        assert abs(spec.eigenvalues[1]) < 1e-10

    def test_mobius_interior(self, annulus):
        spec = converged_spectrum(MobiusFamilyMap(0.5), annulus, tol=1e-9, want=6)
        assert spec.converged_count >= 6
        # multiplier of the interior fixed point is -w/2
        assert abs(spec.eigenvalues[1]) == pytest.approx(0.25, abs=1e-9)

    def test_mobius_pole_inside_annulus(self, annulus):
        # w = 1.7 puts the pole 2/w = 1.176 inside (0.8, 1.25), yet
        # z (z - 0.85)/(1 - 0.85 z) passes the inclusion check there, and its
        # spectrum is the closed form for the zeros 0 and 0.85
        spec = converged_spectrum(MobiusFamilyMap(1.7), annulus)
        assert spec.converged_count == 63  # all of the symmetric truncation (32, 31)
        match_multiset(blaschke_spectrum(-0.85, 11), spec.eigenvalues, 1e-9)

    @pytest.mark.parametrize(
        "m",
        [MobiusFamilyMap(0.7 + 0.05j), MobiusFamilyMap(0.6 + 0.2j),
         rational_map((0, 0.25 - 0.1j), (0, 0.35 + 0.05j))],
        ids=["mobius0.7+0.05i", "mobius0.6+0.2i", "rational"],
    )
    def test_full_complex_assembly_two_multiplier_closed_form(self, m, annulus):
        # no circle maps, so no reflected minus block: the complex assembly
        # transforms both blocks, and its spectrum is {1} and the powers of
        # mu_in = tau'(z_in) and of mu_out, each -w/2 for a Mobius member
        assert assemble_dual(m, annulus, 32).matrix.dtype == np.complex128
        mu_in, mu_out = fixed_point_disk(m)[1], reflected_multiplier(m)
        if isinstance(m, MobiusFamilyMap):
            assert mu_in == mu_out == -m.w / 2
        spec = converged_spectrum(m, annulus)
        assert spec.converged_count >= 15
        match_multiset(two_multiplier_spectrum(mu_in, mu_out, 15), spec.eigenvalues, 1e-12)

    def test_reflected_multiplier_of_a_blaschke_product_is_conjugate(self):
        for m in (BlaschkeProduct(1.0, (0.0, 0.3 + 0.2j)), BlaschkeProduct(1j, (0.2 - 0.1j, 0.4j))):
            mu = fixed_point_disk(m)[1]
            assert reflected_multiplier(m) == pytest.approx(mu.conjugate(), abs=1e-14)
            assert np.array_equal(two_multiplier_spectrum(mu, mu.conjugate(), 11), blaschke_spectrum(mu, 11))

    def test_fine_level_reused_as_next_coarse(self, monkeypatch):
        # levels 32->64, 64->128, 128->256 need the four orders 32..256 once each
        from ruelle import spectra

        orders = []
        real = spectra.assemble_dual

        def counting(m, annulus, nplus, *args, **kwargs):
            orders.append(nplus)
            return real(m, annulus, nplus, *args, **kwargs)

        m, ann = TrigLift(2, (0.1,)), Annulus(0.8, 1.25)
        monkeypatch.setattr(spectra, "assemble_dual", counting)
        with pytest.warns(RuntimeWarning, match="not converged"):
            spec = converged_spectrum(m, ann)
        assert orders == [32, 64, 128, 256]
        finest = real(m, ann, spec.operator.nplus, spec.operator.nminus)
        assert np.array_equal(spec.operator.matrix, finest.matrix)  # the solved matrix, bit for bit
        assert np.array_equal(spec.eigenvalues, eigenvalues(finest).eigenvalues)

    def test_warns_when_unconverged(self):
        wavy = TrigLift(2, cos_coeffs=(0.4,))
        thin = Annulus(0.97, 1.03)
        with pytest.warns(RuntimeWarning, match="not converged"):
            converged_spectrum(wavy, thin, tol=1e-15, max_order=64, want=64)

    def test_warning_names_the_finest_truncation(self, annulus):
        # max_order = 100 stops after the level 32 -> 64, whose 64 is the finest order
        with pytest.warns(RuntimeWarning, match="not converged .* up to truncation 64$"):
            spec = converged_spectrum(TrigLift(2, (0.1,)), annulus, max_order=100)
        T = spec.operator
        assert (T.nplus, T.nminus, T.samples) == (64, 63, 512)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_tol(self, bstar, annulus, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            converged_spectrum(bstar, annulus, tol=tol)

    def test_rejects_max_order_below_64(self, bstar, annulus):
        with pytest.raises(ValueError, match="max_order 32 must be at least 64"):
            converged_spectrum(bstar, annulus, max_order=32)


def _match_cases():
    """(primary, other, tol) cases for _leading_match: seeded runs across
    several row blocks, repeated zeros, exact ties, NaN, and every order of
    lengths."""
    rng = np.random.default_rng(19)
    cases = [
        (np.zeros(0, complex), np.zeros(0, complex), 1e-9),
        (np.ones(3, complex), np.zeros(0, complex), 1e-9),
        (np.zeros(5, complex), np.zeros(8, complex), 1e-9),  # repeated zeros
        (np.array([0, 0, 0, 1], complex), np.array([1, 0, 0], complex), 1e-9),
        (np.array([0j, 0j]), np.array([1e-10, -1e-10, 1e-10j]), 1e-9),  # ties
        (np.array([0.5, -0.5, 0.5j]), np.array([0.5, -0.5, -0.5j, 0.5j]), 0.0),
        (np.array([1, np.nan, 0.5], complex), np.array([0.5, 1, 0.25], complex), 1e-9),
        (np.array([1, 0.5], complex), np.array([np.nan, 1, 0.5], complex), 1e-9),
        (np.array([np.nan, 1], complex), np.array([1, np.nan], complex), 1e-9),
    ]
    for size in (1, 2, 31, 32, 33, 64, 65, 100, 200):
        spec = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        spec[rng.random(size) < 0.2] = 0  # repeated zeros
        for extra in (-1, 0, 5):
            n = max(size + extra, 0)
            other = np.concatenate([spec, rng.standard_normal(5)])[:n]
            other = other + 1e-10 * rng.standard_normal(n)  # within tol everywhere
            other = other[rng.permutation(n)]
            if n > 40:
                other[rng.integers(n)] = np.nan
            cases += [(spec, other, 1e-9), (spec, other, 1e-11), (spec, other, 3e-10)]
    return cases


@pytest.mark.parametrize("case", _match_cases())
def test_leading_match_is_the_one_at_a_time_loop(case):
    primary, other, tol = case
    assert _leading_match(primary, other, tol) == leading_match_loop(primary, other, tol)


def test_leading_match_crosses_row_blocks():
    # a full match of 3 blocks and a bit, then a miss in the fourth block
    rng = np.random.default_rng(7)
    n = 3 * MATCH_ROWS + 5
    spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    other = spec[::-1].copy()
    other[0] += 1  # spec[-1], the last value of primary, loses its partner
    assert _leading_match(spec, other, 1e-12) == n - 1


class TestDecayFit:
    def test_pure_exponential(self):
        spec = _synthetic(np.exp(-np.arange(2, 30)))
        fit = decay_fit(spec)
        assert fit.beta == pytest.approx(1.0, abs=1e-9)
        assert fit.c == pytest.approx(1.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_decay(self):
        spec = _synthetic(np.exp(-0.05 * np.arange(2, 16) ** 2))
        fit = decay_fit(spec)
        assert fit.beta == pytest.approx(2.0, abs=1e-9)

    def test_bstar(self, bstar, annulus):
        fit = decay_fit(converged_spectrum(bstar, annulus))
        assert fit.beta == pytest.approx(1.0, abs=0.15)
        # |lambda_n| ~ 2^(-n/2): c = log(2)/2
        assert fit.c == pytest.approx(np.log(2) / 2, abs=0.08)
        assert 0 <= fit.r2 <= 1

    def test_too_few_entries(self, squaring, annulus):
        spec = converged_spectrum(squaring, annulus)
        with pytest.raises(ValueError, match="finite-spectrum"):
            decay_fit(spec)

    # |lambda_n| = e^-n for n = 2..18, then 2e-9 at n = 19, off that line
    FLOOR_BASE = list(np.exp(-np.arange(2, 19)))

    def test_floor_leaves_out_below_ten_tol(self):
        # 2e-9 is above tol = 1e-9 but below the floor 10 tol: left out, and
        # the fit is exact
        fit = decay_fit(_synthetic(self.FLOOR_BASE + [2e-9], tol=1e-9))
        assert fit.beta == pytest.approx(1.0, abs=1e-9)

    def test_floor_fits_above_ten_tol(self):
        # above the floor 10 tol = 1e-10: fitted, and beta moves
        moved = decay_fit(_synthetic(self.FLOOR_BASE + [2e-9], tol=1e-11))
        assert abs(moved.beta - 1.0) > 1e-3

    def test_floor_without_tol_is_1e_12(self):
        # with no tol the floor is 1e-12: 2e-12 is fitted, 5e-13 is not
        base = self.FLOOR_BASE + [2e-9]
        fit = decay_fit(_synthetic(base + [2e-12, 5e-13], tol=None))
        assert fit == decay_fit(_synthetic(base + [2e-12], tol=None))
        assert fit.beta != decay_fit(_synthetic(base, tol=None)).beta

def test_exponential_lower_bound_on_fitted_beta(bstar, anti_bstar, annulus):
    # every converged oracle spectrum decays at least exponentially
    for m in (bstar, anti_bstar, MobiusFamilyMap(0.7)):
        fit = decay_fit(converged_spectrum(m, annulus))
        assert fit.beta >= 0.9



class TestOrder:
    """rho_hat = 1 + 1/beta, the order of zeta -> det(I - e^zeta L), on known
    spectra; the rule lives in ``cli._spectrum_summary``."""

    def test_bstar_quadratic(self, bstar, annulus):
        rho = _spectrum_summary(converged_spectrum(bstar, annulus))[2]
        assert rho == pytest.approx(2.0, abs=0.2)

    def test_trivial_is_one(self, squaring, annulus):
        _, beta, rho = _spectrum_summary(converged_spectrum(squaring, annulus))
        assert (beta, rho) == (None, 1.0)

    def test_beta_two_gives_three_halves(self):
        spec = _synthetic(np.exp(-0.05 * np.arange(2, 16) ** 2))
        assert _spectrum_summary(spec)[2] == pytest.approx(1.5, abs=1e-9)

class TestAntiRealness:
    def test_all_converged_real(self, anti_bstar, annulus):
        spec = converged_spectrum(anti_bstar, annulus)
        assert np.abs(spec.converged().imag).max() < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="converged_spectrum reports an eigenvalue at the roundoff floor as "
    "converged: truncations 64 and 128 carry the same roundoff and agree",
)
def test_floor_eigenvalue_matches_closed_form():
    mu = second_iterate_multiplier(FLOOR_STAR)
    spec = converged_spectrum(FLOOR_STAR, find_expansive_annulus(FLOOR_STAR))
    lam8 = spec.eigenvalues[7]
    err = min(abs(lam8 - mu**4), abs(lam8 + mu**4))
    # fixed either by resolving lambda_8 or by no longer reporting it converged
    assert err <= 1e-8 or spec.converged_count < 8, f"lambda_8 = {lam8:.3g}, error {err:.3g}"


TRIG_COS, TRIG_SIN = TrigLift(2, (0.1,)), TrigLift(2, (), (0.1,))


def _oracle_eigenvalues(m):
    """Eigenvalues of the closed-form truncation at N = 64 on (e^-0.5, e^0.5)."""
    ann = Annulus(math.exp(-0.5), math.exp(0.5))
    return np.linalg.eigvals(jacobi_anger_matrix(m, ann, 64))


def test_jacobi_anger_oracle_reproduces_the_reference():
    # relative error of each conjugate pair, growing as the eigenvalues near
    # eps times the largest entry of the double-precision oracle
    got = _oracle_eigenvalues(TRIG_COS)
    rel = (1e-14, 1e-14, 1e-14, 4e-13, 1e-11, 2e-9, 3e-7)
    for lam, tol in zip(TRIG_STAR_EIGENVALUES, rel, strict=True):
        for value in (lam, np.conj(lam)):
            assert np.abs(got - value).min() <= tol * abs(value), value


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: each FFT entry carries an absolute error near "
    "eps max|g| and the snap zeroes true entries, so lambda_6 on is off by 7.6e-8 or more",
)
@pytest.mark.parametrize("m", [TRIG_COS, TRIG_SIN], ids=["cos", "sin"])
@pytest.mark.parametrize("which", ["fixed", "auto"])
def test_converged_triglift_eigenvalues_match_the_oracle(m, which):
    ann = Annulus(0.8, 1.25) if which == "fixed" else find_expansive_annulus(m)
    if m is TRIG_COS:  # the 40-digit reference; the eigenvalues after it are below 1e-10
        reference = np.array([0.0, *TRIG_STAR_EIGENVALUES, *np.conj(TRIG_STAR_EIGENVALUES[1:])])
    else:
        reference = _oracle_eigenvalues(m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fewer than 10 converge on (0.8, 1.25)
        spec = converged_spectrum(m, ann)
    worst = max(np.abs(reference - lam).min() for lam in spec.converged())
    assert worst <= 10 * spec.tol, f"{spec.converged_count} converged, worst error {worst:.3g}"


# The mean-value test in the amplitude a of CosineLift (z^2 e^{i a (z + 1/z)/2}):
# 32 points on the circle |a - 0.1| = 0.01, truncation N = 64
HOLO_A0, HOLO_RHO, HOLO_J = 0.1, 0.01, 32
HOLO_ANNULI = {"0.8-1.25": Annulus(0.8, 1.25), "e^0.5": Annulus(math.exp(-0.5), math.exp(0.5))}


@functools.cache
def _exact_cosine_spectrum(annulus, a):
    return np.linalg.eigvals(jacobi_anger_matrix(CosineLift(a), annulus, 64))


@functools.cache
def _library_cosine_spectrum(a):
    return eigenvalues(assemble_dual(CosineLift(a), HOLO_ANNULI["0.8-1.25"], 64)).eigenvalues


@pytest.mark.parametrize("name", HOLO_ANNULI)
@pytest.mark.parametrize("cut, count", [(1e-2, 3), (1e-3, 5), (1e-5, 7), (1e-6, 9), (1e-8, 11)])
def test_exact_oracle_is_holomorphic_in_the_amplitude(name, cut, count):
    # the exact entries are holomorphic in a, so only roundoff is left
    spectrum_of = functools.partial(_exact_cosine_spectrum, HOLO_ANNULI[name])
    gap, found = holomorphy_gap(spectrum_of, HOLO_A0, HOLO_RHO, HOLO_J, cut)
    assert found == count and gap <= 1e-15, (found, gap)


def test_holomorphy_gap_refuses_a_crossed_cut():
    # eigenvalues 9 to 11 cross |lambda| = 1e-7 as a goes round the circle
    spectrum_of = functools.partial(_exact_cosine_spectrum, HOLO_ANNULI["0.8-1.25"])
    with pytest.raises(RuntimeError, match="cross"):
        holomorphy_gap(spectrum_of, HOLO_A0, HOLO_RHO, HOLO_J, 1e-7)


def test_library_leading_group_is_holomorphic_in_the_amplitude():
    gap, count = holomorphy_gap(_library_cosine_spectrum, HOLO_A0, HOLO_RHO, HOLO_J, 1e-2)
    assert count == 3 and gap <= 1e-13, (count, gap)
    # the lambda_6,7 group is whole on the disc; its gap is the xfail below
    assert holomorphy_gap(_library_cosine_spectrum, HOLO_A0, HOLO_RHO, HOLO_J, 1e-5)[1] == 7


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: FFT roundoff and the snap are not holomorphic in a, "
    "and the lambda_6,7 group's gap is 3.0e-8",
)
def test_library_lambda_6_7_group_is_holomorphic_in_the_amplitude():
    gap, _ = holomorphy_gap(_library_cosine_spectrum, HOLO_A0, HOLO_RHO, HOLO_J, 1e-5)
    assert gap <= 1e-13, gap


# Test (c): the members z^2 e^{(1-w) Q_0 + w Q_1} of the B* -> TrigLift(2, (0.1,))
# homotopy, on its certified annulus at N = 64, round the circle |w - w0| = eta/8,
# where J = 32 converges for the library's own entries (at eta/2 the trapezoid
# rule's error was most of the 11-group's gap); the cuts are fixed, between
# moduli that no eigenvalue crosses on the disc
@functools.cache
def _homotopy():
    return build_homotopy(BlaschkeProduct(1.0, (0.0, 0.5)), TrigLift(2, (0.1,)))


@functools.cache
def _member_spectrum(w):
    fam = _homotopy()
    return eigenvalues(assemble_dual(fam.member(w), fam.annulus(), 64)).eigenvalues


def _homotopy_gap(w0, cut):
    return holomorphy_gap(_member_spectrum, w0, _homotopy().eta / 8, HOLO_J, cut)


# (w0, the cut of its leading 3 eigenvalues, the cut of its leading 11)
HOMOTOPY_CUTS = [(0.25, 0.23, 0.0075), (0.5, 0.12, 9.2e-4), (0.75, 0.12, 6.3e-4)]


@pytest.mark.parametrize("w0, shallow, deep", HOMOTOPY_CUTS)
def test_homotopy_leading_group_is_holomorphic_in_w(w0, shallow, deep):
    gap, count = _homotopy_gap(w0, shallow)
    assert count == 3 and gap <= 1e-13, (count, gap)
    # the 11-eigenvalue group is whole on the disc; its gap is the xfail below
    assert _homotopy_gap(w0, deep)[1] == 11


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: FFT roundoff and the snap are not holomorphic in w, and the "
    "11-eigenvalue groups' gaps are 8.0e-13, 7.2e-12 and 1.7e-9",
)
@pytest.mark.parametrize("w0, shallow, deep", HOMOTOPY_CUTS)
def test_homotopy_eleven_group_is_holomorphic_in_w(w0, shallow, deep):
    gap, _ = _homotopy_gap(w0, deep)
    assert gap <= 1e-13, gap


def test_member_is_sampled_on_its_exponent_annulus():
    # member 0.5 assembles on (0.6, 1/0.6), off the certified annulus but inside
    # B*'s 0.5 < |z| < 2, where its exponent is analytic: the operator is the
    # same, so its leading 8 eigenvalues are the certified annulus's to roundoff
    member = _homotopy().member(0.5)
    wide = eigenvalues(assemble_dual(member, Annulus(0.6, 1 / 0.6), 64)).eigenvalues
    assert match_multiset(_member_spectrum(0.5)[:8], wide, 1e-8, slack=1) <= 1e-8
    for R in (2.0, 2.5):
        with pytest.raises(ValueError, match=r"strip \|Im theta\| < 0\.693147, the annulus 0\.5 < \|z\| < 2$"):
            assemble_dual(member, Annulus(0.6, R), 64)
