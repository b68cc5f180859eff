import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_coeff, residue_sum
from ruelle.numerics import (
    TAIL_TOL,
    circle_integral,
    circle_nodes,
    fourier_coeffs_from_samples,
    half_spectrum_from_samples,
    laurent,
    unresolved_tails,
)


def _coeffs(f, radius, K):
    """Fourier coefficients of f sampled at K nodes of |z| = radius; c[m]
    is the coefficient of z^m / radius^m for m in [-K/2, K/2)."""
    return fourier_coeffs_from_samples(f(circle_nodes(radius, K)), radius)


def test_monomial_coefficient():
    c = _coeffs(lambda z: z, 0.8, 16)
    assert c.shape == (16,)
    assert c[1] == pytest.approx(0.8, abs=1e-14)
    others = [c[m] for m in range(-8, 8) if m != 1]
    assert max(abs(x) for x in others) < 1e-14


def test_constant_coefficient():
    c = _coeffs(lambda z: np.ones_like(z), 1.7, 32)
    assert c[0] == pytest.approx(1.0, abs=1e-15)
    assert all(abs(c[m]) < 1e-15 for m in range(-16, 16) if m != 0)


def test_square_on_outer_circle():
    # direct evaluation: 1.25^2 = 1.5625
    c = _coeffs(lambda z: z**2, 1.25, 32)
    assert c[2] == pytest.approx(1.5625, abs=1e-13)
    assert max(abs(c[m]) for m in range(-16, 16) if m != 2) < 1e-13


def test_matches_brute_force_dft():
    f = lambda z: np.exp(z) / (2.5 - z)
    c = _coeffs(f, 1.1, 64)
    for m in (-5, -1, 0, 3, 10):
        assert c[m] == pytest.approx(brute_force_coeff(f, 1.1, m, K=64), abs=1e-13)


def test_doubling_stability_for_trig_polynomials():
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)

    def f(z):
        return sum(c * z ** (k - 3) for k, c in enumerate(coeffs))

    c1 = _coeffs(f, 0.9, 64)
    c2 = _coeffs(f, 0.9, 128)
    for m in range(-8, 8):
        assert abs(c1[m] - c2[m]) < 1e-13


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([0.5, 1.0, 1.4]),
)
def test_parseval(coeffs, radius):
    def f(z):
        return sum(c * z**k for k, c in enumerate(coeffs))

    K = 64
    c = _coeffs(f, radius, K)
    samples = f(circle_nodes(radius, K))
    lhs = float(np.sum(np.abs(c) ** 2))
    rhs = float(np.mean(np.abs(samples) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_rejects_bad_sample_counts():
    for K in (4, 12, 100):
        with pytest.raises(ValueError, match="power of two"):
            _coeffs(lambda z: z, 1.0, K)
    with pytest.raises(ValueError, match="K=4 too small for circle quadrature"):
        circle_integral(lambda z: z, 1.0, 4)


def test_rejects_non_finite_sample():
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite sample"):
        _coeffs(lambda z: 1.0 / (z - 1.0), 1.0, 16)
    with pytest.raises(ValueError, match="angle"):
        circle_integral(lambda z: 1.0 / (z - 1.0), 1.0, 16)


def test_nodes_are_a_fresh_array_per_call():
    # the roots of unity behind circle_nodes are shared per K: a caller's
    # write into its nodes must not reach the next caller
    z = circle_nodes(1.0, 64)
    z[:] = 0.0
    assert circle_nodes(1.0, 64)[0] == 1.0
    assert np.array_equal(circle_nodes(0.8, 64), 0.8 * np.exp(2j * np.pi * np.arange(64) / 64))


def test_residue_at_origin():
    assert circle_integral(lambda z: 1.0 / z, 1.0, 64) == pytest.approx(1.0, abs=1e-14)


def test_no_residue_for_monomials():
    for k in range(0, 4):
        val = circle_integral(lambda z, k=k: z**k, 0.8, 64)
        assert abs(val) < 1e-14


def test_cancelling_residues():
    # 1/(z^2 - z) = -1/z + 1/(z-1): residues -1 at 0 and +1 at 1, both inside
    oracle = residue_sum([(0.0, -1.0), (1.0, 1.0)], radius=1.25)
    assert oracle == 0.0
    val = circle_integral(lambda z: 1.0 / (z**2 - z), 1.25, 256)
    assert val == pytest.approx(oracle, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
        max_size=6,
    )
)
def test_laurent_integral_extracts_minus_one_coefficient(coeffs):
    def f(z):
        out = np.zeros_like(z)
        for k, c in coeffs.items():
            out = out + c * z**k
        return out

    val = circle_integral(f, 1.1, 64)
    assert val == pytest.approx(coeffs.get(-1, 0.0), abs=1e-12)


def test_folded_coefficients():
    # the coefficient of z^-1 / 2^-1 sits at the last array position
    c = _coeffs(lambda z: z + 2 / z, 2.0, 16)
    assert isinstance(c, np.ndarray)
    assert c[1] == pytest.approx(2.0, abs=1e-14)
    assert c[-1] == c[15] == pytest.approx(1.0, abs=1e-14)
    assert max(abs(c[m]) for m in range(-8, 8) if m not in (-1, 1)) < 1e-14


class TestStackedSamples:
    """A (rows, K) array is transformed row by row along its last axis."""

    def _stack(self, rows=5, K=64):
        rng = np.random.default_rng(3)
        return rng.standard_normal((rows, K)) + 1j * rng.standard_normal((rows, K))

    def test_rows_match_one_dimensional_calls(self):
        stack = self._stack()
        c = fourier_coeffs_from_samples(stack, 0.9)
        assert c.shape == stack.shape
        for i, row in enumerate(stack):
            assert np.array_equal(c[i], fourier_coeffs_from_samples(row, 0.9))

    def test_forward_scaling_matches_division_up_to_signed_zeros(self):
        # norm="forward" multiplies each component by the exact 1/K and keeps
        # a -0.0, where dividing a complex array by K can return +0.0 (the
        # -ones row's coefficient 0 is -1-0j here, -1+0j after the division);
        # every nonzero word is the same
        K = 64
        rng = np.random.default_rng(5)
        stack = np.array([
            np.ones(K), -np.ones(K), np.full(K, -0.0),
            rng.standard_normal(K), 1j * rng.standard_normal(K), -1j * np.ones(K),
            np.cos(2 * np.pi * np.arange(K) / K), np.exp(2j * np.pi * np.arange(K) / K),
            (rng.standard_normal(K) + 1j * rng.standard_normal(K)) * 1e-310,
        ], dtype=complex)
        got = fourier_coeffs_from_samples(stack, 0.9).view(np.float64)
        want = (np.fft.fft(stack) / K).view(np.float64)
        differ = got.view(np.uint64) != want.view(np.uint64)
        assert np.all(got[differ] == 0) and np.all(want[differ] == 0)
        assert np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))

    def test_in_place_keeps_the_bits(self):
        # out= is the samples themselves: the coefficients overwrite them
        stack = self._stack()
        want = fourier_coeffs_from_samples(stack, 0.9)
        assert fourier_coeffs_from_samples(stack, 0.9, out=stack) is stack
        assert stack.tobytes() == want.tobytes()

    def test_non_finite_sample_quotes_its_angle(self):
        stack = self._stack()
        stack[3, 5] = np.nan
        angle = 2 * np.pi * 5 / 64
        with pytest.raises(ValueError, match=f"non-finite sample .* at angle {angle:.8f}"):
            fourier_coeffs_from_samples(stack, 0.9)


def _unfold(x):
    """The full FFT-layout coefficients c[m] = Re X[m] - Im X[m],
    c[-m] = Re X[m] + Im X[m] of a half spectrum X, m = 0..K/2."""
    return np.concatenate([x.real - x.imag, (x.real + x.imag)[..., -2:0:-1]], axis=-1)


class TestRealCoeffs:
    """The real FFT of folded samples h = Re f + Im f gives, as a half
    spectrum, the Fourier coefficients of an f with real coefficients."""

    @pytest.mark.parametrize("K", [8, 64, 1024])
    def test_recovers_real_laurent_polynomial(self, K):
        rng = np.random.default_rng(K)
        degrees = np.arange(-(K // 2 - 1), K // 2)  # degree < K/2 either way
        coeffs = rng.standard_normal(len(degrees))
        # f = sum c_m (z / radius)^m at the nodes, with exactly reduced phases
        phase = np.exp(2j * np.pi * (np.outer(np.arange(K), degrees) % K) / K)
        f = phase @ coeffs
        radius = 0.8
        x = half_spectrum_from_samples(f.real + f.imag, radius)
        assert x.dtype == np.complex128 and x.shape == (K // 2 + 1,)
        assert x.imag[0] == 0 and x.imag[K // 2] == 0
        c = _unfold(x)
        assert np.abs(c[degrees] - coeffs).max() < 1e-13
        assert np.abs(c[K // 2]) < 1e-13  # no z^{-K/2} term
        assert np.abs(c - fourier_coeffs_from_samples(f, radius)).max() < 1e-13

    def test_rows_match_one_dimensional_calls(self):
        stack = np.random.default_rng(4).standard_normal((5, 64))
        x = half_spectrum_from_samples(stack, 0.9)
        assert x.shape == (5, 33)
        for i, row in enumerate(stack):
            assert np.array_equal(x[i], half_spectrum_from_samples(row, 0.9))

    def test_out_keeps_the_bits(self):
        # out= takes leading rows of a larger buffer, as the assembly passes it
        stack, buffer = np.random.default_rng(4).standard_normal((5, 64)), np.empty((7, 33), complex)
        x = half_spectrum_from_samples(stack, 0.9, out=buffer[:5])
        assert np.shares_memory(x, buffer)
        assert x.tobytes() == half_spectrum_from_samples(stack, 0.9).tobytes()

    def test_rejects_bad_sample_counts(self):
        for K in (4, 12, 100):
            with pytest.raises(ValueError, match=f"sample count K={K} must be a power of two"):
                half_spectrum_from_samples(np.ones(K), 1.0)

    def test_non_finite_sample_quotes_its_angle(self):
        stack = np.random.default_rng(6).standard_normal((5, 64))
        stack[3, 5] = np.inf
        angle = 2 * np.pi * 5 / 64
        with pytest.raises(ValueError, match=f"non-finite sample .* at angle {angle:.8f}"):
            half_spectrum_from_samples(stack, 0.9)
        with pytest.raises(ValueError, match=f"non-finite sample .* at angle {angle:.8f}"):
            fourier_coeffs_from_samples(stack, 0.9)

    def test_monitor_magnitude_is_the_larger_coefficient(self):
        # |Re X[m]| + |Im X[m]| = max(|c[m]|, |c[-m]|) bit for bit, which
        # lets the assembly monitor the half spectrum instead of c
        x = half_spectrum_from_samples(np.random.default_rng(8).standard_normal((5, 64)), 0.9)
        c, h = np.abs(_unfold(x)), 32
        larger = np.maximum(c[:, : h + 1], np.concatenate([c[:, :1], c[:, : h - 1 : -1]], axis=1))
        assert np.array_equal(np.abs(x.real) + np.abs(x.imag), larger)


def _power_sum(pos, neg, z):
    """Direct evaluation of sum_k pos[k-1] z^k + neg[k-1] z^-k and its derivative."""
    value = sum(c * z**k for k, c in enumerate(pos, 1)) + sum(
        c * z ** (-k) for k, c in enumerate(neg, 1)
    )
    slope = sum(k * c * z ** (k - 1) for k, c in enumerate(pos, 1)) - sum(
        k * c * z ** (-k - 1) for k, c in enumerate(neg, 1)
    )
    return value + 0 * z, slope + 0 * z  # an empty sum is the scalar 0


class TestLaurent:
    """Horner evaluation of Laurent polynomials against a direct power sum."""

    @pytest.mark.parametrize("radius", [0.7, 1.0, 1.4])
    @pytest.mark.parametrize("npos,nneg", [(6, 4), (0, 5), (7, 0), (1, 1), (0, 0)])
    def test_matches_power_sum(self, radius, npos, nneg):
        rng = np.random.default_rng(100 * npos + nneg)
        pos = rng.standard_normal(npos) + 1j * rng.standard_normal(npos)
        neg = rng.standard_normal(nneg) + 1j * rng.standard_normal(nneg)
        z = radius * np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        value, slope = laurent(pos, neg, z)
        want_value, want_slope = _power_sum(pos, neg, z)
        assert value.shape == slope.shape == z.shape
        np.testing.assert_allclose(value, want_value, rtol=1e-13)
        np.testing.assert_allclose(slope, want_slope, rtol=1e-13)

    def test_origin_without_negative_powers(self):
        # no 1/z is formed when there are no negative powers, so z = 0 is fine
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, slope = laurent(np.array([2.0, 3.0j]), np.array([]), np.array([0j, 0.5]))
        assert value[0] == 0 and slope[0] == 2.0
        assert value[1] == pytest.approx(1.0 + 0.75j, rel=1e-15)
        assert slope[1] == pytest.approx(2.0 + 3j, rel=1e-15)


class TestUnresolvedTails:
    K = 64

    def _rows(self):
        # real coefficients a^m (m >= 0) and b^|m| (m < 0), in numpy's FFT order
        m = np.fft.fftfreq(self.K, 1 / self.K)
        ab = [(0.9, 0.5), (0.1, 0.2), (0.5, 0.95), (0.2, 0.25)]
        return np.array([np.where(m >= 0, a ** np.abs(m), b ** np.abs(m)) for a, b in ab])

    def test_folded_magnitudes_give_the_full_verdict(self):
        c = self._rows()
        full = np.abs(c)
        half = self.K // 2 + 1
        folded = np.maximum(full[:, :half], full[:, -np.arange(half) % self.K])
        noise = np.array([1e-16, 2e-16, 3e-16, 4e-16])
        tail, floor = unresolved_tails(full, self.K, noise)
        assert len(tail) == 2  # rows 0 and 2; rows 1 and 3 decay below TAIL_TOL
        assert tail == pytest.approx([0.9**24, 0.95**24], rel=1e-12)
        np.testing.assert_array_equal(floor, noise[[0, 2]])  # max|c| = c_0 = 1
        for got, want in zip(unresolved_tails(folded, self.K, noise), (tail, floor)):
            np.testing.assert_array_equal(got, want)

    def test_complex_full_and_half_spectra_give_one_verdict(self):
        # the half spectrum X of the rows' real coefficients, c[+-m] = Re X[m] -+ Im X[m],
        # and the complex full spectrum read from it: |Re X[m]| + |Im X[m]| is
        # max(|c_m|, |c_-m|) bit for bit
        c, half = self._rows(), self.K // 2 + 1
        plus, minus = c[:, :half], c[:, -np.arange(half) % self.K]
        X = (plus + minus) / 2 + 1j * (minus - plus) / 2
        full = np.empty(c.shape, dtype=complex)
        full[:, :half], full[:, -np.arange(half) % self.K] = X.real - X.imag, X.real + X.imag
        noise = np.array([1e-16, 2e-16, 3e-16, 4e-16])
        tail, floor = unresolved_tails(full, self.K, noise)
        assert tail == pytest.approx([0.9**24, 0.95**24], rel=1e-12)  # rows 0 and 2
        for got, want in zip(unresolved_tails(X, self.K, noise), (tail, floor)):
            assert got.tobytes() == want.tobytes()

    def test_band_sum_over_noise_is_judged_by_modulus(self):
        # |c| = 5e-13 <= noise < |Re c| + |Im c| = 7e-13 on the band: the row passes
        # the screen, and its full magnitudes resolve it (tail 5e-13 <= floor)
        x = np.zeros(self.K, dtype=complex)
        x[0], x[self.K // 2] = 1.0, (3 + 4j) * 1e-13
        noise = 6e-13
        assert abs(x[self.K // 2]) <= noise < 7e-13 and 5e-13 > TAIL_TOL
        assert unresolved_tails(x, self.K, noise)[0].size == 0
        tail, floor = unresolved_tails(x, self.K, 4e-13)
        assert tail == pytest.approx([5e-13], rel=1e-15) and floor.tolist() == [4e-13]

    def test_scalar_noise_is_broadcast(self):
        c = self._rows()
        for noise in (1e-16, 1e-12):
            got = unresolved_tails(c, self.K, noise)
            want = unresolved_tails(c, self.K, np.full(len(c), noise))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert len(unresolved_tails(c, self.K, 1e-16)[0]) == 2

    def test_zero_row_is_resolved(self):
        with np.errstate(all="raise"):
            tail, floor = unresolved_tails(np.zeros((2, self.K)), self.K, 0.0)
            assert unresolved_tails(np.zeros(self.K), self.K, 1e-16)[0].size == 0
            for width in (self.K, self.K // 2 + 1):  # a full and a half spectrum
                assert unresolved_tails(np.zeros((2, width), complex), self.K, 0.0)[0].size == 0
        assert tail.size == floor.size == 0

    def test_tail_under_its_floor_is_resolved(self):
        mag = np.zeros(self.K)
        mag[0], mag[self.K // 2] = 2.0, 2e-12  # tail 1e-12, above TAIL_TOL
        assert 1e-12 > TAIL_TOL
        assert unresolved_tails(mag, self.K, 2e-10)[0].size == 0  # floor 1e-10
        tail, floor = unresolved_tails(mag, self.K, 2e-13)  # floor 1e-13
        assert (tail.tolist(), floor.tolist()) == ([1e-12], [1e-13])
