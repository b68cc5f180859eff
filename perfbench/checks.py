"""Independent result checks for the benchmark.

Nothing here calls the closed-form helpers of ``ruelle.traces``: the
Blaschke oracles are rebuilt from the map parameters (alpha, zeros, anti)
with this module's own fixed-point search, so a defect in the package's
closed forms cannot pass its own check.  Maps without a closed form are
checked by lambda_1 = 1 and by trace identities against references that
this module computes (trapezoidal contour traces, eigenvalue power sums).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Tolerances are the guarantees the package states in its README and pins
# in its acceptance suite: lambda_1 and the mu = -1/2 sequence (top 11) to
# 1e-8; seeded products and anti-Blaschke patterns to 1e-6 on the top 8;
# trace and determinant route agreement to 1e-7 and 1e-8.  Closed-form
# evaluations must agree to roundoff.
EIG_TOL = 1e-8
SEEDED_EIG_TOL = 1e-6
SEEDED_EIG_COUNT = 8
TRACE_TOL = 1e-7
DET_TOL = 1e-8
CLOSED_TOL = 1e-12


class CheckFailed(Exception):
    """An operation returned a result that misses its check."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- oracles


class BlaschkeOracle:
    """Spectrum, traces and determinant of an (anti-)Blaschke transfer
    operator from its interior multiplier.

    Blaschke: spectrum {1} + {mu^k, conj(mu)^k : k >= 1}, mu = B'(z0) at the
    attracting fixed point z0 in the disk.  Anti-Blaschke 1/B: the second
    iterate is conj(B)(B(z)) and the spectrum is {1} + {+-mu^k}, with mu the
    square root of that iterate's multiplier.
    """

    def __init__(self, alpha: complex, zeros, anti: bool):
        self.alpha = complex(alpha)
        self.zeros = [complex(a) for a in zeros]
        self.anti = bool(anti)
        self.mu = self._multiplier()

    @classmethod
    def from_descriptor(cls, desc: dict):
        if desc["type"] == "blaschke":
            return cls(complex(*desc["alpha"]), [complex(*a) for a in desc["zeros"]], desc["anti"])
        if desc["type"] == "mobius" and desc["w"][1] == 0 and 0 <= desc["w"][0] <= 1:
            # z (2z - w)/(2 - wz) = z (z - w/2)/(1 - (w/2) z) for real w
            return cls(1.0, [0.0, desc["w"][0] / 2], False)
        return None

    def _blaschke(self, z, conj=False):
        """B(z) and B'(z) by the product rule (conj: conjugated parameters)."""
        alpha = self.alpha.conjugate() if conj else self.alpha
        value, deriv = alpha, 0j
        for a in self.zeros:
            a = a.conjugate() if conj else a
            u = (z - a) / (1 - a.conjugate() * z)
            du = (1 - abs(a) ** 2) / (1 - a.conjugate() * z) ** 2
            value, deriv = value * u, deriv * u + value * du
        return value, deriv

    def _map(self, z):
        """The map whose disk fixed point carries the multiplier, with its
        derivative: B itself, or conj(B) o B for the anti case."""
        b, db = self._blaschke(z)
        if not self.anti:
            return b, db
        c, dc = self._blaschke(b, conj=True)
        return c, dc * db

    def _multiplier(self) -> complex:
        z = 0j
        for _ in range(2000):
            zn = self._map(z)[0]
            if abs(zn - z) < 1e-12:
                z = zn
                break
            z = zn
        for _ in range(50):
            f, df = self._map(z)
            if abs(f - z) <= 1e-15:
                break
            z -= (f - z) / (df - 1)
        f, df = self._map(z)
        if abs(z) >= 1 or abs(f - z) > 1e-12:
            raise ValueError("oracle: no attracting fixed point in the disk")
        if self.anti:
            return complex(math.sqrt(abs(df)))
        return complex(df)

    def spectrum(self, count: int) -> np.ndarray:
        """Leading ``count`` eigenvalues, in the package's order (modulus
        descending, then argument ascending)."""
        mu = self.mu
        vals = [1.0 + 0j]
        k = 1
        while len(vals) < count + 2:
            vals.append(mu**k)
            vals.append(-(mu**k) if self.anti else mu.conjugate() ** k)
            k += 1
        vals = np.array(vals)
        return vals[np.lexsort((np.angle(vals), -np.abs(vals)))][:count]

    def trace(self, n: int) -> complex:
        """Tr(L^n) = sum of lambda^n over the spectrum (geometric series)."""
        q = self.mu**n
        if self.anti:
            return 1 + (1 + (-1) ** n) * q / (1 - q)
        qc = q.conjugate()
        return 1 + q / (1 - q) + qc / (1 - qc)

    def _factors(self, k: int):
        m = self.mu**k
        return (m, -m) if self.anti else (m, m.conjugate())

    def det(self, z: complex) -> complex:
        """det(I - zL) = (1 - z) prod_k (1 - a_k z)(1 - b_k z)."""
        z = complex(z)
        value = 1 - z
        k = 1
        while abs(self.mu) ** k * max(abs(z), 1.0) > 1e-18 and k < 10000:
            a, b = self._factors(k)
            value *= (1 - a * z) * (1 - b * z)
            k += 1
        return value

    def log_abs_det_exp(self, zeta: float) -> float:
        """log|det(I - e^zeta L)| summed factor by factor in log space."""

        def log_abs_1m_exp(s: complex) -> float:
            if s.real > 0:
                return s.real + math.log(abs(1 - cmath.exp(-s)))
            return math.log(abs(1 - cmath.exp(s)))

        total = log_abs_1m_exp(complex(zeta))
        if self.mu == 0:
            return total
        k = 1
        while k * -math.log(abs(self.mu)) < zeta + 45:
            for f in self._factors(k):
                total += log_abs_1m_exp(zeta + cmath.log(f))
            k += 1
        return total


def contour_trace(m, omega: int, r: float, R: float, K: int = 4096) -> complex:
    """Tr L by the trapezoidal rule on the two boundary circles:
    omega * (1/2 pi i) [int_{|z|=R} - int_{|z|=r}] dz / (tau(z) - z)."""
    total = 0j
    for rho, sign in ((R, 1), (r, -1)):
        z = rho * np.exp(2j * np.pi * np.arange(K) / K)
        total += sign * np.mean(z / (m.eval(z) - z))
    return omega * complex(total)


def power_sums(eigs, nmax: int) -> np.ndarray:
    """p_n = sum_k lambda_k^n for n = 1..nmax."""
    eigs = np.asarray(eigs, dtype=complex)
    return np.array([np.sum(eigs**n) for n in range(1, nmax + 1)])


def det_from_power_sums(p, z: complex) -> complex:
    """det(I - zL) = exp(-sum z^n p_n / n)."""
    return complex(np.exp(-sum(z**n / n * p[n - 1] for n in range(1, len(p) + 1))))


# ----------------------------------------------------------------- checks


def close(a, b, tol: float, what: str):
    err = abs(complex(a) - complex(b))
    require(err <= tol * max(1.0, abs(complex(b))), f"{what}: |{a} - {b}| = {err:.3g} > {tol:g}")


def match_leading(computed, expected, tol: float, what: str):
    """Greedy nearest matching of ``expected`` within the first
    len(expected) + 1 computed values (one slot of slack for a cut through
    an equal-modulus pair)."""
    pool = np.array(computed[: len(expected) + 1], dtype=complex)
    used = np.zeros(len(pool), dtype=bool)
    require(len(pool) >= len(expected), f"{what}: only {len(pool)} eigenvalues")
    for lam in expected:
        dist = np.abs(pool - lam)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        require(dist[j] <= tol, f"{what}: expected eigenvalue {lam:.12g} missing (nearest {dist[j]:.3g})")
        used[j] = True


def check_spectrum(eigs, converged: int, oracle, ref_trace, what: str,
                   count: int = SEEDED_EIG_COUNT, tol: float = SEEDED_EIG_TOL):
    """lambda_1 = 1; the leading ``count`` eigenvalues (at most the
    converged ones) match the oracle where one exists; the eigenvalue sum,
    which is the matrix trace, matches the reference trace within TRACE_TOL
    plus the mass of the eigenvalues not reported converged (a truncation
    that has not converged does not claim the trace)."""
    eigs = np.asarray(eigs)
    close(eigs[0], 1.0, EIG_TOL, f"{what} lambda_1")
    if oracle is not None:
        match_leading(eigs, oracle.spectrum(min(int(converged), count)), tol, what)
    unconverged = float(np.sum(np.abs(eigs[int(converged):])))
    err = abs(np.sum(eigs) - ref_trace)
    require(err <= TRACE_TOL * max(1.0, abs(ref_trace)) + unconverged,
            f"{what}: matrix trace {np.sum(eigs):.12g} vs reference trace {ref_trace:.12g} "
            f"(error {err:.3g}, unconverged mass {unconverged:.3g})")


def check_singular_values(sv, matrix, what: str):
    """Decreasing, sigma_1 >= spectral radius 1, and the squares sum to the
    Frobenius norm of the matrix."""
    sv = np.asarray(sv)
    require(np.all(np.diff(sv) <= 1e-12 * sv[0]), f"{what}: singular values not decreasing")
    require(sv[0] >= 1 - EIG_TOL, f"{what}: sigma_1 {sv[0]:.12g} below the spectral radius 1")
    fro = float(np.sum(np.abs(matrix) ** 2))
    close(float(np.sum(sv**2)), fro, 1e-10, f"{what} Frobenius identity")


def check_traces(table, reference, what: str):
    require(len(table) == len(reference), f"{what}: {len(table)} traces, expected {len(reference)}")
    for n, (t, ref) in enumerate(zip(table, reference), start=1):
        close(t, ref, TRACE_TOL, f"{what} Tr(L^{n})")
