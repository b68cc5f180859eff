"""Eigenvalue extraction, truncation-convergence control and the
eigenvalue decay fit."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .maps import Annulus
from .operators import TruncatedOperator, assemble_dual

__all__ = [
    "DecayFit",
    "Spectrum",
    "converged_spectrum",
    "decay_fit",
    "eigenvalues",
]


MATCH_ROWS = 32  # rows of the distance table that _leading_match forms at once
TIE_RTOL = 1e-9  # moduli this close (relative) tie in _sorted_desc
SAME_RTOL = 1e-6  # values this close (relative) are one eigenvalue in _sorted_desc


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, sorted by decreasing modulus (ties by increasing argument in
    (-pi, pi]; moduli within a relative TIE_RTOL tie, so a computed conjugate
    pair is ordered by argument, not by the last bits of its moduli), of
    ``operator`` (None for given eigenvalues).  converged_count counts the
    leading run stable under truncation doubling (None if unassessed)."""

    eigenvalues: np.ndarray
    operator: TruncatedOperator | None
    converged_count: int | None = None
    tol: float | None = None

    def converged(self) -> np.ndarray:
        n = len(self.eigenvalues) if self.converged_count is None else self.converged_count
        return self.eigenvalues[:n]


def _ties(x: np.ndarray, rtol: float) -> np.ndarray:
    """Tie group of each entry of ``x``: a new group starts at every entry
    farther than rtol |previous| from the previous one."""
    prev = np.concatenate([x[:1], x[:-1]])
    return np.cumsum(np.abs(x - prev) > rtol * np.abs(prev))


def _sorted_desc(vals: np.ndarray) -> np.ndarray:
    """``vals`` by decreasing modulus, ties by increasing argument.  Moduli
    next to each other in that order tie when they agree within TIE_RTOL, so
    the members of a computed conjugate pair, whose moduli differ in their
    last bits, keep the order of their arguments.  Values that agree within
    SAME_RTOL, one eigenvalue computed twice, keep the exact order."""
    vals = vals[np.lexsort((np.angle(vals), -np.abs(vals)))]
    vals = vals[np.lexsort((np.angle(vals), _ties(np.abs(vals), TIE_RTOL)))]
    return vals[np.lexsort((-np.abs(vals), _ties(vals, SAME_RTOL)))]


def _lower_triangular(nz: np.ndarray) -> bool:
    """Whether no column of the boolean pattern ``nz`` has its first True,
    found by ``argmax`` along the column (contiguous here), above the diagonal."""
    if not nz.size:
        return True
    j = np.arange(nz.shape[1])
    first = nz.argmax(axis=0)
    return not (nz[first, j] & (first < j)).any()


def _pattern_eigenvalues(a: np.ndarray, nz: np.ndarray, nplus: int) -> np.ndarray | None:
    """The eigenvalues that the zero pattern ``nz = a != 0`` of a finite
    ``a`` gives in closed form (see ``eigenvalues``), or None when it has
    neither pattern.  Each test costs O(n^2) at most; a generic matrix fails
    the anti-product one at row 0."""
    if _lower_triangular(nz):
        return np.diag(a)
    if (
        nz[0, 1:].any()
        or nz[1:, 0].any()
        or nz[1:nplus, 1:nplus].any()
        or nz[nplus:, nplus:].any()
        or not _lower_triangular(nz[1:nplus, nplus:])
        or not _lower_triangular(nz[nplus:, 1:nplus])
    ):
        return None
    X, Y = a[1:nplus, nplus:], a[nplus:, 1:nplus]
    nu = np.asarray(X.diagonal() * Y.diagonal(), dtype=complex)
    root = np.sqrt(nu[nu != 0])
    vals = np.zeros(len(a), dtype=complex)
    vals[0] = a[0, 0]
    vals[1 : 1 + 2 * len(root)] = np.concatenate([root, 0 - root])  # -x keeps angle +pi
    return vals


def _unisolated(nz: np.ndarray) -> np.ndarray:
    """Mask of the indices whose eigenvalues no symmetric permutation of the
    pattern ``nz`` isolates.  Round by round, every index still in the mask
    whose row or column has no off-diagonal True among the indices in the
    mask leaves it; its diagonal entry is then an eigenvalue.  One round
    costs two products of the pattern with the mask, which count each row's
    and column's Trues among the indices in the mask (exactly, in float32,
    for any n below 2^24)."""
    f = nz.astype(np.float32)
    d = f.diagonal()
    keep = np.ones(len(f), dtype=bool)
    while True:
        w = keep.astype(np.float32)
        lone = keep & ((f @ w == d) | (w @ f == d))
        if not lone.any():
            return keep
        keep &= ~lone


def eigenvalues(T: TruncatedOperator) -> Spectrum:
    """All eigenvalues of the truncated matrix, sorted, complex on every path.

    A finite matrix with one of two zero patterns returns its spectrum
    without a dense solve; any other matrix has every eigenvalue that
    permutations isolate read off its diagonal, and ``np.linalg.eigvals``
    solves the rest.  A matrix with a NaN or infinite entry raises.

    - Lower triangular: the diagonal.  This is exact, not an approximation:
      the eigenvalues of a triangular matrix are its diagonal entries, and
      LAPACK's balancing step isolates every one of them by permutation
      alone, so ``eigvals`` returns these same numbers bit for bit after an
      O(n^3) scan.  Maps that fix 0 and infinity (Blaschke products with a
      zero at 0, the Mobius family) assemble a lower-triangular adjoint,
      since tau^n vanishes to order n at 0 and tau^-n to order n at
      infinity; its diagonal holds 1 and the powers of tau'(0) and their
      conjugates.
    - Anti-product: row 0 and column 0 vanish off the diagonal, both
      diagonal blocks vanish, and the blocks X = a[1:nplus, nplus:] and
      Y = a[nplus:, 1:nplus] are lower triangular.  Anti-Blaschke products
      with a zero at 0 assemble this, since they swap 0 and infinity.  The
      spectrum is then a[0, 0] together with that of [[0, X], [Y, 0]],
      whose eigenvalues are +-sqrt(nu) for the eigenvalues nu of the
      smaller of XY and YX, and zeros up to the dimension.  Both products
      are lower triangular with diagonal X_ii Y_ii, i < min(X.shape), so
      each eigenvalue is one product and one square root of matrix
      entries, correct to a few ulps of the matrix's exact eigenvalue;
      ``eigvals`` on this non-normal matrix loses digits to the
      eigenvalues' condition numbers instead.
    - Any other pattern: the permutation step of Parlett and Reinsch's
      balancing (Numer. Math. 13, 1969).  An index whose row or column has
      no off-diagonal nonzero among the indices not yet isolated has its
      diagonal entry as an eigenvalue, exactly: moved to the end (a row)
      or to the front (a column), it leaves the matrix block triangular.
      ``_unisolated`` isolates such indices in batches until none is left,
      and ``eigvals`` solves only the remaining core, gathered in index
      order.  LAPACK's balancing searches for the same permutations, but
      restarts its scan after every index it isolates; for a TrigLift on
      (0.8, 1.25) at dimension 512, whose core is 26, that search took
      most of the full-size solve.  A matrix with nothing to isolate goes
      to ``eigvals`` whole.
    """
    a = T.matrix
    if not np.isfinite(a).all():
        raise RuntimeError("eigensolver failed (non-finite matrix)")
    nz = a != 0
    vals = _pattern_eigenvalues(a, nz, T.nplus)
    if vals is None:
        keep = _unisolated(nz)
        core = a[np.ix_(keep, keep)]
        try:
            solved = np.linalg.eigvals(core)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(core))
            raise RuntimeError(f"eigensolver failed (condition estimate {cond:.3g})") from exc
        vals = np.concatenate([a.diagonal()[~keep], solved])
    return Spectrum(_sorted_desc(vals.astype(complex)), T)


def _leading_match(primary: np.ndarray, other: np.ndarray, tol: float) -> int:
    """Length of the leading run of ``primary`` matched greedily (by nearest
    unused value) within tol in ``other``.  The distances are formed for
    MATCH_ROWS values of ``primary`` at a time, with used values masked by inf."""
    lams = primary[: len(other)]
    used = np.zeros(len(other), dtype=bool)
    for start in range(0, len(lams), MATCH_ROWS):
        dist = np.abs(other - lams[start : start + MATCH_ROWS, None])
        dist[:, used] = np.inf
        for i, row in enumerate(dist):
            j = row.argmin()
            if row[j] > tol:
                return start + i
            used[j] = True
            dist[i + 1 :, j] = np.inf
    return len(lams)


def converged_spectrum(
    m,
    annulus: Annulus,
    tol: float = 1e-9,
    max_order: int = 256,
    want: int = 10,
) -> Spectrum:
    """Assemble the symmetric truncation (n, n - 1) at doubling orders n
    from 32 until the leading ``want`` eigenvalues are stable within tol;
    returns the finest spectrum, with its operator and converged count (at
    most n - 1 at order n: every eigenvalue of the level below)."""
    if not 0 < tol < np.inf:  # NaN included
        raise ValueError(f"tol must be positive, got tol={tol}")
    if max_order < 64:
        raise ValueError(f"max_order {max_order} must be at least 64")
    best = None
    n = 32
    # each level's fine eigenvalues, not its operator, are the next level's coarse ones
    coarse = eigenvalues(assemble_dual(m, annulus, n)).eigenvalues
    while 2 * n <= max_order:
        fine = eigenvalues(assemble_dual(m, annulus, 2 * n))
        count = _leading_match(fine.eigenvalues, coarse, tol)
        fine = Spectrum(fine.eigenvalues, fine.operator, count, tol)
        if best is None or count > (best.converged_count or 0):
            best = fine
        if count >= want:
            return fine
        coarse, n = fine.eigenvalues, 2 * n
    warnings.warn(
        f"spectrum not converged to tol={tol:g} for {want} eigenvalues "
        f"up to truncation {n}",
        RuntimeWarning,
        stacklevel=2,
    )
    return best


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of |lambda_n| ~ exp(-c n^beta) over the converged
    sub-unit eigenvalues: log(-log|lambda_n|) regressed on log n."""

    beta: float
    c: float
    r2: float


def decay_fit(s: Spectrum) -> DecayFit:
    """Fit |lambda_n| ~ exp(-c n^beta) to the usable converged eigenvalues:
    those at index n >= 2 with modulus in (max(1e-12, 10 tol), 1 - 1e-9),
    the floor 1e-12 alone when the spectrum has no tol.  Fewer than 6 of
    them raise ValueError (a finite-spectrum signal): the spectrum is
    finite, and its determinant has order exactly 1."""
    mods = np.abs(s.converged())
    floor = max(1e-12, 10 * s.tol) if s.tol is not None else 1e-12
    n = np.arange(1, len(mods) + 1)
    idx = n[(mods > floor) & (mods < 1 - 1e-9) & (n >= 2)]
    if len(idx) < 6:
        raise ValueError(
            f"only {len(idx)} usable eigenvalues (< 6): finite-spectrum signal"
        )
    x = np.log(idx)
    y = np.log(-np.log(mods[idx - 1]))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(float(slope), float(np.exp(intercept)), r2)
