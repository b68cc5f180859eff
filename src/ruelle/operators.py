"""Finite-rank discretisation of the adjoint transfer operator.

The adjoint acts on H^2(D_r) + H^2_0(D_R^inf) with orthonormal basis
e_m^(rho)(z) = z^m / rho^m: nonnegative powers scaled by r (the "plus"
block), negative powers scaled by R (the "minus" block).  Its matrix is a
compression of the composition operator f -> f o tau, built block-wise: a
block's inputs composed with tau, (tau/r)^n or (R/tau)^n, are sampled by
repeated products on a boundary circle (plus inputs on the circle tau maps
inward, minus inputs on the other), stacked as rows in chunks of at most
CHUNK_SAMPLES = 2^17 samples, expanded by one row FFT per chunk and
transported back into the two blocks, with the bits of a column-by-column
build; the matrix is column-major, as a column is one FFT row and LAPACK
reads columns.  Both sample symmetries below are judged by one agreement
rule (_agrees): samples x agree with y when every difference x - y is
finite and max|x - y| <= SNAP_TOL max|x|.  A map whose boundary samples v
agree with their mirror conj v[-j mod K], as for tau(conj z) = conj tau(z),
has real coefficients in every column and a real matrix: its rows are
stored folded, Re g + Im g, in a real chunk of half the bytes, and read
from the half spectrum X = rfft(folded) / K as c_{+-m} = Re X[m] -+ Im X[m],
0 <= m <= K/2, with |Re X[m]| + |Im X[m]| = max(|c_m|, |c_{-m}|) bit for bit
as the aliasing monitor's magnitude (rounding is sign-symmetric; Im X = 0
at m = 0, K/2).

Workspace: each pass allocates one, before its matrix, and both blocks share
it: the sample chunk, transformed in place when complex, and for a real chunk
one buffer for its half spectrum (allocated after the matrix, it left a heap
hole that a later, larger matrix could not reuse, and the peak RSS rose).

Reflection rule: a circle map, tau(1/conj z) = 1/conj tau(z), on an annulus
with r R = 1 has outward samples tm = 1/conj tp node by node, so its minus
input (R/tau)^n is the conjugate of its plus input (tau/r)^n and the
symmetric truncation (p, p - 1) satisfies M = P conj(M) P, with P: plus index
m <-> minus index m (1 <= m < p), each block's order kept, so P moves whole
blocks and is applied as slices.  When tm agrees with 1/conj tp, only the
plus block of (p, p - 1), p = max(nplus, nminus + 1), is sampled and
transformed; its minus block is copied as P conj(M) P, with the plus
columns' tails, and any other truncation gathered from it.

Transport rule (the single source of truth for radius powers): data g on a
circle of radius rho with coefficients g_m (of z^m / rho^m) lands in the
plus block at row m with weight g_m (r/rho)^m, and in the minus block at
row m >= 1 with weight g_{-m} (rho/R)^m.  Both weights are <= 1 for the
circles used here, so the assembly never amplifies roundoff, and a00 = 1 (the
constant 1 maps to itself) is the largest entry: column n >= 1 is at most b_n < 1.

Column bound: the samples g_n of column n, n products of step = tau/r or R/tau, have
max|g_n| <= b_n = max|step|^n up to their roundoff, and every entry of the column is at
most 2 b_n (1 + delta), delta = 4 (n + log2 K) eps (the weights are <= 1, |Re X| + |Im X|
<= 2 max|g_n| on the folded path, and delta covers the products, the fold and the FFT).
The assembly runs only past the inclusion verdict, so max|step| < 1 up to one rounding.
_assemble_block forms b_n once per block, before any FFT.  From the first power n* whose
bound is below SNAP_TOL (the snap horizon) the snap zeroes every entry, so those columns
are written +0 without being sampled or transformed, and the aliasing monitor judges the
columns below n* alone, against their samples' noise floor (n + 1) eps b_n.  It forms a
column's magnitudes on the tail band 3K/8 <= |m| <= K/2 first: a column whose band peaks at
or below its noise is resolved, and only the others' full magnitudes are formed (_unresolved,
then numerics.unresolved_tails).  A pass that leaves a column unresolved is redone at 2K, up
to numerics.MAX_SAMPLES: a given K is only where this doubling starts.

The entries decay geometrically away from a diagonal band, so the operator
is of exponential class and the matrix trace, eigenvalues and singular
values converge geometrically in the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import Annulus, _inclusions
from .numerics import (
    EPS, MAX_SAMPLES, circle_nodes, fourier_coeffs_from_samples, half_spectrum_from_samples,
    unresolved_tails,
)

__all__ = ["TruncatedOperator", "assemble_dual", "singular_values"]

# Entries below this in magnitude are roundoff from the FFT of analytically sparse
# columns (tau = z^d gives one per column); snapping them keeps the exact nilpotent
# structure and spurious eigenvalues at 0, not ~1e-4.  It is absolute (a00 = 1 is the
# largest entry: the column bound of the module notes); each column snaps as written,
# before the reflection copy.
SNAP_TOL = 1e-14

CHUNK_SAMPLES = 1 << 17  # per FFT call in the assembly: a complex workspace of 2 MB


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense truncation of the adjoint transfer operator.

    Rows/columns 0..nplus-1 are the plus block (e_m^(r), m = 0..nplus-1),
    followed by the minus block (e_{-m}^(R), m = 1..nminus); ``assemble_dual``
    defaults to the symmetric truncation nminus = nplus - 1, 2 nplus - 1 rows
    in all, on which the module notes state the reflection rule.  The matrix
    is column-major (a column is one FFT row, and LAPACK reads columns), and
    float64 when each boundary sample row agrees with its conjugate mirror
    (the agreement rule in the module notes), as for
    tau(conj z) = conj tau(z), whose adjoint is real; else complex128.
    """

    nplus: int
    nminus: int
    matrix: np.ndarray
    samples: int

    @property
    def size(self) -> int:
        return self.nplus + self.nminus


def _agrees(x, y) -> bool:
    """The agreement rule of the module notes; a non-finite sample never agrees."""
    with np.errstate(all="ignore"):
        diff = np.abs(x - y)
    return bool(np.isfinite(diff).all()) and diff.max() <= SNAP_TOL * np.abs(x).max()


def _workspace(K: int, powers: int, real: bool):
    """One pass's workspace, which its blocks share: a sample chunk of at most
    CHUNK_SAMPLES samples (at least one row, at most ``powers``), float64 on the real
    path with a complex buffer for its half spectrum, else complex128 and transformed
    in place."""
    rows = min(max(1, CHUNK_SAMPLES // K), powers)
    chunk = np.empty((rows, K), dtype=float if real else complex)
    return chunk, np.empty((len(chunk), K // 2 + 1), dtype=complex) if real else None


def _unresolved(x, K: int, noise):
    """numerics.unresolved_tails of the coefficient rows x, whose magnitudes are |c_m| (a
    full spectrum, K entries) or |Re X[m]| + |Im X[m]| (a half one), formed on the tail band
    3K/8 <= |m| <= K/2 first: a row whose band peaks at or below its noise is resolved
    (tail <= noise gives fl(tail / scale) <= fl(noise / scale)), so only the other rows'
    full magnitudes are formed and judged."""

    def magnitudes(rows):
        return np.abs(rows) if rows.shape[-1] == K else np.abs(rows.real) + np.abs(rows.imag)

    loud = magnitudes(x[:, 3 * K // 8 : 5 * K // 8 + 1]).max(axis=-1) > noise
    return unresolved_tails(magnitudes(x[loud]), K, noise[loud])


def _assemble_block(out, step, powers: range, rho, r, R, nplus, workspace):
    """Fill the rows of ``out``, the block's columns as rows of the transpose,
    from the samples g_n = g_{n-1} step, g_0 = 1, on |z| = rho for n in ``powers``
    (folded, Re g_n + Im g_n, for a real ``out``), in chunks of the rows of the pass's
    ``workspace`` (_workspace), the rows from the snap horizon on with +0; return the
    (tail, floor) of each unresolved column below it, both from the column bound of the
    module notes.  Plus row m < nplus is read from c[m] and minus row m <= nminus from
    c[-m]: Re X[m] -+ Im X[m] of the half spectrum, or entries m and K - m of the full one."""
    K = len(step)
    n = np.arange(powers.start, powers.stop)
    bound = float(np.abs(step).max()) ** n  # b_n
    horizon = np.append(2 * bound * (1 + 4 * (n + np.log2(K)) * EPS) < SNAP_TOL, True).argmax()
    out[horizon:] = 0.0  # the columns past the snap horizon
    nminus = out.shape[1] - nplus
    weight = np.r_[(r / rho) ** np.arange(nplus), (rho / R) ** np.arange(1, nminus + 1)]
    real = out.dtype == np.float64
    buffer, spectrum = workspace
    g = last = np.ones(K, dtype=complex)
    unresolved = []
    for start in range(0, horizon, len(buffer)):
        cut = slice(start, min(start + len(buffer), horizon))
        chunk = buffer[: cut.stop - start]
        for i, power in enumerate(n[cut]):
            if real:
                if power:
                    np.multiply(g, step, out=g)
                np.add(g.real, g.imag, out=chunk[i])
            elif power:  # into its chunk row, which the next power reads
                g = np.multiply(g, step, out=chunk[i])
            else:
                chunk[i] = g
        d = out[cut]
        if real:  # c[m] = Re X[m] - Im X[m], c[-m] = Re X[m] + Im X[m]
            x = half_spectrum_from_samples(chunk, rho, out=spectrum[: len(chunk)])
            re, im = x.real, x.imag
            np.subtract(re[:, :nplus], im[:, :nplus], out=d[:, :nplus])
            np.add(re[:, 1 : nminus + 1], im[:, 1 : nminus + 1], out=d[:, nplus:])
        else:  # in place, after keeping the row that the next chunk's products read
            last[:] = g
            g, x = last, fourier_coeffs_from_samples(chunk, rho, out=chunk)
            d[:, :nplus], d[:, nplus:] = x[:, :nplus], x[:, : -nminus - 1 : -1]  # c[-m] at K - m
        d *= weight
        d[np.abs(d) < SNAP_TOL] = 0.0  # the snap (notes of SNAP_TOL)
        unresolved += zip(*_unresolved(x, K, (n[cut] + 1) * EPS * bound[cut]))
    return unresolved


def assemble_dual(
    m,
    annulus: Annulus,
    nplus: int,
    nminus: int | None = None,
    K: int | None = None,
) -> TruncatedOperator:
    """Assemble the adjoint transfer operator at truncation (nplus, nminus),
    by default the symmetric one, nminus = nplus - 1: plus 0..nplus-1 and
    minus 1..nplus-1, the index sets that the reflection P swaps.

    Each block is built in row chunks of at most 2^17 samples, one FFT per
    chunk, with the bits of a column-by-column build.  One rule sets the
    sample count: it starts at K, by default max(256, 8N) rounded up to a
    power of two, and doubles until the aliasing monitor (module notes)
    resolves every column; a pass at K >= numerics.MAX_SAMPLES that leaves
    one unresolved raises, quoting the worst tail of both blocks and its
    floor.  A direct pass builds both blocks, resolved or not; a reflected
    one (module notes) copies its minus block once, from the accepted pass.
    The matrix is float64, read from the half spectrum of real FFTs of
    folded columns, iff each sample row v agrees with conj v[-j mod K].
    The rows are tau at the pass's K nodes on each boundary circle, judged
    after the integer checks by the inclusion test: 'none' is refused
    (ValueError naming the margin); plus inputs go on the circle tau maps
    inward.
    """
    nminus = nplus - 1 if nminus is None else nminus
    if min(nplus, nminus) < 0 or nplus == nminus == 0:
        raise ValueError(f"need nplus, nminus >= 0, not both 0; got {nplus}, {nminus}")
    k = 1 << (max(256, 8 * max(nplus, nminus)) - 1).bit_length() if K is None else K
    if k < 8 * max(nplus, nminus):
        raise ValueError(f"K={k} below 8*max(nplus, nminus)={8*max(nplus, nminus)}")

    r, R = annulus.r, annulus.R
    p = max(nplus, nminus + 1)  # the symmetric truncation (p, p - 1) holds (nplus, nminus)
    while True:
        check, (rho_plus, tp), (rho_minus, tm) = _inclusions(
            m, annulus, circle_nodes(r, k), circle_nodes(R, k)
        )
        if check.verdict == "none":
            raise ValueError(
                "map is not holomorphically expansive on the annulus "
                f"(margin {check.margin:.3g}); refusing assembly"
            )
        real = all(_agrees(v, np.conj(v[-np.arange(k)])) for v in (tp, tm))
        with np.errstate(all="ignore"):  # tp may vanish at a node
            reflected = _agrees(tm, 1 / np.conj(tp))
        size, plus = (2 * p - 1, p) if reflected else (nplus + nminus, nplus)
        workspace = _workspace(k, max(plus, nminus), real)  # before the matrix (module notes)
        cols = np.empty((size, size), dtype=float if real else complex, order="F")
        unresolved = _assemble_block(
            cols.T[:plus], tp / r, range(plus), rho_plus, r, R, plus, workspace
        )
        if not reflected:
            unresolved += _assemble_block(
                cols.T[nplus:], R / tm, range(1, nminus + 1), rho_minus, r, R, nplus, workspace
            )
        if not unresolved:
            break
        if k >= MAX_SAMPLES:
            tail, floor = max(unresolved)
            raise RuntimeError(
                f"aliasing tail {tail:.3g} (roundoff floor {floor:.3g}) unresolved at K={k}"
            )
        k *= 2  # the pass is redone at 2K, its matrix dropped

    if reflected:  # minus column m is plus column m in P (module notes), conjugated
        plus, minus = cols.T[1:p], cols.T[p:]
        minus[:, 0], minus[:, 1:p], minus[:, p:] = plus[:, 0], plus[:, p:], plus[:, 1:p]
        if not real:  # conjugated as 0 - Im, so snapped zeros stay +0, not -0
            np.subtract(0, minus.imag, out=minus.imag)
        if nminus != nplus - 1:  # entry (m, n) depends on K alone
            keep = np.r_[:nplus, p : p + nminus]
            cols = _gather(cols, keep, keep)
    return TruncatedOperator(nplus, nminus, cols, k)


def _gather(matrix, r, c):
    """matrix[r][:, c], gathered column by column, as LAPACK reads it."""
    return matrix.T[np.ix_(c, r)].T


def _reflected_plus(matrix, p):
    """The plus rows' block of the symmetric truncation (p, p - 1) without index 0,
    a view, when row 0 and column 0 hold a00 alone and the matrix splits into two
    blocks that P (module notes) swaps: the off-diagonal blocks vanish (B*, Mobius)
    or the diagonal ones do (anti-products), and the minus rows' block is, entry
    for entry, the plus rows' conjugate in P order; else None."""
    if matrix[0, 1:].any() or matrix[1:, 0].any():
        return None
    inner, outer = slice(1, p), slice(p, None)  # the plus and the minus indices >= 1
    plus, minus = matrix[inner], matrix[outer]
    for own, other in ((inner, outer), (outer, inner)):  # B*, Mobius; anti-products
        if plus[:, other].any() or minus[:, own].any():
            continue
        if np.array_equal(minus[:, other], plus[:, own].conj()):
            return plus[:, own]
    return None


def singular_values(T) -> np.ndarray:
    """Singular values of the truncated operator, decreasing, min(shape) of them.

    Two exact reductions keep zeros and repeats away from LAPACK:

    - On the symmetric truncation (nminus = nplus - 1) of a
      ``TruncatedOperator`` whose row 0 and column 0 hold a00 alone, and
      whose off-diagonal blocks (plus rows, minus columns and the reverse)
      or diagonal blocks vanish, with the minus rows' block equal, entry for
      entry, to the conjugate of the plus rows' block in P order (the
      reflection rule in the module notes), the matrix is {a00}, that plus
      rows' block and its conjugate, so one SVD s of that block gives
      {|a00|} and s twice.  A decoupled circle map on an annulus with r R = 1
      assembles exactly this (maps that fix 0 and infinity decouple, and so
      do their anti-products): B* at N = 512 takes one 511 x 388 SVD, not
      one 1023 x 777.
    - Any other matrix, a raw array included, takes one SVD of its nonzero
      rows and columns: up to a permutation it is [[A, 0], [0, 0]], which
      has the singular values of A plus zeros.  So does a decoupled operator
      whose blocks do not share their singular values (r R != 1, a map that
      is not a circle map, or an explicit (N, N) truncation), and one whose
      plus columns split between the plus and the minus rows.

    The zeros removed either way return as the padding up to min(shape).
    """
    matrix = np.asarray(getattr(T, "matrix", T))
    nplus, shared = getattr(T, "nplus", None), None
    if nplus is not None and T.nminus == nplus - 1:
        shared = _reflected_plus(matrix, nplus)
    block = matrix if shared is None else shared
    nonzero = block != 0
    rows, cols = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    s = np.linalg.svd(_gather(block, rows, cols), compute_uv=False)
    parts = s if shared is None else np.concatenate([[abs(matrix[0, 0])], s, s])
    sv = np.zeros(min(matrix.shape))
    sv[: len(parts)] = np.sort(parts)[::-1]
    return sv
