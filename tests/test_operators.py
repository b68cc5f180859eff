import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    FLOOR_STAR,
    HardyPair,
    blaschke_spectrum,
    duality_residual,
    jacobi_anger_matrix,
    match_multiset,
    pairing,
    transfer_apply_rational,
)
from ruelle import operators, spectra
from ruelle.lifts import build_homotopy, find_expansive_annulus
from ruelle.maps import (
    Annulus,
    BlaschkeProduct,
    MobiusFamilyMap,
    TrigLift,
    _inclusions,
    _MapBase,
    check_holo_expansive,
)
from ruelle.numerics import (
    TAIL_TOL, circle_integral, circle_nodes, fourier_coeffs_from_samples,
)
from ruelle.operators import EPS, SNAP_TOL, TruncatedOperator, assemble_dual, singular_values
from ruelle.spectra import converged_spectrum, eigenvalues
from ruelle.traces import trace_contour


def _toy_operator(matrix):
    n = matrix.shape[0] // 2
    return TruncatedOperator(n, matrix.shape[0] - n, matrix, 256)


class TestAssembly:
    def test_squaring_plus_columns_sparse(self, squaring, annulus):
        # tau = z^2: plus column n has its only entry at row 2n, value r^n
        T = assemble_dual(squaring, annulus, 12, 12, 256)
        r = annulus.r
        for n in range(6):
            col = T.matrix[:, n].copy()
            assert col[2 * n] == pytest.approx(r**n, abs=1e-13)
            col[2 * n] = 0
            assert np.abs(col).max() < 1e-13

    def test_squaring_minus_columns_sparse(self, squaring, annulus):
        T = assemble_dual(squaring, annulus, 12, 12, 256)
        R = annulus.R
        for n in range(1, 7):
            col = T.matrix[:, 12 + n - 1].copy()
            assert col[12 + 2 * n - 1] == pytest.approx(R ** (-n), abs=1e-13)
            col[12 + 2 * n - 1] = 0
            assert np.abs(col).max() < 1e-13

    def test_constants_map_to_constants(self, bstar, annulus):
        T = assemble_dual(bstar, annulus, 16, 16, 256)
        col = T.matrix[:, 0]
        assert col[0] == pytest.approx(1.0, abs=1e-13)
        assert np.abs(col[1:]).max() < 1e-13

    def test_bstar_spectrum_oracle(self, bstar, annulus):
        T = assemble_dual(bstar, annulus, 48, 48, 512)
        spec = eigenvalues(T)
        match_multiset(blaschke_spectrum(-0.5, 11), spec.eigenvalues, 1e-9)

    def test_refuses_without_expansivity(self, bstar):
        class Shifted:
            def eval(self, z):
                return bstar.eval(z) + 0.05

        with pytest.raises(ValueError, match="expansive"):
            assemble_dual(Shifted(), Annulus(0.99, 1.01), 8, 8, 256)

    def test_boundary_evaluated_once_per_circle_per_pass(self, bstar, annulus):
        # each K pass samples tau once on T_r and once on T_R, the inner first,
        # at its K nodes, and classifies those samples: no separate check; the
        # contour trace and the inclusion check sample each circle once too
        class Counting(_MapBase):
            degree = 2

            def __init__(self):
                self.calls = []

            def _eval(self, z):
                self.calls.append((z.size, float(np.abs(z[0]))))
                return bstar._eval(z)

        def circles(*sizes):
            return [(K, rho) for K in sizes for rho in (annulus.r, annulus.R)]

        m = Counting()
        T = assemble_dual(m, annulus, 32)
        assert T.matrix.tobytes() == assemble_dual(bstar, annulus, 32).matrix.tobytes()
        assert m.calls == circles(256, 512)  # B* at N = 32 escalates once
        for route, K in ((trace_contour, 4096), (check_holo_expansive, 2048)):
            m.calls.clear()
            assert route(m, annulus) == route(bstar, annulus)
            assert m.calls == circles(K)

    @pytest.mark.parametrize(
        "m",
        [
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            BlaschkeProduct(1.0, (0.3, -0.4 + 0.2j, 0.5j)),
            MobiusFamilyMap(0.7),
            MobiusFamilyMap(0.7 + 0.05j),  # 'none' on (0.97, 1.03)
            TrigLift(2, (0.1,)),
            TrigLift(-3),
            FLOOR_STAR,
        ],
        ids=["bstar", "anti", "three-zero", "mobius", "mobius-complex", "triglift", "triglift-3",
             "floor"],
    )
    def test_pass_verdict_is_the_check_verdict(self, m):
        # the K-node samples nest with the check's 2048 nodes, so every pass
        # reads the check's verdict, and its margin at K = 2048
        annuli = [Annulus(0.8, 1.25), Annulus(0.97, 1.03), find_expansive_annulus(m),
                  Annulus(1.1, 1.5)]
        for ann in annuli:
            check = check_holo_expansive(m, ann)
            for K in (256, 512, 1024, 2048, 4096, 8192):
                got, inward, outward = _sampled(m, ann, K)
                assert got.verdict == check.verdict, (ann, K)
                # tau's samples, swapped exactly when tau reverses orientation
                with np.errstate(all="ignore"):
                    pairs = [(rho, m.eval(circle_nodes(rho, K))) for rho in (ann.r, ann.R)]
                for (rho, t), (rho_want, t_want) in zip(
                    (inward, outward), pairs[:: -1 if got.verdict == "A2" else 1]
                ):
                    assert rho == rho_want and t.tobytes() == t_want.tobytes(), (ann, K)
                if K == 2048:  # the check's own nodes
                    assert got == check
                if K == 256 and check.verdict == "none":  # the first pass at N = 32
                    with pytest.raises(ValueError, match=f"margin {got.margin:.3g}\\)"):
                        assemble_dual(m, ann, 32)

    def test_refuses_a_nan_sample(self, bstar, annulus):
        class OneNaN(_MapBase):
            degree = 2

            def _eval(self, z):
                out = bstar._eval(z)
                out[len(out) // 3] = np.nan
                return out

        with pytest.raises(ValueError, match=r"margin -inf\); refusing assembly"):
            assemble_dual(OneNaN(), annulus, 32)

    def test_rejects_small_K(self, bstar, annulus):
        with pytest.raises(ValueError, match="8"):
            assemble_dual(bstar, annulus, 48, 48, 256)

    @pytest.mark.parametrize("K", [300, 384])
    def test_rejects_K_not_a_power_of_two_before_sampling(self, bstar, annulus, K, monkeypatch):
        def sampled(*args):
            raise AssertionError("the map was sampled before K was checked")

        monkeypatch.setattr(operators, "_inclusions", sampled)
        with pytest.raises(ValueError, match=f"K={K} is not a power of two"):
            assemble_dual(bstar, annulus, 32, K=K)

    @pytest.mark.parametrize("nplus, nminus", [(0, 0), (-1, None), (8, -2), (-1, 8)])
    def test_rejects_degenerate_orders(self, bstar, annulus, nplus, nminus):
        with pytest.raises(ValueError, match="nplus, nminus"):
            assemble_dual(bstar, annulus, nplus, nminus)

    def test_truncation_stability(self, bstar, annulus):
        e1 = eigenvalues(assemble_dual(bstar, annulus, 24, 24)).eigenvalues[:10]
        e2 = eigenvalues(assemble_dual(bstar, annulus, 48, 48)).eigenvalues
        match_multiset(e1, e2, 1e-10)

    def test_trace_matches_contour(self, bstar, anti_bstar, squaring, annulus):
        for m in (bstar, anti_bstar, squaring):
            T = assemble_dual(m, annulus, 32, 32)
            assert np.trace(T.matrix) == pytest.approx(
                trace_contour(m, annulus), abs=1e-8
            )


class TestAliasingMonitor:
    """Automatic K stops where the column tails reach their roundoff floor,
    and real aliasing still escalates K or fails loudly."""

    def test_bstar_at_512_resolves(self, bstar, annulus):
        T = assemble_dual(bstar, annulus, 512)
        assert T.samples <= 16 * 512
        match_multiset(blaschke_spectrum(-0.5, 11), eigenvalues(T).eigenvalues, 1e-8)

    def test_auto_K_matches_doubled_K(self, bstar, annulus):
        T = assemble_dual(bstar, annulus, 256)
        doubled = assemble_dual(bstar, annulus, 256, K=2 * T.samples)
        top = np.abs(T.matrix).max()
        assert np.abs(T.matrix - doubled.matrix).max() <= 1e-14 * top

    def test_triglift_converges_without_escalation(self, annulus):
        with pytest.warns(RuntimeWarning, match="not converged"):
            spec = converged_spectrum(TrigLift(2, (0.1,)), annulus)
        assert spec.operator.samples <= 16 * spec.operator.nplus

    def test_columns_past_the_horizon_do_not_escalate(self):
        # a degree-3 TrigLift of the spectra-auto panel: the columns that kept
        # K = 512 from resolving lie past the horizon, where the snap zeroes
        # every entry, so K = 1024 changes no entry by more than 1e-15
        m = TrigLift(3, (0.010558122485974514,), (-0.050231134344082204,))
        ann = find_expansive_annulus(m)
        T = assemble_dual(m, ann, 64)
        assert T.samples == 512
        doubled = assemble_dual(m, ann, 64, K=1024)
        assert np.abs(T.matrix - doubled.matrix).max() <= 1e-15

    def test_default_samples(self, squaring, annulus):
        # max(256, 8N) rounded up to a power of two; z^2 never escalates
        for N, K in ((4, 256), (32, 256), (48, 512), (100, 1024)):
            assert assemble_dual(squaring, annulus, N).samples == K

    def test_real_aliasing_escalates(self):
        T = assemble_dual(TrigLift(2, (0.4,)), Annulus(0.97, 1.03), 32)
        assert T.samples == 512  # twice the default 256 for N = 32

    def test_explicit_K_starts_the_doubling(self, annulus, monkeypatch):
        # the pole of z (z - 0.7)/(1 - 0.7 z) at 1/0.7 sits close to R = 1.25:
        # K = 256 leaves an aliasing tail, so it doubles, as the default does
        near_pole = BlaschkeProduct(1.0, (0.0, 0.7))
        T, auto = assemble_dual(near_pole, annulus, 32, K=256), assemble_dual(near_pole, annulus, 32)
        assert T.samples == auto.samples == 512
        assert T.matrix.tobytes() == auto.matrix.tobytes()
        monkeypatch.setattr(operators, "MAX_SAMPLES", 256)  # a cap at the start refuses
        with pytest.raises(RuntimeError, match="roundoff floor .* unresolved at K=256"):
            assemble_dual(near_pole, annulus, 32, K=256)

    @pytest.mark.parametrize(
        "m, tail, floor",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), "1.02e-06", "2.38e-14"),
            (MobiusFamilyMap(0.6), "5.4e-07", "2.68e-14"),
        ],
        ids=["bstar", "mobius_0.6"],
    )
    def test_real_monitor_quotes_its_numbers(self, m, tail, floor, annulus, monkeypatch):
        # real maps take the half-spectrum monitor; it quotes the tail and
        # floor of the full coefficient array to the last printed digit (the
        # worst of plus powers 0..31, the ones the symmetric truncation samples),
        # here at a cap lowered to the first pass's K
        assert assemble_dual(m, annulus, 32).matrix.dtype == np.float64
        monkeypatch.setattr(operators, "MAX_SAMPLES", 256)
        message = f"aliasing tail {tail} (roundoff floor {floor}) unresolved at K=256"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            assemble_dual(m, annulus, 32, K=256)


# z (z - 0.999)/(1 - 0.999 z) on a thin annulus: its zero and pole sit next
# to the boundary circles, so its columns stay unresolved up to K = 65536
NEAR_CIRCLE = BlaschkeProduct(1.0, (0.0, 0.999))
THIN = Annulus(1 / 1.0005, 1.0005)


# B* on (0.75, 1.25), where r R != 1, at truncation (64, 64): plus block
# resolved and minus block unresolved at its first K (512)
MINUS_ALONE = (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.75, 1.25))
# the B* -> TrigLift(2, (0.1,)) homotopy: a circle map at real w, not at complex w
BSTAR_TO_TRIG = build_homotopy(BlaschkeProduct(1.0, (0.0, 0.5)), TrigLift(2, (0.1,)))


class TestDiscardedPasses:
    """A direct pass builds both blocks, resolved or not, and a reflected one
    its plus block alone; an escalated matrix is the explicit-K matrix."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log, block = [], operators._assemble_block

        def logged(out, step, powers, *rest):
            log.append((len(step), "minus" if powers.start else "plus"))
            return block(out, step, powers, *rest)

        monkeypatch.setattr(operators, "_assemble_block", logged)
        return log

    @pytest.mark.parametrize(
        "case",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.8, 1.25), 32),
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.8, 1.25), 64),
            (BlaschkeProduct(1.0, (0.0, 0.5), anti=True), Annulus(0.8, 1.25), 32),
            (MobiusFamilyMap(0.6), Annulus(0.8, 1.25), 32),
            (FLOOR_STAR, Annulus(0.8, 1.25), 32),
            (TrigLift(2, (0.4,)), Annulus(0.97, 1.03), 32),
            (NEAR_CIRCLE, THIN, 4),  # resolves in the cap pass
            MINUS_ALONE + (64, 64),
        ],
        ids=["bstar-32", "bstar-64", "anti-32", "mobius_0.6", "floor", "triglift", "cap", "minus-alone"],
    )
    def test_escalated_matrix_is_the_explicit_K_matrix(self, case):
        m, annulus, N, *nminus = case
        T = assemble_dual(m, annulus, N, *nminus)
        first = 1 << (max(256, 8 * N) - 1).bit_length()
        assert T.samples > first  # it escalated
        # a start at the final K, or at the default start, which repeats the
        # passes of K=None, gives its K and its bytes
        for K in (T.samples, first):
            explicit = assemble_dual(m, annulus, N, *nminus, K=K)
            assert explicit.samples == T.samples
            assert T.matrix.dtype == explicit.matrix.dtype
            assert T.matrix.tobytes() == explicit.matrix.tobytes()

    def test_discarded_pass_builds_both_blocks(self, calls, bstar):
        # r R != 1: every pass builds the minus block directly, the discarded one too
        assemble_dual(bstar, Annulus(0.85, 1.2), 32)
        assert calls == [(256, "plus"), (256, "minus"), (512, "plus"), (512, "minus")]

    def test_reflected_pass_builds_one_block(self, calls, bstar, annulus):
        # a circle map on r R = 1: each pass transforms the plus powers only
        assemble_dual(bstar, annulus, 32)
        assert calls == [(256, "plus"), (512, "plus")]

    def test_unresolved_minus_block_alone_is_found(self, calls):
        assert assemble_dual(*MINUS_ALONE, 64, 64).samples == 1024
        assert calls == [(512, "plus"), (512, "minus"), (1024, "plus"), (1024, "minus")]

    def test_cap_quotes_the_worst_tail_of_both_blocks(self, calls):
        # the plus block's worst tail at the cap is 1.44e-12, the minus block's
        # 7.03e-12, in minus column 8, which the symmetric truncation (8, 7) drops
        message = "aliasing tail 7.03e-12 (roundoff floor 2.01e-15) unresolved at K=65536"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            assemble_dual(NEAR_CIRCLE, THIN, 8, 8)
        assert calls == [(1 << k, block) for k in range(8, 17) for block in ("plus", "minus")]

    @pytest.mark.parametrize(
        "K, cap, message",
        [
            (65536, None, "aliasing tail 7.03e-12 (roundoff floor 2.01e-15) unresolved at K=65536"),
            # the plus block's worst tail at K = 1024 is 0.00144, minus column 8's 0.00154
            (1024, 1024, "aliasing tail 0.00154 (roundoff floor 2.02e-15) unresolved at K=1024"),
            (1024, 512, "aliasing tail 0.00154 (roundoff floor 2.02e-15) unresolved at K=1024"),
        ],
        ids=["at-cap", "at-lowered-cap", "above-lowered-cap"],
    )
    def test_start_at_or_above_the_cap_is_one_pass(self, K, cap, message, calls, monkeypatch):
        # an unresolved pass at K >= MAX_SAMPLES refuses, quoting the worst tail of both blocks
        if cap is not None:
            monkeypatch.setattr(operators, "MAX_SAMPLES", cap)
        with pytest.raises(RuntimeError, match=re.escape(message)):
            assemble_dual(NEAR_CIRCLE, THIN, 8, 8, K=K)
        assert calls == [(K, "plus"), (K, "minus")]


def _full_monitor(x, K, noise):
    """The aliasing monitor on every row's full magnitudes, with no band screen,
    and those magnitudes: |c_m| of a full spectrum (K entries), or
    |Re X[m]| + |Im X[m]| of a half one, from its interleaved parts.  A row's
    tail is its max over 3K/8 <= |m| <= K/2 per max|c| (0 for a zero row); it
    is unresolved above TAIL_TOL and its floor, noise / max|c|."""
    if x.shape[-1] == K:
        mag = np.abs(x)
    else:
        v = np.abs(x.view(float))
        mag = v[:, ::2] + v[:, 1::2]
    scale, tail = mag.max(axis=-1), mag[..., 3 * K // 8 : 5 * K // 8 + 1].max(axis=-1)
    tail = np.divide(tail, scale, out=np.zeros(np.shape(scale)), where=scale > 0)
    bad = tail > TAIL_TOL
    tail, floor = tail[bad], np.broadcast_to(noise, bad.shape)[bad] / scale[bad]
    return (tail[tail > floor], floor[tail > floor]), mag


# the Mobius scan members w = 0, 0.1, ..., 1 of `ruelle scan --grid 0:1:11`
SCAN = [MobiusFamilyMap(w) for w in np.linspace(0, 1, 11)]


class TestBandFirstScreen:
    """The aliasing monitor, numerics.unresolved_tails, screens the tail band
    first: on every transformed chunk its verdict and its (tail, floor) pairs
    are those of the monitor on the full magnitudes (_full_monitor), and the
    sample counts, spectra and refusals are those of a monitor that forms
    every magnitude."""

    @pytest.fixture
    def chunks(self, monkeypatch, transformed):
        """A log of (rows, loud rows) per transformed chunk, each chunk's verdict
        checked against the full monitor; a loud row's tail band exceeds its noise."""
        log, screen = [], operators.unresolved_tails

        def checked(x, K, noise):
            assert len(transformed) == len(log) + 1  # one verdict per transformed chunk
            got = screen(x, K, noise)
            want, mag = _full_monitor(x, K, noise)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
            loud = mag[:, 3 * K // 8 : 5 * K // 8 + 1].max(axis=1) > noise
            log.append((len(x), int(loud.sum())))
            return got

        monkeypatch.setattr(operators, "unresolved_tails", checked)
        return log

    @staticmethod
    def _spectra(maps, monkeypatch):
        """converged_spectrum of each map on (0.8, 1.25): the K of each pass
        (its plus block), by assembly, and the bytes of its eigenvalues and of
        its operator."""
        passes, assemble, block = [], spectra.assemble_dual, operators._assemble_block

        def assembly(*args):
            passes.append([])
            return assemble(*args)

        def logged(out, step, powers, *rest):
            if not powers.start:
                passes[-1].append(len(step))
            return block(out, step, powers, *rest)

        monkeypatch.setattr(spectra, "assemble_dual", assembly)
        monkeypatch.setattr(operators, "_assemble_block", logged)
        runs = []
        for m in maps:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "spectrum not converged", RuntimeWarning)
                spec = converged_spectrum(m, Annulus(0.8, 1.25))
            runs.append((spec.eigenvalues.tobytes(), spec.operator.matrix.tobytes()))
        monkeypatch.setattr(spectra, "assemble_dual", assemble)
        monkeypatch.setattr(operators, "_assemble_block", block)
        return passes, runs

    @pytest.mark.parametrize(
        "maps, passes, redone, rows, loud",
        [(SCAN, 34, 12, 1600, 118), ([TrigLift(2, (0.1,))], 4, 0, 389, 0)],
        ids=["mobius-scan", "triglift-ladder"],
    )
    def test_screen_is_the_full_monitor(self, maps, passes, redone, rows, loud, chunks, monkeypatch):
        # the scan redoes passes at 2K, and its loud rows take the fallback; the
        # cos TrigLift's ladder N = 32..256 screens every row
        screened = self._spectra(maps, monkeypatch)
        assert sum(map(len, screened[0])) == passes
        assert sum(len(ks) - 1 for ks in screened[0]) == redone
        assert [sum(c) for c in zip(*chunks)] == [rows, loud]
        monkeypatch.setattr(operators, "unresolved_tails", lambda *a: _full_monitor(*a)[0])
        assert self._spectra(maps, monkeypatch) == screened

    @pytest.mark.parametrize(
        "m, annulus, args",
        [
            (MobiusFamilyMap(0.7 + 0.05j), Annulus(0.8, 1.25), (32, None, 256)),
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.8, 1.25), (32, None, 256)),
            (NEAR_CIRCLE, THIN, (8, 8, 1024)),
        ],
        ids=["complex-direct", "real-reflected", "real-thin"],
    )
    def test_explicit_K_refusal_is_the_full_monitor(self, m, annulus, args, chunks, monkeypatch):
        monkeypatch.setattr(operators, "MAX_SAMPLES", args[-1])  # the start pass refuses
        with pytest.raises(RuntimeError, match=f"unresolved at K={args[-1]}") as screened:
            assemble_dual(m, annulus, *args)
        assert any(loud for _, loud in chunks)
        monkeypatch.setattr(operators, "unresolved_tails", lambda *a: _full_monitor(*a)[0])
        with pytest.raises(RuntimeError) as full:
            assemble_dual(m, annulus, *args)
        assert str(screened.value) == str(full.value)


class TestWorkspace:
    """Each pass allocates one workspace, which its blocks share, and no
    chunk allocates its own transform output or full magnitude array."""

    def test_triglift_peak(self, annulus):
        # parent build: 11.1 MB for the 4.2 MB complex matrix at K = 2048
        args = (TrigLift(2, (0.1,)), annulus, 256)
        assemble_dual(*args)  # FFT plans and nodes cached outside the trace
        tracemalloc.start()
        try:
            T = assemble_dual(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T.matrix.dtype == complex and T.samples == 2048
        assert peak < T.matrix.nbytes + 16 * operators.CHUNK_SAMPLES + (1 << 20)

    def test_two_blocks_share_one_workspace(self, annulus, monkeypatch):
        # a complex map that is not a circle map: both blocks are transformed,
        # in one workspace (parent build: 6.05 MB peak, a buffer per block)
        m, seen, block = MobiusFamilyMap(0.7 + 0.05j), [], operators._assemble_block

        def logged(out, step, powers, *rest):
            seen.append(rest[-1])  # the workspace
            return block(out, step, powers, *rest)

        assemble_dual(m, annulus, 128)
        monkeypatch.setattr(operators, "_assemble_block", logged)
        tracemalloc.start()
        try:
            T = assemble_dual(m, annulus, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seen) == 2 and seen[0] is seen[1] and seen[0][1] is None
        assert seen[0][0].nbytes == 16 * operators.CHUNK_SAMPLES  # 128 rows at K = 1024
        assert peak < T.matrix.nbytes + 16 * operators.CHUNK_SAMPLES + (1 << 20)


def _column_by_column(m, annulus, N, K, real=True, reflect=True, nminus=None):
    """The truncation (N, nminus), by default the symmetric (N, N - 1), built
    one column at a time: sequential products, one
    1-D FFT per column divided by K, the transport weights, then the snap.
    With ``real``, a map whose two sample rows are conjugate-symmetric to
    SNAP_TOL folds each column g to h = Re g + Im g and reads its real
    coefficients off X = rfft(h) / K: c[m] = Re X[m] - Im X[m] and
    c[-m] = Re X[m] + Im X[m].  With ``reflect``, a map whose outward row is
    1/conj of its inward row to SNAP_TOL takes minus column n from plus
    power n, its plus and minus rows swapped and conjugated; else, and
    always without ``reflect``, minus column n is the FFT of (R/tau)^n on
    the outward circle."""
    r, R = annulus.r, annulus.R
    rho_plus, rho_minus = (r, R) if check_holo_expansive(m, annulus).verdict == "A1" else (R, r)
    tp, tm = m.eval(circle_nodes(rho_plus, K)), m.eval(circle_nodes(rho_minus, K))
    mirror = -np.arange(K) % K
    fold = real and all(
        np.abs(v - np.conj(v[mirror])).max() <= SNAP_TOL * np.abs(v).max() for v in (tp, tm)
    )
    swap = reflect and np.abs(tm - 1 / np.conj(tp)).max() <= SNAP_TOL * np.abs(tm).max()

    def coeffs(samples):
        if not fold:
            return np.fft.fft(samples) / K
        x = np.fft.rfft(samples.real + samples.imag) / K
        pos = np.arange(K // 2 + 1)
        c = np.empty(K)
        c[-pos % K] = x.real + x.imag
        c[pos] = x.real - x.imag
        return c

    nminus = N - 1 if nminus is None else nminus
    top = max(N, nminus)

    def transport(samples, rho):
        """The plus rows 0..top and the minus rows 0..top (row 0 is c[0])."""
        c, mrange = coeffs(samples), np.arange(top + 1)
        return c[mrange % K] * (r / rho) ** mrange, c[-mrange % K] * (rho / R) ** mrange

    def layout(plus, minus):
        return np.concatenate([plus[:N], minus[1 : nminus + 1]])

    plus_cols, minus_cols = [], []
    g, step = np.ones(K, dtype=complex), tp / r
    for n in range(max(N, nminus + 1)):
        plus, minus = transport(g, rho_plus)
        if n < N:
            plus_cols.append(layout(plus, minus))
        if swap and 1 <= n <= nminus:
            minus_cols.append(np.conj(layout(minus, plus)))
        g = g * step
    g, step = np.ones(K, dtype=complex), R / tm
    for _ in range(0 if swap else nminus):
        g = g * step
        plus, minus = transport(g, rho_minus)
        minus_cols.append(layout(plus, minus))
    matrix = np.column_stack(plus_cols + minus_cols)
    matrix[np.abs(matrix) < SNAP_TOL * np.abs(matrix).max()] = 0.0
    return matrix


def _first_snapped_power(step):
    """The first n at which 2 max|step|^n, the bound of a column's entries
    without its roundoff factor (the snap horizon of the module notes), is
    below SNAP_TOL."""
    return math.floor(math.log(SNAP_TOL / 2) / math.log(np.abs(step).max())) + 1


def _rows_below_horizon(step_max, K, start, stop):
    """The rows from ``start`` that the snap horizon leaves to transform, as a
    Python-scalar loop: the powers before the first n < stop whose column bound
    2 step_max^n (1 + 4 (n + log2 K) eps) is below SNAP_TOL (module notes)."""
    n = start
    while n < stop and 2 * step_max**n * (1 + 4 * (n + math.log2(K)) * EPS) >= SNAP_TOL:
        n += 1
    return n - start


def _block(step, start, stop, dtype):
    """_assemble_block on the unit circle (weights 1) for the powers start..stop-1,
    three plus and two minus rows, with warnings as errors; its output."""
    out = np.full((stop - start, 5), np.nan, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        workspace = operators._workspace(len(step), stop - start, out.dtype == float)
        operators._assemble_block(out, step, range(start, stop), 1.0, 1.0, 1.0, workspace)
    return out


def _all_plus_zero(a):
    """Every entry is +0: zero, with no sign bit on its real or imaginary part."""
    return not a.any() and not (np.signbit(a.real) | np.signbit(a.imag)).any()


@pytest.fixture
def transformed(monkeypatch):
    """A log of (circle radius, rows, smallest max|row|) for each call of the
    two row transforms, by the names the operators module imports."""
    log = []
    for name in ("fourier_coeffs_from_samples", "half_spectrum_from_samples"):
        transform = getattr(operators, name)

        def counted(chunk, rho, out=None, transform=transform):
            log.append((rho, len(chunk), np.abs(chunk).max(axis=1).min()))
            return transform(chunk, rho, out=out)

        monkeypatch.setattr(operators, name, counted)
    return log


def _rows_per_circle(log):
    """The rows transformed on each circle, the plus block's circle first."""
    rows = {}
    for rho, n, _ in log:
        rows[rho] = rows.get(rho, 0) + n
    return list(rows.values())


class TestBlockAssembly:
    """Row-chunked assembly gives the column-by-column matrix bit for bit, on
    the symmetric truncation and on the square one; N=48 at K=4096 splits
    the plus powers into chunks of 32 and 16 rows (32 and 17 when a square
    reflected truncation also samples power 48)."""

    @pytest.mark.parametrize(
        "m",
        [
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            TrigLift(2, (0.1,)),
            MobiusFamilyMap(0.7),
        ],
        ids=["bstar", "anti_bstar", "triglift", "mobius"],
    )
    @pytest.mark.parametrize("N, K", [(16, 256), (48, 4096)])
    def test_matches_column_by_column(self, m, N, K, annulus):
        # N//2 and 0 are gathered from the symmetric truncation (N, N - 1) of a
        # reflected map, N and 2N from (N + 1, N) and (2N + 1, 2N); 2N only at
        # K = 4096; the Blaschke products leave an aliasing tail at (16, 256),
        # so they resolve at 512
        reached = 2 * K if N == 16 and isinstance(m, BlaschkeProduct) else K
        for nminus in (None, N, N // 2, 0) + ((2 * N,) if K == 4096 else ()):
            T = assemble_dual(m, annulus, N, nminus, K)
            assert T.samples == reached
            expect = _column_by_column(m, annulus, N, T.samples, nminus=nminus)
            assert T.matrix.dtype == expect.dtype and T.matrix.shape == expect.shape
            # bytes, not np.array_equal: a snapped zero must be +0, not -0
            assert T.matrix.tobytes(order="C") == expect.tobytes(order="C")

    @pytest.mark.parametrize(
        "m, radii, N, K",
        [
            (TrigLift(2, (0.1,)), (0.8, 1.25), 256, 2048),
            (MobiusFamilyMap(0.7), (0.8, 1.25), 512, 4096),
            (BlaschkeProduct(1.0, (0.0, 0.5)), (0.8, 1.25), 512, 4096),
            (TrigLift(2, (0.1,)), (0.85, 1.2), 256, 2048),
            (BlaschkeProduct(1.0, (0.0, 0.0)), (0.85, 1.2), 256, 2048),
        ],
        ids=["triglift", "mobius", "bstar", "triglift-direct", "squaring-direct"],
    )
    def test_past_the_horizon_matches_column_by_column(self, m, radii, N, K, transformed):
        # complex and real reflected passes, and direct passes (r R != 1) that
        # cut both blocks, each resolved at its default K: the transforms see
        # only the powers below each block's horizon (minus powers start at 1),
        # and the matrix is the column-by-column build that transforms them all
        ann = Annulus(*radii)
        T = assemble_dual(m, ann, N)
        assert T.samples == K
        _, (_, tp), (_, tm) = _sampled(m, ann, K)
        plus, minus = _first_snapped_power(tp / ann.r), _first_snapped_power(ann.R / tm)
        rows = [plus] if radii == (0.8, 1.25) else [plus, minus - 1]
        assert _rows_per_circle(transformed) == rows and max(plus, minus) < N
        expect = _column_by_column(m, ann, N, K)
        assert T.matrix.dtype == expect.dtype
        assert T.matrix.tobytes(order="C") == expect.tobytes(order="C")

    def test_horizon_matches_the_scalar_rule(self, transformed):
        # a seeded sweep, both start powers and K = 2^8..2^12: max|step| with
        # -log max|step| log-uniform on (1e-9, -log 1e-3) in half the draws, and
        # in the other half the root of a horizon n* in 5..159 nudged by a few
        # ulps, where the vector and the scalar arithmetic would part first
        rng = np.random.default_rng(50)
        cut = 0
        for i in range(48):
            K, start, stop = 1 << int(rng.integers(8, 13)), i % 2, int(rng.integers(2, 160))
            if i % 4 < 2:
                step_max = math.exp(-(10 ** rng.uniform(-9, math.log10(-math.log(1e-3)))))
            else:
                h = int(rng.integers(5, 160))
                step_max = (SNAP_TOL / 2 / (1 + 4 * (h + math.log2(K)) * EPS)) ** (1 / h)
                step_max += int(rng.integers(-4, 5)) * math.ulp(step_max)
            step = step_max * circle_nodes(1.0, K)
            transformed.clear()
            out = _block(step, start, stop, complex if i % 3 else float)
            rows = sum(n for _, n, _ in transformed)
            assert rows == _rows_below_horizon(float(np.abs(step).max()), K, start, stop)
            assert _all_plus_zero(out[rows:]) and not np.isnan(out[:rows]).any()
            cut += rows < stop - start
        assert 0 < cut < 48  # the sweep has horizons on both sides of stop

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("scale", [1.0, 1 + EPS], ids=["one", "one-plus-ulp"])
    def test_unit_step_transforms_every_row(self, transformed, dtype, scale):
        # |step| = 1 on the roots of unity (or one ulp above): no column bound
        # falls below SNAP_TOL, so there is no horizon, and no warning
        _block(scale * circle_nodes(1.0, 256), 0, 300, dtype)
        assert _rows_per_circle(transformed) == [300]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_step_leaves_row_zero(self, transformed, dtype):
        # b_n = 0^n: the horizon is power 1, so only g_0 = 1 is transformed
        out = _block(np.zeros(256, dtype=complex), 0, 8, dtype)
        assert _rows_per_circle(transformed) == [1] and out[0, 0] == 1
        assert _all_plus_zero(out[1:])

    def test_underflowed_columns_count_as_resolved(self, transformed):
        # |tau / r| = 0.01 on |z| = r: the samples step^n would underflow to
        # exactly 0 from n = 162 on, but the horizon stops the products at
        # n = 8, so no sample underflows, the columns from 8 on are +0, and
        # there is no 0/0 tail, no warning and no K escalation (a zero row
        # never passes the band screen of numerics.unresolved_tails)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T = assemble_dual(TrigLift(2), Annulus(0.01, 100.0), 256)
        assert T.samples == 2048  # the default max(256, 8 * 256)
        cut = _first_snapped_power(np.full(8, 0.01))
        assert cut == 8 and _rows_per_circle(transformed) == [cut]
        assert min(smallest for *_, smallest in transformed) >= np.finfo(float).tiny
        past = T.matrix[:, np.r_[cut:256, 256 + cut - 1 : T.size]]
        assert _all_plus_zero(past)


class TestLargestEntry:
    """The snap is absolute, SNAP_TOL rather than SNAP_TOL max|entry|, as a00 = 1
    is the largest entry: the constant 1 maps to itself, and column n >= 1 is
    bounded by max|step|^n < 1.  Checked reflected (r R = 1) and direct
    ((0.85, 1.2)), real and complex, on both orientations."""

    @pytest.mark.parametrize(
        "m",
        [
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            MobiusFamilyMap(0.7),
            MobiusFamilyMap(0.7 + 0.05j),
            TrigLift(2, (0.1,)),
            TrigLift(2, (), (0.1,)),
            TrigLift(-2, (0.1,)),
            FLOOR_STAR,
        ],
        ids=["bstar", "anti_bstar", "mobius", "mobius_complex", "triglift", "odd_triglift",
             "reversed_triglift", "floor_star"],
    )
    @pytest.mark.parametrize(
        "radii", [(0.8, 1.25), (0.85, 1.2), None], ids=["r0.8", "r0.85", "auto"]
    )
    @pytest.mark.parametrize("N", [16, 48, 128])
    def test_a00_is_the_largest_entry(self, m, radii, N):
        annulus = Annulus(*radii) if radii else find_expansive_annulus(m)
        matrix = assemble_dual(m, annulus, N).matrix
        assert np.abs(matrix).max() == matrix[0, 0] == 1.0


class TestRealMatrices:
    """A map with tau(conj z) = conj tau(z) has a real adjoint: the complex
    route's imaginary parts are roundoff, and the folded real FFT stores the
    matrix as float64 within a few ulps of the complex route's real part."""

    @pytest.mark.parametrize(
        "m",
        [
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            MobiusFamilyMap(0.7),
            TrigLift(2, (), (0.1,)),  # sin only: an odd lift
            BlaschkeProduct(1.0, (0.2, -0.5)),
        ],
        ids=["bstar", "anti_bstar", "mobius", "odd_triglift", "real_zeros"],
    )
    def test_real_data_assemble_float64(self, m, annulus):
        T = assemble_dual(m, annulus, 48, K=4096)
        full = _column_by_column(m, annulus, 48, 4096, real=False)
        assert T.matrix.dtype == np.float64 and T.matrix.flags.f_contiguous
        # the dropped imaginary parts are roundoff, below the snap level
        top = np.abs(full).max()
        assert np.abs(full.imag).max() < SNAP_TOL * top
        assert np.array_equal(T.matrix == 0, full == 0)
        assert np.abs(T.matrix - full.real).max() <= 4 * np.finfo(float).eps * top

    @pytest.mark.parametrize(
        "m",
        [
            TrigLift(2, (0.1,)),  # an even cos term
            BlaschkeProduct(1.0, (0.2 + 0.1j, -0.5)),
            FLOOR_STAR,
            # imaginary parts near 1e-10 of the largest entry: above the
            # snap level, so the matrix stays complex
            BlaschkeProduct(1.0, (0.5 + 1e-10j, 0.0)),
        ],
        ids=["triglift", "complex_zero", "floor_star", "nearly_real"],
    )
    def test_complex_data_stay_complex(self, m, annulus):
        T = assemble_dual(m, annulus, 48, K=4096)
        full = _column_by_column(m, annulus, 48, 4096, real=False)
        assert T.matrix.dtype == np.complex128
        assert np.array_equal(np.ascontiguousarray(T.matrix).view(np.float64), full.view(np.float64))


def _swap(nplus, nminus):
    """P as an index map on the truncation: plus m <-> minus m (m >= 1), plus
    0 fixed; -1 where the partner lies outside the truncation."""
    plus, minus = np.arange(nplus), np.arange(1, nminus + 1)
    to_minus = np.where(plus == 0, 0, np.where(plus <= nminus, nplus + plus - 1, -1))
    return np.concatenate([to_minus, np.where(minus < nplus, minus, -1)])


def _column_floors(m, annulus, T):
    """Each column's roundoff floor, absolute: (n+1) eps max|g_n|, with g_n
    the column's samples (tau/r)^n on the inward or (R/tau)^n on the
    outward circle (the floor relative to max|c| times max|c|)."""
    _, (_, tp), (_, tm) = _sampled(m, annulus, T.samples)
    n_plus, n_minus = np.arange(T.nplus), np.arange(1, T.nminus + 1)
    plus = (n_plus + 1) * EPS * np.abs(tp / annulus.r).max() ** n_plus
    minus = (n_minus + 1) * EPS * np.abs(annulus.R / tm).max() ** n_minus
    return np.concatenate([plus, minus])


# circle maps, with the dtype of their matrix and their orientation
REFLECTING = [
    pytest.param(BlaschkeProduct(1.0, (0.0, 0.5)), np.float64, "A1", id="bstar"),
    pytest.param(BlaschkeProduct(1.0, (0.0, 0.5), anti=True), np.float64, "A2", id="anti_bstar"),
    pytest.param(MobiusFamilyMap(0.7), np.float64, "A1", id="mobius"),
    pytest.param(TrigLift(2, (0.1,)), np.complex128, "A1", id="triglift"),
    pytest.param(TrigLift(2, (), (0.1,)), np.float64, "A1", id="odd_triglift"),
    pytest.param(FLOOR_STAR, np.complex128, "A2", id="floor_star"),
    pytest.param(BSTAR_TO_TRIG.member(0.5), np.complex128, "A1", id="member-0.5"),
]


class TestReflection:
    """A circle map on an annulus with r R = 1 takes its minus block from the
    plus FFT: M[i, j] = conj M[Pi, Pj], with P swapping plus m and minus m."""

    @pytest.mark.parametrize("m, dtype, orientation", REFLECTING)
    @pytest.mark.parametrize("which", ["fixed", "auto"])
    def test_matrix_is_its_swapped_conjugate(self, m, dtype, orientation, which, annulus):
        ann = annulus if which == "fixed" else find_expansive_annulus(m)
        assert check_holo_expansive(m, ann).verdict == orientation
        for nplus, nminus in ((48, 47), (48, 48), (17, 30), (30, 17), (1, 8), (8, 0)):
            T = assemble_dual(m, ann, nplus, nminus)
            assert T.matrix.dtype == dtype
            P = _swap(nplus, nminus)
            both = np.flatnonzero(P >= 0)
            got = T.matrix[np.ix_(both, both)]
            assert np.array_equal(got, np.conj(T.matrix[np.ix_(P[both], P[both])]))

    @pytest.mark.parametrize("m, dtype, orientation", REFLECTING)
    @pytest.mark.parametrize("which", ["fixed", "auto"])
    def test_symmetric_truncation_is_its_swapped_conjugate(self, m, dtype, orientation, which, annulus):
        # on the default (N, N - 1) truncation P is an involution of every
        # index, so M == P conj(M) P holds for the whole matrix, exactly
        ann = annulus if which == "fixed" else find_expansive_annulus(m)
        T = assemble_dual(m, ann, 48)
        assert (T.nplus, T.nminus) == (48, 47)
        P = _swap(T.nplus, T.nminus)
        assert (P >= 0).all() and (P[P] == np.arange(T.size)).all()
        assert np.array_equal(T.matrix, np.conj(T.matrix[np.ix_(P, P)]))

    @pytest.mark.parametrize(
        "m, ann",
        [*[(p.values[0], Annulus(0.8, 1.25)) for p in REFLECTING],
         (MobiusFamilyMap(0.3), Annulus(0.8, 1.25)),
         (MobiusFamilyMap(0.7 + 0.05j), Annulus(0.8, 1.25)),
         (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.85, 1.2))],
        ids=[*[p.id for p in REFLECTING], "mobius-0.3", "mobius-complex", "bstar-0.85"],
    )
    @pytest.mark.parametrize("N", [32, 128])
    def test_symmetric_truncation_is_the_leading_block_of_the_square_one(self, m, ann, N):
        # at equal K, dropping minus row and column N changes no other bit
        square = assemble_dual(m, ann, N, N)
        T = assemble_dual(m, ann, N, K=square.samples)
        lead = square.matrix[: T.size, : T.size]
        assert T.matrix.dtype == lead.dtype
        assert np.ascontiguousarray(T.matrix).tobytes() == np.ascontiguousarray(lead).tobytes()

    @pytest.mark.parametrize("m, dtype, orientation", REFLECTING)
    @pytest.mark.parametrize("which", ["fixed", "auto"])
    def test_minus_block_matches_direct_fft(self, m, dtype, orientation, which, annulus):
        ann = annulus if which == "fixed" else find_expansive_annulus(m)
        T = assemble_dual(m, ann, 48)
        direct = _column_by_column(m, ann, 48, T.samples, reflect=False)
        floors = _column_floors(m, ann, T)
        diff = np.abs(T.matrix - direct)
        # an entry within roundoff of the snap level may be snapped on one side only
        snapped = (T.matrix == 0) != (direct == 0)
        top = np.abs(T.matrix).max()
        assert np.abs(np.where(snapped, T.matrix + direct, 0)).max() <= SNAP_TOL * top
        excess = np.where(snapped, 0, diff) / floors
        assert excess[:, T.nplus :].max() <= 1, excess.max()
        # the plus block is the same FFT either way
        assert np.array_equal(T.matrix[:, : T.nplus], direct[:, : T.nplus])

    @pytest.mark.parametrize(
        "m, ann",
        [
            (MobiusFamilyMap(0.7 + 0.05j), Annulus(0.8, 1.25)),  # not a circle map
            (BSTAR_TO_TRIG.member(0.5 + 0.5j * BSTAR_TO_TRIG.eta), Annulus(0.8, 1.25)),
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.93, 1.1)),  # r R != 1
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.85, 1.2)),
        ],
        ids=["mobius-complex", "member-complex", "bstar-0.93", "bstar-0.85"],
    )
    def test_other_maps_keep_the_direct_minus_block(self, m, ann):
        T = assemble_dual(m, ann, 32, K=1024)
        _, (_, tp), (_, tm) = _sampled(m, ann, 1024)
        assert not _reflects(tp, tm)
        direct = _column_by_column(m, ann, 32, 1024, reflect=False)
        assert T.matrix.dtype == direct.dtype
        assert np.array_equal(T.matrix, direct)

    def test_reflection_rule(self, bstar):
        tp = bstar.eval(circle_nodes(0.8, 256))
        tm = 1 / np.conj(tp)
        assert _reflects(tp, tm)
        noisy = tm * (1 + 40 * EPS)
        assert _reflects(tp, noisy)
        assert not _reflects(tp, tm * (1 + 100 * EPS))
        for bad in (np.inf, np.nan):
            broken = tm.copy()
            broken[3] = bad
            assert not _reflects(tp, broken)

    def test_vanishing_inward_sample(self):
        # tau = z^2 (z - 0.7) vanishes at node 0 of |z| = 0.7, where 1/conj tp
        # is infinite: the samples do not reflect, and no RuntimeWarning is raised
        class Cubic(_MapBase):
            degree = 3

            def _eval(self, z):
                return z**2 * (z - 0.7)

        ann = Annulus(0.7, 1 / 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            T = assemble_dual(Cubic(), ann, 16, K=512)
        assert T.matrix.dtype == np.float64
        assert np.array_equal(T.matrix, _column_by_column(Cubic(), ann, 16, 512, reflect=False))


class TestJacobiAnger:
    """The assembled entries of one-harmonic lifts against their closed form
    (helpers.jacobi_anger_matrix), on an annulus with r R = 1, where the minus
    block is the reflected plus FFT."""

    @pytest.mark.parametrize(
        "m", [TrigLift(2, (0.1,)), TrigLift(2, (), (0.1,))], ids=["cos", "sin"]
    )
    @pytest.mark.parametrize("N", [16, 32, 64])
    def test_entries_within_column_floors(self, m, N):
        ann = Annulus(math.exp(-0.5), math.exp(0.5))
        T = assemble_dual(m, ann, N)
        _, (_, tp), (_, tm) = _sampled(m, ann, T.samples)
        assert _reflects(tp, tm)
        exact, floors = jacobi_anger_matrix(m, ann, N, T.nminus), _column_floors(m, ann, T)
        snapped = (T.matrix == 0) & (exact != 0)
        assert snapped.any()  # the snap zeroes entries the closed form keeps
        top = np.abs(T.matrix).max()
        assert (np.abs(np.where(snapped, exact, 0)) <= SNAP_TOL * top + floors).all()
        err = np.where(snapped, 0, np.abs(T.matrix - exact))
        assert (err <= floors).all(), (err / floors).max()

    def test_columns_past_the_horizon_are_plus_zero(self, annulus):
        # the closed form puts every entry of those columns below SNAP_TOL, and
        # the assembly writes them as +0 without sampling them
        m, N = TrigLift(2, (0.1,)), 256
        T = assemble_dual(m, annulus, N)
        _, (_, tp), _ = _sampled(m, annulus, T.samples)
        cut = _first_snapped_power(tp / annulus.r)
        past = np.r_[cut:N, N + cut - 1 : T.size]
        assert len(past) == 2 * (N - cut) > 0
        assert _all_plus_zero(T.matrix[:, past])
        exact = jacobi_anger_matrix(m, annulus, N, T.nminus)[:, past]
        assert np.abs(exact).max() < SNAP_TOL


def _sampled(m, ann, K):
    """The boundary judgement of a K-node pass: _inclusions on both circles."""
    return _inclusions(m, ann, *(circle_nodes(rho, K) for rho in (ann.r, ann.R)))


def _conjugate_symmetric(v):
    """The agreement rule on a sample row and its mirror conj v[-j mod K]."""
    return operators._agrees(v, np.conj(v[-np.arange(len(v))]))


def _reflects(tp, tm):
    """The agreement rule on the outward row and 1/conj of the inward row."""
    with np.errstate(all="ignore"):
        return operators._agrees(tm, 1 / np.conj(tp))


def _roll_symmetric(v):
    """The conjugate-symmetry test written with np.roll: w[j] = v[-j mod K]."""
    return np.abs(v - np.conj(np.roll(v[::-1], 1))).max() <= SNAP_TOL * np.abs(v).max()


def _symmetric_row(rng, K):
    """v[-j mod K] = conj v[j] exactly: real v[0] and v[K/2], mirrored rest."""
    v = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    v[0], v[K // 2] = v[0].real, v[K // 2].real
    v[K // 2 + 1 :] = np.conj(v[1 : K // 2][::-1])
    return v


class TestColumnMajor:
    """The matrix is stored column-major; the layout changes no bit of the
    matrix, of the SVD's input blocks or of the real/complex decision."""

    @pytest.mark.parametrize(
        "m, dtype",
        [(BlaschkeProduct(1.0, (0.0, 0.5)), np.float64), (TrigLift(2, (0.1,)), np.complex128)],
        ids=["real", "complex"],
    )
    def test_matrix_f_contiguous(self, m, dtype, annulus):
        T = assemble_dual(m, annulus, 24, 40)
        assert T.matrix.dtype == dtype and T.matrix.shape == (64, 64)
        assert T.matrix.flags.f_contiguous

    @pytest.mark.parametrize(
        "m",
        [
            BlaschkeProduct(1.0, (0.0, 0.5)),
            BlaschkeProduct(1.0, (0.0, 0.5), anti=True),
            BlaschkeProduct(1.0, (0.0, 0.3 + 0.2j)),  # complex, fixes 0 and infinity
            TrigLift(2, (0.1,)),
            FLOOR_STAR,
            BlaschkeProduct(1.0, (0.2 + 0.1j, -0.5)),
        ],
        ids=["bstar", "anti_bstar", "complex_bstar", "triglift", "floor_star", "complex_zero"],
    )
    def test_svd_inputs(self, m, annulus, monkeypatch):
        # the (N, N) truncation shares no SVD: one of the nonzero rows and columns
        T = assemble_dual(m, annulus, 48, 48)
        matrix = T.matrix
        want = matrix[np.ix_(matrix.any(axis=1), matrix.any(axis=0))]  # the row-major gather
        seen, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a) or svd(a, **kw))
        singular_values(T)
        assert len(seen) == 1
        got = seen[0]
        assert got.flags.f_contiguous and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_conjugate_symmetric_matches_roll(self):
        rng = np.random.default_rng(5)
        verdicts = []
        for K in (8, 16, 64, 256):
            for scale in (0.0, 1e-17, 1e-15, 1e-14, 1e-13, 1e-12, 1.0):
                for j in (None, 0, K // 2, K - 1):  # noise everywhere, or at one sample
                    v = _symmetric_row(rng, K)
                    noise = scale * (rng.standard_normal(K) + 1j * rng.standard_normal(K))
                    if j is None:
                        v += noise
                    else:
                        v[j] += noise[j]
                    verdicts.append(_roll_symmetric(v))
                    assert _conjugate_symmetric(v) == verdicts[-1]
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("j", [0, -1])
    @pytest.mark.parametrize("nan", [complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_conjugate_symmetric_nan(self, j, nan):
        v = _symmetric_row(np.random.default_rng(6), 64)
        assert _conjugate_symmetric(v)
        v[j] = nan
        assert not _conjugate_symmetric(v) and not _roll_symmetric(v)

    @pytest.mark.parametrize("inf", [complex(np.inf, 0.0), complex(0.0, np.inf)])
    def test_infinite_sample_with_finite_mirror(self, bstar, inf):
        # |inf - conj v[-5]| = inf passed the bound SNAP_TOL max|v| = inf
        v = bstar.eval(circle_nodes(1.25, 256))
        assert _conjugate_symmetric(v)
        v[5] = inf
        assert not _conjugate_symmetric(v)

    def test_overflowed_node_keeps_the_complex_path(self, bstar, monkeypatch):
        # tau = inf at node 0 of |z| = R passes the inclusion test as "outside";
        # a non-finite row is not symmetric, and with no warning the
        # assembly reports the aliasing that the broken sample causes (at a
        # cap lowered to the start, as every K has the broken node)
        class OuterInf(_MapBase):
            degree = 2

            def _eval(self, z):
                out = bstar._eval(z)
                if abs(z[0]) > 1:
                    out[0] = np.inf
                return out

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not _conjugate_symmetric(OuterInf().eval(circle_nodes(1.25, 256)))
            monkeypatch.setattr(operators, "MAX_SAMPLES", 256)
            with pytest.raises(RuntimeError, match=r"aliasing tail .* unresolved at K=256"):
                assemble_dual(OuterInf(), Annulus(0.8, 1.25), 16, K=256)


class TestSingularValues:
    def test_embedding_diagonal_exact(self):
        # canonical embedding H^2(D_r) -> H^2(D_r'): s_n = (r'/r)^(n-1)
        ratio = 0.8 / 1.1
        expect = ratio ** np.arange(24)
        T = _toy_operator(np.diag(expect.astype(complex)))
        sv = singular_values(T)
        np.testing.assert_allclose(sv, expect, rtol=1e-13)

    def test_zero_matrix(self):
        sv = singular_values(_toy_operator(np.zeros((8, 8), dtype=complex)))
        assert np.all(sv == 0)

    def test_exponential_class_fit(self, bstar, annulus):
        # fit over the range stable under truncation doubling
        sv = singular_values(assemble_dual(bstar, annulus, 48, 48, 512))
        sv2 = singular_values(assemble_dual(bstar, annulus, 96, 96))
        agree = np.abs(sv - sv2[: len(sv)]) < 1e-8
        cc = int(np.argmin(agree)) if not agree.all() else len(agree)
        assert cc >= 20
        n = np.arange(1, cc + 1)
        y = np.log(sv[:cc])
        slope, intercept = np.polyfit(n, y, 1)
        fitted = slope * n + intercept
        r2 = 1 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert slope < 0
        assert r2 > 0.99

    def test_geometric_envelope(self, anti_bstar, annulus):
        # s_n <= s_1 q^(n-1) holds with the tightest fitted q clearly < 1
        # over n <= min(nplus, nminus)
        T = assemble_dual(anti_bstar, annulus, 32, 32)
        sv = singular_values(T)[: min(T.nplus, T.nminus)]
        n = np.arange(2, len(sv) + 1)
        q = np.max((sv[1:] / sv[0]) ** (1.0 / (n - 1)))
        assert q < 0.99
        envelope = sv[0] * q ** np.arange(len(sv))
        assert np.all(sv <= envelope * (1 + 1e-12))

    @staticmethod
    def _record_svd(monkeypatch):
        """Patch np.linalg.svd to keep a copy of each argument; return the list."""
        calls, real = [], np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return calls

    @staticmethod
    def _nonzero_shape(a):
        return np.count_nonzero(a.any(axis=1)), np.count_nonzero(a.any(axis=0))

    @pytest.mark.parametrize(
        "zeros, anti, nminus",
        [
            ((0.0, 0.5), False, 32),
            ((0.0, 0.5), True, 32),
            ((0.0, 0.3 + 0.2j, -0.4), True, 32),
            ((0.0, 0.5), False, 16),
        ],
        ids=["B*", "anti-B*", "anti-three-zero", "nminus=N//2"],
    )
    def test_unshared_decoupled_blocks_take_one_svd(self, zeros, anti, nminus, annulus, monkeypatch):
        T = assemble_dual(BlaschkeProduct(1.0, zeros, anti=anti), annulus, 32, nminus)
        top, bottom = T.matrix[: T.nplus].any(axis=0), T.matrix[T.nplus :].any(axis=0)
        assert not (top & bottom).any()  # no column reaches both blocks
        full = np.linalg.svd(T.matrix, compute_uv=False)
        calls = self._record_svd(monkeypatch)
        sv = singular_values(T)
        # not the symmetric truncation: one SVD of the nonzero rows and columns
        assert [a.shape for a in calls] == [self._nonzero_shape(T.matrix)]
        assert len(sv) == T.size
        assert np.all(np.diff(sv) <= 0)
        np.testing.assert_allclose(sv, full, rtol=0, atol=1e-14 * full[0])
        fro = np.sum(np.abs(T.matrix) ** 2)
        assert np.sum(sv**2) == pytest.approx(fro, rel=1e-12)

    @pytest.mark.parametrize(
        "m, ann, nminus, shared",
        [
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.8, 1.25), None, True),
            (BlaschkeProduct(1.0, (0.0, 0.5), anti=True), Annulus(0.8, 1.25), None, True),
            (MobiusFamilyMap(0.7), Annulus(0.8, 1.25), None, True),
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.85, 1.2), None, False),  # r R != 1
            (MobiusFamilyMap(0.7), Annulus(0.7, 1.3), None, False),  # r R != 1: unlike patterns
            (MobiusFamilyMap(0.7 + 0.05j), Annulus(0.8, 1.25), None, False),  # not a circle map
            (BlaschkeProduct(1.0, (0.0, 0.5)), Annulus(0.8, 1.25), 64, False),  # square truncation
            (BlaschkeProduct(1.0, (0.0, 0.5), anti=True), Annulus(0.8, 1.25), 64, False),
        ],
        ids=["B*", "anti-B*", "mobius", "B*-0.85", "mobius-0.7-1.3", "mobius-complex", "B*-square",
             "anti-B*-square"],
    )
    def test_reflected_blocks_share_one_svd(self, m, ann, nminus, shared, monkeypatch):
        T = assemble_dual(m, ann, 64, nminus)
        full = np.linalg.svd(T.matrix, compute_uv=False)
        calls = self._record_svd(monkeypatch)
        sv = singular_values(T)
        assert len(calls) == 1
        if shared:  # the plus block without index 0, on its nonzero columns
            assert calls[0].shape[0] == T.nplus - 1
        else:  # the nonzero rows and columns of the whole matrix
            assert calls[0].shape == self._nonzero_shape(T.matrix)
        assert calls[0].flags.f_contiguous
        assert len(sv) == T.size
        assert np.all(np.diff(sv) <= 0)
        np.testing.assert_allclose(sv, full, rtol=0, atol=1e-14 * full[0])
        fro = np.sum(np.abs(T.matrix) ** 2)
        assert np.sum(sv**2) == pytest.approx(fro, rel=1e-12)

    @pytest.mark.parametrize("where", ["minus-entry", "row-0", "column-0"])
    def test_broken_reflection_takes_one_full_svd(self, bstar, anti_bstar, annulus, where, monkeypatch):
        # one ulp off in the minus block, or a second entry in row 0 or
        # column 0, and the blocks no longer share their singular values
        for m in (bstar, anti_bstar):
            T = assemble_dual(m, annulus, 32)
            a = T.matrix.copy(order="F")
            i, j = {"minus-entry": np.argwhere(a[T.nplus :, 1:] != 0)[0] + (T.nplus, 1),
                    "row-0": (0, np.flatnonzero(a[1 : T.nplus].any(axis=0))[1]),
                    "column-0": (1, 0)}[where]
            a[i, j] = np.nextafter(a[i, j], 2.0) if a[i, j] else 1e-3
            broken = dataclasses.replace(T, matrix=a)
            full = np.linalg.svd(a, compute_uv=False)
            calls = self._record_svd(monkeypatch)
            sv = singular_values(broken)
            monkeypatch.undo()
            assert [c.shape for c in calls] == [self._nonzero_shape(a)]
            np.testing.assert_allclose(sv, full, rtol=0, atol=1e-14 * full[0])

    def test_split_decoupled_pattern_takes_one_full_svd(self, monkeypatch):
        # P-symmetric, and no column reaches both row blocks, but plus column 1
        # reaches the plus rows and plus column 2 the minus rows: no two blocks
        # that P swaps hold the matrix, so it takes the general path
        p = 5
        a = np.zeros((2 * p - 1, 2 * p - 1), dtype=complex, order="F")
        a[0, 0] = 1.0
        a[1:3, 1] = 0.5, 0.2 - 0.1j  # plus rows 1 and 2
        a[p + 1, 2] = 0.3 + 0.4j  # minus row 2
        a[3:5, 3] = 0.1j, 0.05
        P = _swap(p, p - 1)
        a[:, p:] = np.conj(a[np.ix_(P, P[p:])])  # each minus column from its plus partner
        T = TruncatedOperator(p, p - 1, a, 256)
        assert np.array_equal(a, np.conj(a[np.ix_(P, P)]))
        top, bottom = a[:p].any(axis=0), a[p:].any(axis=0)
        assert not (top & bottom).any()
        assert top[1] and bottom[2]
        full = np.linalg.svd(a, compute_uv=False)
        calls = self._record_svd(monkeypatch)
        sv = singular_values(T)
        assert [c.shape for c in calls] == [self._nonzero_shape(a)]
        np.testing.assert_allclose(sv, full, rtol=0, atol=1e-14 * full[0])

    def test_coupled_blocks_take_one_full_svd(self, annulus, monkeypatch):
        ops = [
            assemble_dual(TrigLift(2, (0.1,)), annulus, 16),
            assemble_dual(BlaschkeProduct(1.0, (0.2, 0.3j)), annulus, 16),
        ]
        calls = self._record_svd(monkeypatch)
        for T in ops:
            singular_values(T)
        # one SVD each, on the nonzero rows and columns
        assert [a.shape for a in calls] == [self._nonzero_shape(T.matrix) for T in ops]

    @staticmethod
    def _raw(case, p=6):
        """A raw (2p - 1)-square array: a00 alone in row and column 0, and a
        dense complex block A with its partner about index p, in the decoupled
        pattern (A on the plus, conj A on the minus diagonal block), the
        swapped one (A and conj A off the diagonal) or the decoupled one with
        A, not conj A, as the partner; return it and A."""
        rng = np.random.default_rng(7)
        A = rng.standard_normal((p - 1, p - 1)) + 1j * rng.standard_normal((p - 1, p - 1))
        a = np.zeros((2 * p - 1, 2 * p - 1), dtype=complex, order="F")
        a[0, 0] = 1.0
        inner, outer = slice(1, p), slice(p, None)
        own, other = (outer, inner) if case == "swapped" else (inner, outer)
        a[inner, own] = A
        a[outer, other] = A if case == "unmatched" else A.conj()
        return a, A

    @pytest.mark.parametrize("case", ["decoupled", "swapped", "raw-B*", "unmatched"])
    def test_raw_array_reads_p_from_its_shape(self, case, bstar, annulus, monkeypatch):
        # a raw array needs no truncation data: with the pattern about
        # p = (n + 1) // 2 it shares one SVD, and unmatched blocks take one full one
        if case == "raw-B*":
            a, A = assemble_dual(bstar, annulus, 16).matrix, None
        else:
            a, A = self._raw(case)
        p = (len(a) + 1) // 2
        full = np.linalg.svd(a, compute_uv=False)
        calls = self._record_svd(monkeypatch)
        sv = singular_values(a)
        assert len(calls) == 1
        if case == "unmatched":
            assert calls[0].shape == a.shape
        else:
            assert calls[0].shape[0] == p - 1
            assert A is None or np.array_equal(calls[0], A)
        assert len(sv) == len(a)
        np.testing.assert_allclose(sv, full, rtol=0, atol=1e-14 * full[0])

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_empty_array(self, shape):
        assert singular_values(np.zeros(shape)).shape == (0,)

    @pytest.mark.parametrize(
        "case", ["B*@512", "anti-B*", "triglift", "all-zero", "raw-array"]
    )
    def test_no_svd_sees_a_zero_row_or_column(self, case, bstar, anti_bstar, annulus, monkeypatch):
        T = {
            "B*@512": lambda: assemble_dual(bstar, annulus, 512),
            "anti-B*": lambda: assemble_dual(anti_bstar, annulus, 128),
            "triglift": lambda: assemble_dual(TrigLift(2, (0.1,)), annulus, 16),
            "all-zero": lambda: _toy_operator(np.zeros((12, 12), dtype=complex)),
            "raw-array": lambda: np.pad(assemble_dual(bstar, annulus, 16).matrix, ((0, 3), (2, 0))),
        }[case]()
        matrix = getattr(T, "matrix", T)
        if case != "all-zero":
            assert not matrix.any(axis=0).all()  # the case has zero columns to drop
        full = np.linalg.svd(matrix, compute_uv=False)
        calls = self._record_svd(monkeypatch)
        sv = singular_values(T)
        for a in calls:
            assert a.any(axis=0).all() and a.any(axis=1).all()
        assert len(sv) == min(matrix.shape)
        assert np.all(np.diff(sv) <= 0)
        np.testing.assert_allclose(sv, full, rtol=0, atol=1e-14 * full[0])
        fro = np.sum(np.abs(matrix) ** 2)
        assert np.sum(sv**2) == pytest.approx(fro, rel=1e-12, abs=0)


class TestTransferApply:
    def test_squaring_identity_function(self):
        # branches +-sqrt(z): sum phi' phi = 1 for f(xi) = xi
        sq = BlaschkeProduct(1.0, (0.0, 0.0))
        for z in (0.9, 1.1 + 0.3j, -0.75):
            assert transfer_apply_rational(sq, {1: 1.0}, z) == pytest.approx(1.0, abs=1e-12)

    def test_squaring_fixed_vector(self):
        sq = BlaschkeProduct(1.0, (0.0, 0.0))
        for z in (0.85, 1.2j, -1.1):
            got = transfer_apply_rational(sq, {-1: 1.0}, z)
            assert got == pytest.approx(1.0 / z, abs=1e-12)

    def test_squaring_kills_constants(self):
        sq = BlaschkeProduct(1.0, (0.0, 0.0))
        assert abs(transfer_apply_rational(sq, {0: 1.0}, 0.9 + 0.1j)) < 1e-12

    def test_branch_selection_formula(self):
        # L z^m = z^((m+1)/d - 1) iff d divides m+1, else 0
        sq = BlaschkeProduct(1.0, (0.0, 0.0))
        z = 1.07 * np.exp(0.9j)
        for m in range(-4, 5):
            got = transfer_apply_rational(sq, {m: 1.0}, z)
            want = z ** ((m + 1) // 2 - 1) if (m + 1) % 2 == 0 else 0.0
            assert got == pytest.approx(want, abs=1e-11)

    def test_anti_map_eigenvector(self):
        # 1/z^2 keeps 1/z fixed with eigenvalue one (omega = -1 included)
        inv = BlaschkeProduct(1.0, (0.0, 0.0), anti=True)
        z = 0.95 * np.exp(0.4j)
        assert transfer_apply_rational(inv, {-1: 1.0}, z) == pytest.approx(1 / z, abs=1e-12)

    def test_preimages_of_bstar(self, bstar):
        got = transfer_apply_rational(bstar, {1: 1.0}, 0.9)
        # independent oracle: solve the quadratic by hand and sum f/tau'
        roots = np.roots([2, -1 + 0.9, -2 * 0.9])  # 2p^2 - p = 0.9(2 - p)
        want = sum(p / bstar.deriv(p) for p in roots)
        assert got == pytest.approx(want, abs=1e-12)


class TestPairing:
    def test_minus_basis_constant(self, annulus):
        h = HardyPair.basis("minus", 1, 4, 4)
        assert pairing(h, {0: 1.0}, annulus) == pytest.approx(annulus.R, abs=1e-12)

    def test_plus_basis_no_residue(self, annulus):
        h = HardyPair.basis("plus", 0, 4, 4)
        assert abs(pairing(h, {1: 1.0}, annulus)) < 1e-13

    def test_minus_basis_no_residue(self, annulus):
        h = HardyPair.basis("minus", 1, 4, 4)
        assert abs(pairing(h, {1: 1.0}, annulus)) < 1e-13

    def test_matches_trapezoidal_pairing(self, annulus):
        # the closed form against the trapezoidal rule on both circles, which
        # is exact for these Laurent polynomials of degree < 512
        r, R = annulus.r, annulus.R
        rng = np.random.default_rng(17)

        def cplx(n):
            return rng.standard_normal(n) + 1j * rng.standard_normal(n)

        for _ in range(50):
            h = HardyPair(cplx(6), cplx(6))
            f = dict(zip(range(-8, 9), cplx(17)))

            def f_eval(z):
                return sum(c * z**k for k, c in f.items())

            def f_h1(z):
                return f_eval(z) * sum(c * (z / r) ** m for m, c in enumerate(h.plus))

            def f_h2(z):
                return f_eval(z) * sum(c * (R / z) ** m for m, c in enumerate(h.minus, start=1))

            want = circle_integral(f_h1, r, 512) + circle_integral(f_h2, R, 512)
            assert pairing(h, f, annulus) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_primal_route_reproduces_adjoint_spectrum(bstar, annulus):
    # discretize the transfer operator directly: apply it to Laurent modes
    # through polynomial preimages and project back by FFT on the unit
    # circle; the leading spectrum must agree with the adjoint assembly,
    # which never touches inverse branches
    modes = list(range(-10, 11))
    K = 128
    nodes = np.exp(2j * np.pi * np.arange(K) / K)
    primal = np.empty((len(modes), len(modes)), dtype=complex)
    for j, mm in enumerate(modes):
        samples = np.array([transfer_apply_rational(bstar, {mm: 1.0}, z) for z in nodes])
        primal[:, j] = fourier_coeffs_from_samples(samples, 1.0)[modes]
    primal_eigs = np.linalg.eigvals(primal)
    primal_eigs = primal_eigs[np.argsort(-np.abs(primal_eigs))]

    adjoint = eigenvalues(assemble_dual(bstar, annulus, 32, 32)).eigenvalues
    match_multiset(adjoint[:7], primal_eigs, 1e-8)


def test_spectrum_independent_of_annulus():
    # the eigenvalue sequence is intrinsic to the map, not to the annulus
    # carrying the discretization; deeper entries converge at rates set by
    # the annulus, so only the well-resolved head is compared
    wavy = TrigLift(2, cos_coeffs=(0.2,), sin_coeffs=(0.1,))
    spec1 = eigenvalues(assemble_dual(wavy, Annulus(0.85, 1.2), 48, 48))
    spec2 = eigenvalues(assemble_dual(wavy, Annulus(0.93, 1.1), 48, 48))
    match_multiset(spec1.eigenvalues[:5], spec2.eigenvalues, 1e-8)


class TestDuality:
    def test_bstar(self, bstar, annulus):
        assert duality_residual(bstar, annulus, 32) < 1e-8

    def test_squaring_as_blaschke(self, annulus):
        sq = BlaschkeProduct(1.0, (0.0, 0.0))
        assert duality_residual(sq, annulus, 16) < 1e-10

    def test_undertruncated_fails_loudly(self, bstar, annulus):
        assert duality_residual(bstar, annulus, 2) > 1e-3
