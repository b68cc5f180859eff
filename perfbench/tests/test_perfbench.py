"""Self-tests of the benchmark: exact counters, checks that reject corrupted
results, the independent oracle, and the tracer's bookkeeping.

Run with ``python -m pytest perfbench/tests`` from the repository root."""

import dataclasses
import warnings

import numpy as np
import pytest

import run
import workloads
from calibration import REFERENCE_S, Calibration
from checks import BlaschkeOracle, CheckFailed
from tracing import Tracer

warnings.simplefilter("ignore")


def traced_pass(name, seed, count, root, skip=()):
    """Counters and derived ratios of one traced pass over the first
    ``count`` distinct operations of a freshly built workload whose labels
    contain none of ``skip``."""
    w = workloads.build(name, seed, root)
    ops = [op for op in {id(op): op for op in w.ops}.values()
           if not any(s in op.label for s in skip)][:count]
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [run.execute(op, tracer, i)[1] for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
        w.close()
    metrics = tracer.metrics(1.0)
    exact = {k: v for k, v in metrics.items() if not k.endswith("_share")}
    return outcomes, exact


@pytest.mark.parametrize("name,count,skip", [
    ("spectra-auto", 3, ()),
    ("spectra-deep", 3, ("N=256", "N=512", "triglift")),  # the slow cases stay out
    ("traces-det", 2, ()),
    ("cli-session", 6, ()),
])
def test_counters_repeat_exactly(name, count, skip, tmp_path):
    first_outcomes, first = traced_pass(name, 5, count, tmp_path, skip)
    second_outcomes, second = traced_pass(name, 5, count, tmp_path, skip)
    assert first_outcomes == second_outcomes
    assert first == second
    assert first["maps.eval_points"] > 0


def test_counters_see_each_layer(tmp_path):
    _, auto = traced_pass("spectra-auto", 3, 2, tmp_path)
    assert auto["operators.assemblies"] >= 4 and auto["operators.k_passes"] >= auto["operators.assemblies"]
    assert auto["numerics.fft_points"] > 0 and auto["lifts.annulus_search_calls"] == 2
    assert auto["traces.trace_power_calls"] == 0
    _, cli = traced_pass("cli-session", 3, 6, tmp_path)
    assert cli["cli.commands"] == 6 and cli["julia.pixel_iters"] > 512 * 512
    assert cli["cli.artifact_bytes"] > 2 * 512 * 512


def test_tracer_restores_the_package():
    from ruelle import maps, operators, spectra, traces

    before = (spectra.assemble_dual, spectra.eigenvalues, operators.fourier_coeffs_from_samples,
              traces.iterate, traces.circle_integral, maps._MapBase.__dict__["eval"])
    tracer = Tracer()
    tracer.install()
    assert spectra.assemble_dual is not before[0]
    tracer.uninstall()
    after = (spectra.assemble_dual, spectra.eigenvalues, operators.fourier_coeffs_from_samples,
             traces.iterate, traces.circle_integral, maps._MapBase.__dict__["eval"])
    assert after == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.names = ["a.x", "b.y", "b.y"]
    tracer.starts = [0.0, 1.0, 4.0]
    tracer.ends = [10.0, 3.0, 5.0]
    tracer.parents = [-1, 0, 0]
    tracer.ops = [0, 0, 0]
    assert tracer.self_times() == {"a.x": 7.0, "b.y": 3.0}


def test_local_scales_take_the_nearest_samples():
    cal = Calibration.__new__(Calibration)
    cal.wall = [9.0, REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S, 4 * REFERENCE_S, 4 * REFERENCE_S]
    cal.cpu = list(cal.wall)
    scales = cal.local_scales(1, 5, window=1)  # the first sample belongs to set-up
    assert [w for w, _ in scales] == pytest.approx([1 / 1.5, 1.0, 0.5, 0.25, 0.25])


def test_end_to_end_charges_each_execution_its_operations_median():
    records = [{"op": op, "s": s, "cpu_s": s, "outcome": "ok"}
               for op, s in (("a", 1.0), ("b", 3.0), ("a", 2.0), ("b", 9.0), ("a", 6.0))]
    scales = [(1.0, 1.0), (1.0, 1.0), (0.5, 0.5), (1.0, 1.0), (0.5, 0.5)]
    metrics, extra = run.end_to_end(records, 21.0, 21.0, 0.5, scales)
    # scaled: a -> 1, 1, 3 (median 1); b -> 3, 9 (median 6)
    assert metrics["ops_per_s"][0] == pytest.approx(5 / (3 * 1 + 2 * 6))
    assert metrics["op_p50_s"][0] == 1.0 and metrics["op_tail_s"][0] == 6.0
    assert metrics["cpu_per_op_s"][0] == pytest.approx(15 / 5)
    assert extra["as_timed"]["ops_per_s"] == pytest.approx(5 / 21)


def test_tail_point():
    assert run.tail_point([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail_point(list(range(31)))
    assert (value, n) == (20, 31) and pct == pytest.approx(100 * 20 / 30)


# ------------------------------------------------------------- oracles


def test_oracle_matches_known_multipliers():
    b = BlaschkeOracle(1.0, [0.0, 0.5], False)
    assert b.mu == pytest.approx(-0.5, abs=1e-14)
    assert b.trace(1) == pytest.approx(1 / 3, abs=1e-14)
    np.testing.assert_allclose(b.spectrum(5), [1, -0.5, -0.5, 0.25, 0.25], atol=1e-14)
    anti = BlaschkeOracle(1.0, [0.0, 0.5], True)
    assert anti.mu == pytest.approx(0.5, abs=1e-14)
    assert anti.trace(1) == pytest.approx(1.0) and anti.trace(2) == pytest.approx(1 + 2 * 0.25 / 0.75)
    # det(I - zL) = exp(-sum z^n Tr(L^n) / n)
    z = 0.3 - 0.2j
    series = np.exp(-sum(z**n / n * b.trace(n) for n in range(1, 80)))
    assert b.det(z) == pytest.approx(series, abs=1e-13)
    assert b.log_abs_det_exp(2.5) == pytest.approx(np.log(abs(b.det(np.exp(2.5)))), abs=1e-10)


# -------------------------------------------- checks reject corrupted results


def test_spectrum_checks_reject_corruption(tmp_path):
    w = workloads.build("spectra-auto", 2, tmp_path)
    by_kind = {op.label.split("#")[0]: op for op in w.ops}
    for kind in ("B*", "blaschke2", "anti2", "triglift2", "mobius"):
        op = by_kind[kind]
        spec = op.call()
        op.check(spec)
        for index, delta in ((0, 1e-6), (1, 1e-4)):
            bad = spec.eigenvalues.copy()
            bad[index] += delta
            with pytest.raises(CheckFailed):
                op.check(dataclasses.replace(spec, eigenvalues=bad))


def test_assembly_checks_reject_corruption(tmp_path):
    w = workloads.build("spectra-deep", 1, tmp_path)
    op = next(op for op in w.ops if op.label == "B*@N=128")
    T, spec, sv = op.call()
    op.check((T, spec, sv))
    bad = spec.eigenvalues.copy()
    bad[3] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        op.check((T, dataclasses.replace(spec, eigenvalues=bad), sv))
    bad_sv = sv.copy()
    bad_sv[2] *= 1.001
    with pytest.raises(CheckFailed):
        op.check((T, spec, bad_sv))


def test_trace_checks_reject_corruption(tmp_path):
    w = workloads.build("traces-det", 1, tmp_path)
    op = w.ops[0]
    table, dets, closed = op.call()
    op.check((table, dets, closed))
    bad_table = list(table)
    bad_table[5] += 1e-6
    with pytest.raises(CheckFailed):
        op.check((bad_table, dets, closed))
    bad_dets = list(dets)
    bad_dets[2] = dataclasses.replace(dets[2], value=dets[2].value * (1 + 1e-7))
    with pytest.raises(CheckFailed):
        op.check((table, bad_dets, closed))
    bad_closed = list(closed)
    bad_closed[0] = dataclasses.replace(closed[0], value=closed[0].value + 1e-10)
    with pytest.raises(CheckFailed):
        op.check((table, dets, bad_closed))


def test_trace_failure_is_a_known_defect_only_for_triglift(tmp_path):
    w = workloads.build("traces-det", 1, tmp_path)
    trig = next(op for op in w.ops if op.label.startswith("triglift"))
    blaschke = next(op for op in w.ops if op.label.startswith("blaschke"))
    exc = RuntimeError("trace of power n=8 failed on every retry annulus")
    assert trig.known_defect(exc)
    assert blaschke.known_defect is None
    assert not trig.known_defect(ValueError("trace of power n=8"))


def test_cli_checks_reject_corruption(tmp_path):
    w = workloads.build("cli-session", 4, tmp_path)
    try:
        for op in w.ops:
            res = op.call()
            op.check(res)  # first run: content checks, digest recorded
            flipped = bytearray(res.artifact)
            flipped[len(flipped) // 2] ^= 0x01
            with pytest.raises(CheckFailed):
                op.check(dataclasses.replace(res, artifact=bytes(flipped)))
            with pytest.raises(CheckFailed):
                op.check(dataclasses.replace(res, code=2))
            op.check(op.call())  # a repeat reproduces the artifact byte for byte
        julia = next(op for op in w.ops if op.label == "julia")
        res = julia.call()
        wrong = bytearray(res.artifact)
        pixel = len(b"P5\n512 512\n255\n") + 287 * 512 + 287  # near z = 0.2 - 0.2i, a checked pixel
        wrong[pixel] = 255 - wrong[pixel]
        fresh = workloads.build("cli-session", 4, tmp_path)
        try:
            fresh_julia = next(op for op in fresh.ops if op.label == "julia")
            with pytest.raises(CheckFailed):
                fresh_julia.check(dataclasses.replace(res, artifact=bytes(wrong)))
        finally:
            fresh.close()
    finally:
        w.close()


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("traces-det", 9, tmp_path).inputs
    b = workloads.build("traces-det", 9, tmp_path).inputs
    c = workloads.build("traces-det", 10, tmp_path).inputs
    assert a == b and a != c
