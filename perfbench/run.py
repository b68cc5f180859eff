"""Benchmark of the ruelle package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Load is one closed-loop
client: each operation starts when the previous one has finished.  BLAS
and OpenMP are pinned to one thread before numpy is imported.

``--trace 0`` measures set-up, then runs the whole rounds of the workload
that take about ``--seconds`` at its nominal round time, and prints the
end-to-end metrics.  Every operation is repeated in a run, and its time is
the median of its repeats.  A fixed calibration kernel runs after every
operation and around every set-up, and all times are reported at
reference speed: each operation's times are scaled by
``calibration.REFERENCE_S`` over the kernel's median time in the samples
nearest to it (see ``calibration``); the times as measured go to the
record.  ``--trace 1`` runs each operation of a fixed list
untraced and traced (so that the counters repeat exactly for a seed), and
prints the per-layer metrics derived from the spans together with the
tracing overhead.  The last line of standard output is the result object;
a detailed record (environment, every generated input, per-operation
outcomes) goes to ``.bench_out/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CALIBRATION = 10  # kernel samples before and after each set-up
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ruelle; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import ruelle in a fresh interpreter (the interpreter's own
    start-up excluded)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, env=os.environ.copy(), check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def execute(op, tracer=None, op_id=0):
    """Run one operation; returns (wall seconds, outcome, detail, CPU
    seconds) with outcome one of ok, known_defect, error (raised), wrong
    (missed its check); the times are those of the call, not of the check.
    A raise or a missed check that the operation's ``known_defect``
    recognises is a known_defect."""
    from checks import CheckFailed

    def outcome(exc, kind):
        known = op.known_defect is not None and op.known_defect(exc)
        return "known_defect" if known else kind

    if tracer is not None:
        tracer.op_id = op_id
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = op.call()
    except Exception as exc:  # every raise is an outcome of the operation
        return (time.perf_counter() - t0, outcome(exc, "error"), f"{type(exc).__name__}: {exc}",
                time.process_time() - c0)
    finally:
        if tracer is not None:
            tracer.op_id = -1
    dt, cpu = time.perf_counter() - t0, time.process_time() - c0
    if tracer is not None and hasattr(result, "artifact"):
        tracer.counts["cli.artifact_bytes"] += len(result.artifact)
    try:
        op.check(result)
    except CheckFailed as exc:
        return dt, outcome(exc, "wrong"), str(exc), cpu
    return dt, "ok", None, cpu


def rounds_for(workload, seconds) -> int:
    """Whole rounds that take about ``seconds`` at the workload's nominal
    round time, and at least its ``min_rounds``.  The count depends on
    ``seconds`` only, so every run of a workload does the same operations
    and its order statistics (median, tail) are taken over the same number
    of samples."""
    return max(workload.min_rounds, round(seconds / workload.round_s))


def run_phase(workload, count, calibration):
    """Closed loop over the workload's round for ``count`` operations, with
    one calibration sample after each.  Returns (records, wall seconds, cpu
    seconds); the calibration is outside the operations' times but inside
    the phase's."""
    records = []
    ops = workload.ops
    t0, c0 = time.perf_counter(), time.process_time()
    for i in range(count):
        op = ops[i % len(ops)]
        dt, outcome, detail, cpu = execute(op)
        records.append({"op": op.label, "s": dt, "cpu_s": cpu, "outcome": outcome, "detail": detail})
        calibration.sample()
    return records, time.perf_counter() - t0, time.process_time() - c0


def tail_point(times):
    """Wall time at the highest percentile with at least 10 samples beyond
    it: (value, percentile, sample count).  With 10 samples or fewer no
    such percentile exists and the maximum is reported."""
    xs = sorted(times)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    pct = 100.0 * i / (n - 1) if n > 1 else 100.0
    return xs[i], pct, n


def setup(name, seed, calibration):
    """Import probe + input generation + one warm-up operation, repeated,
    each repeat between two blocks of calibration samples; returns (median
    seconds at reference speed, workload of the last repeat, the repeats
    as measured)."""
    import workloads

    times, scaled, workload = [], [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        mark = calibration.mark()
        calibration.sample(SETUP_CALIBRATION)
        t_import = import_seconds()
        t0 = time.perf_counter()
        workload = workloads.build(name, seed, OUT_DIR)
        dt, outcome, detail, _ = execute(workload.warmup)
        if outcome != "ok":
            workload.close()
            raise RuntimeError(f"warm-up operation {workload.warmup.label} {outcome}: {detail}")
        times.append(t_import + time.perf_counter() - t0)
        calibration.sample(SETUP_CALIBRATION)
        scaled.append(times[-1] * calibration.scales(mark)[0])
    return statistics.median(scaled), workload, times


def environment(seed):
    import numpy as np

    try:
        from importlib.metadata import version
        scipy_version = version("scipy")
    except Exception:  # scipy metadata missing: record that, not fail
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "seed": seed, "git_commit": commit,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def count(records, *outcomes):
    return sum(r["outcome"] in outcomes for r in records)


def per_op_median(records, key):
    """Each operation's median over its repeats in the run, by label."""
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r[key])
    return {op: statistics.median(xs) for op, xs in by_op.items()}


def end_to_end(records, wall, cpu, setup_s, scales):
    """Metrics of the timed phase at reference speed (``scales``: the wall
    and CPU factors of each record, from the calibration).  Every execution
    is charged the median scaled time of its operation in the run, so a
    burst of load from elsewhere on one repeat does not move the figures;
    ``ops_per_s`` is the rate of the closed loop at those times, and the
    median and the tail are taken over the executions, as many samples as
    attempted.  The plain wall-clock figures go to the record as
    ``as_timed``."""
    ok = count(records, "ok")
    scaled = [{"op": r["op"], "s": r["s"] * ws, "cpu_s": r["cpu_s"] * cs}
              for r, (ws, cs) in zip(records, scales)]
    typical, typical_cpu = per_op_median(scaled, "s"), per_op_median(scaled, "cpu_s")
    times = [typical[r["op"]] for r in records]
    tail, pct, n = tail_point(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / math.fsum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "cpu_per_op_s": (math.fsum(typical_cpu[r["op"]] for r in records) / len(records), "s"),
        "ok_frac": (ok / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [r["s"] for r in records]
    extra = {"tail_percentile": pct, "samples": n, "distinct_ops": len(typical),
             "fail_frac": 1 - ok / len(records), "timed_phase_s": wall,
             "calibration_scales": [ws for ws, _ in scales],
             "as_timed": {"ops_per_s": ok / wall, "op_p50_s": statistics.median(raw),
                          "op_tail_s": tail_point(raw)[0], "cpu_per_op_s": cpu / len(records)}}
    return metrics, extra


def traced(workload):
    """Each of the workload's first ``trace_ops`` operations runs twice in a
    row, once untraced and once traced, the order alternating from one
    operation to the next, so that drift in machine speed and first-use
    costs fall on both sides of the overhead alike."""
    from tracing import Tracer

    tracer = Tracer()
    plain, records = [], []
    for i in range(workload.trace_ops):
        op = workload.ops[i % len(workload.ops)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    dt, outcome, detail, _ = execute(op, tracer, i)
                finally:
                    tracer.uninstall()
            else:
                dt, outcome, detail, _ = execute(op)
            (records if with_trace else plain).append(
                {"op": op.label, "s": dt, "outcome": outcome, "detail": detail, "traced": with_trace})

    def rate(recs):
        return count(recs, "ok") / sum(r["s"] for r in recs)

    untraced_rate, traced_rate = rate(plain), rate(records)
    metrics = tracer.metrics(sum(r["s"] for r in records))
    ratios = ("_share", "_ratio", "_frac")
    layer = {k: (v, "ratio" if k.endswith(ratios) else "count") for k, v in metrics.items()}
    layer["operators.max_K"] = (layer["operators.max_K"][0], "samples")
    layer["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    layer["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    layer["trace.overhead_frac"] = (1 - traced_rate / untraced_rate, "ratio")
    layer["ops.fail_frac"] = (1 - count(records, "ok") / len(records), "ratio")
    return plain + records, layer, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ruelle" / "__init__.py").is_file():
        print(f"error: no ruelle package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import ruelle

    if Path(ruelle.__file__).resolve().parent != (SRC / "ruelle").resolve():
        print(f"error: ruelle imported from {ruelle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from calibration import Calibration

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")  # convergence and tail warnings are counted, not printed
    OUT_DIR.mkdir(exist_ok=True)

    calibration = Calibration()
    setup_s, workload, setup_times = setup(args.workload, args.seed, calibration)
    try:
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            records, metrics, tracer = traced(workload)
            tracer.write(OUT_DIR / f"spans-{stem}.npz")
            extra = {}
        else:
            mark = calibration.mark()
            records, wall, cpu = run_phase(workload, rounds_for(workload, args.seconds) * len(workload.ops),
                                           calibration)
            metrics, extra = end_to_end(records, wall, cpu, setup_s,
                                        calibration.local_scales(mark, len(records)))
            extra["calibration_s"] = calibration.wall[mark:]
    finally:
        workload.close()

    unexpected = count(records, "error", "wrong")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "setup_repeats_s": setup_times, **extra,
        "outcomes": {k: count(records, k) for k in ("ok", "known_defect", "error", "wrong")},
        "inputs": workload.inputs, "operations": records,
    }
    record_path = OUT_DIR / f"record-{stem}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for r in records:
        if r["outcome"] in ("error", "wrong"):
            print(f"FAILED {r['op']}: {r['outcome']}: {r['detail']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(records),
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
