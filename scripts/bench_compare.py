#!/usr/bin/env python3
"""Benchmark a change against its parent and write the result as BENCH_*.json.

For each workload, BENCHMARK.json's `command` (`python3 perfbench/run.py`,
found through PATH, so in the environment a shell gives it) runs untraced
in the parent tree and in the change tree by turns: the parent first in
even pairs and the change first in odd ones, so that drift of the host's
speed falls on both sides alike.  Then each tree runs the workload once
traced.  The last line of a run's output is its result line; the file
keeps every result line and, for each end-to-end metric of BENCHMARK.json,
the median and quartiles of each side and the number of pairs in which the
change was better.  Each untraced run also keeps, from the record that its
`record:` line names (read before the next run of the workload overwrites
it), the figures as timed (`as_timed`, not scaled to reference speed) and
the median of the calibration kernel's times (`calibration_median_s`); the
summary gives each side's median and quartiles of `as_timed.ops_per_s` and
of that kernel median.  The file is rewritten after every run, so an
interrupted comparison keeps what it did.

Before the first run, every `__pycache__` directory under each tree's src/
and perfbench/ is removed.  Bytecode stamped with another tree's source
times is stale in a copied tree, and with PYTHONDONTWRITEBYTECODE=1 a stale
cache is recompiled on every import, which biases the setup time of that
side alone.

Each run lasts BENCHMARK.json's `run_seconds`; the untraced runs use seed
SEED and the traced ones TRACE_SEED, PAIRS pairs per workload.  Each tree
is recorded by its git commit (if any), whether it has uncommitted edits,
and a sha256 of the files under its src/ and perfbench/, so that the file
names the exact source it measured even when the change is not committed.

Usage (each tree is a source checkout with src/ and perfbench/):

    python3 scripts/bench_compare.py --parent PARENT --change CHANGE \\
        --workload spectra-deep --workload cli-session --out BENCH_7.json
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10
SEED = 1
TRACE_SEED = 7


def run_bench(command: list, tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple:
    """The run's result line and the lines before it."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    *lines, last = out.strip().splitlines()
    return json.loads(last), lines


def unscaled(tree: Path, lines: list) -> dict:
    """The `as_timed` figures of an untraced run and the median of its
    calibration kernel's times, from the record its `record:` line names."""
    path = next(line.split(":", 1)[1].strip() for line in lines if line.startswith("record:"))
    record = json.loads((tree / path).read_text())
    return {"as_timed": record["as_timed"],
            "calibration_median_s": float(np.median(record["calibration_s"]))}


def git(tree: Path, *args):
    res = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
    return res.stdout if res.returncode == 0 else None


def clear_bytecode(tree: Path):
    """Remove every __pycache__ directory under the tree's src/ and perfbench/."""
    for d in ("src", "perfbench"):
        for cache in sorted((tree / d).rglob("__pycache__")):
            shutil.rmtree(cache)


def source(tree: Path) -> dict:
    """The tree's commit, whether it differs from that commit, and a sha256
    over the relative path and bytes of every file under src/ and perfbench/."""
    digest = hashlib.sha256()
    files = [f for d in ("src", "perfbench") for f in sorted((tree / d).rglob("*"))
             if f.is_file() and "__pycache__" not in f.parts]
    for f in files:
        digest.update(f.relative_to(tree).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    commit, status = git(tree, "rev-parse", "HEAD"), git(tree, "status", "--porcelain")
    return {"commit": commit.strip() if commit else None,
            "dirty": bool(status.strip()) if status is not None else None,
            "sha256": digest.hexdigest()}


def quartiles(runs: list, value) -> dict:
    """Each side's median and quartiles of value(run), over its runs so far."""
    entry = {}
    for side in SIDES:
        vals = [value(r) for r in runs if r["side"] == side]
        if vals:
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            entry[side] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
    return entry


def summarise(runs: list, end_to_end: list) -> dict:
    """For each end-to-end metric, each side's quartiles and the pairs in
    which the change was better; for the unscaled ops/s and the calibration
    kernel's median, each side's quartiles alone."""
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        values = {s: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == s]
                  for s in SIDES}
        entry = {"unit": spec["unit"], "better": spec["better"],
                 **quartiles(runs, lambda r: r["result"]["metrics"][name]["value"])}
        pairs = list(zip(values["parent"], values["change"]))
        entry["pairs_change_better"] = sum(sign * (c - p) > 0 for p, c in pairs)
        entry["pairs"] = len(pairs)
        summary[name] = entry
    summary["as_timed.ops_per_s"] = {"unit": "1/s",
                                     **quartiles(runs, lambda r: r["as_timed"]["ops_per_s"])}
    summary["calibration_median_s"] = {"unit": "s",
                                       **quartiles(runs, lambda r: r["calibration_median_s"])}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        clear_bytecode(tree)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds, end_to_end = benchmark["run_seconds"], benchmark["end_to_end"]
    command = benchmark["command"]
    doc = {
        "command": command, "seconds": seconds, "seed": SEED, "trace_seed": TRACE_SEED,
        "sources": {s: source(t) for s, t in trees.items()},
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
        "workloads": {},
    }

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for workload in args.workload:
        entry = doc["workloads"][workload] = {"runs": [], "summary": {}, "traced": {}}
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result, lines = run_bench(command, trees[side], workload, SEED, seconds, 0)
                entry["runs"].append({"pair": pair, "side": side, "result": result,
                                      **unscaled(trees[side], lines)})
                entry["summary"] = summarise(entry["runs"], end_to_end)
                save()
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} pair {pair} {side}: ops_per_s {ops:.4g}", flush=True)
        for side in SIDES:
            result, _ = run_bench(command, trees[side], workload, TRACE_SEED, seconds, 1)
            entry["traced"][side] = {k: v["value"] for k, v in result["metrics"].items()}
            save()
            print(f"{workload} traced {side}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
