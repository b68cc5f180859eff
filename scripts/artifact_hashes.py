#!/usr/bin/env python3
"""Fingerprint the command-line artifacts: run a fixed set of `ruelle`
commands in-process in a temporary directory and print one line per
artifact, `name sha256 exit-code`.

Two source trees that print the same lines produce byte-identical
artifacts.  No hash is compared here, because the bits of a floating-point
result may differ across CPUs and numpy builds; compare two runs on one
machine instead.  On a 2-core x86-64 host with numpy 2.4.6 and its
OpenBLAS 0.3.31, OPENBLAS_NUM_THREADS=1 and the default (2 threads) print
the same 26 lines, measured again on the symmetric truncation (2N - 1
rows): the anti-product spectra, which once went through a threaded
dense eigensolve, now come from the matrix's zero pattern.  The
TrigLift spectra still take `np.linalg.eigvals`, but only on the 26 x 26
core that permutations leave of each matrix (`spectra.eigenvalues`): the
cos TrigLift on a complex core, the odd (sin-only) one on a real core, the
only artifact on LAPACK's real dense eigensolver.  More threads or another
BLAS may change them; that was not measured.

The exit codes, unlike the hashes, are checked: each command must exit
with its code in EXIT_CODES, 0 everywhere except 2 (numerical warning) for
the TrigLift spectrum on the fixed annulus, which converges 7 of its 10
wanted eigenvalues by truncation 256.  They rest on convergence verdicts
rather than on last bits, and were the same at 1 and 2 BLAS threads on the
host above.  Exits 1 if a command writes no artifact or exits with another
code.

Usage: PYTHONPATH=src python scripts/artifact_hashes.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from ruelle.cli import main

BSTAR = '{"type":"blaschke","alpha":[1,0],"zeros":[[0,0],[0.5,0]]}'
ANTI = '{"type":"blaschke","alpha":[1,0],"zeros":[[0,0],[0.5,0]],"anti":true}'
TRIG = '{"type":"triglift","d":2,"cos":[0.1]}'
ODDTRIG = '{"type":"triglift","d":2,"sin":[0.1]}'
INV2 = '{"type":"blaschke","alpha":[1,0],"zeros":[[0,0],[0,0]],"anti":true}'
MOBIUS = '{"type":"mobius","w":[0.7,0]}'
FIXED = ["--annulus", "0.8,1.25"]

# name -> arguments; "--out <name>" is appended
ARTIFACTS = {
    "spectrum-bstar-fixed.csv": ["spectrum", "--map", BSTAR, *FIXED],
    "spectrum-bstar-auto.json": ["spectrum", "--map", BSTAR, "--format", "json"],
    "spectrum-anti-auto.csv": ["spectrum", "--map", ANTI],
    "spectrum-trig-fixed.csv": ["spectrum", "--map", TRIG, *FIXED],
    "spectrum-trig-auto.csv": ["spectrum", "--map", TRIG],
    # an odd lift: a real matrix, so a real dense eigensolve
    "spectrum-oddtrig-fixed.csv": ["spectrum", "--map", ODDTRIG, *FIXED],
    "spectrum-bstar-fixed-N64.csv": [
        "spectrum", "--map", BSTAR, *FIXED, "--N", "64",
        "--dump-matrix", "matrix-bstar-fixed-N64.csv",
    ],
    "scan-mobius-fixed.csv": ["scan", "--family", "mobius", "--grid", "0:1:11", *FIXED],
    "scan-mobius-auto.csv": ["scan", "--family", "mobius", "--grid", "0:1:6"],
    "scan-homotopy.csv": [
        "scan", "--family", "homotopy", "--map0", BSTAR, "--map1", TRIG, "--grid", "0:1:4",
    ],
    "det-zeta-anti.csv": ["det", "--map", ANTI, "--zeta-scan", "0.25:30.25:16"],
    "det-zeta-bstar.csv": ["det", "--map", BSTAR, "--zeta-scan", "5:50:16"],
    "det-zeta-trig.csv": ["det", "--map", TRIG, "--zeta-scan", "0:3:4"],
    "det-z-bstar.json": ["det", "--map", BSTAR, "--z", "0.25,0.1"],
    "det-z-anti.json": ["det", "--map", ANTI, "--z", "0.3"],
    "det-z-mobius.json": ["det", "--map", MOBIUS, "--z", "0.2"],
    "trace-bstar.json": ["trace", "--map", BSTAR],
    "trace-anti.json": ["trace", "--map", ANTI],
    "trace-mobius.json": ["trace", "--map", MOBIUS],
    "trace-trig.json": ["trace", "--map", TRIG],
    "homotopy-check.json": ["homotopy-check", "--map0", BSTAR, "--map1", TRIG],
    # a degree -2 family: the member path of orientation-reversing maps
    "homotopy-check-reversing.json": ["homotopy-check", "--map0", INV2, "--map1", ANTI],
    "julia.pgm": ["julia", "--w", "0.5,0.26"],
    "julia-steps.pgm": ["julia", "--w", "0.5,0.26", "--mode", "steps"],
    # 60000 pixels: one full render block and a partial one
    "julia-300x200.pgm": ["julia", "--w", "0.8,0.3", "--size", "300x200"],
}
# further files a command writes besides its --out
EXTRA_FILES = {"spectrum-bstar-fixed-N64.csv": ("matrix-bstar-fixed-N64.csv",)}
# expected exit code of each command, 0 where not listed
EXIT_CODES = {"spectrum-trig-fixed.csv": 2}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run() -> int:
    failed, home = 0, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, argv in ARTIFACTS.items():
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--out", name])
            expected = EXIT_CODES.get(name, 0)
            if code != expected:
                print(f"{name}: exit code {code}, expected {expected}", file=sys.stderr)
                failed = 1
            for path in (name, *EXTRA_FILES.get(name, ())):
                if not os.path.exists(path):
                    print(f"{path} missing {code}")
                    failed = 1
                else:
                    print(f"{path} {sha256(path)} {code}", flush=True)
        os.chdir(home)
    return failed


if __name__ == "__main__":
    sys.exit(run())
