#!/usr/bin/env python3
"""Fingerprint the operator assembly: for a fixed panel of maps with their
annuli and truncation orders N, assemble the adjoint at the library's own
truncation (`assemble_dual(m, annulus, N)`, plus 0..N-1 and minus
1..nminus = N-1), and for three cases at an explicit nminus, with the
automatic sample count, and print one line per case,

    name N nminus K sha256(matrix) sha256(eigenvalues) sha256(singular values)

where the matrix is hashed as its C-ordered bytes, whatever its memory
layout, and the eigenvalues and singular values as returned by
`eigenvalues` and `singular_values`.  A case whose assembly raises prints
`name N error: <message>` instead.

The orders run from N = 32, the first level of `converged_spectrum`'s
ladder, on which every converged count rests, to 512.  The first six maps
run on (0.8, 1.25), where r R = 1 and every map that reflects copies its
minus block from the plus block (the reflection rule of the operators
module).  The last two transform both blocks: Mobius 0.7+0.05i, which is
not a circle map, on (0.8, 1.25), and B* on (0.85, 1.2), where r R != 1.
Three more lines follow the panel: those two maps at N = 32 with
nminus = 32, and B* on (0.85, 1.2) with nminus = 16.  Every pass builds the
symmetric truncation (p, p - 1) that holds (N, nminus), so these lines pin
the gather of another truncation after a direct pass.

Two source trees that print the same lines assemble the same matrices, with
the same K, and return the same spectra bit for bit.  As in
`artifact_hashes.py`, nothing is compared and the exit code is 0: the last
bits of a dense eigensolve or SVD may differ across CPUs, BLAS builds and
thread counts, so compare two runs on one machine instead.  On a 2-core
x86-64 host with numpy 2.4.6 and its OpenBLAS 0.3.31, OPENBLAS_NUM_THREADS=1
and the default (2 threads) print the same K, matrix and eigenvalue hashes
everywhere (the TrigLift eigenvalues come from a dense solve of a 26 x 26
core at each N of the panel, and FLOOR_STAR's from 62 x 62 at N = 32 and
88 x 88 above), and the same singular values for B*, anti-B* and Mobius
0.7 (one shared SVD of the plus rows' block, `singular_values`), for the
odd TrigLift and for every map at N = 32, but different singular values
for the complex, coupled TrigLift and FLOOR_STAR matrices from N = 48,
for Mobius 0.7+0.05i from N = 128 and for B* on (0.85, 1.2) at N = 512
(one SVD of the whole matrix's nonzero rows and columns); pin one BLAS
thread for a bit-for-bit comparison.

Usage: PYTHONPATH=src python scripts/operator_fingerprints.py
"""

import hashlib

import numpy as np

from ruelle.maps import Annulus, BlaschkeProduct, MobiusFamilyMap, TrigLift
from ruelle.operators import assemble_dual, singular_values
from ruelle.spectra import eigenvalues

ANNULUS = Annulus(0.8, 1.25)
ORDERS = (32, 48, 128, 256, 512)
BSTAR = BlaschkeProduct(1.0, (0.0, 0.5))
PANEL = {
    "bstar": (BSTAR, ANNULUS),
    "anti-bstar": (BlaschkeProduct(1.0, (0.0, 0.5), anti=True), ANNULUS),
    "mobius-0.7": (MobiusFamilyMap(0.7), ANNULUS),
    "triglift": (TrigLift(2, (0.1,)), ANNULUS),
    "odd-triglift": (TrigLift(2, (), (0.1,)), ANNULUS),  # sin only: a real matrix
    # an anti-Blaschke product with complex data: a complex dense eigensolve
    "floor-star": (
        BlaschkeProduct(
            complex(-0.6931143075585181, 0.7208276886036468),
            (complex(-0.06947472054505469, -0.23304948848809703),
             complex(-0.056942402897746186, 0.14855363242454417)),
            anti=True,
        ),
        ANNULUS,
    ),
    # the direct assembly of both blocks: not a circle map, then r R != 1
    "mobius-complex": (MobiusFamilyMap(0.7 + 0.05j), ANNULUS),
    "bstar-0.85": (BSTAR, Annulus(0.85, 1.2)),
}
# (name, N, nminus): truncations other than the symmetric one, after a direct pass
GATHERED = [("mobius-complex", 32, 32), ("bstar-0.85", 32, 32), ("bstar-0.85", 32, 16)]


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def main():
    cases = [(name, n, None) for name in PANEL for n in ORDERS] + GATHERED
    for name, n, nminus in cases:
        m, annulus = PANEL[name]
        try:
            T = assemble_dual(m, annulus, n, nminus)
        except (ValueError, RuntimeError) as exc:
            print(f"{name} {n} error: {exc}", flush=True)
            continue
        eigs = eigenvalues(T).eigenvalues
        print(f"{name} {n} {T.nminus} {T.samples} {sha256(T.matrix)} {sha256(eigs)} "
              f"{sha256(singular_values(T))}", flush=True)


if __name__ == "__main__":
    main()
