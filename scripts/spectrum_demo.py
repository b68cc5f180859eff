#!/usr/bin/env python3
"""End-to-end demonstration on the Blaschke product z(2z - 1)/(2 - z).

Computes the eigenvalue sequence three independent ways (operator
truncation, contour traces, closed-form multiplier products) and prints the
cross-check table: eigenvalues, traces of powers, and determinant values.
"""

import numpy as np

from ruelle.maps import Annulus, BlaschkeProduct
from ruelle.spectra import converged_spectrum, decay_fit
from ruelle.traces import (
    blaschke_trace_closed,
    det_from_spectrum,
    det_from_traces,
    det_product_formula,
    trace_power,
)

bstar = BlaschkeProduct(1.0, (0.0, 0.5))
annulus = Annulus(0.8, 1.25)
mu = -0.5

spec = converged_spectrum(bstar, annulus)
print(f"converged eigenvalues (N = {spec.operator.nplus}):")
for n, lam in enumerate(spec.eigenvalues[:9], start=1):
    print(f"  lambda_{n} = {lam.real:+.12f} {lam.imag:+.1e}j")

fit = decay_fit(spec)
print(f"\ndecay fit: beta = {fit.beta:.4f}, c = {fit.c:.4f}, R^2 = {fit.r2:.5f}")
print(f"order estimate 1 + 1/beta = {1 + 1 / fit.beta:.4f} (exact order: 2)")

print("\ntraces of powers vs closed form 1 + 2 mu^n/(1 - mu^n):")
for n in range(1, 6):
    contour = trace_power(bstar, n, annulus)
    closed = blaschke_trace_closed(mu, False, n)
    print(f"  n={n}: contour {contour.real:+.12f}  closed {closed.real:+.12f}")

print("\ndeterminant routes at z = 0.3:")
z = 0.3
print(f"  eigenvalue product : {det_from_spectrum(spec, np.log(z)).value:+.12f}")
print(f"  trace series       : {det_from_traces(bstar, annulus, z).value:+.12f}")
print(f"  multiplier product : {det_product_formula(mu, False, z).value:+.12f}")
