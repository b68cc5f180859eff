"""The seeded route-agreement sweep: every kept map of ``helpers.sweep_products``
runs ``converged_spectrum`` on its automatic annulus, and each eigenvalue it
counts as converged must lie within 1e-8 of the nearest closed-form eigenvalue.

34 of the 53 maps fail today: the absolute snap zeroes entries whose error
then does not move under doubling, so wrong eigenvalues are counted as
converged (ROADMAP item 26).  They are strict xfails, so the change that
mends them must turn each into a pass.
"""

import numpy as np
import pytest

from helpers import blaschke_spectrum, sweep_products
from ruelle.spectra import converged_spectrum
from ruelle.traces import closed_form_multiplier

TOL = 1e-8

# kept-map indices whose counted eigenvalues miss the closed form by more than TOL
SNAPPED = {0, 2, 3, 4, 7, 8, 9, 10, 11, 13, 15, 18, 20, 21, 22, 23, 24, 26, 27, 28, 30,
           31, 32, 33, 35, 37, 38, 39, 42, 45, 47, 49, 50, 52}

SNAP = pytest.mark.xfail(strict=True, reason="ROADMAP item 26: the absolute snap hides the error")

SWEEP = [
    pytest.param(
        m, ann, id=f"{i:02d}-{'anti' if m.anti else 'blaschke'}{len(m.zeros)}",
        marks=[SNAP] if i in SNAPPED else [],
    )
    for i, (m, ann) in enumerate(sweep_products())
]


def test_sweep_keeps_53_maps():
    assert len(SWEEP) == 53


@pytest.mark.parametrize("m, ann", SWEEP)
def test_counted_eigenvalues_match_the_closed_form(m, ann):
    s = converged_spectrum(m, ann)
    mu, anti = closed_form_multiplier(m)
    expected = blaschke_spectrum(mu, s.converged_count, anti)
    worst = max(np.abs(expected - lam).min() for lam in s.converged())
    assert worst <= TOL, f"counted eigenvalue {worst:.3g} off the closed form"
