"""Spectra of transfer operators for analytic expanding circle maps.

The library discretises the adjoint transfer operator of an analytic
expanding (or more generally holomorphically expansive) map of an annulus
as a block composition operator in the split Laurent basis of
H^2(D_r) + H^2_0(D_R^inf), and cross-checks every numerical route against
closed forms available for Blaschke and anti-Blaschke products: eigenvalue
sequences driven by the interior fixed-point multiplier, contour-integral
traces, Fredholm determinants, and the quadratic order of growth of the
associated entire function.

Each public name is imported from its module, as in
``from ruelle.spectra import converged_spectrum``; the package itself
binds only the modules.
"""

# the seven library modules and not the CLI, so a timed `import ruelle` loads the same code
from . import julia, lifts, maps, numerics, operators, spectra, traces

__version__ = "0.1.0"
