"""Spectra of transfer operators for analytic expanding circle maps.

The library discretises the adjoint transfer operator of an analytic
expanding (or more generally holomorphically expansive) map of an annulus
as a block composition operator in the split Laurent basis of
H^2(D_r) + H^2_0(D_R^inf), and cross-checks every numerical route against
closed forms available for Blaschke and anti-Blaschke products: eigenvalue
sequences driven by the interior fixed-point multiplier, contour-integral
traces, Fredholm determinants, and the quadratic order of growth of the
associated entire function.
"""

from .maps import (
    Annulus,
    BlaschkeProduct,
    ComposedMap,
    MobiusFamilyMap,
    TrigLift,
    check_holo_expansive,
    fixed_point_disk,
    iterate,
    min_expansion,
    second_iterate_multiplier,
)
from .numerics import circle_integral, fourier_coeffs_from_samples, laurent
from .operators import TruncatedOperator, assemble_dual, singular_values
from .spectra import (
    DecayFit,
    Spectrum,
    converged_spectrum,
    counting_function,
    decay_fit,
    eigenvalues,
    order_estimate,
)
from .traces import (
    TraceReport,
    blaschke_trace_closed,
    det_from_spectrum,
    det_from_traces,
    det_product_formula,
    trace_contour,
    trace_power,
    trace_report,
)
from .lifts import (
    HomotopyFamily,
    HomotopyMember,
    build_homotopy,
    find_expansive_annulus,
    lift,
)
from .julia import Raster, render, write_pgm

__version__ = "0.1.0"
