"""Numerical laws of random-walk maxima and their half-normal limit.

Computes the law of max(S_1..S_n) for centered unit-variance walks by three
analytic routes on a shared grid, which agree to rounding on the grid's
lattice (so they check the code, not the grid error).  Measures
relative-entropy and total-variation distances to the half-normal law, and
verifies the constructive identities and bounds behind those limits at
desk scale.
"""

from .transforms import (
    CharFnSamples,
    charfn,
    charfn_convergence_report,
    charfn_decay_window,
    clt_envelope,
    half_normal_charfn,
    nagaev_charfn,
    negative_tail_transform,
    transform_bound_slacks,
)
from .config import ConfigError, RunConfig
from .decomposition import (
    BinomialDecomposition,
    DecompTable,
    MaxLawSplit,
    binomial_split,
    decomp_powers,
    max_law_splits,
    median_level,
    smooth_part,
    split_quality_diagnostics,
)
from .entropy import (
    L,
    ReferenceLaw,
    conditional_positive_entropy,
    half_normal,
    relative_entropy,
)
from .grid import (
    MASS_TOL,
    DistributionSpec,
    GridDensity,
    GridError,
    GridMismatchError,
    GridSpec,
    HalfLineLaw,
    UnknownDistributionError,
    WindowOverflowError,
    WindowTooSmallError,
    cdf_at,
    convolve,
    density_from_csv,
    density_to_csv,
    l1_distance,
    make_working_grid,
    moment,
    rescale_sqrt,
    restrict,
    sample_density,
    tv_distance,
)
from .limits import (
    ConvergenceRow,
    SplitResidual,
    convergence_curves,
    curves_csv,
    split_local_residual,
    weighted_sup_residual,
)
from .montecarlo import Comparison, EmpiricalSummary, compare, simulate
from .verify import CheckResult, VerifyReport, run_verification
from .walk import (
    WalkLaws,
    compute_walk,
    nagaev_density,
    sparre_andersen,
    spitzer_first_term_split,
    spitzer_nonpos_probs,
    spitzer_positive_law,
    spitzer_second_moment,
)

__version__ = "0.1.0"
