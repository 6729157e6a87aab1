"""Reversible jump perturbation-optimization sampling for large Gaussians."""

__version__ = "0.1.0"

from .adapt import (
    AdaptController,
    AdaptiveRjpoKernel,
    MinCces,
    TargetRate,
    essr_from_alpha,
    make_kernel,
    update_min_cces,
    update_target_rate,
)
from .cg import CGOutcome, cg_solve
from .diag import DiagnosticsReport, acceptance_curve, ess, gelman_rubin, rmse
from .errors import ConfigurationError, NumericalBreakdownError
from .linop import (
    CirculantOperator,
    ComposedOperator,
    DecimationOperator,
    DenseOperator,
    FactoredPrecision,
    GaussianTarget,
    LinearOperator,
    StackedFactor,
    target_from_dense,
    to_dense,
)
from .problems import ar1_covariance, ar1_precision, ar1_target
from .rng import PairedStream, RngStream, derive_seeds
from .sampler import (
    EXACT_EPSILON,
    ChainState,
    KernelOutcome,
    epo_kernel,
    epo_step,
    perturb,
    rjpo_kernel,
    rjpo_step,
    run_chain,
    tpo_kernel,
    tpo_step,
)
