"""Gaussian sampling kernels.

perturb draws eta ~ N(Q mu, Q) through the precision factor; the kernels
turn that perturbation into a sample of N(mu, Q^-1):

  epo_step   exact solve of Q x = eta (Q^-1 applied where it is known, CG to
             machine accuracy otherwise), always accepted, independent samples
  tpo_step   truncated solve from x0 = 0, always accepted (biased kernel)
  rjpo_step  truncated solve from x0 = -previous plus a reversible-jump
             accept/reject that restores exactness at any truncation level

A kernel is a callable (target, previous, stream) -> KernelOutcome, with
previous the chain's 1-D state; the chain driver here and the Gibbs driver
in superres both take one, and adapt.make_kernel builds them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cg import cg_solve
from .errors import ConfigurationError, NumericalBreakdownError
from .linop import GaussianTarget
from .rng import RngStream

# machine-accuracy proxy for an "exact" CG solve when no dense mirror exists
EXACT_EPSILON = 1e-12
# kept samples per second-moment product in ChainState; the folding step pays for it
COV_BLOCK = 8


@dataclass(frozen=True)
class KernelOutcome:
    """One MCMC step: proposal, decision, and solver cost."""

    next_sample: np.ndarray
    proposal: np.ndarray
    acceptance_probability: float
    accepted: bool
    cg_iterations: int
    relative_residual: float


def perturb(target: GaussianTarget, stream: RngStream) -> np.ndarray:
    """Draw eta = Q mu + F^t omega with omega ~ N(0, I_N'), one draw of N(Q mu, Q)."""
    omega = stream.standard_normal_vector(target.precision.factor.out_dim)
    return target.potential + target.precision.factor.apply_transpose(omega)


def _acceptance_exponent(residual, previous, proposal) -> float:
    """log of the (unclamped) acceptance ratio, -r^t(previous - proposal)."""
    exponent = -float(residual @ (previous - proposal))
    if not math.isfinite(exponent):
        raise NumericalBreakdownError(
            f"acceptance exponent is non-finite ({exponent}); residual is broken"
        )
    return exponent


def _exact_cg_solve(precision, eta, x0=None):
    """CG to EXACT_EPSILON from x0 (zero when None), preconditioned when the
    factor offers one.

    CG stops on its recursive residual, so the recomputed one can still sit
    just above EXACT_EPSILON; one more solve warm-started from that x then
    takes it below.  A solve that stops at its iteration cap, or a residual
    still above EXACT_EPSILON after the second solve, is not exact and
    raises NumericalBreakdownError.  Returns (x, relative residual,
    iterations).
    """
    q = precision.preconditioned()
    x, iterations = x0, 0
    for _ in range(2):
        out = cg_solve(q, eta, x0=x, epsilon=EXACT_EPSILON)
        iterations += out.iterations
        if not out.converged:
            raise NumericalBreakdownError(
                f"exact solve stopped at its iteration cap with relative residual "
                f"{out.relative_residual:.3e} at CG iteration {iterations} of the two solves"
            )
        if out.relative_residual <= EXACT_EPSILON:
            return out.solution, out.relative_residual, iterations
        x = out.solution
    raise NumericalBreakdownError(
        f"exact solve misses its residual target {EXACT_EPSILON:.0e} after a warm-started retry: "
        f"relative residual {out.relative_residual:.3e} at CG iteration {iterations} of the two"
    )


def epo_step(target: GaussianTarget, stream: RngStream) -> KernelOutcome:
    """Exact perturbation-optimization step; successive samples independent.

    Where Q^-1 is known, the draw applies it once and recomputes its
    residual with one Q-apply, no CG (0 iterations): through the dense
    mirror when the target carries one, else through the factor's
    ``inverse`` when it offers one (the super-resolution conditional with at
    most one alias term).  A mirror draw stands as it is; a draw through
    ``inverse`` whose relative residual misses EXACT_EPSILON is the start of
    the CG solve below, which then reports its iterations.  Without a known
    Q^-1, CG is pushed to machine accuracy (see _exact_cg_solve).
    """
    eta = perturb(target, stream)
    mirrored = target.mirror is not None
    factor = target.precision.factor
    inverse = target.mirror_solve if mirrored else getattr(factor, "inverse", None)
    x = None
    if inverse is not None:
        x = inverse(eta)
        residual = eta - target.precision.apply(x)
        eta_norm = math.sqrt(eta @ eta)  # np.linalg.norm's formula, without its wrapper
        rel = math.sqrt(residual @ residual) / eta_norm if eta_norm > 0 else 0.0
        if mirrored or rel <= EXACT_EPSILON:
            return KernelOutcome(x, x, 1.0, True, 0, rel)
    x, rel, iterations = _exact_cg_solve(target.precision, eta, x)
    return KernelOutcome(x, x, 1.0, True, iterations, rel)


def tpo_step(
    target: GaussianTarget,
    previous: np.ndarray,
    stream: RngStream,
    epsilon: float,
) -> KernelOutcome:
    """Truncated PO step from x0 = 0: always accepts, so truncation biases
    the chain.  The acceptance probability is still computed and recorded
    for diagnostics; it plays no role in the transition."""
    eta = perturb(target, stream)
    out = cg_solve(target.precision, eta, epsilon=epsilon)
    x = out.solution
    alpha = math.exp(min(0.0, _acceptance_exponent(out.residual_vector, previous, x)))
    return KernelOutcome(x, x, alpha, True, out.iterations, out.relative_residual)


def rjpo_step(
    target: GaussianTarget,
    previous: np.ndarray,
    stream: RngStream,
    epsilon: float,
) -> KernelOutcome:
    """Reversible-jump PO step.

    CG starts at x0 = -previous (the move's internal solve then starts at
    zero, which is what makes the proposal reversible), the residual is the
    recomputed eta - Q x_hat, and acceptance is decided in log space with a
    single uniform draw.
    """
    eta = perturb(target, stream)
    out = cg_solve(target.precision, eta, x0=-previous, epsilon=epsilon)
    x_hat = out.solution
    log_alpha = min(0.0, _acceptance_exponent(out.residual_vector, previous, x_hat))
    u = stream.uniform()
    accepted = u <= 0.0 or math.log(u) < log_alpha
    next_sample = x_hat if accepted else previous
    return KernelOutcome(
        next_sample, x_hat, math.exp(log_alpha), accepted, out.iterations, out.relative_residual
    )


# perfbench/run.py drives the `cholesky_epo` Gibbs kernel through `.draw`
def epo_kernel():
    def step(target, previous, stream):
        return epo_step(target, stream)

    step.draw = step
    return step


class ChainState:
    """History and running moments of one chain.

    Every statistic covers the kept window: the moments average samples
    n_min..n_max inclusive (mean over count = n_max - n_min + 1 samples,
    (n-1)-denominator covariance), the estimators the error metrics are
    defined against; mean acceptance and CG cost average steps
    n_min+1..n_max, the moves between those samples.  The optional N x N
    second moment (`adapt` turns it off) takes kept samples COV_BLOCK rows
    at a time, one matrix product per block; empirical_cov folds the rest.
    """

    def __init__(self, dim: int, n_max: int, n_min: int, track_covariance: bool,
                 store_samples: bool):
        self.n_min = n_min
        self.count = n_max - n_min + 1
        self.x = np.zeros(dim)
        self.alphas = np.zeros(n_max)
        self.accepted = np.zeros(n_max, dtype=bool)
        self.cg_iterations = np.zeros(n_max, dtype=np.int64)
        self.relative_residuals = np.zeros(n_max)
        self.samples = np.zeros((n_max + 1, dim)) if store_samples else None
        self._sum = np.zeros(dim)
        self._outer = np.zeros((dim, dim)) if track_covariance else None
        self._block = np.zeros((COV_BLOCK, dim)) if track_covariance else None
        self._filled = 0

    def _accumulate(self, x):
        self._sum += x
        if self._block is not None:
            self._block[self._filled] = x
            self._filled += 1
            if self._filled == COV_BLOCK:
                self._fold()

    def _fold(self):
        rows = self._block[:self._filled]  # the copy keeps numpy off BLAS syrk, 3x slower
        self._outer += rows.T @ rows.copy()
        self._filled = 0

    def empirical_mean(self) -> np.ndarray:
        return self._sum / self.count

    def empirical_cov(self) -> np.ndarray:
        if self._outer is None:
            raise ValueError("chain was run without covariance tracking")
        self._fold()
        mean = self.empirical_mean()
        return (self._outer - self.count * np.outer(mean, mean)) / (self.count - 1)

    @property
    def mean_acceptance(self) -> float:
        return float(self.alphas[self.n_min:].mean())

    @property
    def mean_cg_iterations(self) -> float:
        return float(self.cg_iterations[self.n_min:].mean())


def resolve_burn_in(n_max: int, n_min: int | None) -> int:
    """The burn-in of run_chain and run_gibbs: n_min, or 10% of n_max when
    None, checked so that at least one of the n_max steps follows it."""
    if n_max < 1:
        raise ConfigurationError(f"need at least 1 step, got {n_max}")
    if n_min is None:
        n_min = n_max // 10
    if not 0 <= n_min < n_max:
        raise ConfigurationError(f"burn-in {n_min} leaves no kept step out of {n_max}")
    return n_min


def run_chain(
    target: GaussianTarget,
    kernel,
    n_max: int,
    n_min: int | None,
    stream: RngStream,
    initial: np.ndarray | None = None,
    track_covariance: bool = True,
    store_samples: bool = False,
) -> ChainState:
    """Iterate a kernel n_max times, accumulating moments after burn-in.

    kernel is any callable (target, previous, stream) -> KernelOutcome.
    n_min defaults to 10% of n_max (resolve_burn_in); samples n_min..n_max
    (the initial point only when n_min = 0) enter the moment estimators, the
    second moment in blocks of COV_BLOCK.  A large-dimension caller passes
    track_covariance=False, as `adapt` does: no N x N array is allocated.
    """
    n_min = resolve_burn_in(n_max, n_min)
    dim = target.dim
    state = ChainState(dim, n_max, n_min, track_covariance, store_samples)

    x = np.zeros(dim) if initial is None else np.asarray(initial, dtype=float).ravel().copy()
    if x.size != dim:
        raise ConfigurationError(f"initial point length {x.size} != target dim {dim}")
    if state.samples is not None:
        state.samples[0] = x
    if n_min == 0:
        state._accumulate(x)

    for n in range(1, n_max + 1):
        try:
            outcome = kernel(target, x, stream)
        except NumericalBreakdownError as exc:
            raise NumericalBreakdownError(f"kernel failed at chain step {n}: {exc}") from exc
        x = outcome.next_sample
        i = n - 1
        state.alphas[i] = outcome.acceptance_probability
        state.accepted[i] = outcome.accepted
        state.cg_iterations[i] = outcome.cg_iterations
        state.relative_residuals[i] = outcome.relative_residual
        if state.samples is not None:
            state.samples[n] = x
        if n >= n_min:
            state._accumulate(x)

    state.x = x
    return state
