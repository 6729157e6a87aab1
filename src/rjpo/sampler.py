"""Gaussian sampling kernels.

perturb draws eta ~ N(Q mu, Q) through the precision factor; the kernels
turn that perturbation into a sample of N(mu, Q^-1):

  epo_step   exact solve of Q x = eta, always accepted, independent samples
  tpo_step   truncated solve from x0 = 0, always accepted (biased kernel)
  rjpo_step  truncated solve from x0 = -previous plus a reversible-jump
             accept/reject that restores exactness at any truncation level

A kernel is a callable (target, previous, stream) -> KernelOutcome; the
chain driver here and the Gibbs driver in superres both take one, and
adapt.make_kernel builds them by name.
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


def epo_step(target: GaussianTarget, stream: RngStream) -> KernelOutcome:
    """Exact perturbation-optimization step; successive samples independent.

    Solves through the dense mirror when the target carries one, otherwise
    by CG pushed to machine accuracy.
    """
    eta = perturb(target, stream)
    if target.has_mirror:
        x = target.mirror_solve(eta)
        residual = eta - target.precision.apply(x)
        iterations = 0
    else:
        out = cg_solve(target.precision, eta, epsilon=EXACT_EPSILON)
        x, residual, iterations = out.solution, out.residual_vector, out.iterations
    eta_norm = float(np.linalg.norm(eta))
    rel = float(np.linalg.norm(residual)) / eta_norm if eta_norm > 0 else 0.0
    return KernelOutcome(x, x, 1.0, True, iterations, rel)


def tpo_step(
    target: GaussianTarget,
    previous: np.ndarray,
    stream: RngStream,
    epsilon: float,
    max_iters: int | None = None,
) -> KernelOutcome:
    """Truncated PO step from x0 = 0: always accepts, so truncation biases
    the chain.  The acceptance probability is still computed and recorded
    for diagnostics; it plays no role in the transition."""
    previous = np.asarray(previous, dtype=float)
    if previous.ndim != 1:
        previous = previous.ravel()
    eta = perturb(target, stream)
    out = cg_solve(target.precision, eta, epsilon=epsilon, max_iters=max_iters)
    x = out.solution
    alpha = math.exp(min(0.0, _acceptance_exponent(out.residual_vector, previous, x)))
    return KernelOutcome(x, x, alpha, True, out.iterations, out.relative_residual)


def rjpo_step(
    target: GaussianTarget,
    previous: np.ndarray,
    stream: RngStream,
    epsilon: float,
    max_iters: int | None = None,
) -> KernelOutcome:
    """Reversible-jump PO step.

    CG starts at x0 = -previous (the move's internal solve then starts at
    zero, which is what makes the proposal reversible), the residual is the
    recomputed eta - Q x_hat, and acceptance is decided in log space with a
    single uniform draw.
    """
    previous = np.asarray(previous, dtype=float)
    if previous.ndim != 1:
        previous = previous.ravel()
    eta = perturb(target, stream)
    out = cg_solve(target.precision, eta, x0=-previous, epsilon=epsilon, max_iters=max_iters)
    x_hat = out.solution
    log_alpha = min(0.0, _acceptance_exponent(out.residual_vector, previous, x_hat))
    u = stream.uniform()
    accepted = u <= 0.0 or math.log(u) < log_alpha
    next_sample = x_hat if accepted else previous
    return KernelOutcome(
        next_sample, x_hat, math.exp(log_alpha), accepted, out.iterations, out.relative_residual
    )


# Each kernel keeps `draw` as an alias of the call: perfbench/run.py drives
# Gibbs kernels through `.draw`.
def epo_kernel():
    def step(target, previous, stream):
        return epo_step(target, stream)

    step.draw = step
    return step


def tpo_kernel(epsilon: float, max_iters: int | None = None):
    def step(target, previous, stream):
        return tpo_step(target, previous, stream, epsilon, max_iters)

    step.epsilon = epsilon
    step.draw = step
    return step


def rjpo_kernel(epsilon: float, max_iters: int | None = None):
    def step(target, previous, stream):
        return rjpo_step(target, previous, stream, epsilon, max_iters)

    step.epsilon = epsilon
    step.draw = step
    return step


class ChainState:
    """History and running moments of one chain.

    Moments accumulate over iterations n_min..n_max inclusive (the empirical
    mean over n_max - n_min + 1 samples and the (n-1)-denominator covariance),
    matching the estimators the error metrics are defined against.  The
    second-moment matrix is optional so large-dimension chains never
    allocate an N x N array.
    """

    def __init__(self, dim: int, n_max: int, n_min: int,
                 track_covariance: bool, store_samples: bool):
        self.dim = dim
        self.n_max = n_max
        self.n_min = n_min
        self.iteration = 0
        self.count = 0
        self.epsilon: float | None = None
        self.x = np.zeros(dim)
        self.alphas = np.zeros(n_max)
        self.accepted = np.zeros(n_max, dtype=bool)
        self.cg_iterations = np.zeros(n_max, dtype=np.int64)
        self.relative_residuals = np.zeros(n_max)
        self.samples = np.zeros((n_max + 1, dim)) if store_samples else None
        self._sum = np.zeros(dim)
        self._outer = np.zeros((dim, dim)) if track_covariance else None

    def _accumulate(self, x):
        self.count += 1
        self._sum += x
        if self._outer is not None:
            self._outer += np.outer(x, x)

    def empirical_mean(self) -> np.ndarray:
        if self.count == 0:
            raise ValueError("no post-burn-in samples accumulated")
        return self._sum / self.count

    def empirical_cov(self) -> np.ndarray:
        if self._outer is None:
            raise ValueError("chain was run without covariance tracking")
        if self.count < 2:
            raise ValueError("need at least 2 post-burn-in samples for a covariance")
        mean = self.empirical_mean()
        return (self._outer - self.count * np.outer(mean, mean)) / (self.count - 1)

    @property
    def mean_acceptance(self) -> float:
        return float(self.alphas.mean())

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())

    @property
    def mean_cg_iterations(self) -> float:
        return float(self.cg_iterations.mean())

    @property
    def total_cg_iterations(self) -> int:
        return int(self.cg_iterations.sum())


def run_chain(
    target: GaussianTarget,
    kernel,
    n_max: int,
    n_min: int | None,
    stream: RngStream,
    initial: np.ndarray | None = None,
    track_covariance: bool | None = None,
    store_samples: bool = False,
) -> ChainState:
    """Iterate a kernel n_max times, accumulating moments after burn-in.

    kernel is any callable (target, previous, stream) -> KernelOutcome.
    n_min defaults to 10% of n_max; samples n_min..n_max enter the moment
    estimators (the initial point counts only when n_min = 0).  Covariance
    tracking defaults on for dim <= 512.
    """
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    if n_min is None:
        n_min = n_max // 10
    if not 0 <= n_min < n_max:
        raise ConfigurationError(
            f"burn-in n_min = {n_min} leaves no post-burn-in window before n_max = {n_max}"
        )
    dim = target.dim
    if track_covariance is None:
        track_covariance = dim <= 512
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
            raise NumericalBreakdownError(
                f"kernel failed at chain step {n}: {exc}",
                iteration=getattr(exc, "iteration", None),
            ) from exc
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
    state.iteration = n_max
    state.epsilon = getattr(kernel, "epsilon", None)
    return state
