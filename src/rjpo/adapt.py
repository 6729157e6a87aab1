"""Online tuning of the CG truncation threshold by stochastic approximation.

Two controllers, both acting on log epsilon so the threshold stays positive:

  TargetRate  pushes the mean acceptance probability toward alpha_t:
              log eps += K_n (alpha_n - alpha_t)
  MinCces     descends the computing cost per effective sample J/ESSR;
              the update direction is K_n (alpha - alpha^2/2 - J dalpha/dJ),
              whose unique zero is the optimality condition
              J dalpha/dJ = alpha - alpha^2/2.

Step sizes K_n = k0 / n^kappa with kappa in (0, 1] vanish while their sum
diverges, so adaptation dies out and the chain keeps its target law.

make_kernel is the one registry of sampling kernels by name; it lives
here, the lowest module that sees both the fixed-threshold kernels and
the adaptive one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .sampler import KernelOutcome, epo_kernel, rjpo_kernel, rjpo_step, tpo_kernel

ALPHA_CLAMP_LOW = 1e-6


@dataclass(frozen=True)
class TargetRate:
    alpha_t: float

    def __post_init__(self):
        if not 0.0 < self.alpha_t < 1.0:
            raise ConfigurationError(f"alpha_t must lie in (0, 1), got {self.alpha_t}")


@dataclass(frozen=True)
class MinCces:
    """Chase the cost-of-effective-sample optimum.

    The window must span enough steps that the regression slopes are driven
    by the controller's own epsilon dithering rather than by the feedback
    of recent acceptance noise onto epsilon; short windows bias the
    equilibrium toward loose epsilon.
    """

    window_size: int = 200

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {self.window_size}")


@dataclass
class AdaptController:
    """Robbins-Monro state shared by both tuning modes.

    history keeps the last window_size (log eps, J, alpha) triples for the
    windowed slope dalpha/dJ used in MinCces mode; degenerate windows
    (all J or all log eps equal) contribute a zero slope and are counted.
    """

    log_epsilon: float
    mode: TargetRate | MinCces
    k0: float = 1.0
    kappa: float = 0.5
    step_index: int = 1
    degenerate_windows: int = 0
    history: deque = field(default_factory=deque)

    def __post_init__(self):
        if not math.isfinite(self.log_epsilon):
            raise ConfigurationError(f"log epsilon must be finite, got {self.log_epsilon}")
        if self.k0 <= 0:
            raise ConfigurationError(f"k0 must be positive, got {self.k0}")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigurationError(f"kappa must lie in (0, 1], got {self.kappa}")
        window = self.mode.window_size if isinstance(self.mode, MinCces) else 1
        self.history = deque(self.history, maxlen=window)

    @property
    def epsilon(self) -> float:
        return math.exp(self.log_epsilon)

    @property
    def step_size(self) -> float:
        return self.k0 / self.step_index**self.kappa


def update_target_rate(ctrl: AdaptController, alpha_n: float) -> AdaptController:
    """One Robbins-Monro step toward the target acceptance probability.

    alpha_n is the computed acceptance probability of the step (a real
    number), not the binary accept indicator; both have the right
    expectation but the probability carries less noise.
    """
    if not isinstance(ctrl.mode, TargetRate):
        raise ConfigurationError("controller is not in target-rate mode")
    ctrl.log_epsilon += ctrl.step_size * (alpha_n - ctrl.mode.alpha_t)
    ctrl.step_index += 1
    return ctrl


CORRECTION_CLIP = 2.0


def _window_slopes(history) -> tuple[float, float, bool]:
    """Regress alpha and J on log eps over the window.

    Returns (dalpha/dlogeps, dJ/dlogeps, degenerate).  log eps is the
    exactly known controlled variable, so both ordinary-least-squares
    slopes are unbiased however small the window's spread; regressing
    alpha on the noisy J directly would attenuate the slope and drag the
    controller's equilibrium off the fixed point.  Windows with no spread
    in log eps or in J are degenerate and give zero slopes.
    """
    le = np.array([t[0] for t in history])
    js = np.array([t[1] for t in history])
    alphas = np.array([t[2] for t in history])
    var_le = le.var()
    if var_le == 0.0 or js.var() == 0.0:
        return 0.0, 0.0, True
    dle = le - le.mean()
    slope_a = float((dle * (alphas - alphas.mean())).mean() / var_le)
    slope_j = float((dle * (js - js.mean())).mean() / var_le)
    return slope_a, slope_j, slope_j == 0.0


def update_min_cces(ctrl: AdaptController, j_n: int, alpha_n: float) -> AdaptController:
    """One descent step on the cost per effective sample.

    The correction is J d(alpha)/d(log eps) - (alpha - alpha^2/2)
    d(J)/d(log eps), which vanishes exactly on the optimality curve
    J dalpha/dJ = alpha - alpha^2/2 (it is that condition rescaled by the
    positive factor -dJ/dlogeps) and points down the CCES gradient in
    log epsilon: over-accurate solves push epsilon up, collapsing
    acceptance pushes it down.  A degenerate window drops the slope terms,
    leaving the stall-safe loosening drift alpha - alpha^2/2.
    """
    if not isinstance(ctrl.mode, MinCces):
        raise ConfigurationError("controller is not in min-CCES mode")
    alpha = min(1.0, max(ALPHA_CLAMP_LOW, alpha_n))
    ctrl.history.append((ctrl.log_epsilon, float(j_n), alpha))
    slope_a, slope_j, degenerate = _window_slopes(ctrl.history)
    essr_gap = alpha - 0.5 * alpha * alpha
    if degenerate:
        ctrl.degenerate_windows += 1
        correction = essr_gap
    else:
        correction = j_n * slope_a - essr_gap * slope_j
    correction = float(np.clip(correction, -CORRECTION_CLIP, CORRECTION_CLIP))
    ctrl.log_epsilon += ctrl.step_size * correction
    ctrl.step_index += 1
    return ctrl


def essr_from_alpha(alpha: float) -> float:
    """Effective-sample-size ratio under the first-order autoregressive
    chain model with lag-1 correlation 1 - alpha: (1 - rho)/(1 + rho)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha / (2.0 - alpha)


class AdaptiveRjpoKernel:
    """RJPO kernel with an online-tuned threshold, pluggable into run_chain.

    Records the (n, epsilon, alpha, J) trajectory; epsilon is the threshold
    the step actually used, i.e. the pre-update controller value.
    """

    def __init__(self, controller: AdaptController, max_iters: int | None = None):
        self.controller = controller
        self.max_iters = max_iters
        self.steps: list[int] = []
        self.epsilons: list[float] = []
        self.alphas: list[float] = []
        self.cg_iterations: list[int] = []

    @property
    def epsilon(self) -> float:
        return self.controller.epsilon

    def __call__(self, target, previous, stream) -> KernelOutcome:
        eps = self.controller.epsilon
        outcome = rjpo_step(target, previous, stream, eps, self.max_iters)
        self.steps.append(self.controller.step_index)
        self.epsilons.append(eps)
        self.alphas.append(outcome.acceptance_probability)
        self.cg_iterations.append(outcome.cg_iterations)
        if isinstance(self.controller.mode, TargetRate):
            update_target_rate(self.controller, outcome.acceptance_probability)
        else:
            update_min_cces(self.controller, outcome.cg_iterations,
                            outcome.acceptance_probability)
        return outcome

    draw = __call__  # perfbench/run.py drives Gibbs kernels through .draw

    def trajectory(self) -> np.ndarray:
        """Columns: step index, epsilon used, acceptance probability, CG iterations."""
        return np.column_stack([self.steps, self.epsilons, self.alphas, self.cg_iterations])


def make_kernel(name: str, epsilon: float = 1e-4, alpha_t: float = 0.99,
                epsilon0: float = 1e-2):
    """A kernel (target, previous, stream) -> KernelOutcome by name.

    epo (alias cholesky_epo) solves exactly; tpo and rjpo truncate at
    epsilon, which must be positive and finite; arjpo is RJPO whose
    threshold starts at epsilon0 and is tuned toward acceptance alpha_t.
    """
    if name in ("epo", "cholesky_epo"):
        return epo_kernel()
    if name == "arjpo":
        if not (epsilon0 > 0 and math.isfinite(epsilon0)):
            raise ConfigurationError(f"arjpo epsilon0 must be positive finite, got {epsilon0}")
        return AdaptiveRjpoKernel(AdaptController(math.log(epsilon0), TargetRate(alpha_t)))
    if name not in ("tpo", "rjpo"):
        raise ConfigurationError(
            f"unknown sampler {name!r}; choose epo, cholesky_epo, tpo, rjpo, or arjpo"
        )
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigurationError(f"{name} epsilon must be positive finite, got {epsilon}")
    return tpo_kernel(epsilon) if name == "tpo" else rjpo_kernel(epsilon)
