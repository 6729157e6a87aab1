"""Online tuning of the CG truncation threshold by stochastic approximation.

Two controllers, both acting on log epsilon so the threshold stays positive:

  TargetRate  pushes the mean acceptance probability toward alpha_t:
              log eps += K_n (alpha_n - alpha_t)
  MinCces     descends the computing cost per effective sample J/ESSR;
              the update direction is K_n (alpha - alpha^2/2 - J dalpha/dJ),
              whose unique zero is the optimality condition
              J dalpha/dJ = alpha - alpha^2/2.  The correction is that
              condition in its own units (an acceptance rate), clipped to
              +-CORRECTION_CLIP, and step n runs at the tuned level times
              exp(+-DITHER), the sign alternating, so the window's slopes
              see a known spread in log eps.  The slopes come from an
              exponentially weighted regression (SlopeWindow) updated
              in O(1) per step.

Step sizes K_n = k0 / n^kappa with kappa in (0, 1] vanish while their sum
diverges, so adaptation dies out and the chain keeps its target law.
``epsilon`` is the tuned level exp(log eps) in both modes; ``threshold`` is
what the next step runs with.

make_kernel is the one registry of sampling kernels by name; it lives
here, the lowest module that sees both the fixed-threshold steps and
the adaptive kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .sampler import KernelOutcome, epo_kernel, rjpo_step, tpo_step

ALPHA_CLAMP_LOW = 1e-6
CORRECTION_CLIP = 1.0  # bound on a min-CCES correction, in acceptance-rate units
DITHER = 0.5  # half-spread in log eps of the min-CCES thresholds around their centre


@dataclass(frozen=True)
class TargetRate:
    alpha_t: float

    def __post_init__(self):
        if not 0.0 < self.alpha_t < 1.0:
            raise ConfigurationError(f"alpha_t must lie in (0, 1), got {self.alpha_t}")


@dataclass(frozen=True)
class MinCces:
    """Chase the cost-of-effective-sample optimum.

    Step n runs at log eps = centre + DITHER for odd n and centre - DITHER
    for even n; the window records that threshold, and the Robbins-Monro
    update moves the centre (the controller's ``log_epsilon``).  The window
    weighs the step k steps back by d^k, d = window_size / (window_size + 4),
    a mean age of window_size / 4.  It must reach back far enough that the
    slopes are driven by the dither rather than by the feedback of recent
    acceptance noise onto epsilon, yet the shorter its memory the sooner
    the first loose, low-alpha steps stop steering it: on the AR(1)
    N = 128 chain from eps 1e-2, a mean age of window_size / 2 dove deeper
    and recovered later, and window_size / 8 settled at the same cost.
    """

    window_size: int = 200

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {self.window_size}")


class SlopeWindow:
    """An exponentially weighted least-squares regression of alpha and J on
    log eps, updated in O(1) per (log eps, J, alpha) triple appended.

    The triple appended k steps ago weighs d^k with d = size / (size + 4),
    so the weights' mean age is size / 4.  The window keeps the total
    weight, the weighted means of log eps, J and alpha, and the centred
    sums S_xx, S_xJ and S_xalpha; an append updates them from the new
    triple's deviations dx, dy from the previous means,
    S <- d S + (d w_old / w_new) dx dy (West, Comm. ACM 1979).  Each sum
    is a sum of centred products, and old rounding decays with its
    weights, so nothing is rebuilt or re-centred.  Whether J is constant
    over the last min(appends, size) triples is kept exactly, as the
    length of its trailing run of equal values.
    """

    def __init__(self, size: int):
        self._size, self._decay = size, size / (size + 4.0)
        self._weight, self._appends = 0.0, 0
        self._means = self._sums = (0.0,) * 3  # means of x, J, alpha; S_xx, S_xJ, S_xalpha
        self._last_j, self._j_run = None, 0  # the last J and its trailing run

    def append(self, entry) -> None:
        log_eps, j, alpha = entry
        self._j_run = self._j_run + 1 if j == self._last_j else 1
        self._last_j = j
        self._appends += 1
        decay = self._decay
        kept = decay * self._weight
        weight = kept + 1.0
        share = kept / weight
        mx, mj, ma = self._means
        dx, dj, da = log_eps - mx, j - mj, alpha - ma
        self._means = (mx + dx / weight, mj + dj / weight, ma + da / weight)
        sxx, sxj, sxa = self._sums
        dx_share = share * dx
        self._sums = (decay * sxx + dx_share * dx, decay * sxj + dx_share * dj,
                      decay * sxa + dx_share * da)
        self._weight = weight

    def slopes(self) -> tuple[float, float, bool]:
        """(dalpha/dlogeps, dJ/dlogeps, degenerate) over the window.

        log eps is the exactly known controlled variable, so both
        least-squares slopes are unbiased however small the window's
        spread; regressing alpha on the noisy J directly would attenuate
        the slope and drag the controller's equilibrium off the fixed
        point.  A window whose J is unchanged over its last
        min(appends, size) triples (an empty one and every one of size 1
        among them), or whose S_xx is not positive (log eps constant), is
        degenerate and gives zero slopes; a zero J slope is degenerate too.
        """
        sxx, sxj, sxa = self._sums
        if self._j_run >= min(self._appends, self._size) or not sxx > 0.0:
            return 0.0, 0.0, True
        slope_a, slope_j = sxa / sxx, sxj / sxx
        return slope_a, slope_j, slope_j == 0.0


@dataclass
class AdaptController:
    """Robbins-Monro state shared by both tuning modes.

    log_epsilon is the tuned level (the centre of MinCces's dither).
    history, a SlopeWindow in MinCces mode, regresses the (threshold log
    eps, J, alpha) triples with weights decaying over about window_size / 4
    steps, for the slope dalpha/dJ; target-rate mode reads no slope and
    keeps no window (history is None).  Degenerate windows (J unchanged
    over the last window_size steps, log eps constant, or J not falling
    as eps grows) contribute no slope and are counted.
    """

    log_epsilon: float
    mode: TargetRate | MinCces
    k0: float = 1.0
    kappa: float = 0.5
    step_index: int = field(default=1, init=False)
    degenerate_windows: int = field(default=0, init=False)
    history: SlopeWindow | None = field(init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.log_epsilon):
            raise ConfigurationError(f"log epsilon must be finite, got {self.log_epsilon}")
        if not (0 < self.k0 < math.inf):
            raise ConfigurationError(f"k0 must be positive and finite, got {self.k0}")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigurationError(f"kappa must lie in (0, 1], got {self.kappa}")
        mode = self.mode
        self.history = SlopeWindow(mode.window_size) if isinstance(mode, MinCces) else None

    @property
    def epsilon(self) -> float:
        """The tuned level exp(log_epsilon)."""
        return math.exp(self.log_epsilon)

    @property
    def step_log_epsilon(self) -> float:
        """log of the threshold step step_index runs with: log_epsilon in
        target-rate mode, log_epsilon +- DITHER in min-CCES mode."""
        if isinstance(self.mode, MinCces):
            return self.log_epsilon + (DITHER if self.step_index % 2 else -DITHER)
        return self.log_epsilon

    @property
    def threshold(self) -> float:
        """The threshold step step_index runs with, exp(step_log_epsilon)."""
        return math.exp(self.step_log_epsilon)

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


def update_min_cces(ctrl: AdaptController, j_n: int, alpha_n: float) -> AdaptController:
    """One descent step on the cost per effective sample.

    Records the step's (threshold log eps, J, alpha) in the window, then
    moves the dither's centre by the gain times the correction
    (alpha - alpha^2/2) - J dalpha/dJ, with dalpha/dJ the ratio of the
    window's weighted slopes in log eps, read off its centred sums in O(1)
    (SlopeWindow.slopes).  The correction is the optimality
    condition in its own units, an acceptance rate, clipped to
    +-CORRECTION_CLIP; it vanishes exactly on the curve
    J dalpha/dJ = alpha - alpha^2/2 and points down the CCES gradient in
    log epsilon: over-accurate solves push epsilon up, collapsing
    acceptance pushes it down.  A degenerate window, or one whose J does
    not fall as eps grows, drops the slope term, leaving the stall-safe
    loosening drift alpha - alpha^2/2.
    """
    if not isinstance(ctrl.mode, MinCces):
        raise ConfigurationError("controller is not in min-CCES mode")
    alpha = min(1.0, max(ALPHA_CLAMP_LOW, alpha_n))
    ctrl.history.append((ctrl.step_log_epsilon, float(j_n), alpha))
    slope_a, slope_j, _ = ctrl.history.slopes()
    correction = alpha - 0.5 * alpha * alpha
    if slope_j < 0.0:
        correction -= j_n * slope_a / slope_j
    else:  # degenerate windows return slope_j 0.0
        ctrl.degenerate_windows += 1
    correction = float(min(max(correction, -CORRECTION_CLIP), CORRECTION_CLIP))
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

    Records in ``epsilons`` the threshold each step used, the controller's
    pre-update ``threshold`` (in min-CCES mode the dithered one, not the
    tuned ``epsilon``); each step's alpha and J are kept by the loop that
    calls it (run_chain's ChainState, run_gibbs's records).
    """

    def __init__(self, controller: AdaptController):
        self.controller = controller
        self.epsilons: list[float] = []

    @property
    def epsilon(self) -> float:
        return self.controller.epsilon

    def __call__(self, target, previous, stream) -> KernelOutcome:
        eps = self.controller.threshold
        outcome = rjpo_step(target, previous, stream, eps)
        self.epsilons.append(eps)
        if isinstance(self.controller.mode, TargetRate):
            update_target_rate(self.controller, outcome.acceptance_probability)
        else:
            update_min_cces(self.controller, outcome.cg_iterations,
                            outcome.acceptance_probability)
        return outcome

    draw = __call__  # perfbench/run.py drives the `arjpo` Gibbs kernel through .draw


def make_kernel(name: str, epsilon: float = 1e-4, alpha_t: float = 0.99,
                epsilon0: float = 1e-2):
    """A kernel (target, previous, stream) -> KernelOutcome by name.

    epo (alias cholesky_epo) solves exactly; tpo and rjpo truncate at
    epsilon (at 1 or above, CG stops before its first iteration and a chain
    from zero never moves); arjpo is RJPO whose threshold starts at epsilon0
    and is tuned toward acceptance alpha_t.  epsilon must lie in (0, 1) for
    every name, also where the kernel never reads it, so that a bad value
    is refused before a study switches samplers.  This is the only
    constructor of the tpo and rjpo kernels; like AdaptiveRjpoKernel, they
    look their step up here at call time.
    """
    if name not in ("epo", "cholesky_epo", "arjpo", "tpo", "rjpo"):
        raise ConfigurationError(
            f"unknown sampler {name!r}; choose epo, cholesky_epo, tpo, rjpo, or arjpo"
        )
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"{name} epsilon must lie in (0, 1), got {epsilon}")
    if name in ("epo", "cholesky_epo"):
        return epo_kernel()
    if name == "arjpo":
        if not (epsilon0 > 0 and math.isfinite(epsilon0)):
            raise ConfigurationError(f"arjpo epsilon0 must be positive finite, got {epsilon0}")
        return AdaptiveRjpoKernel(AdaptController(math.log(epsilon0), TargetRate(alpha_t)))
    if name == "tpo":
        return lambda target, previous, stream: tpo_step(target, previous, stream, epsilon)
    return lambda target, previous, stream: rjpo_step(target, previous, stream, epsilon)
