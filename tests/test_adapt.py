"""Controller behavior: gain schedule, fixed points, convergence bands."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rjpo.adapt import (
    ALPHA_CLAMP_LOW,
    CORRECTION_CLIP,
    AdaptController,
    AdaptiveRjpoKernel,
    MinCces,
    TargetRate,
    essr_from_alpha,
    update_min_cces,
    update_target_rate,
)
from rjpo.errors import ConfigurationError
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import run_chain


def make_ctrl(mode, log_eps=math.log(1e-3), **kw):
    return AdaptController(log_epsilon=log_eps, mode=mode, **kw)


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("alpha_t", [0.0, 1.0, -0.2, 1.7])
def test_target_rate_alpha_t_bounds(alpha_t):
    with pytest.raises(ConfigurationError):
        TargetRate(alpha_t)


def test_min_cces_window_bounds():
    with pytest.raises(ConfigurationError):
        MinCces(window_size=0)


@pytest.mark.parametrize("kw", [dict(k0=0.0), dict(k0=-1.0),
                                dict(kappa=0.0), dict(kappa=1.5),
                                dict(log_eps=math.nan), dict(log_eps=math.inf),
                                dict(log_eps=-math.inf)])
def test_controller_gain_validation(kw):
    with pytest.raises(ConfigurationError):
        make_ctrl(TargetRate(0.8), **kw)


def test_kappa_one_is_allowed():
    ctrl = make_ctrl(TargetRate(0.8), kappa=1.0)
    assert ctrl.step_size == ctrl.k0


def test_update_requires_matching_mode():
    with pytest.raises(ConfigurationError):
        update_target_rate(make_ctrl(MinCces()), 0.5)
    with pytest.raises(ConfigurationError):
        update_min_cces(make_ctrl(TargetRate(0.8)), 10, 0.5)


# ---------------------------------------------------------- target-rate mode

def test_observed_alpha_at_target_leaves_epsilon_unchanged():
    ctrl = make_ctrl(TargetRate(0.8))
    before = ctrl.log_epsilon
    update_target_rate(ctrl, 0.8)
    assert ctrl.log_epsilon == before
    assert ctrl.step_index == 2


def test_gain_schedule_is_k0_over_n_to_kappa():
    ctrl = make_ctrl(TargetRate(0.5), k0=0.7, kappa=0.5)
    for n in range(1, 6):
        assert ctrl.step_size == pytest.approx(0.7 / n**0.5)
        before = ctrl.log_epsilon
        update_target_rate(ctrl, 0.9)
        assert ctrl.log_epsilon - before == pytest.approx(0.7 / n**0.5 * 0.4)


def test_target_rate_update_direction():
    ctrl = make_ctrl(TargetRate(0.8))
    update_target_rate(ctrl, 0.99)  # too accurate: loosen
    assert ctrl.log_epsilon > math.log(1e-3)
    ctrl = make_ctrl(TargetRate(0.8))
    update_target_rate(ctrl, 0.2)  # collapsing acceptance: tighten
    assert ctrl.log_epsilon < math.log(1e-3)


def test_target_rate_trailing_acceptance_reaches_band():
    """After 1000 adaptive steps the trailing-200 mean acceptance sits
    within 0.05 of the requested rate, across the practical range."""
    for alpha_t in (0.5, 0.8, 0.99):
        stream = RngStream(5)
        target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
        kernel = AdaptiveRjpoKernel(make_ctrl(TargetRate(alpha_t)))
        run_chain(target, kernel, n_max=1000, n_min=100, stream=stream)
        trailing = np.array(kernel.alphas[-200:])
        assert abs(trailing.mean() - alpha_t) < 0.05, alpha_t


# ------------------------------------------------------------- min-CCES mode

def test_correction_vanishes_on_the_optimality_curve():
    """With window data lying on an affine (log eps, J, alpha) relationship
    whose newest point satisfies J dalpha/dJ = alpha - alpha^2/2, the update
    leaves epsilon exactly where it is."""
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=1.0)
    # slopes per unit log eps: alpha -0.05, J -10; newest point (1.0, 99, 0.9)
    # has gap 0.9 - 0.405 = 0.495 and 99 * (-0.05) == 0.495 * (-10).
    ctrl.history.append((-1.0, 119.0, 1.0))
    ctrl.history.append((0.0, 109.0, 0.95))
    update_min_cces(ctrl, 99, 0.9)
    assert ctrl.log_epsilon == pytest.approx(1.0, abs=1e-12)
    assert ctrl.degenerate_windows == 0


def test_over_accurate_window_loosens_epsilon():
    # alpha pinned at 0.99 while J climbs as eps tightens: pure waste.
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=1.0)
    ctrl.history.append((-1.0, 12.0, 0.99))
    ctrl.history.append((0.0, 11.0, 0.99))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 10, 0.99)
    gap = 0.99 - 0.5 * 0.99**2
    assert ctrl.log_epsilon - before == pytest.approx(ctrl.k0 * gap)


def test_collapsing_acceptance_tightens_epsilon():
    # alpha falling steeply with log eps while J barely moves.
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=0.2)
    ctrl.history.append((0.0, 11.0, 0.9))
    ctrl.history.append((0.1, 10.5, 0.5))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 10, 0.1)
    assert ctrl.log_epsilon < before


def test_correction_is_clipped():
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=0.2)
    ctrl.history.append((0.0, 300.0, 1.0))
    ctrl.history.append((0.1, 200.0, 1.0))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 100, 1.0)
    assert ctrl.log_epsilon - before == pytest.approx(ctrl.k0 * CORRECTION_CLIP)


def test_degenerate_windows_counted_and_drift_loose():
    ctrl = make_ctrl(MinCces(window_size=4))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 10, 0.8)  # single entry: no spread at all
    gap = 0.8 - 0.5 * 0.8**2
    assert ctrl.degenerate_windows == 1
    assert ctrl.log_epsilon - before == pytest.approx(ctrl.k0 * gap)
    update_min_cces(ctrl, 10, 0.8)  # J has no spread either
    assert ctrl.degenerate_windows == 2


def test_alpha_is_clamped_into_unit_interval():
    ctrl = make_ctrl(MinCces(window_size=4))
    update_min_cces(ctrl, 10, 0.0)
    update_min_cces(ctrl, 11, 1.3)
    stored = [t[2] for t in ctrl.history]
    assert stored[0] == ALPHA_CLAMP_LOW
    assert stored[1] == 1.0


@pytest.mark.parametrize("eps0", [3e-2, 1e-3])
def test_min_cces_converges_from_both_sides(eps0):
    """On a 16-dim chain the cost optimum sits at the exact-solve corner
    (J can only fall from 16 while acceptance collapses quickly, so
    truncation does not pay); the controller finds the same working band
    from a loose and from a tight start instead of wandering off."""
    stream = RngStream(11)
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
    kernel = AdaptiveRjpoKernel(make_ctrl(MinCces(window_size=200),
                                          log_eps=math.log(eps0)))
    run_chain(target, kernel, n_max=2000, n_min=200, stream=stream)
    trailing = kernel.trajectory()[-500:]
    assert 3e-6 < math.exp(np.log(trailing[:, 1]).mean()) < 3e-3
    assert trailing[:, 2].mean() > 0.9
    assert trailing[:, 3].mean() <= 16.0


def test_optimality_condition_is_the_cces_stationary_point():
    """Symbolically: d/dJ [J / ESSR(alpha(J))] = 0 reduces to
    J alpha'(J) = alpha - alpha^2/2 when ESSR = alpha/(2 - alpha)."""
    sympy = pytest.importorskip("sympy")
    J = sympy.Symbol("J", positive=True)
    alpha = sympy.Function("alpha", positive=True)(J)
    cces = J * (2 - alpha) / alpha
    lhs = sympy.diff(cces, J) * alpha**2 / 2
    rhs = alpha - alpha**2 / 2 - J * sympy.diff(alpha, J)
    assert sympy.simplify(lhs - rhs) == 0


# ------------------------------------------------------------ ESSR identity

def test_essr_values():
    assert essr_from_alpha(1.0) == pytest.approx(1.0)
    assert essr_from_alpha(0.5) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        essr_from_alpha(0.0)
    with pytest.raises(ValueError):
        essr_from_alpha(1.2)


@given(st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0))
def test_essr_monotone_and_bounded(a, b):
    ea, eb = essr_from_alpha(a), essr_from_alpha(b)
    assert 0.0 < ea <= 1.0
    if a < b:
        assert ea < eb


# ------------------------------------------------------------ kernel wrapper

def test_adaptive_kernel_records_trajectory():
    stream = RngStream(3)
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
    kernel = AdaptiveRjpoKernel(make_ctrl(TargetRate(0.8)))
    run_chain(target, kernel, n_max=50, n_min=5, stream=stream)
    traj = kernel.trajectory()
    assert traj.shape == (50, 4)
    assert np.array_equal(traj[:, 0], np.arange(1, 51))
    assert np.all(traj[:, 1] > 0)
    assert kernel.controller.step_index == 51
    assert kernel.epsilon == kernel.controller.epsilon


def test_adaptive_kernel_honors_iteration_cap():
    stream = RngStream(4)
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
    kernel = AdaptiveRjpoKernel(make_ctrl(TargetRate(0.8)), max_iters=2)
    run_chain(target, kernel, n_max=30, n_min=3, stream=stream)
    assert max(kernel.cg_iterations) <= 2
