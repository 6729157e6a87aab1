"""Controller behavior: gain schedule, fixed points, convergence bands."""

import functools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rjpo.adapt
import rjpo.sampler
from oracles import ArraySlopeWindow
from rjpo.adapt import (
    ALPHA_CLAMP_LOW,
    CORRECTION_CLIP,
    AdaptController,
    AdaptiveRjpoKernel,
    MinCces,
    SlopeWindow,
    TargetRate,
    essr_from_alpha,
    update_min_cces,
    update_target_rate,
)
from rjpo.cg import cg_solve
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
                                dict(log_eps=-math.inf),
                                dict(k0=math.nan), dict(k0=math.inf)])
def test_controller_gain_validation(kw):
    with pytest.raises(ConfigurationError):
        make_ctrl(TargetRate(0.8), **kw)


@pytest.mark.parametrize("state", ["step_index", "degenerate_windows"])
def test_controller_state_is_not_a_constructor_argument(state):
    """The step count and degenerate-window tally start at 1 and 0 and move
    only through the updates."""
    with pytest.raises(TypeError):
        make_ctrl(TargetRate(0.8), **{state: 5})
    ctrl = make_ctrl(MinCces())
    assert (ctrl.step_index, ctrl.degenerate_windows) == (1, 0)


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
        chain = run_chain(target, kernel, n_max=1000, n_min=100, stream=stream)
        trailing = chain.alphas[-200:]
        assert abs(trailing.mean() - alpha_t) < 0.05, alpha_t


# ------------------------------------------------------------- min-CCES mode

def _var_window_slopes(le, js, alphas):
    """The window regression with numpy's var() for both variances, each
    mean and deviation recomputed where it is used."""
    var_le = le.var()
    if var_le == 0.0 or js.var() == 0.0:
        return 0.0, 0.0, True
    dle = le - le.mean()
    slope_a = float((dle * (alphas - alphas.mean())).mean() / var_le)
    slope_j = float((dle * (js - js.mean())).mean() / var_le)
    return slope_a, slope_j, slope_j == 0.0


SLOPE_RTOL = 1e-12  # slope error allowed, in units of sd(y) / sd(log eps)


def _assert_tracks_var_formula(slopes, le, js, alphas, where):
    """slopes (SlopeWindow.slopes of the window le, js, alphas) carry the
    var() formula's degenerate flag, and each slope lies within
    SLOPE_RTOL sd(y) / sd(log eps) of its slope (equal where log eps is
    constant)."""
    le, js, alphas = (np.asarray(column, dtype=float) for column in (le, js, alphas))
    reference = _var_window_slopes(le, js, alphas)
    assert slopes[2] == reference[2], where
    sd_le = le.std()
    for got, want, y in ((slopes[0], reference[0], alphas), (slopes[1], reference[1], js)):
        if sd_le == 0.0:
            assert got == want, where
        else:
            assert abs(got - want) <= SLOPE_RTOL * y.std() / sd_le, where


def _filled_window(size, prefix, entries):
    """A SlopeWindow(size) after ``prefix`` then ``entries``, both lists of
    (log eps, J, alpha) triples."""
    window = SlopeWindow(size)
    for entry in prefix + entries:
        window.append(entry)
    return window


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), size=st.sampled_from([1, 2, 3, 7, 50, 200]))
@example(seed=18, size=2)
@example(seed=8790, size=3)
def test_slope_window_tracks_the_tuple_window(seed, size):
    """After every append, from the first entry through several wraps of
    the window, the window holds the same triples in the same order as a
    deque(maxlen=size), and its slopes track the var() formula on them:
    the same degenerate flag, each slope within SLOPE_RTOL sd(y) /
    sd(log eps).  J runs constant for stretches, so degenerate windows
    occur too.  The two examples are short windows whose log eps nearly
    coincide, far from the last restart's mean, which running sums would
    regress about 1e-10 off."""
    rng = np.random.default_rng(seed)
    window, reference = SlopeWindow(size), deque(maxlen=size)
    for step in range(3 * size + 5):
        j = 40.0 if step % 23 < 4 else float(rng.integers(5, 80))
        entry = (float(rng.normal(-5.0, 0.3)), j, float(rng.uniform(1e-6, 1.0)))
        window.append(entry)
        reference.append(entry)
        assert list(window.entries) == list(reference)
        _assert_tracks_var_formula(window.slopes(), *zip(*reference), (seed, size, step))


def test_slope_window_matches_the_var_formula():
    """The running-sum window tracks the var() formula on 3000 windows of
    length 1-200 and 300 of length 201-2000, one in four with constant J
    and one in ten with constant log eps, each appended after 0 to size
    entries of other data so the ring has wrapped and its sums carry
    history; and on trailing windows of a trajectory appended once, as
    cli's min-CCES summary builds them from log eps, J (trail[:, 3]) and
    alpha (trail[:, 2])."""
    rng = np.random.default_rng(29)
    degenerate = 0
    for trial in range(3300):
        size = int(rng.integers(1, 201) if trial < 3000 else rng.integers(201, 2001))
        le = np.full(size, -5.0) if trial % 10 == 0 else rng.normal(-5.0, 0.3, size)
        js = np.full(size, 40.0) if trial % 4 == 0 else rng.integers(5, 80, size).astype(float)
        alphas = rng.uniform(1e-6, 1.0, size)
        start = int(rng.integers(0, size + 1))
        prefix = list(zip(rng.normal(-5.0, 0.3, start).tolist(),
                          rng.integers(5, 80, start).astype(float).tolist(),
                          rng.uniform(1e-6, 1.0, start).tolist()))
        window = _filled_window(size, prefix, list(zip(le.tolist(), js.tolist(),
                                                       alphas.tolist())))
        slopes = window.slopes()
        _assert_tracks_var_formula(slopes, le, js, alphas, trial)
        degenerate += slopes[2]
    assert degenerate >= 825
    for trial in range(200):
        steps = int(rng.integers(1, 4001))
        traj = np.column_stack([np.arange(1, steps + 1), np.exp(rng.normal(-7.0, 0.5, steps)),
                                rng.uniform(1e-6, 1.0, steps), rng.integers(5, 80, steps)])
        trail = traj[-min(2000, steps):]
        logeps, alpha, jits = np.log(trail[:, 1]), trail[:, 2], trail[:, 3]
        window = _filled_window(len(trail), [], list(zip(logeps.tolist(), jits.tolist(),
                                                         alpha.tolist())))
        _assert_tracks_var_formula(window.slopes(), logeps, jits, alpha, trial)


def test_slope_window_keeps_its_digits_over_a_long_walk():
    """300 000 appends to a 200-entry window while log eps walks from
    log 1e-2 down to log 1e-16 and back (the dither's +-0.5 and noise on
    top, J rising as eps tightens): every 1000 appends the slopes still
    track the var() formula within SLOPE_RTOL sd(y) / sd(log eps)."""
    rng = np.random.default_rng(42)
    steps, half = 300_000, 150_000
    top, bottom = math.log(1e-2), math.log(1e-16)
    walk = np.abs(np.arange(steps) - half) / half  # 1 -> 0 -> 1
    le = (bottom + (top - bottom) * walk + np.where(np.arange(steps) % 2, 0.5, -0.5)
          + rng.normal(0.0, 0.3, steps))
    js = np.floor(10.0 - 2.0 * le + rng.integers(0, 8, steps))
    alphas = np.clip(0.6 + 0.02 * (le - le.mean()) + rng.normal(0.0, 0.1, steps), 1e-6, 1.0)
    window = SlopeWindow(200)
    for n, entry in enumerate(zip(le.tolist(), js.tolist(), alphas.tolist()), 1):
        window.append(entry)
        if n % 1000 == 0:
            _assert_tracks_var_formula(window.slopes(), le[n - 200:n], js[n - 200:n],
                                       alphas[n - 200:n], n)
    assert math.exp(le.min()) < 1e-16 * math.exp(1.0)


def test_a_one_entry_window_is_always_degenerate():
    window = SlopeWindow(1)
    assert window.slopes() == (0.0, 0.0, True)
    rng = np.random.default_rng(3)
    for _ in range(50):
        window.append((float(rng.normal()), float(rng.integers(5, 80)), float(rng.uniform())))
        assert window.slopes() == (0.0, 0.0, True)
        assert len(window.entries) == 1


@pytest.mark.parametrize("seeds", [(31, 32), (131, 132), (231, 232)],
                         ids=lambda pair: f"{pair[0]}-{pair[1]}")
def test_min_cces_chain_is_bitwise_the_array_window_chain(seeds):
    """On check 09's target, 5000 min-CCES steps from eps 1e-2 with the
    running-sum window give bit for bit the chain state, J and alpha of a
    controller whose history is the array window regressed by numpy
    (oracles.ArraySlopeWindow), the same degenerate-window count, and
    thresholds equal to 1e-10 relative."""
    runs = []
    for history in (SlopeWindow, ArraySlopeWindow):
        target, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(seeds[0]))
        ctrl = make_ctrl(MinCces(), log_eps=math.log(1e-2))
        ctrl.history = history(ctrl.mode.window_size)
        kernel = AdaptiveRjpoKernel(ctrl)
        chain = run_chain(target, kernel, 5000, 0, RngStream(seeds[1]), track_covariance=False)
        runs.append((chain, kernel))
    (chain, kernel), (oracle_chain, oracle_kernel) = runs
    assert np.array_equal(chain.x, oracle_chain.x)
    assert np.array_equal(chain.cg_iterations, oracle_chain.cg_iterations)
    assert np.array_equal(chain.alphas, oracle_chain.alphas)
    assert (kernel.controller.degenerate_windows
            == oracle_kernel.controller.degenerate_windows)
    np.testing.assert_allclose(kernel.epsilons, oracle_kernel.epsilons, rtol=1e-10, atol=0)


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


def _raw_correction(ctrl, j_n, alpha):
    """The unclipped correction of the update that just ran, from its window."""
    slope_a, slope_j, _ = ctrl.history.slopes()
    return alpha - 0.5 * alpha * alpha - j_n * slope_a / slope_j


def test_correction_is_clipped():
    """The correction is in acceptance-rate units, and clipped at
    +-CORRECTION_CLIP: past it from above when alpha rises as J falls,
    past it from below when acceptance collapses as J falls."""
    assert CORRECTION_CLIP == 1.0
    # alpha rising from 0.01 to 1 while J falls by 2: raw correction about +50
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=0.2)
    ctrl.history.append((0.0, 102.0, 0.01))
    ctrl.history.append((0.1, 101.0, 0.5))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 100, 1.0)
    assert ctrl.degenerate_windows == 0
    assert _raw_correction(ctrl, 100, 1.0) > 40 * CORRECTION_CLIP
    assert ctrl.log_epsilon - before == pytest.approx(ctrl.k0 * CORRECTION_CLIP)
    # acceptance collapsing from 1 to 0.01 while J falls by 2: raw
    # correction about -50, clipped from below
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=0.2)
    ctrl.history.append((0.0, 102.0, 1.0))
    ctrl.history.append((0.1, 101.0, 0.5))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 100, 0.01)
    assert ctrl.degenerate_windows == 0
    assert _raw_correction(ctrl, 100, 0.01) < -40 * CORRECTION_CLIP
    assert ctrl.log_epsilon - before == pytest.approx(-ctrl.k0 * CORRECTION_CLIP)
    assert isinstance(ctrl.log_epsilon, float)


def test_rising_j_slope_is_degenerate():
    """A window whose J grows with eps has no cost trade-off to balance:
    it is counted as degenerate and takes the loosening drift."""
    ctrl = make_ctrl(MinCces(window_size=3), log_eps=0.2)
    ctrl.history.append((0.0, 100.0, 0.9))
    ctrl.history.append((0.1, 101.0, 0.8))
    before = ctrl.log_epsilon
    update_min_cces(ctrl, 102, 0.7)
    assert ctrl.degenerate_windows == 1
    assert ctrl.log_epsilon - before == pytest.approx(ctrl.k0 * (0.7 - 0.5 * 0.7**2))


def test_min_cces_thresholds_alternate_around_the_centre():
    """Step n runs at centre + 0.5 (odd n) or centre - 0.5 (even n) in log
    eps, and that threshold is what the window records; ``epsilon`` stays
    the centre.  Target-rate thresholds are exp(log_epsilon), bit for bit."""
    ctrl = make_ctrl(MinCces(window_size=10), log_eps=math.log(3e-4))
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        centre = ctrl.log_epsilon
        assert ctrl.step_log_epsilon == centre + (0.5 if n % 2 else -0.5)
        assert ctrl.threshold == math.exp(ctrl.step_log_epsilon)
        assert ctrl.epsilon == math.exp(centre)
        update_min_cces(ctrl, int(rng.integers(20, 40)), float(rng.uniform(0.7, 1.0)))
        assert ctrl.history.entries[-1][0] == centre + (0.5 if n % 2 else -0.5)
    rate = make_ctrl(TargetRate(0.8))
    for alpha in rng.uniform(0.0, 1.0, 12):
        assert rate.step_log_epsilon == rate.log_epsilon
        assert rate.threshold == math.exp(rate.log_epsilon) == rate.epsilon
        update_target_rate(rate, float(alpha))


def test_min_cces_settles_within_its_first_thousand_steps():
    """On check 09's target and streams from eps 1e-2, the thresholds of
    steps 1000-5000 keep sd(log eps) < 1 and eps > 1e-5.  The bounds were
    set from the controller that stepped by the rescaled condition clipped
    at +-2 with no dither: it read sd 2.18-2.41 and min eps 6e-7-2.5e-6
    over this window on ten seed pairs, (31, 32) to (931, 932)."""
    target, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(31))
    kernel = AdaptiveRjpoKernel(make_ctrl(MinCces(), log_eps=math.log(1e-2)))
    run_chain(target, kernel, 5000, 0, RngStream(32), track_covariance=False)
    log_eps = np.log(kernel.epsilons[1000:])
    assert log_eps.std() < 1.0
    assert math.exp(log_eps.min()) > 1e-5


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
    stored = [alpha for _, _, alpha in ctrl.history.entries]
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
    chain = run_chain(target, kernel, n_max=2000, n_min=200, stream=stream)
    assert 3e-6 < math.exp(np.log(kernel.epsilons[-500:]).mean()) < 3e-3
    assert chain.alphas[-500:].mean() > 0.9
    assert chain.cg_iterations[-500:].mean() <= 16.0


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
    chain = run_chain(target, kernel, n_max=50, n_min=5, stream=stream)
    assert len(kernel.epsilons) == chain.alphas.size == chain.cg_iterations.size == 50
    assert np.all(np.array(kernel.epsilons) > 0)
    assert kernel.controller.step_index == 51
    assert kernel.epsilon == kernel.controller.epsilon


def test_target_rate_controller_keeps_no_window():
    """A target-rate controller reads no slope, so it keeps no SlopeWindow
    (history is None), and its adaptive chain still runs and moves epsilon."""
    ctrl = make_ctrl(TargetRate(0.8))
    assert ctrl.history is None
    stream = RngStream(3)
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
    chain = run_chain(target, AdaptiveRjpoKernel(ctrl), n_max=50, n_min=5, stream=stream)
    assert ctrl.history is None and ctrl.step_index == 51
    assert ctrl.log_epsilon != math.log(1e-3) and np.isfinite(chain.empirical_mean()).all()


@pytest.mark.parametrize("mode", [TargetRate(0.8), MinCces(window_size=20)])
def test_adaptive_kernel_epsilons_are_the_thresholds_its_steps_ran_with(monkeypatch, mode):
    """epsilons[i] is the pre-update threshold rjpo_step i was called with,
    and it is the only history the kernel keeps: alpha and J of each step
    are in the chain's arrays."""
    used = []

    def recording_step(target, previous, stream, epsilon):
        used.append(epsilon)
        return rjpo.sampler.rjpo_step(target, previous, stream, epsilon)

    monkeypatch.setattr(rjpo.adapt, "rjpo_step", recording_step)
    stream = RngStream(6)
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
    kernel = AdaptiveRjpoKernel(make_ctrl(mode))
    before = kernel.controller.threshold
    chain = run_chain(target, kernel, n_max=40, n_min=4, stream=stream)
    assert kernel.epsilons == used
    assert kernel.epsilons[0] == before
    assert kernel.epsilons[-1] != kernel.epsilon  # the last update came after the step
    assert set(vars(kernel)) == {"controller", "epsilons"}
    assert chain.alphas.size == len(kernel.epsilons)


def test_adaptive_kernel_honors_iteration_cap(monkeypatch):
    """With CG capped at 2 iterations, the kernel's recorded costs stay
    within the cap."""
    monkeypatch.setattr(rjpo.sampler, "cg_solve", functools.partial(cg_solve, max_iters=2))
    stream = RngStream(4)
    target, _, _ = ar1_target(16, 1.0, 0.8, stream=stream)
    kernel = AdaptiveRjpoKernel(make_ctrl(TargetRate(0.8)))
    chain = run_chain(target, kernel, n_max=30, n_min=3, stream=stream)
    assert max(chain.cg_iterations) <= 2
