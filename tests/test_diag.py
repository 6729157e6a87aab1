"""Diagnostics: effective sample size, PSRF, moment errors, cost summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import acceptance_curve
from rjpo.adapt import essr_from_alpha
from rjpo.diag import ess, essr_cces, gelman_rubin, rmse
from rjpo.errors import ConfigurationError
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import epo_kernel, run_chain


def ar1_series(n, rho, seed):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = np.sqrt(1 - rho**2) * rng.standard_normal(n - 1)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t - 1]
    return x


class FakeChain:
    """Duck-typed stand-in with dialed-in moments and costs."""

    def __init__(self, mean, cov, alpha=0.5, mean_j=10.0):
        self._mean = np.asarray(mean, dtype=float)
        self._cov = np.asarray(cov, dtype=float)
        self.mean_acceptance = alpha
        self.mean_cg_iterations = mean_j

    def empirical_mean(self):
        return self._mean

    def empirical_cov(self):
        return self._cov


# ----------------------------------------------------- effective sample size

def test_ess_of_independent_draws_is_near_n():
    draws = np.random.default_rng(0).standard_normal(5000)
    assert 0.85 * 5000 < ess(draws) < 1.15 * 5000


def test_ess_of_ar1_series_matches_theory():
    """Lag-1 autoregression with coefficient rho thins the sample by
    (1 - rho)/(1 + rho); at rho = 0.5 one in three draws is effective."""
    n = 20000
    series = ar1_series(n, 0.5, seed=1)
    assert ess(series) / n == pytest.approx(1.0 / 3.0, rel=0.15)


def test_ess_matches_direct_loop_oracle():
    series = ar1_series(1500, 0.7, seed=2)
    assert ess(series) == pytest.approx(oracles.ess_direct(series), rel=1e-8)


def test_ess_input_validation():
    with pytest.raises(ValueError):
        ess(np.ones(50))
    with pytest.raises(ValueError):
        ess(np.arange(5))


@given(st.floats(min_value=-50, max_value=50),
       st.floats(min_value=0.05, max_value=20))
@settings(max_examples=25, deadline=None)
def test_ess_is_shift_and_scale_invariant(shift, scale):
    series = ar1_series(400, 0.6, seed=3)
    assert ess(shift + scale * series) == pytest.approx(ess(series), rel=1e-9)


def test_ess_clamped_to_n():
    # Strong negative lag-1 correlation would push n_eff above n.
    series = np.tile([1.0, -1.0], 200) + 0.01 * np.random.default_rng(4).standard_normal(400)
    assert ess(series) == 400.0


# ------------------------------------------------------------- Gelman-Rubin

def test_psrf_near_one_for_matching_chains():
    rng = np.random.default_rng(5)
    chains = [rng.standard_normal(2000) for _ in range(4)]
    assert gelman_rubin(chains) == pytest.approx(1.0, abs=0.05)


def test_psrf_flags_disagreeing_chains():
    rng = np.random.default_rng(6)
    chains = [rng.standard_normal(500), rng.standard_normal(500) + 5.0]
    assert gelman_rubin(chains) > 1.5


def test_psrf_input_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        gelman_rubin([rng.standard_normal(100)])
    with pytest.raises(ValueError):
        gelman_rubin([np.zeros(100), np.zeros(100)])
    with pytest.raises(ValueError):
        gelman_rubin([rng.standard_normal(5), rng.standard_normal(5)])


# ------------------------------------------------------------ moment errors

def test_rmse_is_relative_to_reference_norms():
    truth_mean = np.array([3.0, 4.0])  # norm 5
    truth_cov = np.eye(2)  # Frobenius norm sqrt(2)
    chain = FakeChain(truth_mean + [0.3, 0.4], truth_cov * 2.0)
    r_mean, r_cov = rmse(chain, truth_mean, truth_cov)
    assert r_mean == pytest.approx(0.5 / 5.0)
    assert r_cov == pytest.approx(1.0)


def test_rmse_rejects_zero_norm_references():
    chain = FakeChain([1.0, 1.0], np.eye(2))
    with pytest.raises(ValueError):
        rmse(chain, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        rmse(chain, np.ones(2), np.zeros((2, 2)))


def test_report_combines_quality_and_cost():
    chain = FakeChain([1.0, 0.0], np.eye(2), alpha=0.8, mean_j=12.0)
    assert rmse(chain, np.array([1.0, 0.0]), np.eye(2))[0] == 0.0
    essr, cces = essr_cces(chain)
    assert essr == pytest.approx(essr_from_alpha(0.8))
    assert cces == pytest.approx(12.0 / essr_from_alpha(0.8))


def test_report_from_a_real_chain():
    stream = RngStream(8)
    target, mu, cov = ar1_target(8, 1.0, 0.8, stream=stream)
    chain = run_chain(target, epo_kernel(), n_max=4000, n_min=400, stream=stream)
    r_mean, r_cov = rmse(chain, mu, cov)
    assert r_mean < 0.05
    assert r_cov < 0.25
    assert chain.mean_acceptance == 1.0
    assert essr_cces(chain)[0] == 1.0


def test_independent_draws_have_unit_essr_whatever_alpha_they_record():
    chain = FakeChain([1.0], np.eye(1), alpha=0.3, mean_j=7.0)
    assert essr_cces(chain, independent=True) == (1.0, 7.0)
    assert essr_cces(chain)[0] == essr_from_alpha(0.3)


def test_a_chain_that_never_moves_has_zero_essr_and_infinite_cces():
    assert essr_cces(FakeChain([1.0], np.eye(1), alpha=0.0, mean_j=7.0)) == (0.0, math.inf)


# --------------------------------------------------------- acceptance curve

def test_acceptance_curve_shape_and_monotonicity():
    stream = RngStream(9)
    target, _, _ = ar1_target(8, 1.0, 0.8, stream=stream)
    grid = [1e-4, 1e-1]
    curve = acceptance_curve(target, grid, n_max=400, stream=stream)
    assert curve.shape == (2, 3)
    assert np.array_equal(curve[:, 0], grid)
    assert curve[0, 1] > curve[1, 1]  # tighter solves accept more
    assert curve[0, 2] > curve[1, 2]  # and cost more CG iterations
    assert np.all(curve[:, 1] <= 1.0) and np.all(curve[:, 1] >= 0.0)


def test_acceptance_curve_rows_do_not_depend_on_grid_shape():
    """Row i runs on child i of the stream, so dropping a grid point leaves
    the rows before it unchanged and moves the rows after it onto another
    substream."""
    stream = RngStream(10)
    target, _, _ = ar1_target(8, 1.0, 0.8, stream=stream)
    full = acceptance_curve(target, [1e-4, 1e-2, 1e-1], 300, RngStream(77))
    part = acceptance_curve(target, [1e-4, 1e-1], 300, RngStream(77))
    assert np.array_equal(full[0], part[0])
    assert full[2, 0] == part[1, 0] and full[2, 1] != part[1, 1]


def test_acceptance_curve_grid_validation():
    stream = RngStream(11)
    target, _, _ = ar1_target(8, 1.0, 0.8, stream=stream)
    with pytest.raises(ConfigurationError):
        acceptance_curve(target, [], 100, stream)
    with pytest.raises(ConfigurationError):
        acceptance_curve(target, [1e-3, -1e-2], 100, stream)
    with pytest.raises(ConfigurationError):
        acceptance_curve(target, [1e-1, 1e-3], 100, stream)
