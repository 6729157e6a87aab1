import numpy as np
import pytest
from scipy import stats

from oracles import (
    GeneralMoveSpec,
    cholesky_gaussian_draws,
    gaussian_logpdf,
    general_rj_step_oracle,
    lag1_autocorrelation,
)
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.linop import DenseOperator, FactoredPrecision, GaussianTarget, target_from_dense
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import (
    EXACT_EPSILON,
    epo_kernel,
    epo_step,
    perturb,
    rjpo_kernel,
    rjpo_step,
    run_chain,
    tpo_kernel,
    tpo_step,
)


def _small_target(seed=0, n=6):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    mu = rng.standard_normal(n)
    return target_from_dense(q, mu), q, mu


def test_perturbation_moments():
    """eta ~ N(Q mu, Q): empirical mean and covariance from 20000 draws."""
    target, q, mu = _small_target(1, 4)
    stream = RngStream(17)
    draws = np.array([perturb(target, stream) for _ in range(20000)])
    assert np.allclose(draws.mean(axis=0), q @ mu, atol=0.15)
    emp_cov = np.cov(draws.T)
    assert np.linalg.norm(emp_cov - q) / np.linalg.norm(q) < 0.05


def test_perturbation_mean_is_exact_with_zero_noise():
    """Injecting omega = 0 must hand back the potential Q mu exactly."""
    target, q, mu = _small_target(2, 5)

    class ZeroStream:
        def standard_normal_vector(self, n):
            return np.zeros(n)

    assert np.allclose(perturb(target, ZeroStream()), q @ mu, atol=1e-14)


def test_epo_samples_match_cholesky_oracle_moments():
    target, q, mu = _small_target(3, 4)
    stream = RngStream(23)
    n = 20000
    chain = run_chain(target, epo_kernel(), n, 0, stream, store_samples=True)
    cov = np.linalg.inv(q)
    assert np.allclose(chain.empirical_mean(), mu, atol=4 * np.sqrt(cov.max() / n) + 0.05)
    emp_cov = chain.empirical_cov()
    assert np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov) < 0.06


def test_epo_successive_samples_independent():
    target, _, _ = _small_target(4, 3)
    chain = run_chain(target, epo_kernel(), 8000, 0, RngStream(5), store_samples=True)
    series = chain.samples[1:, 0]
    assert abs(lag1_autocorrelation(series)) < 3.0 / np.sqrt(series.size)


def test_epo_without_mirror_uses_machine_accuracy_cg():
    target, q, mu = _small_target(6, 5)
    bare = GaussianTarget(target.precision, target.potential)
    out = epo_step(bare, RngStream(2))
    assert out.cg_iterations > 0
    assert out.relative_residual <= EXACT_EPSILON * 10
    assert out.acceptance_probability == 1.0 and out.accepted


def test_rjpo_exact_solve_always_accepts():
    """Machine-accuracy truncation leaves no residual: alpha = 1 +- 1e-10."""
    target, _, _ = _small_target(7, 6)
    stream = RngStream(31)
    x = np.zeros(6)
    for _ in range(300):
        out = rjpo_step(target, x, stream, epsilon=1e-13)
        assert abs(out.acceptance_probability - 1.0) <= 1e-10
        assert out.accepted
        x = out.next_sample


def test_rjpo_acceptance_drops_with_loose_epsilon():
    target, mu, cov = ar1_target(16, 1.0, 0.8, stream=RngStream(40))
    loose = run_chain(target, rjpo_kernel(1e-1), 2000, 200, RngStream(41))
    tight = run_chain(target, rjpo_kernel(1e-5), 2000, 200, RngStream(41))
    assert loose.mean_acceptance < 0.3
    assert tight.mean_acceptance > 0.9


def test_rjpo_rejected_steps_keep_previous():
    target, mu, cov = ar1_target(16, 1.0, 0.8, stream=RngStream(42))
    stream = RngStream(43)
    x = np.zeros(16)
    saw_rejection = False
    for _ in range(200):
        out = rjpo_step(target, x, stream, epsilon=1e-1)
        if not out.accepted:
            saw_rejection = True
            assert out.next_sample is x
            assert not np.array_equal(out.proposal, x)
        x = out.next_sample
    assert saw_rejection


def test_rjpo_stationary_distribution_ks():
    """RJPO at moderate truncation matches the exact marginal (KS test)."""
    target, q, mu = _small_target(8, 4)
    chain = run_chain(target, rjpo_kernel(1e-3), 20000, 2000, RngStream(44),
                      store_samples=True)
    samples = chain.samples[2000::10, 2]
    sd = np.sqrt(np.linalg.inv(q)[2, 2])
    _, p = stats.kstest(samples, "norm", args=(mu[2], sd))
    assert p > 1e-3


def test_tpo_always_accepts_and_records_diagnostic_alpha():
    target, _, _ = _small_target(9, 5)
    out = tpo_step(target, np.ones(5), RngStream(3), epsilon=1e-1)
    assert out.accepted
    assert 0.0 <= out.acceptance_probability <= 1.0
    assert np.array_equal(out.next_sample, out.proposal)


def test_tpo_exact_termination_equals_epo_on_same_stream():
    """T-PO and E-PO consume identical draws; at machine-accuracy truncation
    the next samples coincide."""
    target, _, _ = _small_target(10, 6)
    bare = GaussianTarget(target.precision, target.potential)
    prev = np.full(6, 0.7)
    a = tpo_step(bare, prev, RngStream(77), epsilon=EXACT_EPSILON)
    b = epo_step(bare, RngStream(77))
    assert np.allclose(a.next_sample, b.next_sample, atol=1e-9)


def test_tpo_biased_toward_origin_at_loose_truncation():
    """From x0 = 0, a heavily truncated solve undershoots; sample variance
    shrinks measurably below the truth."""
    target, mu, cov = ar1_target(20, 1.0, 0.8, stream=RngStream(50), mean=np.zeros(20))
    tight = run_chain(target, tpo_kernel(1e-10), 4000, 400, RngStream(51))
    loose = run_chain(target, tpo_kernel(0.5), 4000, 400, RngStream(51))
    var_tight = np.trace(tight.empirical_cov())
    var_loose = np.trace(loose.empirical_cov())
    assert var_loose < 0.9 * var_tight


def test_acceptance_exponent_equals_log_density_ratio():
    """-r^t(previous - proposal) equals the reversible-jump log ratio for an
    arbitrary return map, not just the exact solve (100 random configs)."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        q = a @ a.T + n * np.eye(n)
        mu = rng.standard_normal(n)
        move_a = rng.standard_normal((n, n))
        bmat = rng.standard_normal((n, n))
        bmat = bmat @ bmat.T + n * np.eye(n)
        boff = rng.standard_normal(n)
        prev = rng.standard_normal(n)
        z = move_a @ prev + boff + np.linalg.cholesky(bmat) @ rng.standard_normal(n)
        binv = np.linalg.inv(bmat)
        half_m = 0.5 * (q + move_a.T @ binv @ move_a)
        rhs = q @ mu + move_a.T @ binv @ (z - boff)
        f = rhs_solution = np.linalg.solve(half_m, rhs)
        # arbitrary f: perturb away from the exact solution
        f = rhs_solution + rng.standard_normal(n)
        residual = rhs - half_m @ f
        proposal = -prev + f
        exponent = -float(residual @ (prev - proposal))
        direct = (
            gaussian_logpdf(proposal, mu, q)
            + gaussian_logpdf(z, move_a @ proposal + boff, np.linalg.inv(bmat))
            - gaussian_logpdf(prev, mu, q)
            - gaussian_logpdf(z, move_a @ prev + boff, np.linalg.inv(bmat))
        )
        worst = max(worst, abs(exponent - direct))
    assert worst < 1e-8


def test_general_move_oracle_accepts_exact_solves():
    target, q, mu = _small_target(11, 5)
    rng = np.random.default_rng(7)
    move = GeneralMoveSpec(
        A=0.3 * np.eye(5), B=np.eye(5) + 0.1 * np.diag(np.arange(5.0)), b=rng.standard_normal(5)
    )
    stream = RngStream(71)
    prev = rng.standard_normal(5)
    out = general_rj_step_oracle(target, move, prev, stream)
    assert out.acceptance_probability == pytest.approx(1.0, abs=1e-9)


def test_general_move_oracle_stationarity():
    """The (A, B, b) chain preserves N(mu, Q^-1): KS on a long subsampled run."""
    target, q, mu = _small_target(12, 3)
    move = GeneralMoveSpec(A=0.5 * q, B=np.eye(3), b=np.zeros(3))
    stream = RngStream(72)
    x = mu.copy()
    draws = []
    for i in range(30000):
        x = general_rj_step_oracle(target, move, x, stream).next_sample
        if i % 10 == 0:
            draws.append(x[1])
    sd = np.sqrt(np.linalg.inv(q)[1, 1])
    _, p = stats.kstest(np.array(draws[300:]), "norm", args=(mu[1], sd))
    assert p > 1e-3


def test_general_move_spec_validation():
    with pytest.raises(ConfigurationError):
        GeneralMoveSpec(A=np.eye(3), B=np.eye(2), b=np.zeros(3))
    with pytest.raises(ConfigurationError):
        GeneralMoveSpec(A=np.eye(2), B=np.array([[1.0, 0.5], [0.4, 1.0]]), b=np.zeros(2))
    with pytest.raises(ConfigurationError):
        GeneralMoveSpec(A=np.eye(2), B=-np.eye(2), b=np.zeros(2))


def test_run_chain_moment_window_accounting():
    """Estimators average samples n_min..n_max: count is n_max - n_min + 1."""
    target, _, _ = _small_target(13, 3)
    chain = run_chain(target, epo_kernel(), 40, 10, RngStream(8), store_samples=True)
    assert chain.count == 31
    expected_mean = chain.samples[10:].mean(axis=0)
    assert np.allclose(chain.empirical_mean(), expected_mean, atol=1e-12)
    cov = np.cov(chain.samples[10:].T, ddof=1)
    assert np.allclose(chain.empirical_cov(), cov, atol=1e-10)


def test_run_chain_validation():
    target, _, _ = _small_target(14, 3)
    stream = RngStream(9)
    with pytest.raises(ConfigurationError):
        run_chain(target, epo_kernel(), 0, 0, stream)
    with pytest.raises(ConfigurationError):
        run_chain(target, epo_kernel(), 10, 10, stream)
    with pytest.raises(ConfigurationError):
        run_chain(target, epo_kernel(), 10, -1, stream)
    with pytest.raises(ConfigurationError):
        run_chain(target, epo_kernel(), 10, 0, stream, initial=np.zeros(4))


def test_run_chain_breakdown_carries_step():
    indefinite = np.diag([1.0, -2.0])

    class FakePrecision:
        dim = 2
        factor = DenseOperator(np.eye(2))

        def apply(self, v):
            return indefinite @ v

    bad = GaussianTarget(FakePrecision(), np.array([0.3, 1.0]))
    with pytest.raises(NumericalBreakdownError):
        run_chain(bad, rjpo_kernel(1e-8), 5, 0, RngStream(10))


def test_kernel_factories_expose_epsilon():
    assert rjpo_kernel(1e-3).epsilon == 1e-3
    assert tpo_kernel(2e-4).epsilon == 2e-4
    chain = run_chain(_small_target(15, 3)[0], rjpo_kernel(1e-2), 20, 2, RngStream(11))
    assert chain.epsilon == 1e-2


def test_chain_against_cholesky_oracle_two_sample():
    """E-PO draws and direct Cholesky draws agree in distribution (energy test)."""
    from oracles import energy_test_pvalue

    target, q, mu = _small_target(16, 3)
    chain = run_chain(target, epo_kernel(), 220, 20, RngStream(12), store_samples=True)
    ours = chain.samples[21:]
    rng = np.random.default_rng(13)
    theirs = cholesky_gaussian_draws(q, mu, 200, rng)
    assert energy_test_pvalue(ours, theirs, rng, permutations=150) > 0.01
