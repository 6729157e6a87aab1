import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy import stats

from oracles import (
    GeneralMoveSpec,
    ar1_precision,
    cholesky_gaussian_draws,
    gaussian_logpdf,
    general_rj_step_oracle,
    joint_law_z_scores,
    lag1_autocorrelation,
    target_from_dense,
    with_two_product_factor,
)
import rjpo.adapt
import rjpo.sampler
from rjpo.adapt import AdaptController, AdaptiveRjpoKernel, MinCces, make_kernel
from rjpo.cg import cg_solve
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.linop import DenseOperator, FactoredPrecision, GaussianTarget
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import (
    COV_BLOCK,
    EXACT_EPSILON,
    epo_kernel,
    epo_step,
    perturb,
    rjpo_step,
    run_chain,
    tpo_step,
)


def _small_target(seed=0, n=6):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    mu = rng.standard_normal(n)
    return target_from_dense(q, mu), q, mu


def _without_inverse(target):
    """A copy of a dense target whose factor offers no closed-form Q^-1, so
    its exact draw runs the CG solve."""
    factor = DenseOperator(target.precision.matrix)
    factor.inverse = None
    return GaussianTarget(factor, target.potential)


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


def test_epo_without_closed_form_inverse_uses_machine_accuracy_cg():
    target, q, mu = _small_target(6, 5)
    bare = _without_inverse(target)
    out = epo_step(bare, RngStream(2))
    assert out.cg_iterations > 0
    assert out.relative_residual <= EXACT_EPSILON * 10
    assert out.acceptance_probability == 1.0 and out.accepted


def test_epo_refuses_a_cg_solve_stopped_at_its_cap(monkeypatch):
    """A capped CG solve is not exact: epo_step raises instead of returning it."""
    target, _, _ = _small_target(6, 5)
    bare = _without_inverse(target)
    assert epo_step(bare, RngStream(2)).cg_iterations > 1  # so a cap of 1 bites
    monkeypatch.setattr(rjpo.sampler, "cg_solve", functools.partial(cg_solve, max_iters=1))
    with pytest.raises(NumericalBreakdownError,
                       match="iteration cap .* at CG iteration 1 of the two solves$"):
        epo_step(bare, RngStream(2))
    # through the closed-form Q^-1 no CG runs, so the cap does not apply
    assert epo_step(target, RngStream(2)).accepted


def _residual_reported_as(monkeypatch, relative_residuals):
    """Stub rjpo.sampler.cg_solve: the real solve, whose k-th call reports
    relative_residuals[k] in place of its recomputed residual."""
    calls = []

    def stub(q, b, x0=None, epsilon=0.0, max_iters=None, precondition=None):
        out = cg_solve(q, b, x0=x0, epsilon=epsilon, max_iters=max_iters,
                       precondition=precondition)
        calls.append((x0, out))
        return dataclasses.replace(out, relative_residual=relative_residuals[len(calls) - 1])

    monkeypatch.setattr(rjpo.sampler, "cg_solve", stub)
    return calls


def test_epo_retries_a_solve_that_misses_its_residual_target(monkeypatch):
    """A converged solve whose recomputed residual is still above
    EXACT_EPSILON gets one more solve, warm-started from its x."""
    target, _, _ = _small_target(6, 5)
    bare = _without_inverse(target)
    calls = _residual_reported_as(monkeypatch, [1.002 * EXACT_EPSILON, 0.0])
    outcome = epo_step(bare, RngStream(2))
    assert len(calls) == 2
    (first_x0, first), (retry_x0, retry) = calls
    assert first_x0 is None and np.array_equal(retry_x0, first.solution)
    assert np.array_equal(outcome.next_sample, retry.solution)
    assert outcome.cg_iterations == first.iterations + retry.iterations
    assert outcome.relative_residual <= EXACT_EPSILON


def test_epo_refuses_a_residual_still_above_target_after_the_retry(monkeypatch):
    target, _, _ = _small_target(6, 5)
    bare = _without_inverse(target)
    calls = _residual_reported_as(monkeypatch, [2 * EXACT_EPSILON] * 3)
    with pytest.raises(NumericalBreakdownError, match="residual target"):
        epo_step(bare, RngStream(2))
    assert len(calls) == 2


def _closed_form_off_by(monkeypatch, scale):
    """A 5-dim dense target whose closed-form Q^-1 is scaled by ``scale``,
    its refined draw (x = Q^-1 eta, then x + Q^-1 (eta - Q x), both through
    the scaled Q^-1) on RngStream(2), and the record of every cg_solve
    call as (x0, outcome)."""
    target, _, _ = _small_target(6, 5)
    exact = target.precision.inverse
    target.precision.inverse = lambda b: exact(b) * scale
    calls = []

    def recorded(q, b, x0=None, epsilon=0.0, max_iters=None, precondition=None):
        calls.append((x0, cg_solve(q, b, x0=x0, epsilon=epsilon, max_iters=max_iters,
                                   precondition=precondition)))
        return calls[-1][1]

    monkeypatch.setattr(rjpo.sampler, "cg_solve", recorded)
    eta = perturb(target, RngStream(2))
    moved = target.precision.inverse(eta)
    assert np.linalg.norm(eta - target.precision.apply(moved)) > EXACT_EPSILON * np.linalg.norm(eta)
    refined = moved + target.precision.inverse(eta - target.precision.apply(moved))
    return target, eta, refined, calls


def test_a_closed_form_draw_that_misses_after_its_correction_breaks_down(monkeypatch):
    """A dense closed-form draw moved off Q^-1 eta by a relative 1e-3 misses
    EXACT_EPSILON, and so does its one correction (about 1e-6 off).  The
    exact draw makes no third solve and does not fall back on CG: it raises
    NumericalBreakdownError (exit code 2) naming its residual target."""
    target, eta, refined, calls = _closed_form_off_by(monkeypatch, 1.0 + 1e-3)
    assert np.linalg.norm(eta - target.precision.apply(refined)) > EXACT_EPSILON * np.linalg.norm(eta)
    with pytest.raises(NumericalBreakdownError, match="residual target"):
        epo_step(target, RngStream(2))
    assert calls == []


def test_a_closed_form_draw_that_misses_the_bound_is_refined_once(monkeypatch):
    """A dense closed-form draw moved off Q^-1 eta by a relative 1e-9 misses
    EXACT_EPSILON; its one refinement x + Q^-1 (eta - Q x) is about 1e-18
    off, so the draw is the refined x, within the bound, with no CG."""
    target, eta, refined, calls = _closed_form_off_by(monkeypatch, 1.0 + 1e-9)
    residual = eta - target.precision.apply(refined)
    outcome = epo_step(target, RngStream(2))
    assert calls == [] and outcome.cg_iterations == 0
    assert np.array_equal(outcome.next_sample, refined)
    assert outcome.relative_residual == np.linalg.norm(residual) / np.linalg.norm(eta) <= EXACT_EPSILON


def test_a_non_square_dense_factor_draws_in_closed_form():
    """A 9 x 5 factor M of full rank offers its closed-form Q^-1 through the
    eigenbasis of M^t M, as a square one does: its exact draw runs no CG."""
    rng = np.random.default_rng(15)
    target = GaussianTarget(DenseOperator(rng.standard_normal((9, 5))), rng.standard_normal(5))
    out = epo_step(target, RngStream(3))
    assert out.cg_iterations == 0 and out.relative_residual <= EXACT_EPSILON


def test_a_singular_dense_factor_breaks_down_in_the_exact_draw():
    """A square 3 x 3 factor of ones has the Gram eigenvalues 9 and two of
    rounding size; the closed-form Q^-1 would divide by the small ones.  The
    exact draw and rjpo raise NumericalBreakdownError (exit code 2) at the
    eigenbasis, with the message a non-square rank-deficient factor gets."""
    target = GaussianTarget(DenseOperator(np.ones((3, 3))), np.ones(3))
    for kernel in (epo_kernel(), make_kernel("rjpo", epsilon=1e-3)):
        with pytest.raises(NumericalBreakdownError,
                           match="^kernel failed at chain step 1: dense factor's Gram M\\^t M is "
                                 "singular: smallest eigenvalue .* against largest 9.000e\\+00$"):
            run_chain(target, kernel, 5, 0, RngStream(4))


@pytest.mark.parametrize("name", ["epo", "rjpo"])
def test_a_rank_deficient_non_square_factor_breaks_down(name):
    """A 5 x 4 factor of ones has the rank-1 Gram M^t M, whose eigenvalues
    are 20 and three of rounding size.  CG in the eigenbasis would solve
    only the part of eta in the Gram's range and report a tiny residual;
    both the exact draw and rjpo raise NumericalBreakdownError (exit code 2)
    at the eigenbasis instead."""
    target = GaussianTarget(DenseOperator(np.ones((5, 4))), np.ones(4))
    with pytest.raises(NumericalBreakdownError,
                       match="^kernel failed at chain step 1: dense factor's Gram M\\^t M is "
                             "singular: smallest eigenvalue .* against largest 2.000e\\+01$"):
        run_chain(target, make_kernel(name, epsilon=1e-3), 5, 0, RngStream(4))


def test_ar1_exact_draw_reads_the_eigenbasis():
    """epo_step on the AR(1) N = 128 target draws x = X eta, one product
    with X = (V Lambda^-1) V^t formed from the factor's rotation (its
    eigenvectors V, read back as V I, and values Lambda), with 0 CG
    iterations and reports ||eta - Q x|| / ||eta|| of that x, bit for bit."""
    target, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(1))
    rotation = target.precision.rotation
    vectors = rotation.leave(np.eye(128))
    stored = (vectors / rotation.values) @ vectors.T
    for seed in range(5):
        eta = perturb(target, RngStream(seed))
        x = stored @ eta
        residual = eta - target.precision.apply(x)
        out = epo_step(target, RngStream(seed))
        assert out.cg_iterations == 0 and np.array_equal(out.next_sample, x)
        assert out.relative_residual == math.sqrt(residual @ residual) / math.sqrt(eta @ eta)


def test_epo_refuses_a_perturbation_whose_norm_overflows():
    """eta = 1e160 in each of 6 entries (plus F^t omega) is finite, but
    ||eta|| overflows, so a relative residual against it would read 0 and
    the draw pass for exact: the draw through the closed-form Q^-1 raises,
    and without one the CG solve raises at its iteration 0."""
    target, _, _ = _small_target(6, 6)
    huge = np.full(6, 1e160)
    with np.errstate(over="ignore"), pytest.raises(
            NumericalBreakdownError, match=r"^non-finite \|\|eta\|\| = inf in the exact draw$"):
        epo_step(GaussianTarget(target.precision, huge), RngStream(2))
    with np.errstate(over="ignore"), pytest.raises(
            NumericalBreakdownError, match=r"^non-finite \|\|b\|\| = inf at CG iteration 0$"):
        epo_step(GaussianTarget(_without_inverse(target).precision, huge), RngStream(2))


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
    loose = run_chain(target, make_kernel("rjpo", epsilon=1e-1), 2000, 200, RngStream(41))
    tight = run_chain(target, make_kernel("rjpo", epsilon=1e-5), 2000, 200, RngStream(41))
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
    chain = run_chain(target, make_kernel("rjpo", epsilon=1e-3), 20000, 2000, RngStream(44),
                      store_samples=True)
    samples = chain.samples[2000::10, 2]
    sd = np.sqrt(np.linalg.inv(q)[2, 2])
    _, p = stats.kstest(samples, "norm", args=(mu[2], sd))
    assert p > 1e-3


# The RJPO move is reversible only if it is an involution: x_hat = -previous
# + f(z) with f a function of z = eta + Q previous alone.  rjpo_step's CG
# stops on ||r|| / ||eta||, and ||eta|| = ||z - Q previous|| depends on the
# current state, so the reverse move from x_hat can stop at another
# iteration and miss previous.  The tests under this marker pass once the
# solve stops on ||r|| / ||z|| (Q f = z from zero, x_hat = f - previous),
# as cces_table.z_normalised_step does.
NOT_AN_INVOLUTION = pytest.mark.xfail(
    strict=True, reason="rjpo_step's stopping test depends on the current state")


@NOT_AN_INVOLUTION
def test_rjpo_reverse_move_returns_to_the_previous_state(monkeypatch):
    """On AR(1), N = 20, for seeded (previous, eta) pairs at eps 0.1 and
    1e-2: the move rerun from x_hat with the same z (so eta' = z - Q x_hat)
    returns previous to rounding, in the same iteration count."""
    target, mu, cov = ar1_target(20, 1.0, 0.8, stream=RngStream(21))
    q_chol = np.linalg.cholesky(ar1_precision(20, 1.0, 0.8))
    cov_chol = np.linalg.cholesky(cov)
    etas = []
    monkeypatch.setattr(rjpo.sampler, "perturb", lambda target, stream: etas.pop())
    misses = {}
    for eps in (0.1, 1e-2):
        rng = np.random.default_rng(22)
        misses[eps] = 0
        for _ in range(200):
            previous = mu + cov_chol @ rng.standard_normal(20)
            eta = target.potential + q_chol @ rng.standard_normal(20)
            etas.append(eta)
            forward = rjpo_step(target, previous, RngStream(0), eps)
            z = eta + target.precision.apply(previous)
            etas.append(z - target.precision.apply(forward.proposal))
            reverse = rjpo_step(target, forward.proposal, RngStream(0), eps)
            gap = np.linalg.norm(reverse.proposal - previous) / np.linalg.norm(previous)
            if not (gap <= 1e-8 and reverse.cg_iterations == forward.cg_iterations):
                misses[eps] += 1
    assert misses == {0.1: 0, 1e-2: 0}


@pytest.mark.parametrize("kernel", [
    pytest.param(epo_kernel(), id="epo"),
    pytest.param(make_kernel("rjpo", epsilon=0.3), marks=NOT_AN_INVOLUTION, id="rjpo"),
])
def test_chain_keeps_the_target_energy(kernel):
    """E[(x - mu)^t Q (x - mu)] = N under the target.  AR(1), N = 3, rho
    0.8, zero mean; 8 chains x 10 000 steps started from target draws.  The
    bound 0.05 is about 5 chain-level standard errors of the exact kernel
    on this harness."""
    q = ar1_precision(3, 1.0, 0.8)
    target = target_from_dense(q, np.zeros(3))
    cov_chol = np.linalg.cholesky(np.linalg.inv(q))
    energies = []
    for sub in RngStream(5).spawn(8):
        start = cov_chol @ sub.standard_normal_vector(3)
        chain = run_chain(target, kernel, 10_000, 0, sub, initial=start,
                          track_covariance=False, store_samples=True)
        x = chain.samples[1:]
        energies.append(np.einsum("ij,jk,ik->i", x, q, x).mean())
    assert abs(np.mean(energies) - 3.0) <= 0.05


# The joint-law gate's |z| bound, set from the normal tail alone, not from
# the biased kernels' readings: a correct kernel's three statistics over
# two harness seeds pass with probability above 0.9996.
JOINT_LAW_BOUND = 4.0


@pytest.mark.parametrize("seed", [1, 2])
def test_epo_keeps_the_joint_law(seed):
    """Geweke's joint-law test of the whole Gibbs chain (oracles.
    joint_law_z_scores, 8 chains x 3000 sweeps): with the exact draw,
    E[gamma], E[gamma x^t Q0 x] and E[x_0^2] stay at their prior values."""
    z = joint_law_z_scores(epo_kernel(), seed, 8, 3000)
    assert np.all(np.abs(z) < JOINT_LAW_BOUND), z


@NOT_AN_INVOLUTION
def test_rjpo_keeps_the_joint_law():
    """The joint-law test, as for epo, of rjpo at eps 0.3, which must be
    exact at every truncation level; its state-dependent stopping test
    holds it red."""
    z = joint_law_z_scores(make_kernel("rjpo", epsilon=0.3), 1, 8, 3000)
    assert np.all(np.abs(z) < JOINT_LAW_BOUND), z


def test_the_joint_law_test_sees_tpo_bias():
    """The joint-law test has the power to see a biased kernel: tpo at eps
    0.3, which always accepts its truncated draw, exceeds the bound."""
    z = joint_law_z_scores(make_kernel("tpo", epsilon=0.3), 1, 8, 3000)
    assert np.max(np.abs(z)) > JOINT_LAW_BOUND, z


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
    bare = _without_inverse(target)
    prev = np.full(6, 0.7)
    a = tpo_step(bare, prev, RngStream(77), epsilon=EXACT_EPSILON)
    b = epo_step(bare, RngStream(77))
    assert np.allclose(a.next_sample, b.next_sample, atol=1e-9)


def test_tpo_biased_toward_origin_at_loose_truncation():
    """From x0 = 0, a heavily truncated solve undershoots; sample variance
    shrinks measurably below the truth."""
    target = target_from_dense(ar1_precision(20, 1.0, 0.8), np.zeros(20))
    tight = run_chain(target, make_kernel("tpo", epsilon=1e-10), 4000, 400, RngStream(51))
    loose = run_chain(target, make_kernel("tpo", epsilon=0.5), 4000, 400, RngStream(51))
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
    out = general_rj_step_oracle(target, q, move, prev, stream)
    assert out.acceptance_probability == pytest.approx(1.0, abs=1e-9)


def test_general_move_oracle_stationarity():
    """The (A, B, b) chain preserves N(mu, Q^-1): KS on a long subsampled run."""
    target, q, mu = _small_target(12, 3)
    move = GeneralMoveSpec(A=0.5 * q, B=np.eye(3), b=np.zeros(3))
    stream = RngStream(72)
    x = mu.copy()
    draws = []
    for i in range(30000):
        x = general_rj_step_oracle(target, q, move, x, stream).next_sample
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


@pytest.mark.parametrize("n_min", [0, 7])
@pytest.mark.parametrize("kept", [COV_BLOCK - 1, COV_BLOCK, COV_BLOCK + 1, 3 * COV_BLOCK + 2])
def test_blocked_second_moment_gives_the_sample_covariance(n_min, kept):
    """The second moment takes kept samples COV_BLOCK at a time and folds the
    partial block when read: empirical_cov is np.cov of the kept samples for
    no, one and several full blocks, with and without a remainder, exactly
    symmetric, and the same array when read twice."""
    target, _, _ = ar1_target(12, 1.0, 0.8, stream=RngStream(21))
    chain = run_chain(target, epo_kernel(), n_min + kept - 1, n_min, RngStream(22),
                      store_samples=True)
    assert chain.count == kept
    cov = chain.empirical_cov()
    expected = np.cov(chain.samples[n_min:], rowvar=False)
    assert np.linalg.norm(cov - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.array_equal(cov, cov.T)
    assert np.array_equal(chain.empirical_cov(), cov)


def test_chain_without_covariance_tracking_refuses_empirical_cov():
    target, _, _ = ar1_target(12, 1.0, 0.8, stream=RngStream(23))
    chain = run_chain(target, epo_kernel(), 3 * COV_BLOCK, 0, RngStream(24),
                      track_covariance=False)
    with pytest.raises(ValueError):
        chain.empirical_cov()


def test_cost_statistics_cover_the_kept_steps_only():
    """mean_acceptance and mean_cg_iterations average steps n_min+1..n_max,
    the moves between the kept samples n_min..n_max."""
    target, _, _ = ar1_target(8, 1.0, 0.8, stream=RngStream(12))
    chain = run_chain(target, make_kernel("rjpo", epsilon=0.3), 60, 20, RngStream(13))
    assert chain.count == 41
    assert chain.mean_acceptance == float(chain.alphas[20:].mean())
    assert chain.mean_cg_iterations == float(chain.cg_iterations[20:].mean())
    assert chain.mean_acceptance != float(chain.alphas.mean())


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
    class Indefinite(FactoredPrecision):
        """Q = diag(1, -2), with no rotation, drawn through F^t = I."""

        in_dim = out_dim = 2

        def apply_transpose(self, w):
            return w

        def gram(self, v):
            return np.diag([1.0, -2.0]) @ v

    bad = GaussianTarget(Indefinite(), np.array([0.3, 1.0]))
    with pytest.raises(NumericalBreakdownError):
        run_chain(bad, make_kernel("rjpo", epsilon=1e-8), 5, 0, RngStream(10))


@pytest.mark.parametrize("name, step", [("tpo", tpo_step), ("rjpo", rjpo_step)])
def test_registry_kernels_run_their_step_at_their_epsilon(monkeypatch, name, step):
    """make_kernel's tpo and rjpo kernels are their step at the epsilon
    they were built with, looked up in rjpo.adapt when called, so a patch
    there (as a tracer installs one) sees every step."""
    target, _, _ = ar1_target(8, 1.0, 0.8, stream=RngStream(60))
    previous = RngStream(61).standard_normal_vector(8)
    kernel = make_kernel(name, epsilon=2e-2)
    got = kernel(target, previous, RngStream(62))
    want = step(target, previous, RngStream(62), 2e-2)
    assert got.cg_iterations == want.cg_iterations and got.accepted == want.accepted
    assert np.array_equal(got.next_sample, want.next_sample)
    calls = []
    monkeypatch.setattr(rjpo.adapt, f"{name}_step",
                        lambda *args: calls.append(args[-1]) or step(*args))
    kernel(target, previous, RngStream(62))
    assert calls == [2e-2]


@pytest.mark.parametrize("name", ["rjpo", "tpo", "min_cces"])
def test_one_product_gram_moves_no_decision(name):
    """A dense target's one-product Q-apply (M^t M) v moves no decision
    against the two products M^t (M v): same-seed chains at N = 128 take the
    same accept decisions and CG iteration counts over 2000 steps, also
    under the MinCces controller, which integrates alpha's rounding into its
    epsilon.  Fixed-epsilon samples agree to 1e-12 relative."""
    target, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(70))
    chains = []
    for copy in (target, with_two_product_factor(target)):
        if name == "min_cces":
            kernel = AdaptiveRjpoKernel(AdaptController(math.log(1e-2), MinCces()))
        else:
            kernel = make_kernel(name, epsilon=1e-3)
        chains.append(run_chain(copy, kernel, 2000, None, RngStream(71),
                                track_covariance=False, store_samples=name != "min_cces"))
    one, two = chains
    assert np.array_equal(one.accepted, two.accepted)
    assert np.array_equal(one.cg_iterations, two.cg_iterations)
    if name != "min_cces":
        scale = np.max(np.abs(two.samples))
        assert np.max(np.abs(one.samples - two.samples)) <= 1e-12 * scale


def test_chain_against_cholesky_oracle_two_sample():
    """E-PO draws and direct Cholesky draws agree in distribution (energy test)."""
    from oracles import energy_test_pvalue

    target, q, mu = _small_target(16, 3)
    chain = run_chain(target, epo_kernel(), 220, 20, RngStream(12), store_samples=True)
    ours = chain.samples[21:]
    rng = np.random.default_rng(13)
    theirs = cholesky_gaussian_draws(q, mu, 200, rng)
    assert energy_test_pvalue(ours, theirs, rng, permutations=150) > 0.01
