from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rjpo.cg
import rjpo.superres as sr
from oracles import dense_solve_cg_reference
from rjpo.cg import cg_solve
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.linop import DenseOperator, Eigenbasis, FactoredPrecision
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import perturb


def _spd_precision(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    return DenseOperator(np.linalg.cholesky(q).T), q


def test_two_by_two_hand_case():
    # Q = [[2,0],[0,4]], b = (2, 8): solution (1, 2); CG from zero converges
    # in at most 2 steps
    q = DenseOperator(np.diag([np.sqrt(2.0), 2.0]))
    out = cg_solve(q, np.array([2.0, 8.0]), epsilon=1e-14)
    assert np.allclose(out.solution, [1.0, 2.0], atol=1e-12)
    assert out.iterations <= 2
    assert out.relative_residual <= 1e-12


def test_matches_dense_solve():
    prec, q = _spd_precision(0, 12)
    b = np.random.default_rng(1).standard_normal(12)
    out = cg_solve(prec, b, epsilon=1e-13)
    assert np.allclose(out.solution, dense_solve_cg_reference(q, b), atol=1e-9)
    # returned residual vector is the recomputed b - Q x
    assert np.allclose(out.residual_vector, b - q @ out.solution, atol=1e-10)
    assert out.relative_residual == pytest.approx(
        np.linalg.norm(out.residual_vector) / np.linalg.norm(b)
    )


def test_exact_termination_within_dimension():
    prec, _ = _spd_precision(2, 8)
    b = np.random.default_rng(3).standard_normal(8)
    out = cg_solve(prec, b, epsilon=1e-10)
    assert out.iterations <= 8


def test_zero_rhs_returns_start_point():
    prec, _ = _spd_precision(4, 5)
    out = cg_solve(prec, np.zeros(5), x0=np.ones(5), epsilon=1e-8)
    assert out.iterations == 0
    assert np.allclose(out.solution, np.ones(5))
    assert out.relative_residual == 0.0


def test_start_point_already_converged():
    prec, q = _spd_precision(5, 6)
    x_true = np.random.default_rng(6).standard_normal(6)
    b = q @ x_true
    out = cg_solve(prec, b, x0=x_true, epsilon=1e-6)
    assert out.iterations == 0
    assert np.allclose(out.solution, x_true)


def test_loose_epsilon_stops_earlier():
    prec, _ = _spd_precision(7, 30)
    b = np.random.default_rng(8).standard_normal(30)
    iters = [
        cg_solve(prec, b, epsilon=eps).iterations for eps in (1e-1, 1e-4, 1e-10)
    ]
    assert iters[0] <= iters[1] <= iters[2]
    rels = [
        cg_solve(prec, b, epsilon=eps).relative_residual for eps in (1e-1, 1e-4, 1e-10)
    ]
    assert rels[0] >= rels[1] >= rels[2]


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 5000), eps=st.floats(1e-10, 1e-1))
def test_residual_contract_property(seed, eps):
    """The recomputed relative residual honors the threshold on success."""
    prec, q = _spd_precision(seed, 9)
    b = np.random.default_rng(seed + 1).standard_normal(9)
    out = cg_solve(prec, b, epsilon=eps)
    # recursive and recomputed residuals can disagree only near machine eps
    assert out.relative_residual <= eps * (1 + 1e-6) + 1e-12


def test_determinism():
    prec, _ = _spd_precision(9, 15)
    b = np.random.default_rng(10).standard_normal(15)
    out1 = cg_solve(prec, b, epsilon=1e-8)
    out2 = cg_solve(prec, b, epsilon=1e-8)
    assert np.array_equal(out1.solution, out2.solution)
    assert out1.iterations == out2.iterations


def test_max_iters_caps_work():
    prec, _ = _spd_precision(11, 40)
    b = np.random.default_rng(12).standard_normal(40)
    out = cg_solve(prec, b, epsilon=1e-14, max_iters=3)
    assert out.iterations == 3
    assert not out.converged


def test_converged_flag_reports_the_stopping_test():
    prec, q = _spd_precision(15, 20)
    b = np.random.default_rng(16).standard_normal(20)
    assert cg_solve(prec, b, epsilon=1e-10).converged
    # the stopping test passes at initialization, with no iteration run
    solved = cg_solve(prec, b, x0=np.linalg.solve(q, b), epsilon=1e-6)
    assert solved.converged and solved.iterations == 0
    assert cg_solve(prec, np.zeros(20), epsilon=1e-10).converged
    # the cap is reached exactly as the test passes: still converged
    needed = cg_solve(prec, b, epsilon=1e-4).iterations
    assert cg_solve(prec, b, epsilon=1e-4, max_iters=needed).converged
    assert not cg_solve(prec, b, epsilon=1e-4, max_iters=needed - 1).converged


def test_preconditioned_solve_matches_dense_solve():
    prec, q = _spd_precision(17, 25)
    a = np.random.default_rng(18).standard_normal((25, 25))
    m_inv = a @ a.T + np.eye(25)  # an SPD preconditioner unrelated to Q
    b = np.random.default_rng(19).standard_normal(25)
    out = cg_solve(prec, b, epsilon=1e-13, precondition=lambda r: m_inv @ r)
    assert out.converged
    assert np.allclose(out.solution, np.linalg.solve(q, b), atol=1e-9)
    assert np.allclose(out.residual_vector, b - q @ out.solution, atol=1e-10)
    assert out.relative_residual <= 1e-12


def test_exact_inverse_preconditioner_converges_in_one_iteration():
    prec, q = _spd_precision(20, 30)
    b = np.random.default_rng(21).standard_normal(30)
    q_inv = np.linalg.inv(q)
    out = cg_solve(prec, b, epsilon=1e-10, precondition=lambda r: q_inv @ r)
    assert out.iterations == 1 and out.converged
    assert cg_solve(prec, b, epsilon=1e-10).iterations > 1


@pytest.mark.parametrize("bad", [
    lambda r: -r,
    lambda r: np.zeros_like(r),
    lambda r: np.full_like(r, np.nan),
    lambda r: np.where(np.arange(r.size) == 0, np.inf, r),
], ids=["negative_definite", "zero", "nan", "inf"])
def test_preconditioner_that_is_not_positive_breaks_down(bad):
    prec, _ = _spd_precision(22, 6)
    b = np.random.default_rng(23).standard_normal(6)
    with pytest.raises(NumericalBreakdownError, match="preconditioner.* at CG iteration 0$"):
        cg_solve(prec, b, epsilon=1e-10, precondition=bad)


def test_preconditioner_breakdown_reports_its_iteration():
    prec, _ = _spd_precision(24, 6)
    b = np.random.default_rng(25).standard_normal(6)
    calls = []

    def fails_on_third_call(r):
        calls.append(1)
        return r if len(calls) < 3 else -r

    with pytest.raises(NumericalBreakdownError, match="preconditioner.* at CG iteration 2$"):
        cg_solve(prec, b, epsilon=1e-10, precondition=fails_on_third_call)


def test_indefinite_matrix_breaks_down():
    indefinite = np.diag([1.0, -2.0, 3.0])

    class FakePrecision:
        dim = 3

        def apply(self, v):
            return indefinite @ v

    b = np.array([0.1, 1.0, 0.2])
    with pytest.raises(NumericalBreakdownError, match=r"at CG iteration \d+$"):
        cg_solve(FakePrecision(), b, epsilon=1e-12)


@pytest.mark.parametrize("fault, message", [
    (lambda qv: -qv, r"^nonpositive or non-finite curvature p\^tQp = -\S+ at CG iteration 2$"),
    (lambda qv: np.full_like(qv, np.nan),
     r"^nonpositive or non-finite curvature p\^tQp = nan at CG iteration 2$"),
    (lambda qv: np.where(np.arange(qv.size) == 3, 1e300, qv),
     r"^non-finite residual at CG iteration 2$"),
], ids=["nonpositive_curvature", "nan_curvature", "overflowing_residual"])
def test_breakdown_after_the_first_iteration_reports_it(fault, message):
    """Q = diag(1, 2, 3, 1) whose second apply is faulty.  b is zero on the
    last coordinate, so p is too and a huge Qp entry there leaves p^t Qp
    finite while r^t r overflows."""
    diagonal = np.array([1.0, 2.0, 3.0, 1.0])
    calls = []

    def apply(v):
        calls.append(1)
        return fault(diagonal * v) if len(calls) == 2 else diagonal * v

    with np.errstate(over="ignore"), pytest.raises(NumericalBreakdownError, match=message):
        cg_solve(SimpleNamespace(apply=apply), np.array([1.0, 1.0, 1.0, 0.0]), epsilon=1e-12)


def test_operator_that_returns_its_input_solves_in_one_iteration():
    """Identity Q whose apply returns p itself: one iteration with step 1,
    from zero to x = b exactly.  With a diagonal Q, no vector that apply
    returned is written afterwards."""
    stream = RngStream(29)
    b, x0 = stream.standard_normal_vector(9), stream.standard_normal_vector(9)
    for start in (None, x0):
        out = cg_solve(SimpleNamespace(apply=lambda v: v), b, x0=start, epsilon=1e-12)
        assert out.iterations == 1 and out.converged
        assert start is not None or np.array_equal(out.solution, b)
        assert out.relative_residual <= 1e-15
    diagonal, returned = np.geomspace(1.0, 50.0, 9), []

    def apply(v):
        qv = diagonal * v
        returned.append((qv, qv.copy()))
        return qv

    out = cg_solve(SimpleNamespace(apply=apply), b, x0=x0, epsilon=1e-10)
    assert out.converged and out.iterations > 1
    assert all(np.array_equal(qv, kept) for qv, kept in returned)


def test_nonfinite_rhs_breaks_down():
    prec, _ = _spd_precision(13, 4)
    with pytest.raises(NumericalBreakdownError):
        cg_solve(prec, np.array([1.0, np.nan, 0.0, 2.0]), epsilon=1e-8)


def test_finite_rhs_whose_norm_overflows_breaks_down():
    """b = 1e160 in each of 6 entries is finite, but b^t b overflows: the
    solve raises at iteration 0, in the eigenbasis and without it, from
    zero and from an x0, where ||b|| = inf would make every relative
    residual NaN or 0 and the solve pass for converged."""
    prec, _ = _spd_precision(32, 6)
    b, x0 = np.full(6, 1e160), np.ones(6)
    message = r"^non-finite \|\|b\|\| = inf at CG iteration 0$"
    for precision in (prec, oracles.TwoProductFactor(prec.matrix)):
        for start in (None, x0):
            with np.errstate(over="ignore"), pytest.raises(NumericalBreakdownError, match=message):
                cg_solve(precision, b, x0=start, epsilon=1e-8)


def test_initial_residual_checks_keep_their_order():
    """The entry checks raise in the same order with and without the
    eigenbasis: an x0 holding NaN or inf, and a b holding inf, whose
    ||b|| overflows too, give the non-finite initial residual; a finite r
    whose r^t r overflows passes that check, so b = 1e160 from zero reaches
    the ||b|| message, and a finite b from x0 = 1e160 reaches the loop,
    which refuses its curvature at iteration 1."""
    prec, _ = _spd_precision(33, 6)
    b = np.random.default_rng(34).standard_normal(6)
    residual = r"^non-finite initial residual at CG iteration 0$"
    for precision in (prec, oracles.TwoProductFactor(prec.matrix)):
        for bad in (np.nan, np.inf, -np.inf):
            x0 = np.ones(6)
            x0[2] = bad
            with np.errstate(invalid="ignore"), pytest.raises(NumericalBreakdownError,
                                                              match=residual):
                cg_solve(precision, b, x0=x0, epsilon=1e-8)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalBreakdownError, match=residual):
            cg_solve(precision, np.array([1.0, np.inf, 0.0, 2.0, 1.0, 1.0]), epsilon=1e-8)
        with np.errstate(over="ignore"), pytest.raises(
                NumericalBreakdownError, match=r"^non-finite \|\|b\|\| = inf at CG iteration 0$"):
            cg_solve(precision, np.full(6, 1e160), epsilon=1e-8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalBreakdownError,
                match=r"^nonpositive or non-finite curvature p\^tQp = .* at CG iteration 1$"):
            cg_solve(precision, b, x0=np.full(6, 1e160), epsilon=1e-8)


def _grouped_rotation():
    """An operator whose rotation is the identity and whose Lambda has 1000
    coordinates on 7 distinct eigenvalues, with a right-hand side that is
    zero on one of them."""
    rng = np.random.default_rng(26)
    group = rng.integers(0, 7, 1000)
    eigenvalues = np.geomspace(1.0, 30.0, 7)[group]
    b = rng.standard_normal(1000)
    b[group == 3] = 0.0
    rotation = Eigenbasis(eigenvalues, enter=np.copy, leave=lambda v: v)
    return SimpleNamespace(rotation=rotation), eigenvalues, b


def test_rotated_solve_runs_on_the_distinct_eigenvalues():
    """Through a rotation CG iterates once per distinct eigenvalue, so 7
    values take at most 8 iterations at eps 1e-12 (rounding may add one),
    from zero and from a random x0, and reach b / lambda to 1e-12 relative;
    a group with no right-hand side from zero stays at 0.  Truncated at eps
    0.3, its iterations and, to 1e-12, its solution are those of plain CG
    on the same Lambda without the rotation."""
    rotated, eigenvalues, b = _grouped_rotation()
    exact = b / eigenvalues
    x0 = np.random.default_rng(27).standard_normal(b.size)
    for start in (None, x0):
        out = cg_solve(rotated, b, x0=start, epsilon=1e-12)
        assert out.converged and out.iterations <= 8
        assert np.all(np.isfinite(out.solution))
        assert np.max(np.abs(out.solution - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.array_equal(out.residual_vector, b - eigenvalues * out.solution)
        assert start is not None or not np.any(out.solution[b == 0.0])
        plain = cg_solve(rotated.rotation, b, x0=start, epsilon=0.3)
        loose = cg_solve(rotated, b, x0=start, epsilon=0.3)
        assert loose.iterations == plain.iterations < out.iterations
        assert np.max(np.abs(loose.solution - plain.solution)) <= 1e-12 * np.max(np.abs(exact))


def test_rotated_solve_of_a_zero_rhs_returns_the_start_point():
    rotated, _, b = _grouped_rotation()
    x0 = np.random.default_rng(28).standard_normal(b.size)
    out = cg_solve(rotated, np.zeros(b.size), x0=x0, epsilon=1e-8)
    assert out.iterations == 0 and out.relative_residual == 0.0
    assert np.array_equal(out.solution, x0)


def test_rotated_solve_of_a_nonfinite_rhs_breaks_down():
    rotated, _, b = _grouped_rotation()
    b[5] = np.nan
    with pytest.raises(NumericalBreakdownError,
                       match="^non-finite initial residual at CG iteration 0$"):
        cg_solve(rotated, b, epsilon=1e-8)


def _dense_cases():
    """(name, dense precision, its rotation-free copy, Q) for the AR(1) N =
    128 target and a random SPD N = 12 one."""
    ar1, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(1))
    hidden = oracles.with_two_product_factor(ar1).precision
    prec, q = _spd_precision(30, 12)
    return [("ar1", ar1.precision, hidden, oracles.dense_precision(hidden)),
            ("spd12", prec, oracles.TwoProductFactor(prec.matrix), q)]


def test_dense_rotation_diagonalises_q():
    """A dense factor's rotation is Q's eigenbasis: U U^t = I and
    U Q U^t = diag(eigenvalues) to 1e-13 relative, the eigenvalues
    ascending and positive.  A multiple of I has one eigenvalue, so a plain
    solve against it takes one iteration."""
    for name, precision, _, q in _dense_cases():
        rotation = precision.rotation
        u = oracles.dense_matrix_of(rotation.enter, q.shape[0])
        assert np.array_equal(u.T, oracles.dense_matrix_of(rotation.leave, q.shape[0])), name
        assert np.max(np.abs(u @ u.T - np.eye(q.shape[0]))) <= 1e-13, name
        values = rotation.values
        assert np.all(values > 0) and np.all(np.diff(values) >= 0), name
        assert np.max(np.abs(u @ q @ u.T - np.diag(values))) <= 1e-13 * values[-1], name
    scaled = oracles.target_from_dense(np.eye(3) * 2.0, np.ones(3)).precision
    assert scaled.rotation is not None
    assert cg_solve(scaled, np.array([1.0, -2.0, 0.5]), epsilon=1e-12).iterations == 1


@pytest.mark.parametrize("eps", [1e-3, 1e-10])
def test_dense_rotated_solve_matches_plain_cg(eps):
    """Plain solves through a dense factor's eigenbasis match plain CG on
    the same Q with the rotation hidden, from zero and from an x0: equal
    iterations on AR(1), solutions within 1e-10 relative, and the returned
    residual is b - Q x to 1e-10.  Neither solve writes b or x0."""
    stream = RngStream(4)
    for name, precision, hidden, q in _dense_cases():
        b = stream.standard_normal_vector(q.shape[0])
        for x0 in (None, stream.standard_normal_vector(q.shape[0])):
            given = b.copy(), None if x0 is None else x0.copy()
            out = cg_solve(precision, b, x0=x0, epsilon=eps)
            plain = cg_solve(hidden, b, x0=x0, epsilon=eps)
            assert np.array_equal(b, given[0]) and (x0 is None or np.array_equal(x0, given[1]))
            assert out.converged and out.relative_residual <= 2 * eps, (name, eps)
            assert name != "ar1" or out.iterations == plain.iterations, (name, eps)
            scale = np.linalg.norm(plain.solution)
            assert np.linalg.norm(out.solution - plain.solution) <= 1e-10 * scale, (name, eps)
            expected = b - q @ out.solution
            assert np.linalg.norm(out.residual_vector - expected) <= 1e-10 * np.linalg.norm(b)


def test_singular_dense_gram_keeps_its_outcome():
    """A wide 3 x 5 factor has a singular Gram.  With the rotation hidden,
    a right-hand side in its range converges in 3 iterations and a generic
    one breaks down on its curvature.  The dense factor refuses to build
    its eigenbasis, where CG would solve only the part of b in the range,
    for both."""
    rng = np.random.default_rng(31)
    m = rng.standard_normal((3, 5))
    in_range, generic = m.T @ rng.standard_normal(3), rng.standard_normal(5)
    hidden = oracles.TwoProductFactor(m)
    assert cg_solve(hidden, in_range, epsilon=1e-10).iterations == 3
    with pytest.raises(NumericalBreakdownError, match="nonpositive or non-finite curvature"):
        cg_solve(hidden, generic, epsilon=1e-10)
    for b in (in_range, generic):
        with pytest.raises(NumericalBreakdownError, match="^dense factor's Gram M\\^t M is singular"):
            cg_solve(DenseOperator(m), b, epsilon=1e-10)


def _sr64_conditional():
    model = sr.make_model((64, 64))
    obs = sr.synthesize(model, sr.phantom((64, 64)), RngStream(2))
    return sr.conditional_target(model, model.half_spectrum.back_project(obs), 11.6, 962.0)


@pytest.mark.parametrize("case", ["dense", "sr64", "sr64_preconditioned"])
def test_q_applies_per_solve(monkeypatch, case):
    """A solve of J iterations makes J + 1 Q-applies from the zero start
    (Q 0 is never formed) and J + 2 from a given x0, plain or preconditioned
    by the conditional's P^-1; skipping Q 0 leaves the solve bitwise equal
    to one started from an explicit zero vector."""
    if case == "dense":
        target, _, _ = ar1_target(64, 1.0, 0.8, stream=RngStream(1))
    else:
        target = _sr64_conditional()
    stream = RngStream(3)
    eta = perturb(target, stream)
    start = stream.standard_normal_vector(target.dim)
    precision = target.precision
    precondition = precision.preconditioner if case == "sr64_preconditioned" else None
    applies = []
    apply = FactoredPrecision.apply

    def counted(self, v):
        applies.append(1)
        return apply(self, v)

    monkeypatch.setattr(FactoredPrecision, "apply", counted)
    solutions = []
    for x0, extra in ((None, 1), (start, 2), (np.zeros(target.dim), 2)):
        applies.clear()
        out = cg_solve(precision, eta, x0=x0, epsilon=1e-3, precondition=precondition)
        assert out.iterations >= 1
        assert len(applies) == out.iterations + extra, (x0 is None, out.iterations)
        solutions.append(out.solution)
    assert np.array_equal(solutions[0], solutions[2])


@pytest.fixture(scope="module")
def bitwise_cases():
    """name -> (precision, precondition): AR(1) N = 128 through its
    eigenbasis and through M^t (M v) with no rotation, and the 64 x 64
    conditional through its PairRotation and preconditioned by its P^-1."""
    ar1, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(1))
    conditional = _sr64_conditional().precision
    return {"ar1_eigenbasis": (ar1.precision, None),
            "ar1_two_product": (oracles.with_two_product_factor(ar1).precision, None),
            "sr64_eigenbasis": (conditional, None),
            "sr64_preconditioned": (conditional, conditional.preconditioner)}


@pytest.mark.parametrize("limits", [{"epsilon": 1e-1}, {"epsilon": 1e-3}, {"epsilon": 1e-8},
                                    {"epsilon": 0.0, "max_iters": 5}],
                         ids=["eps1e-1", "eps1e-3", "eps1e-8", "cap"])
@pytest.mark.parametrize("case", ["ar1_eigenbasis", "ar1_two_product", "sr64_eigenbasis",
                                  "sr64_preconditioned"])
def test_loop_is_bitwise_the_textbook_loop(monkeypatch, bitwise_cases, case, limits):
    """The in-place CG loop returns, bit for bit, what the textbook loop
    (oracles.textbook_cg_iterate) returns, from zero and from an x0:
    iterations, the stopping flag, the relative residual, the solution and
    the residual vector."""
    precision, precondition = bitwise_cases[case]
    stream = RngStream(5)
    b = stream.standard_normal_vector(precision.in_dim)
    for x0 in (None, stream.standard_normal_vector(precision.in_dim)):
        out = cg_solve(precision, b, x0=x0, precondition=precondition, **limits)
        with monkeypatch.context() as patched:
            patched.setattr(rjpo.cg, "_iterate", oracles.textbook_cg_iterate)
            reference = cg_solve(precision, b, x0=x0, precondition=precondition, **limits)
        assert reference.iterations >= 1
        assert reference.converged == ("max_iters" not in limits)
        assert (out.iterations, out.converged) == (reference.iterations, reference.converged)
        assert out.relative_residual == reference.relative_residual
        assert np.array_equal(out.solution, reference.solution)
        assert np.array_equal(out.residual_vector, reference.residual_vector)


def test_parameter_validation():
    prec, _ = _spd_precision(14, 4)
    b = np.ones(4)
    with pytest.raises(ConfigurationError):
        cg_solve(prec, b, epsilon=-1e-3)
    for nonfinite in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            cg_solve(prec, b, epsilon=nonfinite)
    with pytest.raises(ConfigurationError):
        cg_solve(prec, b, max_iters=0)
    with pytest.raises(ConfigurationError):
        cg_solve(prec, b, x0=np.ones(5))
