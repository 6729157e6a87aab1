import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_solve_cg_reference
from rjpo.cg import cg_solve
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.linop import DenseOperator, FactoredPrecision


def _spd_precision(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    q = a @ a.T + n * np.eye(n)
    return FactoredPrecision(DenseOperator(np.linalg.cholesky(q).T)), q


def test_two_by_two_hand_case():
    # Q = [[2,0],[0,4]], b = (2, 8): solution (1, 2); CG from zero converges
    # in at most 2 steps
    q = FactoredPrecision(DenseOperator(np.diag([np.sqrt(2.0), 2.0])))
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


def test_indefinite_matrix_breaks_down():
    indefinite = np.diag([1.0, -2.0, 3.0])

    class FakePrecision:
        dim = 3

        def apply(self, v):
            return indefinite @ v

    b = np.array([0.1, 1.0, 0.2])
    with pytest.raises(NumericalBreakdownError) as err:
        cg_solve(FakePrecision(), b, epsilon=1e-12)
    assert err.value.iteration is not None


def test_nonfinite_rhs_breaks_down():
    prec, _ = _spd_precision(13, 4)
    with pytest.raises(NumericalBreakdownError):
        cg_solve(prec, np.array([1.0, np.nan, 0.0, 2.0]), epsilon=1e-8)


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
