import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_matrix_of, naive_circular_convolve
from rjpo.errors import ConfigurationError
from rjpo.linop import (
    CirculantOperator,
    ComposedOperator,
    DecimationOperator,
    DenseOperator,
    FactoredPrecision,
    GaussianTarget,
    StackedFactor,
    target_from_dense,
    to_dense,
)
from rjpo.problems import ar1_target
from rjpo.rng import RngStream


def _random_ops(seed):
    """A small zoo of operators for property tests."""
    rng = np.random.default_rng(seed)
    dims = (4, 6)
    kernel = rng.standard_normal((3, 3))
    return [
        DenseOperator(rng.standard_normal((5, 7))),
        CirculantOperator(kernel, dims, origin=(1, 1)),
        DecimationOperator(dims, 2, offset=(1, 0)),
        ComposedOperator(DecimationOperator(dims, 2), CirculantOperator(kernel, dims)),
        StackedFactor(
            [(2.0, CirculantOperator(kernel, dims)), (0.5, DecimationOperator(dims, 2))]
        ),
    ]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_adjointness(seed):
    # <Mv, w> == <v, M^t w> for every operator kind
    rng = np.random.default_rng(seed + 1)
    for op in _random_ops(seed):
        v = rng.standard_normal(op.in_dim)
        w = rng.standard_normal(op.out_dim)
        assert op.apply(v) @ w == pytest.approx(v @ op.apply_transpose(w), abs=1e-10)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_linearity(seed):
    rng = np.random.default_rng(seed + 2)
    for op in _random_ops(seed):
        v1, v2 = rng.standard_normal((2, op.in_dim))
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * v1 + b * v2)
        rhs = a * op.apply(v1) + b * op.apply(v2)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_circulant_matches_naive_convolution():
    rng = np.random.default_rng(3)
    image = rng.standard_normal((5, 4))
    kernel = rng.standard_normal((3, 3))
    op = CirculantOperator(kernel, (5, 4), origin=(1, 1))
    expected = naive_circular_convolve(image, kernel, (1, 1))
    assert np.allclose(op.apply(image.ravel()), expected.ravel(), atol=1e-12)


def test_circulant_delta_kernel_is_identity():
    op = CirculantOperator(np.array([[1.0]]), (6, 6))
    v = np.arange(36.0)
    assert np.allclose(op.apply(v), v, atol=1e-12)


def test_circulant_kernel_too_large():
    with pytest.raises(ConfigurationError):
        CirculantOperator(np.ones((5, 5)) / 25, (4, 4))


def test_decimation_selects_sublattice():
    op = DecimationOperator((4, 4), 2, offset=(1, 1))
    image = np.arange(16.0).reshape(4, 4)
    assert np.allclose(op.apply(image.ravel()), [5.0, 7.0, 13.0, 15.0])
    # transpose scatters back with zeros elsewhere
    back = op.apply_transpose(np.array([1.0, 2.0, 3.0, 4.0])).reshape(4, 4)
    assert back[1, 1] == 1.0 and back[3, 3] == 4.0
    assert back.sum() == 10.0


def test_decimation_validation():
    with pytest.raises(ConfigurationError):
        DecimationOperator((4, 4), 3)
    with pytest.raises(ConfigurationError):
        DecimationOperator((4, 4), 2, offset=(2, 0))
    with pytest.raises(ConfigurationError):
        DecimationOperator((4, 4), 0)


def test_stacked_gram_is_weighted_sum():
    rng = np.random.default_rng(4)
    f1 = DenseOperator(rng.standard_normal((3, 4)))
    f2 = DenseOperator(rng.standard_normal((5, 4)))
    stack = StackedFactor([(2.5, f1), (0.3, f2)])
    gram = dense_matrix_of(FactoredPrecision(stack).apply, 4)
    expected = 2.5 * f1.matrix.T @ f1.matrix + 0.3 * f2.matrix.T @ f2.matrix
    assert np.allclose(gram, expected, atol=1e-12)
    assert np.allclose(gram, gram.T, atol=1e-12)


def test_stacked_validation():
    with pytest.raises(ConfigurationError):
        StackedFactor([])
    op = DenseOperator(np.eye(3))
    with pytest.raises(ConfigurationError):
        StackedFactor([(0.0, op)])
    with pytest.raises(ConfigurationError):
        StackedFactor([(1.0, op), (1.0, DenseOperator(np.eye(4)))])


def test_composed_equals_product():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 5))
    b = rng.standard_normal((5, 4))
    comp = ComposedOperator(DenseOperator(a), DenseOperator(b))
    assert np.allclose(to_dense(comp), a @ b, atol=1e-12)


def test_composed_dim_mismatch():
    with pytest.raises(ConfigurationError):
        ComposedOperator(DenseOperator(np.eye(3)), DenseOperator(np.eye(4)))


def test_apply_shape_validation():
    op = DenseOperator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        op.apply(np.ones(4))
    with pytest.raises(ValueError):
        op.apply_transpose(np.ones(3))


def test_to_dense_matches_oracle():
    rng = np.random.default_rng(6)
    op = CirculantOperator(rng.standard_normal((2, 2)), (3, 3))
    assert np.allclose(to_dense(op), dense_matrix_of(op.apply, 9), atol=1e-12)


def test_target_from_dense_mirror_consistency():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    q = a @ a.T + 6 * np.eye(6)
    mu = rng.standard_normal(6)
    target = target_from_dense(q, mu)
    assert target.dim == 6
    assert target.has_mirror
    # factored path Q v agrees with the dense mirror
    v = rng.standard_normal(6)
    assert np.allclose(target.precision.apply(v), q @ v, atol=1e-10)
    assert np.allclose(target.potential, q @ mu, atol=1e-12)
    # mirror solve inverts Q
    assert np.allclose(target.mirror_solve(q @ v), v, atol=1e-9)


def test_mirror_solve_is_accurate_at_benchmark_size():
    """The cached-inverse solve agrees with a dense LU solve at N = 128."""
    target, _, _ = ar1_target(128, 1.0, 0.8, mean=np.linspace(0.0, 10.0, 128))
    b = np.random.default_rng(9).standard_normal(128)
    for _ in range(2):  # first call builds the inverse, second reuses it
        x = target.mirror_solve(b)
        residual = np.linalg.norm(b - target.dense_q @ x) / np.linalg.norm(b)
        assert residual < 1e-13
        reference = np.linalg.solve(target.dense_q, b)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_gaussian_target_validation():
    rng = np.random.default_rng(8)
    q = np.eye(3)
    with pytest.raises(ConfigurationError):
        GaussianTarget(FactoredPrecision(DenseOperator(np.eye(3))), np.ones(4))
    target = GaussianTarget(FactoredPrecision(DenseOperator(np.eye(3))), np.ones(3))
    assert not target.has_mirror
    with pytest.raises(ConfigurationError):
        target.mirror_cholesky()


def test_dense_operator_validation():
    with pytest.raises(ConfigurationError):
        DenseOperator(np.ones(3))
    with pytest.raises(ConfigurationError):
        DenseOperator(np.array([[np.inf, 1.0], [0.0, 1.0]]))
