"""The linear maps: the dense factor, the circulant transfer functions and
frame gather/scatter of the super-resolution model, and factored targets."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ConditionalFactor, ar1_precision, naive_circular_convolve, target_from_dense,
)
import rjpo.sampler
from rjpo.cg import cg_solve
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.linop import DenseOperator, Diagonal, Eigenbasis, FactoredPrecision, GaussianTarget
from rjpo.problems import ar1_target
from rjpo.rng import RngStream
from rjpo.sampler import EXACT_EPSILON, epo_step, perturb, rjpo_step
from rjpo.superres import PairRotation, SpectralConditional, SuperResModel, centred_transfer


class FrameSampling:
    """A model's frame geometry as an operator: gather, its transpose
    scatter, and the Gram C v read from the model's frame counts."""

    def __init__(self, model):
        self.model = model
        self.in_dim, self.out_dim = model.pixel_count, model.data_count

    def forward(self, v):
        return self.model.gather(v)

    def apply_transpose(self, w):
        return self.model.scatter(w).ravel()

    def gram(self, v):
        return self.model.counts.ravel() * v


class DenseMap(DenseOperator):
    """A dense factor with the forward map v -> Mv that these properties
    compare against; the package's dense factor needs only M^t and M^t M."""

    def forward(self, v):
        return self.matrix @ v


def _random_ops(seed):
    """A small zoo of operators for property tests."""
    rng = np.random.default_rng(seed)
    psf = rng.random((3, 3))
    psf /= psf.sum()
    gamma_y, gamma_x = rng.uniform(0.1, 10.0, 2)
    return [
        DenseMap(rng.standard_normal((5, 7))),
        # six frames cycle through the four phases of factor 2, so two
        # pixels in four are sampled twice; eleven through the nine of
        # factor 3 sample two phases twice
        FrameSampling(SuperResModel((4, 6), 6, 2, psf)),
        FrameSampling(SuperResModel((6, 9), 11, 3, psf)),
        # the conditional's fused factor, on an even and an odd-column grid,
        # each with an asymmetric blur kernel
        ConditionalFactor(SuperResModel((4, 6), 3, 2, psf), gamma_y, gamma_x),
        ConditionalFactor(SuperResModel((6, 9), 4, 3, psf), gamma_y, gamma_x),
    ]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_adjointness(seed):
    # <Mv, w> == <v, M^t w> for every operator kind
    rng = np.random.default_rng(seed + 1)
    for op in _random_ops(seed):
        v = rng.standard_normal(op.in_dim)
        w = rng.standard_normal(op.out_dim)
        assert op.forward(v) @ w == pytest.approx(v @ op.apply_transpose(w), abs=1e-10)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_linearity(seed):
    rng = np.random.default_rng(seed + 2)
    for op in _random_ops(seed):
        v1, v2 = rng.standard_normal((2, op.in_dim))
        a, b = rng.standard_normal(2)
        lhs = op.forward(a * v1 + b * v2)
        rhs = a * op.forward(v1) + b * op.forward(v2)
        assert np.allclose(lhs, rhs, atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_gram_is_transpose_of_apply(seed):
    # every operator's own Gram map agrees with M^t(Mv)
    rng = np.random.default_rng(seed + 3)
    for op in _random_ops(seed):
        v = rng.standard_normal(op.in_dim)
        assert np.allclose(op.gram(v), op.apply_transpose(op.forward(v)), rtol=1e-12, atol=1e-10)


@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5)])
def test_dense_gram_is_one_product_with_the_gram_matrix(shape):
    """A dense factor's Gram map is (M^t M) v, bitwise, for a square, a
    tall and a wide M, on the call that forms M^t M and on one that reuses it."""
    rng = np.random.default_rng(17)
    m = rng.standard_normal(shape)
    op = DenseOperator(m)
    for _ in range(2):
        v = rng.standard_normal(shape[1])
        assert np.array_equal(op.gram(v), (m.T @ m) @ v)


def test_dense_target_forms_its_gram_matrix_on_first_use():
    """Building a dense target forms no M^t M; its first Q-apply does."""
    target = target_from_dense(ar1_precision(128, 1.0, 0.8), np.linspace(0.0, 10.0, 128))
    factor = target.precision
    assert "_gram_matrix" not in vars(factor)
    target.precision.apply(np.ones(128))
    assert np.array_equal(vars(factor)["_gram_matrix"], factor.matrix.T @ factor.matrix)


def _count_decompositions(monkeypatch):
    """Patch np.linalg.eigh, np.unique and np.linalg.inv to record each
    call, an eigh or inv by its matrix's shape; return the record."""
    calls = []
    eigh, unique, inv = np.linalg.eigh, np.unique, np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    def counted_unique(a, **kwargs):
        calls.append(("unique", a.size))
        return unique(a, **kwargs)

    def counted_inv(a):
        calls.append(("inv", a.shape))
        return inv(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    return calls


def _builds_one_rotation(monkeypatch, exact_first):
    """Building a dense target (ar1_target, target_from_dense) builds no
    rotation, and nothing in it calls np.linalg.eigh, np.unique or
    np.linalg.inv.  Exact draws (epo) and plain CG solves (a solve from
    zero, then rjpo draws, warm-started) then alternate, an exact draw
    first or a plain solve first: the first of either builds the
    rotation with one np.linalg.eigh and one grouping of its distinct
    eigenvalues (np.unique), every later one reuses it, and each exact draw
    runs no CG."""
    calls = _count_decompositions(monkeypatch)
    built, _, _ = ar1_target(128, stream=RngStream(1))
    copied = target_from_dense(ar1_precision(128, 1.0, 0.8), np.linspace(0.0, 10.0, 128))
    assert calls == []
    b = np.random.default_rng(3).standard_normal(128)
    for target in (built, copied):
        assert "rotation" not in vars(target.precision)
        for exact in (exact_first, not exact_first, exact_first):
            if exact:
                for seed in (2, 3):
                    assert epo_step(target, RngStream(seed)).cg_iterations == 0
            else:
                cg_solve(target.precision, b, epsilon=1e-6)
                for seed in (2, 3):
                    rjpo_step(target, b, RngStream(seed), 1e-3)
            assert "rotation" in vars(target.precision)
        assert calls == [(128, 128), ("unique", 128)]
        calls.clear()


def test_dense_target_builds_its_rotation_on_the_first_plain_solve(monkeypatch):
    """A plain solve first: it builds the one rotation, which the exact
    draws' closed-form Q^-1 then reads (_builds_one_rotation)."""
    _builds_one_rotation(monkeypatch, exact_first=False)


def test_dense_target_builds_its_rotation_on_the_first_exact_draw(monkeypatch):
    """An exact draw first: its closed-form Q^-1 builds the one rotation,
    which the plain solves then reuse (_builds_one_rotation)."""
    _builds_one_rotation(monkeypatch, exact_first=True)


def test_pair_rotation_sorts_one_value_per_bin(monkeypatch):
    """Building the 64 x 64 two-frame conditional's PairRotation calls
    np.unique once, on its 64 x 33 bins' values and the 2 lone bins'
    second ones, 2114 of the 4224 coordinates; plain solves reuse it."""
    calls = []
    unique = np.unique

    def counted_unique(a, **kwargs):
        calls.append(("unique", a.size))
        return unique(a, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    model = SuperResModel(hi_res_dims=(64, 64), frames=2, decimation_factor=2,
                          psf_kernel=np.full((3, 3), 1.0 / 9.0))
    conditional = SpectralConditional(model.half_spectrum, 11.6, 962.0)
    b = np.random.default_rng(4).standard_normal(conditional.in_dim)
    for x0 in (None, -b):
        cg_solve(conditional, b, x0=x0, epsilon=1e-3)
    assert calls == [("unique", 2114)]
    assert conditional.rotation.values.size == 4224


@pytest.mark.parametrize("bad", [0.0, -1e-300, -2.0, np.inf, np.nan])
@pytest.mark.parametrize("owner", [None, np.array([0, 1, 2, 2, 1, 0])])
def test_eigenbasis_refuses_a_value_that_is_not_positive_and_finite(bad, owner):
    """Another basis handing a zero, negative, infinite or NaN eigenvalue,
    with or without ``owner``, is refused; the same basis with that value
    replaced by a positive one builds."""
    good = np.array([3.0, 0.5, 7.0])
    with pytest.raises(NumericalBreakdownError, match="^eigenbasis values must be positive"):
        Eigenbasis(np.array([3.0, bad, 7.0]), np.copy, np.copy, owner)
    basis = Eigenbasis(good, np.copy, np.copy, owner)
    assert basis.distinct.values.tolist() == [0.5, 3.0, 7.0]


def test_circulant_matches_naive_convolution():
    """Filtering by a centred kernel's transfer function is the circular
    convolution with the kernel's centre cell as origin."""
    rng = np.random.default_rng(3)
    image = rng.standard_normal((5, 4))
    kernel = rng.standard_normal((3, 3))
    transfer = centred_transfer(kernel, (5, 4))
    filtered = np.fft.irfft2(np.fft.rfft2(image) * transfer, s=(5, 4))
    expected = naive_circular_convolve(image, kernel, (1, 1))
    assert np.allclose(filtered, expected, atol=1e-12)


def test_circulant_delta_kernel_is_identity():
    """A delta kernel's transfer function is all ones: its circulant is the
    identity."""
    transfer = centred_transfer(np.array([[1.0]]), (6, 6))
    assert transfer.shape == (6, 4)
    assert np.array_equal(transfer, np.ones((6, 4)))


def test_circulant_kernel_too_large():
    with pytest.raises(ConfigurationError):
        centred_transfer(np.ones((5, 5)) / 25, (4, 4))
    with pytest.raises(ConfigurationError):
        centred_transfer(np.ones(3) / 3, (4, 4))


def test_apply_shape_validation():
    op = DenseOperator(np.ones((2, 3)))
    with pytest.raises(ValueError):
        op.apply_transpose(np.ones(3))
    with pytest.raises(ValueError):
        op.gram(np.ones(2))


def test_target_from_dense_mirror_consistency():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    q = a @ a.T + 6 * np.eye(6)
    mu = rng.standard_normal(6)
    target = target_from_dense(q, mu)
    assert target.dim == 6
    # factored path Q v agrees with the dense q
    v = rng.standard_normal(6)
    assert np.allclose(target.precision.apply(v), q @ v, atol=1e-10)
    assert np.allclose(target.potential, q @ mu, atol=1e-12)
    # the factor's closed-form Q^-1 inverts q
    assert np.allclose(target.precision.inverse(q @ v), v, atol=1e-9)


@pytest.mark.parametrize("q", [
    [[1.0, 5.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 2.0], [2.0, 1.0]],
])
def test_target_from_dense_refuses_a_precision_it_cannot_factor(q):
    """Cholesky reads only q's lower triangle, so [[1, 5], [0, 1]] would
    factor as Q = I and silently drop the 5; an indefinite q is a
    configuration error, not numpy's LinAlgError."""
    with pytest.raises(ConfigurationError):
        target_from_dense(np.array(q), np.ones(2))


def test_mirror_solve_is_accurate_at_benchmark_size():
    """The dense factor's closed-form Q^-1 (its ``inverse``, which
    GaussianTarget.mirror_solve applies) agrees with a dense LU solve at
    N = 128."""
    q = ar1_precision(128, 1.0, 0.8)
    target = target_from_dense(q, np.linspace(0.0, 10.0, 128))
    b = np.random.default_rng(9).standard_normal(128)
    for _ in range(2):  # first call builds the inverse, second reuses it
        x = target.precision.inverse(b)
        residual = np.linalg.norm(b - q @ x) / np.linalg.norm(b)
        assert residual < 1e-13
        reference = np.linalg.solve(q, b)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_dense_target_factorises_its_precision_once(monkeypatch):
    """The dense factor F = C^t holds the Cholesky factor C that
    target_from_dense took: building a target from the N = 128 AR(1)
    precision and one solve through its closed-form Q^-1 call
    np.linalg.cholesky once."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(a.shape)
        return cholesky(a)

    q = ar1_precision(128, 1.0, 0.8)
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    target = target_from_dense(q, np.linspace(0.0, 10.0, 128))
    low = target.precision.matrix.T
    target.precision.inverse(np.ones(128))
    assert calls == [(128, 128)]
    assert np.array_equal(low, cholesky(q))


def test_a_target_holds_its_factor_and_potential_alone(monkeypatch):
    """A target's settable fields are its factored precision and its
    potential, and no copy of Q or of its inverse is kept beside them; the
    dense factor forms its closed-form Q^-1 at its first exact draw from
    its eigenbasis, with one np.linalg.eigh of M^t M and no np.linalg.inv,
    and keeps both for the later draws."""
    assert [f.name for f in dataclasses.fields(GaussianTarget)] == ["precision", "potential"]
    target = target_from_dense(ar1_precision(16, 1.0, 0.8), np.ones(16))
    assert sorted(vars(target)) == ["potential", "precision"]
    calls = _count_decompositions(monkeypatch)
    factor = target.precision
    assert "inverse" not in vars(factor) and calls == []
    epo_step(target, RngStream(1))
    formed, rotation = vars(factor)["inverse"], vars(factor)["rotation"]
    epo_step(target, RngStream(2))
    assert vars(factor)["inverse"] is formed and vars(factor)["rotation"] is rotation
    assert calls == [(16, 16), ("unique", 16)]
    assert sorted(vars(target)) == ["potential", "precision"]


def test_dense_inverse_reads_the_eigenbasis():
    """On the AR(1) N = 128 factor F = L^t, the closed-form Q^-1 b is one
    product X b with X = (V Lambda^-1) V^t, formed from the factor's
    rotation: its eigenvectors V (read back as V I) and its values Lambda,
    bit for bit, the arithmetic of the exact draw."""
    factor = DenseOperator(ar1_target(128, stream=RngStream(1))[0].precision.matrix)
    inverse, rotation = factor.inverse, factor.rotation
    vectors = rotation.leave(np.eye(128))
    stored = (vectors / rotation.values) @ vectors.T
    for seed in range(3):
        b = np.random.default_rng(seed).standard_normal(128)
        assert np.array_equal(inverse(b), stored @ b)


@pytest.mark.parametrize("n, rho", [(128, 0.999), (20, 0.9999), (512, 0.99999), (128, 0.999999)])
def test_an_ill_conditioned_dense_draw_is_refined_once(monkeypatch, n, rho):
    """On AR(1) targets with kappa(Q) from about 2.5e5 (N = 128, rho =
    0.999) to 1e9 (N = 128, rho = 0.999999) the stored X = V Lambda^-1 V^t
    leaves every exact draw a residual of about u kappa(Q), above
    EXACT_EPSILON; the draw's one correction x + X r meets it with 0 CG
    iterations and no cg_solve call, so the exact draw needs no solver
    beyond its closed form.  X is formed once, at the first draw, from one
    np.linalg.eigh and one np.unique, and every later draw applies the same
    array."""
    target, _, _ = ar1_target(n, 1.0, rho, stream=RngStream(1))
    factor = target.precision
    calls = _count_decompositions(monkeypatch)

    def no_cg(*args, **kwargs):
        raise AssertionError("a closed-form exact draw called cg_solve")

    monkeypatch.setattr(rjpo.sampler, "cg_solve", no_cg)
    stored = None
    for seed in range(1, 6):
        out = epo_step(target, RngStream(seed))
        if stored is None:
            inverse = factor.inverse
            stored = inverse.__self__
        assert factor.inverse is inverse and factor.inverse.__self__ is stored
        eta = perturb(target, RngStream(seed))
        eta_norm = math.sqrt(eta @ eta)
        x = stored @ eta
        missed = eta - factor.apply(x)
        assert math.sqrt(missed @ missed) > EXACT_EPSILON * eta_norm
        refined = x + stored @ missed
        residual = eta - factor.apply(refined)
        assert out.cg_iterations == 0 and np.array_equal(out.next_sample, refined)
        assert out.relative_residual == math.sqrt(residual @ residual) / eta_norm <= EXACT_EPSILON
    assert calls == [(n, n), ("unique", n)]


def test_gaussian_target_validation():
    with pytest.raises(ConfigurationError):
        GaussianTarget(DenseOperator(np.eye(3)), np.ones(4))
    assert GaussianTarget(DenseOperator(np.eye(3)), np.ones(3)).dim == 3


def test_no_precision_overrides_apply():
    """Every precision subclasses FactoredPrecision and inherits its apply,
    v -> gram(v), so every Q-apply goes through that one method, the one
    that perfbench's linop.q_apply span and test_q_applies_per_solve patch
    to count.  With rjpo.superres imported, no subclass at any depth
    defines apply: one that did would apply Q uncounted."""
    subclasses, pending = set(), [FactoredPrecision]
    while pending:
        found = set(pending.pop().__subclasses__()) - subclasses
        subclasses |= found
        pending += found
    assert {DenseOperator, Diagonal, Eigenbasis, SpectralConditional, PairRotation} <= subclasses
    assert [cls.__qualname__ for cls in subclasses if "apply" in vars(cls)] == []


def test_dense_operator_validation():
    with pytest.raises(ConfigurationError):
        DenseOperator(np.ones(3))
    with pytest.raises(ConfigurationError):
        DenseOperator(np.array([[np.inf, 1.0], [0.0, 1.0]]))
