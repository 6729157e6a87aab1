import math
import tracemalloc

import numpy as np
import pytest

from oracles import ar1_covariance_direct, ar1_precision, target_from_dense
from rjpo.errors import ConfigurationError
from rjpo.problems import ar1_covariance, ar1_target
from rjpo.rng import RngStream

# (n, sigma2, rho): the scalar case, the two-corner case, a negative rho,
# rho near 1, the benchmark size, and a nearly singular precision.
AR1_CASES = ((1, 1.0, 0.8), (2, 1.0, 0.5), (20, 1.3, -0.4), (50, 2.0, 0.95),
             (128, 1.0, 0.8), (16, 1.0, 0.999))


def _relative(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_covariance_matches_direct_formula():
    """The windowed Toeplitz copy is bitwise the direct rho^|i-j| formula."""
    for n, sigma2, rho in ((7, 2.5, 0.6), *AR1_CASES):
        r = ar1_covariance(n, sigma2, rho)
        assert np.array_equal(r, ar1_covariance_direct(n, sigma2, rho))


def test_precision_inverts_covariance():
    for n, sigma2, rho in AR1_CASES:
        r = ar1_covariance(n, sigma2, rho)
        q = ar1_precision(n, sigma2, rho)
        assert np.allclose(r @ q, np.eye(n), atol=1e-9)


def test_precision_is_tridiagonal():
    """The target's factor is L^t for L lower bidiagonal with a positive
    diagonal, so its precision L L^t is tridiagonal."""
    for n, sigma2, rho in AR1_CASES:
        low = ar1_target(n, sigma2, rho, stream=RngStream(3))[0].precision.matrix.T
        assert np.array_equal(low, np.triu(np.tril(low), -1))
        assert np.all(np.diag(low) > 0)


def test_rho_zero_gives_scaled_identity():
    assert np.allclose(ar1_covariance(5, 2.0, 0.0), 2.0 * np.eye(5), atol=1e-15)
    target, _, _ = ar1_target(5, 2.0, 0.0, stream=RngStream(3))
    assert np.allclose(target.precision.matrix, np.eye(5) / math.sqrt(2.0), atol=1e-15)


def test_target_carries_consistent_pieces():
    """The closed-form L multiplies out to the AR(1) precision within a few
    ulps, is LAPACK's Cholesky factor of it within 1e-14 (LAPACK's recursion
    rounds more as rho nears 1), and the potential is Q mu."""
    for n, sigma2, rho in AR1_CASES:
        target, mu, cov = ar1_target(n, sigma2, rho, stream=RngStream(3))
        assert mu.shape == (n,)
        assert np.all((0 <= mu) & (mu <= 10))
        assert np.array_equal(cov, ar1_covariance(n, sigma2, rho))
        q = ar1_precision(n, sigma2, rho)
        low = target.precision.matrix.T
        assert _relative(low @ low.T, q) <= 4 * np.finfo(float).eps
        assert _relative(low, np.linalg.cholesky(q)) <= 1e-14
        assert _relative(target.potential, q @ mu) <= 1e-14


def test_ar1_target_factorises_nothing(monkeypatch):
    """Building the N = 128 target calls no np.linalg routine, and its
    traced peak exceeds what it returns by less than one N x N array."""
    def refuse(*args, **kwargs):
        raise AssertionError("ar1_target called np.linalg")

    for name in ("cholesky", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    ar1_target(128, 1.0, 0.8, stream=RngStream(5))  # first call's imports and caches
    stream = RngStream(5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        built = ar1_target(128, 1.0, 0.8, stream=stream)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before >= 2 * 128 * 128 * 8  # L and the covariance
    assert peak - held < 128 * 128 * 8
    assert built[0].precision.matrix.shape == (128, 128)


def test_target_accepts_fixed_mean():
    """target_from_dense on the AR(1) precision takes a fixed mean; its
    closed-form Q^-1 of the potential L (L^t mu) gives the mean back."""
    mean = np.linspace(0.0, 1.0, 6)
    target = target_from_dense(ar1_precision(6, 1.0, 0.5), mean)
    assert np.allclose(target.precision.inverse(target.potential), mean, atol=1e-12)


def test_validation():
    with pytest.raises(ConfigurationError):
        ar1_covariance(0, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        ar1_covariance(4, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        ar1_covariance(4, -1.0, 0.5)
    for sigma2 in (math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            ar1_target(4, sigma2, 0.5, stream=RngStream(0))
    with pytest.raises(ConfigurationError):
        ar1_target(4, 1.0, -1.0, stream=RngStream(0))
