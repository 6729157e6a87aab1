import math

import numpy as np
import pytest

from oracles import ar1_covariance_direct
from rjpo.errors import ConfigurationError
from rjpo.linop import target_from_dense
from rjpo.problems import ar1_covariance, ar1_precision, ar1_target
from rjpo.rng import RngStream


def test_covariance_matches_direct_formula():
    r = ar1_covariance(7, sigma2=2.5, rho=0.6)
    assert np.allclose(r, ar1_covariance_direct(7, 2.5, 0.6), atol=1e-14)


def test_precision_inverts_covariance():
    for n, rho in ((1, 0.8), (2, -0.4), (20, 0.8), (50, 0.95)):
        r = ar1_covariance(n, 1.3, rho)
        q = ar1_precision(n, 1.3, rho)
        assert np.allclose(r @ q, np.eye(n), atol=1e-9)


def test_precision_is_tridiagonal():
    q = ar1_precision(8, 1.0, 0.7)
    assert np.allclose(q, np.triu(np.tril(q, 1), -1), atol=1e-14)


def test_rho_zero_gives_scaled_identity():
    assert np.allclose(ar1_covariance(5, 2.0, 0.0), 2.0 * np.eye(5), atol=1e-15)
    assert np.allclose(ar1_precision(5, 2.0, 0.0), 0.5 * np.eye(5), atol=1e-15)


def test_target_carries_consistent_pieces():
    stream = RngStream(3)
    target, mu, cov = ar1_target(10, 1.0, 0.8, stream=stream)
    assert mu.shape == (10,)
    assert np.all((0 <= mu) & (mu <= 10))
    assert np.allclose(cov, ar1_covariance(10, 1.0, 0.8), atol=1e-14)
    q = ar1_precision(10, 1.0, 0.8)
    assert np.allclose(q @ cov, np.eye(10), atol=1e-9)
    assert np.allclose(target.potential, q @ mu, atol=1e-10)


def test_target_accepts_fixed_mean():
    """A fixed-mean AR(1) target is target_from_dense on ar1_precision; its
    mirror solve of the potential Q mu gives the mean back."""
    mean = np.linspace(0.0, 1.0, 6)
    target = target_from_dense(ar1_precision(6, 1.0, 0.5), mean)
    assert np.allclose(target.mirror_solve(target.potential), mean, atol=1e-12)


def test_validation():
    with pytest.raises(ConfigurationError):
        ar1_covariance(0, 1.0, 0.5)
    with pytest.raises(ConfigurationError):
        ar1_covariance(4, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        ar1_covariance(4, -1.0, 0.5)
    for sigma2 in (math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            ar1_precision(4, sigma2, 0.5)
    with pytest.raises(ConfigurationError):
        ar1_precision(4, 1.0, -1.0)
