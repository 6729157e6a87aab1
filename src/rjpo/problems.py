"""Small benchmark targets with known moments.

The workhorse is the stationary AR(1) family R_ij = sigma2 * rho^|i-j|,
whose precision has an exact tridiagonal closed form, so both the sampling
target and the ground-truth moments are available without any inversion.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .linop import GaussianTarget, target_from_dense
from .rng import RngStream


def _check_ar1(n: int, sigma2: float, rho: float) -> None:
    if n < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {n}")
    if not -1.0 < rho < 1.0:
        raise ConfigurationError(f"rho must lie in (-1, 1), got {rho}")
    if not 0.0 < sigma2 < np.inf:
        raise ConfigurationError(f"sigma2 must be positive and finite, got {sigma2}")


def ar1_covariance(n: int, sigma2: float = 1.0, rho: float = 0.8) -> np.ndarray:
    _check_ar1(n, sigma2, rho)
    idx = np.arange(n)
    return sigma2 * (rho ** idx)[np.abs(idx[:, None] - idx[None, :])]  # n powers, not n^2


def ar1_precision(n: int, sigma2: float = 1.0, rho: float = 0.8) -> np.ndarray:
    """Exact inverse of ar1_covariance: tridiagonal with corner corrections."""
    _check_ar1(n, sigma2, rho)
    if n == 1:
        return np.array([[1.0 / sigma2]])
    q = np.zeros((n, n))
    diag = np.full(n, 1.0 + rho * rho)
    diag[0] = diag[-1] = 1.0
    np.fill_diagonal(q, diag)
    off = np.arange(n - 1)
    q[off, off + 1] = -rho
    q[off + 1, off] = -rho
    return q / (sigma2 * (1.0 - rho * rho))


def ar1_target(
    n: int,
    sigma2: float = 1.0,
    rho: float = 0.8,
    *,
    stream: RngStream,
) -> tuple[GaussianTarget, np.ndarray, np.ndarray]:
    """Build the AR(1) benchmark target.

    The mean is drawn once from U[0, 10) using the supplied stream.  Returns
    (target, true_mean, true_cov); the target carries a dense mirror and a
    Cholesky-factor precision, affordable at the benchmark sizes used here.
    """
    cov = ar1_covariance(n, sigma2, rho)
    mean = 10.0 * stream.uniform_vector(n)
    return target_from_dense(ar1_precision(n, sigma2, rho), mean), mean, cov
