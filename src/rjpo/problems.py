"""Small benchmark targets with known moments.

The workhorse is the stationary AR(1) family R_ij = sigma2 * rho^|i-j|.
Its precision Q = A^t A (A the lower-bidiagonal innovation map) is
persymmetric, so the reversal of A^t, lower bidiagonal with a positive
diagonal, is Q's Cholesky factor L in closed form: a target is built from L
with no factorization and no Q, and the moments need no inversion.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError
from .linop import GaussianTarget, target_from_cholesky
from .rng import RngStream


def ar1_covariance(n: int, sigma2: float = 1.0, rho: float = 0.8) -> np.ndarray:
    """R_ij = sigma2 rho^|i-j|, one copy of windows over its n scaled powers."""
    if n < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {n}")
    if not -1.0 < rho < 1.0:
        raise ConfigurationError(f"rho must lie in (-1, 1), got {rho}")
    if not 0.0 < sigma2 < np.inf:
        raise ConfigurationError(f"sigma2 must be positive and finite, got {sigma2}")
    powers = sigma2 * rho ** np.arange(n)
    return sliding_window_view(np.concatenate([powers[:0:-1], powers]), n)[::-1].copy()


def ar1_target(
    n: int,
    sigma2: float = 1.0,
    rho: float = 0.8,
    *,
    stream: RngStream,
) -> tuple[GaussianTarget, np.ndarray, np.ndarray]:
    """Build the AR(1) benchmark target.

    The mean is drawn once from U[0, 10) using the supplied stream.  Returns
    (target, true_mean, true_cov); the target is target_from_cholesky on the
    closed-form L: diagonal 1 / sqrt(sigma2 (1 - rho^2)) except
    L[n-1, n-1] = 1 / sqrt(sigma2), subdiagonal -rho / sqrt(sigma2 (1 - rho^2)).
    """
    cov = ar1_covariance(n, sigma2, rho)
    mean = 10.0 * stream.uniform_vector(n)
    scale = 1.0 / np.sqrt(sigma2 * (1.0 - rho * rho))
    low = np.zeros((n, n))
    np.fill_diagonal(low, scale)
    np.fill_diagonal(low[1:], -rho * scale)
    low[-1, -1] = 1.0 / np.sqrt(sigma2)
    return target_from_cholesky(low, mean), mean, cov
