"""Chain-quality diagnostics: moment errors, cost per effective sample,
effective sample size, Gelman-Rubin PSRF."""

from __future__ import annotations

import math

import numpy as np

from .adapt import essr_from_alpha
from .sampler import ChainState


def essr_cces(chain: ChainState, independent: bool = False) -> tuple[float, float]:
    """(ESSR, CCES = J / ESSR) from the chain's kept-step mean acceptance (1 for
    independent draws, whatever alpha they record) and CG iterations J.  A
    chain that never moves has ESSR 0 and CCES inf."""
    alpha = 1.0 if independent else chain.mean_acceptance
    if alpha == 0.0:
        return 0.0, math.inf
    essr = essr_from_alpha(alpha)
    return essr, chain.mean_cg_iterations / essr


def rmse(chain: ChainState, true_mean, true_cov) -> tuple[float, float]:
    """Relative errors of the chain's moment estimators.

    rmse_mean = ||mu - mu_hat|| / ||mu||, rmse_cov the Frobenius analogue.
    """
    true_mean = np.asarray(true_mean, dtype=float).ravel()
    true_cov = np.asarray(true_cov, dtype=float)
    mean_norm = np.linalg.norm(true_mean)
    cov_norm = np.linalg.norm(true_cov, "fro")
    if mean_norm == 0 or cov_norm == 0:
        raise ValueError("reference moments must have nonzero norm")
    r_mean = float(np.linalg.norm(true_mean - chain.empirical_mean()) / mean_norm)
    r_cov = float(np.linalg.norm(true_cov - chain.empirical_cov(), "fro") / cov_norm)
    return r_mean, r_cov


def _autocorrelation(series: np.ndarray) -> np.ndarray:
    """Empirical autocorrelations with the biased 1/n normalization."""
    n = series.size
    centered = series - series.mean()
    # FFT convolution gives all lags at once; 1/n normalization keeps the
    # estimated sequence positive semidefinite.
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n] / n
    return acov / acov[0]


def ess(series) -> float:
    """Effective sample size n / (1 + 2 sum rho_k).

    The autocorrelation sum stops at the first nonpositive rho_k and the
    result is clamped to [1, n].
    """
    series = np.asarray(series, dtype=float).ravel()
    n = series.size
    if n < 10:
        raise ValueError(f"need at least 10 points, got {n}")
    if np.all(series == series[0]):
        raise ValueError("autocorrelation of a constant series is undefined")
    rho = _autocorrelation(series)[1:]
    nonpos = np.nonzero(rho <= 0)[0]
    cutoff = nonpos[0] if nonpos.size else rho.size
    n_eff = n / (1.0 + 2.0 * rho[:cutoff].sum())
    return float(min(max(n_eff, 1.0), n))


def gelman_rubin(chains) -> float:
    """Potential scale reduction factor sqrt(V_hat / W) over parallel chains,
    V_hat = ((n-1)/n) W + B/n with W, B the within- and between-chain
    variances."""
    arr = np.asarray([np.asarray(c, dtype=float).ravel() for c in chains])
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need at least 2 chains of equal length")
    m, n = arr.shape
    if n < 10:
        raise ValueError(f"chains must have length >= 10, got {n}")
    within = arr.var(axis=1, ddof=1).mean()
    if within == 0:
        raise ValueError("zero within-chain variance")
    between = n * arr.mean(axis=1).var(ddof=1)
    v_hat = (n - 1) / n * within + between / n
    return float(np.sqrt(v_hat / within))

