"""Independent reference implementations the test suite checks against.

Everything here is deliberately naive (dense algebra, direct loops) and
shares no algorithm with the package under test: it uses numpy, plus the
package's outcome record and error type so the oracle move can run inside
run_chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rjpo.errors import ConfigurationError
from rjpo.sampler import KernelOutcome


def naive_circular_convolve(image: np.ndarray, kernel: np.ndarray,
                            origin: tuple[int, int]) -> np.ndarray:
    """Direct O(N * |kernel|) circular convolution; kernel[origin] multiplies
    the center pixel."""
    rows, cols = image.shape
    out = np.zeros_like(image, dtype=float)
    kr, kc = kernel.shape
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for a in range(kr):
                for b in range(kc):
                    src_i = (i - (a - origin[0])) % rows
                    src_j = (j - (b - origin[1])) % cols
                    acc += kernel[a, b] * image[src_i, src_j]
            out[i, j] = acc
    return out


def dense_matrix_of(apply_fn, n: int) -> np.ndarray:
    """Materialize a linear map column by column through its apply callable."""
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(apply_fn(e))
    return np.column_stack(cols)


def dense_solve_cg_reference(q: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(q, b)


def cholesky_gaussian_draws(q: np.ndarray, mu: np.ndarray, count: int,
                            rng: np.random.Generator) -> np.ndarray:
    """i.i.d. draws of N(mu, Q^-1) via x = mu + L^-T z, Q = L L^T."""
    low = np.linalg.cholesky(q)
    z = rng.standard_normal((count, mu.size))
    return mu + np.linalg.solve(low.T, z.T).T


def gaussian_logpdf(x: np.ndarray, mu: np.ndarray, q: np.ndarray) -> float:
    """log N(x; mu, Q^-1) up to the constant that cancels in ratios."""
    d = x - mu
    sign, logdet = np.linalg.slogdet(q)
    assert sign > 0
    return 0.5 * logdet - 0.5 * float(d @ q @ d)


def ar1_covariance_direct(n: int, sigma2: float, rho: float) -> np.ndarray:
    idx = np.arange(n)
    return sigma2 * rho ** np.abs(idx[:, None] - idx[None, :])


def lag1_autocorrelation(series: np.ndarray) -> float:
    c = series - series.mean()
    return float((c[:-1] @ c[1:]) / (c @ c))


def ess_direct(series: np.ndarray) -> float:
    """Same estimator contract as the package, via a direct O(n^2)-ish loop:
    biased-normalization autocorrelations summed to the first nonpositive."""
    n = series.size
    c = series - series.mean()
    var = float(c @ c) / n
    total = 0.0
    for k in range(1, n):
        rho = float(c[:-k] @ c[k:]) / n / var
        if rho <= 0:
            break
        total += rho
    return min(max(n / (1.0 + 2.0 * total), 1.0), n)


def energy_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """Szekely-Rizzo energy distance between two samples (rows = points)."""

    def mean_pdist(a, b):
        diffs = a[:, None, :] - b[None, :, :]
        return float(np.sqrt((diffs**2).sum(axis=2)).mean())

    return 2.0 * mean_pdist(xs, ys) - mean_pdist(xs, xs) - mean_pdist(ys, ys)


def energy_test_pvalue(xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator,
                       permutations: int = 200) -> float:
    """Permutation p-value for 'xs and ys share a distribution'."""
    observed = energy_distance(xs, ys)
    pooled = np.vstack([xs, ys])
    n = xs.shape[0]
    hits = 1
    for _ in range(permutations):
        perm = rng.permutation(pooled.shape[0])
        d = energy_distance(pooled[perm[:n]], pooled[perm[n:]])
        if d >= observed:
            hits += 1
    return hits / (permutations + 1)


def ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


@dataclass
class GeneralMoveSpec:
    """Auxiliary move z | x ~ N(A x + b, B) with return map x' = -x + f(z).

    Dense and oracle-only.  B must be symmetric positive definite.
    """

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.b = np.asarray(self.b, dtype=float).ravel()
        n = self.b.size
        if self.A.shape != (n, n) or self.B.shape != (n, n):
            raise ConfigurationError(
                f"A {self.A.shape}, B {self.B.shape}, b length {n} are inconsistent"
            )
        if not np.allclose(self.B, self.B.T, atol=1e-12):
            raise ConfigurationError("B must be symmetric")
        try:
            self.chol_b = np.linalg.cholesky(self.B)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("B must be positive definite") from exc


def general_rj_step_oracle(target, move: GeneralMoveSpec, previous: np.ndarray,
                           stream) -> KernelOutcome:
    """One reversible-jump step for an arbitrary (A, B, b) move, all dense.

    f(z) solves (1/2)(Q + A^t B^-1 A) f = Q mu + A^t B^-1 (z - b) exactly, so
    the acceptance probability is 1 up to rounding; approximate solvers are
    exercised through rjpo_step instead.  The log acceptance ratio is the
    residual form -r^t(previous - proposal), clamped at 0.
    """
    if not target.has_mirror:
        raise ConfigurationError("general move oracle needs a dense mirror")
    previous = np.asarray(previous, dtype=float).ravel()
    q, mu = target.dense_q, target.dense_mu
    n = mu.size

    z = move.A @ previous + move.b + move.chol_b @ stream.standard_normal_vector(n)
    half_m = 0.5 * (q + move.A.T @ np.linalg.solve(move.B, move.A))
    rhs = q @ mu + move.A.T @ np.linalg.solve(move.B, z - move.b)
    f = np.linalg.solve(half_m, rhs)
    residual = rhs - half_m @ f
    proposal = -previous + f

    log_alpha = min(0.0, -float(residual @ (previous - proposal)))
    u = stream.uniform()
    accepted = u <= 0.0 or math.log(u) < log_alpha
    next_sample = proposal if accepted else previous
    rhs_norm = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(residual)) / rhs_norm if rhs_norm > 0 else 0.0
    return KernelOutcome(next_sample, proposal, math.exp(log_alpha), accepted, 0, rel)
