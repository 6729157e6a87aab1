"""Independent reference implementations the test suite checks against,
and the verification-only helpers built on the package.

The references are deliberately naive (dense algebra, direct loops) and
share no algorithm with the package under test: they use numpy, plus the
package's outcome record and error type so the oracle move can run inside
run_chain.  The helpers at the end (a target built from a dense precision
matrix, dense mirrors of a target, the acceptance-vs-threshold curve)
drive the package itself; no CLI run or benchmark needs them, and
neither do the image-space maps H, H^t and D of the super-resolution
model and the conditional's factor built on them (the Gibbs chain runs in
HalfSpectrum coordinates), or the strided-slice frame maps and the
two-transform F^t that the package's index tables and stacked transform
must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rjpo.adapt import make_kernel
from rjpo.errors import ConfigurationError
from rjpo.linop import FactoredPrecision, GaussianTarget, target_from_cholesky
from rjpo.sampler import KernelOutcome, run_chain


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


def ar1_precision(n: int, sigma2: float, rho: float) -> np.ndarray:
    """Exact inverse of the AR(1) covariance, entry by entry: tridiagonal
    with corner corrections."""
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


def pairwise_distances(points: np.ndarray, rows_per_block: int = 50) -> np.ndarray:
    """Euclidean distances between every pair of rows, by direct differences
    (blocks of rows bound the memory of the broadcast)."""
    out = np.empty((points.shape[0], points.shape[0]))
    for start in range(0, points.shape[0], rows_per_block):
        diffs = points[start:start + rows_per_block, None, :] - points[None, :, :]
        out[start:start + rows_per_block] = np.sqrt((diffs**2).sum(axis=2))
    return out


def _energy_distance(distances: np.ndarray, first: np.ndarray, second: np.ndarray) -> float:
    """Szekely-Rizzo energy distance between the points indexed by first and
    second, from their pooled distance matrix."""

    def mean_pdist(a, b):
        return float(distances[np.ix_(a, b)].mean())

    return 2.0 * mean_pdist(first, second) - mean_pdist(first, first) - mean_pdist(second, second)


def energy_test_pvalue(xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator,
                       permutations: int = 200) -> float:
    """Permutation p-value for 'xs and ys share a distribution'.

    The pooled distance matrix does not depend on the permutation, so it is
    computed once and each permutation only indexes it."""
    pooled = np.vstack([xs, ys])
    distances = pairwise_distances(pooled)
    n = xs.shape[0]
    order = np.arange(pooled.shape[0])
    observed = _energy_distance(distances, order[:n], order[n:])
    hits = 1
    for _ in range(permutations):
        perm = rng.permutation(pooled.shape[0])
        if _energy_distance(distances, perm[:n], perm[n:]) >= observed:
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


def general_rj_step_oracle(target, q: np.ndarray, move: GeneralMoveSpec,
                           previous: np.ndarray, stream) -> KernelOutcome:
    """One reversible-jump step for an arbitrary (A, B, b) move, all dense,
    on the target whose dense precision is q.

    f(z) solves (1/2)(Q + A^t B^-1 A) f = Q mu + A^t B^-1 (z - b) exactly, so
    the acceptance probability is 1 up to rounding; approximate solvers are
    exercised through rjpo_step instead.  The log acceptance ratio is the
    residual form -r^t(previous - proposal), clamped at 0.
    """
    previous = np.asarray(previous, dtype=float).ravel()
    n = target.dim

    z = move.A @ previous + move.b + move.chol_b @ stream.standard_normal_vector(n)
    half_m = 0.5 * (q + move.A.T @ np.linalg.solve(move.B, move.A))
    rhs = target.potential + move.A.T @ np.linalg.solve(move.B, z - move.b)
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


# ------------------------------------------------- helpers on the package

def target_from_dense(q: np.ndarray, mu: np.ndarray) -> GaussianTarget:
    """Build a target from a dense SPD precision matrix.

    Q = C C^t is factorised once and the target is target_from_cholesky(C, mu).
    A q that is not exactly symmetric (Cholesky reads only its lower triangle
    and would drop the rest) or not positive definite is refused.
    """
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float).ravel()
    if q.shape != (mu.size, mu.size):
        raise ConfigurationError(f"precision shape {q.shape} does not match mean length {mu.size}")
    if not np.array_equal(q, q.T):
        raise ConfigurationError("precision matrix is not symmetric")
    try:
        low = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError("precision matrix is not positive definite") from exc
    return target_from_cholesky(low, mu)


def dense_precision(precision: FactoredPrecision) -> np.ndarray:
    """A precision's Q materialized column by column through its apply and
    symmetrized.  Refused beyond N = 4096, where the N x N matrix and its
    solve stop being an oracle's job."""
    n = precision.dim
    if n > 4096:
        raise ConfigurationError(f"dense mirror refused for N = {n}")
    dense_q = dense_matrix_of(precision.apply, n)
    return 0.5 * (dense_q + dense_q.T)


def with_dense_mirror(target: GaussianTarget) -> GaussianTarget:
    """The target with a dense mirror: the Cholesky factor of its
    dense_precision."""
    mirror = np.linalg.cholesky(dense_precision(target.precision))
    return GaussianTarget(target.precision, target.potential, mirror=mirror)


class TwoProductFactor:
    """A dense factor M whose Gram map is the two products M^t (M v), the
    reference for DenseOperator's one product with M^t M; M^t w is the same
    product as DenseOperator's."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.out_dim, self.in_dim = self.matrix.shape

    def apply_transpose(self, w):
        return self.matrix.T @ w

    def gram(self, v):
        return self.matrix.T @ (self.matrix @ v)


def with_two_product_factor(target: GaussianTarget) -> GaussianTarget:
    """A copy of a dense target (target_from_dense) whose factor applies Q
    as M^t (M v); potential and mirror are shared."""
    return GaussianTarget(FactoredPrecision(TwoProductFactor(target.precision.factor.matrix)),
                          target.potential, mirror=target.mirror)


def acceptance_curve(target, epsilons, n_max: int, stream) -> np.ndarray:
    """Mean acceptance probability and CG cost of an RJPO chain per threshold.

    Returns rows (epsilon, mean_alpha, mean_J); statistics exclude the
    first 10% of each chain.  Row i runs on child i of stream.spawn, so a
    row depends on its threshold's position in the grid, not on the
    thresholds after it: dropping a point leaves the rows before it
    unchanged and moves every later row onto another substream.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise ConfigurationError("epsilon grid is empty")
    if any(e <= 0 for e in epsilons):
        raise ConfigurationError("epsilon grid entries must be positive")
    if sorted(epsilons) != epsilons:
        raise ConfigurationError("epsilon grid must be sorted ascending")
    streams = stream.spawn(len(epsilons))
    rows = []
    for eps, sub in zip(epsilons, streams):
        chain = run_chain(target, make_kernel("rjpo", epsilon=eps), n_max, None, sub,
                          track_covariance=False)
        rows.append((eps, chain.mean_acceptance, chain.mean_cg_iterations))
    return np.array(rows)


def _filter(model, image, transfer) -> np.ndarray:
    """The flattened circular convolution irfft2(rfft2(image) * transfer)."""
    spectrum = np.fft.rfft2(np.reshape(image, model.hi_res_dims)) * transfer
    return np.fft.irfft2(spectrum, s=model.hi_res_dims).ravel()


def forward_apply(model, v) -> np.ndarray:
    """H v: the image blurred by b, then each frame's sub-lattice, stacked."""
    return model.gather(_filter(model, v, model.blur))


def forward_transpose(model, w) -> np.ndarray:
    """H^t w: the frames scattered onto their sub-lattices, blurred by conj(b)."""
    return _filter(model, model.scatter(w), np.conj(model.blur))


def smooth_apply(model, v) -> np.ndarray:
    """D v: the image filtered by the smoothness transfer d."""
    return _filter(model, v, model.laplacian)


def strided_gather(model, image) -> np.ndarray:
    """H without the blur by strided slices: each frame's sub-lattice of the
    image, stacked."""
    image, f = np.reshape(image, model.hi_res_dims), model.decimation_factor
    return np.concatenate([image[r::f, c::f].ravel() for r, c in model.frame_offsets])


def strided_scatter(model, frames) -> np.ndarray:
    """H^t without the blur by strided slices: each frame added onto its
    sub-lattice, one frame after another."""
    (rows, cols), f = model.hi_res_dims, model.decimation_factor
    image = np.zeros(model.hi_res_dims)
    stacked = np.reshape(frames, (model.frames, rows // f, cols // f))
    for (r, c), frame in zip(model.frame_offsets, stacked):
        image[r::f, c::f] += frame
    return image


def spectral_transpose(conditional, w) -> np.ndarray:
    """F^t w of a SpectralConditional in two rfft2 calls: the strided
    scatter of the frames, and w_x, each transformed on its own."""
    basis, (gamma_y, gamma_x) = conditional.basis, conditional.gammas
    data, smooth = np.split(w, [basis.model.data_count])
    spectrum = (math.sqrt(gamma_y) * basis.adjoint_blur
                * np.fft.rfft2(strided_scatter(basis.model, data))
                + math.sqrt(gamma_x) * basis.adjoint_smooth
                * np.fft.rfft2(smooth.reshape(basis.dims)))
    return spectrum.view(float).ravel()


class ConditionalFactor:
    """F = [sqrt(gamma_y) H; sqrt(gamma_x) D] on images, whose Gram
    F^t (F v) is the super-resolution conditional precision
    Q = gamma_y B^t C B + gamma_x D^t D.  F^t w scatters the frames once and
    ends both parts in one inverse real transform."""

    def __init__(self, model, gamma_y: float, gamma_x: float):
        if not (gamma_y > 0 and gamma_x > 0):
            raise ConfigurationError(f"precisions must be positive, got {gamma_y}, {gamma_x}")
        self.model = model
        self.gamma_y, self.gamma_x = float(gamma_y), float(gamma_x)
        self.in_dim = model.pixel_count
        self.out_dim = model.data_count + model.pixel_count

    def apply(self, v):
        return np.concatenate([math.sqrt(self.gamma_y) * forward_apply(self.model, v),
                               math.sqrt(self.gamma_x) * smooth_apply(self.model, v)])

    def apply_transpose(self, w):
        model = self.model
        data, smooth = np.split(w, [model.data_count])
        spectrum = (math.sqrt(self.gamma_y) * np.conj(model.blur)
                    * np.fft.rfft2(model.scatter(data))
                    + math.sqrt(self.gamma_x) * np.conj(model.laplacian)
                    * np.fft.rfft2(smooth.reshape(model.hi_res_dims)))
        return np.fft.irfft2(spectrum, s=model.hi_res_dims).ravel()

    def gram(self, v):
        return self.apply_transpose(self.apply(v))


def image_conditional_precision(model, gamma_y: float, gamma_x: float) -> np.ndarray:
    """The dense Q of the super-resolution conditional on images: the
    dense_precision of ConditionalFactor's Gram."""
    return dense_precision(FactoredPrecision(ConditionalFactor(model, gamma_y, gamma_x)))


def image_conditional_target(model, observations, gamma_y: float,
                             gamma_x: float) -> GaussianTarget:
    """The super-resolution conditional of x on images, with its dense
    mirror: Q through ConditionalFactor, potential gamma_y H^t y."""
    return with_dense_mirror(GaussianTarget(
        FactoredPrecision(ConditionalFactor(model, gamma_y, gamma_x)),
        gamma_y * forward_transpose(model, observations)))
