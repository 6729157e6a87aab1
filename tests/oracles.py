"""Independent reference implementations the test suite checks against,
and the verification-only helpers built on the package.

The references are deliberately naive (dense algebra, direct loops) and
share no algorithm with the package under test: they use numpy, plus the
package's outcome record and error types so the oracle move can run inside
run_chain.  The one exception is the textbook CG loop, with fresh vectors
for every update, which the package's in-place loop must match bit for
bit.  The helpers at the end (a target built from a dense precision
matrix, a dense closed-form Q^-1 set as a factor's ``inverse``, the
acceptance-vs-threshold curve) drive the package itself; no CLI run or
benchmark needs them, and neither do the image-space maps H, H^t and D of
the super-resolution model and the conditional's factor built on them
(the Gibbs chain runs in HalfSpectrum coordinates), or the strided-slice
frame maps and back-projection that the package's index tables must
match bit for bit, and the stacked factor's two-transform F^t.  The
min-CCES window kept as a growing array of its triples and regressed by
numpy with explicit weights d^k at every step is the reference that the
updating window must track (and, driving a chain, reproduce its J and
alpha bit for bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rjpo.adapt import make_kernel
from rjpo.diag import ess
from rjpo.errors import ConfigurationError, NumericalBreakdownError
from rjpo.linop import FactoredPrecision, GaussianTarget, target_from_cholesky
from rjpo.rng import RngStream
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


def textbook_cg_iterate(q, r, x, b_norm, epsilon, max_iters, precondition):
    """The textbook CG loop that rjpo.cg._iterate must match bit for bit:
    step p and step Qp are fresh vectors, and r^t r and p^t Qp are
    matmuls.  It has _iterate's signature and result, so a test can patch
    it in."""
    rs = float(r @ r)
    iterations, converged = 0, True
    if math.sqrt(rs) / b_norm > epsilon:
        z, rz = _textbook_preconditioned(precondition, r, rs, 0)
        p = z.copy()
        for iterations in range(1, max_iters + 1):
            qp = q.apply(p)
            curvature = float(p @ qp)
            if not math.isfinite(curvature) or curvature <= 0.0:
                raise NumericalBreakdownError(f"nonpositive or non-finite curvature "
                                              f"p^tQp = {curvature} at CG iteration {iterations}")
            step = rz / curvature
            if x is not None:
                x += step * p
            r -= step * qp
            rs_next = float(r @ r)
            if not math.isfinite(rs_next):
                raise NumericalBreakdownError(f"non-finite residual at CG iteration {iterations}")
            if math.sqrt(rs_next) / b_norm <= epsilon:
                break
            z, rz_next = _textbook_preconditioned(precondition, r, rs_next, iterations)
            p *= rz_next / rz
            p += z
            rz = rz_next
        else:
            converged = False
    return iterations, converged


def _textbook_preconditioned(precondition, r, rs, iteration):
    """z = M^-1 r and r^t z; without a preconditioner z = r and r^t z is the
    already computed rs = r^t r."""
    if precondition is None:
        return r, rs
    z = precondition(r)
    rz = float(r @ z)
    # a non-finite entry of z makes r^t z non-finite, so this covers it too
    if not math.isfinite(rz) or rz <= 0.0:
        raise NumericalBreakdownError(f"preconditioner is not positive definite: "
                                      f"r^t M^-1 r = {rz} at CG iteration {iteration}")
    return z, rz


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


def window_decay(size: int) -> float:
    """The weight ratio d of consecutive entries of a min-CCES window of
    ``size``: d = size / (size + 4), a mean age of size / 4."""
    return size / (size + 4.0)


def weighted_window_slopes(window, size: int) -> tuple[float, float, bool]:
    """Regress alpha and J on log eps over a (3, n) window whose rows are
    log eps, J and alpha, oldest first, the column appended k steps ago
    weighing window_decay(size)^k: (dalpha/dlogeps, dJ/dlogeps, degenerate).

    The weighted means are formed first, then the weighted sums of
    centred products, each from the whole window in one numpy pass.  A
    window whose J is constant over its last min(n, size) columns, or
    whose log eps is constant, is degenerate and gives zero slopes; so is
    a zero J slope.
    """
    x, j, a = np.asarray(window, dtype=float)
    tail = j[-min(x.size, size):]
    if x.size == 0 or tail.min() == tail.max() or x.min() == x.max():
        return 0.0, 0.0, True
    w = window_decay(size) ** np.arange(x.size - 1, -1, -1.0)
    dx = x - (w @ x) / w.sum()
    wdx = w * dx
    sxx = float(wdx @ dx)
    slope_a = float(wdx @ (a - (w @ a) / w.sum())) / sxx
    slope_j = float(wdx @ (j - (w @ j) / w.sum())) / sxx
    return slope_a, slope_j, slope_j == 0.0


WEIGHT_FLOOR = 1e-20  # WeightedSlopeWindow reads no column of lower weight


class WeightedSlopeWindow:
    """Every (log eps, J, alpha) triple appended, as the columns of a
    (3, n) array, of which ``slopes`` regresses the ``kept`` trailing
    ones, those whose weight is at least WEIGHT_FLOOR, with
    weighted_window_slopes, so the window can stand in for
    rjpo.adapt.SlopeWindow as a controller's ``history``."""

    def __init__(self, size: int):
        self.size = size
        self.kept = int(math.log(WEIGHT_FLOOR) / math.log(window_decay(size))) + 1
        self._rows, self._count = np.empty((3, 64)), 0

    def append(self, entry) -> None:
        if self._count == self._rows.shape[1]:
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)], axis=1)
        self._rows[:, self._count] = entry
        self._count += 1

    def slopes(self) -> tuple[float, float, bool]:
        start = max(0, self._count - self.kept)
        return weighted_window_slopes(self._rows[:, start:self._count], self.size)


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
    n = precision.in_dim
    if n > 4096:
        raise ConfigurationError(f"dense mirror refused for N = {n}")
    dense_q = dense_matrix_of(precision.apply, n)
    return 0.5 * (dense_q + dense_q.T)


def with_dense_mirror(target: GaussianTarget) -> GaussianTarget:
    """The target, its factor's ``inverse`` set to the dense Q^-1 of its
    dense_precision through that Q's Cholesky factor L: with W = inv(L),
    formed here, b -> W^t (W b).  It shares no decomposition with the
    package's closed forms, which it is a reference for."""
    w = np.linalg.inv(np.linalg.cholesky(dense_precision(target.precision)))
    target.precision.inverse = lambda b: w.T @ (w @ b)
    return target


class TwoProductFactor(FactoredPrecision):
    """A dense factor M whose Gram map is the two products M^t (M v), the
    reference for DenseOperator's one product with M^t M; M^t w is the same
    product as DenseOperator's.  It offers no rotation."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.out_dim, self.in_dim = self.matrix.shape

    def apply_transpose(self, w):
        return self.matrix.T @ w

    def gram(self, v):
        return self.matrix.T @ (self.matrix @ v)


def with_two_product_factor(target: GaussianTarget) -> GaussianTarget:
    """A copy of a dense target (target_from_dense) whose factor applies Q
    as M^t (M v); the potential and the factor's ``inverse`` are shared."""
    factor = TwoProductFactor(target.precision.matrix)
    factor.inverse = target.precision.inverse
    return GaussianTarget(factor, target.potential)


def joint_law_z_scores(kernel, seed: int, chains: int, sweeps: int) -> np.ndarray:
    """Geweke's successive-conditional simulator (JASA 2004) on the N = 3
    hierarchy gamma ~ Gamma(3, rate 3), x | gamma ~ N(0, (gamma Q0)^-1),
    y | x ~ N(x, I), with Q0 the AR(1) rho = 0.8 precision.

    Each chain starts from the prior; each sweep draws gamma | x exactly,
    then x | gamma, y with the kernel under test (target, previous, stream)
    on target_from_dense(gamma Q0 + I, mu), then fresh data y | x.  A
    kernel that keeps x | gamma, y invariant keeps (gamma, x) at its prior,
    where E[gamma] = 1, E[gamma x^t Q0 x] = 3 and E[x_0^2] = 1.5 (Q0^-1)_00.
    Returns the z-score of each, in that order: the mean over all chains
    against its truth, in units of the standard error that diag.ess gives
    each chain's mean.
    """
    shape = rate = 3.0
    q0 = ar1_precision(3, 1.0, 0.8)
    low0, eye = np.linalg.cholesky(q0), np.eye(3)
    truths = np.array([1.0, 3.0, 1.5 * np.linalg.inv(q0)[0, 0]])
    means, variances = [], []
    for stream in RngStream(seed).spawn(chains):
        gamma = stream.gamma_draw(shape, 1.0 / rate)
        x = np.linalg.solve(low0.T, stream.standard_normal_vector(3)) / math.sqrt(gamma)
        y = x + stream.standard_normal_vector(3)
        series = np.empty((sweeps, 3))
        for row in series:
            gamma = stream.gamma_draw(shape + 1.5, 1.0 / (rate + 0.5 * float(x @ q0 @ x)))
            q = gamma * q0 + eye
            x = kernel(target_from_dense(q, np.linalg.solve(q, y)), x, stream).next_sample
            y = x + stream.standard_normal_vector(3)
            row[:] = gamma, gamma * float(x @ q0 @ x), x[0] * x[0]
        means.append(series.mean(axis=0))
        variances.append([column.var(ddof=1) / ess(column) for column in series.T])
    standard_error = np.sqrt(np.sum(variances, axis=0)) / chains
    return (np.mean(means, axis=0) - truths) / standard_error


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


def exactly_real_spectrum(spectrum, dims) -> np.ndarray:
    """A copy of the half spectrum of a ``dims`` image with each bin of
    columns 0 and K/2 past row R/2 set to the conjugate of its mirror by
    an index table, and the imaginary parts of the self-conjugate bins
    (rows 0 and R/2 there) set to zero: a real image's half spectrum."""
    (rows, cols), spectrum = dims, np.array(spectrum)
    columns = [0, cols // 2] if cols % 2 == 0 else [0]
    upper = np.arange(1, (rows + 1) // 2)
    spectrum[np.ix_(rows - upper, columns)] = np.conj(spectrum[np.ix_(upper, columns)])
    self_conjugate = np.ix_([0, rows // 2] if rows % 2 == 0 else [0], columns)
    spectrum[self_conjugate] = spectrum[self_conjugate].real
    return spectrum


def strided_back_projection(basis, frames) -> np.ndarray:
    """enter(H^t frames) in HalfSpectrum coordinates: W conj(b) times the
    exactly_real_spectrum of the rfft2 of the strided scatter."""
    spectrum = np.fft.rfft2(strided_scatter(basis.model, frames))
    return (basis.adjoint_blur * exactly_real_spectrum(spectrum, basis.dims)).view(float).ravel()


def spectral_transpose(conditional, w) -> np.ndarray:
    """F^t w of the stacked factor [sqrt(gamma_y) H; sqrt(gamma_x) D] in
    HalfSpectrum coordinates, in two rfft2 calls: the strided scatter of
    the frames, and w_x, each transformed on its own and scaled by W."""
    basis, (gamma_y, gamma_x) = conditional.basis, conditional.gammas
    data, smooth = np.split(w, [basis.model.data_count])
    spectrum = (math.sqrt(gamma_y) * basis.adjoint_blur
                * np.fft.rfft2(strided_scatter(basis.model, data))
                + math.sqrt(gamma_x) * (basis.adjoint_smooth * basis.scale)
                * np.fft.rfft2(smooth.reshape(basis.dims)))
    return spectrum.view(float).ravel()


def pair_rotation_eigenvalues(conditional) -> np.ndarray:
    """Lambda's diagonal of the one-alias conditional's PairRotation formed
    coordinate by coordinate, the reference for the rotation's one value per
    bin: on the (R, K//2 + 1, 2) grid of (real, imaginary) coordinates, the
    real part takes lambda- at a partner and lambda+ elsewhere, the
    imaginary part lambda+ at a first member and lambda- elsewhere, from
    PairRotation's floating-point operations."""
    basis = conditional.basis
    mean, paired = conditional.gram.diagonal.real, conditional.paired_mean.real
    gap = (mean - paired) * 0.5
    modulus = conditional.gammas[0] * basis.pair_modulus
    radius = np.sqrt(gap * gap + modulus * modulus)
    high = (mean + paired) * 0.5 + radius
    low = conditional.determinant / high
    eigenvalues = np.empty(basis.shape + (2,))
    eigenvalues[..., 0] = np.where(basis.pair_partner, low, high)
    eigenvalues[..., 1] = np.where(basis.pair_first, high, low)
    return eigenvalues.ravel()


class ConditionalFactor(FactoredPrecision):
    """F = [sqrt(gamma_y) H; sqrt(gamma_x) D] on images, whose Gram
    F^t (F v) is the super-resolution conditional precision
    Q = gamma_y B^t C B + gamma_x D^t D.  ``forward`` is F v; F^t w scatters
    the frames once and ends both parts in one inverse real transform."""

    def __init__(self, model, gamma_y: float, gamma_x: float):
        if not (gamma_y > 0 and gamma_x > 0):
            raise ConfigurationError(f"precisions must be positive, got {gamma_y}, {gamma_x}")
        self.model = model
        self.gamma_y, self.gamma_x = float(gamma_y), float(gamma_x)
        self.in_dim = model.pixel_count
        self.out_dim = model.data_count + model.pixel_count

    def forward(self, v):
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
        return self.apply_transpose(self.forward(v))


def image_conditional_precision(model, gamma_y: float, gamma_x: float) -> np.ndarray:
    """The dense Q of the super-resolution conditional on images: the
    dense_precision of ConditionalFactor's Gram."""
    return dense_precision(ConditionalFactor(model, gamma_y, gamma_x))


def image_conditional_target(model, observations, gamma_y: float,
                             gamma_x: float) -> GaussianTarget:
    """The super-resolution conditional of x on images, with its dense Q^-1
    (with_dense_mirror): Q through ConditionalFactor, potential
    gamma_y H^t y."""
    return with_dense_mirror(GaussianTarget(
        ConditionalFactor(model, gamma_y, gamma_x),
        gamma_y * forward_transpose(model, observations)))
