"""Matrix-free linear operators and factored precision targets.

All operators act on flattened images in row-major order.  Operators are
immutable after construction and safe to share between chains; FFT work
arrays are per-call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


class LinearOperator:
    """Base map v -> Mv with an explicit transpose map.

    Subclasses set ``in_dim``/``out_dim`` and implement ``_apply`` and
    ``_apply_transpose`` on correctly-sized 1-D arrays.
    """

    in_dim: int
    out_dim: int

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.in_dim:
            raise ValueError(f"apply expects length {self.in_dim}, got {v.size}")
        return self._apply(v)

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self.out_dim:
            raise ValueError(f"apply_transpose expects length {self.out_dim}, got {w.size}")
        return self._apply_transpose(w)

    def _apply(self, v):
        raise NotImplementedError

    def _apply_transpose(self, w):
        raise NotImplementedError


class DenseOperator(LinearOperator):
    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("dense operator needs a 2-D matrix")
        if not np.all(np.isfinite(matrix)):
            raise ConfigurationError("dense operator matrix has non-finite entries")
        self.matrix = matrix
        self.out_dim, self.in_dim = matrix.shape

    def _apply(self, v):
        return self.matrix @ v

    def _apply_transpose(self, w):
        return self.matrix.T @ w


class CirculantOperator(LinearOperator):
    """Circular 2-D convolution on a rows x cols grid, performed by FFT.

    Kernel index (0, 0) is the convolution origin; pass ``origin`` to shift
    a centered stencil onto the origin at construction.  The transpose uses
    the conjugate transfer function (flipped kernel).
    """

    def __init__(self, kernel, image_dims, origin=(0, 0)):
        kernel = np.asarray(kernel, dtype=float)
        rows, cols = image_dims
        if kernel.ndim != 2:
            raise ConfigurationError("convolution kernel must be 2-D")
        if kernel.shape[0] > rows or kernel.shape[1] > cols:
            raise ConfigurationError(
                f"kernel {kernel.shape} larger than image {tuple(image_dims)}"
            )
        self.image_dims = (int(rows), int(cols))
        self.kernel = kernel
        self.in_dim = self.out_dim = rows * cols
        padded = np.zeros(self.image_dims)
        padded[: kernel.shape[0], : kernel.shape[1]] = kernel
        padded = np.roll(padded, (-origin[0], -origin[1]), axis=(0, 1))
        # forward FFT unscaled, inverse scaled by 1/N (numpy convention)
        self.transfer = np.fft.fft2(padded)

    def _convolve(self, v, transfer):
        image = v.reshape(self.image_dims)
        return np.fft.ifft2(np.fft.fft2(image) * transfer).real.ravel()

    def _apply(self, v):
        return self._convolve(v, self.transfer)

    def _apply_transpose(self, w):
        return self._convolve(w, np.conj(self.transfer))


class DecimationOperator(LinearOperator):
    """Keep pixels on the sub-lattice row % factor == offset (and likewise
    for columns); the transpose scatters back with zeros elsewhere."""

    def __init__(self, image_dims, factor, offset=(0, 0)):
        rows, cols = image_dims
        factor = int(factor)
        if factor < 1:
            raise ConfigurationError(f"decimation factor must be >= 1, got {factor}")
        if rows % factor or cols % factor:
            raise ConfigurationError(
                f"factor {factor} must divide image dims {tuple(image_dims)}"
            )
        if not (0 <= offset[0] < factor and 0 <= offset[1] < factor):
            raise ConfigurationError(f"offset {tuple(offset)} out of range for factor {factor}")
        self.image_dims = (int(rows), int(cols))
        self.factor = factor
        self.offset = (int(offset[0]), int(offset[1]))
        self.in_dim = rows * cols
        self.out_dim = (rows // factor) * (cols // factor)

    def _apply(self, v):
        image = v.reshape(self.image_dims)
        return image[self.offset[0] :: self.factor, self.offset[1] :: self.factor].ravel()

    def _apply_transpose(self, w):
        rows, cols = self.image_dims
        image = np.zeros((rows, cols))
        image[self.offset[0] :: self.factor, self.offset[1] :: self.factor] = w.reshape(
            rows // self.factor, cols // self.factor
        )
        return image.ravel()


class StackedFactor(LinearOperator):
    """Vertical stack [sqrt(w_1) F_1; sqrt(w_2) F_2; ...].

    The induced Gram is the weighted sum of Grams: F^t F = sum_i w_i F_i^t F_i.
    """

    def __init__(self, weighted_ops):
        weighted_ops = list(weighted_ops)
        if not weighted_ops:
            raise ConfigurationError("stacked factor needs at least one operator")
        in_dims = {op.in_dim for _, op in weighted_ops}
        if len(in_dims) != 1:
            raise ConfigurationError(f"stacked operators disagree on in_dim: {sorted(in_dims)}")
        for w, _ in weighted_ops:
            if not (w > 0 and np.isfinite(w)):
                raise ConfigurationError(f"stack weights must be positive finite, got {w}")
        self.weighted_ops = [(float(w), op) for w, op in weighted_ops]
        self.in_dim = weighted_ops[0][1].in_dim
        self.out_dim = sum(op.out_dim for _, op in weighted_ops)
        self._splits = np.cumsum([op.out_dim for _, op in weighted_ops])[:-1]

    def _apply(self, v):
        return np.concatenate(
            [np.sqrt(w) * op.apply(v) for w, op in self.weighted_ops]
        )

    def _apply_transpose(self, w):
        segments = np.split(w, self._splits)
        out = np.zeros(self.in_dim)
        for (weight, op), seg in zip(self.weighted_ops, segments):
            out += np.sqrt(weight) * op.apply_transpose(seg)
        return out


class ComposedOperator(LinearOperator):
    """outer . inner, e.g. decimation after blur."""

    def __init__(self, outer, inner):
        if outer.in_dim != inner.out_dim:
            raise ConfigurationError(
                f"cannot compose: outer.in_dim={outer.in_dim} != inner.out_dim={inner.out_dim}"
            )
        self.outer = outer
        self.inner = inner
        self.in_dim = inner.in_dim
        self.out_dim = outer.out_dim

    def _apply(self, v):
        return self.outer.apply(self.inner.apply(v))

    def _apply_transpose(self, w):
        return self.inner.apply_transpose(self.outer.apply_transpose(w))


def to_dense(op: LinearOperator) -> np.ndarray:
    """Materialize an operator column by column (small problems only)."""
    basis = np.eye(op.in_dim)
    return np.column_stack([op.apply(basis[:, j]) for j in range(op.in_dim)])


class FactoredPrecision:
    """Precision held through a factor F with Q = F^t F (F maps R^N -> R^N')."""

    def __init__(self, factor: LinearOperator):
        self.factor = factor
        self.dim = factor.in_dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The induced Gram map v -> Qv = F^t(Fv)."""
        return self.factor.apply_transpose(self.factor.apply(v))


@dataclass
class GaussianTarget:
    """A target N(mu, Q^-1) held as (factored Q, potential vector Q mu).

    ``dense_q``/``dense_mu`` form an optional dense mirror for oracle use
    on small problems; the sampling kernels never require it.
    """

    precision: FactoredPrecision
    potential: np.ndarray
    dense_q: np.ndarray | None = None
    dense_mu: np.ndarray | None = None
    _chol: np.ndarray | None = field(default=None, repr=False, compare=False)
    _chol_inv: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.potential = np.asarray(self.potential, dtype=float).ravel()
        if self.potential.size != self.precision.dim:
            raise ConfigurationError(
                f"potential length {self.potential.size} != precision dim {self.precision.dim}"
            )

    @property
    def dim(self) -> int:
        return self.precision.dim

    @property
    def has_mirror(self) -> bool:
        return self.dense_q is not None

    @property
    def dense_mirror(self) -> tuple[np.ndarray, np.ndarray] | None:
        if self.dense_q is None:
            return None
        return self.dense_q, self.dense_mu

    def mirror_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the dense mirror Q (cached)."""
        if self.dense_q is None:
            raise ConfigurationError("target has no dense mirror")
        if self._chol is None:
            self._chol = np.linalg.cholesky(self.dense_q)
        return self._chol

    def mirror_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve Q x = b as L^-t (L^-1 b), two matvecs with the inverse of the
        mirror Cholesky factor L.

        The inverse is built and cached by the first solve, not by
        mirror_cholesky, so targets that are factorised but never solved
        against do not pay for it.
        """
        if self._chol_inv is None:
            self._chol_inv = np.linalg.inv(self.mirror_cholesky())
        return self._chol_inv.T @ (self._chol_inv @ b)


def target_from_dense(q: np.ndarray, mu: np.ndarray) -> GaussianTarget:
    """Build a target from a dense SPD precision matrix.

    The factor is F = C^t from the Cholesky factorization Q = C C^t, so the
    factored path and the dense mirror describe the identical Q.
    """
    q = np.asarray(q, dtype=float)
    mu = np.asarray(mu, dtype=float).ravel()
    if q.shape != (mu.size, mu.size):
        raise ConfigurationError(f"precision shape {q.shape} does not match mean length {mu.size}")
    low = np.linalg.cholesky(q)
    return GaussianTarget(
        precision=FactoredPrecision(DenseOperator(low.T)),
        potential=q @ mu,
        dense_q=q,
        dense_mu=mu,
    )
