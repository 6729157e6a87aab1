"""Factored precision targets and the dense factor.

A target holds its precision Q through a factor F with Q = F^t F: a
DenseOperator for the small dense problems, the super-resolution
conditional's SpectralConditional (rjpo.superres) for images.  A dense
factor's Gram map is one product with M^t M, formed at its first Gram call
rather than at construction, so building a target stays cheap and a target
that is never solved against never pays for it.  Factors are immutable
after construction and safe to share between chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


def _vector(x, size: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != size:
        raise ValueError(f"{name} expects length {size}, got {x.size}")
    return x


class DenseOperator:
    """A matrix M as a factor: v -> Mv, its transpose w -> M^t w and its Gram
    map v -> (M^t M) v, each on a checked-length vector.  The Gram matrix
    M^t M is formed by the first Gram call, not here: an N x N product would
    dominate the set-up of a dense target, and one that is never solved
    against pays nothing."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("dense operator needs a 2-D matrix")
        if not np.all(np.isfinite(matrix)):
            raise ConfigurationError("dense operator matrix has non-finite entries")
        self.matrix = matrix
        self.out_dim, self.in_dim = matrix.shape

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ _vector(v, self.in_dim, "apply")

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        return self.matrix.T @ _vector(w, self.out_dim, "apply_transpose")

    @cached_property
    def _gram_matrix(self) -> np.ndarray:
        return self.matrix.T @ self.matrix

    def gram(self, v: np.ndarray) -> np.ndarray:
        return self._gram_matrix @ _vector(v, self.in_dim, "gram")


class FactoredPrecision:
    """Precision held through a factor F with Q = F^t F (F maps R^N -> R^N').

    The factor needs ``in_dim``, ``out_dim``, ``gram`` (Q) and
    ``apply_transpose`` (F^t, which perturbations draw through), and may
    offer ``precondition``.  Vectors live in whatever coordinates the
    factor takes: plain vectors for a DenseOperator, HalfSpectrum
    coordinates for the super-resolution conditional.
    """

    def __init__(self, factor):
        self.factor = factor
        self.dim = factor.in_dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The induced Gram map v -> Qv = F^t F v."""
        return self.factor.gram(v)

    def preconditioned(self) -> FactoredPrecision:
        """This Q as seen by a preconditioned cg_solve: the same apply, plus
        the factor's ``precondition`` (an SPD approximation of Q^-1) when it
        has one.  Without one it is solved by plain CG."""
        view = FactoredPrecision(self.factor)
        if hasattr(self.factor, "precondition"):
            view.precondition = self.factor.precondition
        return view


@dataclass
class GaussianTarget:
    """A target N(mu, Q^-1) held as (factored Q, potential vector Q mu).

    ``dense_q`` is an optional dense mirror of Q for exact solves and
    oracle use on small problems; the sampling kernels never require it.
    """

    precision: FactoredPrecision
    potential: np.ndarray
    dense_q: np.ndarray | None = None
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
    factored path and the dense mirror describe the identical Q; C is also
    the mirror's Cholesky factor, so Q is factorised once.
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
        _chol=low,
    )
