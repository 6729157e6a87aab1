"""Factored precision targets and the dense factor.

A target holds its precision Q as one object, a factor F with Q = F^t F
(a FactoredPrecision): a DenseOperator for the small dense problems, the
super-resolution conditional's SpectralConditional (rjpo.superres) for
images.  A dense factor forms what it offers on first use, so building a
target stays cheap and a target pays only for what it runs: M^t M (its
Gram map, one product) at its first Gram call, its eigenbasis (an
Eigenbasis, as the super-resolution PairRotation is: Lambda as a Diagonal
precision, with its equal values grouped) at its first exact draw or plain
CG solve, and its closed-form Q^-1 (``inverse``), one stored matrix
V Lambda^-1 V^t read off that eigenbasis, at its first exact draw.  Factors
are immutable after construction and safe to share between chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import ConfigurationError, NumericalBreakdownError


def _vector(x, size: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != size:
        raise ValueError(f"{name} expects length {size}, got {x.size}")
    return x


class FactoredPrecision:
    """A precision Q held as its factor F, Q = F^t F (F maps R^N -> R^N').

    A subclass sets ``in_dim`` and ``gram`` (Q), and ``out_dim`` and
    ``apply_transpose`` (F^t) if perturbations draw through it.  It may
    offer ``rotation`` (an Eigenbasis, where a plain cg_solve runs),
    ``inverse`` (a closed-form Q^-1, which the exact draw applies in place
    of a solve) and ``preconditioner`` (an SPD approximation of Q^-1, which
    the exact draw hands its CG solve as ``precondition``), each None where
    it has none.  Vectors live in the coordinates the factor takes: plain
    vectors for a DenseOperator, HalfSpectrum coordinates for the
    super-resolution conditional.  Subclasses leave ``apply`` alone, so
    every Q-apply goes through it.
    """

    rotation = inverse = preconditioner = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The Gram map v -> Qv = F^t F v."""
        return self.gram(v)


class DenseOperator(FactoredPrecision):
    """A matrix M as a factor: its transpose w -> M^t w and its Gram map
    v -> (M^t M) v, each on a checked-length vector; M^t M is formed by the
    first Gram call.  Any full-rank M offers its closed-form Q^-1."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("dense operator needs a 2-D matrix")
        if not np.all(np.isfinite(matrix)):
            raise ConfigurationError("dense operator matrix has non-finite entries")
        self.matrix = matrix
        self.out_dim, self.in_dim = matrix.shape

    def apply_transpose(self, w: np.ndarray) -> np.ndarray:
        return self.matrix.T @ _vector(w, self.out_dim, "apply_transpose")

    @cached_property
    def _gram_matrix(self) -> np.ndarray:
        return self.matrix.T @ self.matrix

    def gram(self, v: np.ndarray) -> np.ndarray:
        return self._gram_matrix @ _vector(v, self.in_dim, "gram")

    @cached_property
    def inverse(self):
        """b -> Q^-1 b = X b, one product with the stored X = V Lambda^-1 V^t,
        formed (one N^3 product) at the first exact draw from the eigenvectors
        V and values Lambda of the ``rotation``, which that draw builds where
        no plain solve has yet.  X b leaves a residual of about u kappa(Q),
        which the exact draw refines once with X itself."""
        rotation = self.rotation
        vectors = rotation.leave.args[0]  # V: ``leave`` is partial(np.matmul, V)
        return ((vectors / rotation.values) @ vectors.T).dot  # X.dot: no ufunc dispatch per apply

    @cached_property
    def rotation(self) -> Eigenbasis:
        """Q's eigenbasis from np.linalg.eigh of M^t M: U = V^t for its
        eigenvectors V, and Lambda its ascending eigenvalues.  Built by the
        first plain solve or exact draw and kept for every later one of
        either.  A Gram whose smallest eigenvalue is at most in_dim * eps
        times its largest is singular to working precision (a rank-deficient
        M, square or not), and CG in its eigenbasis would solve only the part
        of b in its range: that raises NumericalBreakdownError."""
        values, vectors = np.linalg.eigh(self._gram_matrix)
        if not values[0] > self.in_dim * np.finfo(float).eps * values[-1]:
            raise NumericalBreakdownError(
                f"dense factor's Gram M^t M is singular: smallest eigenvalue "
                f"{values[0]:.3e} against largest {values[-1]:.3e}")
        return Eigenbasis(values, partial(np.matmul, vectors.T), partial(np.matmul, vectors))


class Diagonal(FactoredPrecision):
    """A positive diagonal as a precision that is only solved against, such
    as a rotation's Lambda: its Gram map is one multiply."""

    def __init__(self, values):
        self.values = values
        self.in_dim = values.size
        self.gram = partial(np.multiply, values)


class Eigenbasis(Diagonal):
    """An orthogonal U and diagonal Lambda = U Q U^t, the ``rotation`` a
    factor may offer: ``values`` (Lambda's diagonal), ``enter`` (v -> U v, a
    new vector, which cg_solve updates in place) and ``leave``
    (u -> U^t u).  As a precision it is Lambda, whose apply is one multiply,
    counted and traced as a Q-apply.  It groups Lambda's equal values when
    it is built: ``distinct`` holds the distinct values, ascending, as a
    Diagonal, and ``group`` each coordinate's index among them; cg_solve
    runs its iterations on these.

    ``eigenvalues`` is Lambda's diagonal itself when ``owner`` is None.  A
    basis that knows which coordinates share a value hands each value once
    and ``owner``, the index of each coordinate's value among them:
    Lambda's diagonal is eigenvalues[owner], and only the values handed are
    sorted (np.unique), so ``distinct`` and ``group`` are those of the full
    diagonal, bit for bit, at the cost of a sort of the shorter vector.
    A zero, negative or non-finite value is no precision's eigenvalue:
    one test on the sorted distinct values (NaN sorts last) raises
    NumericalBreakdownError.
    """

    def __init__(self, eigenvalues, enter, leave, owner=None):
        values, group = np.unique(eigenvalues, return_inverse=True)
        if not (values[0] > 0.0 and math.isfinite(values[-1])):
            raise NumericalBreakdownError(
                f"eigenbasis values must be positive and finite, got {values[0]:.3e} "
                f"to {values[-1]:.3e}")
        if owner is not None:
            eigenvalues, group = eigenvalues.take(owner), group.take(owner)
        super().__init__(eigenvalues)
        self.enter, self.leave, self.group = enter, leave, group
        self.distinct = Diagonal(values)


@dataclass
class GaussianTarget:
    """A target N(mu, Q^-1) held as (Q's factor, potential vector Q mu); a
    factor that knows Q^-1 in closed form offers it as its ``inverse``."""

    precision: FactoredPrecision
    potential: np.ndarray

    def __post_init__(self):
        self.potential = np.asarray(self.potential, dtype=float).ravel()
        if self.potential.size != self.precision.in_dim:
            raise ConfigurationError(
                f"potential length {self.potential.size} != precision dim {self.precision.in_dim}"
            )

    @property
    def dim(self) -> int:
        return self.precision.in_dim

    # for perfbench/run.py and perfbench/spans.py only: nothing here calls these
    def mirror_cholesky(self) -> np.ndarray:
        """M^t for a dense factor M: L for target_from_cholesky's F = L^t."""
        return self.precision.matrix.T

    def mirror_solve(self, b: np.ndarray) -> np.ndarray:
        """Q^-1 b through the factor's ``inverse``."""
        return self.precision.inverse(b)


def target_from_cholesky(low: np.ndarray, mu: np.ndarray) -> GaussianTarget:
    """N(mu, (L L^t)^-1) for a lower Cholesky factor L: factor F = L^t, a
    view of L, and potential L (L^t mu)."""
    return GaussianTarget(DenseOperator(low.T), low @ (low.T @ mu))
