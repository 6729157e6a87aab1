"""Truncated linear conjugate gradient with a relative-residual stopping rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalBreakdownError


@dataclass(frozen=True)
class CGOutcome:
    """Result of a (possibly truncated) CG solve of Q x = b.

    residual_vector is recomputed as b - Q x at exit, never the recursive
    residual, and relative_residual = ||residual_vector|| / ||b||.
    """

    solution: np.ndarray
    iterations: int
    relative_residual: float
    residual_vector: np.ndarray


def cg_solve(q, b, x0=None, epsilon: float = 0.0, max_iters: int | None = None) -> CGOutcome:
    """Run CG on Q x = b from x0 until the relative residual drops to epsilon.

    The stopping test uses the cheap recursive residual and is evaluated at
    initialization and after every iteration; the returned residual is
    recomputed so downstream acceptance ratios see the true b - Qx.  With
    ||b|| = 0 the relative residual is defined as 0 and x0 is returned as is.

    Args:
      q: object with apply(v) computing Qv for symmetric positive definite Q.
      b: right-hand side.
      x0: starting point (defaults to zero).
      epsilon: relative-residual threshold, finite and >= 0.
      max_iters: iteration cap, defaults to 10 N.

    Raises:
      NumericalBreakdownError: non-finite values or nonpositive curvature
        p^t Q p, indicating loss of positive definiteness.
    """
    b = np.asarray(b, dtype=float).ravel()
    n = b.size
    if x0 is None:
        x0 = np.zeros(n)
    x = np.asarray(x0, dtype=float).ravel().copy()
    if x.size != n:
        raise ConfigurationError(f"x0 length {x.size} != b length {n}")
    if not 0 <= epsilon < math.inf:
        raise ConfigurationError(f"epsilon must be finite and >= 0, got {epsilon}")
    if max_iters is None:
        max_iters = 10 * n
    if max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CGOutcome(x, 0, 0.0, b - q.apply(x))

    r = b - q.apply(x)
    if not np.all(np.isfinite(r)):
        raise NumericalBreakdownError("non-finite residual at initialization", iteration=0)
    rs = float(r @ r)
    iterations = 0
    if np.sqrt(rs) / b_norm > epsilon:
        p = r.copy()
        for k in range(1, max_iters + 1):
            qp = q.apply(p)
            curvature = float(p @ qp)
            if not np.isfinite(curvature) or curvature <= 0.0:
                raise NumericalBreakdownError(
                    f"nonpositive or non-finite curvature p^tQp = {curvature}", iteration=k
                )
            step = rs / curvature
            x += step * p
            r -= step * qp
            rs_next = float(r @ r)
            if not np.isfinite(rs_next):
                raise NumericalBreakdownError("non-finite residual norm", iteration=k)
            iterations = k
            if np.sqrt(rs_next) / b_norm <= epsilon:
                break
            p = r + (rs_next / rs) * p
            rs = rs_next

    residual = b - q.apply(x)
    return CGOutcome(x, iterations, float(np.linalg.norm(residual)) / b_norm, residual)
