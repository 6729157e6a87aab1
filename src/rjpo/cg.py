"""Truncated linear conjugate gradient with a relative-residual stopping rule:
preconditioned when the caller passes a preconditioner, and otherwise plain
CG, run on the distinct eigenvalues of Q's eigenbasis when the operator
offers one."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalBreakdownError


@dataclass(frozen=True)
class CGOutcome:
    """Result of a (possibly truncated) CG solve of Q x = b.

    residual_vector is recomputed as b - Q x at exit, never the recursive
    residual (in Q's eigenbasis, U^t (U b - Lambda U x), mapped out), and
    relative_residual = ||residual_vector|| / ||b||.
    converged is true when the stopping test passed and false when the
    solve stopped at max_iters.
    """

    solution: np.ndarray
    iterations: int
    relative_residual: float
    residual_vector: np.ndarray
    converged: bool


def cg_solve(q, b, x0=None, epsilon: float = 0.0, max_iters: int | None = None,
             precondition=None) -> CGOutcome:
    """Run CG on Q x = b from x0 until the relative residual drops to epsilon.

    The stopping test uses the cheap recursive residual and is evaluated at
    initialization and after every iteration; the returned residual is
    recomputed so downstream acceptance ratios see the true b - Qx.  With
    ||b|| = 0 the relative residual is defined as 0 and x0 is returned.
    A solve of J iterations costs J + 1 Q-applies from the zero start and
    J + 2 from a given x0, whose initial residual b - Q x0 takes one more.
    Each iteration's Q p goes through q.apply; the loop updates x, r and p
    in place through one scratch vector per solve, in the floating-point
    order of the textbook loop, and writes neither b, x0 nor what q.apply
    returns.

    Given precondition(r), computing M^-1 r for a symmetric positive
    definite M, the search directions are built from z = M^-1 r
    (preconditioned CG, as scipy.sparse.linalg.cg's M); otherwise z = r and
    this is plain CG.  Either way the stopping test is on ||r|| itself.

    Without precondition, when q offers a ``rotation`` that is not None
    (an Eigenbasis: an orthogonal U with U Q U^t = Lambda diagonal, which a
    FactoredPrecision may offer), plain CG runs in U's coordinates on
    Lambda's distinct eigenvalues, which the Eigenbasis groups when it is
    built (``distinct`` and ``group``).  CG's iterates depend only on the
    spectral measure of (Lambda, r0), r0 = U b - Lambda U x0: the distinct
    values and r0's mass on each (Hestenes & Stiefel 1952; Golub & Meurant,
    Matrices, Moments and Quadrature, 2010).  So the loop runs from zero on
    one coordinate per value, with right-hand side w = sqrt(sum of r0^2 over
    the coordinates sharing it), and without an x recurrence; its final
    residual r maps back as U x = U x0 + r0 (w - r) / (w lambda), 0 where
    w = 0.  The stopping test stays ||r|| / ||U b||, and the residual is
    recomputed as U b - Lambda U x and mapped out with U^t, as is the
    solution.  CG is invariant under an orthogonal change of basis, so the
    iterations, the stopping decisions and x are those of plain CG on Q up
    to rounding: this is still plain CG, not a preconditioner.  As a
    precision the Eigenbasis is Lambda, which it applies for the residual
    from x0 and the recomputed one; each apply of Lambda or of the
    distinct-value diagonal is one multiply and counts as a Q-apply.  A
    dense factor offers the eigenbasis of its M^t M (DenseOperator.rotation),
    so a solve maps in and out with a fixed number of N x N matvecs and its
    iterations take none; the super-resolution conditional offers its
    PairRotation.

    b, x0 and the solution are vectors in whatever coordinates q.apply
    takes; the super-resolution Gibbs chain hands over HalfSpectrum
    coordinates, where Q, its P^-1 and its eigenbasis take no transform, so
    a solve there costs none, plain or preconditioned.

    At entry one dot checks the initial residual r: a finite r^t r means
    every entry is finite, and only a NaN or overflowing r^t r runs the
    entrywise test.  So an r holding NaN or inf raises the non-finite
    initial residual, and a finite r whose r^t r overflows passes on to the
    ||b|| check, as when every entry was tested.

    Args:
      q: object with apply(v) computing Qv for symmetric positive definite Q,
        and optionally rotation.
      b: right-hand side.
      x0: starting point (defaults to zero).
      epsilon: relative-residual threshold, finite and >= 0.
      max_iters: iteration cap, defaults to 10 * b.size.
      precondition: r -> M^-1 r, or None (the default) for plain CG.

    Raises:
      NumericalBreakdownError: non-finite values (||b|| among them),
        nonpositive curvature p^t Q p, indicating loss of positive
        definiteness, or a preconditioner that is not positive definite
        (r^t M^-1 r <= 0), at the CG iteration its message ends in.
    """
    b = np.asarray(b, dtype=float).ravel()
    n = b.size
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    if x.size != n:
        raise ConfigurationError(f"x0 length {x.size} != b length {n}")
    if not 0 <= epsilon < math.inf:
        raise ConfigurationError(f"epsilon must be finite and >= 0, got {epsilon}")
    if max_iters is None:
        max_iters = 10 * n
    if max_iters < 1:
        raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")

    rotation = None if precondition is not None else getattr(q, "rotation", None)
    if rotation is not None:
        # enter returns a new vector, so the in-place updates never reach x0
        q, b = rotation, rotation.enter(b)
        if x0 is not None:
            x = rotation.enter(x)
    elif x0 is not None:
        x = x.copy()
    b_norm = math.sqrt(b @ b)  # np.linalg.norm's formula, without its wrapper
    iterations, converged = 0, True
    if b_norm != 0.0:
        # from a zero start Qx is exactly zero, so r = b without a Q-apply
        r = b.copy() if x0 is None else b - q.apply(x)
        if not math.isfinite(r.dot(r)) and not np.all(np.isfinite(r)):
            raise NumericalBreakdownError("non-finite initial residual at CG iteration 0")
        if not math.isfinite(b_norm):  # a finite b whose b^t b overflows
            raise NumericalBreakdownError(f"non-finite ||b|| = {b_norm} at CG iteration 0")
        if rotation is None:
            iterations, converged = _iterate(q, r, x, b_norm, epsilon, max_iters, precondition)
        else:
            # one coordinate per distinct eigenvalue, weighted by r's mass on it
            distinct, group = rotation.distinct, rotation.group
            weight = np.sqrt(np.bincount(group, r * r))
            left = weight.copy()
            iterations, converged = _iterate(distinct, left, None, b_norm, epsilon,
                                             max_iters, None)
            scale = np.divide(weight - left, weight * distinct.values,
                              out=np.zeros(weight.size), where=weight > 0)
            x += r * scale[group]
    residual = b - q.apply(x)
    relative = math.sqrt(residual @ residual) / b_norm if b_norm else 0.0
    if rotation is not None:
        x, residual = rotation.leave(x), rotation.leave(residual)
    return CGOutcome(x, iterations, relative, residual, converged)


def _iterate(q, r, x, b_norm, epsilon, max_iters, precondition):
    """The CG loop from residual r, updated in place, as is x unless it is
    None, preconditioned by ``precondition`` unless it is None; returns
    (iterations, converged).

    Every vector update runs in place through one scratch vector s per
    solve (s = step p, then s = step Qp), with the floating-point operations
    of x += step p, r -= step Qp and p = (rz_next / rz) p + z in that order,
    so the iterates are bitwise those of the textbook loop
    (tests/oracles.py, textbook_cg_iterate).  Q p still goes through
    q.apply, one Q-apply per iteration, and the loop never writes into what
    q.apply returns, which may be a view or p itself."""
    rs = float(r @ r)
    iterations, converged = 0, True
    if math.sqrt(rs) / b_norm > epsilon:
        apply, add, subtract, multiply, sqrt = q.apply, np.add, np.subtract, np.multiply, math.sqrt
        z, rz = (r, rs) if precondition is None else _preconditioned(precondition, r, 0)
        p = z.copy()
        s = np.empty_like(p)
        # ndarray.dot runs the dot kernel of @ on vectors, at half its call cost
        p_dot, r_dot = p.dot, r.dot
        for iterations in range(1, max_iters + 1):
            qp = apply(p)
            curvature = float(p_dot(qp))
            if not 0.0 < curvature < math.inf:
                raise NumericalBreakdownError(f"nonpositive or non-finite curvature "
                                              f"p^tQp = {curvature} at CG iteration {iterations}")
            step = rz / curvature
            if x is not None:
                add(x, multiply(p, step, s), x)
            subtract(r, multiply(qp, step, s), r)
            rs_next = float(r_dot(r))
            if not math.isfinite(rs_next):
                raise NumericalBreakdownError(f"non-finite residual at CG iteration {iterations}")
            if sqrt(rs_next) / b_norm <= epsilon:
                break
            if precondition is None:
                z, rz_next = r, rs_next
            else:
                z, rz_next = _preconditioned(precondition, r, iterations)
            add(multiply(p, rz_next / rz, p), z, p)
            rz = rz_next
        else:
            converged = False
    return iterations, converged


def _preconditioned(precondition, r, iteration):
    """z = M^-1 r and r^t z, checked to be positive."""
    z = precondition(r)
    rz = float(r @ z)
    # a non-finite entry of z makes r^t z non-finite, so this covers it too
    if not math.isfinite(rz) or rz <= 0.0:
        raise NumericalBreakdownError(f"preconditioner is not positive definite: "
                                      f"r^t M^-1 r = {rz} at CG iteration {iteration}")
    return z, rz
