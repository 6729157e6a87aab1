"""Print check 09's optimality residual over several seed pairs, per rule.

    PYTHONPATH=src python tests/cces_table.py [--rule current|z-normalised|both]
                                              [--pairs N] [--steps S]

Runs the harness of check 09 (tests/test_acceptance.py): the AR(1) target
N = 128, sigma^2 1, rho 0.8 drawn from RngStream(a), and one MinCces chain
from eps 1e-2 on RngStream(b) for S steps (20 000, as the check).  Over the
trailing 5000 steps it regresses alpha and J on log eps and prints the
residual J dalpha/dJ - (alpha - alpha^2/2), the mean alpha, eps* (the
geometric mean threshold) and the mean J.  It also prints the dive the
controller takes while its window first fills: the lowest threshold of
steps 1-1000 and its step, and the first step from which every later
threshold stays above 1e-5 (steps + 1 if the last one does not).  The
seed pairs are
(31 + 100 k, 32 + 100 k) for k < N: the first is check 09's own; the
default six are the usual table, and (631, 632) to (931, 932) are held
out.

``--rule z-normalised`` runs every step under the z-normalised RJPO rule:
z = eta + Q previous, plain CG from zero on z to eps ||z||, and
x_hat = f - previous, patched in for the run as ``rjpo.adapt.rjpo_step``.
Its solve depends on z alone, which makes the move the involution that
the strict xfails of tests/test_sampler.py ask for.  ``both`` prints the
two rules one after the other.  Each rule ends with one
markdown row: residuals, mean +- sd, pairs failing the check's 0.05 bound
and the range of alpha.  This is evidence tooling, not a gate; a 20 000-step
pair takes about 4 s on one core.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # one BLAS/OpenMP thread, set before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import math  # noqa: E402

import numpy as np  # noqa: E402
from oracles import ols_slope  # noqa: E402

import rjpo.adapt  # noqa: E402
from rjpo.adapt import AdaptController, AdaptiveRjpoKernel, MinCces  # noqa: E402
from rjpo.cg import cg_solve  # noqa: E402
from rjpo.problems import ar1_target  # noqa: E402
from rjpo.rng import RngStream  # noqa: E402
from rjpo.sampler import KernelOutcome, _acceptance_exponent, perturb, run_chain  # noqa: E402

BOUND = 0.05  # check 09's bound on |residual|
TRAIL = 5000  # check 09's trailing window
DIVE_STEPS = 1000  # the early steps searched for the lowest threshold
RECOVERED = 1e-5  # a threshold above this has recovered from the dive


def z_normalised_step(target, previous, stream, epsilon) -> KernelOutcome:
    """rjpo_step under the z-normalised rule: the solve sees
    z = eta + Q previous alone, so its stopping test no longer depends on
    the current state."""
    eta = perturb(target, stream)
    out = cg_solve(target.precision, eta + target.precision.apply(previous), epsilon=epsilon)
    x_hat = out.solution - previous
    log_alpha = min(0.0, _acceptance_exponent(out.residual_vector, previous, x_hat))
    u = stream.uniform()
    accepted = u <= 0.0 or math.log(u) < log_alpha
    return KernelOutcome(x_hat if accepted else previous, x_hat, math.exp(log_alpha),
                         accepted, out.iterations, out.relative_residual)


@contextlib.contextmanager
def rule(name: str):
    """Run AdaptiveRjpoKernel's steps under the named rule for the block."""
    if name == "current":
        yield
        return
    original = rjpo.adapt.rjpo_step
    rjpo.adapt.rjpo_step = z_normalised_step
    try:
        yield
    finally:
        rjpo.adapt.rjpo_step = original


def run_pair(problem_seed: int, run_seed: int, steps: int = 20_000) -> dict:
    """Check 09's figures for one seed pair under the rule in force."""
    target, _, _ = ar1_target(128, 1.0, 0.8, stream=RngStream(problem_seed))
    kernel = AdaptiveRjpoKernel(AdaptController(math.log(1e-2), MinCces()))
    chain = run_chain(target, kernel, steps, 0, RngStream(run_seed), track_covariance=False)
    trail = min(TRAIL, steps)
    log_eps = np.log(kernel.epsilons[-trail:])
    alpha, jits = chain.alphas[-trail:], chain.cg_iterations[-trail:]
    slope_a, slope_j = ols_slope(log_eps, alpha), ols_slope(log_eps, jits)
    mean_alpha, mean_j = float(alpha.mean()), float(jits.mean())
    eps = np.asarray(kernel.epsilons)
    dive = int(np.argmin(eps[:DIVE_STEPS]))
    below = np.flatnonzero(eps <= RECOVERED)
    return {"residual": mean_j * (slope_a / slope_j) - mean_alpha + mean_alpha**2 / 2,
            "alpha": mean_alpha, "eps_star": float(np.exp(log_eps.mean())), "j": mean_j,
            "dive_eps": float(eps[dive]), "dive_step": dive + 1,
            "recovered_step": int(below[-1]) + 2 if below.size else 1}


def table(rule_name: str, pairs, steps: int, report=print) -> list[dict]:
    """One line per pair, then the markdown summary row; returns the rows."""
    rows = []
    with rule(rule_name):
        for a, b in pairs:
            row = run_pair(a, b, steps)
            rows.append(row)
            report(f"{rule_name} ({a}, {b}): residual {row['residual']:+.4f}, "
                   f"alpha {row['alpha']:.3f}, eps* {row['eps_star']:.1e}, J {row['j']:.1f}; "
                   f"dive {row['dive_eps']:.1e} at step {row['dive_step']}, "
                   f"above {RECOVERED:.0e} from step {row['recovered_step']}")
    resid = np.array([row["residual"] for row in rows])
    alphas = [row["alpha"] for row in rows]
    spread = f" +- {resid.std(ddof=1):.3f}" if resid.size > 1 else ""
    report(f"| {rule_name} | {', '.join(f'{r:+.3f}' for r in resid)} | "
           f"{resid.mean():+.3f}{spread} | {int(np.sum(np.abs(resid) >= BOUND))} of "
           f"{resid.size} | {min(alphas):.3f}-{max(alphas):.3f} |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rule", choices=("current", "z-normalised", "both"), default="both")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--steps", type=int, default=20_000)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.pairs < 1 or args.steps < 3:
        print("usage: cces_table.py [--rule R] [--pairs N >= 1] [--steps S >= 3]",
              file=sys.stderr)
        return 2
    pairs = [(31 + 100 * k, 32 + 100 * k) for k in range(args.pairs)]
    rules = ("current", "z-normalised") if args.rule == "both" else (args.rule,)
    for name in rules:
        table(name, pairs, args.steps, report=lambda line: print(line, flush=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
