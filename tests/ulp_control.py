"""Rerun an `rjpo` output directory with its etas, then its precisions,
moved by one ulp, both ways; a `superres` run with its observations moved
too; and a `superres --reference` run with only its reference chain's etas
moved.

    python tests/ulp_control.py DIR_A DIR_B

DIR_A holds a finished `rjpo` run of any subcommand; its metadata.json
carries the whole resolved config.  The tool reruns that config four times,
six for a `superres` run and eight for one with a reference chain, and
prints compare_outputs' report of DIR_A against each:

- the eta control, into DIR_B/up with every perturbation eta replaced by
  np.nextafter(eta, inf), one ulp up in each entry, and into DIR_B/down
  with np.nextafter(eta, -inf).  Every kernel draws eta through
  rjpo.sampler.perturb, so `toy`, `curve`, `adapt` and `superres` runs all
  take it.
- the precision control, into DIR_B/precision_up and DIR_B/precision_down
  with the target's precision moved one ulp the same ways: each
  super-resolution conditional's gamma_y and gamma_x, and for `toy`,
  `curve` and `adapt` every nonzero entry of the AR(1) Cholesky factor L.
  A change that rounds Q or its inverse differently moves the chain in a
  way that moving eta does not bound.
- the data control, into DIR_B/data_up and DIR_B/data_down, only for a
  `superres` run: every synthesized observation (the frames y that
  rjpo.superres.synthesize returns) moved one ulp the same ways.  A change
  that rounds the observations or b = gamma_y H^t y differently moves every
  sweep from the first, and a summary field such as the mean acceptance
  can then move past the eta and precision controls while each chain
  column stays inside them; this control bounds such a change.
- the reference control, into DIR_B/reference_up and
  DIR_B/reference_down, only for a `superres` run whose reference chain
  ran (DIR_A holds reference_chain.csv): the eta control on
  the reference chain alone, the sampler's chain untouched.  The
  deviations of the gamma means between the two chains
  (`gamma_*_rel_deviation`) divide their difference, so a change that
  moves only one chain can move them further than the two-chain controls
  do; this control bounds such a change.

A truncated CG solve amplifies rounding far above machine precision, so a
changed digit between two code versions means something only next to
these controls, and the two directions give a range rather than one draw
of it: a change no larger than the controls' is rounding.  The reruns use
the rjpo on the import path.  Exits 0 when every control ran, 1 when DIR_A
holds no metadata.json, 2 on a usage error.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

import rjpo.problems
import rjpo.sampler
import rjpo.superres
from rjpo import cli
from compare_outputs import compare

DIRECTIONS = {"up": np.inf, "down": -np.inf}


@contextlib.contextmanager
def _replaced(module, name, wrap):
    """module.name replaced by wrap(module.name) for the duration of the
    block."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def etas_moved_by_one_ulp(towards):
    """Every eta drawn by rjpo.sampler.perturb moved one ulp towards
    ``towards``, for the duration of the block."""
    def moved(perturb):
        return lambda target, stream: np.nextafter(perturb(target, stream), towards)

    return _replaced(rjpo.sampler, "perturb", moved)


@contextlib.contextmanager
def precisions_moved_by_one_ulp(towards):
    """Every target's precision moved one ulp towards ``towards``, for the
    duration of the block: gamma_y and gamma_x of each super-resolution
    conditional, built by rjpo.superres.conditional_target, which run_gibbs
    looks up there, and every nonzero entry of each AR(1) factor L, which
    rjpo.problems.ar1_target hands to target_from_cholesky."""
    def moved_gammas(conditional_target):
        return lambda model, back_projection, gamma_y, gamma_x: conditional_target(
            model, back_projection, np.nextafter(gamma_y, towards), np.nextafter(gamma_x, towards))

    def moved_factor(target_from_cholesky):
        return lambda low, mu: target_from_cholesky(
            np.where(low != 0, np.nextafter(low, towards), low), mu)

    with _replaced(rjpo.superres, "conditional_target", moved_gammas), \
            _replaced(rjpo.problems, "target_from_cholesky", moved_factor):
        yield


def observations_moved_by_one_ulp(towards):
    """Every observation synthesized by rjpo.superres.synthesize, which
    cli.cmd_superres looks up there, moved one ulp towards ``towards``, for
    the duration of the block."""
    def moved(synthesize):
        return lambda model, truth, stream: np.nextafter(synthesize(model, truth, stream), towards)

    return _replaced(rjpo.superres, "synthesize", moved)


def reference_etas_moved_by_one_ulp(towards):
    """The etas of the reference chain of a `superres --reference` run moved
    one ulp towards ``towards``, for the duration of the block: that chain
    is the second rjpo.superres.run_gibbs call of cli.cmd_superres, which
    runs inside etas_moved_by_one_ulp, and the first runs as it is."""
    def moved(run_gibbs):
        calls = itertools.count()

        def wrapped(*args):
            if next(calls) == 0:
                return run_gibbs(*args)
            with etas_moved_by_one_ulp(towards):
                return run_gibbs(*args)

        return wrapped

    return _replaced(rjpo.superres, "run_gibbs", moved)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/ulp_control.py DIR_A DIR_B", file=sys.stderr)
        return 2
    dir_a, dir_b = argv
    try:
        meta = json.loads((Path(dir_a) / "metadata.json").read_text())
    except FileNotFoundError:
        print(f"{dir_a}: no metadata.json, not a finished rjpo run", file=sys.stderr)
        return 1
    controls = [("eta", "", etas_moved_by_one_ulp),
                ("precision", "precision_", precisions_moved_by_one_ulp)]
    if meta["subcommand"] == "superres":
        controls.append(("data", "data_", observations_moved_by_one_ulp))
    if (Path(dir_a) / "reference_chain.csv").exists():
        controls.append(("reference eta", "reference_", reference_etas_moved_by_one_ulp))
    for control, prefix, moved in controls:
        for name, towards in DIRECTIONS.items():
            moved_dir = Path(dir_b) / f"{prefix}{name}"
            with moved(towards):
                cli.run_subcommand(meta["subcommand"], dict(meta["config"]), str(moved_dir))
            print(f"== {control} one ulp {name}: {dir_a} against {moved_dir}")
            print("\n".join(compare(dir_a, moved_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
