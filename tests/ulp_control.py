"""Rerun an `rjpo` output directory with every eta moved by one ulp, both ways.

    python tests/ulp_control.py DIR_A DIR_B

DIR_A holds a finished `rjpo` run of any subcommand; its metadata.json
carries the whole resolved config.  The tool reruns that config twice, into
DIR_B/up with every perturbation eta replaced by np.nextafter(eta, inf), one
ulp up in each entry, and into DIR_B/down with np.nextafter(eta, -inf), and
prints compare_outputs' report of DIR_A against each.  Every kernel draws
eta through rjpo.sampler.perturb, so `toy`, `curve`, `adapt` and
`superres` runs all take the control.  A truncated CG solve amplifies
rounding far above machine precision, so a changed digit between two code
versions means something only next to this control, and the two
directions give a range rather than one draw of it: a change no larger
than the controls' is rounding.  The reruns use the rjpo on the import
path.  Exits 0 when both controls ran, 1 when DIR_A holds no
metadata.json, 2 on a usage error.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

import rjpo.sampler
from rjpo import cli
from compare_outputs import compare

DIRECTIONS = {"up": np.inf, "down": -np.inf}


@contextlib.contextmanager
def etas_moved_by_one_ulp(towards):
    """Every eta drawn by rjpo.sampler.perturb moved one ulp towards
    ``towards``, for the duration of the block."""
    perturb = rjpo.sampler.perturb

    def moved(target, stream):
        return np.nextafter(perturb(target, stream), towards)

    rjpo.sampler.perturb = moved
    try:
        yield
    finally:
        rjpo.sampler.perturb = perturb


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
    for name, towards in DIRECTIONS.items():
        moved_dir = Path(dir_b) / name
        with etas_moved_by_one_ulp(towards):
            cli.run_subcommand(meta["subcommand"], dict(meta["config"]), str(moved_dir))
        print(f"== eta one ulp {name}: {dir_a} against {moved_dir}")
        print("\n".join(compare(dir_a, moved_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
