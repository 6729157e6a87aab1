"""Rerun a `rjpo superres` output directory with every eta moved by one ulp.

    python tests/ulp_control.py DIR_A DIR_B

DIR_A holds a finished `rjpo superres` run; its metadata.json carries the
whole resolved config.  The tool reruns that config into DIR_B with every
perturbation eta of the x draws replaced by np.nextafter(eta, inf), one ulp
up in each entry, and prints compare_outputs' report of DIR_A against
DIR_B.  A truncated CG solve amplifies rounding far above machine
precision, so a changed digit between two code versions in an `arjpo` or
`rjpo` chain means something only next to this control: a change no larger
than the control's is rounding.  The rerun uses the rjpo on the import
path.  Exits 0 when the control ran, 1 when DIR_A is not a superres run,
2 on a usage error.
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


@contextlib.contextmanager
def etas_moved_by_one_ulp():
    """Every eta drawn by rjpo.sampler.perturb moved one ulp up, for the
    duration of the block."""
    perturb = rjpo.sampler.perturb

    def moved(target, stream):
        return np.nextafter(perturb(target, stream), np.inf)

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
    meta = json.loads((Path(dir_a) / "metadata.json").read_text())
    if meta.get("subcommand") != "superres":
        print(f"{dir_a}: not a superres run", file=sys.stderr)
        return 1
    with etas_moved_by_one_ulp():
        cli.run_subcommand("superres", dict(meta["config"]), dir_b)
    print("\n".join(compare(dir_a, dir_b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
