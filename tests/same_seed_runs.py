"""Run the fixed-seed CLI list that gates a refactor, each into OUTDIR/<name>/.

    PYTHONPATH=src python tests/same_seed_runs.py OUTDIR

Every run goes through rjpo.cli.main with the rjpo on the import path, so
the same list run from two checkouts, then

    python tests/compare_outputs.py PARENT_OUT CHANGE_OUT

gates all of it in one call: a refactor that keeps every arithmetic
operation leaves every file identical except the timing lines.  The runs
are short (about 20 s together on one core) but reach every sampler,
both controllers (MinCces at its default window and at a set one), the
PSRF study, a curve whose rjpo chains almost never move, the exact
super-resolution reference, a 3 x 3 decimation under tpo and under the
exact solve, an exact chain on three frames, whose several alias terms
precondition by P^-1, a fixed-threshold rjpo chain on six frames, whose
one alias term puts its plain solves in Q's eigenbasis, an arjpo chain on
three frames at 64 x 64, whose truncated plain solves apply the
several-alias Q itself, and two chains with every phase sampled once
(four frames at factor 2, C = I, no alias term): an exact one, whose draw
applies the closed-form Q^-1 = P^-1, and an arjpo one, whose truncated
plain solves apply the diagonal Q itself.  The two-frame runs
(superres64_arjpo, superres64_epo, superres16_reference, both of its
chains), the six-frame run and the full-coverage runs have at most one
alias term and draw their perturbations through Q^(1/2)
(SpectralConditional.root); the factor-3 and three-frame
runs have several and draw M + N normals through the frames'
back-projection and the isometry HalfSpectrum.embed.  The toy,
curve and adapt runs' plain solves run in the dense AR(1) factor's
eigenbasis (DenseOperator.rotation).  Prints one line per run with its
exit code and wall time; exits 0 when every run exited 0, 1 otherwise, 2
on a usage error.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from rjpo import cli

RUNS = {
    "toy_all": ["toy", "--sampler", "all", "--n-max", "5000", "--seed", "1"],
    "curve_psrf": ["curve", "--psrf", "--n-max", "1000", "--chains", "2",
                   "--epsilon-grid", "logspace:1e-4:1e-1:5", "--seed", "2"],
    "curve_loose": ["curve", "--n", "128", "--epsilon-grid", "0.5,0.9", "--n-max", "200",
                    "--seed", "0"],
    "adapt_target_rate": ["adapt", "--mode", "target_rate", "--n-max", "1000", "--seed", "3"],
    "adapt_min_cces": ["adapt", "--mode", "min_cces", "--n-max", "6000", "--seed", "4"],
    "adapt_min_cces_window": ["adapt", "--mode", "min_cces", "--window", "50",
                              "--n-max", "3000", "--seed", "5"],
    "superres64_arjpo": ["superres", "--dims", "64", "--sampler", "arjpo",
                         "--iterations", "300", "--burn-in", "30", "--seed", "13"],
    "superres64_epo": ["superres", "--dims", "64", "--sampler", "epo",
                       "--iterations", "300", "--burn-in", "30", "--seed", "13"],
    "superres16_reference": ["superres", "--dims", "16", "--fwhm", "1", "--sampler", "arjpo",
                             "--reference", "--iterations", "500", "--burn-in", "50",
                             "--seed", "9"],
    "superres30_factor3": ["superres", "--dims", "30", "--frames", "5", "--factor", "3",
                           "--fwhm", "1", "--sampler", "tpo", "--iterations", "300",
                           "--burn-in", "30", "--seed", "4"],
    "superres30_factor3_epo": ["superres", "--dims", "30", "--frames", "5", "--factor", "3",
                               "--fwhm", "1", "--sampler", "epo", "--iterations", "300",
                               "--burn-in", "30", "--seed", "4"],
    "superres32_three_frames_epo": ["superres", "--dims", "32", "--frames", "3", "--factor",
                                    "2", "--fwhm", "1", "--sampler", "epo", "--iterations",
                                    "200", "--burn-in", "20", "--seed", "6"],
    "superres32_six_frames_rjpo": ["superres", "--dims", "32", "--frames", "6", "--factor", "2",
                                   "--fwhm", "1", "--sampler", "rjpo", "--epsilon", "1e-3",
                                   "--iterations", "200", "--burn-in", "20", "--seed", "7"],
    "superres64_three_frames_arjpo": ["superres", "--dims", "64", "--frames", "3", "--sampler",
                                      "arjpo", "--iterations", "100", "--burn-in", "10",
                                      "--seed", "14"],
    "superres16_full_coverage_epo": ["superres", "--dims", "16", "--frames", "4", "--factor",
                                     "2", "--fwhm", "1", "--sampler", "epo", "--iterations",
                                     "200", "--burn-in", "20", "--seed", "8"],
    "superres16_full_coverage_arjpo": ["superres", "--dims", "16", "--frames", "4", "--factor",
                                       "2", "--fwhm", "1", "--sampler", "arjpo", "--iterations",
                                       "200", "--burn-in", "20", "--seed", "8"],
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tests/same_seed_runs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    failed = []
    for name, args in RUNS.items():
        start = time.perf_counter()
        code = cli.main([*args, "--out", str(outdir / name)])
        print(f"{name}: exit {code} in {time.perf_counter() - start:.1f} s", flush=True)
        if code != 0:
            failed.append(name)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
