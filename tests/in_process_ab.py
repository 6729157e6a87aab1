"""Time two checkouts' rjpo against each other in one process, block by block.

    python tests/in_process_ab.py PARENT_ROOT CHANGE_ROOT [--control] [--blocks N]
                                  [--workloads ar1-cces,ar1-epo,sr64-arjpo,sr64-exact]

Loads ROOT/src/rjpo of each checkout as a package of its own name
(rjpo_parent, rjpo_change) with importlib: every import inside the package
is relative, so both trees run side by side under one interpreter, one heap
and one machine load, which a comparison of two processes cannot hold
equal.  Each block runs perfbench's four chains once on each tree, with
perfbench's seed 1 in every block: ar1-cces (AR(1), N = 128, MinCces(200)
from eps 1e-2: 1000 untimed steps, then 4000 timed), ar1-epo (the same
target, 4000 exact draws), sr64-arjpo (64 x 64, 2 frames, arjpo at
alpha_t 0.99 from eps 1e-2, 100 Gibbs sweeps) and sr64-exact (the same
data, the exact draw, 40 sweeps).  The side that runs first alternates
from block to block.  ``--workloads`` names the ones to run,
comma-separated, so a change that moves one workload's outputs by design
can still check the others.  A block's outputs must be bit-identical
between the trees (the chain state, J and alpha per step, and the
adaptive chain's epsilon; each column of the Gibbs records and the
posterior mean), or the run stops with exit 1 and names each output that
differs with its largest relative difference.

Prints one line per block with each side's milliseconds per step (per
sweep), then per workload the median over blocks of each side, the median
paired ratio change / parent and the number of blocks in which the change
was faster.  ``--control`` loads PARENT_ROOT for both sides (CHANGE_ROOT may
then be omitted): an A/A control, whose ratio shows what load order and
layout alone do.  This is evidence tooling, not a gate.  Exits 0, 1 when
outputs differ, 2 on a usage error.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # one BLAS/OpenMP thread, set before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# workload -> (untimed warm-up steps, timed steps or sweeps)
SIZES = {"ar1-cces": (1000, 4000), "ar1-epo": (0, 4000), "sr64-arjpo": (0, 100),
         "sr64-exact": (0, 40)}


def load_tree(root, name: str) -> dict:
    """The modules of ROOT/src/rjpo loaded as the package ``name``."""
    tree = Path(root).resolve() / "src" / "rjpo"
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, tree / "__init__.py", submodule_search_locations=[str(tree)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("adapt", "problems", "rng", "sampler", "superres")}


def ar1_chain(tree: dict, kernel, warmup: int, steps: int, seed: int):
    """(seconds per timed step, outputs) of one chain of ``kernel`` on the
    AR(1) target, N = 128."""
    rng = tree["rng"]
    problem_seed, run_seed = rng.derive_seeds(seed, 2)
    target, _, _ = tree["problems"].ar1_target(128, 1.0, 0.8,
                                               stream=rng.RngStream(problem_seed))
    stream, start = rng.RngStream(run_seed), None
    run_chain = tree["sampler"].run_chain
    if warmup:
        start = run_chain(target, kernel, warmup, None, stream, track_covariance=False).x
    t0 = time.perf_counter()
    chain = run_chain(target, kernel, steps, None, stream, initial=start,
                      track_covariance=False)
    elapsed = time.perf_counter() - t0
    return elapsed / steps, {"state": chain.x, "J": chain.cg_iterations, "alpha": chain.alphas}


def ar1_cces(tree: dict, warmup: int, steps: int, seed: int = 1):
    adapt = tree["adapt"]
    kernel = adapt.AdaptiveRjpoKernel(adapt.AdaptController(math.log(1e-2), adapt.MinCces()))
    seconds, outputs = ar1_chain(tree, kernel, warmup, steps, seed)
    return seconds, {**outputs, "epsilon": np.array(kernel.epsilons)}


def ar1_epo(tree: dict, warmup: int, steps: int, seed: int = 1):
    return ar1_chain(tree, tree["adapt"].make_kernel("epo"), warmup, steps, seed)


def sr64_gibbs(tree: dict, sampler, sweeps: int, seed: int):
    """(seconds per sweep, outputs) of one 64 x 64 Gibbs run of ``sampler``."""
    sr, rng = tree["superres"], tree["rng"]
    synth_seed, run_seed = rng.derive_seeds(seed, 2)
    model = sr.make_model((64, 64), frames=2, decimation_factor=2, fwhm=4.0, snr_db=20.0)
    observations = sr.synthesize(model, sr.phantom((64, 64)), rng.RngStream(synth_seed))
    t0 = time.perf_counter()
    summary = sr.run_gibbs(model, observations, sweeps, sweeps // 10, sampler,
                           rng.RngStream(run_seed))
    elapsed = time.perf_counter() - t0
    return elapsed / sweeps, {**dict(zip(sr.RECORD_COLUMNS, summary.records.T)),
                              "x_mean": summary.x_mean}


def sr64_arjpo(tree: dict, warmup: int, sweeps: int, seed: int = 1):
    sampler = tree["adapt"].make_kernel("arjpo", alpha_t=0.99, epsilon0=1e-2)
    return sr64_gibbs(tree, sampler, sweeps, seed)


def sr64_exact(tree: dict, warmup: int, sweeps: int, seed: int = 1):
    return sr64_gibbs(tree, tree["adapt"].make_kernel("epo"), sweeps, seed)


WORKLOADS = {"ar1-cces": ar1_cces, "ar1-epo": ar1_epo, "sr64-arjpo": sr64_arjpo,
             "sr64-exact": sr64_exact}


def differing_outputs(parent: dict, change: dict) -> list[str]:
    """One entry per output that is not bit-identical between the two
    sides: its name and its largest elementwise relative difference
    |a - b| / max(|a|, |b|), or its two shapes where they differ."""
    found = []
    for name, a in parent.items():
        b = change[name]
        if np.array_equal(a, b):
            continue
        if np.shape(a) != np.shape(b):
            found.append(f"{name} (shapes {np.shape(a)} and {np.shape(b)})")
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.abs(a - b) / np.where(scale > 0.0, scale, 1.0)
        found.append(f"{name} (largest relative difference {rel.max():.2e})")
    return found


def run_blocks(parent_root, change_root, blocks: int, sizes=SIZES, report=print) -> dict:
    """Alternate ``blocks`` blocks of every workload between the two trees.

    Returns, per workload, the lists of per-step seconds of each side
    ("parent", "change"), one entry per block.  Raises ValueError at the
    first block whose outputs differ between the trees, naming each
    output that differs (differing_outputs)."""
    trees = {"parent": load_tree(parent_root, "rjpo_parent"),
             "change": load_tree(change_root, "rjpo_change")}
    times = {name: {"parent": [], "change": []} for name in sizes}
    for block in range(blocks):
        order = ("parent", "change") if block % 2 == 0 else ("change", "parent")
        cells = []
        for name, (warmup, steps) in sizes.items():
            outputs = {}
            for side in order:
                seconds, outputs[side] = WORKLOADS[name](trees[side], warmup, steps)
                times[name][side].append(seconds)
            differ = differing_outputs(outputs["parent"], outputs["change"])
            if differ:
                raise ValueError(f"block {block + 1}: {name} outputs differ between the "
                                 f"trees: {'; '.join(differ)}")
            cells.append(f"{name} {1e3 * times[name]['parent'][-1]:.4f} / "
                         f"{1e3 * times[name]['change'][-1]:.4f} ms")
        report(f"block {block + 1} ({order[0]} first): " + "; ".join(cells))
    return times


def summarize(times: dict) -> dict:
    """Per workload: each side's median ms, the median paired ratio change /
    parent and the number of blocks in which the change was faster."""
    out = {}
    for name, sides in times.items():
        ratios = [c / p for p, c in zip(sides["parent"], sides["change"])]
        out[name] = {"parent_ms": 1e3 * statistics.median(sides["parent"]),
                     "change_ms": 1e3 * statistics.median(sides["change"]),
                     "ratio": statistics.median(ratios),
                     "wins": sum(r < 1.0 for r in ratios), "blocks": len(ratios)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root", nargs="?")
    parser.add_argument("--control", action="store_true",
                        help="load PARENT_ROOT on both sides (an A/A control)")
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(SIZES),
                        help="comma-separated workloads to run (default: all)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.control:
        args.change_root = args.parent_root
    names = args.workloads.split(",")
    if args.change_root is None or args.blocks < 1 or not set(names) <= set(SIZES):
        print("usage: in_process_ab.py PARENT_ROOT CHANGE_ROOT [--control] [--blocks N >= 1] "
              f"[--workloads a subset of {','.join(SIZES)}]", file=sys.stderr)
        return 2
    try:
        times = run_blocks(args.parent_root, args.change_root, args.blocks,
                           {name: SIZES[name] for name in names},
                           report=lambda line: print(line, flush=True))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    for name, row in summarize(times).items():
        print(f"{name}: parent {row['parent_ms']:.4f} ms, change {row['change_ms']:.4f} ms, "
              f"paired ratio {row['ratio']:.4f}, change faster in {row['wins']} of "
              f"{row['blocks']} blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
