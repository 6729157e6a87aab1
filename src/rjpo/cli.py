"""Command-line front end.

Four subcommands: `toy` (AR(1) moment-recovery study), `curve`
(acceptance/RMSE/cost versus truncation threshold), `adapt` (threshold
controllers), `superres` (multi-frame super-resolution Gibbs sampler).

Every finished run writes metadata.json (resolved config + seed + build id)
next to its outputs, last; numeric CSVs carry 17 significant digits so
downstream plotting loses nothing.  Exit codes: 0 ok, 1 config error, 2 numerical
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .adapt import (
    AdaptController,
    AdaptiveRjpoKernel,
    MinCces,
    TargetRate,
    make_kernel,
)
from .diag import ess, essr_cces, gelman_rubin, rmse
from .errors import ConfigurationError, NumericalBreakdownError
from .problems import ar1_target
from .rng import GENERATOR_NAME, RngStream
from .sampler import resolve_burn_in, run_chain
from . import superres as sr

SUBCOMMANDS = ("toy", "curve", "adapt", "superres")

# dest -> (parser, default); None defaults resolve at run time
_COMMON = {
    "seed": (int, 0),
    "out": (str, None),
    "config": (str, None),
}

_OPTIONS = {
    "toy": {
        "n": (int, 20),
        "sigma2": (float, 1.0),
        "rho": (float, 0.8),
        "sampler": (str, "epo"),
        "epsilon": (float, 1e-2),
        "n_max": (int, 100000),
        "n_min": (int, None),
        "chains": (int, 1),
    },
    "curve": {
        "n": (int, 16),
        "sigma2": (float, 1.0),
        "rho": (float, 0.8),
        "epsilon_grid": (str, "logspace:1e-6:1e-1:10"),
        "n_max": (int, 10000),
        "n_min": (int, None),
        "chains": (int, 4),
        "psrf": (bool, False),
        "psrf_threshold": (float, 1.1),
    },
    "adapt": {
        "n": (int, None),
        "sigma2": (float, 1.0),
        "rho": (float, 0.8),
        "mode": (str, "target_rate"),
        "alpha_t": (str, "0.5,0.8,0.99"),
        "k0": (float, 1.0),
        "kappa": (float, 0.5),
        "epsilon0": (float, None),
        "window": (int, None),
        "n_max": (int, None),
        "n_min": (int, None),
    },
    "superres": {
        "dims": (int, 64),
        "frames": (int, 2),
        "factor": (int, 2),
        "fwhm": (float, 4.0),
        "snr_db": (float, 20.0),
        "iterations": (int, 1000),
        "burn_in": (int, 100),
        "sampler": (str, "arjpo"),
        "alpha_t": (float, 0.99),
        "epsilon": (float, 1e-4),
        "input": (str, None),
        "reference": (bool, False),
    },
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we need them on 1."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="rjpo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", metavar="{%s}" % ",".join(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, add_help=True)
        # argparse reads `-5e-1` and `-inf` as options (on Python 3.11 only -1 and -1.5
        # look like negative numbers to it), so `--rho -5e-1` would lose its value
        p._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
        for dest, (kind, _) in {**_COMMON, **_OPTIONS[name]}.items():
            flag = "--" + dest.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=dest, type=kind, default=None)
    return parser


def _parse_config_file(path) -> dict:
    """`key = value` lines; '#' comments; values parsed as JSON when possible."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            try:
                entries[key] = json.loads(value)
            except json.JSONDecodeError:
                entries[key] = value
    return entries


def _coerce_file_value(path, dest, kind, value):
    """A config-file value as ``kind``: a bool key takes only JSON true/false,
    no other key takes them, and an int key takes no fractional number."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if (kind is bool) == isinstance(value, bool) and not fractional:
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{path}: {dest} = {value!r} is not a valid {kind.__name__}")


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge precedence: hard defaults < config file < explicit flags."""
    name = args.subcommand
    table = {**_COMMON, **_OPTIONS[name]}
    file_entries = {}
    if args.config is not None:
        file_entries = _parse_config_file(args.config)
        unknown = set(file_entries) - set(table)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for {name}: {', '.join(sorted(unknown))}"
            )
    cfg = {}
    for dest, (kind, default) in table.items():
        value = getattr(args, dest, None)
        if value is None and dest in file_entries:
            value = file_entries[dest]
            if value is not None:
                value = _coerce_file_value(args.config, dest, kind, value)
        if value is None:
            value = default
        cfg[dest] = value
    cfg["subcommand"] = name
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_metadata(outdir, cfg) -> None:
    config = {k: v for k, v in cfg.items() if k not in ("subcommand", "out", "config")}
    write_json(
        os.path.join(outdir, "metadata.json"),
        {
            "subcommand": cfg["subcommand"],
            "build": f"rjpo {__version__}",
            "generator": GENERATOR_NAME,
            "config": config,
        },
    )


def _parse_grid(spec: str) -> list[float]:
    """Grid forms: 'logspace:lo:hi:count' or comma-separated floats."""
    if spec.startswith("logspace:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ConfigurationError(f"bad grid spec {spec!r}; want logspace:lo:hi:count")
        try:
            lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigurationError(f"bad number in grid spec {spec!r}") from exc
        if not (0 < lo < hi) or count < 1:
            raise ConfigurationError(f"bad logspace range in {spec!r}")
        grid = list(np.logspace(math.log10(lo), math.log10(hi), count))
    else:
        try:
            grid = [float(v) for v in spec.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"bad epsilon grid {spec!r}") from exc
    if not grid:
        raise ConfigurationError("epsilon grid is empty")
    if not all(0.0 < e < 1.0 for e in grid):
        raise ConfigurationError(f"epsilon grid entries must lie in (0, 1), got {spec!r}")
    return sorted(grid)


def cmd_toy(cfg, outdir) -> None:
    if cfg["chains"] < 1:
        raise ConfigurationError(f"toy needs at least 1 chain, got {cfg['chains']}")
    samplers = (
        ["epo", "tpo", "rjpo"] if cfg["sampler"] == "all" else cfg["sampler"].split(",")
    )
    if len(set(samplers)) < len(samplers):  # each name owns its chain_<name>_<k>.csv
        raise ConfigurationError(f"toy sampler list {cfg['sampler']!r} repeats a name")
    for name in samplers:  # a bad name or epsilon is refused before any file is written
        make_kernel(name, epsilon=cfg["epsilon"])
    n_min = resolve_burn_in(cfg["n_max"], cfg["n_min"])
    master = RngStream(cfg["seed"])
    target, mu, cov = ar1_target(cfg["n"], cfg["sigma2"], cfg["rho"], stream=master)

    write_csv(os.path.join(outdir, "mu.csv"), ["i", "mu"], list(enumerate(mu)))
    rmse_rows = []
    for name in samplers:
        # chain k of every sampler reads child k of the seed; each sampler
        # spawns afresh, as a shared stream would go on where the last left off
        for k, stream in enumerate(master.spawn(cfg["chains"])):
            kernel = make_kernel(name, epsilon=cfg["epsilon"])
            chain = run_chain(target, kernel, cfg["n_max"], n_min, stream,
                              track_covariance=True)
            independent = name in ("epo", "cholesky_epo", "tpo")  # fresh eta, solved from 0
            rmse_rows.append(
                (name, k, *rmse(chain, mu, cov), chain.mean_acceptance,
                 chain.mean_cg_iterations, *essr_cces(chain, independent))
            )
            write_csv(
                os.path.join(outdir, f"chain_{name}_{k}.csv"),
                ["n", "alpha", "accepted", "cg_iters", "rel_residual"],
                zip(range(1, cfg["n_max"] + 1), chain.alphas, chain.accepted,
                    chain.cg_iterations, chain.relative_residuals),
            )
    write_csv(
        os.path.join(outdir, "rmse.csv"),
        ["sampler", "chain", "rmse_mean", "rmse_cov", "mean_alpha", "mean_J",
         "essr", "cces"],
        rmse_rows,
    )


def cmd_curve(cfg, outdir) -> None:
    if not math.isfinite(cfg["psrf_threshold"]):
        raise ConfigurationError(f"psrf_threshold must be finite, got {cfg['psrf_threshold']}")
    grid = _parse_grid(cfg["epsilon_grid"])
    n_max = cfg["n_max"]
    n_min = resolve_burn_in(n_max, cfg["n_min"])
    if n_max - n_min + 1 < 10:
        raise ConfigurationError(
            f"curve keeps samples {n_min}..{n_max}; its ESS and PSRF need at least 10"
        )
    if cfg["psrf"] and cfg["chains"] < 2:
        raise ConfigurationError("PSRF needs at least 2 chains")
    master = RngStream(cfg["seed"])
    target, mu, cov = ar1_target(cfg["n"], cfg["sigma2"], cfg["rho"], stream=master)

    acc_rows, rmse_rows, essr_rows = [], [], []
    # rjpo, tpo per grid point, the epo chain, then each grid point's PSRF chains
    chains = cfg["chains"] if cfg["psrf"] else 0
    streams = master.spawn(2 * len(grid) + 1 + len(grid) * chains)
    for i, eps in enumerate(grid):
        rj = run_chain(target, make_kernel("rjpo", epsilon=eps), n_max, n_min,
                       streams[2 * i], track_covariance=True)
        tp = run_chain(target, make_kernel("tpo", epsilon=eps), n_max, n_min,
                       streams[2 * i + 1], track_covariance=True)
        acc_rows.append((eps, rj.mean_acceptance, rj.mean_cg_iterations))
        rmse_rows.append(("rjpo", eps, *rmse(rj, mu, cov)))
        rmse_rows.append(("tpo", eps, *rmse(tp, mu, cov)))
        essr_rows.append(("rjpo", eps, *essr_cces(rj)))
    epo = run_chain(target, make_kernel("epo"), n_max, n_min, streams[2 * len(grid)],
                    track_covariance=True, store_samples=True)
    rmse_rows.append(("epo", 0.0, *rmse(epo, mu, cov)))
    # independence witness: ESSR measured from the sample series itself
    essr_measured = ess(epo.samples[n_min:, 0]) / epo.count
    essr_rows.append(("epo", 0.0, essr_measured, 0.0))

    write_csv(os.path.join(outdir, "acceptance.csv"),
              ["epsilon", "mean_alpha", "mean_J"], acc_rows)
    write_csv(os.path.join(outdir, "rmse_vs_eps.csv"),
              ["sampler", "epsilon", "rmse_mean", "rmse_cov"], rmse_rows)
    write_csv(os.path.join(outdir, "essr_cces.csv"),
              ["sampler", "epsilon", "essr", "cces"], essr_rows)

    if cfg["psrf"]:
        psrf_rows = []
        cov_chol = np.linalg.cholesky(cov)
        for i, eps in enumerate(grid):
            series = []
            first = 2 * len(grid) + 1 + i * chains
            for sub in streams[first:first + chains]:
                # overdispersed starts: mean plus 4 sigma in correlated shape
                initial = mu + 4.0 * (cov_chol @ sub.standard_normal_vector(cfg["n"]))
                ch = run_chain(target, make_kernel("rjpo", epsilon=eps), n_max, n_min, sub,
                               initial=initial, track_covariance=False,
                               store_samples=True)
                series.append(ch.samples[n_min:, 0])
            psrf = gelman_rubin(series)
            psrf_rows.append((eps, psrf, cfg["psrf_threshold"],
                              psrf < cfg["psrf_threshold"]))
        write_csv(os.path.join(outdir, "psrf.csv"),
                  ["epsilon", "psrf", "threshold", "converged"], psrf_rows)


# mode -> defaults of n, n_max and epsilon0
_ADAPT_DEFAULTS = {"target_rate": (16, 1000, 1e-3), "min_cces": (128, 12000, 1e-2)}


def cmd_adapt(cfg, outdir) -> None:
    mode = cfg["mode"]
    if mode not in _ADAPT_DEFAULTS:
        raise ConfigurationError(f"mode must be target_rate or min_cces, got {mode!r}")
    n, n_max, epsilon0 = (default if cfg[key] is None else cfg[key] for key, default
                          in zip(("n", "n_max", "epsilon0"), _ADAPT_DEFAULTS[mode]))
    if not epsilon0 > 0:
        raise ConfigurationError(f"epsilon0 must be positive, got {epsilon0}")
    master = RngStream(cfg["seed"])
    target, mu, cov = ar1_target(n, cfg["sigma2"], cfg["rho"], stream=master)

    # both modes check both setpoint options before any chain, so neither
    # runs with, or records in metadata.json, a value the other refuses
    try:
        rates = [TargetRate(float(v)) for v in cfg["alpha_t"].split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"bad alpha_t list {cfg['alpha_t']!r}: {exc}") from exc
    if len({f"{rate.alpha_t:g}" for rate in rates}) < len(rates):
        raise ConfigurationError(f"alpha_t list {cfg['alpha_t']!r} repeats a trajectory file name")
    window = cfg["window"]
    min_cces = MinCces(window_size=window) if window is not None else MinCces()

    # (trajectory file, setpoint, stream) per run
    if mode == "target_rate":
        # every setpoint reads the seed's first child, as it would alone
        runs = [(f"trajectory_alpha_{rate.alpha_t:g}.csv", rate, master.spawn(1)[0])
                for rate in rates]
    else:
        runs = [("trajectory_min_cces.csv", min_cces, master)]

    finished = []
    for filename, setpoint, stream in runs:
        ctrl = AdaptController(log_epsilon=math.log(epsilon0), mode=setpoint,
                               k0=cfg["k0"], kappa=cfg["kappa"])
        kernel = AdaptiveRjpoKernel(ctrl)
        chain = run_chain(target, kernel, n_max, cfg["n_min"], stream, track_covariance=False)
        # step n, the epsilon step n ran with, its acceptance and its CG iterations
        traj = np.column_stack([np.arange(1, chain.alphas.size + 1), kernel.epsilons,
                                chain.alphas, chain.cg_iterations])
        write_csv(os.path.join(outdir, filename), ["n", "epsilon", "alpha", "cg_iters"], traj)
        finished.append((ctrl, traj))

    if mode == "target_rate":
        summary = {"mode": mode, "runs": [{
            "alpha_t": ctrl.mode.alpha_t,
            "trailing_mean_alpha": float(traj[-min(200, n_max):, 2].mean()),
            "final_epsilon": float(traj[-1, 1]),
            "n_max": n_max,
        } for ctrl, traj in finished]}
    else:
        ((ctrl, traj),) = finished
        trail = traj[-min(2000, n_max):]
        logeps = np.log(trail[:, 1])
        alpha, jits = trail[:, 2], trail[:, 3]
        mean_alpha, mean_j = float(alpha.mean()), float(jits.mean())
        # plain OLS of alpha and J on log eps over the trail; the slopes'
        # common denominator cancels in dalpha/dJ = S_xalpha / S_xJ
        resid = None
        if logeps.min() < logeps.max() and jits.min() < jits.max():
            dx = logeps - logeps.mean()
            sxj = float(dx @ (jits - mean_j))
            if sxj != 0.0:
                sxa = float(dx @ (alpha - mean_alpha))
                resid = mean_j * (sxa / sxj) - mean_alpha + mean_alpha**2 / 2
        summary = {
            "mode": mode,
            "epsilon_star": float(np.exp(logeps.mean())),
            "trailing_mean_alpha": mean_alpha,
            "trailing_mean_cg_iters": mean_j,
            "fixed_point_residual": resid,
            "degenerate_windows": ctrl.degenerate_windows,
            "n_max": n_max,
        }
    write_json(os.path.join(outdir, "summary.json"), summary)


def _kept_statistics(records: np.ndarray, burn_in: int) -> dict:
    """summary.json's figures over the kept sweeps records[burn_in:] of a
    run_gibbs record: the mean acceptance, the mean and peak CG iterations,
    and each gamma's mean, sample std (0 for one sweep) and ess, None (null
    in the JSON) under 10 kept sweeps or for a constant series."""
    kept = dict(zip(sr.RECORD_COLUMNS, records[burn_in:].T))
    stats = {"mean_acceptance": float(kept["alpha"].mean()),
             "mean_cg_iters": float(kept["cg_iters"].mean()),
             "peak_cg_iters": int(kept["cg_iters"].max())}
    for name in ("gamma_y", "gamma_x"):
        values = kept[name]
        stats[f"{name}_mean"] = float(values.mean())
        stats[f"{name}_std"] = float(values.std(ddof=1)) if values.size >= 2 else 0.0
        try:
            stats[f"{name}_ess"] = ess(values)
        except ValueError:
            stats[f"{name}_ess"] = None
    return stats


def cmd_superres(cfg, outdir) -> None:
    if cfg["input"] is not None:
        pixels, max_val = sr.read_pgm(cfg["input"])
        truth = pixels / max_val
    else:
        truth = sr.phantom((cfg["dims"], cfg["dims"]))
    model = sr.make_model(
        truth.shape, frames=cfg["frames"], decimation_factor=cfg["factor"],
        fwhm=cfg["fwhm"], snr_db=cfg["snr_db"],
    )
    master = RngStream(cfg["seed"])
    synth_stream, run_stream = master.spawn(2)
    # The reference restarts the run seed so both chains consume identical
    # perturbation noise (paired comparison; see run_gibbs on substreams).
    ref_stream = RngStream(run_stream.seed)
    observations = sr.synthesize(model, truth, synth_stream)

    sampler = make_kernel(cfg["sampler"], epsilon=cfg["epsilon"], alpha_t=cfg["alpha_t"])
    summary = sr.run_gibbs(model, observations, cfg["iterations"], cfg["burn_in"],
                           sampler, run_stream)
    sr.write_pgm(os.path.join(outdir, "ground_truth.pgm"), truth * sr.PGM_MAX)
    sr.write_pgm(os.path.join(outdir, "posterior_mean.pgm"), summary.x_mean * sr.PGM_MAX)
    write_csv(os.path.join(outdir, "chain.csv"), sr.RECORD_COLUMNS, summary.records)
    payload = {"sampler": cfg["sampler"], **_kept_statistics(summary.records, cfg["burn_in"]),
               "wall_time_seconds": summary.wall_time}

    if cfg["reference"] and cfg["sampler"] not in ("epo", "cholesky_epo"):
        ref = sr.run_gibbs(model, observations, cfg["iterations"], cfg["burn_in"],
                           make_kernel("epo"), ref_stream)
        sr.write_pgm(os.path.join(outdir, "reference_mean.pgm"), ref.x_mean * sr.PGM_MAX)
        write_csv(os.path.join(outdir, "reference_chain.csv"), sr.RECORD_COLUMNS,
                  ref.records)
        stats = _kept_statistics(ref.records, cfg["burn_in"])
        payload["reference"] = {"wall_time_seconds": ref.wall_time}
        for name in ("gamma_y", "gamma_x"):
            mean = payload["reference"][f"{name}_mean"] = stats[f"{name}_mean"]
            payload["reference"][f"{name}_ess"] = stats[f"{name}_ess"]
            payload[f"{name}_rel_deviation"] = abs(payload[f"{name}_mean"] - mean) / mean
    write_json(os.path.join(outdir, "summary.json"), payload)


_DISPATCH = {"toy": cmd_toy, "curve": cmd_curve, "adapt": cmd_adapt,
             "superres": cmd_superres}


def run_subcommand(name: str, cfg: dict, outdir: str) -> None:
    """Resolved-config entry point; also what metadata-driven re-runs call.
    metadata.json goes last, so a run that fails leaves none."""
    if cfg["seed"] < 0:
        raise ConfigurationError(f"seed must be non-negative, got {cfg['seed']}")
    metadata = {**cfg, "subcommand": name}
    os.makedirs(outdir, exist_ok=True)
    _DISPATCH[name](cfg, outdir)
    _write_metadata(outdir, metadata)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.subcommand is None:
            raise ConfigurationError(f"missing subcommand ({', '.join(SUBCOMMANDS)})")
        cfg = resolve_config(args)
        outdir = cfg["out"] if cfg["out"] is not None else os.path.join(
            "runs", cfg["subcommand"])
        run_subcommand(cfg["subcommand"], cfg, outdir)
    except ConfigurationError as exc:
        print(f"rjpo: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalBreakdownError as exc:
        print(f"rjpo: numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rjpo: i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
