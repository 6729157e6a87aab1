"""Command-line front end.

Four subcommands: `toy` (AR(1) moment-recovery study), `curve`
(acceptance/RMSE/cost versus truncation threshold), `adapt` (threshold
controllers), `superres` (multi-frame super-resolution Gibbs sampler).

Every run writes metadata.json (resolved config + seed + build id) next to
its outputs; numeric CSVs carry 17 significant digits so downstream
plotting loses nothing.  Exit codes: 0 ok, 1 config error, 2 numerical
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .adapt import (
    AdaptController,
    AdaptiveRjpoKernel,
    MinCces,
    TargetRate,
    essr_from_alpha,
    make_kernel,
)
from .diag import DiagnosticsReport, ess, gelman_rubin
from .errors import ConfigurationError, NumericalBreakdownError
from .problems import ar1_target
from .rng import GENERATOR_NAME, RngStream
from .sampler import run_chain
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
    sub = parser.add_subparsers(dest="subcommand", metavar="{toy,curve,adapt,superres}")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, add_help=True)
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
            if kind is not bool and value is not None:
                try:
                    value = kind(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(
                        f"{args.config}: {dest} = {value!r} is not a valid {kind.__name__}"
                    ) from exc
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


def _parse_grid(spec) -> list[float]:
    """Grid forms: 'logspace:lo:hi:count', comma-separated floats, or a list."""
    if isinstance(spec, str) and spec.startswith("logspace:"):
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
        if isinstance(spec, str):
            values = [v for v in spec.split(",") if v.strip()]
        else:
            values = spec if isinstance(spec, (list, tuple)) else [spec]
        try:
            grid = [float(v) for v in values]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad epsilon grid {spec!r}") from exc
    if not grid:
        raise ConfigurationError("epsilon grid is empty")
    if any(e <= 0 for e in grid):
        raise ConfigurationError("epsilon grid entries must be positive")
    return sorted(grid)


def cmd_toy(cfg, outdir) -> None:
    samplers = (
        ["epo", "tpo", "rjpo"] if cfg["sampler"] == "all" else cfg["sampler"].split(",")
    )
    master = RngStream(cfg["seed"])
    target, mu, cov = ar1_target(cfg["n"], cfg["sigma2"], cfg["rho"], stream=master)
    streams = master.spawn(len(samplers) * cfg["chains"])

    write_csv(os.path.join(outdir, "mu.csv"), ["i", "mu"], list(enumerate(mu)))
    rmse_rows = []
    for si, name in enumerate(samplers):
        for k in range(cfg["chains"]):
            kernel = make_kernel(name, epsilon=cfg["epsilon"])
            chain = run_chain(
                target, kernel, cfg["n_max"], cfg["n_min"],
                streams[si * cfg["chains"] + k], track_covariance=True,
            )
            report = DiagnosticsReport.from_chain(chain, mu, cov)
            rmse_rows.append(
                (name, k, report.rmse_mean, report.rmse_cov, report.mean_acceptance,
                 report.mean_cg_iters, report.essr, report.cces)
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
    grid = _parse_grid(cfg["epsilon_grid"])
    master = RngStream(cfg["seed"])
    target, mu, cov = ar1_target(cfg["n"], cfg["sigma2"], cfg["rho"], stream=master)
    n_max = cfg["n_max"]
    n_min = cfg["n_min"] if cfg["n_min"] is not None else n_max // 10

    acc_rows, rmse_rows, essr_rows = [], [], []
    streams = master.spawn(2 * len(grid) + 1)
    for i, eps in enumerate(grid):
        rj = run_chain(target, make_kernel("rjpo", epsilon=eps), n_max, n_min,
                       streams[2 * i], track_covariance=True)
        tp = run_chain(target, make_kernel("tpo", epsilon=eps), n_max, n_min,
                       streams[2 * i + 1], track_covariance=True)
        alpha = float(rj.alphas[n_min:].mean())
        mean_j = float(rj.cg_iterations[n_min:].mean())
        acc_rows.append((eps, alpha, mean_j))
        rj_rep = DiagnosticsReport.from_chain(rj, mu, cov)
        tp_rep = DiagnosticsReport.from_chain(tp, mu, cov)
        rmse_rows.append(("rjpo", eps, rj_rep.rmse_mean, rj_rep.rmse_cov))
        rmse_rows.append(("tpo", eps, tp_rep.rmse_mean, tp_rep.rmse_cov))
        essr = essr_from_alpha(max(alpha, 1e-12))
        essr_rows.append(("rjpo", eps, essr, mean_j / essr))
    epo = run_chain(target, make_kernel("epo"), n_max, n_min, streams[-1],
                    track_covariance=True, store_samples=True)
    epo_rep = DiagnosticsReport.from_chain(epo, mu, cov)
    rmse_rows.append(("epo", 0.0, epo_rep.rmse_mean, epo_rep.rmse_cov))
    # independence witness: ESSR measured from the sample series itself
    essr_measured = ess(epo.samples[n_min:, 0]) / (n_max - n_min + 1)
    essr_rows.append(("epo", 0.0, essr_measured, 0.0))

    write_csv(os.path.join(outdir, "acceptance.csv"),
              ["epsilon", "mean_alpha", "mean_J"], acc_rows)
    write_csv(os.path.join(outdir, "rmse_vs_eps.csv"),
              ["sampler", "epsilon", "rmse_mean", "rmse_cov"], rmse_rows)
    write_csv(os.path.join(outdir, "essr_cces.csv"),
              ["sampler", "epsilon", "essr", "cces"], essr_rows)

    if cfg["psrf"]:
        if cfg["chains"] < 2:
            raise ConfigurationError("PSRF needs at least 2 chains")
        psrf_rows = []
        cov_chol = np.linalg.cholesky(cov)
        for i, eps in enumerate(grid):
            chains = []
            for k, sub in enumerate(master.spawn(cfg["chains"])):
                # overdispersed starts: mean plus 4 sigma in correlated shape
                initial = mu + 4.0 * (cov_chol @ sub.standard_normal_vector(cfg["n"]))
                ch = run_chain(target, make_kernel("rjpo", epsilon=eps), n_max, n_min, sub,
                               initial=initial, track_covariance=False,
                               store_samples=True)
                chains.append(ch.samples[n_min:, 0])
            psrf = gelman_rubin(chains)
            psrf_rows.append((eps, psrf, cfg["psrf_threshold"],
                              psrf < cfg["psrf_threshold"]))
        write_csv(os.path.join(outdir, "psrf.csv"),
                  ["epsilon", "psrf", "threshold", "converged"], psrf_rows)


def _ols_slope(x, y) -> float:
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def cmd_adapt(cfg, outdir) -> None:
    mode = cfg["mode"]
    if mode not in ("target_rate", "min_cces"):
        raise ConfigurationError(f"mode must be target_rate or min_cces, got {mode!r}")
    n = cfg["n"] if cfg["n"] is not None else (16 if mode == "target_rate" else 128)
    n_max = cfg["n_max"] if cfg["n_max"] is not None else (
        1000 if mode == "target_rate" else 12000
    )
    n_min = cfg["n_min"] if cfg["n_min"] is not None else n_max // 10
    epsilon0 = cfg["epsilon0"] if cfg["epsilon0"] is not None else (
        1e-3 if mode == "target_rate" else 1e-2
    )
    if not epsilon0 > 0:
        raise ConfigurationError(f"epsilon0 must be positive, got {epsilon0}")
    master = RngStream(cfg["seed"])
    target, mu, cov = ar1_target(n, cfg["sigma2"], cfg["rho"], stream=master)

    if mode == "target_rate":
        try:
            targets = [float(v) for v in str(cfg["alpha_t"]).split(",")]
        except ValueError as exc:
            raise ConfigurationError(f"bad alpha_t list {cfg['alpha_t']!r}: {exc}") from exc
        summary = []
        for alpha_t, sub in zip(targets, master.spawn(len(targets))):
            ctrl = AdaptController(
                log_epsilon=math.log(epsilon0), mode=TargetRate(alpha_t),
                k0=cfg["k0"], kappa=cfg["kappa"],
            )
            kernel = AdaptiveRjpoKernel(ctrl)
            run_chain(target, kernel, n_max, n_min, sub, track_covariance=False)
            traj = kernel.trajectory()
            write_csv(os.path.join(outdir, f"trajectory_alpha_{alpha_t:g}.csv"),
                      ["n", "epsilon", "alpha", "cg_iters"], traj)
            trailing = traj[-min(200, n_max):, 2]
            summary.append({
                "alpha_t": alpha_t,
                "trailing_mean_alpha": float(trailing.mean()),
                "final_epsilon": float(traj[-1, 1]),
                "n_max": n_max,
            })
        write_json(os.path.join(outdir, "summary.json"), {"mode": mode, "runs": summary})
        return

    window = cfg["window"]
    ctrl = AdaptController(
        log_epsilon=math.log(epsilon0),
        mode=MinCces(window_size=window) if window else MinCces(),
        k0=cfg["k0"], kappa=cfg["kappa"],
    )
    kernel = AdaptiveRjpoKernel(ctrl)
    run_chain(target, kernel, n_max, n_min, master, track_covariance=False)
    traj = kernel.trajectory()
    write_csv(os.path.join(outdir, "trajectory_min_cces.csv"),
              ["n", "epsilon", "alpha", "cg_iters"], traj)
    trail = traj[-min(2000, n_max):]
    logeps = np.log(trail[:, 1])
    alpha, jits = trail[:, 2], trail[:, 3]
    slope_a, slope_j = _ols_slope(logeps, alpha), _ols_slope(logeps, jits)
    mean_alpha, mean_j = float(alpha.mean()), float(jits.mean())
    resid = (mean_j * (slope_a / slope_j) - mean_alpha + mean_alpha**2 / 2
             if slope_j != 0 else float("nan"))
    write_json(os.path.join(outdir, "summary.json"), {
        "mode": mode,
        "epsilon_star": float(np.exp(logeps.mean())),
        "trailing_mean_alpha": mean_alpha,
        "trailing_mean_cg_iters": mean_j,
        "fixed_point_residual": resid,
        "degenerate_windows": ctrl.degenerate_windows,
        "n_max": n_max,
    })


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
    sr.write_pgm(os.path.join(outdir, "ground_truth.pgm"), truth * sr.PGM_MAX)

    sampler = make_kernel(cfg["sampler"], epsilon=cfg["epsilon"], alpha_t=cfg["alpha_t"])
    summary = sr.run_gibbs(model, observations, cfg["iterations"], cfg["burn_in"],
                           sampler, run_stream)
    sr.write_pgm(os.path.join(outdir, "posterior_mean.pgm"),
                 summary.posterior_mean_image * sr.PGM_MAX)
    write_csv(os.path.join(outdir, "chain.csv"),
              ["iter", "gamma_y", "gamma_x", "alpha", "cg_iters"], summary.records)
    payload = {
        "sampler": cfg["sampler"],
        "gamma_y_mean": summary.gamma_y_mean,
        "gamma_y_std": summary.gamma_y_std,
        "gamma_x_mean": summary.gamma_x_mean,
        "gamma_x_std": summary.gamma_x_std,
        "mean_acceptance": summary.mean_acceptance,
        "mean_cg_iters": summary.mean_cg,
        "peak_cg_iters": summary.peak_cg,
        "wall_time_seconds": summary.wall_time,
    }

    if cfg["reference"] and cfg["sampler"] not in ("epo", "cholesky_epo"):
        ref = sr.run_gibbs(model, observations, cfg["iterations"], cfg["burn_in"],
                           make_kernel("epo"), ref_stream)
        sr.write_pgm(os.path.join(outdir, "reference_mean.pgm"),
                     ref.posterior_mean_image * sr.PGM_MAX)
        write_csv(os.path.join(outdir, "reference_chain.csv"),
                  ["iter", "gamma_y", "gamma_x", "alpha", "cg_iters"], ref.records)
        payload["reference"] = {
            "gamma_y_mean": ref.gamma_y_mean,
            "gamma_x_mean": ref.gamma_x_mean,
            "wall_time_seconds": ref.wall_time,
        }
        payload["gamma_y_rel_deviation"] = abs(
            summary.gamma_y_mean - ref.gamma_y_mean) / ref.gamma_y_mean
        payload["gamma_x_rel_deviation"] = abs(
            summary.gamma_x_mean - ref.gamma_x_mean) / ref.gamma_x_mean
    write_json(os.path.join(outdir, "summary.json"), payload)


_DISPATCH = {"toy": cmd_toy, "curve": cmd_curve, "adapt": cmd_adapt,
             "superres": cmd_superres}


def run_subcommand(name: str, cfg: dict, outdir: str) -> None:
    """Resolved-config entry point; also what metadata-driven re-runs call."""
    os.makedirs(outdir, exist_ok=True)
    _write_metadata(outdir, {**cfg, "subcommand": name})
    _DISPATCH[name](cfg, outdir)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.subcommand is None:
            raise ConfigurationError("missing subcommand (toy, curve, adapt, superres)")
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
