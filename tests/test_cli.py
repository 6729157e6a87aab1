"""CLI surface: exit codes, config merging, reproducibility, file formats."""

import contextlib
import functools
import io
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rjpo
import rjpo.sampler
from rjpo import cli
from rjpo import superres as sr
from rjpo.diag import ess
from rjpo.errors import ConfigurationError
from same_seed_runs import RUNS

TOY_TINY = ["toy", "--n", "8", "--n-max", "400", "--sampler", "rjpo",
            "--epsilon", "1e-2", "--seed", "3"]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ----------------------------------------------------------------- exit codes

def test_toy_run_succeeds_and_writes_outputs(tmp_path):
    out = tmp_path / "toy"
    assert cli.main(TOY_TINY + ["--out", str(out)]) == 0
    for name in ("metadata.json", "mu.csv", "rmse.csv", "chain_rjpo_0.csv"):
        assert (out / name).exists(), name
    header = (out / "rmse.csv").read_text().splitlines()[0]
    assert header == "sampler,chain,rmse_mean,rmse_cov,mean_alpha,mean_J,essr,cces"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["subcommand"] == "toy"
    assert meta["generator"] == "pcg64"
    assert meta["config"]["n"] == 8 and meta["config"]["seed"] == 3


def test_toy_cost_columns_cover_the_kept_steps(tmp_path):
    """rmse.csv's mean_alpha and mean_J are the means of the chain CSV's
    rows with n > n_min (default n_max // 10), and essr and cces follow
    from them: alpha / (2 - alpha) for rjpo, 1 for tpo, whose draws are
    independent whatever alpha it records."""
    out = tmp_path / "toy"
    assert cli.main(["toy", "--n", "8", "--n-max", "400", "--sampler", "rjpo,tpo",
                     "--epsilon", "0.3", "--seed", "3", "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "rmse.csv", delimiter=",", names=True, dtype=None,
                         encoding="ascii")
    assert rows.shape == (2,)
    for row in rows:
        chain = np.genfromtxt(out / f"chain_{row['sampler']}_0.csv", delimiter=",", names=True)
        kept = chain[chain["n"] > 40]
        assert kept.size == 360
        alpha, mean_j = kept["alpha"].mean(), kept["cg_iters"].mean()
        assert row["mean_alpha"] == alpha and row["mean_J"] == mean_j
        essr = alpha / (2.0 - alpha) if row["sampler"] == "rjpo" else 1.0
        assert row["essr"] == essr and row["cces"] == mean_j / essr
    assert rows[rows["sampler"] == "tpo"]["mean_alpha"][0] < 1.0


def test_missing_subcommand_is_a_config_error():
    assert cli.main([]) == 1


def test_unknown_flag_is_a_config_error():
    assert cli.main(["toy", "--bogus", "1"]) == 1


def test_negative_values_in_exponent_form_parse(tmp_path):
    """A negative value in exponent form or -inf is an option's value, not an
    unknown option: `--rho -5e-1` runs with rho -0.5, and an SNR of -inf dB
    and a negative epsilon reach their own range errors."""
    out = tmp_path / "toy"
    assert cli.main(["toy", "--rho", "-5e-1", "--n-max", "20", "--out", str(out)]) == 0
    assert json.loads((out / "metadata.json").read_text())["config"]["rho"] == -0.5
    rc, err = run_cli(["superres", "--snr-db", "-inf", "--out", str(tmp_path / "sr")])
    assert rc == 1 and "snr_db must be a real number or +inf, got -inf" in err
    # every sampler refuses it, also the default epo and arjpo, which never read it
    for sampler in ("rjpo", "epo", "arjpo"):
        rc, err = run_cli(["toy", "--sampler", sampler, "--epsilon", "-1e-3",
                           "--out", str(tmp_path / sampler)])
        assert rc == 1 and f"{sampler} epsilon must lie in (0, 1), got -0.001" in err
    rc, err = run_cli(["toy", "--epsilon", "-1e-3", "--out", str(tmp_path / "default")])
    assert rc == 1 and "epo epsilon must lie in (0, 1), got -0.001" in err


def test_unknown_sampler_is_a_config_error(tmp_path):
    rc = cli.main(["toy", "--sampler", "nope", "--n", "8", "--n-max", "50",
                   "--out", str(tmp_path / "x")])
    assert rc == 1


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["toy", "--sampler", "tpo", "--epsilon", "nan"],
    ["toy", "--sampler", "rjpo", "--epsilon", "inf"],
    ["toy", "--sampler", "tpo", "--epsilon", "0"],
    ["superres", "--dims", "16", "--sampler", "tpo", "--epsilon", "nan"],
    ["superres", "--dims", "16", "--fwhm", "1", "--iterations", "3", "--burn-in", "1",
     "--sampler", "epo", "--epsilon", "nan"],
    ["superres", "--dims", "16", "--fwhm", "1", "--iterations", "3", "--burn-in", "1",
     "--sampler", "arjpo", "--epsilon", "0"],
    ["curve", "--epsilon-grid", "nan"],
    ["adapt", "--epsilon0", "0"],
    ["adapt", "--epsilon0", "-1e-3"],
    ["adapt", "--epsilon0", "nan"],
    ["adapt", "--mode", "min_cces", "--epsilon0", "inf"],
    ["curve", "--n-max", "5", "--epsilon-grid", "1e-2"],
    ["curve", "--n-max", "12", "--n-min", "8"],
    ["adapt", "--mode", "min_cces", "--window", "0", "--n-max", "100"],
    ["toy", "--chains", "0"],
    ["toy", "--chains", "-2"],
    ["toy", "--sigma2", "inf"],
    ["toy", "--sigma2", "nan"],
    ["curve", "--sigma2", "inf"],
    ["adapt", "--sigma2", "inf"],
    ["curve", "--epsilon-grid", "1.5", "--n", "8", "--n-max", "200"],
    ["curve", "--epsilon-grid", "logspace:1e-3:1:4", "--n", "8", "--n-max", "200"],
    ["toy", "--sampler", "rjpo,tpo", "--epsilon", "1.5", "--n-max", "200"],
    ["toy", "--sampler", "tpo", "--epsilon", "1", "--n-max", "200"],
    ["superres", "--dims", "16", "--fwhm", "1", "--iterations", "3", "--burn-in", "1",
     "--snr-db=-inf"],
    ["toy", "--sampler", "rjpo,rjpo", "--n-max", "200"],
    ["adapt", "--alpha-t", "0.5,0.50", "--n-max", "200"],
    ["adapt", "--alpha-t", "0.5,0.8,0.5000001", "--n-max", "200"],
    ["curve", "--n", "8", "--n-max", "200", "--epsilon-grid", "1e-2", "--psrf",
     "--psrf-threshold", "nan"],
    ["curve", "--n", "8", "--n-max", "200", "--epsilon-grid", "1e-2", "--psrf",
     "--psrf-threshold", "inf"],
    ["toy", "--n", "4", "--n-max", "20", "--seed", "-1"],
    ["adapt", "--k0", "nan"],
    ["adapt", "--k0", "inf"],
    ["adapt", "--mode", "target_rate", "--window", "0", "--n-max", "20", "--n-min", "0"],
    ["adapt", "--mode", "min_cces", "--alpha-t", "7", "--n-max", "20", "--n-min", "0"],
    ["adapt", "--mode", "min_cces", "--alpha-t", "0.5,0.50", "--n-max", "20", "--n-min", "0"],
])
def test_unusable_thresholds_are_config_errors(tmp_path, argv):
    """A threshold that is NaN, infinite or outside (0, 1), a PSRF
    threshold that is not finite, a sigma2 that is not positive and
    finite, an SNR of -inf dB, fewer than 1 chain, a zero MinCces window, a
    curve window too short for its ESS witness, a toy sampler or adapt
    setpoint listed twice (their output files would overwrite each other),
    a negative seed, or a controller gain k0 that is not finite exits 1
    with a config error, naming the gain, before any chain runs.  adapt
    checks its MinCces window and its alpha_t list in both modes, the one
    it runs and the one it ignores."""
    rc, err = run_cli(argv + ["--out", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("rjpo: config error:") and "Traceback" not in err
    if "--k0" in argv:
        assert "k0" in err


@pytest.mark.parametrize("argv", [
    ["superres", "--fwhm", "1000"],
    ["curve", "--n-max", "5"],
    ["superres", "--dims", "16", "--fwhm", "1", "--iterations", "3", "--burn-in", "3"],
    ["superres", "--dims", "16", "--fwhm", "1", "--iterations", "3", "--burn-in", "1",
     "--sampler", "rjpo", "--epsilon", "0"],
    ["toy", "--sampler", "tpo", "--epsilon", "0"],
    ["toy", "--sampler", "rjpo,nope", "--n-max", "50"],
    ["adapt", "--alpha-t", "0.5,1.5", "--n-max", "50"],
    ["toy", "--n-max", "100", "--n-min", "100"],
    ["curve", "--n", "8", "--n-max", "200", "--epsilon-grid", "1e-2", "--psrf",
     "--psrf-threshold", "nan"],
    ["toy", "--n", "4", "--n-max", "20", "--seed", "-1"],
    ["adapt", "--mode", "target_rate", "--window", "0", "--n-max", "20", "--n-min", "0"],
    ["adapt", "--mode", "min_cces", "--alpha-t", "7", "--n-max", "20", "--n-min", "0"],
])
def test_failed_runs_write_no_metadata(tmp_path, argv):
    """metadata.json marks a finished run: a run that exits 1 on its config
    leaves no file at all (a seed it refuses before making the directory),
    and a good run still writes it."""
    out = tmp_path / "x"
    rc, _ = run_cli(argv + ["--out", str(out)])
    assert rc == 1
    assert not out.exists() or list(out.iterdir()) == []
    assert cli.main(TOY_TINY + ["--out", str(out)]) == 0
    assert json.loads((out / "metadata.json").read_text())["subcommand"] == "toy"


NON_NUMERIC = st.one_of(
    st.text(alphabet="bcdghjkmopqvwxz", min_size=1, max_size=8),
    st.sampled_from(["1.5.2", "1e", "0x10", "--", "[1, 2]"]),
)
LENIENT = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@LENIENT
@given(word=NON_NUMERIC, form=st.sampled_from([
    ["curve", "--epsilon-grid", "{}"],
    ["curve", "--epsilon-grid", "1e-3,{}"],
    ["curve", "--epsilon-grid", "logspace:1e-4:{}:3"],
    ["adapt", "--alpha-t", "0.5,{}"],
    ["toy", "--config", "n = {}"],
    ["toy", "--config", "epsilon = {}"],
    ["curve", "--config", "epsilon_grid = {}"],
    ["adapt", "--config", "alpha_t = {}"],
]))
def test_malformed_values_exit_1_without_traceback(tmp_path, word, form):
    argv = [part.format(word) for part in form]
    if argv[1] == "--config":
        cfg = tmp_path / "malformed.cfg"
        cfg.write_text(argv[2] + "\n", encoding="utf-8")
        argv[2] = str(cfg)
    rc, err = run_cli(argv + ["--out", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("rjpo: config error:") and "Traceback" not in err


@LENIENT
@given(value=st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()),
       form=st.sampled_from([["toy", "n"], ["toy", "chains"], ["adapt", "window"],
                             ["superres", "dims"]]))
def test_fractional_config_integers_exit_1(tmp_path, value, form):
    """An int key given a non-integral number is an error, not truncated."""
    cfg = tmp_path / "fractional.cfg"
    cfg.write_text(f"{form[1]} = {value!r}\n", encoding="utf-8")
    rc, err = run_cli([form[0], "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("rjpo: config error:") and "Traceback" not in err


@pytest.mark.parametrize("entry", [
    ["curve", 'psrf = "no"'],
    ["curve", "psrf = no"],
    ["curve", "psrf = 1"],
    ["superres", 'reference = "false"'],
    ["superres", "reference = 0"],
    ["toy", "n = true"],
])
def test_config_booleans_are_json_true_or_false(tmp_path, entry):
    """A bool key takes only JSON true/false, and no other key takes them."""
    cfg = tmp_path / "bool.cfg"
    cfg.write_text(entry[1] + "\n", encoding="utf-8")
    rc, err = run_cli([entry[0], "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("rjpo: config error:") and "Traceback" not in err


@LENIENT
@given(field=st.integers(0, 2), bad=st.one_of(
    NON_NUMERIC.map(lambda w: ("word", w)),
    st.one_of(st.integers(max_value=0), st.integers(min_value=65536)).map(
        lambda m: ("max", str(m))),
))
def test_malformed_pgm_header_exits_3_without_traceback(tmp_path, field, bad):
    kind, token = bad
    header = ["4", "4", "255"]
    header[2 if kind == "max" else field] = token
    path = tmp_path / "malformed.pgm"
    path.write_bytes(("P5\n" + " ".join(header) + "\n").encode() + bytes(32))
    rc, err = run_cli(["superres", "--input", str(path), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert err.startswith("rjpo: i/o error:") and "Traceback" not in err


def test_numerical_breakdown_exits_2(tmp_path, monkeypatch):
    """Solver breakdowns surface as exit code 2 (the genuine raising paths
    are exercised in the sampler and Gibbs tests)."""
    from rjpo.errors import NumericalBreakdownError

    def blow_up(cfg, outdir):
        raise NumericalBreakdownError("curvature lost")

    monkeypatch.setitem(cli._DISPATCH, "toy", blow_up)
    assert cli.main(TOY_TINY + ["--out", str(tmp_path / "x")]) == 2


def test_capped_exact_solve_exits_2(tmp_path, monkeypatch):
    """An exact superres draw whose CG solve stops at its cap is a numerical
    failure (exit 2), never a written "exact" result.  Three frames, where
    the exact solve is preconditioned by the circulant mean and takes
    several iterations (two frames apply the closed-form Q^-1, with no CG)."""
    cap = 3
    monkeypatch.setattr(rjpo.sampler, "cg_solve",
                        functools.partial(rjpo.sampler.cg_solve, max_iters=cap))
    argv = ["superres", "--dims", "16", "--fwhm", "1.0", "--frames", "3", "--iterations", "3",
            "--burn-in", "1", "--sampler", "epo", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert not (tmp_path / "x" / "chain.csv").exists()
    monkeypatch.undo()  # positive control: uncapped, the same run succeeds
    assert cli.main(argv[:-1] + [str(tmp_path / "y")]) == 0
    # and every sweep needs more iterations than the cap, so the cap bit
    chain = np.genfromtxt(tmp_path / "y" / "chain.csv", delimiter=",", names=True)
    assert chain["cg_iters"].min() > cap


def test_unwritable_out_exits_io(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    rc = cli.main(TOY_TINY + ["--out", str(blocker / "sub")])
    assert rc == 3


def test_missing_input_image_exits_io(tmp_path):
    rc = cli.main(["superres", "--input", str(tmp_path / "absent.pgm"),
                   "--iterations", "3", "--burn-in", "1",
                   "--out", str(tmp_path / "run")])
    assert rc == 3


# ------------------------------------------------------------- config merges

def test_config_file_merging_precedence(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("n = 10\nrho = 0.5  # file value loses to the flag\n\n"
                   "n-max = 60.0\n")
    out = tmp_path / "merged"
    rc = cli.main(["toy", "--config", str(cfg), "--rho", "0.7",
                   "--out", str(out)])
    assert rc == 0
    resolved = json.loads((out / "metadata.json").read_text())["config"]
    assert resolved["n"] == 10          # file overrides the default 20
    assert resolved["rho"] == 0.7       # explicit flag wins over the file
    assert resolved["n_max"] == 60      # dashed key normalized, integral float taken
    assert isinstance(resolved["n_max"], int)
    assert resolved["sigma2"] == 1.0    # untouched default


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["toy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


def test_malformed_config_line_is_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert cli.main(["toy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


def test_same_seed_run_list_parses():
    """Every argv of tests/same_seed_runs.py is a valid command line, and
    the list reaches all four subcommands."""
    for name, argv in RUNS.items():
        cfg = cli.resolve_config(cli.build_parser().parse_args([*argv, "--out", "out"]))
        assert cfg["subcommand"] == argv[0], name
    assert {argv[0] for argv in RUNS.values()} == set(cli.SUBCOMMANDS)


def test_readme_study_commands_parse():
    """Every `rjpo ...` line of the README's Command line code block, the
    one record of the standard studies, is a valid command line, and the
    studies reach all four subcommands."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("rjpo ")]
    for argv in commands:
        cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
        assert cfg["subcommand"] == argv[0], argv
    assert {argv[0] for argv in commands} == set(cli.SUBCOMMANDS)


def test_grid_specs():
    grid = cli._parse_grid("logspace:1e-3:1e-1:3")
    assert grid == pytest.approx([1e-3, 1e-2, 1e-1])
    assert cli._parse_grid("2e-2,1e-3") == [1e-3, 2e-2]
    with pytest.raises(ConfigurationError):
        cli._parse_grid("logspace:1e-1:1e-3:3")
    with pytest.raises(ConfigurationError):
        cli._parse_grid("")
    with pytest.raises(ConfigurationError):
        cli._parse_grid("-0.5,1.0")


# ------------------------------------------------------------ reproducibility

def test_toy_reruns_are_byte_identical(tmp_path):
    outs = [tmp_path / f"run{i}" for i in range(2)]
    for out in outs:
        assert cli.main(TOY_TINY + ["--out", str(out)]) == 0
    for name in os.listdir(outs[0]):
        if name.endswith(".csv"):
            assert read(outs[0] / name) == read(outs[1] / name), name


TOY_STUDY = ["toy", "--n", "8", "--n-max", "300", "--epsilon", "0.3", "--seed", "3",
             "--chains", "2"]


def test_toy_sampler_all_repeats_each_sampler_run_alone(tmp_path):
    """Chain k of every sampler reads child k of the seed, so each chain of
    `--sampler all` is byte for byte the chain of that sampler run alone."""
    assert cli.main([*TOY_STUDY, "--sampler", "all", "--out", str(tmp_path / "all")]) == 0
    all_rows = read(tmp_path / "all" / "rmse.csv").decode().splitlines()
    for name in ("epo", "tpo", "rjpo"):
        alone = tmp_path / name
        assert cli.main([*TOY_STUDY, "--sampler", name, "--out", str(alone)]) == 0
        for k in range(2):
            csv = f"chain_{name}_{k}.csv"
            assert read(tmp_path / "all" / csv) == read(alone / csv), csv
        alone_rows = read(alone / "rmse.csv").decode().splitlines()
        assert alone_rows[1:] == [row for row in all_rows if row.startswith(name + ",")]


def test_adapt_setpoint_list_repeats_each_setpoint_run_alone(tmp_path):
    """Every --alpha-t setpoint reads the seed's first child, so its
    trajectory and summary entry do not depend on the rest of the list."""
    base = ["adapt", "--n", "8", "--n-max", "150", "--seed", "3"]
    listed, alone = tmp_path / "listed", tmp_path / "alone"
    assert cli.main([*base, "--alpha-t", "0.5,0.8", "--out", str(listed)]) == 0
    assert cli.main([*base, "--alpha-t", "0.8", "--out", str(alone)]) == 0
    name = "trajectory_alpha_0.8.csv"
    assert read(listed / name) == read(alone / name)
    listed_runs = json.loads((listed / "summary.json").read_text())["runs"]
    alone_runs = json.loads((alone / "summary.json").read_text())["runs"]
    assert [run for run in listed_runs if run["alpha_t"] == 0.8] == alone_runs


def test_metadata_alone_reproduces_a_run(tmp_path):
    """metadata.json carries the whole resolved config: replaying it through
    run_subcommand yields byte-identical artifacts."""
    first = tmp_path / "first"
    assert cli.main(TOY_TINY + ["--out", str(first)]) == 0
    meta = json.loads((first / "metadata.json").read_text())
    replay = tmp_path / "replay"
    cli.run_subcommand(meta["subcommand"], dict(meta["config"]), str(replay))
    for name in os.listdir(first):
        if name.endswith(".csv"):
            assert read(first / name) == read(replay / name), name


def test_module_entry_point_runs(tmp_path):
    # the subprocess runs from tmp_path, so hand it the package's absolute root
    src = os.path.dirname(os.path.dirname(os.path.abspath(rjpo.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "rjpo"] + TOY_TINY + ["--n-max", "60",
                                                     "--out", str(tmp_path / "m")],
        capture_output=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()


# ------------------------------------------------------- subcommand outputs

def test_curve_outputs(tmp_path):
    out = tmp_path / "curve"
    rc = cli.main(["curve", "--n", "8", "--epsilon-grid", "1e-3,1e-2",
                   "--n-max", "300", "--seed", "5", "--out", str(out)])
    assert rc == 0
    acc = np.genfromtxt(out / "acceptance.csv", delimiter=",", names=True)
    assert acc.shape == (2,)
    assert np.all((acc["mean_alpha"] >= 0) & (acc["mean_alpha"] <= 1))
    rmse = (out / "rmse_vs_eps.csv").read_text().splitlines()
    assert len(rmse) == 1 + 2 * 2 + 1  # header, rjpo+tpo per eps, epo row
    assert rmse[-1].startswith("epo,0,")
    essr = (out / "essr_cces.csv").read_text().splitlines()
    assert essr[-1].startswith("epo,")


def test_curve_psrf_outputs(tmp_path):
    cfg = tmp_path / "psrf.cfg"
    cfg.write_text("psrf = true\n", encoding="utf-8")
    for i, switch in enumerate((["--psrf"], ["--config", str(cfg)])):
        out = tmp_path / f"curvep{i}"
        rc = cli.main(["curve", "--n", "8", "--epsilon-grid", "1e-2",
                       "--n-max", "300", "--chains", "2", *switch,
                       "--out", str(out)])
        assert rc == 0
        psrf = np.genfromtxt(out / "psrf.csv", delimiter=",", names=True)
        assert math.isfinite(float(psrf["psrf"]))
        assert json.loads((out / "metadata.json").read_text())["config"]["psrf"] is True


def test_curve_psrf_chains_have_their_own_streams(tmp_path, monkeypatch):
    """Every PSRF chain of every grid point runs on its own stream: the PSRF
    seeds are pairwise distinct across grid points and none is the seed of
    a grid chain (rjpo, tpo or epo)."""
    grid_seeds, psrf_seeds = [], []
    real_run_chain = cli.run_chain

    def recording(target, kernel, n_max, n_min, stream, **kwargs):
        seeds = psrf_seeds if "initial" in kwargs else grid_seeds
        seeds.append(stream.seed)
        return real_run_chain(target, kernel, n_max, n_min, stream, **kwargs)

    monkeypatch.setattr(cli, "run_chain", recording)
    rc = cli.main(["curve", "--n", "8", "--epsilon-grid", "1e-3,1e-2,1e-1",
                   "--n-max", "100", "--chains", "3", "--psrf", "--out", str(tmp_path / "x")])
    assert rc == 0
    assert len(grid_seeds) == 2 * 3 + 1 and len(psrf_seeds) == 3 * 3
    assert len(set(psrf_seeds)) == len(psrf_seeds)
    assert not set(psrf_seeds) & set(grid_seeds)


def test_curve_psrf_needs_two_chains(tmp_path):
    rc = cli.main(["curve", "--n", "8", "--epsilon-grid", "1e-2",
                   "--n-max", "100", "--chains", "1", "--psrf",
                   "--out", str(tmp_path / "x")])
    assert rc == 1
    assert not (tmp_path / "x" / "acceptance.csv").exists()


def test_adapt_target_rate_outputs(tmp_path):
    out = tmp_path / "adapt"
    rc = cli.main(["adapt", "--n", "8", "--alpha-t", "0.8", "--n-max", "150",
                   "--out", str(out)])
    assert rc == 0
    traj = np.genfromtxt(out / "trajectory_alpha_0.8.csv", delimiter=",", names=True)
    assert traj.shape == (150,)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "target_rate"
    assert summary["runs"][0]["alpha_t"] == 0.8


def test_adapt_min_cces_outputs(tmp_path):
    out = tmp_path / "mincces"
    rc = cli.main(["adapt", "--mode", "min_cces", "--n", "16", "--n-max", "300",
                   "--window", "50", "--epsilon0", "1e-3", "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory_min_cces.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epsilon_star"] > 0
    assert "fixed_point_residual" in summary
    assert summary["trailing_mean_alpha"] <= 1.0


def test_adapt_min_cces_degenerate_window_writes_null_residual(tmp_path):
    """A one-step trailing window has no spread, so the optimality residual
    is undefined: summary.json holds null there, and stays strict JSON."""
    out = tmp_path / "mincces"
    rc = cli.main(["adapt", "--mode", "min_cces", "--n-max", "1", "--n-min", "0",
                   "--out", str(out)])
    assert rc == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert summary["fixed_point_residual"] is None


def test_adapt_rejects_unknown_mode(tmp_path):
    rc = cli.main(["adapt", "--mode", "sideways", "--out", str(tmp_path / "x")])
    assert rc == 1


def test_superres_outputs(tmp_path):
    out = tmp_path / "sr"
    rc = cli.main(["superres", "--dims", "16", "--fwhm", "1.0",
                   "--iterations", "6", "--burn-in", "2", "--sampler", "tpo",
                   "--epsilon", "1e-6", "--out", str(out)])
    assert rc == 0
    truth, max_val = sr.read_pgm(out / "ground_truth.pgm")
    mean, _ = sr.read_pgm(out / "posterior_mean.pgm")
    assert truth.shape == (16, 16) and mean.shape == (16, 16)
    assert max_val == sr.PGM_MAX
    chain = np.genfromtxt(out / "chain.csv", delimiter=",", names=True)
    assert chain.shape == (6,)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sampler"] == "tpo"
    assert summary["wall_time_seconds"] > 0
    assert summary["gamma_y_mean"] > 0 and summary["gamma_x_mean"] > 0


def test_superres_reference_comparison(tmp_path):
    out = tmp_path / "srref"
    rc = cli.main(["superres", "--dims", "16", "--fwhm", "1.0",
                   "--iterations", "8", "--burn-in", "2", "--sampler", "arjpo",
                   "--reference", "--out", str(out)])
    assert rc == 0
    assert (out / "reference_mean.pgm").exists()
    assert (out / "reference_chain.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gamma_y_rel_deviation"] >= 0
    assert summary["gamma_x_rel_deviation"] >= 0
    assert summary["reference"]["gamma_y_mean"] > 0


def test_superres_reports_hyperparameter_ess(tmp_path):
    """summary.json gives diag.ess of gamma_y and gamma_x over the kept
    sweeps, for the run and for its reference, and null where ess is
    undefined (fewer than 10 kept sweeps)."""
    base = ["superres", "--dims", "16", "--fwhm", "1.0", "--sampler", "arjpo", "--reference"]
    out = tmp_path / "ess"
    assert cli.main(base + ["--iterations", "30", "--burn-in", "5", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    for section, csv in ((summary, "chain.csv"), (summary["reference"], "reference_chain.csv")):
        chain = np.genfromtxt(out / csv, delimiter=",", names=True)
        for name in ("gamma_y", "gamma_x"):
            assert section[f"{name}_ess"] == ess(chain[name][5:])
            assert 1 <= section[f"{name}_ess"] <= 25
    short = tmp_path / "short"
    assert cli.main(base + ["--iterations", "12", "--burn-in", "3", "--out", str(short)]) == 0
    summary = json.loads((short / "summary.json").read_text())
    for section in (summary, summary["reference"]):
        assert section["gamma_y_ess"] is None and section["gamma_x_ess"] is None


def test_superres_cost_summaries_cover_the_kept_sweeps(tmp_path):
    """summary.json's mean_acceptance, mean_cg_iters and peak_cg_iters are
    the statistics of chain.csv's rows with iter > burn_in."""
    out = tmp_path / "cost"
    assert cli.main(["superres", "--dims", "16", "--fwhm", "1.0", "--sampler", "arjpo",
                     "--iterations", "30", "--burn-in", "10", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    chain = np.genfromtxt(out / "chain.csv", delimiter=",", names=True)
    kept = chain[chain["iter"] > 10]
    assert kept.size == 20
    assert summary["mean_acceptance"] == kept["alpha"].mean()
    assert summary["mean_cg_iters"] == kept["cg_iters"].mean()
    assert summary["peak_cg_iters"] == kept["cg_iters"].max()


def test_superres_roundtrips_an_input_image(tmp_path):
    image = tmp_path / "scene.pgm"
    sr.write_pgm(image, sr.phantom((16, 16)) * sr.PGM_MAX)
    out = tmp_path / "srin"
    rc = cli.main(["superres", "--input", str(image), "--fwhm", "1.0",
                   "--iterations", "5", "--burn-in", "1", "--sampler", "tpo",
                   "--epsilon", "1e-6", "--out", str(out)])
    assert rc == 0
    truth, _ = sr.read_pgm(out / "ground_truth.pgm")
    assert truth.shape == (16, 16)
