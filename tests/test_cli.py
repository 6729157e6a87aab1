"""CLI surface: exit codes, config merging, reproducibility, file formats."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rjpo
from rjpo import cli
from rjpo import superres as sr
from rjpo.errors import ConfigurationError

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


def test_missing_subcommand_is_a_config_error():
    assert cli.main([]) == 1


def test_unknown_flag_is_a_config_error():
    assert cli.main(["toy", "--bogus", "1"]) == 1


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
    ["curve", "--epsilon-grid", "nan"],
    ["adapt", "--epsilon0", "0"],
    ["adapt", "--epsilon0", "-1e-3"],
    ["adapt", "--epsilon0", "nan"],
    ["adapt", "--mode", "min_cces", "--epsilon0", "inf"],
])
def test_unusable_thresholds_are_config_errors(tmp_path, argv):
    """A NaN, infinite or nonpositive threshold exits 1 before any chain runs."""
    rc, err = run_cli(argv + ["--out", str(tmp_path / "x")])
    assert rc == 1
    assert err.startswith("rjpo: config error:")


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
        raise NumericalBreakdownError("curvature lost", iteration=7)

    monkeypatch.setitem(cli._DISPATCH, "toy", blow_up)
    assert cli.main(TOY_TINY + ["--out", str(tmp_path / "x")]) == 2


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
                   "n-max = 60\n")
    out = tmp_path / "merged"
    rc = cli.main(["toy", "--config", str(cfg), "--rho", "0.7",
                   "--out", str(out)])
    assert rc == 0
    resolved = json.loads((out / "metadata.json").read_text())["config"]
    assert resolved["n"] == 10          # file overrides the default 20
    assert resolved["rho"] == 0.7       # explicit flag wins over the file
    assert resolved["n_max"] == 60      # dashed key normalized
    assert resolved["sigma2"] == 1.0    # untouched default


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["toy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


def test_malformed_config_line_is_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert cli.main(["toy", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1


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
    out = tmp_path / "curvep"
    rc = cli.main(["curve", "--n", "8", "--epsilon-grid", "1e-2",
                   "--n-max", "300", "--chains", "2", "--psrf",
                   "--out", str(out)])
    assert rc == 0
    psrf = np.genfromtxt(out / "psrf.csv", delimiter=",", names=True)
    assert math.isfinite(float(psrf["psrf"]))


def test_curve_psrf_needs_two_chains(tmp_path):
    rc = cli.main(["curve", "--n", "8", "--epsilon-grid", "1e-2",
                   "--n-max", "100", "--chains", "1", "--psrf",
                   "--out", str(tmp_path / "x")])
    assert rc == 1


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
