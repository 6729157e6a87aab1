"""The output-comparison helper used to audit changed digits between commits."""

import json

import numpy as np

import rjpo.problems
import rjpo.sampler
import ulp_control
from compare_outputs import compare, main, relative_change
from rjpo import cli
from rjpo import superres as sr
from rjpo.problems import ar1_target
from rjpo.rng import RngStream


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_relative_change():
    assert relative_change("2.0", "2.0") == 0.0
    assert relative_change("1.0", "1.00") == 0.0
    assert relative_change("4.0", "5.0") == 0.2
    assert relative_change("-1.0", "1.0") == 2.0
    assert relative_change("nan", "nan") == 0.0
    assert relative_change("tpo", "rjpo") is None


def test_compare_reports_files_columns_and_fields(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    same = {"run/image.pgm": "P5 bytes", "run/notes.txt": "x"}
    _write(a, {**same,
               "run/chain.csv": "iter,alpha,sampler\n1,0.5,tpo\n2,0.25,tpo\n3,1.0,tpo\n",
               "run/summary.json": json.dumps({"mean": 2.0, "runs": [1, 2], "ok": True}),
               "only_a.csv": "x\n1\n"})
    _write(b, {**same,
               "run/chain.csv": "iter,alpha,sampler\n1,0.5,tpo\n2,0.5,rjpo\n3,1.1,tpo\n",
               "run/summary.json": json.dumps({"mean": 2.0, "runs": [1, 4], "ok": False})})
    assert compare(a, b) == [
        "only in A  only_a.csv",
        "differs    run/chain.csv",
        "    alpha: max rel 5.00e-01, 2 of 3 rows changed",
        "    sampler: non-numeric, 1 of 3 rows changed",
        "identical  run/image.pgm",
        "identical  run/notes.txt",
        "differs    run/summary.json",
        "    runs.1: max rel 5.00e-01, 1 of 1 rows changed",
        "    ok: non-numeric, 1 of 1 rows changed",
    ]
    assert main([str(a), str(b)]) == 1
    assert main([str(a / "run"), str(a / "run")]) == 0
    assert "identical  chain.csv" in capsys.readouterr().out


def test_wall_time_differences_are_timing_lines(tmp_path, capsys):
    """Summaries that differ only in wall_time_seconds, at any depth, compare
    as equal and print the timing lines; any other changed field still
    fails."""
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    summary = {"gamma_x_mean": 412.5, "wall_time_seconds": 1.25,
               "reference": {"wall_time_seconds": 2.0}}
    _write(a, {"summary.json": json.dumps(summary)})
    _write(b, {"summary.json": json.dumps({**summary, "wall_time_seconds": 1.5,
                                           "reference": {"wall_time_seconds": 2.5}})})
    _write(c, {"summary.json": json.dumps({**summary, "wall_time_seconds": 1.5,
                                           "gamma_x_mean": 412.75})})
    timing = "timing     summary.json  wall_time_seconds: max rel 1.67e-01, 1 of 1 rows changed"
    assert main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        timing,
        "timing     summary.json  reference.wall_time_seconds: max rel 2.00e-01,"
        " 1 of 1 rows changed",
    ]
    assert main([str(a), str(c)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs    summary.json",
        "    gamma_x_mean: max rel 6.06e-04, 1 of 1 rows changed",
        timing,
    ]


def test_ulp_control_reruns_a_superres_run_with_moved_etas(tmp_path, capsys):
    """The control replays DIR_A's config into DIR_B/up and DIR_B/down with
    every eta one ulp up and one ulp down, then into DIR_B/precision_up and
    DIR_B/precision_down with each conditional's gamma_y and gamma_x, or
    each nonzero entry of the AR(1) factor, one ulp up and down, and for a
    `superres` run into DIR_B/data_up and DIR_B/data_down with every
    synthesized observation one ulp up and down; it restores what it moved
    afterwards, and prints every comparison: same config, moved chain.  Any
    finished run takes it; a directory without metadata.json does not."""
    model = sr.make_model((16, 16), fwhm=1.0)
    back = model.half_spectrum.back_project(np.ones(model.data_count))
    target = sr.conditional_target(model, back, 2.0, 0.5)
    perturb = rjpo.sampler.perturb
    conditional_target = sr.conditional_target
    target_from_cholesky = rjpo.problems.target_from_cholesky
    synthesize = sr.synthesize
    low = ar1_target(4, stream=RngStream(2))[0].precision.matrix.T
    observations = synthesize(model, sr.phantom((16, 16)), RngStream(4))
    for towards in (np.inf, -np.inf):
        with ulp_control.etas_moved_by_one_ulp(towards):
            moved = rjpo.sampler.perturb(target, RngStream(1))
        assert rjpo.sampler.perturb is perturb
        assert np.array_equal(moved, np.nextafter(perturb(target, RngStream(1)), towards))
        with ulp_control.precisions_moved_by_one_ulp(towards):
            gammas = sr.conditional_target(model, back, 2.0, 0.5).precision.gammas
            moved_low = ar1_target(4, stream=RngStream(2))[0].precision.matrix.T
        assert sr.conditional_target is conditional_target
        assert rjpo.problems.target_from_cholesky is target_from_cholesky
        assert gammas == (np.nextafter(2.0, towards), np.nextafter(0.5, towards))
        assert np.array_equal(moved_low, np.where(low != 0, np.nextafter(low, towards), 0.0))
        with ulp_control.observations_moved_by_one_ulp(towards):
            moved = sr.synthesize(model, sr.phantom((16, 16)), RngStream(4))
        assert sr.synthesize is synthesize
        assert np.array_equal(moved, np.nextafter(observations, towards))

    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["superres", "--dims", "16", "--fwhm", "1.0", "--iterations", "6",
                     "--burn-in", "2", "--seed", "3", "--out", str(a)]) == 0
    capsys.readouterr()
    assert ulp_control.main([str(a), str(b)]) == 0
    assert rjpo.sampler.perturb is perturb
    assert sr.conditional_target is conditional_target
    assert sr.synthesize is synthesize
    report = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in report if line.startswith("==")] == [
        "== eta one ulp up", "== eta one ulp down",
        "== precision one ulp up", "== precision one ulp down",
        "== data one ulp up", "== data one ulp down"]
    for name in ("ground_truth.pgm", "metadata.json"):
        assert report.count(f"identical  {name}") == 6
    assert report.count("differs    chain.csv") == 6
    assert ulp_control.main([str(a)]) == 2
    assert cli.main(["toy", "--n", "4", "--n-max", "50", "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    assert ulp_control.main([str(tmp_path / "t"), str(tmp_path / "u")]) == 0
    report = capsys.readouterr().out
    assert report.count("identical  metadata.json") == 4
    assert report.count("differs    chain_epo_0.csv") == 4
    assert rjpo.problems.target_from_cholesky is target_from_cholesky
    for name in ("up", "down", "precision_up", "precision_down"):
        assert (tmp_path / "u" / name / "metadata.json").exists()
    assert ulp_control.main([str(tmp_path / "u"), str(tmp_path / "v")]) == 1


def test_ulp_reference_control_moves_only_the_reference_chain(tmp_path, capsys):
    """On a `superres --reference` run the control adds DIR_B/reference_up
    and DIR_B/reference_down, where only the reference chain's etas move:
    the sampler's chain and posterior mean stay byte-identical, the
    reference chain differs.  It restores run_gibbs afterwards, and a run
    without a reference chain gets no such control."""
    run_gibbs = sr.run_gibbs
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["superres", "--dims", "16", "--fwhm", "1.0", "--sampler", "arjpo",
                     "--reference", "--iterations", "6", "--burn-in", "2", "--seed", "3",
                     "--out", str(a)]) == 0
    capsys.readouterr()
    assert ulp_control.main([str(a), str(b)]) == 0
    assert sr.run_gibbs is run_gibbs
    report = capsys.readouterr().out.split("== ")[1:]
    assert [block.split(":")[0] for block in report] == [
        "eta one ulp up", "eta one ulp down", "precision one ulp up",
        "precision one ulp down", "data one ulp up", "data one ulp down",
        "reference eta one ulp up", "reference eta one ulp down"]
    for block in report[:6]:
        assert "differs    chain.csv" in block and "differs    reference_chain.csv" in block
    for block in report[6:]:
        assert "identical  chain.csv" in block and "identical  posterior_mean.pgm" in block
        assert "differs    reference_chain.csv" in block
    assert (b / "reference_down" / "metadata.json").exists()
    # an epo run has no reference chain, even with --reference
    assert cli.main(["superres", "--dims", "16", "--fwhm", "1.0", "--sampler", "epo",
                     "--reference", "--iterations", "3", "--burn-in", "1",
                     "--out", str(tmp_path / "e")]) == 0
    assert ulp_control.main([str(tmp_path / "e"), str(tmp_path / "f")]) == 0
    assert sorted(path.name for path in (tmp_path / "f").iterdir()) == [
        "data_down", "data_up", "down", "precision_down", "precision_up", "up"]
