"""The output-comparison helper used to audit changed digits between commits."""

import json

from compare_outputs import compare, main, relative_change


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
