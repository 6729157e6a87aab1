"""The in-process A/B tool: one tiny A/A block loads, runs and summarizes, and a
block whose outputs differ names them."""

import time
from pathlib import Path

import numpy as np

import in_process_ab

ROOT = Path(__file__).resolve().parent.parent


def test_in_process_ab_runs_a_tiny_control_block():
    """This checkout loaded twice under the tool's two package names runs
    one short block of each of perfbench's four workloads in under 2 s,
    with bit-identical outputs on both sides, and the summary counts that
    block."""
    lines = []
    start = time.perf_counter()
    sizes = {"ar1-cces": (20, 50), "ar1-epo": (0, 50), "sr64-arjpo": (0, 3),
             "sr64-exact": (0, 2)}
    assert sorted(sizes) == sorted(in_process_ab.SIZES) == sorted(in_process_ab.WORKLOADS)
    times = in_process_ab.run_blocks(ROOT, ROOT, 1, sizes, report=lines.append)
    assert time.perf_counter() - start < 2.0
    assert lines[0].startswith("block 1 (parent first): ar1-cces ")
    assert "; ar1-epo " in lines[0] and "; sr64-exact " in lines[0]
    summary = in_process_ab.summarize(times)
    assert sorted(summary) == sorted(sizes)
    for row in summary.values():
        assert row["blocks"] == 1 and row["parent_ms"] > 0 and row["change_ms"] > 0
    assert in_process_ab.main(["--blocks", "0", str(ROOT), "--control"]) == 2
    assert in_process_ab.main(["--workloads", "ar1-cces,nope", str(ROOT), "--control"]) == 2


def test_in_process_ab_runs_only_the_workloads_it_is_given(monkeypatch, capsys):
    """``--workloads`` hands run_blocks only the named workloads, at their
    default sizes, and the summary reports only those."""
    seen = []

    def fake_run_blocks(parent_root, change_root, blocks, sizes, report):
        seen.append(sizes)
        return {name: {"parent": [1e-3], "change": [9e-4]} for name in sizes}

    monkeypatch.setattr(in_process_ab, "run_blocks", fake_run_blocks)
    assert in_process_ab.main([str(ROOT), "--control", "--workloads", "sr64-arjpo"]) == 0
    assert seen == [{"sr64-arjpo": in_process_ab.SIZES["sr64-arjpo"]}]
    assert capsys.readouterr().out.startswith("sr64-arjpo: parent 1.0000 ms")


def test_differing_outputs_names_each_output_and_its_largest_relative_difference():
    parent = {"state": np.array([1.0, -2.0]), "J": np.array([3, 4]),
              "epsilon": np.array([1e-3, 2e-3, 0.0]), "alpha": np.zeros(2)}
    change = {"state": np.array([1.0, -2.0]), "J": np.array([3, 5]),
              "epsilon": np.array([1e-3 * (1 + 2e-13), 2e-3, 0.0]), "alpha": np.zeros(3)}
    assert in_process_ab.differing_outputs(parent, change) == [
        "J (largest relative difference 2.00e-01)",
        "epsilon (largest relative difference 2.00e-13)",
        "alpha (shapes (2,) and (3,))"]
    assert in_process_ab.differing_outputs(parent, parent) == []


def test_a_block_whose_outputs_differ_exits_1_naming_them(monkeypatch, capsys):
    """The run stops at the first block whose outputs differ, exits 1 and
    names the output that differs; equal outputs are not named."""
    def workload(tree, warmup, steps):
        moved = tree["adapt"].__name__.startswith("rjpo_change")
        return 1e-3, {"state": np.ones(4), "J": np.arange(3),
                      "epsilon": np.array([1e-4 * (1 + 3e-12 if moved else 1.0)])}

    monkeypatch.setitem(in_process_ab.WORKLOADS, "ar1-cces", workload)
    assert in_process_ab.main([str(ROOT), str(ROOT), "--workloads", "ar1-cces"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("block 1: ar1-cces outputs differ between the trees: "
                            "epsilon (largest relative difference 3.00e-12)\n")
