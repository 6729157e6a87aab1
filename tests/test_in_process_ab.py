"""The in-process A/B tool: one tiny A/A block loads, runs and summarizes."""

import time
from pathlib import Path

import in_process_ab

ROOT = Path(__file__).resolve().parent.parent


def test_in_process_ab_runs_a_tiny_control_block():
    """This checkout loaded twice under the tool's two package names runs
    one short block of each workload in under 2 s, with bit-identical
    outputs on both sides, and the summary counts that block."""
    lines = []
    start = time.perf_counter()
    times = in_process_ab.run_blocks(ROOT, ROOT, 1, {"ar1-cces": (20, 50), "sr64-arjpo": (0, 3)},
                                     report=lines.append)
    assert time.perf_counter() - start < 2.0
    assert lines[0].startswith("block 1 (parent first): ar1-cces ")
    summary = in_process_ab.summarize(times)
    assert sorted(summary) == ["ar1-cces", "sr64-arjpo"]
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
