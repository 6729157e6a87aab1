"""Compare two output directories of the rjpo CLI, file by file.

    python tests/compare_outputs.py DIR_A DIR_B

For every file under either directory it prints whether the two copies are
byte-identical.  For a CSV file that differs it prints, per column, the
maximum relative change of its numeric cells and the number of rows that
changed; for a JSON file the same per field, with nested keys joined by
dots and list entries by their index.  The relative change of a and b is
|a - b| / max(|a|, |b|).  A changed JSON leaf named wall_time_seconds, at any
depth, is a measured time rather than a result: it is printed on a line of
its own that starts with "timing" and does not make its file differ.  Exits
0 when every file is identical up to such timing lines, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

TIMING_FIELD = "wall_time_seconds"


def relative_change(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numeric cells; None if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if math.isfinite(scale) else math.inf


def _column_changes(columns_a: dict, columns_b: dict) -> list[tuple[str, str]]:
    """(name, change) per changed column: max relative change and changed rows."""
    lines = []
    for name in dict.fromkeys([*columns_a, *columns_b]):
        if name not in columns_a or name not in columns_b:
            lines.append((name, f"only in {'B' if name in columns_b else 'A'}"))
            continue
        cells_a, cells_b = columns_a[name], columns_b[name]
        changed = [(a, b) for a, b in zip(cells_a, cells_b) if a != b]
        if not changed and len(cells_a) == len(cells_b):
            continue
        numeric = [r for r in (relative_change(a, b) for a, b in changed) if r is not None]
        largest = f"max rel {max(numeric):.2e}" if numeric else "non-numeric"
        line = f"{largest}, {len(changed)} of {len(cells_a)} rows changed"
        if len(cells_a) != len(cells_b):
            line += f" (row counts {len(cells_a)} vs {len(cells_b)})"
        lines.append((name, line))
    return lines


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _json_fields(value, prefix: str = "") -> dict[str, list[str]]:
    """Every leaf of a JSON document as a one-row column keyed by its path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = ((str(i), v) for i, v in enumerate(value))
    else:
        return {prefix: [json.dumps(value)]}
    fields = {}
    for key, child in items:
        fields.update(_json_fields(child, f"{prefix}.{key}" if prefix else key))
    return fields


def compare(dir_a, dir_b) -> list[str]:
    """The report lines for two directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.relative_to(root).as_posix()
                    for root in (dir_a, dir_b) for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"only in {'A' if a.is_file() else 'B'}  {name}")
        elif a.read_bytes() == b.read_bytes():
            lines.append(f"identical  {name}")
        else:
            changes, timing = [], []
            if a.suffix == ".csv":
                changes = _column_changes(_csv_columns(a), _csv_columns(b))
            elif a.suffix == ".json":
                for field, change in _column_changes(_json_fields(json.loads(a.read_text())),
                                                     _json_fields(json.loads(b.read_text()))):
                    is_timing = field.rsplit(".", 1)[-1] == TIMING_FIELD
                    (timing if is_timing else changes).append((field, change))
            if changes or not timing:
                lines.append(f"differs    {name}")
                lines += [f"    {field}: {change}" for field, change in changes]
            lines += [f"timing     {name}  {field}: {change}" for field, change in timing]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tests/compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    lines = compare(*argv)
    print("\n".join(lines))
    return 0 if all(line.startswith(("identical", "timing")) for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
