"""Count the size of the rjpo source: lines per module and settable values.

    python tests/source_size.py [ROOT]

ROOT is a checkout (default: the one holding this file).  Prints each
ROOT/src/rjpo/*.py with its line count (as `wc -l` counts them), the total,
and the number of settable values.  A settable value is a parameter of a
`def` or `lambda` other than `self` or `cls` (`*args` and `**kwargs`
count), or an annotated field of a `@dataclass` class that is not declared
`field(init=False)`.  Exits 0, or 2 on a usage error.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_init_field(stmt: ast.stmt) -> bool:
    """An annotated class-body line that becomes an __init__ parameter."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return not any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is False for kw in value.keywords)
    return True


def settable_values(source: str) -> int:
    """Settable values of one module's source, as defined above."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            count += sum(p is not None and p.arg not in ("self", "cls") for p in params)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(_is_init_field(stmt) for stmt in node.body)
    return count


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python tests/source_size.py [ROOT]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    total_lines = total_values = 0
    for path in sorted((root / "src" / "rjpo").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.count("\n")
        print(f"{lines:6d} {path.relative_to(root)}")
        total_lines += lines
        total_values += settable_values(text)
    print(f"{total_lines:6d} total lines")
    print(f"{total_values:6d} settable values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
