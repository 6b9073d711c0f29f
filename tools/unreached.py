#!/usr/bin/env python3
"""List every statement of src/framegate that a pytest run never executes.

    python3 tools/unreached.py [PYTEST_ARG ...]

Runs pytest in this process under a `sys.settrace` line tracer that follows
only code in this tree's src/framegate, then prints each statement of each
src/framegate/*.py that never ran as `path:line: source` (files never
imported included), followed by the count. Definitions, imports and
docstrings do not count. The exit status is pytest's, or 2 if framegate was
imported from anywhere but this tree's src/.

The default arguments are `tests perfbench --ignore=tests/test_acceptance.py`:
the acceptance runs train in worker processes, which the tracer does not
follow, and neither does it follow a test's child processes. A traced run
takes several times as long as a plain one.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "framegate"
_NOT_COUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> set[int]:
    """First lines of the statements that count, among those that compile to
    code a line tracer can see."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and ast.get_docstring(node, clean=False) is not None}
    counted = {node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.stmt) and not isinstance(node, _NOT_COUNTED)
               and id(node) not in docstrings}
    traceable, codes = set(), [compile(tree, "<framegate>", "exec")]
    while codes:
        code = codes.pop()
        traceable.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return counted & traceable


def main(argv: list[str]) -> int:
    import pytest

    args = argv or [str(ROOT / "tests"), str(ROOT / "perfbench"),
                    f"--ignore={ROOT / 'tests' / 'test_acceptance.py'}"]
    ran: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = int(pytest.main(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    imported = sys.modules.get("framegate")
    origin = Path(imported.__file__).resolve().parent if getattr(imported, "__file__", None) else None
    if origin != PACKAGE:
        where = f"imported from {origin}" if origin else "not imported"
        print(f"unreached.py: framegate was {where}, not from {PACKAGE}; no report",
              file=sys.stderr)
        return 2
    missed = 0
    for name in sorted(ran):
        path = Path(name)
        source = path.read_text()
        lines = source.splitlines()
        for line in sorted(statements(source) - ran[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
