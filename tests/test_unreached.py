"""tools/unreached.py counts the statements a line tracer can see run."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unreached.py"

SOURCE = '''"""Module docstring."""
import os
from sys import path

LIMIT = (1 +
         2)


def f(x):
    """Docstring."""
    "a bare string"
    y = [x,
         x]
    if False:
        dead = 1
    return y


class C:
    """Docstring."""
    z = 1


if __name__ == "__main__":
    f(2)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("unreached", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_skip_definitions_imports_docstrings_and_dead_code():
    # Counted: the first line of each multi-line statement, a bare string
    # that is not a docstring, the `if` and the return; not the `def`,
    # `class`, imports, docstrings, or the assignment the compiler drops.
    assert _tool().statements(SOURCE) == {5, 11, 12, 14, 16, 21, 24, 25}


def test_a_full_run_reaches_every_counted_statement():
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == "<snippet>" else None)
    try:
        exec(compile(SOURCE, "<snippet>", "exec"), {"__name__": "__main__"})
    finally:
        sys.settrace(previous)
    assert _tool().statements(SOURCE) <= ran
