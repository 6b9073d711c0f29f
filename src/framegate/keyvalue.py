"""Flat key=value text: config files, checkpoint headers, dataset manifests.

One line per key. The reader skips blank lines and `#` comments and types
each value after an example value: int, float, str, or a tuple of ints
written comma-separated, where an empty value is the empty tuple and an
empty item is refused. Floats are written with repr, so they read back
bit-exact, and must be finite.
"""

from __future__ import annotations

import math


def write(values: dict) -> str:
    """`key=value` lines in the mapping's order, each ending in a newline."""
    return "".join(f"{key}={_format(value)}\n" for key, value in values.items())


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _parse(example, text: str):
    if isinstance(example, tuple):
        return tuple(int(v) for v in text.split(",")) if text else ()
    return type(example)(text)


def read(text: str, examples: dict, source: str, first_line: int = 1,
         complete: bool = False) -> dict:
    """Values by key, typed like `examples`; only the keys present in text.

    Raises ValueError naming source and line for a line without `=`, a key
    not in examples, a repeated key, a value that does not parse as its type
    or a float that is not finite; with `complete`, also for a key of
    examples that text lacks.
    """
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=first_line):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{line_no}"
        if "=" not in line:
            raise ValueError(f"{where}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in examples:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = _parse(examples[key], value)
        except ValueError:
            raise ValueError(f"{where}: bad value for {key!r}: {value!r}") from None
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ValueError(f"{where}: {key!r} must be finite, got {value!r}")
    missing = [key for key in examples if key not in values]
    if complete and missing:
        raise ValueError(f"{source}: missing key {missing[0]!r}")
    return values
