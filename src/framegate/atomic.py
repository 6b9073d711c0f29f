"""Whole-file writes that a failed write cannot leave half done."""

from __future__ import annotations

import os
from pathlib import Path


def write_bytes(path, data: bytes) -> None:
    """Write data to path through a temporary file beside it, moved into place
    with os.replace: path holds either its previous content or all of data.

    A failure before the move removes the temporary file and leaves path as
    it was; an error naming the temporary file (a missing directory, say)
    names path instead. Nothing is synced to disk, so this guards against a
    failed or killed process, not against a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError) and err.filename == str(tmp):
            err.filename = str(path)
        raise
