"""Crash-safe file output."""

from __future__ import annotations

import os
import stat
import threading
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) so that readers, and a crash
    part-way through, see either the previous file or the complete new one.

    The text goes to a temporary file in the same directory, is flushed to
    disk, and is then renamed over the target with ``os.replace``. On failure
    the temporary file is removed and the previous file is left untouched.
    A symlink is written through: the file it points to is replaced and the
    link stays. An existing file's permission bits carry over.
    """
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        mode = stat.S_IMODE(target.stat().st_mode)
    except FileNotFoundError:
        mode = None
    try:
        with temp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if mode is not None:
            os.chmod(temp, mode)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
