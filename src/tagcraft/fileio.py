"""Run-file I/O: crash-safe writes, and text and JSON object reads with one error policy."""

from __future__ import annotations

import json
import os
import stat
import threading
from pathlib import Path

from .errors import FileIOError, SchemaError

# Input files are UTF-8; a leading byte-order mark is dropped. Writers never add one.
READ_ENCODING = "utf-8-sig"


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) so that readers, and a crash
    part-way through, see either the previous file or the complete new one.

    The text goes to a temporary file in the same directory, is flushed to
    disk, and is then renamed over the target with ``os.replace``. On failure
    the temporary file is removed and the previous file is left untouched;
    an ``OSError`` is raised as ``FileIOError``. A symlink is written
    through: the file it points to is replaced and the link stays. An
    existing file's permission bits carry over.
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
    except BaseException as err:
        temp.unlink(missing_ok=True)
        if isinstance(err, OSError):
            raise FileIOError(f"cannot write {path}: {err}") from err
        raise


def write_json_atomic(path: str | Path, data: object) -> None:
    """``write_text_atomic`` of ``data`` as indented JSON with sorted keys."""
    write_text_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of ``path``, named ``what`` in errors: ``FileIOError``
    if the file cannot be read, ``SchemaError`` if it is not UTF-8.
    """
    try:
        return Path(path).read_text(encoding=READ_ENCODING)
    except OSError as err:
        raise FileIOError(f"cannot read {what} {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"{what} {path} is not UTF-8 text: {err}") from err


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``, named ``what`` in errors: ``FileIOError``
    if the file cannot be read, ``SchemaError`` if it is not UTF-8 text
    holding a JSON object.
    """
    try:
        data = json.loads(read_text(path, what))
    except json.JSONDecodeError as err:
        raise SchemaError(f"{what} {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise SchemaError(f"{what} {path} must contain a JSON object")
    return data
