"""Atomic writes: an OSError becomes a FileIOError naming the file, any
other exception passes through, and no temp file is left behind."""

from __future__ import annotations

import os
import re

import pytest

from tagcraft.errors import FileIOError
from tagcraft.fileio import write_text_atomic


def test_failed_rename_is_a_file_io_error_and_leaves_no_temp(tmp_path, monkeypatch) -> None:
    path = tmp_path / "x.txt"
    path.write_text("old\n", encoding="utf-8")

    def failing_replace(src, dst):
        raise PermissionError("read-only")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(FileIOError, match=re.escape(f"cannot write {path}: read-only")) as exc:
        write_text_atomic(path, "new\n")
    assert isinstance(exc.value.__cause__, PermissionError)
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_other_exceptions_pass_through_and_leave_no_temp(tmp_path, monkeypatch) -> None:
    path = tmp_path / "x.txt"

    def interrupted_fsync(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "fsync", interrupted_fsync)
    with pytest.raises(KeyboardInterrupt):
        write_text_atomic(path, "new\n")
    assert list(tmp_path.iterdir()) == []
