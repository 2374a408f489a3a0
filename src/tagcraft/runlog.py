"""JSON-lines run log for pipeline events."""

from __future__ import annotations

import hashlib
import io
import json
import threading
import time
from pathlib import Path
from typing import IO


def prompt_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RunLog:
    """Appends one JSON record per event:
    {ts, stage, iteration, category, accuracy?, pair?, prompt_sha256?, ok}.
    Safe to share across threads: each record is written whole.
    """

    def __init__(self, handle: IO[str]):
        self._handle = handle
        self._lock = threading.Lock()

    @classmethod
    def open(cls, path: str | Path) -> "RunLog":
        return cls(Path(path).open("a", encoding="utf-8"))

    @classmethod
    def in_memory(cls) -> "RunLog":
        """A log held in memory, for a worker whose events are appended to
        the real log later with :meth:`append`, in an order the caller fixes.
        """
        return cls(io.StringIO())

    def append(self, other: "RunLog") -> None:
        """Append every record of an in-memory log, in emission order."""
        self._write(other._handle.getvalue())

    def emit(
        self,
        stage: str,
        *,
        iteration: int | None = None,
        category: str | None = None,
        accuracy: float | None = None,
        pair: tuple[str, str] | None = None,
        prompt_hash: str | None = None,
        ok: bool = True,
    ) -> None:
        record = {
            "ts": time.time(),
            "stage": stage,
            "iteration": iteration,
            "category": category,
            "ok": ok,
        }
        if accuracy is not None:
            record["accuracy"] = accuracy
        if pair is not None:
            record["pair"] = list(pair)
        if prompt_hash is not None:
            record["prompt_sha256"] = prompt_hash
        self._write(json.dumps(record, ensure_ascii=False) + "\n")

    def _write(self, text: str) -> None:
        with self._lock:
            self._handle.write(text)
            self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
