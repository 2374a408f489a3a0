"""Counting, latency-injecting backend wrapper.

Every call is recorded with its kind, stage, start, end, prompt size and
outcome. The stage comes from a context variable, so attribution follows the
caller's context into worker threads (the traced run copies contexts into
executor tasks) rather than assuming one stage runs at a time.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from tagcraft.backends.base import Backend, BackendCapabilities, PromptRequest, ScoreMap
from tagcraft.extraction import REPAIR_INSTRUCTION

STAGE: contextvars.ContextVar[str] = contextvars.ContextVar("bench_stage", default="none")

T = TypeVar("T")


@dataclass(frozen=True)
class CallRecord:
    kind: str  # "complete" or "score"
    stage: str
    start: float
    end: float
    prompt_chars: int
    ok: bool
    repair: bool  # a re-prompt carrying the extraction repair instruction


class CountingBackend(Backend):
    """Wraps another backend; sleeps ``complete_latency`` / ``score_latency``
    seconds before each call, as a remote model's response time would, and
    records the call. Safe to share across threads.
    """

    def __init__(self, inner: Backend, complete_latency: float = 0.0, score_latency: float = 0.0):
        self.inner = inner
        self.complete_latency = complete_latency
        self.score_latency = score_latency
        self.tracer = None  # set to a spans.Tracer during traced operations
        self._lock = threading.Lock()
        self._records: list[CallRecord] = []

    def capabilities(self) -> BackendCapabilities:
        return self.inner.capabilities()

    def complete(self, request: PromptRequest) -> str:
        return self._call("complete", self.complete_latency, request, lambda: self.inner.complete(request))

    def score_labels(self, request: PromptRequest, candidates: Sequence[str]) -> ScoreMap:
        return self._call(
            "score", self.score_latency, request, lambda: self.inner.score_labels(request, candidates)
        )

    def take_records(self) -> list[CallRecord]:
        """Return the calls recorded since the previous take, oldest first."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def _call(self, kind: str, latency: float, request: PromptRequest, call: Callable[[], T]) -> T:
        tracer = self.tracer
        span = tracer.open(f"backend.{kind}") if tracer else None
        start = time.perf_counter()
        ok = False
        try:
            if latency:
                time.sleep(latency)
            result = call()
            ok = True
            return result
        finally:
            end = time.perf_counter()
            if span is not None:
                tracer.close(span, ok)
            record = CallRecord(
                kind=kind,
                stage=STAGE.get(),
                start=start,
                end=end,
                prompt_chars=len(request.user_text),
                ok=ok,
                repair=request.user_text.endswith(REPAIR_INSTRUCTION),
            )
            with self._lock:
                self._records.append(record)
