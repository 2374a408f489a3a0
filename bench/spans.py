"""In-memory span tracer that wraps tagcraft's public functions from outside
the package, for the benchmark's traced run.

A span has a name, start, end, parent and outcome. Each wrapped function is
patched in every tagcraft module that binds it, so callers that imported it
by name (``tagcraft.classify.render`` as well as ``tagcraft.prompts.render``)
reach the wrapper. Executor tasks run in a copy of the submitting context, so
spans and stages opened in a worker thread keep their parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from counting import STAGE

# The mock is the stand-in model, not a tagcraft layer: its own use of
# extraction helpers must not count as extraction work.
_UNPATCHED_MODULES = frozenset({"tagcraft.backends.mock"})


@dataclass(frozen=True)
class Target:
    """A function to wrap; ``stage`` names the pipeline stage its backend
    calls belong to, unless an enclosing stage already claimed them."""

    module: str
    function: str
    stage: str | None = None

    @property
    def span_name(self) -> str:
        return f"{self.module.removeprefix('tagcraft.')}.{self.function}"


TARGETS = (
    Target("tagcraft.experiment", "run_experiment"),
    Target("tagcraft.datasets", "load_generic_csv"),
    Target("tagcraft.datasets", "split_seen_unseen"),
    Target("tagcraft.describe", "bootstrap_taxonomy", "bootstrap"),
    Target("tagcraft.describe", "bootstrap_category"),
    Target("tagcraft.describe", "contrast_taxonomy", "contrast"),
    Target("tagcraft.refine", "refine_loop"),
    Target("tagcraft.refine", "validate_category_set", "validate"),
    Target("tagcraft.refine", "refine_description", "refine"),
    Target("tagcraft.refine", "adapt_pair", "adapt"),
    Target("tagcraft.refine", "mine_confusion_pairs"),
    Target("tagcraft.topics", "add_topic", "add_topic"),
    Target("tagcraft.classify", "classify_batch", "evaluate"),
    Target("tagcraft.classify", "classify"),
    Target("tagcraft.classify", "descriptor_block"),
    Target("tagcraft.prompts", "render"),
    Target("tagcraft.prompts", "format_sample_block"),
    Target("tagcraft.extraction", "request_descriptor"),
    Target("tagcraft.extraction", "request_descriptor_set"),
    Target("tagcraft.extraction", "extract_descriptor"),
    Target("tagcraft.extraction", "extract_descriptor_set"),
    Target("tagcraft.model", "taxonomy_upsert"),
    Target("tagcraft.backends.http", "_align_logprob"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    ok: bool = True


Observer = Callable[[tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[int, Span] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "bench_span", default=None
        )

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(next(self._ids), parent.id if parent else None, name, time.perf_counter())
        with self._lock:
            self.spans[span.id] = span
        return span, self._current.set(span)

    def close(self, handle: tuple[Span, contextvars.Token], ok: bool) -> None:
        span, token = handle
        span.end = time.perf_counter()
        span.ok = ok
        self._current.reset(token)

    def ancestor(self, name: str) -> Span | None:
        """The innermost open span of the current context with this name."""
        span = self._current.get()
        while span is not None and span.name != name:
            span = self.spans.get(span.parent) if span.parent is not None else None
        return span

    def wrap(self, name: str, fn: Callable, stage: str | None, observer: Observer | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            claim = stage is not None and STAGE.get() == "none"
            stage_token = STAGE.set(stage) if claim else None
            handle = self.open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(handle, ok)
                if stage_token is not None:
                    STAGE.reset(stage_token)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, observers: dict[str, Observer] | None = None) -> Iterator[None]:
        """Patch every target (and executor submission) for the duration."""
        observers = observers or {}
        patches: list[tuple[object, str, object, object]] = []
        modules = [
            module
            for name, module in list(sys.modules.items())
            if (name == "tagcraft" or name.startswith("tagcraft.")) and name not in _UNPATCHED_MODULES
        ]
        for target in TARGETS:
            original = getattr(importlib.import_module(target.module), target.function)
            wrapper = self.wrap(target.span_name, original, target.stage, observers.get(target.span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        original_submit = ThreadPoolExecutor.submit

        def submit(executor, fn, /, *args, **kwargs):
            return original_submit(executor, contextvars.copy_context().run, fn, *args, **kwargs)

        patches.append((ThreadPoolExecutor, "submit", original_submit, submit))
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans.values():
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        result = {}
        for span in self.spans.values():
            covered = 0.0
            reach = span.start
            for start, end in sorted(children.get(span.id, ())):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result[span.id] = (span.end - span.start) - covered
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans.values():
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "ok": span.ok,
                        }
                    )
                    + "\n"
                )
