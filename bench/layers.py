"""Per-layer metrics of one traced operation: backend calls by kind and
stage, span durations and self times by layer, and classification prompt
statistics."""

from __future__ import annotations

import os
import statistics
import threading

from tagcraft import TemplateId

from spans import TARGETS, Tracer

STAGES = tuple(target.stage for target in TARGETS if target.stage)
EXTRACTION_SPANS = tuple(t.span_name for t in TARGETS if t.module == "tagcraft.extraction")


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def longest_serial_chain(records) -> int:
    """Most calls that ran one after another without overlapping."""
    count, last_end = 0, float("-inf")
    for record in sorted(records, key=lambda r: r.end):
        if record.start >= last_end:
            count += 1
            last_end = record.end
    return count


def max_in_flight(records) -> int:
    events = sorted([(r.start, 1) for r in records] + [(r.end, -1) for r in records])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


class ClassifyPromptStats:
    """Observes rendered classification prompts: their size, and the share
    of each that repeats the previous prompt of the same classify_batch pass
    as a prefix (what a server-side prefix cache could reuse)."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._lock = threading.Lock()
        self._last: dict[int | None, str] = {}
        self.prompts = 0
        self.chars = 0
        self.shared = 0.0
        self.pairs = 0

    def __call__(self, args: tuple, kwargs: dict, request) -> None:
        template = args[0] if args else kwargs.get("template")
        if template is not TemplateId.CLASSIFY:
            return
        text = request.user_text
        batch = self._tracer.ancestor("classify.classify_batch")
        key = batch.id if batch else None
        with self._lock:
            previous = self._last.get(key)
            self._last[key] = text
            self.prompts += 1
            self.chars += len(text)
        if previous is not None:
            share = len(os.path.commonprefix((previous, text))) / len(text)
            with self._lock:
                self.shared += share
                self.pairs += 1


def layer_metrics(outcome, tracer: Tracer, prompts: ClassifyPromptStats) -> dict[str, float]:
    records = outcome.records
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    own = tracer.self_times()
    for span in tracer.spans.values():
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    complete = [r.end - r.start for r in records if r.kind == "complete"]
    score = [r.end - r.start for r in records if r.kind == "score"]
    busy = sum(complete) + sum(score)
    docs = durations.get("classify.classify", [])
    m: dict[str, float] = {
        "backend.complete.calls": len(complete),
        "backend.score.calls": len(score),
        "backend.complete.p50_ms": percentile(complete, 50) * 1e3,
        "backend.complete.p99_ms": percentile(complete, 99) * 1e3,
        "backend.score.p50_ms": percentile(score, 50) * 1e3,
        "backend.score.p99_ms": percentile(score, 99) * 1e3,
        "backend.busy_s": busy,
        "backend.inflight_mean": busy / outcome.wall_s,
        "backend.inflight_max": max_in_flight(records),
    }
    for stage in STAGES:
        mine = [r for r in records if r.stage == stage]
        m[f"backend.{stage}.calls"] = len(mine)
        m[f"backend.{stage}.prompt_chars"] = sum(r.prompt_chars for r in mine)
        m[f"backend.{stage}.critical_calls"] = longest_serial_chain(mine)
    m.update(
        {
            "prompts.render.calls": calls("prompts.render"),
            "prompts.render.self_s": self_s.get("prompts.render", 0.0),
            "prompts.classify.mean_chars": prompts.chars / prompts.prompts if prompts.prompts else 0.0,
            "prompts.classify.shared_prefix_frac": prompts.shared / prompts.pairs if prompts.pairs else 0.0,
            "classify.batch_s": total("classify.classify_batch"),
            "classify.doc_p50_ms": percentile(docs, 50) * 1e3,
            "classify.doc_p99_ms": percentile(docs, 99) * 1e3,
            "classify.failures": outcome.failed_docs,
            "describe.bootstrap_s": total("describe.bootstrap_taxonomy"),
            "describe.contrast_s": total("describe.contrast_taxonomy"),
            "refine.iterations": outcome.layer.get("refine.iterations", 0),
            "refine.refined": outcome.layer.get("refine.refined", 0),
            "refine.adapted": outcome.layer.get("refine.adapted", 0),
            "refine.validate_s": total("refine.validate_category_set"),
            "refine.refine_description_s": total("refine.refine_description"),
            "refine.adapt_pair_s": total("refine.adapt_pair"),
            "topics.add_topic_s": total("topics.add_topic"),
            "topics.add_topic.calls": calls("topics.add_topic"),
            "extraction.calls": calls("extraction.extract_descriptor") + calls("extraction.extract_descriptor_set"),
            "extraction.self_s": sum(self_s.get(name, 0.0) for name in EXTRACTION_SPANS),
            "extraction.repairs": sum(r.repair for r in records),
            "model.upsert.calls": calls("model.taxonomy_upsert"),
            "model.upsert.self_s": self_s.get("model.taxonomy_upsert", 0.0),
            "datasets.load_split_s": total("datasets.load_generic_csv") + total("datasets.split_seen_unseen"),
            "http.align.self_s": self_s.get("backends.http._align_logprob", 0.0),
            "http.align.agreement": 0.0,  # set by the HTTP workload
        }
    )
    for name in ("http.requests", "http.retries", "http.status_429", "http.status_5xx", "server.busy_s"):
        m[name] = outcome.layer.get(name, 0)
    return m


def traced_run(workload):
    """Run one operation with every target wrapped; return its outcome, the
    tracer holding its spans, and its per-layer metrics."""
    tracer = Tracer()
    prompts = ClassifyPromptStats(tracer)
    workload.backend.tracer = tracer
    try:
        with tracer.installed({"prompts.render": prompts}):
            outcome = workload.run()
    finally:
        workload.backend.tracer = None
    return outcome, tracer, layer_metrics(outcome, tracer, prompts)
