"""The iterative validate/refine loop and confusion-pair class adaptation.

Each iteration classifies the validation documents against the current
taxonomy snapshot, refines every category whose accuracy fell below the
threshold using its correctly- and mis-classified samples, then sharpens
the most confused category pairs. The loop stops as soon as the minimum
per-category accuracy reaches the threshold, or after max_iterations.
"""

from __future__ import annotations

import enum
import logging
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .backends.base import Backend, PromptRequest
from .classify import ClassificationFailure, classify_batch
from .errors import (
    MissingSamplesError,
    RefinementAbortedError,
    UnknownCategoryError,
    UnknownGoldLabelError,
)
from .extraction import descriptor_to_json, request_descriptor
from .fanout import ordered_map
from .model import (
    Category,
    ConfusionMatrix,
    Document,
    RefinementConfig,
    SamplingStrategy,
    Stage,
    Taxonomy,
    TopicDescriptor,
    name_key,
    taxonomy_upsert,
)
from .prompts import TemplateId, format_sample_block, render
from .runlog import RunLog, prompt_sha256

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class ValidationOutcome:
    """Everything one validation pass learned about the current taxonomy."""

    matrix: ConfusionMatrix
    per_category_accuracy: dict[str, float]
    misclassified: dict[str, list[tuple[Document, str]]]
    correct: dict[str, list[Document]]


@dataclass(frozen=True)
class ConfusionPair:
    correct: str
    wrong: str
    count: int

    def __post_init__(self) -> None:
        if name_key(self.correct) == name_key(self.wrong):
            raise ValueError("a confusion pair needs two distinct categories")
        if self.count < 1:
            raise ValueError("confusion count must be >= 1")


class StopReason(str, enum.Enum):
    THRESHOLD_MET = "threshold_met"
    MAX_ITERATIONS = "max_iterations"


@dataclass
class IterationRecord:
    index: int
    accuracy: dict[str, float]
    refined: list[str] = field(default_factory=list)
    adapted: list[ConfusionPair] = field(default_factory=list)


@dataclass
class RefinementReport:
    iterations_run: int
    per_iteration: list[IterationRecord]
    stop_reason: StopReason


def validate_category_set(
    taxonomy: Taxonomy,
    validation_docs: Sequence[Document],
    backend: Backend,
    *,
    concurrency_cap: int = 4,
    templates_dir: str | Path | None = None,
) -> ValidationOutcome:
    """Classify every validation document against the taxonomy snapshot and
    aggregate the confusion matrix, per-category accuracies, and the
    correct / misclassified sample lists keyed by gold category.

    Categories with no validation documents are reported via a warning, not
    an error. Backend failures propagate.
    """
    canonical = {name_key(name): name for name in taxonomy.names()}
    golds: list[str] = []
    for document in validation_docs:
        if document.gold_label is None:
            raise UnknownGoldLabelError(document.id, None)
        key = name_key(document.gold_label)
        if key not in canonical:
            raise UnknownGoldLabelError(document.id, document.gold_label)
        golds.append(canonical[key])

    covered = set(golds)
    for name in taxonomy.names():
        if name not in covered:
            logger.warning("category %r has no validation documents", name)

    matrix = ConfusionMatrix()
    misclassified: dict[str, list[tuple[Document, str]]] = {}
    correct: dict[str, list[Document]] = {}
    results = classify_batch(
        validation_docs,
        taxonomy,
        backend,
        concurrency_cap=concurrency_cap,
        templates_dir=templates_dir,
    )
    for document, gold, result in zip(validation_docs, golds, results):
        if isinstance(result, ClassificationFailure):
            raise result.exception
        matrix.record(gold, result.predicted)
        if name_key(result.predicted) == name_key(gold):
            correct.setdefault(gold, []).append(document)
        else:
            misclassified.setdefault(gold, []).append((document, result.predicted))
    return ValidationOutcome(
        matrix=matrix,
        per_category_accuracy=matrix.per_category_accuracy(),
        misclassified=misclassified,
        correct=correct,
    )


def refine_description(
    category: Category,
    right: Sequence[Document],
    wrong: Sequence[tuple[Document, str]],
    backend: Backend,
    *,
    templates_dir: str | Path | None = None,
    log: RunLog | None = None,
    iteration: int = 0,
) -> TopicDescriptor:
    """Rewrite a category's description from its correctly- and mis-classified
    validation samples. The topic name is never allowed to change: a reply
    that renames the category is overridden back and the event logged.
    """
    if not wrong:
        raise ValueError("refinement is triggered by errors; wrong samples are required")
    request = render(
        TemplateId.MISCLASS_REFINE,
        {
            "df_subset_right": format_sample_block(d.text for d in right),
            "df_subset_wrong": format_sample_block(d.text for d, _ in wrong),
            "correct_category": category.name,
            "category_list": descriptor_to_json(category.descriptor),
        },
        templates_dir=templates_dir,
    )
    descriptor = _logged_request(
        backend, request, log, "refine", iteration=iteration, category=category.name
    )
    if name_key(descriptor.topic_name) != name_key(category.name):
        logger.info(
            "refine reply renamed %r to %r; name overridden back",
            category.name,
            descriptor.topic_name,
        )
    return replace(descriptor, topic_name=category.name)


def _logged_request(
    backend: Backend, request: PromptRequest, log: RunLog | None, stage: str, **fields
) -> TopicDescriptor:
    """request_descriptor plus one run-log event carrying the prompt hash and
    whether a descriptor came back.
    """
    ok = False
    try:
        descriptor = request_descriptor(backend, request)
        ok = True
    finally:
        if log:
            log.emit(stage, prompt_hash=prompt_sha256(request.user_text), ok=ok, **fields)
    return descriptor


def mine_confusion_pairs(
    matrix: ConfusionMatrix, min_count: int = 2, top_k: int = 3
) -> list[ConfusionPair]:
    """All off-diagonal cells with count >= min_count, sorted by descending
    count then (gold, predicted) name order, truncated to top_k.
    """
    cells = [
        (gold, predicted, count)
        for (gold, predicted), count in matrix.counts.items()
        if gold != predicted and count >= min_count
    ]
    cells.sort(key=lambda cell: (-cell[2], cell[0], cell[1]))
    return [ConfusionPair(gold, predicted, count) for gold, predicted, count in cells[:top_k]]


def adapt_pair(
    pair: ConfusionPair,
    outcome: ValidationOutcome,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    iteration: int = 0,
    template: TemplateId = TemplateId.INTER_CLASS_ADAPT,
    templates_dir: str | Path | None = None,
    log: RunLog | None = None,
) -> Taxonomy:
    """Sharpen the description of ``pair.correct`` against ``pair.wrong``
    using the validation samples behind the confusion cell. Invoked once per
    direction of a confused pair.
    """
    correct_category = taxonomy.get(pair.correct)
    wrong_category = taxonomy.get(pair.wrong)
    if correct_category is None:
        raise UnknownCategoryError(f"unknown category {pair.correct!r}")
    if wrong_category is None:
        raise UnknownCategoryError(f"unknown category {pair.wrong!r}")
    right = outcome.correct.get(correct_category.name, [])
    wrong_docs = [
        document
        for document, predicted in outcome.misclassified.get(correct_category.name, [])
        if name_key(predicted) == name_key(wrong_category.name)
    ]
    if not wrong_docs:
        raise MissingSamplesError(
            f"no validation samples for confusion {pair.correct!r} -> {pair.wrong!r}"
        )
    request = render(
        template,
        {
            "df_subset_right": format_sample_block(d.text for d in right),
            "df_subset_wrong": format_sample_block(d.text for d in wrong_docs),
            "correct_category": correct_category.name,
            "wrong_category": wrong_category.name,
        },
        templates_dir=templates_dir,
    )
    descriptor = _logged_request(
        backend,
        request,
        log,
        "adapt",
        iteration=iteration,
        category=correct_category.name,
        pair=(pair.correct, pair.wrong),
    )
    descriptor = replace(descriptor, topic_name=correct_category.name)
    return taxonomy_upsert(taxonomy, descriptor, Stage.ADAPT, iteration)


def _wave(
    run: Callable[[T, RunLog | None], R],
    items: Sequence[T],
    log: RunLog | None,
    concurrency_cap: int,
) -> Iterator[tuple[T, R]]:
    """Call ``run(item, item_log)`` for every item concurrently; once all
    calls have finished, yield ``(item, result)`` in item order, appending
    each item's log events to ``log`` just before its result. The first
    failure in item order ends the wave: its events are appended and its
    exception raised, and the results and events of later items are dropped,
    exactly as if the items had run one after another.
    """
    logs = [RunLog.in_memory() if log else None for _ in items]

    def attempt(index: int) -> tuple[R | None, Exception | None]:
        try:
            return run(items[index], logs[index]), None
        except Exception as err:
            return None, err

    outcomes = ordered_map(attempt, range(len(items)), concurrency_cap)
    for item, item_log, (result, error) in zip(items, logs, outcomes):
        if item_log is not None:
            log.append(item_log)
        if error is not None:
            raise error
        yield item, result


def _adapt_wave(
    pairs: Sequence[ConfusionPair],
    outcome: ValidationOutcome,
    taxonomy: Taxonomy,
    record: IterationRecord,
    backend: Backend,
    *,
    template: TemplateId,
    concurrency_cap: int,
    templates_dir: str | Path | None,
    log: RunLog | None,
) -> Taxonomy:
    """Adapt every pair against one taxonomy snapshot and apply the new
    descriptors in pair order. An adaptation prompt reads only the pair's
    names and the validation outcome, never a description, so the pairs do
    not depend on one another.
    """

    def adapt(pair: ConfusionPair, pair_log: RunLog | None) -> Taxonomy:
        return adapt_pair(
            pair,
            outcome,
            taxonomy,
            backend,
            iteration=record.index,
            template=template,
            templates_dir=templates_dir,
            log=pair_log,
        )

    current = taxonomy
    for pair, result in _wave(adapt, pairs, log, concurrency_cap):
        descriptor = result.get(pair.correct).descriptor
        current = taxonomy_upsert(current, descriptor, Stage.ADAPT, record.index)
        record.adapted.append(pair)
    return current


def _validation_subset(
    validation_docs: Sequence[Document], config: RefinementConfig, iteration: int
) -> list[Document]:
    """Pick m_validate documents per gold label. By default the same subset
    is re-used every iteration; with resample_validation a fresh seeded draw
    is taken per iteration.
    """
    grouped: dict[str, list[Document]] = {}
    order: list[str] = []
    for document in validation_docs:
        label = document.gold_label or ""
        if label not in grouped:
            grouped[label] = []
            order.append(label)
        grouped[label].append(document)
    draw = iteration if config.resample_validation else 0
    subset: list[Document] = []
    for label in order:
        pool = grouped[label]
        k = min(config.m_validate, len(pool))
        if config.sampling_strategy is SamplingStrategy.FIRST_N:
            chosen = pool[:k] if not config.resample_validation else _rotate(pool, draw)[:k]
        else:
            rng = random.Random(f"{config.seed}:{label}:{draw}")
            chosen = rng.sample(pool, k)
        subset.extend(chosen)
    return subset


def _rotate(pool: list[Document], offset: int) -> list[Document]:
    if not pool:
        return pool
    shift = offset % len(pool)
    return pool[shift:] + pool[:shift]


def refine_loop(
    taxonomy: Taxonomy,
    validation_docs: Sequence[Document],
    config: RefinementConfig,
    backend: Backend,
    *,
    concurrency_cap: int = 4,
    templates_dir: str | Path | None = None,
    log: RunLog | None = None,
) -> tuple[Taxonomy, RefinementReport]:
    """Run up to max_iterations validate/refine rounds.

    Per iteration: validate; stop with THRESHOLD_MET when the minimum
    per-category accuracy reaches the threshold; otherwise refine every
    below-threshold category, adapt the mined confusion pairs, and continue.
    Exhausting the iteration budget stops with MAX_ITERATIONS. The refines of
    one iteration run concurrently from the same snapshot, then the
    adaptations do; both are applied and logged in taxonomy / pair order.

    On a stage failure the partial iteration records are attached to a
    RefinementAbortedError whose __cause__ is the original error.
    """
    records: list[IterationRecord] = []
    current = taxonomy
    stop = StopReason.MAX_ITERATIONS
    adapt_template = TemplateId(config.adapt_template)
    last_outcome: ValidationOutcome | None = None
    try:
        for iteration in range(1, config.max_iterations + 1):
            docs = _validation_subset(validation_docs, config, iteration)
            outcome = validate_category_set(
                current,
                docs,
                backend,
                concurrency_cap=concurrency_cap,
                templates_dir=templates_dir,
            )
            last_outcome = outcome
            accuracies = outcome.per_category_accuracy
            minimum = min(accuracies.values(), default=1.0)
            if log:
                log.emit("validate", iteration=iteration, accuracy=minimum)
            record = IterationRecord(index=iteration, accuracy=dict(accuracies))
            records.append(record)
            if minimum >= config.accuracy_threshold:
                stop = StopReason.THRESHOLD_MET
                break
            below = [
                category
                for category in current.categories
                if accuracies.get(category.name) is not None
                and accuracies[category.name] < config.accuracy_threshold
            ]

            def refine(category: Category, category_log: RunLog | None) -> TopicDescriptor:
                return refine_description(
                    category,
                    outcome.correct.get(category.name, []),
                    outcome.misclassified.get(category.name, []),
                    backend,
                    templates_dir=templates_dir,
                    log=category_log,
                    iteration=iteration,
                )

            for category, descriptor in _wave(refine, below, log, concurrency_cap):
                current = taxonomy_upsert(current, descriptor, Stage.REFINE, iteration)
                record.refined.append(category.name)
            if not config.adapt_after_loop:
                pairs = mine_confusion_pairs(
                    outcome.matrix, config.min_confusion_count, config.top_k_pairs
                )
                current = _adapt_wave(
                    pairs,
                    outcome,
                    current,
                    record,
                    backend,
                    template=adapt_template,
                    concurrency_cap=concurrency_cap,
                    templates_dir=templates_dir,
                    log=log,
                )
        if config.adapt_after_loop and last_outcome is not None and records:
            pairs = mine_confusion_pairs(
                last_outcome.matrix, config.min_confusion_count, config.top_k_pairs
            )
            current = _adapt_wave(
                pairs,
                last_outcome,
                current,
                records[-1],
                backend,
                template=adapt_template,
                concurrency_cap=concurrency_cap,
                templates_dir=templates_dir,
                log=log,
            )
    except Exception as err:
        raise RefinementAbortedError(
            f"refinement aborted at iteration {len(records)}: {err}", records
        ) from err
    return current, RefinementReport(
        iterations_run=len(records), per_iteration=records, stop_reason=stop
    )
