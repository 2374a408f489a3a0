"""The iterative validate/refine loop and confusion-pair class adaptation.

Each iteration classifies the same validation subset, drawn once per run,
against the current taxonomy snapshot and mines the most confused category
pairs. Each pair's correct category is sharpened against its confusion; every
other category whose accuracy fell below the threshold is refined from its
correctly- and mis-classified samples. The loop stops as soon as the minimum
per-category accuracy reaches the threshold, or after max_iterations.
Refine, adapt and the enrichment of a user-written topic share one rewrite
step, sharpen_description: show the model the samples a category got right
and wrong, and ask for a better description under the same name.
"""

from __future__ import annotations

import enum
import logging
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Mapping, Sequence

from .backends.base import Backend
from .classify import EvalReport, classify_labeled
from .errors import RefinementAbortedError, SchemaError, UnknownCategoryError
from .extraction import descriptor_to_json, request_descriptor
from .fanout import ordered_map
from .model import (
    Category,
    Document,
    RefinementConfig,
    Stage,
    Taxonomy,
    TopicDescriptor,
    name_key,
    taxonomy_upsert,
)
from .prompts import TemplateId, format_sample_block, render
from .runlog import RunLog, prompt_sha256

logger = logging.getLogger(__name__)


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
) -> EvalReport:
    """Classify every validation document against the taxonomy snapshot,
    its gold label read as the category it names case-insensitively, so
    gold and prediction are both category names.

    Categories with no validation documents are reported via a warning, not
    an error. The first document that fails to classify raises its error.
    """
    labeled: list[tuple[str, Document]] = []
    for document in validation_docs:
        label = document.gold_label
        category = taxonomy.get(label) if label and label.strip() else None
        if category is None:
            raise SchemaError(f"document {document.id!r} has unknown gold label {label!r}")
        labeled.append((category.name, document))

    covered = {gold for gold, _ in labeled}
    for name in taxonomy.names():
        if name not in covered:
            logger.warning("category %r has no validation documents", name)

    outcome = classify_labeled(labeled, taxonomy, backend)
    for record in outcome.records:
        if record.predicted is None:
            raise record.item.exception
    return outcome


def sharpen_description(
    template: TemplateId,
    name: str,
    right_texts: Iterable[str],
    wrong_texts: Iterable[str],
    bindings: Mapping[str, str],
    backend: Backend,
    log: RunLog | None,
    stage: Stage,
    **fields,
) -> TopicDescriptor:
    """Render ``template`` with the sample texts the category ``name`` got
    right and wrong plus ``bindings``, request one descriptor (repairs
    included) and return it named ``name``: a reply that renames the category
    is named back and the rename logged. With a log, one ``stage`` event
    carries the prompt hash, whether a descriptor came back, and ``fields``.
    """
    request = render(
        template,
        {
            "df_subset_right": format_sample_block(right_texts),
            "df_subset_wrong": format_sample_block(wrong_texts),
            "correct_category": name,
            **bindings,
        },
    )
    ok = False
    try:
        descriptor = request_descriptor(backend, request)
        ok = True
    finally:
        if log:
            log.emit(stage.value, prompt_hash=prompt_sha256(request.user_text), ok=ok, **fields)
    if name_key(descriptor.topic_name) != name_key(name):
        logger.info("%s reply renamed %r to %r; reverted", stage.value, name, descriptor.topic_name)
    return replace(descriptor, topic_name=name)


def refine_description(
    category: Category,
    right: Sequence[Document],
    wrong: Sequence[Document],
    backend: Backend,
    *,
    log: RunLog | None = None,
    iteration: int = 0,
) -> TopicDescriptor:
    """Rewrite a category's description from its correctly- and mis-classified
    validation samples. The topic name is never allowed to change: a reply
    that renames the category is overridden back and the event logged.
    """
    if not wrong:
        raise ValueError("refinement is triggered by errors; wrong samples are required")
    return sharpen_description(
        TemplateId.MISCLASS_REFINE,
        category.name,
        (d.text for d in right),
        (d.text for d in wrong),
        {"category_list": descriptor_to_json(category.descriptor)},
        backend,
        log,
        Stage.REFINE,
        iteration=iteration,
        category=category.name,
    )


def mine_confusion_pairs(
    matrix: Mapping[tuple[str, str], int], min_count: int, top_k: int
) -> list[ConfusionPair]:
    """The off-diagonal cells of ``matrix``, a (gold, predicted) -> count
    mapping such as ``EvalReport.matrix``, with count >= min_count, sorted
    by descending count then (gold, predicted) name order, truncated to
    top_k.
    """
    cells = [
        (gold, predicted, count)
        for (gold, predicted), count in matrix.items()
        if gold != predicted and count >= min_count
    ]
    cells.sort(key=lambda cell: (-cell[2], cell[0], cell[1]))
    return [ConfusionPair(gold, predicted, count) for gold, predicted, count in cells[:top_k]]


def adapt_pair(
    pair: ConfusionPair,
    outcome: EvalReport,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    iteration: int = 0,
    log: RunLog | None = None,
) -> TopicDescriptor:
    """Return a sharpened description of ``pair.correct`` against
    ``pair.wrong``, written from the validation samples behind the confusion
    cell and named as ``pair.correct`` is in the taxonomy. Invoked once per
    direction of a confused pair; the caller upserts the result.
    """
    correct_category = taxonomy.get(pair.correct)
    wrong_category = taxonomy.get(pair.wrong)
    if correct_category is None:
        raise UnknownCategoryError(f"unknown category {pair.correct!r}")
    if wrong_category is None:
        raise UnknownCategoryError(f"unknown category {pair.wrong!r}")
    right, wrong_docs = outcome.samples(correct_category.name, wrong_category.name)
    if not wrong_docs:
        raise ValueError(
            f"no validation samples for confusion {pair.correct!r} -> {pair.wrong!r}"
        )
    return sharpen_description(
        TemplateId.INTER_CLASS_ADAPT,
        correct_category.name,
        (d.text for d in right),
        (d.text for d in wrong_docs),
        {"wrong_category": wrong_category.name},
        backend,
        log,
        Stage.ADAPT,
        iteration=iteration,
        category=correct_category.name,
        pair=(pair.correct, pair.wrong),
    )


def _validation_subset(
    validation_docs: Sequence[Document], config: RefinementConfig
) -> list[Document]:
    """Draw m_validate documents per category (gold labels matched as in
    ``validate_category_set``), seeded by the config seed and the category's
    first label spelling, categories in order of first appearance.
    """
    grouped: dict[str, tuple[str, list[Document]]] = {}
    for document in validation_docs:
        label = document.gold_label or ""
        key = name_key(label) if label.strip() else label
        grouped.setdefault(key, (label, []))[1].append(document)
    subset: list[Document] = []
    for label, pool in grouped.values():
        # The ":0" suffix is part of the seed: dropping it changes every subset and prompt.
        rng = random.Random(f"{config.seed}:{label}:0")
        subset.extend(rng.sample(pool, min(config.m_validate, len(pool))))
    return subset


def refine_loop(
    taxonomy: Taxonomy,
    validation_docs: Sequence[Document],
    config: RefinementConfig,
    backend: Backend,
    *,
    log: RunLog | None = None,
) -> tuple[Taxonomy, RefinementReport]:
    """Run up to max_iterations validate/refine rounds.

    The validation subset (m_validate documents per gold label) is drawn once,
    before the first iteration, and every iteration validates on it. Per
    iteration: validate; stop with THRESHOLD_MET when the minimum
    per-category accuracy reaches the threshold; otherwise mine the confusion
    pairs, adapt each one, refine every below-threshold category that no pair
    names as correct, and continue. A category a pair adapts is not refined
    too: the adaptation would overwrite the refine. Exhausting the iteration
    budget stops with MAX_ITERATIONS. The refines and adaptations of one
    iteration are one job list, run as one concurrent wave from the same
    snapshot and outcome; once all have finished they are applied and logged
    in list order, refines first in taxonomy order, then adaptations in pair
    order, one upsert each. The first failure in that order ends the wave: its
    event is logged after those of the jobs before it, and later jobs are
    dropped, exactly as if the jobs had run one after another.

    On a stage failure the partial iteration records are attached to a
    RefinementAbortedError whose __cause__ is the original error.
    """
    records: list[IterationRecord] = []
    current = taxonomy
    stop = StopReason.MAX_ITERATIONS
    try:
        docs = _validation_subset(validation_docs, config)
        for iteration in range(1, config.max_iterations + 1):
            outcome = validate_category_set(current, docs, backend)
            accuracies = outcome.per_class_accuracy
            minimum = min(accuracies.values(), default=1.0)
            if log:
                log.emit("validate", iteration=iteration, accuracy=minimum)
            record = IterationRecord(index=iteration, accuracy=accuracies)
            records.append(record)
            if minimum >= config.accuracy_threshold:
                stop = StopReason.THRESHOLD_MET
                break
            pairs = mine_confusion_pairs(
                outcome.matrix, config.min_confusion_count, config.top_k_pairs
            )
            adapted = {pair.correct for pair in pairs}
            refines = [
                category
                for category in current.categories
                if accuracies.get(category.name, 1.0) < config.accuracy_threshold
                and category.name not in adapted
            ]
            jobs = []
            for category in refines:
                right, wrong = outcome.samples(category.name)
                call = partial(refine_description, category, right, wrong, backend)
                jobs.append((Stage.REFINE, category.name, call))
            jobs += [
                (Stage.ADAPT, pair, partial(adapt_pair, pair, outcome, current, backend))
                for pair in pairs
            ]
            logs = [RunLog.in_memory() if log else None for _ in jobs]

            def attempt(index: int) -> tuple[TopicDescriptor | None, Exception | None]:
                try:
                    return jobs[index][2](log=logs[index], iteration=iteration), None
                except Exception as err:
                    return None, err

            results = ordered_map(attempt, range(len(jobs)), backend.capabilities().max_concurrency)
            for (stage, item, _), item_log, (descriptor, error) in zip(jobs, logs, results):
                if item_log is not None:
                    log.append(item_log)
                if error is not None:
                    raise error
                current = taxonomy_upsert(current, descriptor, stage, iteration)
                (record.refined if stage is Stage.REFINE else record.adapted).append(item)
    except Exception as err:
        raise RefinementAbortedError(
            f"refinement aborted at iteration {len(records)}: {err}", records
        ) from err
    return current, RefinementReport(
        iterations_run=len(records), per_iteration=records, stop_reason=stop
    )
