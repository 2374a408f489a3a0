"""Classification: argmax over category label scores for a document."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from .backends.base import Backend, ScoreMap
from .errors import ClassificationError, FallbackParseError, PromptBudgetError
from .fanout import ordered_map
from .model import Document, Taxonomy, name_key
from .prompts import TemplateId, render

# Classification prompts are never truncated; past this budget they fail loudly.
MAX_PROMPT_CHARS = 200_000


@dataclass(frozen=True)
class ClassificationResult:
    document_id: str
    predicted: str
    scores: ScoreMap


@dataclass(frozen=True)
class ClassificationFailure:
    """Per-document error slot for batch classification."""

    document_id: str
    error: str
    exception: Exception = field(compare=False, repr=False)


BatchItem = Union[ClassificationResult, ClassificationFailure]


@dataclass(frozen=True)
class LabeledResult:
    """One labeled document's outcome: ``predicted`` is read back into the
    gold label's space, or None when ``item`` is a ClassificationFailure."""

    gold: str
    document: Document
    predicted: str | None
    item: BatchItem


@dataclass
class EvalReport:
    """One labeled pass (validation or a test phase): a record per document,
    in input order. ``matrix`` counts the (gold, predicted) pairs of the
    documents that did not fail, in first-seen order; the accuracies and
    counts are derived from it once."""

    records: list[LabeledResult]
    matrix: dict[tuple[str, str], int] = field(init=False)
    overall_accuracy: float = field(init=False)
    per_class_accuracy: dict[str, float] = field(init=False)
    n_documents: int = field(init=False)
    n_failed: int = field(init=False)

    def __post_init__(self) -> None:
        pairs = ((r.gold, r.predicted) for r in self.records if r.predicted is not None)
        self.matrix = dict(Counter(pairs))
        hits: Counter[str] = Counter()
        totals: Counter[str] = Counter()
        for (gold, predicted), n in self.matrix.items():
            totals[gold] += n
            if gold == predicted:
                hits[gold] += n
        self.n_documents = sum(totals.values())
        self.n_failed = len(self.records) - self.n_documents
        self.per_class_accuracy = {gold: hits[gold] / totals[gold] for gold in sorted(totals)}
        self.overall_accuracy = sum(hits.values()) / self.n_documents if self.n_documents else 0.0

    def samples(
        self, gold: str, predicted: str | None = None
    ) -> tuple[list[Document], list[Document]]:
        """The documents of ``gold`` classified right, and those classified
        wrong (as ``predicted`` only, if given), in input order."""
        own = [r for r in self.records if r.gold == gold]
        right = [r.document for r in own if r.predicted == gold]
        missed = [r for r in own if r.predicted != gold]
        return right, [r.document for r in missed if predicted in (None, r.predicted)]


def descriptor_block(taxonomy: Taxonomy) -> str:
    """One "- Name: description" line per category, in taxonomy order."""
    return "\n".join(
        f"- {category.name}: {' '.join(category.descriptor.topic_description.split())}"
        for category in taxonomy.categories
    )


def classify(document: Document, taxonomy: Taxonomy, backend: Backend) -> ClassificationResult:
    """Score every category for the document and return the argmax, with ties
    broken deterministically by taxonomy order.
    """
    return _classify(document, taxonomy.names(), descriptor_block(taxonomy), backend)


def _classify(
    document: Document, names: Sequence[str], block: str, backend: Backend
) -> ClassificationResult:
    """classify() against a taxonomy given as its names and descriptor block,
    so a batch builds both once.
    """
    if not names:
        raise ValueError("cannot classify against an empty taxonomy")
    if not document.text or not document.text.strip():
        raise ValueError(f"document {document.id!r} has empty text")
    request = render(TemplateId.CLASSIFY, {"document": document.text, "descriptor_block": block})
    if len(request.user_text) > MAX_PROMPT_CHARS:
        raise PromptBudgetError(
            f"classification prompt is {len(request.user_text)} chars; "
            f"budget is {MAX_PROMPT_CHARS} (descriptions are never truncated)"
        )
    try:
        score_map = backend.score_labels(request, names)
    except FallbackParseError as err:
        raise ClassificationError(document.id, str(err)) from err
    try:
        predicted = argmax(score_map.scores, names)
    except KeyError as err:
        raise ClassificationError(document.id, f"backend omitted candidate {err}") from err
    return ClassificationResult(document_id=document.id, predicted=predicted, scores=score_map)


def argmax(scores: dict[str, float], order: Sequence[str]) -> str:
    """First candidate (in the given order) holding the maximal score; a
    candidate missing from scores raises KeyError.
    """
    return max(order, key=scores.__getitem__)


def classify_batch(
    documents: Sequence[Document], taxonomy: Taxonomy, backend: Backend
) -> list[BatchItem]:
    """Classify documents concurrently, up to the backend's max_concurrency,
    returning results in input order. Failures are isolated per document as
    ClassificationFailure slots rather than aborting the batch.
    """
    if not documents:
        return []
    names = taxonomy.names()
    block = descriptor_block(taxonomy)

    def one(document: Document) -> BatchItem:
        try:
            return _classify(document, names, block, backend)
        except Exception as err:
            return ClassificationFailure(document.id, str(err), err)

    return ordered_map(one, documents, backend.capabilities().max_concurrency)


def classify_labeled(
    labeled: Sequence[tuple[str, Document]],
    taxonomy: Taxonomy,
    backend: Backend,
    label_names: Mapping[str, str] | None = None,
) -> EvalReport:
    """Classify (gold, document) pairs with classify_batch; the report holds
    one record per document, in input order. ``label_names`` (label ->
    category name) reads each prediction back to its label; a name no label
    maps to stays as it is."""
    label_of = {name_key(name): label for label, name in (label_names or {}).items()}
    items = classify_batch([document for _, document in labeled], taxonomy, backend)
    records = []
    for (gold, document), item in zip(labeled, items):
        predicted = None
        if isinstance(item, ClassificationResult):
            predicted = label_of.get(name_key(item.predicted), item.predicted)
        records.append(LabeledResult(gold, document, predicted, item))
    return EvalReport(records)
