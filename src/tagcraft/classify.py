"""Classification: argmax over category label scores for a document."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

from .backends.base import Backend, ScoreMap, ScoringPath
from .errors import ClassificationError, EmptyTaxonomyError, FallbackParseError, PromptBudgetError
from .fanout import ordered_map
from .model import Document, Taxonomy
from .prompts import TemplateId, render

# Classification prompts are never truncated; past this budget they fail loudly.
MAX_PROMPT_CHARS = 200_000


@dataclass(frozen=True)
class ClassificationResult:
    document_id: str
    predicted: str
    scores: ScoreMap
    scoring_path: ScoringPath


@dataclass(frozen=True)
class ClassificationFailure:
    """Per-document error slot for batch classification."""

    document_id: str
    error: str
    exception: Exception = field(compare=False, repr=False)


BatchItem = Union[ClassificationResult, ClassificationFailure]


def descriptor_block(taxonomy: Taxonomy) -> str:
    """One "- Name: description" line per category, in taxonomy order."""
    return "\n".join(
        f"- {category.name}: {' '.join(category.descriptor.topic_description.split())}"
        for category in taxonomy.categories
    )


def classify(
    document: Document,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    templates_dir: str | Path | None = None,
    max_prompt_chars: int = MAX_PROMPT_CHARS,
) -> ClassificationResult:
    """Score every category for the document and return the argmax, with ties
    broken deterministically by taxonomy order.
    """
    return _classify(
        document,
        taxonomy.names(),
        descriptor_block(taxonomy),
        backend,
        templates_dir=templates_dir,
        max_prompt_chars=max_prompt_chars,
    )


def _classify(
    document: Document,
    names: Sequence[str],
    block: str,
    backend: Backend,
    *,
    templates_dir: str | Path | None,
    max_prompt_chars: int,
) -> ClassificationResult:
    """classify() against a taxonomy given as its names and descriptor block,
    so a batch builds both once.
    """
    if not names:
        raise EmptyTaxonomyError("cannot classify against an empty taxonomy")
    if not document.text or not document.text.strip():
        raise ValueError(f"document {document.id!r} has empty text")
    request = render(
        TemplateId.CLASSIFY,
        {"document": document.text, "descriptor_block": block},
        templates_dir=templates_dir,
    )
    if len(request.user_text) > max_prompt_chars:
        raise PromptBudgetError(
            f"classification prompt is {len(request.user_text)} chars; "
            f"budget is {max_prompt_chars} (descriptions are never truncated)"
        )
    try:
        score_map = backend.score_labels(request, names)
    except FallbackParseError as err:
        raise ClassificationError(document.id, str(err)) from err
    try:
        predicted = argmax(score_map.scores, names)
    except KeyError as err:
        raise ClassificationError(document.id, f"backend omitted candidate {err}") from err
    return ClassificationResult(
        document_id=document.id,
        predicted=predicted,
        scores=score_map,
        scoring_path=score_map.path,
    )


def argmax(scores: dict[str, float], order: Sequence[str]) -> str:
    """First candidate (in the given order) holding the maximal score."""
    best_name: str | None = None
    best_score = 0.0
    for name in order:
        score = scores[name]
        if best_name is None or score > best_score:
            best_name = name
            best_score = score
    if best_name is None:
        raise ValueError("argmax over empty candidate order")
    return best_name


def classify_batch(
    documents: Sequence[Document],
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    concurrency_cap: int = 4,
    templates_dir: str | Path | None = None,
    max_prompt_chars: int = MAX_PROMPT_CHARS,
) -> list[BatchItem]:
    """Classify documents concurrently, returning results in input order.
    Failures are isolated per document as ClassificationFailure slots rather
    than aborting the batch.
    """
    if not documents:
        return []
    names = taxonomy.names()
    block = descriptor_block(taxonomy)

    def one(document: Document) -> BatchItem:
        try:
            return _classify(
                document,
                names,
                block,
                backend,
                templates_dir=templates_dir,
                max_prompt_chars=max_prompt_chars,
            )
        except Exception as err:
            return ClassificationFailure(document.id, str(err), err)

    return ordered_map(one, documents, concurrency_cap)
