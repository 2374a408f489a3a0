from __future__ import annotations

import random

import pytest

from helpers import CappedBackend, StubBackend, make_taxonomy, validation_outcome
from tagcraft import Document, MockBackend, classify, classify_batch
from tagcraft.classify import (
    ClassificationFailure,
    ClassificationResult,
    argmax,
    classify_labeled,
)
from tagcraft.errors import ClassificationError, FallbackParseError, PromptBudgetError


def _score_backend(scores: dict[str, float]) -> StubBackend:
    return StubBackend(score_fn=lambda request, names: {n: scores[n] for n in names})


def test_argmax_forced_example() -> None:
    taxonomy = make_taxonomy([("Sports", "s"), ("Business", "b")])
    backend = _score_backend({"Sports": -1.2, "Business": -3.4})
    result = classify(Document(id="d", text="t"), taxonomy, backend)
    assert result.predicted == "Sports"
    assert result.scores.scores["Business"] == -3.4


def test_tie_breaks_to_earliest_category() -> None:
    taxonomy = make_taxonomy([("First", "f"), ("Middle", "m"), ("Third", "t")])
    backend = _score_backend({"First": 0.5, "Middle": 0.1, "Third": 0.5})
    result = classify(Document(id="d", text="t"), taxonomy, backend)
    assert result.predicted == "First"


def test_single_category_always_wins(mock_backend: MockBackend) -> None:
    taxonomy = make_taxonomy([("Only", "about anything")])
    result = classify(Document(id="d", text="completely unrelated text"), taxonomy, mock_backend)
    assert result.predicted == "Only"


def test_empty_taxonomy_rejected(mock_backend: MockBackend) -> None:
    from tagcraft import Taxonomy

    with pytest.raises(ValueError, match="^cannot classify against an empty taxonomy$"):
        classify(Document(id="d", text="t"), Taxonomy(), mock_backend)


def test_empty_document_rejected(mock_backend: MockBackend) -> None:
    taxonomy = make_taxonomy([("A", "a")])
    with pytest.raises(ValueError):
        classify(Document(id="d", text="   "), taxonomy, mock_backend)


def test_prompt_budget_fails_loudly() -> None:
    taxonomy = make_taxonomy([("A", "a")])
    backend = _score_backend({"A": 0.0})
    with pytest.raises(PromptBudgetError):
        classify(Document(id="d", text="x" * 200_001), taxonomy, backend)
    assert backend.score_calls == 0


def test_fallback_parse_error_surfaces_as_classification_failed() -> None:
    def explode(request, names):
        raise FallbackParseError("no match")

    backend = StubBackend(score_fn=explode)
    # score_fn raising inside score_labels: simulate via direct backend subclass
    class Boom(StubBackend):
        def score_labels(self, request, candidates):
            raise FallbackParseError("no match")

    taxonomy = make_taxonomy([("A", "a")])
    with pytest.raises(ClassificationError):
        classify(Document(id="d", text="t"), taxonomy, Boom())


def test_permutation_covariance_unique_max() -> None:
    rng = random.Random(5)
    names = [f"Cat_{i}" for i in range(6)]
    for _ in range(50):
        scores = {n: rng.random() for n in names}
        winner_value = max(scores.values())
        order = names[:]
        rng.shuffle(order)
        taxonomy = make_taxonomy([(n, "d") for n in order])
        backend = _score_backend(scores)
        result = classify(Document(id="d", text="t"), taxonomy, backend)
        assert scores[result.predicted] == winner_value


def test_permutation_ties_go_to_earliest_presented() -> None:
    names = ["A", "B", "C", "D"]
    scores = {"A": 1.0, "B": 1.0, "C": 1.0, "D": 0.0}
    for order in (["A", "B", "C", "D"], ["C", "D", "B", "A"], ["B", "C", "A", "D"]):
        taxonomy = make_taxonomy([(n, "d") for n in order])
        result = classify(Document(id="d", text="t"), taxonomy, _score_backend(scores))
        tied = [n for n in order if scores[n] == 1.0]
        assert result.predicted == tied[0]


def test_batch_equals_serial(mock_backend: MockBackend) -> None:
    taxonomy = make_taxonomy([("Alpha", "Covers aqua1, aqua2."), ("Beta", "Covers brick1.")])
    docs = [
        Document(id="1", text="aqua1 aqua2"),
        Document(id="2", text="brick1"),
        Document(id="3", text="aqua2"),
    ]
    batch = classify_batch(docs, taxonomy, CappedBackend(mock_backend, 3))
    serial = [classify(d, taxonomy, mock_backend) for d in docs]
    assert batch == serial
    assert [r.document_id for r in batch] == ["1", "2", "3"]


def test_batch_isolates_per_document_failures(mock_backend: MockBackend) -> None:
    taxonomy = make_taxonomy([("Alpha", "Covers aqua1.")])
    docs = [
        Document(id="ok-1", text="aqua1"),
        Document(id="bad", text="   "),
        Document(id="ok-2", text="aqua1 aqua1"),
    ]
    results = classify_batch(docs, taxonomy, mock_backend)
    assert isinstance(results[0], ClassificationResult)
    assert isinstance(results[1], ClassificationFailure)
    assert results[1].document_id == "bad"
    assert isinstance(results[2], ClassificationResult)


def test_labeled_records_read_predictions_back_and_keep_failures_out_of_the_matrix(
    mock_backend: MockBackend,
) -> None:
    taxonomy = make_taxonomy([("Alpha", "Covers aqua1."), ("Beta", "Covers brick1.")])
    labeled = [
        ("a", Document(id="1", text="aqua1")),
        ("a", Document(id="2", text="brick1")),
        ("b", Document(id="3", text="   ")),
    ]
    report = classify_labeled(labeled, taxonomy, mock_backend, {"a": "ALPHA"})
    records = report.records
    # Alpha reads back to its label; Beta has none, so it keeps its name.
    assert [(r.gold, r.document.id, r.predicted) for r in records] == [
        ("a", "1", "a"),
        ("a", "2", "Beta"),
        ("b", "3", None),
    ]
    assert isinstance(records[0].item, ClassificationResult)
    assert isinstance(records[2].item, ClassificationFailure)
    assert report.matrix == {("a", "a"): 1, ("a", "Beta"): 1}
    assert (report.n_documents, report.n_failed) == (2, 1)
    # A pass whose every document fails scores nothing.
    failed = classify_labeled([labeled[2]] * 2, taxonomy, mock_backend)
    assert (failed.matrix, failed.overall_accuracy, failed.per_class_accuracy) == ({}, 0.0, {})
    assert (failed.n_documents, failed.n_failed) == (0, len(failed.records))


def test_matrix_accuracy_derivation() -> None:
    document = Document(id="d", text="text")
    rows = [("B", "B")] + [("A", "A")] * 3 + [("A", "B")]
    report = validation_outcome([(gold, document, predicted) for gold, predicted in rows])
    # Cells in first-seen order; per-class accuracy in sorted gold order.
    assert list(report.matrix.items()) == [(("B", "B"), 1), (("A", "A"), 3), (("A", "B"), 1)]
    assert report.n_documents == 5
    assert list(report.per_class_accuracy.items()) == [("A", 0.75), ("B", 1.0)]
    assert report.overall_accuracy == pytest.approx(0.8)


def test_empty_batch_is_empty_list(mock_backend: MockBackend) -> None:
    taxonomy = make_taxonomy([("Alpha", "a")])
    assert classify_batch([], taxonomy, mock_backend) == []


def test_argmax_oracle_equivalence_small() -> None:
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 8)
        names = [f"N{i}" for i in range(n)]
        values = [rng.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(n)]
        scores = dict(zip(names, values))
        # independent oracle: scan remembering strictly-greater winners
        best = names[0]
        for name in names[1:]:
            if scores[name] > scores[best]:
                best = name
        assert argmax(scores, names) == best
