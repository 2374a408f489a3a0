from __future__ import annotations

import io
import json
import random
import re
from collections import Counter

import pytest

from helpers import (
    ScriptedAccuracyBackend,
    StubBackend,
    make_taxonomy,
    scripted_docs,
    validation_outcome,
)
from tagcraft import (
    ConfusionPair,
    Document,
    RefinementConfig,
    Stage,
    StopReason,
    TopicDescriptor,
    adapt_pair,
    add_topic,
    mine_confusion_pairs,
    refine_description,
    refine_loop,
    taxonomy_upsert,
    validate_category_set,
)
from tagcraft.errors import (
    ClassificationError,
    FallbackParseError,
    RefinementAbortedError,
    SchemaError,
    UnknownCategoryError,
)
from tagcraft.runlog import RunLog


def _separable_taxonomy():
    return make_taxonomy(
        [("Alpha", "Covers aqua1, aqua2, aqua3."), ("Beta", "Covers brick1, brick2, brick3.")]
    )


def _docs_for(label: str, words: list[str], n: int) -> list[Document]:
    return [
        Document(id=f"{label}-{i}", text=" ".join(words), gold_label=label) for i in range(n)
    ]


# -- validation -----------------------------------------------------------------


def test_validation_separable_corpus_is_perfect(mock_backend) -> None:
    taxonomy = _separable_taxonomy()
    docs = _docs_for("Alpha", ["aqua1", "aqua2"], 10) + _docs_for("Beta", ["brick1"], 10)
    outcome = validate_category_set(taxonomy, docs, mock_backend)
    assert outcome.per_class_accuracy == {"Alpha": 1.0, "Beta": 1.0}
    assert all(record.predicted == record.gold for record in outcome.records)
    assert outcome.n_documents == 20


def test_validation_adversarial_corpus_hits_zero(mock_backend) -> None:
    taxonomy = _separable_taxonomy()
    # every Beta document is written in Alpha vocabulary
    docs = _docs_for("Beta", ["aqua1", "aqua2"], 10)
    outcome = validate_category_set(taxonomy, docs, mock_backend)
    assert outcome.per_class_accuracy["Beta"] == 0.0
    assert outcome.samples("Beta") == ([], docs)
    assert [(r.gold, r.predicted) for r in outcome.records] == [("Beta", "Alpha")] * 10


def test_validation_empty_docs_is_empty_outcome(mock_backend) -> None:
    outcome = validate_category_set(_separable_taxonomy(), [], mock_backend)
    assert outcome.n_documents == 0
    assert outcome.per_class_accuracy == {}
    assert (outcome.matrix, outcome.overall_accuracy, outcome.n_failed) == ({}, 0.0, 0)


@pytest.mark.parametrize(
    "label", [None, "", "   ", "Ghost"], ids=["None", "empty", "whitespace", "Ghost"]
)
def test_validation_unknown_gold_label_raises(mock_backend, label) -> None:
    docs = [Document(id="d", text="aqua1", gold_label=label)]
    message = f"document 'd' has unknown gold label {label!r}"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        validate_category_set(_separable_taxonomy(), docs, mock_backend)


def test_validation_gold_matching_is_case_insensitive(mock_backend) -> None:
    docs = [Document(id="d", text="aqua1 aqua2", gold_label="ALPHA")]
    outcome = validate_category_set(_separable_taxonomy(), docs, mock_backend)
    assert outcome.per_class_accuracy == {"Alpha": 1.0}


def test_validation_uncovered_category_warns_but_succeeds(mock_backend, caplog) -> None:
    docs = _docs_for("Alpha", ["aqua1"], 3)  # nothing for Beta
    with caplog.at_level("WARNING", logger="tagcraft.refine"):
        outcome = validate_category_set(_separable_taxonomy(), docs, mock_backend)
    assert "Beta" in caplog.text
    assert "Beta" not in outcome.per_class_accuracy


# -- refine_description -----------------------------------------------------------


def test_refine_description_keeps_name_and_mentions_missed_patterns(mock_backend) -> None:
    taxonomy = make_taxonomy([("Network_Connectivity", "Covers outages, drops.")])
    category = taxonomy.categories[0]
    wrong = [
        Document(id="w1", text="vpn tunnel fails"),
        Document(id="w2", text="vpn proxy timeout"),
    ]
    right = [Document(id="r1", text="outage downtown")]
    descriptor = refine_description(category, right, wrong, mock_backend)
    assert descriptor.topic_name == "Network_Connectivity"
    assert "vpn" in descriptor.topic_description.lower()


def test_refine_reply_rename_is_overridden_back() -> None:
    backend = StubBackend(
        completions=['{"topic_name": "Totally_Different", "topic_description": "new text."}']
    )
    taxonomy = make_taxonomy([("Stable_Name", "old text")])
    descriptor = refine_description(
        taxonomy.categories[0],
        [],
        [Document(id="w", text="x")],
        backend,
    )
    assert descriptor.topic_name == "Stable_Name"
    assert descriptor.topic_description == "new text."


def _refine_stable_name(backend):
    taxonomy = make_taxonomy([("Stable_Name", "old text")])
    wrong = [Document(id="w", text="x")]
    return "Stable_Name", refine_description(taxonomy.categories[0], [], wrong, backend)


def _adapt_software_auth(backend):
    taxonomy = make_taxonomy([("Software_Auth", "software"), ("Hardware_Auth", "hardware")])
    pair = ConfusionPair("Software_Auth", "Hardware_Auth", 2)
    return "Software_Auth", adapt_pair(pair, _outcome_for_pair(), taxonomy, backend)


def _add_stable_name(backend):
    rough = TopicDescriptor("Stable_Name", "rough words")
    taxonomy = add_topic(rough, make_taxonomy([("Other", "o")]), backend, run_contrast=False)
    return "Stable_Name", taxonomy.categories[-1].descriptor


@pytest.mark.parametrize(
    "rewrite",
    [_refine_stable_name, _adapt_software_auth, _add_stable_name],
    ids=["refine_description", "adapt_pair", "add_topic"],
)
def test_rewrite_step_names_a_renaming_reply_back_and_logs_it(rewrite, caplog) -> None:
    backend = StubBackend(
        completions=['{"topic_name": "Totally_Different", "topic_description": "new text."}']
    )
    with caplog.at_level("INFO", logger="tagcraft.refine"):
        name, descriptor = rewrite(backend)
    assert descriptor == TopicDescriptor(name, "new text.")
    renames = [r for r in caplog.records if r.levelname == "INFO" and "renamed" in r.getMessage()]
    assert len(renames) == 1
    assert name in renames[0].getMessage()
    assert "Totally_Different" in renames[0].getMessage()


def test_refine_requires_misclassified_samples(mock_backend) -> None:
    taxonomy = make_taxonomy([("Alpha", "a")])
    with pytest.raises(ValueError):
        refine_description(taxonomy.categories[0], [], [], mock_backend)


# -- confusion pair mining ---------------------------------------------------------


def test_mine_drops_below_min_count_and_sorts() -> None:
    matrix = {("A", "B"): 5, ("B", "A"): 3, ("A", "C"): 1}
    pairs = mine_confusion_pairs(matrix, min_count=2, top_k=3)
    assert pairs == [ConfusionPair("A", "B", 5), ConfusionPair("B", "A", 3)]


def test_mine_empty_matrix() -> None:
    assert mine_confusion_pairs({}, 2, 3) == []


def test_mine_tie_breaks_by_name_order() -> None:
    matrix = {("C", "D"): 2, ("A", "B"): 2}
    assert mine_confusion_pairs(matrix, min_count=2, top_k=1) == [ConfusionPair("A", "B", 2)]


def test_mine_ignores_diagonal() -> None:
    matrix = {("A", "A"): 50, ("A", "B"): 2}
    assert mine_confusion_pairs(matrix, 1, 5) == [ConfusionPair("A", "B", 2)]


def test_mine_matches_bruteforce_on_random_matrices() -> None:
    rng = random.Random(21)
    labels = [f"L{i}" for i in range(6)]
    for _ in range(100):
        matrix = {}
        for gold in labels:
            for predicted in labels:
                count = rng.randrange(0, 5)
                if count:
                    matrix[(gold, predicted)] = count
        min_count = rng.randrange(1, 4)
        top_k = rng.randrange(1, 6)
        # independent oracle: repeated max extraction
        remaining = [
            (g, p, c) for (g, p), c in matrix.items() if g != p and c >= min_count
        ]
        expected = []
        while remaining and len(expected) < top_k:
            best = remaining[0]
            for cell in remaining[1:]:
                if (cell[2] > best[2]) or (
                    cell[2] == best[2] and (cell[0], cell[1]) < (best[0], best[1])
                ):
                    best = cell
            expected.append(ConfusionPair(*best))
            remaining.remove(best)
        assert mine_confusion_pairs(matrix, min_count, top_k) == expected


# -- adapt_pair ---------------------------------------------------------------------


def _outcome_for_pair():
    software, hardware = "Software_Auth", "Hardware_Auth"
    return validation_outcome(
        [
            (software, Document(id="s1", text="password reset loop"), hardware),
            (software, Document(id="s2", text="token app crash"), hardware),
            (hardware, Document(id="h1", text="badge reader jam"), software),
            (hardware, Document(id="h2", text="fingerprint scanner dead"), software),
            (software, Document(id="s3", text="password expired"), software),
            (hardware, Document(id="h3", text="card reader offline"), hardware),
        ]
    )


def test_adapt_both_directions_appends_one_entry_per_category(mock_backend) -> None:
    taxonomy = make_taxonomy([("Software_Auth", "software"), ("Hardware_Auth", "hardware")])
    outcome = _outcome_for_pair()
    for pair in (
        ConfusionPair("Software_Auth", "Hardware_Auth", 2),
        ConfusionPair("Hardware_Auth", "Software_Auth", 2),
    ):
        descriptor = adapt_pair(pair, outcome, taxonomy, mock_backend)
        taxonomy = taxonomy_upsert(taxonomy, descriptor, Stage.ADAPT, 0)
    for category in taxonomy.categories:
        assert len(category.history) == 2
        assert category.history[-1].stage is Stage.ADAPT
    assert "Hardware_Auth" in taxonomy.categories[0].descriptor.topic_description


def test_adapt_unknown_category_raises(mock_backend) -> None:
    taxonomy = make_taxonomy([("Software_Auth", "software")])
    with pytest.raises(UnknownCategoryError):
        adapt_pair(
            ConfusionPair("Software_Auth", "Ghost", 2), _outcome_for_pair(), taxonomy, mock_backend
        )


def test_adapt_missing_samples_raises(mock_backend) -> None:
    taxonomy = make_taxonomy([("Software_Auth", "software"), ("Hardware_Auth", "hardware")])
    outcome = validation_outcome([])
    message = "no validation samples for confusion 'Software_Auth' -> 'Hardware_Auth'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        adapt_pair(
            ConfusionPair("Software_Auth", "Hardware_Auth", 2), outcome, taxonomy, mock_backend
        )


# -- refine_loop ----------------------------------------------------------------------


# More misses than a category has, so no confusion pair is mined and every
# below-threshold category is refined rather than adapted.
NO_PAIRS = {"min_confusion_count": 21}


def _loop_config(**kwargs) -> RefinementConfig:
    defaults = dict(
        m_validate=20,
        accuracy_threshold=0.8,
        max_iterations=4,
        seed=1,
        min_confusion_count=2,
        top_k_pairs=3,
    )
    defaults.update(kwargs)
    return RefinementConfig(**defaults)


def test_loop_two_validations_one_refinement_round() -> None:
    # min accuracies 0.70 then 0.85 against threshold 0.80
    backend = ScriptedAccuracyBackend([{"Alpha": 14, "Beta": 20}, {"Alpha": 17, "Beta": 20}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    result, report = refine_loop(taxonomy, docs, _loop_config(**NO_PAIRS), backend)
    assert report.stop_reason is StopReason.THRESHOLD_MET
    assert report.iterations_run == 2
    assert report.per_iteration[0].accuracy == {"Alpha": 0.70, "Beta": 1.0}
    assert report.per_iteration[0].refined == ["Alpha"]
    assert report.per_iteration[1].accuracy == {"Alpha": 0.85, "Beta": 1.0}
    assert report.per_iteration[1].refined == []


def test_loop_pinned_below_threshold_runs_all_four_rounds() -> None:
    backend = ScriptedAccuracyBackend([{"Alpha": 10, "Beta": 20}])  # 0.50 forever
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    result, report = refine_loop(taxonomy, docs, _loop_config(**NO_PAIRS), backend)
    assert report.stop_reason is StopReason.MAX_ITERATIONS
    assert report.iterations_run == 4
    assert all(record.refined == ["Alpha"] for record in report.per_iteration)
    # every record kept its accuracy snapshot
    assert all(record.accuracy["Alpha"] == 0.5 for record in report.per_iteration)


def test_loop_trivial_threshold_stops_immediately() -> None:
    backend = ScriptedAccuracyBackend([{"Alpha": 1, "Beta": 20}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    result, report = refine_loop(taxonomy, docs, _loop_config(accuracy_threshold=0.01), backend)
    assert report.stop_reason is StopReason.THRESHOLD_MET
    assert report.iterations_run == 1
    assert report.per_iteration[0].refined == []
    assert result == taxonomy  # nothing was refined


def test_loop_only_failing_categories_get_refine_entries() -> None:
    backend = ScriptedAccuracyBackend([{"Alpha": 10, "Beta": 20}, {"Alpha": 20, "Beta": 20}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    result, report = refine_loop(taxonomy, docs, _loop_config(**NO_PAIRS), backend)
    alpha, beta = result.categories
    assert any(entry.stage is Stage.REFINE for entry in alpha.history)
    assert not any(entry.stage is Stage.REFINE for entry in beta.history)


def test_loop_mines_and_adapts_confused_pairs() -> None:
    # Alpha misclassified 10 times, all toward Beta (alphabetical next).
    backend = ScriptedAccuracyBackend([{"Alpha": 10, "Beta": 20}, {"Alpha": 20, "Beta": 20}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    result, report = refine_loop(taxonomy, docs, _loop_config(), backend)
    assert report.per_iteration[0].adapted == [ConfusionPair("Alpha", "Beta", 10)]
    alpha = result.categories[0]
    # The adapt replaces Alpha's refine, so Alpha is not refined as well.
    assert [entry.stage for entry in alpha.history] == [Stage.BOOTSTRAP, Stage.ADAPT]


def test_loop_does_not_refine_a_category_its_pair_adapts() -> None:
    # Alpha misses 10 times toward Beta, a mined pair; Gamma misses once
    # (toward Alpha), below the 0.99 threshold but under min_confusion_count.
    backend = ScriptedAccuracyBackend(
        [{"Alpha": 10, "Beta": 20, "Gamma": 19}, {"Alpha": 20, "Beta": 20, "Gamma": 20}]
    )
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b"), ("Gamma", "c")])
    docs = scripted_docs(["Alpha", "Beta", "Gamma"], 20)
    buffer = io.StringIO()
    result, report = refine_loop(
        taxonomy, docs, _loop_config(accuracy_threshold=0.99), backend, log=RunLog(buffer)
    )
    first = report.per_iteration[0]
    assert first.adapted == [ConfusionPair("Alpha", "Beta", 10)]
    assert first.refined == ["Gamma"]
    alpha, _, gamma = result.categories
    assert [entry.stage for entry in alpha.history] == [Stage.BOOTSTRAP, Stage.ADAPT]
    assert [entry.stage for entry in gamma.history] == [Stage.BOOTSTRAP, Stage.REFINE]
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert [(event["stage"], event.get("category")) for event in events] == [
        ("validate", None),
        ("refine", "Gamma"),
        ("adapt", "Alpha"),
        ("validate", None),
    ]


def test_loop_aborts_with_partial_report() -> None:
    class FailingRefine(ScriptedAccuracyBackend):
        def complete(self, request):
            raise RuntimeError("backend down")

    backend = FailingRefine([{"Alpha": 10, "Beta": 20}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    with pytest.raises(RefinementAbortedError) as exc:
        refine_loop(taxonomy, docs, _loop_config(), backend)
    assert len(exc.value.iterations) == 1
    assert exc.value.iterations[0].accuracy["Alpha"] == 0.5
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_loop_aborts_when_a_validation_document_fails_to_score() -> None:
    class FailsOnOneDocument(ScriptedAccuracyBackend):
        def score_labels(self, request, candidates):
            if "gold=Beta idx=3" in request.user_text:
                raise FallbackParseError("matched no candidate")
            return super().score_labels(request, candidates)

    backend = FailsOnOneDocument([{"Alpha": 20, "Beta": 20}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 20)
    with pytest.raises(RefinementAbortedError) as exc:
        refine_loop(taxonomy, docs, _loop_config(), backend)
    assert exc.value.iterations == []
    cause = exc.value.__cause__
    assert isinstance(cause, ClassificationError)
    assert cause.document_id == "Beta-3"


def test_loop_emits_run_log_events() -> None:
    # Alpha is adapted against Beta; Gamma's single miss is refined.
    backend = ScriptedAccuracyBackend(
        [{"Alpha": 10, "Beta": 20, "Gamma": 19}, {"Alpha": 20, "Beta": 20, "Gamma": 20}]
    )
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b"), ("Gamma", "c")])
    docs = scripted_docs(["Alpha", "Beta", "Gamma"], 20)
    buffer = io.StringIO()
    refine_loop(
        taxonomy, docs, _loop_config(accuracy_threshold=0.99), backend, log=RunLog(buffer)
    )
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    stages = [event["stage"] for event in events]
    assert stages == ["validate", "refine", "adapt", "validate"]
    refine_event = events[1]
    assert refine_event["category"] == "Gamma"
    assert len(refine_event["prompt_sha256"]) == 64
    assert refine_event["ok"] is True
    assert events[0]["accuracy"] == 0.5
    assert events[2]["pair"] == ["Alpha", "Beta"]


def test_loop_validates_one_subset_in_every_iteration() -> None:
    validated: list[str] = []

    class Recording(ScriptedAccuracyBackend):
        def score_labels(self, request, candidates):
            validated.append(re.search(r"gold=\S+ idx=\d+", request.user_text).group(0))
            return super().score_labels(request, candidates)

    backend = Recording([{"Alpha": 0, "Beta": 0}])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 40)  # each pool is four times m_validate
    config = _loop_config(m_validate=10, max_iterations=3)
    _, report = refine_loop(taxonomy, docs, config, backend)
    assert report.iterations_run == 3
    assert len(validated) == 60
    passes = [sorted(validated[start : start + 20]) for start in range(0, 60, 20)]
    assert passes[0] == passes[1] == passes[2]
    pools = {"Alpha": docs[:40], "Beta": docs[40:]}
    drawn = [
        d for label, pool in pools.items() for d in random.Random(f"1:{label}:0").sample(pool, 10)
    ]
    assert passes[0] == sorted(d.text for d in drawn)


def test_loop_draws_one_subset_per_category_whatever_its_label_spelling() -> None:
    validated: list[str] = []

    class Recording(ScriptedAccuracyBackend):
        def score_labels(self, request, candidates):
            validated.append(re.search(r"gold=\S+ idx=\d+", request.user_text).group(0))
            return super().score_labels(request, candidates)

    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "alpha", "Beta"], 20)
    config = _loop_config(m_validate=10, max_iterations=1)
    refine_loop(taxonomy, docs, config, Recording([{}]))
    per_category = Counter(text.split()[0].casefold() for text in validated)
    assert per_category == {"gold=alpha": 10, "gold=beta": 10}
    # one pool holds both spellings, and its seed is the first spelling in input order
    drawn = random.Random("1:Alpha:0").sample(docs[:40], 10)
    drawn += random.Random("1:Beta:0").sample(docs[40:], 10)
    assert sorted(validated) == sorted(d.text for d in drawn)


@pytest.mark.parametrize("label", [None, "", "   "], ids=["None", "empty", "whitespace"])
def test_loop_reports_a_blank_gold_label_as_unknown(label) -> None:
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = scripted_docs(["Alpha", "Beta"], 5) + [Document("blank", "gold=x idx=0", label)]
    with pytest.raises(RefinementAbortedError) as exc:
        refine_loop(taxonomy, docs, _loop_config(), ScriptedAccuracyBackend([{}]))
    assert isinstance(exc.value.__cause__, SchemaError)
    assert str(exc.value.__cause__) == f"document 'blank' has unknown gold label {label!r}"
