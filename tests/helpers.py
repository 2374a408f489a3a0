"""Shared test helpers: scripted backends, synthetic corpora, fixtures."""

from __future__ import annotations

import csv
import json
import random
import re
import threading
from pathlib import Path
from typing import Callable, Sequence

from tagcraft import (
    Document,
    Stage,
    Taxonomy,
    TopicDescriptor,
    taxonomy_upsert,
)
from tagcraft.backends.base import (
    Backend,
    BackendCapabilities,
    PromptRequest,
    ScoreMap,
    ScoringPath,
    check_candidates,
)

CANNED_DESCRIPTOR = '{"topic_name": "Scripted", "topic_description": "scripted update"}'


class StubBackend(Backend):
    """Backend returning scripted completions (last one repeats) and scores
    from an optional callable. Records every prompt it saw. Safe to share
    across threads; under concurrent callers the order of ``prompts`` and of
    the scripted replies follows arrival order.
    """

    def __init__(
        self,
        completions: Sequence[str | Callable[[PromptRequest], str]] = (),
        score_fn: Callable[[PromptRequest, list[str]], dict[str, float]] | None = None,
    ):
        self._completions = list(completions)
        self._cursor = 0
        self._score_fn = score_fn
        self.prompts: list[str] = []
        self.score_calls = 0
        self._lock = threading.Lock()

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(supports_label_scoring=self._score_fn is not None, model_id="stub")

    def complete(self, request: PromptRequest) -> str:
        with self._lock:
            self.prompts.append(request.user_text)
            if not self._completions:
                raise AssertionError("StubBackend has no scripted completions")
            item = self._completions[min(self._cursor, len(self._completions) - 1)]
            self._cursor += 1
        return item(request) if callable(item) else item

    def score_labels(self, request: PromptRequest, candidates) -> ScoreMap:
        names = check_candidates(candidates)
        with self._lock:
            self.score_calls += 1
        if self._score_fn is None:
            raise AssertionError("StubBackend has no score function")
        return ScoreMap(scores=self._score_fn(request, names), path=ScoringPath.MOCK)


_DOC_TAG = re.compile(r"gold=(\S+) idx=(\d+)")


class ScriptedAccuracyBackend(Backend):
    """Drives refine_loop through a scripted per-iteration accuracy schedule.

    ``schedule[t][label]`` is the number of documents of that label answered
    correctly during that label's (t+1)-th validation pass; the schedule's
    last entry repeats if the loop validates more often. Documents must carry
    text of the form ``gold=<label> idx=<k>`` (see :func:`scripted_docs`);
    the first ``correct_count`` indices are classified correctly, the rest go
    to the alphabetically next other label. Completion requests (refine and
    adapt prompts) return a canned descriptor.
    """

    def __init__(self, schedule: Sequence[dict[str, int]]):
        self.schedule = [dict(entry) for entry in schedule]
        self._passes: dict[tuple[str, int], int] = {}
        self._lock = threading.Lock()
        self.complete_calls = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(supports_label_scoring=True, model_id="scripted")

    def complete(self, request: PromptRequest) -> str:
        with self._lock:
            self.complete_calls += 1
        return CANNED_DESCRIPTOR

    def score_labels(self, request: PromptRequest, candidates) -> ScoreMap:
        names = check_candidates(candidates)
        match = _DOC_TAG.search(request.user_text)
        if not match:
            raise AssertionError("scripted backend needs gold=<label> idx=<k> documents")
        gold, idx = match.group(1), int(match.group(2))
        with self._lock:
            iteration = self._passes.get((gold, idx), 0)
            self._passes[(gold, idx)] = iteration + 1
        entry = self.schedule[min(iteration, len(self.schedule) - 1)]
        correct = idx < entry.get(gold, 0)
        if correct:
            winner = gold
        else:
            others = sorted(n for n in names if n != gold)
            winner = others[0] if others else gold
        return ScoreMap(
            scores={n: (1.0 if n == winner else 0.0) for n in names},
            path=ScoringPath.MOCK,
        )


def scripted_docs(labels: Sequence[str], per_label: int) -> list[Document]:
    """Documents whose text encodes gold label and index for the scripted backend."""
    return [
        Document(id=f"{label}-{k}", text=f"gold={label} idx={k}", gold_label=label)
        for label in labels
        for k in range(per_label)
    ]


def make_taxonomy(pairs: Sequence[tuple[str, str]], stage: Stage = Stage.BOOTSTRAP) -> Taxonomy:
    taxonomy = Taxonomy()
    for name, description in pairs:
        taxonomy = taxonomy_upsert(taxonomy, TopicDescriptor(name, description), stage, 0)
    return taxonomy


# -- synthetic keyword corpora ------------------------------------------------

_PREFIXES = ("aqua", "brick", "cedar", "dune", "ember", "fjord", "grove", "heath")


def class_vocab(n_classes: int = 4, size: int = 12) -> dict[str, list[str]]:
    """Disjoint per-class keyword vocabularies."""
    labels = [f"Class{chr(65 + i)}" for i in range(n_classes)]
    return {
        label: [f"{_PREFIXES[i % len(_PREFIXES)]}{j}" for j in range(size)]
        for i, label in enumerate(labels)
    }


def keyword_documents(
    vocab: dict[str, list[str]], per_class: int, words_per_doc: int = 8, seed: int = 0
) -> list[Document]:
    rng = random.Random(seed)
    documents = []
    for label, words in vocab.items():
        for k in range(per_class):
            documents.append(
                Document(
                    id=f"{label}-{k}",
                    text=" ".join(rng.sample(words, words_per_doc)),
                    gold_label=label,
                )
            )
    return documents


def paired_documents(n_pairs: int, per_class: int, seed: int = 0) -> list[Document]:
    """Classes in pairs (``Pair0X``/``Pair0Y``, ...) whose documents all carry
    the pair's two anchor words and mostly share its vocabulary. Both classes
    of a pair bootstrap to the same name (the second gets ``_2``), and
    validation confuses them, so refine and adapt really run.
    """
    rng = random.Random(seed)
    documents = []
    for p in range(n_pairs):
        prefix = _PREFIXES[p % len(_PREFIXES)]
        anchors = [f"{prefix}anchor", f"{prefix}key"]
        shared = [f"{prefix}{j}" for j in range(10)]
        for side in "xy":
            label = f"Pair{p}{side.upper()}"
            own = [f"{prefix}{side}{j}" for j in range(6)]
            for k in range(per_class):
                words = anchors + rng.sample(shared, 5) + rng.sample(own, 2)
                rng.shuffle(words)
                documents.append(Document(id=f"{label}-{k}", text=" ".join(words), gold_label=label))
    return documents


def write_generic_csv(documents: Sequence[Document], path: Path) -> Path:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["text", "label"])
        for document in documents:
            writer.writerow([document.text, document.gold_label])
    return path


def write_plan(
    path: Path,
    data_path: Path,
    seen: Sequence[str],
    unseen: Sequence[str],
    *,
    n_bootstrap: int = 20,
    m_validate: int = 25,
    test_per_class: int = 100,
    seed: int = 0,
    refinement: dict | None = None,
) -> Path:
    payload = {
        "dataset": "csv",
        "data_path": str(data_path),
        "seen_labels": list(seen),
        "unseen_labels": list(unseen),
        "n_bootstrap": n_bootstrap,
        "m_validate": m_validate,
        "test_per_class": test_per_class,
        "seed": seed,
    }
    if refinement:
        payload["refinement"] = refinement
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return path


# -- descriptor extraction fixtures -------------------------------------------

# (completion text, expected topic_name, expected topic_description)
DESCRIPTOR_FIXTURES_OK: list[tuple[str, str, str]] = [
    (
        '{"topic_name": "Login_Issues", "topic_description": "Covers login failures."}',
        "Login_Issues",
        "Covers login failures.",
    ),
    (
        '```json\n{"topic_name": "Login_Issues", "topic_description": "Covers login failures."}\n```',
        "Login_Issues",
        "Covers login failures.",
    ),
    (
        '```\n{"topic_name": "Fenced_NoLang", "topic_description": "Plain fence."}\n```',
        "Fenced_NoLang",
        "Plain fence.",
    ),
    (
        'Here is the JSON: {"topic_name": "Prefixed", "topic_description": "Prose before."}',
        "Prefixed",
        "Prose before.",
    ),
    (
        '{"topic_name": "Refined_Tag", "topic_Description": "Capitalized key."}',
        "Refined_Tag",
        "Capitalized key.",
    ),
    (
        '{"TOPIC_NAME": "Upper_Keys", "TOPIC_DESCRIPTION": "Shouting keys."}',
        "Upper_Keys",
        "Shouting keys.",
    ),
    (
        '{" topic_name ": "Spaced_Keys", " topic_Description ": "Keys with padding."}',
        "Spaced_Keys",
        "Keys with padding.",
    ),
    (
        '{"topic_name": " Network Connectivity ", "topic_description": " Stray spaces. "}',
        "Network_Connectivity",
        "Stray spaces.",
    ),
    (
        '{"topic_name": "Braces_Inside", "topic_description": "Keeps {curly} and } inside."}',
        "Braces_Inside",
        "Keeps {curly} and } inside.",
    ),
    (
        'The refined tag follows.\n\n{"topic_name": "Trailing_Prose", "topic_description": "Done."}\n\nLet me know!',
        "Trailing_Prose",
        "Done.",
    ),
    (
        '{"topic_name": "Escaped", "topic_description": "She said \\"ok\\"."}',
        "Escaped",
        'She said "ok".',
    ),
    (
        '{"topic_name": "Unicode_Tag", "topic_description": "Café tickets — naïve."}',
        "Unicode_Tag",
        "Café tickets — naïve.",
    ),
    (
        '[{"topic_name": "Array_One", "topic_description": "Single element array."}]',
        "Array_One",
        "Single element array.",
    ),
    (
        '{\n  "topic_name": "Pretty",\n  "topic_description": "Indented form."\n}',
        "Pretty",
        "Indented form.",
    ),
    (
        '{"confidence": 0.9, "topic_name": "Extra_Keys", "topic_description": "Ignores extras."}',
        "Extra_Keys",
        "Ignores extras.",
    ),
    (
        '```json\n[{"topic_name": "Fenced_Array", "topic_description": "First wins."},'
        ' {"topic_name": "Second", "topic_description": "Not this one."}]\n```',
        "Fenced_Array",
        "First wins.",
    ),
]

DESCRIPTOR_FIXTURES_BAD: list[str] = [
    "I cannot comply.",
    "",
    "   \n  ",
    '{"topic_name": "Only_Name"}',
    '{"topic_description": "Only description."}',
    '{"topic_name": "", "topic_description": "Empty name."}',
    '{"topic_name": "   ", "topic_description": "Whitespace name."}',
    '{"topic_name": "X", "topic_description": ""}',
    '{"topic_name": 3, "topic_description": "Numeric name."}',
    "{'topic_name': 'X', 'topic_description': 'Single quotes.'}",
    '{"topic_name": "X", "topic_description": "unterminated',
    "Totally {unbalanced prose",
    '{"foo": 1} {"topic_name": "Second_Object", "topic_description": "First object decides."}',
]
