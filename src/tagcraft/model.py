"""Core domain types: topic descriptors, categories, and the taxonomy.

Taxonomy values are immutable snapshots; every mutation returns a new
value with a bumped version counter. Category names are case-preserving
but compared case-insensitively, and taxonomy order is stable because it
defines the deterministic tie-break during classification.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping

from .errors import EmptyNameError, FileIOError, SchemaError
from .fileio import write_text_atomic

_WHITESPACE_RUN = re.compile(r"\s+")


def normalize_name(raw: str) -> str:
    """Trim a category name and collapse internal whitespace runs to single
    underscores, preserving letter case. Idempotent.

    Raises:
        EmptyNameError: if nothing remains after normalization.
    """
    name = _WHITESPACE_RUN.sub("_", raw.strip())
    if not name:
        raise EmptyNameError("category name is empty after normalization")
    return name


def name_key(name: str) -> str:
    """Case-insensitive identity key for category names."""
    return normalize_name(name).casefold()


class Stage(str, enum.Enum):
    """Pipeline stage that produced a descriptor version."""

    BOOTSTRAP = "bootstrap"
    CONTRAST = "contrast"
    REFINE = "refine"
    ADAPT = "adapt"
    HITL = "hitl"


class Provenance(str, enum.Enum):
    GENERATED = "generated"
    USER_DEFINED = "user"


class SamplingStrategy(str, enum.Enum):
    SEEDED_RANDOM = "seeded_random"
    FIRST_N = "first_n"


@dataclass(frozen=True)
class TopicDescriptor:
    """A (topic_name, topic_description) pair.

    The name is normalized on construction; the description is stripped
    and must be non-empty.
    """

    topic_name: str
    topic_description: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "topic_name", normalize_name(self.topic_name))
        description = self.topic_description.strip()
        if not description:
            raise ValueError(f"descriptor {self.topic_name!r} has an empty description")
        object.__setattr__(self, "topic_description", description)


@dataclass(frozen=True)
class HistoryEntry:
    stage: Stage
    iteration: int
    descriptor: TopicDescriptor


@dataclass(frozen=True)
class Category:
    """A category with its full append-only descriptor history.

    The current descriptor is always the last history entry; the canonical
    name (first-seen casing) is shared by every entry.
    """

    provenance: Provenance
    history: tuple[HistoryEntry, ...]

    def __post_init__(self) -> None:
        if not self.history:
            raise ValueError("a category requires at least one history entry")
        head = name_key(self.history[0].descriptor.topic_name)
        for entry in self.history:
            if name_key(entry.descriptor.topic_name) != head:
                raise ValueError(
                    f"history entry name {entry.descriptor.topic_name!r} does not "
                    f"match category name {self.name!r}"
                )

    @property
    def name(self) -> str:
        return self.history[0].descriptor.topic_name

    @property
    def descriptor(self) -> TopicDescriptor:
        return self.history[-1].descriptor

    def with_descriptor(self, descriptor: TopicDescriptor, stage: Stage, iteration: int) -> "Category":
        """Return a copy with ``descriptor`` appended as the current version.

        The descriptor's name must match this category case-insensitively;
        its casing is canonicalized to the stored name.
        """
        if name_key(descriptor.topic_name) != name_key(self.name):
            raise ValueError(
                f"descriptor name {descriptor.topic_name!r} does not match "
                f"category {self.name!r}"
            )
        if descriptor.topic_name != self.name:
            descriptor = replace(descriptor, topic_name=self.name)
        entry = HistoryEntry(stage, iteration, descriptor)
        return Category(self.provenance, self.history + (entry,))


@dataclass(frozen=True)
class Taxonomy:
    """Ordered set of categories with a monotone version counter."""

    categories: tuple[Category, ...] = ()
    version: int = 0

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for category in self.categories:
            key = name_key(category.name)
            if key in seen:
                raise ValueError(f"duplicate category name: {category.name!r}")
            seen.add(key)

    def names(self) -> tuple[str, ...]:
        return tuple(category.name for category in self.categories)

    def index_of(self, name: str) -> int | None:
        key = name_key(name)
        for i, category in enumerate(self.categories):
            if name_key(category.name) == key:
                return i
        return None

    def get(self, name: str) -> Category | None:
        idx = self.index_of(name)
        return None if idx is None else self.categories[idx]

    def __len__(self) -> int:
        return len(self.categories)


def taxonomy_upsert(
    taxonomy: Taxonomy,
    descriptor: TopicDescriptor,
    stage: Stage,
    iteration: int,
    provenance: Provenance = Provenance.GENERATED,
) -> Taxonomy:
    """Append a descriptor version to the matching category, or add a new
    category at the end when the name is unknown. Existing categories are
    never reordered; the version counter is bumped either way.
    """
    idx = taxonomy.index_of(descriptor.topic_name)
    if idx is None:
        entry = HistoryEntry(stage, iteration, descriptor)
        categories = taxonomy.categories + (Category(provenance, (entry,)),)
    else:
        updated = taxonomy.categories[idx].with_descriptor(descriptor, stage, iteration)
        categories = taxonomy.categories[:idx] + (updated,) + taxonomy.categories[idx + 1 :]
    return Taxonomy(categories, taxonomy.version + 1)


@dataclass(frozen=True)
class Document:
    """An input text, optionally carrying a gold label.

    Text emptiness is enforced at operation boundaries (classification,
    bootstrap) rather than at construction so that batch operations can
    report per-document errors instead of failing wholesale.
    """

    id: str
    text: str
    gold_label: str | None = None


@dataclass
class ConfusionMatrix:
    """Counts of (gold, predicted) pairs from a validation or test pass."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    total: int = 0

    def record(self, gold: str, predicted: str, n: int = 1) -> None:
        self.counts[(gold, predicted)] = self.counts.get((gold, predicted), 0) + n
        self.total += n

    def count(self, gold: str, predicted: str) -> int:
        return self.counts.get((gold, predicted), 0)

    def gold_total(self, gold: str) -> int:
        return sum(n for (g, _), n in self.counts.items() if g == gold)

    def category_accuracy(self, gold: str) -> float | None:
        """counts[(c, c)] / row total, or None when the row is empty."""
        row = self.gold_total(gold)
        if row == 0:
            return None
        return self.count(gold, gold) / row

    def per_category_accuracy(self) -> dict[str, float]:
        golds = sorted({g for (g, _) in self.counts})
        return {g: self.count(g, g) / self.gold_total(g) for g in golds}

    def overall_accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        diagonal = sum(n for (g, p), n in self.counts.items() if g == p)
        return diagonal / self.total


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs for the validate/refine loop and confusion-pair adaptation."""

    n_bootstrap: int = 20
    m_validate: int = 25
    accuracy_threshold: float = 0.80
    max_iterations: int = 4
    seed: int = 0
    sampling_strategy: SamplingStrategy = SamplingStrategy.SEEDED_RANDOM
    min_confusion_count: int = 2
    top_k_pairs: int = 3
    # Fresh validation sample per iteration instead of re-using one subset.
    resample_validation: bool = False
    # Run pair adaptation once after the loop instead of inside each iteration.
    adapt_after_loop: bool = False
    # Template used for pair adaptation: "inter_class_adapt" or "intra_class_diff".
    adapt_template: str = "inter_class_adapt"

    def __post_init__(self) -> None:
        if self.n_bootstrap < 1 or self.m_validate < 1:
            raise ValueError("sample counts must be positive")
        if not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.min_confusion_count < 1 or self.top_k_pairs < 1:
            raise ValueError("confusion mining knobs must be >= 1")
        if self.adapt_template not in ("inter_class_adapt", "intra_class_diff"):
            raise ValueError(f"unknown adapt_template: {self.adapt_template!r}")


def taxonomy_to_dict(taxonomy: Taxonomy) -> dict:
    return {
        "version": taxonomy.version,
        "categories": [
            {
                "topic_name": category.name,
                "topic_description": category.descriptor.topic_description,
                "provenance": category.provenance.value,
                "history": [
                    {
                        "stage": entry.stage.value,
                        "iteration": entry.iteration,
                        "topic_name": entry.descriptor.topic_name,
                        "topic_description": entry.descriptor.topic_description,
                    }
                    for entry in category.history
                ],
            }
            for category in taxonomy.categories
        ],
    }


def _category_from_dict(data: Mapping) -> Category:
    provenance = Provenance(data["provenance"])
    raw_history = data["history"]
    if not isinstance(raw_history, list) or not raw_history:
        raise ValueError("category history must be a non-empty list")
    entries = []
    for item in raw_history:
        entries.append(
            HistoryEntry(
                stage=Stage(item["stage"]),
                iteration=int(item["iteration"]),
                descriptor=TopicDescriptor(item["topic_name"], item["topic_description"]),
            )
        )
    category = Category(provenance, tuple(entries))
    current = category.descriptor
    declared = TopicDescriptor(data["topic_name"], data["topic_description"])
    if (name_key(declared.topic_name) != name_key(current.topic_name)
            or declared.topic_description != current.topic_description):
        raise ValueError(
            f"category {declared.topic_name!r}: current descriptor does not match "
            "the last history entry"
        )
    return category


def taxonomy_from_dict(data: Mapping) -> Taxonomy:
    try:
        version = int(data["version"])
        raw_categories = data["categories"]
        if not isinstance(raw_categories, list):
            raise ValueError("categories must be a list")
        categories = tuple(_category_from_dict(item) for item in raw_categories)
        return Taxonomy(categories, version)
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"invalid taxonomy data: {err}") from err


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    """Write the taxonomy as JSON, atomically replacing any previous file."""
    try:
        write_text_atomic(
            path, json.dumps(taxonomy_to_dict(taxonomy), ensure_ascii=False, indent=2) + "\n"
        )
    except OSError as err:
        raise FileIOError(f"cannot write taxonomy to {path}: {err}") from err


def load_taxonomy(path: str | Path) -> Taxonomy:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise FileIOError(f"cannot read taxonomy from {path}: {err}") from err
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise SchemaError(f"taxonomy file {path} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise SchemaError(f"taxonomy file {path} must contain a JSON object")
    return taxonomy_from_dict(data)


def group_by_label(documents: Iterable[Document]) -> dict[str, list[Document]]:
    """Group documents by gold label, preserving input order."""
    grouped: dict[str, list[Document]] = {}
    for document in documents:
        if document.gold_label is None:
            continue
        grouped.setdefault(document.gold_label, []).append(document)
    return grouped
