"""Core domain types: topic descriptors, categories, and the taxonomy.

Taxonomy values are immutable snapshots; every mutation returns a new
value whose version counter is bumped once per applied update, and a batch
of updates builds one snapshot. Category names are case-preserving but
compared case-insensitively through a name-key index that each snapshot
builds once, and taxonomy order is stable because it defines the
deterministic tie-break during classification.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

from .errors import SchemaError
from .fileio import read_json_object, write_text_atomic


def normalize_name(raw: str) -> str:
    """Trim a category name and collapse internal whitespace runs to single
    underscores, preserving letter case. Idempotent.

    Raises:
        ValueError: if nothing remains after normalization.
    """
    # Bare str.split() splits on runs of str.isspace() characters, the set
    # the regex \s matches, and drops them at both ends.
    name = "_".join(raw.split())
    if not name:
        raise ValueError("category name is empty after normalization")
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
        # Stored names are normalized by TopicDescriptor, so casefold is their key.
        head = self.history[0].descriptor.topic_name.casefold()
        for entry in self.history:
            if entry.descriptor.topic_name.casefold() != head:
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

    @property
    def base_descriptor(self) -> TopicDescriptor:
        """The latest descriptor not written by a contrast pass (bootstrap,
        refine, adapt or user text), or the oldest one when every entry is a
        contrast. Contrast rewrites this, so passes never stack."""
        for entry in reversed(self.history):
            if entry.stage is not Stage.CONTRAST:
                return entry.descriptor
        return self.history[0].descriptor

    def with_descriptor(self, descriptor: TopicDescriptor, stage: Stage, iteration: int) -> "Category":
        """Return a copy with ``descriptor`` appended as the current version.

        The descriptor's name must match this category case-insensitively;
        its casing is canonicalized to the stored name.
        """
        if descriptor.topic_name.casefold() != self.name.casefold():
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
    """Ordered set of categories with a monotone version counter.

    Construction builds a name-key -> position index once, so ``index_of``
    and ``get`` cost one ``name_key`` and one dict lookup. The index is not
    a field: it stays out of equality, hashing, ``repr`` and ``asdict``.
    """

    categories: tuple[Category, ...] = ()
    version: int = 0

    def __post_init__(self) -> None:
        index: dict[str, int] = {}
        for i, category in enumerate(self.categories):
            key = category.name.casefold()
            if key in index:
                raise ValueError(f"duplicate category name: {category.name!r}")
            index[key] = i
        object.__setattr__(self, "_index", index)

    def names(self) -> tuple[str, ...]:
        return tuple(category.name for category in self.categories)

    def index_of(self, name: str) -> int | None:
        return self._index.get(name_key(name))

    def get(self, name: str) -> Category | None:
        idx = self.index_of(name)
        return None if idx is None else self.categories[idx]

    def __len__(self) -> int:
        return len(self.categories)


def taxonomy_upsert_all(
    taxonomy: Taxonomy,
    updates: Iterable[tuple[TopicDescriptor, Stage, int]],
    provenance: Provenance = Provenance.GENERATED,
) -> Taxonomy:
    """Apply ``(descriptor, stage, iteration)`` updates in order and return
    one new snapshot. Each update appends a descriptor version to the
    matching category, or adds a new category at the end when the name is
    unknown (a later update may then match it). Existing categories are
    never reordered; the version counter is bumped once per update, so a
    batch ends at the same version as the same updates applied one by one.
    """
    categories = list(taxonomy.categories)
    index = dict(taxonomy._index)
    version = taxonomy.version
    for descriptor, stage, iteration in updates:
        key = name_key(descriptor.topic_name)
        idx = index.get(key)
        if idx is None:
            index[key] = len(categories)
            categories.append(Category(provenance, (HistoryEntry(stage, iteration, descriptor),)))
        else:
            categories[idx] = categories[idx].with_descriptor(descriptor, stage, iteration)
        version += 1
    return Taxonomy(tuple(categories), version)


def taxonomy_upsert(
    taxonomy: Taxonomy,
    descriptor: TopicDescriptor,
    stage: Stage,
    iteration: int,
    provenance: Provenance = Provenance.GENERATED,
) -> Taxonomy:
    """Append a descriptor version to the matching category, or add a new
    category at the end when the name is unknown: ``taxonomy_upsert_all``
    with one update, so the new snapshot's version is one higher.
    """
    return taxonomy_upsert_all(taxonomy, ((descriptor, stage, iteration),), provenance)


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


def require_int(key: str, value: object) -> int:
    """``value`` if it is an int and not a bool, else a TypeError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class RefinementConfig:
    """Knobs for the validate/refine loop and confusion-pair adaptation."""

    n_bootstrap: int = 20
    m_validate: int = 25
    accuracy_threshold: float = 0.80
    max_iterations: int = 4
    seed: int = 0
    min_confusion_count: int = 2
    top_k_pairs: int = 3

    def __post_init__(self) -> None:
        for key in ("n_bootstrap", "m_validate", "max_iterations", "seed", "min_confusion_count",
                    "top_k_pairs"):
            require_int(key, getattr(self, key))
        threshold = self.accuracy_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise TypeError(f"accuracy_threshold must be a number, got {threshold!r}")
        if self.n_bootstrap < 1 or self.m_validate < 1:
            raise ValueError("sample counts must be positive")
        if not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.min_confusion_count < 1 or self.top_k_pairs < 1:
            raise ValueError("confusion mining knobs must be >= 1")


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
                iteration=require_int("iteration", item["iteration"]),
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
        version = require_int("version", data["version"])
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
    write_text_atomic(
        path, json.dumps(taxonomy_to_dict(taxonomy), ensure_ascii=False, indent=2) + "\n"
    )


def load_taxonomy(path: str | Path) -> Taxonomy:
    return taxonomy_from_dict(read_json_object(path, "taxonomy"))


def group_by_label(documents: Iterable[Document]) -> dict[str, list[Document]]:
    """Group documents by gold label, preserving input order."""
    grouped: dict[str, list[Document]] = {}
    for document in documents:
        if document.gold_label is None:
            continue
        grouped.setdefault(document.gold_label, []).append(document)
    return grouped
