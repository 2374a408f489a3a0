"""Descriptor construction: per-category bootstrap and all-category contrast."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .backends.base import Backend
from .errors import ContrastDroppedAllError
from .extraction import descriptor_to_json, request_descriptor, request_descriptor_set
from .fanout import ordered_map
from .model import (
    Document,
    Provenance,
    SamplingStrategy,
    Stage,
    Taxonomy,
    TopicDescriptor,
    group_by_label,
    taxonomy_upsert,
    taxonomy_upsert_all,
)
from .prompts import TemplateId, format_sample_block, render

logger = logging.getLogger(__name__)

# At most this many categories go into one contrast prompt; large taxonomies
# are contrasted batch by batch, each batch seeing the global name list.
CONTRAST_BATCH_SIZE = 12


@dataclass(frozen=True)
class SamplePlan:
    """How to pick bootstrap samples from a category's documents.
    SamplingStrategy has the one member SEEDED_RANDOM.
    """

    strategy: SamplingStrategy
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sample size must be >= 1")


def sample_bootstrap(documents: Sequence[Document], plan: SamplePlan) -> list[Document]:
    """Pick min(plan.n, len(documents)) documents by a draw without
    replacement seeded with plan.seed. Deterministic given inputs.
    """
    if not documents:
        raise ValueError("no documents to sample from")
    return random.Random(plan.seed).sample(list(documents), min(plan.n, len(documents)))


def bootstrap_category(samples: Sequence[Document], backend: Backend) -> TopicDescriptor:
    """Generate one descriptor covering the sampled documents."""
    if not samples:
        raise ValueError("bootstrap requires at least one sample")
    request = render(
        TemplateId.TAG_GENERATION, {"document": format_sample_block(d.text for d in samples)}
    )
    return request_descriptor(backend, request)


def bootstrap_taxonomy(
    documents: Iterable[Document],
    labels: Sequence[str],
    plan: SamplePlan,
    backend: Backend,
) -> tuple[Taxonomy, dict[str, str]]:
    """Bootstrap one category per label and return the taxonomy together with
    the label -> generated category name mapping.

    Generated names replace the source labels, so callers that hold labeled
    documents must translate gold labels through the mapping before
    validation or evaluation. A generated name colliding with an earlier
    category gets a numeric suffix. The per-label completions run
    concurrently; names and suffixes are assigned in label order.
    """
    grouped = group_by_label(documents)
    samples = []
    for label in labels:
        docs = grouped.get(label)
        if not docs:
            raise ValueError(f"no documents labeled {label!r}")
        samples.append(sample_bootstrap(docs, plan))
    descriptors = ordered_map(
        lambda chosen: bootstrap_category(chosen, backend),
        samples,
        backend.capabilities().max_concurrency,
    )
    taxonomy = Taxonomy()
    mapping: dict[str, str] = {}
    for label, descriptor in zip(labels, descriptors):
        if taxonomy.get(descriptor.topic_name) is not None:
            base = descriptor.topic_name
            suffix = 2
            while taxonomy.get(f"{base}_{suffix}") is not None:
                suffix += 1
            logger.warning(
                "generated name %r already exists; using %r", base, f"{base}_{suffix}"
            )
            descriptor = replace(descriptor, topic_name=f"{base}_{suffix}")
        taxonomy = taxonomy_upsert(
            taxonomy, descriptor, Stage.BOOTSTRAP, 0, provenance=Provenance.GENERATED
        )
        mapping[label] = taxonomy.categories[-1].name
    return taxonomy, mapping


def contrast_taxonomy(taxonomy: Taxonomy, backend: Backend) -> Taxonomy:
    """Rewrite every description so that each category states how it differs
    from the others. The prompt carries each category's base description
    (``Category.base_descriptor``: its latest bootstrap, refine, adapt or
    user-written text), never an earlier contrast's output, so re-running
    contrast replaces the earlier contrast text instead of stacking on it.
    Category names, count, and order never change; replies naming unknown
    categories are ignored; categories missing from the reply keep their
    current description. Every matched category gains one CONTRAST history
    entry, and the pass is applied as one snapshot whose version rises by
    the number of matched categories. Categories go CONTRAST_BATCH_SIZE to a
    prompt; batches are requested concurrently and merged in batch order, so
    the first reply naming a category wins.

    Raises:
        ValueError: fewer than two categories.
        ContrastDroppedAllError: when no reply matched any existing name;
            the input taxonomy is returned unchanged to the caller's hands.
    """
    if len(taxonomy) < 2:
        raise ValueError("contrast requires at least two categories")
    name_list = ", ".join(taxonomy.names())
    categories = list(taxonomy.categories)
    requests = []
    for start in range(0, len(categories), CONTRAST_BATCH_SIZE):
        batch = categories[start : start + CONTRAST_BATCH_SIZE]
        block = "\n\n".join(descriptor_to_json(c.base_descriptor) for c in batch)
        binding = f"All categories: {name_list}\n\n{block}"
        requests.append(render(TemplateId.CONTRAST, {"category": binding}))
    replies = ordered_map(
        lambda request: request_descriptor_set(backend, request),
        requests,
        backend.capabilities().max_concurrency,
    )
    updates: list[TopicDescriptor] = []
    matched: set[int] = set()
    for reply in replies:
        for descriptor in reply:
            index = taxonomy.index_of(descriptor.topic_name)
            if index is None:
                logger.warning(
                    "contrast reply named unknown category %r; ignored",
                    descriptor.topic_name,
                )
                continue
            if index in matched:
                continue
            matched.add(index)
            updates.append(descriptor)
    if not updates:
        raise ContrastDroppedAllError("contrast reply matched no existing category")
    return taxonomy_upsert_all(taxonomy, ((d, Stage.CONTRAST, 0) for d in updates))
