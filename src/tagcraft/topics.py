"""Human-in-the-loop topic management: add or revise categories described in
rough natural language, without touching the rest of the taxonomy beyond an
optional contrast pass. That pass contrasts every category from its base
description (its latest non-contrast text), so each add replaces the earlier
contrast text instead of stacking on it.
"""

from __future__ import annotations

import logging
from typing import Sequence

from .backends.base import Backend
from .describe import contrast_taxonomy
from .errors import ContrastDroppedAllError, DuplicateNameError, UnknownCategoryError
from .extraction import descriptor_to_json
from .model import (
    Document,
    Provenance,
    Stage,
    Taxonomy,
    TopicDescriptor,
    taxonomy_upsert,
)
from .prompts import TemplateId
from .refine import sharpen_description

logger = logging.getLogger(__name__)


def _enrich(
    rough: TopicDescriptor, backend: Backend, sample_docs: Sequence[Document] | None
) -> TopicDescriptor:
    """Expand a rough user description through the refine rewrite step,
    with the user's exemplars (when given) standing in for correctly
    classified samples and no wrong ones. The topic name is preserved.
    """
    return sharpen_description(
        TemplateId.MISCLASS_REFINE,
        rough.topic_name,
        (d.text for d in sample_docs or []),
        [],
        {"category_list": descriptor_to_json(rough)},
        backend,
        None,
        Stage.HITL,
    )


def _contrasted(taxonomy: Taxonomy, backend: Backend, run_contrast: bool) -> Taxonomy:
    """The taxonomy after a contrast pass; unchanged when run_contrast is off,
    it holds fewer than two categories, or the contrast matched none.
    """
    if not run_contrast or len(taxonomy) < 2:
        return taxonomy
    try:
        return contrast_taxonomy(taxonomy, backend)
    except ContrastDroppedAllError:
        logger.warning("post-edit contrast matched no categories; keeping un-contrasted taxonomy")
        return taxonomy


def add_topic(
    user_descriptor: TopicDescriptor,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    run_contrast: bool = True,
    sample_docs: Sequence[Document] | None = None,
) -> Taxonomy:
    """Integrate a user-authored category: enrich the rough description,
    append it with UserDefined provenance, and (by default) run a contrast
    pass so existing descriptions can state exclusions against the newcomer.
    The pass rewrites each category's base description (see
    contrast_taxonomy), so a description holds one contrast's worth of text
    however many topics have been added.

    With run_contrast=False nothing changes except the one appended category.
    The enrichment is one completion; the contrast batches run concurrently
    up to the backend's max_concurrency.
    """
    if taxonomy.get(user_descriptor.topic_name) is not None:
        raise DuplicateNameError(
            f"category {user_descriptor.topic_name!r} already exists"
        )
    enriched = _enrich(user_descriptor, backend, sample_docs)
    result = taxonomy_upsert(
        taxonomy, enriched, Stage.HITL, 0, provenance=Provenance.USER_DEFINED
    )
    return _contrasted(result, backend, run_contrast)


def revise_topic(
    name: str,
    new_description: str,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    run_contrast: bool = False,
    sample_docs: Sequence[Document] | None = None,
) -> Taxonomy:
    """Apply the add_topic enrichment path to an existing category: its
    history grows by one entry, its name and provenance are unchanged.
    """
    category = taxonomy.get(name)
    if category is None:
        raise UnknownCategoryError(f"unknown category {name!r}")
    rough = TopicDescriptor(category.name, new_description)
    enriched = _enrich(rough, backend, sample_docs)
    return _contrasted(taxonomy_upsert(taxonomy, enriched, Stage.HITL, 0), backend, run_contrast)
