"""Human-in-the-loop topic management: add or revise categories described in
rough natural language, without touching the rest of the taxonomy beyond an
optional contrast pass.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .backends.base import Backend
from .describe import contrast_taxonomy
from .errors import ContrastDroppedAllError, DuplicateNameError, UnknownCategoryError
from .extraction import descriptor_to_json, request_descriptor
from .model import (
    Document,
    Provenance,
    Stage,
    Taxonomy,
    TopicDescriptor,
    name_key,
    taxonomy_upsert,
)
from .prompts import TemplateId, format_sample_block, render

logger = logging.getLogger(__name__)


def _enrich(
    rough: TopicDescriptor,
    backend: Backend,
    sample_docs: Sequence[Document] | None,
    templates_dir: str | Path | None,
) -> TopicDescriptor:
    """Expand a rough user description through the refinement prompt path,
    with the user's exemplars (when given) standing in for correctly
    classified samples. The topic name is preserved.
    """
    request = render(
        TemplateId.MISCLASS_REFINE,
        {
            "df_subset_right": format_sample_block(d.text for d in sample_docs or []),
            "df_subset_wrong": format_sample_block([]),
            "correct_category": rough.topic_name,
            "category_list": descriptor_to_json(rough),
        },
        templates_dir=templates_dir,
    )
    descriptor = request_descriptor(backend, request)
    if name_key(descriptor.topic_name) != name_key(rough.topic_name):
        logger.info(
            "enrichment renamed %r to %r; name overridden back",
            rough.topic_name,
            descriptor.topic_name,
        )
    return replace(descriptor, topic_name=rough.topic_name)


def add_topic(
    user_descriptor: TopicDescriptor,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    run_contrast: bool = True,
    sample_docs: Sequence[Document] | None = None,
    templates_dir: str | Path | None = None,
) -> Taxonomy:
    """Integrate a user-authored category: enrich the rough description,
    append it with UserDefined provenance, and (by default) run a contrast
    pass so existing descriptions can state exclusions against the newcomer.

    With run_contrast=False nothing changes except the one appended category.
    The enrichment is one completion; the contrast batches run concurrently
    up to the backend's max_concurrency.
    """
    if taxonomy.get(user_descriptor.topic_name) is not None:
        raise DuplicateNameError(
            f"category {user_descriptor.topic_name!r} already exists"
        )
    enriched = _enrich(user_descriptor, backend, sample_docs, templates_dir)
    result = taxonomy_upsert(
        taxonomy, enriched, Stage.HITL, 0, provenance=Provenance.USER_DEFINED
    )
    if run_contrast and len(result) >= 2:
        try:
            result = contrast_taxonomy(result, backend, templates_dir=templates_dir)
        except ContrastDroppedAllError:
            logger.warning(
                "post-add contrast matched no categories; keeping un-contrasted taxonomy"
            )
    return result


def revise_topic(
    name: str,
    new_description: str,
    taxonomy: Taxonomy,
    backend: Backend,
    *,
    run_contrast: bool = False,
    sample_docs: Sequence[Document] | None = None,
    templates_dir: str | Path | None = None,
) -> Taxonomy:
    """Apply the add_topic enrichment path to an existing category: its
    history grows by one entry, its name and provenance are unchanged.
    """
    category = taxonomy.get(name)
    if category is None:
        raise UnknownCategoryError(f"unknown category {name!r}")
    rough = TopicDescriptor(category.name, new_description)
    enriched = _enrich(rough, backend, sample_docs, templates_dir)
    result = taxonomy_upsert(taxonomy, enriched, Stage.HITL, 0)
    if run_contrast and len(result) >= 2:
        try:
            result = contrast_taxonomy(result, backend, templates_dir=templates_dir)
        except ContrastDroppedAllError:
            logger.warning(
                "post-revise contrast matched no categories; keeping un-contrasted taxonomy"
            )
    return result
