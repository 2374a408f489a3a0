from __future__ import annotations

import json
import logging

import pytest

from helpers import StubBackend, echo_contrast, make_taxonomy
from tagcraft import (
    Document,
    Provenance,
    Stage,
    TopicDescriptor,
    add_topic,
    classify,
    revise_topic,
    taxonomy_upsert,
)
from tagcraft.errors import DuplicateNameError, UnknownCategoryError


def _base_taxonomy():
    return make_taxonomy(
        [("Network_Connectivity", "Covers outages, drops."), ("Printer_Issues", "Covers jams, toner.")]
    )


def test_add_topic_without_contrast_is_strictly_isolated(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    rough = TopicDescriptor(
        "Cloud_Infrastructure_Issues",
        "This talks about EC2 instance not launching and Azure VM connectivity failure",
    )
    result = add_topic(rough, taxonomy, mock_backend, run_contrast=False)
    assert result.names() == taxonomy.names() + ("Cloud_Infrastructure_Issues",)
    # untouched categories are the very same objects
    assert result.categories[:2] == taxonomy.categories
    new = result.categories[-1]
    assert new.provenance is Provenance.USER_DEFINED
    assert [entry.stage for entry in new.history] == [Stage.HITL]


def test_add_topic_keeps_the_enriched_newcomer_when_contrast_matches_nothing(caplog) -> None:
    taxonomy = _base_taxonomy()
    enriched = json.dumps({"topic_name": "Cloud_Issues", "topic_description": "Covers ec2, azure."})
    strangers = json.dumps([{"topic_name": "Nobody_Here", "topic_description": "Covers nothing."}])
    backend = StubBackend([enriched, strangers])
    with caplog.at_level(logging.WARNING, logger="tagcraft.topics"):
        result = add_topic(TopicDescriptor("Cloud_Issues", "ec2 stuff"), taxonomy, backend)
    assert len(backend.prompts) == 2  # one enrichment, one contrast batch
    assert result.categories[:2] == taxonomy.categories
    assert result.names() == taxonomy.names() + ("Cloud_Issues",)
    assert result.categories[-1].descriptor.topic_description == "Covers ec2, azure."
    assert [entry.stage for entry in result.categories[-1].history] == [Stage.HITL]
    assert "post-edit contrast matched no categories" in caplog.text


def test_add_topic_enriches_rough_description(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    rough = TopicDescriptor(
        "Cloud_Infrastructure_Issues",
        "This talks about EC2 instance not launching and Azure VM connectivity failure",
    )
    result = add_topic(rough, taxonomy, mock_backend, run_contrast=False)
    description = result.categories[-1].descriptor.topic_description.lower()
    assert "ec2" in description
    assert "azure" in description


def test_add_topic_with_exemplars_uses_their_keywords(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    rough = TopicDescriptor("Storage_Issues", "disk problems")
    samples = [
        Document(id="1", text="nas volume full"),
        Document(id="2", text="nas snapshot failed"),
    ]
    result = add_topic(rough, taxonomy, mock_backend, run_contrast=False, sample_docs=samples)
    assert "nas" in result.categories[-1].descriptor.topic_description.lower()


def test_add_topic_contrast_pass_touches_existing_categories(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    rough = TopicDescriptor("Cloud_Issues", "ec2 azure instances")
    result = add_topic(rough, taxonomy, mock_backend, run_contrast=True)
    assert result.names() == taxonomy.names() + ("Cloud_Issues",)
    for category in result.categories:
        assert category.history[-1].stage is Stage.CONTRAST


def test_add_duplicate_name_rejected_case_insensitively(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    with pytest.raises(DuplicateNameError):
        add_topic(
            TopicDescriptor("network_connectivity", "dup"), taxonomy, mock_backend
        )


def test_add_topic_rename_attempt_is_overridden() -> None:
    backend = StubBackend(
        completions=['{"topic_name": "Sneaky_Rename", "topic_description": "enriched."}']
    )
    taxonomy = _base_taxonomy()
    result = add_topic(
        TopicDescriptor("User_Choice", "rough text"), taxonomy, backend, run_contrast=False
    )
    assert result.categories[-1].name == "User_Choice"


def test_revise_topic_appends_history_and_keeps_name(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    result = revise_topic(
        "Printer_Issues", "also covers label printers and plotters", taxonomy, mock_backend
    )
    category = result.get("Printer_Issues")
    assert category is not None
    assert len(category.history) == 2
    assert category.history[-1].stage is Stage.HITL
    assert category.provenance is Provenance.GENERATED  # unchanged
    assert result.names() == taxonomy.names()


def test_revise_unknown_category_raises(mock_backend) -> None:
    with pytest.raises(UnknownCategoryError):
        revise_topic("Ghost", "text", _base_taxonomy(), mock_backend)


def test_revise_changes_classification_winner(mock_backend) -> None:
    taxonomy = make_taxonomy(
        [("Alpha", "Covers aqua1, aqua2."), ("Beta", "Covers brick1, brick2.")]
    )
    doc = Document(id="d", text="plasma reactor overheats")
    before = classify(doc, taxonomy, mock_backend)
    assert before.predicted == "Alpha"  # order tie-break on all-zero scores
    revised = revise_topic(
        "Beta", "plasma reactor overheats often", taxonomy, mock_backend
    )
    after = classify(doc, revised, mock_backend)
    assert after.predicted == "Beta"
    assert after.scores.scores["Beta"] > 0.0


def test_no_operation_deletes_categories_or_history(mock_backend) -> None:
    taxonomy = _base_taxonomy()
    result = add_topic(TopicDescriptor("New_One", "rough"), taxonomy, mock_backend)
    result = revise_topic("New_One", "rougher", result, mock_backend)
    assert len(result) == 3
    for before in taxonomy.categories:
        after = result.get(before.name)
        assert after is not None
        assert after.history[: len(before.history)] == before.history


def test_revise_with_contrast_sends_revised_and_base_texts() -> None:
    taxonomy = make_taxonomy(
        [("Network_Connectivity", "network from bootstrap."), ("Printer_Issues", "printer from bootstrap.")]
    )
    for name in taxonomy.names():
        taxonomy = taxonomy_upsert(
            taxonomy, TopicDescriptor(name, f"{name} from contrast."), Stage.CONTRAST, 0
        )
    enriched = '{"topic_name": "Printer_Issues", "topic_description": "printer as revised."}'
    backend = StubBackend(completions=[enriched, echo_contrast])
    result = revise_topic(
        "Printer_Issues", "plotters too", taxonomy, backend, run_contrast=True
    )
    contrast_prompt = backend.prompts[-1]
    assert "printer as revised." in contrast_prompt
    assert "network from bootstrap." in contrast_prompt
    assert "from contrast." not in contrast_prompt
    printer = result.get("Printer_Issues")
    assert printer.descriptor.topic_description == "printer as revised. contrasted."
    assert [entry.stage for entry in printer.history] == [
        Stage.BOOTSTRAP,
        Stage.CONTRAST,
        Stage.HITL,
        Stage.CONTRAST,
    ]


def test_successive_adds_leave_one_contrast_sentence_per_description(mock_backend) -> None:
    taxonomy = make_taxonomy(
        [
            ("Network_Connectivity", "Covers outages, drops."),
            ("Printer_Issues", "Covers jams, toner."),
            ("Login_Problems", "Covers passwords, lockouts."),
            ("Email_Delivery", "Covers bounces, spam."),
        ]
    )
    for i in range(10):
        rough = TopicDescriptor(f"New_Topic_{i}", f"rough notes on subject{i} and theme{i}")
        taxonomy = add_topic(rough, taxonomy, mock_backend)
    assert len(taxonomy) == 14
    for category in taxonomy.categories:
        assert category.descriptor.topic_description.count("This is different from") == 1
