from __future__ import annotations

import pytest

from tagcraft import PromptRequest, TemplateId, render, use_templates
from tagcraft.errors import UnboundPlaceholderError
from tagcraft.prompts import format_sample_block

_FULL_BINDINGS = {
    TemplateId.TAG_GENERATION: {"document": "- sample one\n- sample two"},
    TemplateId.CONTRAST: {"category": '{"topic_name": "A", "topic_description": "a"}'},
    TemplateId.INTER_CLASS_ADAPT: {
        "df_subset_right": "- right",
        "df_subset_wrong": "- wrong",
        "correct_category": "A",
        "wrong_category": "B",
    },
    TemplateId.MISCLASS_REFINE: {
        "df_subset_right": "- right",
        "df_subset_wrong": "- wrong",
        "correct_category": "A",
        "category_list": '{"topic_name": "A", "topic_description": "a"}',
    },
    TemplateId.CLASSIFY: {"document": "text", "descriptor_block": "- A: a"},
}


@pytest.mark.parametrize("template", list(TemplateId))
def test_every_template_renders_with_full_bindings(template: TemplateId) -> None:
    request = render(template, _FULL_BINDINGS[template])
    assert isinstance(request, PromptRequest)
    for value in _FULL_BINDINGS[template].values():
        assert value in request.user_text
    # format escapes resolved: no doubled braces survive in the prompt
    assert "{{" not in request.user_text and "}}" not in request.user_text


def test_rendering_is_pure() -> None:
    bindings = _FULL_BINDINGS[TemplateId.MISCLASS_REFINE]
    first = render(TemplateId.MISCLASS_REFINE, bindings)
    second = render(TemplateId.MISCLASS_REFINE, bindings)
    assert first == second


def test_tag_generation_contains_instruction_and_samples() -> None:
    request = render(TemplateId.TAG_GENERATION, {"document": "- ticket a\n- ticket b"})
    assert "Generate a single, highly relevant tag" in request.user_text
    assert "- ticket a" in request.user_text
    assert '"topic_name"' in request.user_text


def test_unbound_placeholder_is_named() -> None:
    bindings = dict(_FULL_BINDINGS[TemplateId.INTER_CLASS_ADAPT])
    del bindings["wrong_category"]
    with pytest.raises(UnboundPlaceholderError) as exc:
        render(TemplateId.INTER_CLASS_ADAPT, bindings)
    assert exc.value.placeholder == "wrong_category"


def test_extra_bindings_are_ignored() -> None:
    bindings = dict(_FULL_BINDINGS[TemplateId.CLASSIFY], unused="x")
    render(TemplateId.CLASSIFY, bindings)


def test_template_override_directory(tmp_path) -> None:
    override = tmp_path / "classify.txt"
    override.write_text("CUSTOM {document} | {descriptor_block}", encoding="utf-8")
    use_templates(tmp_path)
    request = render(TemplateId.CLASSIFY, {"document": "doc", "descriptor_block": "- A: a"})
    assert request.user_text.startswith("CUSTOM doc")


def test_template_override_byte_order_mark_is_not_prompt_text(tmp_path) -> None:
    (tmp_path / "classify.txt").write_text("CUSTOM {document}", encoding="utf-8-sig")
    use_templates(tmp_path)
    assert render(TemplateId.CLASSIFY, {"document": "doc"}).user_text.startswith("CUSTOM doc")


def test_override_directory_missing_file_falls_back(tmp_path) -> None:
    use_templates(str(tmp_path))
    request = render(TemplateId.CLASSIFY, {"document": "doc", "descriptor_block": "- A: a"})
    assert "Respond with exactly one category name" in request.user_text


@pytest.mark.parametrize("name", ["missing", "classify.txt"])
def test_use_templates_rejects_a_path_that_is_not_a_directory(tmp_path, name) -> None:
    (tmp_path / "classify.txt").write_text("CUSTOM {document}", encoding="utf-8")
    with pytest.raises(NotADirectoryError):
        use_templates(tmp_path / name)


def test_use_templates_none_restores_shipped_text(tmp_path) -> None:
    bindings = _FULL_BINDINGS[TemplateId.CLASSIFY]
    shipped = render(TemplateId.CLASSIFY, bindings)
    (tmp_path / "classify.txt").write_text("CUSTOM {document}", encoding="utf-8")
    use_templates(tmp_path)
    assert render(TemplateId.CLASSIFY, bindings) != shipped
    use_templates(None)
    assert render(TemplateId.CLASSIFY, bindings) == shipped


def test_classify_budget_default_is_small() -> None:
    request = render(TemplateId.CLASSIFY, _FULL_BINDINGS[TemplateId.CLASSIFY])
    assert request.max_output_tokens == 32


# -- sample blocks ---------------------------------------------------------------


def test_sample_block_one_document_per_line() -> None:
    block = format_sample_block(["first doc", "second\nwith newline"])
    assert block == "- first doc\n- second with newline"


def test_sample_block_truncates_to_budget() -> None:
    block = format_sample_block(["x" * 600])
    assert block == "- " + "x" * 500


def test_sample_block_empty_renders_none_marker() -> None:
    assert format_sample_block([]) == "(none)"
