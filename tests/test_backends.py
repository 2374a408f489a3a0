from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagcraft import Document, MockBackend, PromptRequest, TemplateId, render
from tagcraft.backends.base import BackendCapabilities, check_candidates
from tagcraft.prompts import format_sample_block

CLASSIFY_PROMPT = (
    "Document:\nalpha beta gamma\n\nCategories:\n"
    "- TopicA: Covers alpha, beta, gamma, delta.\n"
    "- TopicB: Covers x1, x2.\n"
)


def _request(text: str) -> PromptRequest:
    return PromptRequest(user_text=text)


def test_overlap_scoring_hand_computed(mock_backend: MockBackend) -> None:
    scores = mock_backend.score_labels(_request(CLASSIFY_PROMPT), ["TopicA", "TopicB"])
    # TopicA description tokens: covers alpha beta gamma delta (5); 3 shared.
    assert scores.scores["TopicA"] == pytest.approx(3 / 5)
    # TopicB description tokens: covers x1 x2 (3); none shared.
    assert scores.scores["TopicB"] == 0.0
    assert scores.scores["TopicA"] > scores.scores["TopicB"]


def test_scoring_without_markers_uses_whole_prompt_and_name(mock_backend: MockBackend) -> None:
    scores = mock_backend.score_labels(_request("the zephyr swirls"), ["Zephyr", "Granite"])
    assert scores.scores["Zephyr"] == 1.0
    assert scores.scores["Granite"] == 0.0


def test_single_candidate_is_trivially_max(mock_backend: MockBackend) -> None:
    scores = mock_backend.score_labels(_request(CLASSIFY_PROMPT), ["TopicB"])
    assert set(scores.scores) == {"TopicB"}


def test_scoring_requires_candidates(mock_backend: MockBackend) -> None:
    with pytest.raises(ValueError, match="^score_labels requires at least one candidate$"):
        mock_backend.score_labels(_request("text"), [])


def test_duplicate_candidates_rejected() -> None:
    with pytest.raises(ValueError):
        check_candidates(["A", "a"])


def test_candidate_check_repeats_its_verdict_on_every_call(mock_backend: MockBackend) -> None:
    for _ in range(3):
        with pytest.raises(ValueError):
            check_candidates(["A", "B", " a "])
        with pytest.raises(ValueError, match="^score_labels requires at least one candidate$"):
            check_candidates([])
        with pytest.raises(ValueError, match="^score_labels requires at least one candidate$"):
            mock_backend.score_labels(_request("text"), ())
    names = ["Sports", "Business"]
    assert check_candidates(names) == check_candidates(tuple(names)) == names
    returned = check_candidates(names)
    returned.append("Sports")
    returned[0] = "World"
    assert check_candidates(names) == names
    assert check_candidates(names) is not check_candidates(names)


def test_empty_user_text_fails_before_any_call() -> None:
    with pytest.raises(ValueError):
        PromptRequest(user_text="   ")


def test_capabilities_report_scoring_support_and_model_id(mock_backend: MockBackend) -> None:
    caps = mock_backend.capabilities()
    assert caps.model_id == "mock-0"
    assert caps.max_concurrency == 4


@pytest.mark.parametrize("value", [0, -1])
def test_capabilities_reject_max_concurrency_below_one(value) -> None:
    with pytest.raises(ValueError):
        BackendCapabilities(model_id="m", max_concurrency=value)


def test_mock_is_pure_function_of_inputs() -> None:
    first = MockBackend(seed=5)
    second = MockBackend(seed=5)
    request = _request(CLASSIFY_PROMPT)
    assert first.score_labels(request, ["TopicA", "TopicB"]) == second.score_labels(
        request, ["TopicA", "TopicB"]
    )
    assert first.complete(request) == second.complete(request)


@given(st.lists(st.integers(0, 50).map(lambda i: f"Cand_{i}"), min_size=1, max_size=10, unique=True))
def test_score_map_contains_exactly_requested_candidates(names: list[str]) -> None:
    backend = MockBackend(seed=1)
    scores = backend.score_labels(_request(CLASSIFY_PROMPT), names)
    assert set(scores.scores) == set(names)
    assert all(isinstance(v, float) for v in scores.scores.values())


def test_tag_template_completion_names_dominant_keywords(mock_backend: MockBackend) -> None:
    docs = [Document(id=str(i), text="login login password") for i in range(3)]
    request = render(
        TemplateId.TAG_GENERATION, {"document": format_sample_block(d.text for d in docs)}
    )
    reply = json.loads(mock_backend.complete(request))
    assert reply["topic_name"] == "Login_Password"
    assert "login" in reply["topic_Description"]
    assert "password" in reply["topic_Description"]


def test_contrast_completion_preserves_names_and_keywords(mock_backend: MockBackend) -> None:
    block = (
        "All categories: Alpha, Beta\n\n"
        '{"topic_name": "Alpha", "topic_description": "Covers aqua1."}\n\n'
        '{"topic_name": "Beta", "topic_description": "Covers brick1."}'
    )
    request = render(TemplateId.CONTRAST, {"category": block})
    replies = json.loads(mock_backend.complete(request))
    assert [r["topic_name"] for r in replies] == ["Alpha", "Beta"]
    assert "aqua1" in replies[0]["topic_description"]
    assert "Beta" in replies[0]["topic_description"]


def test_refine_completion_extracts_category_and_sample_keywords(mock_backend: MockBackend) -> None:
    request = render(
        TemplateId.MISCLASS_REFINE,
        {
            "df_subset_right": "- vpn tunnel drops",
            "df_subset_wrong": "- proxy timeout vpn",
            "correct_category": "Network_Connectivity",
            "category_list": '{"topic_name": "Network_Connectivity", "topic_description": "Covers outages."}',
        },
    )
    reply = json.loads(mock_backend.complete(request))
    assert reply["topic_name"] == "Network_Connectivity"
    assert "vpn" in reply["topic_Description"]


def test_adapt_completion_names_confused_category(mock_backend: MockBackend) -> None:
    request = render(
        TemplateId.INTER_CLASS_ADAPT,
        {
            "df_subset_right": "- token reader jam",
            "df_subset_wrong": "- badge scanner stuck",
            "correct_category": "Hardware_Auth",
            "wrong_category": "Software_Auth",
        },
    )
    reply = json.loads(mock_backend.complete(request))
    assert reply["topic_name"] == "Hardware_Auth"
    assert "Software_Auth" in reply["topic_Description"]
    assert "scanner" in reply["topic_Description"]
