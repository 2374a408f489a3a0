from __future__ import annotations

import json

import pytest

from helpers import StubBackend, class_vocab, echo_contrast, keyword_documents, make_taxonomy
from tagcraft import (
    Document,
    MockBackend,
    SamplePlan,
    SamplingStrategy,
    Stage,
    TopicDescriptor,
    bootstrap_category,
    bootstrap_taxonomy,
    contrast_taxonomy,
    sample_bootstrap,
    taxonomy_upsert,
)
import tagcraft.model
from tagcraft.errors import ContrastDroppedAllError, DescriptorParseError


def _docs(n: int, text: str = "login failed again") -> list[Document]:
    return [Document(id=str(i), text=f"{text} {i}") for i in range(n)]


# -- sampling -------------------------------------------------------------------


def test_sample_clamps_to_available() -> None:
    docs = _docs(10)
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, 20)
    assert sorted(sample_bootstrap(docs, plan), key=lambda d: int(d.id)) == docs


def test_seeded_random_is_deterministic() -> None:
    docs = _docs(100)
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, 20, seed=7)
    first = sample_bootstrap(docs, plan)
    second = sample_bootstrap(docs, plan)
    assert first == second
    assert len(first) == 20
    assert len({d.id for d in first}) == 20


def test_sample_requires_documents() -> None:
    with pytest.raises(ValueError, match="^no documents to sample from$"):
        sample_bootstrap([], SamplePlan(SamplingStrategy.SEEDED_RANDOM, 5))


# -- bootstrap --------------------------------------------------------------------


def test_bootstrap_category_with_mock(mock_backend) -> None:
    docs = [Document(id=str(i), text="login password error") for i in range(20)]
    descriptor = bootstrap_category(docs, mock_backend)
    description = descriptor.topic_description.lower()
    assert "login" in description and "password" in description
    assert descriptor.topic_name


def test_bootstrap_single_sample_still_produces_descriptor(mock_backend) -> None:
    descriptor = bootstrap_category([Document(id="1", text="printer jam tray")], mock_backend)
    assert "printer" in descriptor.topic_description.lower()


def test_bootstrap_prose_only_backend_fails_after_retries() -> None:
    backend = StubBackend(completions=["I cannot comply."])
    with pytest.raises(DescriptorParseError):
        bootstrap_category(_docs(3), backend)
    assert len(backend.prompts) == 3


def test_bootstrap_taxonomy_returns_mapping(mock_backend) -> None:
    vocab = class_vocab(3)
    docs = keyword_documents(vocab, per_class=25, seed=3)
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, 20, seed=5)
    taxonomy, mapping = bootstrap_taxonomy(docs, list(vocab), plan, mock_backend)
    assert set(mapping) == set(vocab)
    assert set(mapping.values()) == set(taxonomy.names())
    for category in taxonomy.categories:
        assert category.history[0].stage is Stage.BOOTSTRAP


def test_bootstrap_taxonomy_suffixes_colliding_names() -> None:
    same = '{"topic_name": "Clone", "topic_description": "identical."}'
    backend = StubBackend(completions=[same, same])
    docs = [
        Document(id="a", text="x", gold_label="L1"),
        Document(id="b", text="y", gold_label="L2"),
    ]
    plan = SamplePlan(SamplingStrategy.SEEDED_RANDOM, 1)
    taxonomy, mapping = bootstrap_taxonomy(docs, ["L1", "L2"], plan, backend)
    assert taxonomy.names() == ("Clone", "Clone_2")
    assert mapping == {"L1": "Clone", "L2": "Clone_2"}


def test_bootstrap_taxonomy_missing_label_raises(mock_backend) -> None:
    with pytest.raises(ValueError, match="^no documents labeled 'Ghost'$"):
        bootstrap_taxonomy(
            _docs(3), ["Ghost"], SamplePlan(SamplingStrategy.SEEDED_RANDOM, 1), mock_backend
        )


# -- contrast ---------------------------------------------------------------------


def test_contrast_rewrites_all_without_touching_names(mock_backend) -> None:
    taxonomy = make_taxonomy(
        [("Alpha", "Covers aqua1, aqua2."), ("Beta", "Covers brick1."), ("Gamma", "Covers cedar1.")]
    )
    result = contrast_taxonomy(taxonomy, mock_backend)
    assert result.names() == taxonomy.names()
    for category in result.categories:
        assert category.history[-1].stage is Stage.CONTRAST
        assert len(category.history) == 2
    assert "Beta" in result.categories[0].descriptor.topic_description


def _contrast_normalizations(k: int, monkeypatch) -> int:
    taxonomy = make_taxonomy([(f"Topic_{i}", f"Covers word{i} and term{i}.") for i in range(k)])
    calls = 0
    real = tagcraft.model.normalize_name

    def counting(raw: str) -> str:
        nonlocal calls
        calls += 1
        return real(raw)

    with monkeypatch.context() as patch:
        patch.setattr(tagcraft.model, "normalize_name", counting)
        contrast_taxonomy(taxonomy, MockBackend(seed=0))
    return calls


def test_contrast_name_normalizations_grow_linearly_with_k(monkeypatch) -> None:
    """A contrast pass normalizes each name a bounded number of times: a
    quadratic pass (one index scan per applied reply) grows about 4x when K
    doubles."""
    at_100 = _contrast_normalizations(100, monkeypatch)
    at_200 = _contrast_normalizations(200, monkeypatch)
    assert at_200 <= 2.5 * at_100, (at_100, at_200)


def test_contrast_requires_two_categories(mock_backend) -> None:
    taxonomy = make_taxonomy([("Solo", "only one")])
    with pytest.raises(ValueError):
        contrast_taxonomy(taxonomy, mock_backend)


def test_contrast_ignores_unknown_reply_names() -> None:
    reply = json.dumps(
        [
            {"topic_name": "Alpha", "topic_description": "rewritten alpha."},
            {"topic_name": "Intruder", "topic_description": "should be dropped."},
        ]
    )
    backend = StubBackend(completions=[reply])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    result = contrast_taxonomy(taxonomy, backend)
    assert result.names() == ("Alpha", "Beta")
    assert result.categories[0].descriptor.topic_description == "rewritten alpha."
    # Beta was absent from the reply and keeps its prior descriptor.
    assert result.categories[1].descriptor.topic_description == "b"
    assert len(result.categories[1].history) == 1


def test_contrast_matching_is_case_insensitive() -> None:
    reply = '{"topic_name": "alpha", "topic_description": "lowercase reply."}'
    backend = StubBackend(completions=[reply])
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    result = contrast_taxonomy(taxonomy, backend)
    assert result.categories[0].name == "Alpha"
    assert result.categories[0].descriptor.topic_description == "lowercase reply."


def test_contrast_dropping_all_raises() -> None:
    backend = StubBackend(
        completions=['{"topic_name": "Nobody", "topic_description": "unknown."}']
    )
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    with pytest.raises(ContrastDroppedAllError):
        contrast_taxonomy(taxonomy, backend)


def test_contrast_batches_large_taxonomies() -> None:
    names = [f"Cat_{i}" for i in range(25)]

    def echo_descriptors(request):
        from tagcraft.extraction import extract_descriptor_set

        return json.dumps(
            [
                {"topic_name": d.topic_name, "topic_description": d.topic_description + " v2"}
                for d in extract_descriptor_set(request.user_text)
            ]
        )

    backend = StubBackend(completions=[echo_descriptors])
    taxonomy = make_taxonomy([(n, f"about {n}") for n in names])
    result = contrast_taxonomy(taxonomy, backend)
    assert len(backend.prompts) == 3  # 12 + 12 + 1
    for prompt in backend.prompts:
        assert f"All categories: {', '.join(names)}" in prompt
    assert result.names() == tuple(names)
    for category in result.categories:
        assert category.descriptor.topic_description.endswith(" v2")
        assert len(category.history) == 2


def test_contrast_twice_leaves_the_descriptions_of_one_pass(mock_backend) -> None:
    taxonomy = make_taxonomy(
        [("Alpha", "Covers aqua1, aqua2."), ("Beta", "Covers brick1."), ("Gamma", "Covers cedar1.")]
    )
    once = contrast_taxonomy(taxonomy, mock_backend)
    twice = contrast_taxonomy(once, mock_backend)
    assert [c.descriptor for c in twice.categories] == [c.descriptor for c in once.categories]
    for category in twice.categories:
        assert [entry.stage for entry in category.history] == [
            Stage.BOOTSTRAP,
            Stage.CONTRAST,
            Stage.CONTRAST,
        ]
        assert category.descriptor.topic_description.count("This is different from") == 1


def test_contrast_prompt_holds_bootstrap_text_not_earlier_contrast_text() -> None:
    taxonomy = make_taxonomy([("Alpha", "alpha from bootstrap."), ("Beta", "beta from bootstrap.")])
    taxonomy = taxonomy_upsert(
        taxonomy, TopicDescriptor("Alpha", "alpha from contrast."), Stage.CONTRAST, 0
    )
    backend = StubBackend(completions=[echo_contrast])
    result = contrast_taxonomy(taxonomy, backend)
    (prompt,) = backend.prompts
    assert "alpha from bootstrap." in prompt
    assert "alpha from contrast." not in prompt
    alpha = result.get("Alpha")
    assert alpha.descriptor.topic_description == "alpha from bootstrap. contrasted."
    assert [entry.stage for entry in alpha.history] == [
        Stage.BOOTSTRAP,
        Stage.CONTRAST,
        Stage.CONTRAST,
    ]


@pytest.mark.parametrize("stage", [Stage.REFINE, Stage.ADAPT, Stage.HITL])
def test_contrast_prompt_holds_latest_non_contrast_text(stage) -> None:
    taxonomy = make_taxonomy([("Alpha", "alpha from bootstrap."), ("Beta", "beta from bootstrap.")])
    for description, entry_stage in [
        ("alpha from first contrast.", Stage.CONTRAST),
        (f"alpha from {stage.value}.", stage),
        ("alpha from second contrast.", Stage.CONTRAST),
    ]:
        taxonomy = taxonomy_upsert(taxonomy, TopicDescriptor("Alpha", description), entry_stage, 1)
    backend = StubBackend(completions=[echo_contrast])
    contrast_taxonomy(taxonomy, backend)
    (prompt,) = backend.prompts
    assert f"alpha from {stage.value}." in prompt
    for stale in ("alpha from bootstrap.", "alpha from first contrast.", "alpha from second contrast."):
        assert stale not in prompt


def test_contrast_prompt_of_contrast_only_history_holds_oldest_entry() -> None:
    # A hand-edited taxonomy file may hold only contrast entries.
    taxonomy = make_taxonomy(
        [("Alpha", "alpha oldest."), ("Beta", "beta oldest.")], stage=Stage.CONTRAST
    )
    taxonomy = taxonomy_upsert(taxonomy, TopicDescriptor("Alpha", "alpha newest."), Stage.CONTRAST, 0)
    backend = StubBackend(completions=[echo_contrast])
    contrast_taxonomy(taxonomy, backend)
    (prompt,) = backend.prompts
    assert "alpha oldest." in prompt
    assert "alpha newest." not in prompt
