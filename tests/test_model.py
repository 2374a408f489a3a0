from __future__ import annotations

import errno
import json
import stat
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcraft import (
    Provenance,
    Stage,
    Taxonomy,
    TopicDescriptor,
    load_taxonomy,
    normalize_name,
    save_taxonomy,
    taxonomy_upsert,
)
from tagcraft.errors import FileIOError, SchemaError
from tagcraft.model import Category, HistoryEntry, RefinementConfig, name_key, taxonomy_upsert_all


# -- name normalization --------------------------------------------------------


def test_normalize_trims_and_underscores() -> None:
    assert normalize_name(" Network Connectivity ") == "Network_Connectivity"


def test_normalize_is_idempotent_on_normalized_input() -> None:
    assert normalize_name("Network_Connectivity") == "Network_Connectivity"


def test_normalize_collapses_whitespace_runs() -> None:
    assert normalize_name("A  B\tC") == "A_B_C"
    assert normalize_name("\u00a0A\u2003\x1cB\nC\u3000") == "A_B_C"


def test_normalize_empty_raises() -> None:
    with pytest.raises(ValueError, match="^category name is empty after normalization$"):
        normalize_name("   ")


@given(st.text(max_size=40))
def test_normalize_idempotent_property(raw: str) -> None:
    try:
        once = normalize_name(raw)
    except ValueError:
        return
    assert normalize_name(once) == once
    assert once == once.strip()
    assert " " not in once and "\t" not in once


# -- descriptors and categories --------------------------------------------------


def test_descriptor_requires_description() -> None:
    with pytest.raises(ValueError):
        TopicDescriptor("X", "   ")


def test_descriptor_normalizes_name_and_strips_description() -> None:
    d = TopicDescriptor("  Login   Issues ", "  Covers login.  ")
    assert d.topic_name == "Login_Issues"
    assert d.topic_description == "Covers login."


# -- upsert -----------------------------------------------------------------------


def _tax(*pairs: tuple[str, str]) -> Taxonomy:
    taxonomy = Taxonomy()
    for name, description in pairs:
        taxonomy = taxonomy_upsert(taxonomy, TopicDescriptor(name, description), Stage.BOOTSTRAP, 0)
    return taxonomy


def test_upsert_existing_appends_history() -> None:
    taxonomy = _tax(("Alpha", "one"), ("Beta", "two"))
    updated = taxonomy_upsert(taxonomy, TopicDescriptor("Alpha", "newer"), Stage.REFINE, 1)
    assert len(updated) == 2
    assert len(updated.categories[0].history) == 2
    assert updated.categories[0].descriptor.topic_description == "newer"
    assert updated.version == taxonomy.version + 1


def test_upsert_new_appends_category_last() -> None:
    taxonomy = _tax(("Alpha", "one"))
    updated = taxonomy_upsert(taxonomy, TopicDescriptor("Beta", "two"), Stage.BOOTSTRAP, 0)
    assert updated.names() == ("Alpha", "Beta")


def test_upsert_case_insensitive_match_preserves_first_casing() -> None:
    taxonomy = _tax(("Alpha_Beta", "one"))
    updated = taxonomy_upsert(taxonomy, TopicDescriptor("ALPHA_BETA", "two"), Stage.CONTRAST, 0)
    assert len(updated) == 1
    category = updated.categories[0]
    assert category.name == "Alpha_Beta"
    assert len(category.history) == 2
    assert category.descriptor.topic_name == "Alpha_Beta"
    assert category.descriptor.topic_description == "two"


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Alpha", "alpha", "ALPHA", "Beta", "beta", "Gamma", "Delta D"]),
            st.text(min_size=1, max_size=10).filter(lambda s: s.strip()),
        ),
        max_size=30,
    )
)
def test_upsert_sequences_keep_invariants(ops: list[tuple[str, str]]) -> None:
    taxonomy = Taxonomy()
    previous_names: tuple[str, ...] = ()
    probes = {name for name, _ in ops} | {" alpha ", "DELTA   d", "Epsilon"}
    for name, description in ops:
        taxonomy = taxonomy_upsert(taxonomy, TopicDescriptor(name, description), Stage.HITL, 0)
        names = taxonomy.names()
        # uniqueness under case-insensitive comparison
        keys = [name_key(n) for n in names]
        assert len(keys) == len(set(keys))
        # existing order is never disturbed; new categories go last
        assert names[: len(previous_names)] == previous_names
        assert len(names) - len(previous_names) in (0, 1)
        previous_names = names
        for category in taxonomy.categories:
            assert category.descriptor == category.history[-1].descriptor
        # the key index agrees with a linear scan
        for probe in probes:
            scan = next((i for i, key in enumerate(keys) if key == name_key(probe)), None)
            assert taxonomy.index_of(probe) == scan
            assert taxonomy.get(probe) == (None if scan is None else taxonomy.categories[scan])
    batch = [(TopicDescriptor(name, description), Stage.HITL, 0) for name, description in ops]
    batched = taxonomy_upsert_all(Taxonomy(), batch)
    assert batched == taxonomy
    assert batched.version == len(ops)


def test_taxonomy_rejects_names_equal_after_normalization() -> None:
    def category(name: str) -> Category:
        entry = HistoryEntry(Stage.BOOTSTRAP, 0, TopicDescriptor(name, "d"))
        return Category(Provenance.GENERATED, (entry,))

    with pytest.raises(ValueError, match="duplicate"):
        Taxonomy((category("Alpha Beta"), category("alpha_beta")))


def test_key_index_stays_out_of_equality_repr_and_asdict() -> None:
    taxonomy = _tax(("Alpha", "one"))
    assert "_index" not in repr(taxonomy)
    assert set(asdict(taxonomy)) == {"categories", "version"}
    assert taxonomy == Taxonomy(taxonomy.categories, taxonomy.version)
    assert hash(taxonomy) == hash(Taxonomy(taxonomy.categories, taxonomy.version))


# -- persistence -------------------------------------------------------------------


def test_save_load_round_trip(tmp_path) -> None:
    taxonomy = _tax(("Alpha", "one"), ("Beta", "two"), ("Gamma", "three"))
    taxonomy = taxonomy_upsert(taxonomy, TopicDescriptor("Alpha", "contrasted"), Stage.CONTRAST, 0)
    path = tmp_path / "tax.json"
    save_taxonomy(taxonomy, path)
    assert load_taxonomy(path) == taxonomy


def test_load_rejects_duplicate_names(tmp_path) -> None:
    taxonomy = _tax(("Alpha", "one"))
    data = json.loads(json.dumps(_dump(taxonomy)))
    data["categories"].append(data["categories"][0] | {"topic_name": "ALPHA"})
    data["categories"][1]["history"] = [
        {"stage": "bootstrap", "iteration": 0, "topic_name": "ALPHA", "topic_description": "one"}
    ]
    data["categories"][1]["topic_description"] = "one"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_taxonomy(path)


def _dump(taxonomy: Taxonomy) -> dict:
    from tagcraft.model import taxonomy_to_dict

    return taxonomy_to_dict(taxonomy)


def test_load_preserves_older_version(tmp_path) -> None:
    data = {
        "version": 7,
        "categories": [
            {
                "topic_name": "Alpha",
                "topic_description": "one",
                "provenance": "user",
                "history": [
                    {"stage": "hitl", "iteration": 0, "topic_name": "Alpha", "topic_description": "one"}
                ],
            }
        ],
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = load_taxonomy(path)
    assert loaded.version == 7
    assert loaded.categories[0].provenance is Provenance.USER_DEFINED


def test_load_rejects_malformed_json(tmp_path) -> None:
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_taxonomy(path)


def test_load_rejects_a_file_that_is_not_utf8(tmp_path) -> None:
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": 1, "categories": [], "note": "café"}'.encode("latin-1"))
    with pytest.raises(SchemaError, match="is not UTF-8 text"):
        load_taxonomy(path)


@pytest.mark.parametrize("value", [2.9, 2.0, True, "3", None])
@pytest.mark.parametrize("key", ["version", "iteration"])
def test_load_rejects_version_and_iteration_that_are_not_integers(tmp_path, key, value) -> None:
    data = _dump(_tax(("Alpha", "one")))
    if key == "version":
        data["version"] = value
    else:
        data["categories"][0]["history"][0]["iteration"] = value
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{key} must be an integer"):
        load_taxonomy(path)


def test_load_rejects_mismatched_current_descriptor(tmp_path) -> None:
    data = {
        "version": 1,
        "categories": [
            {
                "topic_name": "Alpha",
                "topic_description": "stale",
                "provenance": "generated",
                "history": [
                    {"stage": "bootstrap", "iteration": 0, "topic_name": "Alpha", "topic_description": "one"}
                ],
            }
        ],
    }
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_taxonomy(path)


def test_load_missing_file_raises_io_error(tmp_path) -> None:
    with pytest.raises(FileIOError):
        load_taxonomy(tmp_path / "absent.json")


def test_save_failing_part_way_leaves_previous_file_and_no_temp(tmp_path, monkeypatch) -> None:
    path = tmp_path / "t.json"
    save_taxonomy(Taxonomy(), path)
    before = path.read_bytes()
    real_open = Path.open

    def torn_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        write = handle.write

        def write_half_then_fail(text: str) -> int:
            write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "no space left on device")

        handle.write = write_half_then_fail
        return handle

    monkeypatch.setattr(Path, "open", torn_open)
    bigger = taxonomy_upsert(Taxonomy(), TopicDescriptor("Alpha", "a" * 1000), Stage.BOOTSTRAP, 0)
    with pytest.raises(FileIOError):
        save_taxonomy(bigger, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_save_writes_through_a_symlink_and_keeps_permissions(tmp_path) -> None:
    real = tmp_path / "real.json"
    save_taxonomy(Taxonomy(), real)
    real.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    taxonomy = taxonomy_upsert(Taxonomy(), TopicDescriptor("Alpha", "a"), Stage.BOOTSTRAP, 0)
    save_taxonomy(taxonomy, link)
    assert link.is_symlink()
    assert load_taxonomy(real).names() == ("Alpha",)
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


_names = st.lists(
    st.integers(0, 999).map(lambda i: f"Cat_{i}"), min_size=0, max_size=6, unique=True
)
_descriptions = st.text(min_size=1, max_size=30).filter(lambda s: s.strip())


@st.composite
def taxonomies(draw) -> Taxonomy:
    taxonomy = Taxonomy()
    for name in draw(_names):
        depth = draw(st.integers(1, 3))
        for i in range(depth):
            stage = draw(st.sampled_from(list(Stage)))
            descriptor = TopicDescriptor(name, draw(_descriptions))
            taxonomy = taxonomy_upsert(taxonomy, descriptor, stage, i)
    return taxonomy


@settings(max_examples=50)
@given(taxonomies())
def test_round_trip_identity_property(tmp_path_factory, taxonomy: Taxonomy) -> None:
    path = tmp_path_factory.mktemp("tax") / "t.json"
    save_taxonomy(taxonomy, path)
    assert load_taxonomy(path) == taxonomy


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_bootstrap", 3.0),
        ("m_validate", 2.9),
        ("max_iterations", 2.5),
        ("max_iterations", True),
        ("seed", "0"),
        ("min_confusion_count", None),
        ("top_k_pairs", 1.5),
        ("accuracy_threshold", True),
        ("accuracy_threshold", "0.9"),
    ],
)
def test_refinement_config_rejects_values_of_the_wrong_type(key, value) -> None:
    with pytest.raises(TypeError, match=key):
        RefinementConfig(**{key: value})


def test_refinement_config_validation() -> None:
    with pytest.raises(ValueError):
        RefinementConfig(accuracy_threshold=0.0)
    with pytest.raises(ValueError):
        RefinementConfig(max_iterations=0)
