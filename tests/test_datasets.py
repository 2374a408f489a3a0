from __future__ import annotations

import pytest

from helpers import class_vocab, keyword_documents
from tagcraft.datasets import (
    AGNEWS_LABELS,
    DBPEDIA_LABELS,
    load_agnews,
    load_dbpedia,
    load_generic_csv,
    split_seen_unseen,
)
from tagcraft.errors import FileIOError, SchemaError


def _write(tmp_path, name: str, content: str):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


# -- AG News ---------------------------------------------------------------------


def test_agnews_row_maps_index_to_label(tmp_path) -> None:
    path = _write(tmp_path, "ag.csv", '"3","Wall St. Bears","Short-sellers circle."\n')
    docs = load_agnews(path)
    assert len(docs) == 1
    assert docs[0].gold_label == "Business"
    assert docs[0].text == "Wall St. Bears Short-sellers circle."


def test_agnews_index_zero_is_malformed(tmp_path) -> None:
    path = _write(tmp_path, "ag.csv", '"0","title","body"\n')
    with pytest.raises(SchemaError, match=r"^malformed row at line 1: class index 0 outside 1\.\.4$"):
        load_agnews(path)


def test_agnews_quoted_commas_stay_one_field(tmp_path) -> None:
    path = _write(tmp_path, "ag.csv", '"2","One, two, three","And a, b."\n')
    docs = load_agnews(path)
    assert docs[0].gold_label == "Sports"
    assert docs[0].text == "One, two, three And a, b."


def test_agnews_all_four_labels(tmp_path) -> None:
    rows = "\n".join(f'"{i}","t{i}","d{i}"' for i in range(1, 5))
    docs = load_agnews(_write(tmp_path, "ag.csv", rows + "\n"))
    assert [d.gold_label for d in docs] == list(AGNEWS_LABELS)


def test_missing_file_is_io_failure(tmp_path) -> None:
    with pytest.raises(FileIOError):
        load_agnews(tmp_path / "absent.csv")


@pytest.mark.parametrize("load", [load_agnews, load_dbpedia], ids=["agnews", "dbpedia"])
def test_byte_order_mark_does_not_hide_the_first_row(tmp_path, load) -> None:
    content = '"3","first","row"\n"1","second","row"\n'
    path = tmp_path / "bom.csv"
    path.write_text(content, encoding="utf-8-sig")
    docs = load(path)
    assert [d.text for d in docs] == ["first row", "second row"]
    assert docs == load(_write(tmp_path, "plain.csv", content))


def test_agnews_error_names_the_line_the_row_is_on(tmp_path) -> None:
    # The first row spans lines 1-2, so the bad row is on line 3.
    path = _write(tmp_path, "ag.csv", '1,"a\nb",c\n9,x,y\n')
    with pytest.raises(SchemaError, match=r"^malformed row at line 3: class index 9 outside 1\.\.4$"):
        load_agnews(path)


# -- DBpedia ---------------------------------------------------------------------


def test_dbpedia_highest_index_maps(tmp_path) -> None:
    path = _write(tmp_path, "db.csv", '"14","Some Book","An 1890 novel."\n')
    docs = load_dbpedia(path)
    assert docs[0].gold_label == "WrittenWork"
    assert len(DBPEDIA_LABELS) == 14


def test_dbpedia_index_out_of_range(tmp_path) -> None:
    path = _write(tmp_path, "db.csv", '"15","x","y"\n')
    with pytest.raises(SchemaError, match=r"^malformed row at line 1: class index 15 outside 1\.\.14$"):
        load_dbpedia(path)


def test_header_detected_and_loads_identically(tmp_path) -> None:
    body = '"1","Acme Corp","A company."\n"7","Tall Tower","A building."\n'
    plain = load_dbpedia(_write(tmp_path, "plain.csv", body))
    headered = load_dbpedia(_write(tmp_path, "headered.csv", "class,title,abstract\n" + body))
    assert plain == headered


def test_nonnumeric_index_on_data_row_is_malformed(tmp_path) -> None:
    body = '"1","ok","row"\n"oops","bad","row"\n'
    with pytest.raises(
        SchemaError, match=r"^malformed row at line 2: class index 'oops' is not an integer$"
    ):
        load_dbpedia(_write(tmp_path, "bad.csv", body))


# -- generic CSV -------------------------------------------------------------------


def test_generic_csv_requires_header(tmp_path) -> None:
    path = _write(tmp_path, "g.csv", "foo,bar\nx,y\n")
    with pytest.raises(SchemaError):
        load_generic_csv(path)


def test_generic_csv_loads_text_and_label(tmp_path) -> None:
    path = _write(tmp_path, "g.csv", "text,label\nhello world,Greeting\n")
    docs = load_generic_csv(path)
    assert docs[0].text == "hello world"
    assert docs[0].gold_label == "Greeting"


def test_generic_csv_header_may_start_with_a_byte_order_mark(tmp_path) -> None:
    content = "text,label\nhello world,Greeting\n"
    path = tmp_path / "bom.csv"
    path.write_text(content, encoding="utf-8-sig")
    docs = load_generic_csv(path)
    assert [(d.text, d.gold_label) for d in docs] == [("hello world", "Greeting")]
    assert docs == load_generic_csv(_write(tmp_path, "plain.csv", content))


def test_generic_csv_empty_cell_is_malformed(tmp_path) -> None:
    path = _write(tmp_path, "g.csv", "text,label\n,Greeting\n")
    with pytest.raises(SchemaError, match="^malformed row at line 2: empty text or label$"):
        load_generic_csv(path)


def test_generic_csv_error_names_the_line_the_row_is_on(tmp_path) -> None:
    path = _write(tmp_path, "g.csv", "text,label\n\nhello,A\n,B\n")
    with pytest.raises(SchemaError, match="^malformed row at line 4: empty text or label$"):
        load_generic_csv(path)


def test_generic_csv_header_is_case_blind_and_extra_columns_are_ignored(tmp_path) -> None:
    content = ' Label ,id,TEXT\n"Greeting",1,"hello,\nworld"\n\nFarewell,2,bye,extra\n'
    docs = load_generic_csv(_write(tmp_path, "g.csv", content))
    assert [(d.id, d.text, d.gold_label) for d in docs] == [
        ("r1", "hello,\nworld", "Greeting"),
        ("r2", "bye", "Farewell"),
    ]


# -- seen/unseen split ----------------------------------------------------------------


def _split(docs, seed=0, **kwargs):
    defaults = dict(
        seen_labels=["ClassA", "ClassB", "ClassC"],
        unseen_labels=["ClassD"],
        n_bootstrap=20,
        m_validate=25,
        test_per_class=100,
        seed=seed,
    )
    defaults.update(kwargs)
    return split_seen_unseen(docs, **defaults)


def test_split_exact_sizes_and_disjointness() -> None:
    docs = keyword_documents(class_vocab(4), per_class=160, seed=1)
    split = _split(docs)
    for label in ("ClassA", "ClassB", "ClassC"):
        assert len(split.seen_train[label]) == 20
        assert len(split.seen_validate[label]) == 25
        assert len(split.seen_test[label]) == 100
        ids = (
            {d.id for d in split.seen_train[label]}
            | {d.id for d in split.seen_validate[label]}
            | {d.id for d in split.seen_test[label]}
        )
        assert len(ids) == 145
    assert len(split.unseen_test["ClassD"]) == 100
    assert len(split.unseen_bootstrap["ClassD"]) == 20
    assert not (
        {d.id for d in split.unseen_test["ClassD"]}
        & {d.id for d in split.unseen_bootstrap["ClassD"]}
    )


def test_split_same_seed_is_identical() -> None:
    docs = keyword_documents(class_vocab(4), per_class=160, seed=1)
    assert _split(docs, seed=9) == _split(docs, seed=9)


def test_split_different_seed_differs() -> None:
    docs = keyword_documents(class_vocab(4), per_class=160, seed=1)
    assert _split(docs, seed=1) != _split(docs, seed=2)


def test_split_insufficient_docs_names_class_and_counts() -> None:
    docs = keyword_documents(class_vocab(4), per_class=100, seed=1)  # < 145 needed
    with pytest.raises(
        SchemaError, match="^class 'ClassA' needs 145 documents but only 100 are available$"
    ):
        _split(docs)


def test_split_unseen_bootstrap_is_best_effort() -> None:
    docs = keyword_documents(class_vocab(4), per_class=160, seed=1)
    docs = [d for d in docs if not (d.gold_label == "ClassD" and int(d.id.split("-")[1]) >= 105)]
    split = _split(docs)
    assert len(split.unseen_test["ClassD"]) == 100
    assert len(split.unseen_bootstrap["ClassD"]) == 5
