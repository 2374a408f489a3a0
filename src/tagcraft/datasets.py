"""Dataset loading and the seen/unseen split protocol."""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import FileIOError, SchemaError
from .fileio import READ_ENCODING
from .model import Document, group_by_label

AGNEWS_LABELS = ("World", "Sports", "Business", "Sci/Tech")

DBPEDIA_LABELS = (
    "Company",
    "EducationalInstitution",
    "Artist",
    "Athlete",
    "OfficeHolder",
    "MeanOfTransportation",
    "Building",
    "NaturalPlace",
    "Village",
    "Animal",
    "Plant",
    "Album",
    "Film",
    "WrittenWork",
)


def _read_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """The non-blank rows, each with the physical line on which it ends."""
    try:
        with Path(path).open("r", encoding=READ_ENCODING, newline="") as handle:
            reader = csv.reader(handle)
            return [(reader.line_num, row) for row in reader if row]
    except OSError as err:
        raise FileIOError(f"cannot read dataset {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"dataset {path} is not UTF-8 text: {err}") from err


def _malformed(line: int, message: str) -> SchemaError:
    return SchemaError(f"malformed row at line {line}: {message}")


def _load_indexed_csv(path: str | Path, labels: Sequence[str]) -> list[Document]:
    """Shared loader for the class-index CSV layout (index, title, body...).

    A first row whose index column is not an integer is treated as a header
    and skipped; document ids number the data rows so files with and without
    a header load identically.
    """
    rows = _read_rows(path)
    documents: list[Document] = []
    for position, (line, row) in enumerate(rows):
        if position == 0:
            try:
                int(row[0])
            except ValueError:
                continue  # header row
        if len(row) < 2:
            raise _malformed(line, f"expected at least 2 columns, got {len(row)}")
        try:
            index = int(row[0])
        except ValueError as err:
            raise _malformed(line, f"class index {row[0]!r} is not an integer") from err
        if not 1 <= index <= len(labels):
            raise _malformed(line, f"class index {index} outside 1..{len(labels)}")
        text = " ".join(cell.strip() for cell in row[1:] if cell.strip())
        if not text:
            raise _malformed(line, "empty document text")
        documents.append(
            Document(id=f"r{len(documents) + 1}", text=text, gold_label=labels[index - 1])
        )
    return documents


def load_agnews(path: str | Path) -> list[Document]:
    """Load the standard AG News CSV (class index 1-4, title, description);
    text is the title and description joined, labels mapped to
    World / Sports / Business / Sci/Tech.
    """
    return _load_indexed_csv(path, AGNEWS_LABELS)


def load_dbpedia(path: str | Path) -> list[Document]:
    """Load the standard DBpedia CSV (class index 1-14, title, abstract)."""
    return _load_indexed_csv(path, DBPEDIA_LABELS)


def load_generic_csv(path: str | Path) -> list[Document]:
    """Load a headered CSV with ``text`` and ``label`` columns, so private
    ticketing-style corpora run through the same harness.
    """
    rows = _read_rows(path)
    header = [name.strip().lower() for name in rows[0][1]] if rows else []
    if "text" not in header or "label" not in header:
        raise SchemaError(f"{path}: generic CSV requires 'text' and 'label' header columns")
    documents: list[Document] = []
    for line, row in rows[1:]:
        # A repeated column name takes its last column, as in a dict.
        cells = dict(zip(header, row))
        text = cells.get("text", "").strip()
        label = cells.get("label", "").strip()
        if not text or not label:
            raise _malformed(line, "empty text or label")
        documents.append(Document(id=f"r{len(documents) + 1}", text=text, gold_label=label))
    return documents


@dataclass(frozen=True)
class SplitSet:
    """Disjoint per-class document buckets for one experiment."""

    seen_train: Mapping[str, tuple[Document, ...]]
    seen_validate: Mapping[str, tuple[Document, ...]]
    seen_test: Mapping[str, tuple[Document, ...]]
    unseen_test: Mapping[str, tuple[Document, ...]]
    unseen_bootstrap: Mapping[str, tuple[Document, ...]]


def split_seen_unseen(
    documents: Iterable[Document],
    *,
    seen_labels: Sequence[str],
    unseen_labels: Sequence[str],
    n_bootstrap: int,
    m_validate: int,
    test_per_class: int,
    seed: int,
) -> SplitSet:
    """Produce the disjoint seeded splits: per seen class n_bootstrap train,
    m_validate validation, and test_per_class test documents; per unseen
    class test_per_class test documents plus up to n_bootstrap exemplars
    (used only when the class is introduced with exemplars).

    Raises:
        SchemaError: when a class cannot fill its buckets.
    """
    grouped = group_by_label(documents)
    seen_train: dict[str, tuple[Document, ...]] = {}
    seen_validate: dict[str, tuple[Document, ...]] = {}
    seen_test: dict[str, tuple[Document, ...]] = {}
    unseen_test: dict[str, tuple[Document, ...]] = {}
    unseen_bootstrap: dict[str, tuple[Document, ...]] = {}

    def shuffled_pool(label: str, needed: int) -> list[Document]:
        pool = list(grouped.get(label, []))
        if len(pool) < needed:
            raise SchemaError(
                f"class {label!r} needs {needed} documents but only {len(pool)} are available"
            )
        random.Random(f"{seed}:{label}").shuffle(pool)
        return pool

    for label in seen_labels:
        pool = shuffled_pool(label, n_bootstrap + m_validate + test_per_class)
        seen_train[label] = tuple(pool[:n_bootstrap])
        seen_validate[label] = tuple(pool[n_bootstrap : n_bootstrap + m_validate])
        seen_test[label] = tuple(
            pool[n_bootstrap + m_validate : n_bootstrap + m_validate + test_per_class]
        )
    for label in unseen_labels:
        pool = shuffled_pool(label, test_per_class)
        unseen_test[label] = tuple(pool[:test_per_class])
        unseen_bootstrap[label] = tuple(pool[test_per_class : test_per_class + n_bootstrap])
    return SplitSet(
        seen_train=seen_train,
        seen_validate=seen_validate,
        seen_test=seen_test,
        unseen_test=unseen_test,
        unseen_bootstrap=unseen_bootstrap,
    )
