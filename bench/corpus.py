"""Seeded confusable corpora: classes come in pairs that share most of their
vocabulary, so bootstrapped descriptions of a pair overlap, validation
confuses them, and the refine and adapt stages really run.

The same seed always yields the same labels, words and documents.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from tagcraft import Document

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Every document of a pair carries the pair's anchor words and draws most of
# the rest from the pair's shared words, so the two classes of a pair get the
# same bootstrapped name (the second one with a `_2` suffix) and overlapping
# descriptions. A few words of the class's own keep the pair separable at all.
SYLLABLES = 3
ANCHOR_WORDS = 2
SHARED_WORDS = 12
OWN_WORDS = 10
SHARED_PER_DOC = 6
OWN_PER_DOC = 2


@dataclass(frozen=True)
class Corpus:
    labels: tuple[str, ...]
    documents: dict[str, tuple[Document, ...]]

    def all_documents(self) -> list[Document]:
        return [doc for label in self.labels for doc in self.documents[label]]


def _word(rng: random.Random, taken: set[str]) -> str:
    # Fixed-length words keep prompt sizes, and so the work per call, the
    # same from seed to seed.
    while True:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(SYLLABLES))
        if word not in taken:
            taken.add(word)
            return word


def confusable_corpus(n_classes: int, per_class: int, seed: int) -> Corpus:
    """``n_classes`` classes (an even count) of ``per_class`` documents each.

    Classes 2i and 2i+1 form a pair. Every document takes SHARED_PER_DOC
    distinct words from its pair's shared vocabulary and OWN_PER_DOC from
    its class's own vocabulary, in shuffled order.
    """
    if n_classes < 2 or n_classes % 2:
        raise ValueError("confusable corpora need an even number of classes")
    rng = random.Random(f"corpus:{seed}")
    taken: set[str] = set()
    labels = tuple(f"Class{i:02d}" for i in range(n_classes))
    documents: dict[str, tuple[Document, ...]] = {}
    for pair in range(n_classes // 2):
        anchors = [_word(rng, taken) for _ in range(ANCHOR_WORDS)]
        shared = [_word(rng, taken) for _ in range(SHARED_WORDS)]
        for label in labels[2 * pair : 2 * pair + 2]:
            own = [_word(rng, taken) for _ in range(OWN_WORDS)]
            docs = []
            for k in range(per_class):
                words = anchors + rng.sample(shared, SHARED_PER_DOC) + rng.sample(own, OWN_PER_DOC)
                rng.shuffle(words)
                docs.append(Document(id=f"{label}-{k}", text=" ".join(words), gold_label=label))
            documents[label] = tuple(docs)
    return Corpus(labels=labels, documents=documents)


def write_generic_csv(corpus: Corpus, path: Path) -> Path:
    """Write the corpus in tagcraft's generic ``text,label`` CSV layout."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["text", "label"])
        for document in corpus.all_documents():
            writer.writerow([document.text, document.gold_label])
    return path
