"""Deterministic offline backend for tests, demos, and CI.

The mock is a pure function of (prompt text, candidates, seed): identical
inputs always produce identical outputs and nothing leaves the process.

Label scoring
    score(candidate) = |tokens(document) ∩ tokens(description)| / len(tokens(description))
    where ``tokens`` lowercases and splits on non-word characters, the
    document is the text between the ``Document:`` and ``Categories:``
    markers of the rendered classification prompt (the whole prompt when
    those markers are absent), and the description comes from the
    candidate's ``- Name: description`` line (the candidate name itself
    when no such line exists). Shared tokens are counted once each; the
    denominator counts description tokens with repetition.

Completions
    The prompt is matched against the shipped stage templates and a
    descriptor (or descriptor set) is synthesized from the dominant
    sample keywords, so the full pipeline runs offline end to end:

    * tag generation: top keywords of the trailing ``Description:`` sample
      block become the new descriptor; the name joins the two most frequent
      keywords.
    * contrast: every descriptor JSON found in the prompt is re-emitted
      with its description extended by an exclusion sentence naming the
      other categories in the set.
    * misclassification refinement: keywords are pooled from the correctly-
      and mis-classified sample blocks plus the current descriptor JSON;
      the topic name echoes the category named in the prompt.
    * pair adaptation: keywords are pooled from both sample blocks and the
      description states the contrast with the confused category.

    Unknown prompts fall back to whole-prompt keyword extraction. Keyword
    ranking is by descending frequency; ties break on a stable hash salted
    with the mock seed.

    The contrast and refine handlers find the descriptors in the prompt with
    ``tagcraft.extraction.extract_descriptor_set``, so a change to extraction
    also moves the mock's completion time.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from typing import Sequence

from ..errors import DescriptorParseError
from ..extraction import extract_descriptor_set
from ..model import name_key
from .base import Backend, BackendCapabilities, PromptRequest, ScoreMap, ScoringPath, check_candidates

_TOKEN = re.compile(r"[a-z0-9_]+")

_STOPWORDS = frozenset(
    """
    a an and are as at be been but by can could did do does for from had has
    have he her him his how i if in into is it its just me my no none not of
    on or our she so some such than that the their them then there these they
    this to us was we were what when where which while who will with would
    you your
    """.split()
)

# Distinctive lines of the shipped stage templates.
_MARKER_TAG = "Respond only with the JSON output for the given Description."
_MARKER_CONTRAST = "emphasize the contrast between all categories"
_MARKER_REFINE = "refine a category tag based on correctly classified and misclassified"
_MARKER_ADAPT = "Strengthen the distinction between"

_DOCUMENT_SECTION = re.compile(r"Document:\n(.*?)\n\s*Categories:", re.DOTALL)
_CANDIDATE_LINE = re.compile(r"^- (.+?): (.+)$", re.MULTILINE)
_REFINE_CATEGORY = re.compile(r"belong to the (.+?) category")
_ADAPT_CORRECT = re.compile(r"belonging to (.+?)\.")
_ADAPT_WRONG = re.compile(r"mistakenly classified as (.+?)\.")


def _tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _between(text: str, start: str, end: str) -> str:
    i = text.find(start)
    if i < 0:
        return ""
    i += len(start)
    j = text.find(end, i)
    return text[i:j] if j >= 0 else text[i:]


class MockBackend(Backend):
    """Offline stand-in for an instruction-following LLM; see module docs."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(model_id=f"mock-{self.seed}")

    # -- scoring ----------------------------------------------------------

    def score_labels(self, request: PromptRequest, candidates: Sequence[str]) -> ScoreMap:
        names = check_candidates(candidates)
        text = request.user_text
        match = _DOCUMENT_SECTION.search(text)
        document = match.group(1) if match else text
        descriptions = {
            name_key(m.group(1)): m.group(2) for m in _CANDIDATE_LINE.finditer(text)
        }
        doc_tokens = set(_tokens(document))
        scores: dict[str, float] = {}
        for name in names:
            description = descriptions.get(name_key(name), name)
            desc_tokens = _tokens(description)
            if not desc_tokens:
                scores[name] = 0.0
            else:
                scores[name] = len(doc_tokens & set(desc_tokens)) / len(desc_tokens)
        return ScoreMap(scores=scores, path=ScoringPath.MOCK)

    # -- completion -------------------------------------------------------

    def complete(self, request: PromptRequest) -> str:
        text = request.user_text
        if _MARKER_TAG in text:
            return self._complete_tag(text)
        if _MARKER_CONTRAST in text:
            return self._complete_contrast(text)
        if _MARKER_REFINE in text:
            return self._complete_refine(text)
        if _MARKER_ADAPT in text:
            return self._complete_adapt(text)
        keywords = self._keywords(text, limit=8)
        return self._descriptor_json(self._name_from(keywords), keywords)

    # -- stage handlers ---------------------------------------------------

    def _complete_tag(self, text: str) -> str:
        anchor = text.rfind("Description:")
        samples = text[anchor + len("Description:"):] if anchor >= 0 else text
        keywords = self._keywords(samples, limit=8)
        return self._descriptor_json(self._name_from(keywords), keywords, capitalized_key=True)

    def _complete_contrast(self, text: str) -> str:
        try:
            descriptors = extract_descriptor_set(text)
        except DescriptorParseError:
            return "No categories were provided."
        names = [d.topic_name for d in descriptors]
        out = []
        for descriptor in descriptors:
            others = [n for n in names if n != descriptor.topic_name]
            if others:
                suffix = " This is different from " + ", ".join(others) + "."
            else:
                suffix = " This is distinct from the other categories."
            out.append(
                {
                    "topic_name": descriptor.topic_name,
                    "topic_description": descriptor.topic_description + suffix,
                }
            )
        return json.dumps(out, ensure_ascii=False)

    def _complete_refine(self, text: str) -> str:
        match = _REFINE_CATEGORY.search(text)
        name = match.group(1).strip() if match else "Refined_Topic"
        right = _between(text, "Correctly classified data:", "These data points belong")
        wrong = _between(text, "Misclassified data:", "These data points belong")
        try:
            base = " ".join(d.topic_description for d in extract_descriptor_set(text))
        except DescriptorParseError:
            base = ""
        keywords = self._keywords("\n".join((right, wrong, base)), limit=12)
        return self._descriptor_json(name, keywords, capitalized_key=True)

    def _complete_adapt(self, text: str) -> str:
        correct = _ADAPT_CORRECT.search(text)
        wrong = _ADAPT_WRONG.search(text)
        name = correct.group(1).strip() if correct else "Adapted_Topic"
        right = _between(text, "(df_subset_right):", "These items were correctly identified")
        wrong_block = _between(text, "(df_subset_wrong):", "These items should be in")
        keywords = self._keywords(right + "\n" + wrong_block, limit=12)
        description = self._description_from(keywords)
        if wrong:
            description += f" Unlike {wrong.group(1).strip()}."
        payload = {"topic_name": name, "topic_Description": description}
        return json.dumps(payload, ensure_ascii=False)

    # -- keyword machinery --------------------------------------------------

    def _tie_hash(self, token: str) -> str:
        return hashlib.sha256(f"{self.seed}:{token}".encode("utf-8")).hexdigest()

    def _keywords(self, text: str, limit: int) -> list[str]:
        counts = Counter(
            token
            for token in _tokens(text)
            if len(token) > 1 and token not in _STOPWORDS and not token.isdigit()
        )
        ranked = sorted(counts, key=lambda t: (-counts[t], self._tie_hash(t)))
        return ranked[:limit]

    @staticmethod
    def _name_from(keywords: list[str]) -> str:
        if not keywords:
            return "General_Topic"
        return "_".join(k.capitalize() for k in keywords[:2])

    @staticmethod
    def _description_from(keywords: list[str]) -> str:
        if not keywords:
            return "Covers general content."
        return "Covers " + ", ".join(keywords) + "."

    def _descriptor_json(self, name: str, keywords: list[str], capitalized_key: bool = False) -> str:
        key = "topic_Description" if capitalized_key else "topic_description"
        return json.dumps(
            {"topic_name": name, key: self._description_from(keywords)},
            ensure_ascii=False,
        )
