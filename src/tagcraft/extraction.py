"""Robust extraction of descriptor JSON from LLM completions.

Completions arrive fenced, prefixed with prose, with inconsistent key
casing ("topic_name" / "topic_Description" / "topic_description"), as a
single object, several objects, or an array. Extraction never raises
anything but DescriptorParseError, no matter the input bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from itertools import chain
from typing import Iterator, Mapping

from .backends.base import Backend, PromptRequest
from .errors import DescriptorParseError
from .model import TopicDescriptor

_FENCE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)

# One-line repair instruction appended when a completion fails to parse.
REPAIR_INSTRUCTION = "Return only the JSON object."
MAX_REPAIR_RETRIES = 2


# Per opener, the only characters that can change a span scan's state; the
# scans jump from one to the next instead of visiting every character. The
# quote-blind table never stops on a quote or a backslash, so its scan never
# enters a string literal: it rescues replies with stray quotes.
_STRING_AWARE_STOPS = {"{": re.compile(r'[{}"\\]'), "[": re.compile(r'[\[\]"\\]')}
_QUOTE_BLIND_STOPS = {"{": re.compile(r"[{}]"), "[": re.compile(r"[\[\]]")}


def _spans(
    text: str, opener: str, closer: str, stops: Mapping[str, re.Pattern[str]]
) -> Iterator[tuple[int, int]]:
    """Yield top-level balanced spans, tracking JSON string literals when
    ``stops[opener]`` matches quotes and backslashes.
    """
    depth = 0
    start = -1
    in_string = False
    escaped_at = -1  # index of the character consumed by an escape
    for match in stops[opener].finditer(text):
        i = match.start()
        ch = text[i]
        if in_string:
            if i == escaped_at:
                continue
            if ch == "\\":
                escaped_at = i + 1
            elif ch == '"':
                in_string = False
            continue
        if ch == '"' and depth > 0:
            in_string = True
        elif ch == opener:
            if depth == 0:
                start = i
            depth += 1
        elif ch == closer and depth > 0:
            depth -= 1
            if depth == 0:
                yield (start, i + 1)


def _candidate_texts(text: str) -> Iterator[str]:
    """Yield each distinct JSON candidate snippet once, in this order: the
    whole text, each fenced block, the string-aware spans, then the
    quote-blind spans.
    """
    fenced = (match.group(1).strip() for match in _FENCE.finditer(text))
    spans = (
        text[start:end]
        for stops in (_STRING_AWARE_STOPS, _QUOTE_BLIND_STOPS)
        for opener, closer in (("{", "}"), ("[", "]"))
        for start, end in _spans(text, opener, closer, stops)
    )
    seen: set[str] = set()
    for snippet in chain((text.strip(),), fenced, spans):
        if snippet and snippet not in seen:
            seen.add(snippet)
            yield snippet


def _parsed_values(text: str) -> Iterator[object]:
    for snippet in _candidate_texts(text):
        try:
            yield json.loads(snippet)
        except (RecursionError, ValueError):  # json decode errors are ValueErrors
            continue


def _descriptor_from_mapping(data: Mapping) -> TopicDescriptor:
    name = None
    description = None
    for key, value in data.items():
        lowered = str(key).strip().lower()
        if lowered == "topic_name":
            name = value
        elif lowered == "topic_description":
            description = value
    if not isinstance(name, str) or not isinstance(description, str):
        raise DescriptorParseError("JSON object lacks topic name/description string keys")
    try:
        return TopicDescriptor(name, description)
    except ValueError as err:
        raise DescriptorParseError(str(err)) from err


def extract_descriptor(text: str) -> TopicDescriptor:
    """Parse the first balanced JSON object in ``text`` as a descriptor.

    Accepts fenced blocks and surrounding prose; key matching is
    case-insensitive and tolerates stray whitespace inside key names.

    Raises:
        DescriptorParseError: no balanced object, or required keys missing.
    """
    if not isinstance(text, str) or not text.strip():
        raise DescriptorParseError("empty completion")
    for value in _parsed_values(text):
        if isinstance(value, Mapping):
            return _descriptor_from_mapping(value)
    raise DescriptorParseError("no JSON object found in completion")


def extract_descriptor_set(text: str) -> list[TopicDescriptor]:
    """Parse every top-level JSON object (or a JSON array of objects) as a
    descriptor list, preserving order of appearance. Objects that are not
    descriptor-shaped are skipped.

    Raises:
        DescriptorParseError: if zero descriptors were found.
    """
    if not isinstance(text, str) or not text.strip():
        raise DescriptorParseError("empty completion")
    descriptors: list[TopicDescriptor] = []
    # The scan layers (whole text, fenced blocks, spans) re-discover the same
    # content; dedupe on (name, description) keeps one entry in first-seen order.
    seen: set[tuple[str, str]] = set()
    for value in _parsed_values(text):
        items = value if isinstance(value, list) else [value]
        for item in items:
            if not isinstance(item, Mapping):
                continue
            try:
                descriptor = _descriptor_from_mapping(item)
            except DescriptorParseError:
                continue
            fingerprint = (descriptor.topic_name, descriptor.topic_description)
            if fingerprint not in seen:
                seen.add(fingerprint)
                descriptors.append(descriptor)
    if not descriptors:
        raise DescriptorParseError("no descriptor objects found in completion")
    return descriptors


def descriptor_to_json(descriptor: TopicDescriptor) -> str:
    """Canonical JSON form; emission always uses lowercase keys."""
    return json.dumps(
        {
            "topic_name": descriptor.topic_name,
            "topic_description": descriptor.topic_description,
        },
        ensure_ascii=False,
    )


def request_descriptor(backend: Backend, request: PromptRequest) -> TopicDescriptor:
    """Complete the request and extract one descriptor, re-prompting at most
    twice with a one-line repair instruction before surfacing the error.
    """
    return _request_with_repair(backend, request, extract_descriptor)


def request_descriptor_set(backend: Backend, request: PromptRequest) -> list[TopicDescriptor]:
    """Like request_descriptor but parses a descriptor set."""
    return _request_with_repair(backend, request, extract_descriptor_set)


def _request_with_repair(backend, request, parse):
    current = request
    error: DescriptorParseError | None = None
    for _ in range(MAX_REPAIR_RETRIES + 1):
        text = backend.complete(current)
        try:
            return parse(text)
        except DescriptorParseError as err:
            error = err
            current = replace(current, user_text=current.user_text + "\n\n" + REPAIR_INSTRUCTION)
    assert error is not None
    raise error
