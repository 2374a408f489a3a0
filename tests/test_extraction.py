from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DESCRIPTOR_FIXTURES_BAD, DESCRIPTOR_FIXTURES_OK, StubBackend
from tagcraft import PromptRequest, TopicDescriptor, extract_descriptor, extract_descriptor_set
from tagcraft.errors import DescriptorParseError
from tagcraft.extraction import (
    REPAIR_INSTRUCTION,
    _QUOTE_BLIND_STOPS,
    _STRING_AWARE_STOPS,
    _spans,
    descriptor_to_json,
    request_descriptor,
    request_descriptor_set,
)

A2_STYLE = """
{
 "topic_name": " Software_Authentication_Access_Issues ",
 "topic_description": "Issues related to A B C and D. This is different from X Y Z."
}

{
"topic_name": " Hardware_Authentication_Access_Issues",
"topic_description": "Issues related to X Y and Z. This is different from A B C D."
}

{
 "topic_name": " Oracle_Authentication_Access_Issues ",
 "topic_description": "Issues related specifically to oracle login."
}
""".strip()


@pytest.mark.parametrize("text,name,description", DESCRIPTOR_FIXTURES_OK)
def test_well_formed_fixtures_parse(text: str, name: str, description: str) -> None:
    descriptor = extract_descriptor(text)
    assert descriptor.topic_name == name
    assert descriptor.topic_description == description


@pytest.mark.parametrize("text", DESCRIPTOR_FIXTURES_BAD)
def test_malformed_fixtures_raise(text: str) -> None:
    with pytest.raises(DescriptorParseError):
        extract_descriptor(text)


def test_set_extraction_preserves_order_of_three_objects() -> None:
    descriptors = extract_descriptor_set(A2_STYLE)
    assert [d.topic_name for d in descriptors] == [
        "Software_Authentication_Access_Issues",
        "Hardware_Authentication_Access_Issues",
        "Oracle_Authentication_Access_Issues",
    ]


def test_set_extraction_single_object() -> None:
    descriptors = extract_descriptor_set('{"topic_name": "X", "topic_description": "Y."}')
    assert len(descriptors) == 1


def test_set_extraction_array_form() -> None:
    text = (
        '[{"topic_name": "A", "topic_description": "a."},'
        ' {"topic_name": "B", "topic_description": "b."}]'
    )
    descriptors = extract_descriptor_set(text)
    assert [d.topic_name for d in descriptors] == ["A", "B"]


def test_set_extraction_skips_non_descriptor_objects() -> None:
    text = '{"note": "meta"} {"topic_name": "Real", "topic_description": "kept."}'
    descriptors = extract_descriptor_set(text)
    assert [d.topic_name for d in descriptors] == ["Real"]


def test_set_extraction_zero_descriptors_raises() -> None:
    with pytest.raises(DescriptorParseError):
        extract_descriptor_set("nothing JSON-ish here")


_name_strategy = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,15}", fullmatch=True)
_desc_strategy = st.text(min_size=1, max_size=60).filter(lambda s: s.strip())


@given(_name_strategy, _desc_strategy)
def test_round_trip_identity(name: str, description: str) -> None:
    descriptor = TopicDescriptor(name, description)
    assert extract_descriptor(descriptor_to_json(descriptor)) == descriptor


@settings(max_examples=300)
@given(st.text(max_size=300))
def test_extract_never_panics_on_arbitrary_text(text: str) -> None:
    try:
        result = extract_descriptor(text)
        assert isinstance(result, TopicDescriptor)
    except DescriptorParseError:
        pass


def test_request_descriptor_repairs_then_succeeds() -> None:
    good = '{"topic_name": "X", "topic_description": "Y."}'
    backend = StubBackend(completions=["prose", "still prose", good])
    request = PromptRequest(user_text="base prompt")
    descriptor = request_descriptor(backend, request)
    assert descriptor.topic_name == "X"
    assert len(backend.prompts) == 3
    assert backend.prompts[0] == "base prompt"
    assert backend.prompts[1].endswith(REPAIR_INSTRUCTION)
    assert backend.prompts[2].count(REPAIR_INSTRUCTION) == 2


def test_request_descriptor_set_repairs_after_one_prose_reply() -> None:
    good = (
        '[{"topic_name": "A", "topic_description": "a."},'
        ' {"topic_name": "B", "topic_description": "b."}]'
    )
    backend = StubBackend(completions=["Sure, here you go.", good])
    request = PromptRequest(user_text="base prompt")
    descriptors = request_descriptor_set(backend, request)
    assert [d.topic_name for d in descriptors] == ["A", "B"]
    assert backend.prompts == ["base prompt", "base prompt\n\n" + REPAIR_INSTRUCTION]


def test_request_descriptor_surfaces_error_after_two_repairs() -> None:
    backend = StubBackend(completions=["prose"])
    with pytest.raises(DescriptorParseError):
        request_descriptor(backend, PromptRequest(user_text="base prompt"))
    assert len(backend.prompts) == 3  # initial + 2 re-prompts


def test_fuzz_seeded_random_strings_small() -> None:
    rng = random.Random(99)
    alphabet = '{}[]":,\\ abcdef\n\té☃'
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 120)))
        try:
            extract_descriptor(text)
        except DescriptorParseError:
            pass


def test_json_emission_uses_lowercase_keys() -> None:
    descriptor = TopicDescriptor("X", "Y.")
    assert json.loads(descriptor_to_json(descriptor)) == {
        "topic_name": "X",
        "topic_description": "Y.",
    }


# -- span scanners ----------------------------------------------------------------


def _reference_string_aware_spans(text: str, opener: str, closer: str):
    """The original one-character-at-a-time scan, kept as the oracle."""
    depth = 0
    start = -1
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
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


def _reference_brace_only_spans(text: str, opener: str, closer: str):
    depth = 0
    start = -1
    for i, ch in enumerate(text):
        if ch == opener:
            if depth == 0:
                start = i
            depth += 1
        elif ch == closer and depth > 0:
            depth -= 1
            if depth == 0:
                yield (start, i + 1)


def _assert_scanners_match_reference(text: str) -> None:
    for opener, closer in (("{", "}"), ("[", "]")):
        assert list(_spans(text, opener, closer, _STRING_AWARE_STOPS)) == list(
            _reference_string_aware_spans(text, opener, closer)
        )
        assert list(_spans(text, opener, closer, _QUOTE_BLIND_STOPS)) == list(
            _reference_brace_only_spans(text, opener, closer)
        )


# Structural characters plus letters and non-ASCII, with the escape and quote
# pairs that switch string state drawn as single pieces so they come up often.
_scanner_text = st.lists(
    st.sampled_from(list('{}[]":,\\ abZ\n\té☃') + ['\\"', '\\\\', '{"', '"}', '["', '"]']),
    max_size=120,
).map("".join)


@settings(max_examples=500)
@given(_scanner_text)
def test_scanners_match_reference_on_structural_text(text: str) -> None:
    _assert_scanners_match_reference(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\\",
        '{"a": "b\\',
        '{"a": "\\',
        '{"a": "unterminated',
        '{"a": "unterminated} }] more',
        '{"a": "x\\\\"}',
        '{"a": "x\\\\\\"}"}',
        '{"a": "\\\\\\\\\\\\"} tail}',
        '["\\"]", "\\\\"]',
        "}}]] {} [] }{ ][",
        '"{"} "[" ]',
        "{" * 300 + "[" * 300 + "]" * 300 + "}" * 300,
        '{"k": ' * 50 + '"v"' + "}" * 50,
        '{"a": 1} stray " quote {"b": 2}',
        'prose "with {quotes} " then {"x": "y"} and [1, "]", 2]',
    ],
)
def test_scanners_match_reference_on_hand_cases(text: str) -> None:
    _assert_scanners_match_reference(text)


# -- a large contrast-style reply ---------------------------------------------------------

_CONTRAST_DESCRIPTIONS = [
    'Login failures; config blocks like {"retries": 3} belong here.',
    "Billing disputes over [refund] and [chargeback] items.",
    'Shell paths such as C:\\Program Files\\ and "quoted" args.',
    "Unbalanced openers { and [ quoted in tickets.",
    "Unbalanced closers } and ] quoted in tickets.",
    "A trailing backslash \\",
    'Escaped quote runs \\" and \\\\" inside text.',
    'Nested {"topic_name": "Ghost", "topic_description": "inner"} example.',
    'Arrays [{"topic_name": "Shadow", "topic_description": "x"}] inline.',
    "Plain description with no structural characters at all.",
    'Mixed {[}] order and a "quote".',
    "Unicode é ☃ with {braces} and [brackets].",
]
_CONTRAST_REPLY = "\n\n".join(
    json.dumps(
        {
            "topic_name": f"Topic_{i:02d}",
            "topic_description": description + " This is different from the others.",
        },
        ensure_ascii=False,
        indent=1,
    )
    for i, description in enumerate(_CONTRAST_DESCRIPTIONS)
)

# Extracted from this reply by the original per-character scanners.
_CONTRAST_EXPECTED = [
    ("Topic_00", 'Login failures; config blocks like {"retries": 3} belong here. This is different from the others.'),
    ("Topic_01", "Billing disputes over [refund] and [chargeback] items. This is different from the others."),
    ("Topic_02", 'Shell paths such as C:\\Program Files\\ and "quoted" args. This is different from the others.'),
    ("Topic_03", "Unbalanced openers { and [ quoted in tickets. This is different from the others."),
    ("Topic_04", "Unbalanced closers } and ] quoted in tickets. This is different from the others."),
    ("Topic_05", "A trailing backslash \\ This is different from the others."),
    ("Topic_06", 'Escaped quote runs \\" and \\\\" inside text. This is different from the others.'),
    ("Topic_07", 'Nested {"topic_name": "Ghost", "topic_description": "inner"} example. This is different from the others.'),
    ("Topic_08", 'Arrays [{"topic_name": "Shadow", "topic_description": "x"}] inline. This is different from the others.'),
    ("Topic_09", "Plain description with no structural characters at all. This is different from the others."),
    ("Topic_10", 'Mixed {[}] order and a "quote". This is different from the others.'),
    ("Topic_11", "Unicode é ☃ with {braces} and [brackets]. This is different from the others."),
]


@pytest.mark.parametrize(
    "text,expected",
    [
        (_CONTRAST_REPLY, _CONTRAST_EXPECTED),
        ("```json\n" + _CONTRAST_REPLY + "\n```", _CONTRAST_EXPECTED),
        (
            'Here are the 12 rewritten categories ("contrast" pass, {draft}):\n\n'
            + _CONTRAST_REPLY
            + "\n\nNote: the [unknown] item was dropped.",
            _CONTRAST_EXPECTED,
        ),
        # Cut inside the last description: the unterminated string hides it.
        (_CONTRAST_REPLY[:-40], _CONTRAST_EXPECTED[:11]),
    ],
    ids=["bare", "fenced", "prose", "truncated"],
)
def test_set_extraction_pins_large_contrast_reply(text: str, expected) -> None:
    descriptors = extract_descriptor_set(text)
    assert [(d.topic_name, d.topic_description) for d in descriptors] == expected


# -- pinned candidate order -------------------------------------------------------

_A = '{"topic_name": "A", "topic_description": "About a."}'
_B = '{"topic_name": "B", "topic_description": "About b."}'


def _names(text: str) -> list[str]:
    return [d.topic_name for d in extract_descriptor_set(text)]


def test_pin_wrapped_array_is_found_by_its_bracket_span() -> None:
    text = '{"categories": [' + _A + ", " + _B + "]}"
    assert _names(text) == ["A", "B"]
    # The first object found is the wrapper, which is not descriptor-shaped.
    with pytest.raises(DescriptorParseError):
        extract_descriptor(text)


def test_pin_nested_array_item_comes_after_the_top_level_items() -> None:
    # The whole-text parse keeps only the mapping items of the outer array;
    # the nested object is found later, by the object span scan.
    assert _names("[[" + _A + "], " + _B + "]") == ["B", "A"]


def test_pin_array_inside_a_descriptor_is_searched_too() -> None:
    text = '{"topic_name": "X", "topic_description": "About x.", "examples": [' + _B + "]}"
    assert _names(text) == ["X", "B"]


def test_pin_stray_quote_is_rescued_by_the_quote_blind_scan() -> None:
    # The first object holds three quotes, so the string-aware scan reads B's
    # keys as string contents; only the scan that ignores quotes finds B.
    assert _names('{"note": "5"" inches} ' + _B) == ["B"]


def test_pin_fenced_object_wins_over_an_earlier_prose_object() -> None:
    text = 'The shape is {"note": 1}, for example:\n```json\n' + _A + "\n```"
    assert extract_descriptor(text).topic_name == "A"
