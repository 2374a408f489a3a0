"""Prompt templates for every pipeline stage, plus rendering helpers.

Templates ship as versioned text resources under ``tagcraft/templates`` and
can be overridden per-template by dropping a file with the same name into a
templates directory (``{placeholder}`` syntax, ``{{``/``}}`` for literal
braces) chosen once per process with use_templates(). Rendering is a pure
function of (template, bindings) under that setting.
"""

from __future__ import annotations

import enum
import string
from functools import lru_cache
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Mapping

from .backends.base import PromptRequest
from .errors import UnboundPlaceholderError
from .fileio import read_text

# Characters of one rendered sample line before truncation.
SAMPLE_CHAR_BUDGET = 500


class TemplateId(enum.Enum):
    """One id per pipeline prompt; the value is the resource file stem."""

    TAG_GENERATION = "tag_generation"
    CONTRAST = "contrast"
    INTER_CLASS_ADAPT = "inter_class_adapt"
    MISCLASS_REFINE = "misclass_refine"
    CLASSIFY = "classify"


# Generous completion budgets per stage; classification only needs to emit a
# single category name. Every prompt is sent at temperature 0.
MAX_OUTPUT_TOKENS = {
    TemplateId.TAG_GENERATION: 512,
    TemplateId.CONTRAST: 2048,
    TemplateId.INTER_CLASS_ADAPT: 512,
    TemplateId.MISCLASS_REFINE: 512,
    TemplateId.CLASSIFY: 32,
}


# The override directory set by use_templates(); None means the shipped ones.
_templates_dir: Path | None = None


def use_templates(directory: str | Path | None) -> None:
    """Read templates from ``directory`` from now on, for the whole process;
    a template with no file there keeps its shipped text. None restores the
    shipped templates. Set it before a run, not while stages render. A path
    that is not a directory raises NotADirectoryError and changes nothing.
    """
    global _templates_dir
    path = Path(directory) if directory else None
    if path is not None and not path.is_dir():
        raise NotADirectoryError(f"template directory {str(path)!r} is not a directory")
    _templates_dir = path
    _template_text.cache_clear()


@lru_cache(maxsize=None)
def _template_text(template: TemplateId) -> str:
    if _templates_dir is not None:
        override = _templates_dir / f"{template.value}.txt"
        if override.is_file():
            return read_text(override, "template")
    resource = files("tagcraft").joinpath("templates", f"{template.value}.txt")
    return resource.read_text(encoding="utf-8")


class _Strict(dict):
    def __missing__(self, key: str):
        raise UnboundPlaceholderError(key)


def render(template: TemplateId, bindings: Mapping[str, str]) -> PromptRequest:
    """Substitute bindings into the template and wrap the result in a
    PromptRequest. Unused bindings are ignored; an unbound placeholder
    raises UnboundPlaceholderError.
    """
    text = _template_text(template)
    try:
        rendered = string.Formatter().vformat(text, (), _Strict(bindings))
    except IndexError as err:
        raise UnboundPlaceholderError(str(err)) from err
    return PromptRequest(
        user_text=rendered.strip() + "\n", max_output_tokens=MAX_OUTPUT_TOKENS[template]
    )


def format_sample_block(texts: Iterable[str]) -> str:
    """Render sample documents one per line ("- <text>"), squashing internal
    newlines and truncating each to SAMPLE_CHAR_BUDGET characters. Empty
    input renders as "(none)".
    """
    lines = [f"- {' '.join(text.split())[:SAMPLE_CHAR_BUDGET]}" for text in texts]
    return "\n".join(lines) if lines else "(none)"
