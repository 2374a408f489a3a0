"""Backend abstraction: free-text completion plus per-candidate label scoring."""

from __future__ import annotations

import abc
import enum
import functools
from dataclasses import dataclass
from typing import Sequence

from ..model import name_key

# Finite stand-in for "impossible" in fallback scoring (scores must stay finite).
NEG_SENTINEL = -1.0e9


class ScoringPath(str, enum.Enum):
    """How a ScoreMap was produced, kept for auditability."""

    LOG_PROB = "logprob"
    FALLBACK_COMPLETION = "fallback_completion"
    MOCK = "mock"


@dataclass(frozen=True)
class PromptRequest:
    user_text: str
    max_output_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.user_text or not self.user_text.strip():
            raise ValueError("user_text must be non-empty")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be positive")


@dataclass(frozen=True)
class ScoreMap:
    """One finite score per requested candidate; higher means more likely.

    ``detail`` records the fallback match method when scoring went through
    a plain completion: "exact" (the whole reply) or "substring" (one name
    mentioned on word boundaries).
    """

    scores: dict[str, float]
    path: ScoringPath
    detail: str | None = None


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do. ``max_concurrency`` is the most calls the
    endpoint takes at once: HttpBackend never has more open, from any thread,
    and each stage that fans calls out keeps at most that many in flight.
    """

    model_id: str
    max_concurrency: int = 4

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be at least 1, got {self.max_concurrency}")


class Backend(abc.ABC):
    """An instruction-following LLM client.

    Implementations must be safe to share across concurrent callers; each
    call is independent and stateless.
    """

    @abc.abstractmethod
    def complete(self, request: PromptRequest) -> str:
        """Return the raw completion text for the request; no parsing."""

    @abc.abstractmethod
    def score_labels(self, request: PromptRequest, candidates: Sequence[str]) -> ScoreMap:
        """Return exactly one finite score per candidate name."""

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        ...


def check_candidates(candidates: Sequence[str]) -> list[str]:
    """Validate a candidate list: non-empty, names unique case-insensitively.
    Returns a new list on every call.
    """
    names = tuple(candidates)
    _check_names(names)
    return list(names)


@functools.lru_cache(maxsize=16)
def _check_names(names: tuple[str, ...]) -> None:
    """check_candidates() for one tuple of names; a batch scores every
    document against the same tuple, so it is checked once. A failed check
    raises and is not cached."""
    if not names:
        raise ValueError("score_labels requires at least one candidate")
    if len({name_key(name) for name in names}) != len(names):
        raise ValueError("candidate names must be unique (case-insensitively)")
