"""Chat-completions HTTP backend with bounded retry and logprob label scoring."""

from __future__ import annotations

import logging
import os
import time
from typing import Sequence

import requests

from ..errors import (
    BackendRejectedError,
    FallbackParseError,
    RateLimitedError,
    TransportError,
)
from ..model import name_key
from .base import (
    NEG_SENTINEL,
    Backend,
    BackendCapabilities,
    PromptRequest,
    ScoreMap,
    ScoringPath,
    check_candidates,
)

logger = logging.getLogger(__name__)

ENV_BASE_URL = "LLM_BASE_URL"
ENV_API_KEY = "LLM_API_KEY"
ENV_MODEL = "LLM_MODEL"


class HttpBackend(Backend):
    """Client for a chat-completions endpoint (``POST {base_url}/v1/chat/completions``).

    Retries RateLimited and TransportError with bounded exponential backoff
    (max_retries additional attempts); 4xx rejections are never retried.
    ``max_concurrency`` is reported through capabilities(); the stages that
    fan calls out keep at most that many in flight.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        max_concurrency: int = 4,
        top_logprobs: int = 20,
        session: requests.Session | None = None,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.base_url:
            raise ValueError(f"no base URL configured (set {ENV_BASE_URL})")
        if not self.model:
            raise ValueError(f"no model configured (set {ENV_MODEL})")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.top_logprobs = top_logprobs
        self._capabilities = BackendCapabilities(
            supports_label_scoring=True, model_id=self.model, max_concurrency=max_concurrency
        )
        self._session = session or requests.Session()

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    # -- transport ----------------------------------------------------------

    def _payload(self, request: PromptRequest, want_logprobs: bool) -> dict:
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        messages.append({"role": "user", "content": request.user_text})
        payload = {
            "model": self.model,
            "messages": messages,
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        if want_logprobs:
            payload["logprobs"] = True
            payload["top_logprobs"] = self.top_logprobs
        return payload

    def _post(self, payload: dict) -> dict:
        url = f"{self.base_url}/v1/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                response = self._session.post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as err:
                last_error = TransportError(f"request to {url} failed: {err}")
                logger.warning("transport failure (attempt %d): %s", attempt + 1, err)
                continue
            if response.status_code == 429:
                last_error = RateLimitedError(f"rate limited by {url}")
                logger.warning("rate limited (attempt %d)", attempt + 1)
                continue
            if 400 <= response.status_code < 500:
                raise BackendRejectedError(
                    f"backend rejected request ({response.status_code}): {response.text[:500]}"
                )
            if response.status_code >= 500:
                last_error = TransportError(
                    f"server error {response.status_code} from {url}"
                )
                continue
            try:
                return response.json()
            except ValueError as err:
                last_error = TransportError(f"malformed JSON response: {err}")
                continue
        assert last_error is not None
        raise last_error

    # -- operations ----------------------------------------------------------

    def complete(self, request: PromptRequest) -> str:
        data = self._post(self._payload(request, want_logprobs=False))
        return self._message_content(data)

    def score_labels(self, request: PromptRequest, candidates: Sequence[str]) -> ScoreMap:
        names = check_candidates(candidates)
        data = self._post(self._payload(request, want_logprobs=True))
        entries = self._logprob_entries(data)
        if entries:
            scores: dict[str, float] = {}
            realized = 0
            for name in names:
                logprob = _align_logprob(name, entries)
                if logprob is None:
                    scores[name] = NEG_SENTINEL
                else:
                    scores[name] = logprob
                    realized += 1
            if realized:
                return ScoreMap(scores=scores, path=ScoringPath.LOG_PROB)
        return _fallback_scores(self._message_content(data), names)

    @staticmethod
    def _message_content(data: dict) -> str:
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise TransportError(f"malformed completion response: {err}") from err
        if not isinstance(content, str):
            raise TransportError("completion content is not text")
        return content

    @staticmethod
    def _logprob_entries(data: dict) -> list[dict]:
        try:
            entries = data["choices"][0]["logprobs"]["content"]
        except (KeyError, IndexError, TypeError):
            return []
        return entries if isinstance(entries, list) else []


def _align_logprob(candidate: str, entries: list[dict]) -> float | None:
    """Length-normalized sum of token log-probabilities along the generated
    token path that spells out ``candidate``, using top_logprobs alternatives
    at each position. Returns None when the candidate cannot be realized.
    """
    remaining = candidate
    total = 0.0
    used = 0
    for entry in entries:
        if not remaining:
            break
        options = [(entry.get("token"), entry.get("logprob"))]
        for alt in entry.get("top_logprobs") or []:
            options.append((alt.get("token"), alt.get("logprob")))
        best: tuple[str, float] | None = None
        for token, logprob in options:
            if not isinstance(token, str) or not isinstance(logprob, (int, float)):
                continue
            text = token.lstrip() if used == 0 else token
            if not text:
                continue
            consumed = None
            if remaining.startswith(text):
                consumed = text
            elif text.startswith(remaining):
                # Token overshoots the name end (e.g. trailing punctuation).
                consumed = remaining
            if consumed is not None and (best is None or logprob > best[1]):
                best = (consumed, float(logprob))
        if best is None:
            return None
        total += best[1]
        used += 1
        remaining = remaining[len(best[0]):]
    if remaining or used == 0:
        return None
    return total / used


def _fallback_scores(text: str, names: list[str]) -> ScoreMap:
    """Score by matching the completion text against candidate names: the
    matched candidate gets 0.0, all others the negative sentinel.
    """
    if not text or not text.strip():
        raise FallbackParseError("completion was empty; cannot match a candidate")
    completion_key = name_key(text)
    exact = [n for n in names if name_key(n) == completion_key]
    if len(exact) == 1:
        return _fallback_map(names, exact[0], "exact")
    contained = [n for n in names if name_key(n) in completion_key]
    if len(contained) == 1:
        return _fallback_map(names, contained[0], "substring")
    if len(contained) > 1:
        raise FallbackParseError(
            f"completion mentioned {len(contained)} candidates; cannot disambiguate"
        )
    raise FallbackParseError("completion matched no candidate name")


def _fallback_map(names: list[str], winner: str, detail: str) -> ScoreMap:
    scores = {n: (0.0 if n == winner else NEG_SENTINEL) for n in names}
    return ScoreMap(scores=scores, path=ScoringPath.FALLBACK_COMPLETION, detail=detail)
