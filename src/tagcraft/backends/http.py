"""Chat-completions HTTP backend with bounded retry and logprob label scoring."""

from __future__ import annotations

import contextlib
import http.client
import json
import logging
import math
import os
import queue
import re
import select
import ssl
import time
import urllib.parse
from typing import Sequence

from .. import __version__
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

# Attempts after the first for a 429, a 5xx, a transport failure or a
# malformed reply; attempt n waits BACKOFF_BASE_S * 2 ** (n - 1) seconds.
MAX_RETRIES = 3
BACKOFF_BASE_S = 0.5
# Longest wait a numeric Retry-After header on a 429 or 503 may ask for.
RETRY_AFTER_MAX_S = 30.0
# Alternatives asked for at each generated position when scoring labels.
TOP_LOGPROBS = 20


class HttpBackend(Backend):
    """Client for a chat-completions endpoint (``POST {base_url}/v1/chat/completions``).

    Retries RateLimited and TransportError with bounded exponential backoff
    (MAX_RETRIES additional attempts), or after the numeric ``Retry-After``
    of a 429 or 503; 4xx rejections are never retried.

    Requests go out over ``max_concurrency`` slots, each a kept-alive
    connection or None. A request waits for a free slot and gives it back
    when the reply is read, so from any number of threads at most
    ``max_concurrency`` requests are open, none on a shared connection, and
    no retry's backoff holds a slot.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = 60.0,
        max_concurrency: int = 4,
    ):
        self.base_url = (base_url or os.environ.get(ENV_BASE_URL, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY, "")
        self.model = model or os.environ.get(ENV_MODEL, "")
        if not self.base_url:
            raise ValueError(f"no base URL configured (set {ENV_BASE_URL})")
        if not self.model:
            raise ValueError(f"no model configured (set {ENV_MODEL})")
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        url = urllib.parse.urlsplit(self.base_url)
        # Credentials, a query or a fragment would be dropped from every request.
        extras = url.username is not None or url.query or url.fragment
        if url.scheme not in ("http", "https") or not url.hostname or extras:
            raise ValueError(f"base URL must be http(s)://host[:port][/path], got {self.base_url!r}")
        self._host, self._port = url.hostname, url.port  # .port rejects a bad port
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._path = f"{url.path}/v1/chat/completions"
        self._url = f"{self.base_url}/v1/chat/completions"
        self._headers = {"Content-Type": "application/json", "User-Agent": f"tagcraft/{__version__}"}
        if self.api_key:
            self._headers["Authorization"] = f"Bearer {self.api_key}"
        self.timeout = timeout
        self._capabilities = BackendCapabilities(model_id=self.model, max_concurrency=max_concurrency)
        self._slots: queue.LifoQueue[http.client.HTTPConnection | None] = queue.LifoQueue()
        for _ in range(max_concurrency):
            self._slots.put(None)

    def capabilities(self) -> BackendCapabilities:
        return self._capabilities

    def close(self) -> None:
        """Close the free slots' connections without waiting for requests in
        flight, which keep theirs; the backend stays usable."""
        free = []
        with contextlib.suppress(queue.Empty):
            while True:
                free.append(self._slots.get_nowait())
        for connection in free:
            if connection is not None:
                connection.close()
            self._slots.put(None)

    # -- transport ----------------------------------------------------------

    def _payload(self, request: PromptRequest, want_logprobs: bool) -> dict:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.user_text}],
            "temperature": 0.0,
            "max_tokens": request.max_output_tokens,
        }
        if want_logprobs:
            payload["logprobs"] = True
            payload["top_logprobs"] = TOP_LOGPROBS
        return payload

    def _send(self, body: bytes) -> tuple[int, str | None, bytes]:
        """One POST over a free slot's connection, or a new one if it has none
        or the server closed it; returns the status, the Retry-After header
        and the body. The slot keeps the connection only if the reply did."""
        connection = self._slots.get()
        kept = None
        try:
            if connection is None or _closed_by_server(connection):
                if connection is not None:
                    connection.close()
                connection = self._new_connection()
            connection.request("POST", self._path, body, self._headers)
            response = connection.getresponse()
            data = response.read()
            if not response.will_close:
                kept = connection
        finally:
            if kept is None and connection is not None:
                connection.close()
            self._slots.put(kept)
        return response.status, response.getheader("Retry-After"), data

    def _new_connection(self) -> http.client.HTTPConnection:
        if self._tls is None:
            return http.client.HTTPConnection(self._host, self._port, timeout=self.timeout)
        return http.client.HTTPSConnection(
            self._host, self._port, timeout=self.timeout, context=self._tls
        )

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        last_error: Exception | None = None
        delay: float | None = None  # set by a Retry-After header
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(BACKOFF_BASE_S * (2 ** (attempt - 1)) if delay is None else delay)
            delay = None
            try:
                status, retry_after, data = self._send(body)
            except (OSError, http.client.HTTPException) as err:
                last_error = TransportError(f"request to {self._url} failed: {err}")
                logger.warning("transport failure (attempt %d): %s", attempt + 1, err)
                continue
            if status in (429, 503):
                delay = _retry_after_s(retry_after)
            if status == 429:
                last_error = RateLimitedError(f"rate limited by {self._url}")
                logger.warning("rate limited (attempt %d)", attempt + 1)
                continue
            if 400 <= status < 500:
                text = data.decode("utf-8", errors="replace")
                raise BackendRejectedError(f"backend rejected request ({status}): {text[:500]}")
            if status >= 500:
                last_error = TransportError(f"server error {status} from {self._url}")
                continue
            try:
                return json.loads(data)
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
            table = _option_table(entries)
            scores: dict[str, float] = {}
            realized = 0
            for name in names:
                logprob = _align_logprob(name, table)
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


def _closed_by_server(connection: http.client.HTTPConnection) -> bool:
    """Whether a kept connection is readable while no request is out, which
    means the server closed it (or sent bytes nobody asked for). The same
    zero-timeout check urllib3 makes before reuse."""
    sock = connection.sock
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _retry_after_s(header: str | None) -> float | None:
    """The wait a numeric Retry-After header asks for, capped at
    RETRY_AFTER_MAX_S; None when the header is absent or not a number."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return None
    return min(seconds, RETRY_AFTER_MAX_S) if seconds >= 0 else None


OptionTable = list[dict[str, list[tuple[str, float]]]]


def _option_table(entries: list) -> OptionTable:
    """Each position's valid ``(text, logprob)`` options, grouped by the first
    character of their text: the generated token, then its ``top_logprobs``,
    in that order inside each group. Position-0 texts are left-stripped and
    empty texts dropped; an entry or alternative that is not an object offers
    nothing.
    """
    table = []
    for position, entry in enumerate(entries):
        items = [entry] if isinstance(entry, dict) else []
        alternatives = entry.get("top_logprobs") if items else None
        if isinstance(alternatives, list):
            items.extend(alternatives)
        options: dict[str, list[tuple[str, float]]] = {}
        for item in items:
            if not isinstance(item, dict):
                continue
            token, logprob = item.get("token"), item.get("logprob")
            if not isinstance(token, str) or not isinstance(logprob, (int, float)):
                continue
            text = token.lstrip() if position == 0 else token
            if text:
                options.setdefault(text[0], []).append((text, float(logprob)))
        table.append(options)
    return table


def _align_logprob(candidate: str, table: OptionTable) -> float | None:
    """Score ``candidate`` against one reply's option table: at each position
    take the option with the highest logprob that continues the name (the
    first in entry order on a tie), and return the mean of those logprobs over
    the positions used. The last option may overshoot the name's end (e.g.
    trailing punctuation). Returns None when the candidate cannot be realized.

    An option continues the name only if it starts with the same character
    as the rest of the name, so each position reads one group of the table.
    """
    remaining = candidate
    total = 0.0
    used = 0
    for options in table:
        if not remaining:
            break
        best: float | None = None
        cut = 0
        for text, logprob in options.get(remaining[0], ()):
            if remaining.startswith(text):
                consumed = len(text)
            elif text.startswith(remaining):
                consumed = len(remaining)  # overshoots the name end
            else:
                continue
            if best is None or logprob > best:
                best, cut = logprob, consumed
        if best is None:
            return None
        total += best
        used += 1
        remaining = remaining[cut:]
    if remaining or used == 0:
        return None
    return total / used


def _fallback_scores(text: str, names: list[str]) -> ScoreMap:
    """Score by matching the completion text against candidate names: the
    matched candidate gets 0.0, all others the negative sentinel.

    First the whole completion must equal one name up to normalization,
    after dropping trailing whitespace and punctuation one character at a
    time ("X_2." names X_2, "C++." still names C++). Otherwise a name counts
    as mentioned where it stands between non-alphanumeric characters (so
    "art" is not mentioned in "party"); names are tried longest first, and a
    mention inside a longer name's mention is dropped ("X_2" does not also
    mention X). Exactly one mentioned name wins.
    """
    if not text or not text.strip():
        raise FallbackParseError("completion was empty; cannot match a candidate")
    by_key = {name_key(n): n for n in names}
    stem = text.strip()
    while stem:
        winner = by_key.get(name_key(stem))
        if winner is not None:
            return _fallback_map(names, winner, "exact")
        if stem[-1].isalnum():
            break
        stem = stem[:-1].rstrip()
    completion_key = name_key(text)
    taken: list[tuple[int, int]] = []
    mentioned = []
    for key in sorted(by_key, key=len, reverse=True):
        spans = [
            match.span()
            for match in re.finditer(rf"(?<![^\W_]){re.escape(key)}(?![^\W_])", completion_key)
            if not any(start <= match.start() and match.end() <= end for start, end in taken)
        ]
        if spans:
            mentioned.append(by_key[key])
            taken.extend(spans)
    if len(mentioned) == 1:
        return _fallback_map(names, mentioned[0], "substring")
    if mentioned:
        raise FallbackParseError(
            f"completion mentioned {len(mentioned)} candidates; cannot disambiguate"
        )
    raise FallbackParseError("completion matched no candidate name")


def _fallback_map(names: list[str], winner: str, detail: str) -> ScoreMap:
    scores = {n: (0.0 if n == winner else NEG_SENTINEL) for n in names}
    return ScoreMap(scores=scores, path=ScoringPath.FALLBACK_COMPLETION, detail=detail)
