from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import make_taxonomy
from tagcraft import Document, PromptRequest, ScoringPath, classify_batch
from tagcraft.backends.base import NEG_SENTINEL
from tagcraft.backends.http import HttpBackend, _align_logprob, _fallback_scores
from tagcraft.errors import (
    BackendRejectedError,
    FallbackParseError,
    RateLimitedError,
    TransportError,
)


class _Script(BaseHTTPRequestHandler):
    """Serves a scripted list of (status, payload) responses."""

    responses: list[tuple[int, dict | str]] = []
    requests_seen: list[dict] = []

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append(body)
        status, payload = self.responses[min(len(self.requests_seen) - 1, len(self.responses) - 1)]
        data = payload if isinstance(payload, str) else json.dumps(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(data.encode("utf-8"))

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture
def scripted_server():
    handlers: list[type[_Script]] = []

    def start(responses: list[tuple[int, dict | str]], base: type[_Script] = _Script) -> str:
        handler = type("Handler", (base,), {"responses": responses, "requests_seen": []})
        handlers.append(handler)
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        start.servers.append(server)
        handler.server = server
        return f"http://127.0.0.1:{server.server_port}"

    start.servers = []
    start.handlers = handlers
    yield start
    for server in start.servers:
        server.shutdown()
        server.server_close()


def _completion(text: str, logprobs: list[dict] | None = None) -> dict:
    choice: dict = {"message": {"role": "assistant", "content": text}}
    if logprobs is not None:
        choice["logprobs"] = {"content": logprobs}
    return {"choices": [choice]}


def _backend(base_url: str, **kwargs) -> HttpBackend:
    kwargs.setdefault("backoff_base", 0.01)
    return HttpBackend(base_url=base_url, api_key="key", model="test-model", **kwargs)


def test_unreachable_host_is_transport_failure() -> None:
    backend = _backend("http://127.0.0.1:9", max_retries=0, timeout=0.5)
    with pytest.raises(TransportError):
        backend.complete(PromptRequest(user_text="hello"))


def test_complete_returns_message_content(scripted_server) -> None:
    base = scripted_server([(200, _completion("All good."))])
    backend = _backend(base)
    assert backend.complete(PromptRequest(user_text="hello")) == "All good."


def test_rate_limited_retries_then_succeeds(scripted_server) -> None:
    base = scripted_server([(429, {}), (429, {}), (200, _completion("late reply"))])
    backend = _backend(base, max_retries=3)
    assert backend.complete(PromptRequest(user_text="hello")) == "late reply"
    assert len(scripted_server.handlers[0].requests_seen) == 3


def test_rate_limited_exhausts_retries(scripted_server) -> None:
    base = scripted_server([(429, {})])
    backend = _backend(base, max_retries=2)
    with pytest.raises(RateLimitedError):
        backend.complete(PromptRequest(user_text="hello"))
    assert len(scripted_server.handlers[0].requests_seen) == 3  # 1 + 2 retries


def test_backend_rejected_is_never_retried(scripted_server) -> None:
    base = scripted_server([(400, {"error": "bad request"})])
    backend = _backend(base, max_retries=3)
    with pytest.raises(BackendRejectedError):
        backend.complete(PromptRequest(user_text="hello"))
    assert len(scripted_server.handlers[0].requests_seen) == 1


def test_server_error_is_retried_as_transport(scripted_server) -> None:
    base = scripted_server([(500, {}), (200, _completion("recovered"))])
    backend = _backend(base, max_retries=1)
    assert backend.complete(PromptRequest(user_text="hello")) == "recovered"


def test_bearer_auth_and_payload_fields(scripted_server) -> None:
    base = scripted_server([(200, _completion("ok"))])
    backend = _backend(base)
    backend.complete(PromptRequest(user_text="hello", system_text="sys", max_output_tokens=77))
    seen = scripted_server.handlers[0].requests_seen[0]
    assert seen["model"] == "test-model"
    assert seen["messages"][0] == {"role": "system", "content": "sys"}
    assert seen["messages"][1] == {"role": "user", "content": "hello"}
    assert seen["max_tokens"] == 77
    assert seen["temperature"] == 0.0


def test_score_labels_uses_logprobs_when_available(scripted_server) -> None:
    entries = [
        {
            "token": "Sports",
            "logprob": -0.1,
            "top_logprobs": [
                {"token": "Sports", "logprob": -0.1},
                {"token": "Business", "logprob": -2.5},
            ],
        }
    ]
    base = scripted_server([(200, _completion("Sports", entries))])
    backend = _backend(base)
    scores = backend.score_labels(PromptRequest(user_text="doc"), ["Sports", "Business"])
    assert scores.path is ScoringPath.LOG_PROB
    assert scores.scores["Sports"] == pytest.approx(-0.1)
    assert scores.scores["Business"] == pytest.approx(-2.5)
    # logprobs requested in the payload
    seen = scripted_server.handlers[0].requests_seen[0]
    assert seen["logprobs"] is True and seen["top_logprobs"] == 20


def test_score_labels_falls_back_to_exact_match(scripted_server) -> None:
    base = scripted_server([(200, _completion("Business"))])
    backend = _backend(base)
    scores = backend.score_labels(PromptRequest(user_text="doc"), ["Sports", "Business"])
    assert scores.path is ScoringPath.FALLBACK_COMPLETION
    assert scores.detail == "exact"
    assert scores.scores["Business"] == 0.0
    assert scores.scores["Sports"] == NEG_SENTINEL


def test_score_labels_fallback_substring_match(scripted_server) -> None:
    base = scripted_server([(200, _completion("The best fit is Business."))])
    backend = _backend(base)
    scores = backend.score_labels(PromptRequest(user_text="doc"), ["Sports", "Business"])
    assert scores.detail == "substring"
    assert scores.scores["Business"] == 0.0


def test_score_labels_fallback_no_match_raises(scripted_server) -> None:
    base = scripted_server([(200, _completion("I have no idea."))])
    backend = _backend(base)
    with pytest.raises(FallbackParseError):
        backend.score_labels(PromptRequest(user_text="doc"), ["Sports", "Business"])


@pytest.mark.parametrize("value", [0, -1])
def test_max_concurrency_below_one_is_rejected(value) -> None:
    with pytest.raises(ValueError):
        _backend("http://127.0.0.1:9", max_concurrency=value)


def test_max_concurrency_is_reported_in_capabilities() -> None:
    assert _backend("http://127.0.0.1:9", max_concurrency=3).capabilities().max_concurrency == 3


class _InFlight(_Script):
    """Counts the requests it is handling at once; a request leaves the count
    before its response is sent, so the peak never exceeds the client's."""

    lock = threading.Lock()
    level = 0
    peak = 0

    def do_POST(self):  # noqa: N802 (http.server API)
        cls = type(self)
        with cls.lock:
            cls.level += 1
            cls.peak = max(cls.peak, cls.level)
        time.sleep(0.02)
        with cls.lock:
            cls.level -= 1
        super().do_POST()


def test_classify_batch_keeps_http_requests_within_max_concurrency(scripted_server) -> None:
    base = scripted_server([(200, _completion("Alpha"))], base=_InFlight)
    taxonomy = make_taxonomy([("Alpha", "a"), ("Beta", "b")])
    docs = [Document(id=str(i), text=f"document {i}") for i in range(8)]
    results = classify_batch(docs, taxonomy, _backend(base, max_concurrency=2))
    assert [r.predicted for r in results] == ["Alpha"] * 8
    assert 1 < scripted_server.handlers[0].peak <= 2


def test_missing_configuration_rejected(monkeypatch) -> None:
    monkeypatch.delenv("LLM_BASE_URL", raising=False)
    monkeypatch.delenv("LLM_MODEL", raising=False)
    with pytest.raises(ValueError):
        HttpBackend()


# -- logprob alignment ----------------------------------------------------------


def _entry(token: str, logprob: float, alts: list[tuple[str, float]] = ()) -> dict:
    return {
        "token": token,
        "logprob": logprob,
        "top_logprobs": [{"token": t, "logprob": lp} for t, lp in alts],
    }


def test_align_multi_token_candidate_is_length_normalized() -> None:
    entries = [
        _entry("Net", -0.5, [("Net", -0.5), ("Busi", -3.0)]),
        _entry("work", -1.0, [("work", -1.0)]),
    ]
    assert _align_logprob("Network", entries) == pytest.approx((-0.5 + -1.0) / 2)


def test_align_uses_alternatives_for_non_generated_candidate() -> None:
    entries = [
        _entry("Sports", -0.2, [("Sports", -0.2), ("Business", -4.0)]),
    ]
    assert _align_logprob("Business", entries) == pytest.approx(-4.0)


def test_align_allows_leading_space_and_trailing_overshoot() -> None:
    entries = [
        _entry(" Spo", -0.3),
        _entry("rts.", -0.7),
    ]
    assert _align_logprob("Sports", entries) == pytest.approx((-0.3 - 0.7) / 2)


def test_align_unrealizable_candidate_is_none() -> None:
    entries = [_entry("Sports", -0.1)]
    assert _align_logprob("Business", entries) is None


def test_fallback_ambiguous_mentions_raise() -> None:
    with pytest.raises(FallbackParseError):
        _fallback_scores("Sports or Business", ["Sports", "Business"])


def test_fallback_matches_up_to_normalization() -> None:
    scores = _fallback_scores("  sci/TECH \n", ["World", "Sci/Tech"])
    assert scores.scores["Sci/Tech"] == 0.0
    assert scores.scores["World"] == NEG_SENTINEL
    assert scores.detail == "exact"
