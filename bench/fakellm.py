"""Fake chat-completions server: the benchmark's stand-in LLM behind HttpBackend.

Run as a child process; it binds 127.0.0.1 on a free port, prints
``{"port": N}`` as its first stdout line, and exits when its stdin closes.

``POST /v1/chat/completions``
    With ``logprobs`` set, the reply names the candidate that
    ``MockBackend.score_labels`` ranks first (first in prompt order on ties)
    and carries that name's token path with ``top_logprobs``. Without it,
    the reply is ``MockBackend.complete``. Every reply reports ``usage``.
``GET /stats``
    Requests answered, 429 and 5xx counts, and the CPU seconds the handler
    threads spent on them.

Token model: a name splits into tokens at underscores ("Foo_Bar_2" is
"Foo", "_Bar", "_2"). Candidate probabilities are a softmax of the mock
scores; each position's distribution is the probability mass of the
candidates that continue the generated prefix with each token, so a
candidate that is a token prefix of the winner can be realized by the
client's alignment, as with a real model.

Faults: a prompt containing RATE_LIMIT_WORD or SERVER_ERROR_WORD is answered
429 or 503 on its 1st, 3rd, 5th... arrival, so each such request fails once
and succeeds on its retry, on every pass.

Replies are memoized by request body. After a warm-up pass, a repeated
request costs the server a lookup, so the benchmark times the client rather
than the stand-in.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tagcraft import MockBackend, PromptRequest  # noqa: E402

RATE_LIMIT_WORD = "throttlemark"
SERVER_ERROR_WORD = "overloadmark"

# Inverse temperature turning mock overlap scores (0..1) into logits.
SCORE_SCALE = 20.0

_CANDIDATE_LINE = re.compile(r"^- (.+?): (.+)$", re.MULTILINE)
_TOKEN = re.compile(r"_?[^_]+|_")
_NOT_FOUND = b'{"error": {"message": "not found"}}'
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests", 503: "Service Unavailable"}


def token_path(winner: str, probabilities: dict[str, float], top_n: int) -> list[dict]:
    """Logprob entries along the winner's tokens, in the chat-completions
    ``logprobs.content`` format."""
    tokens = {name: _TOKEN.findall(name) for name in probabilities}
    path = tokens[winner]
    live = list(probabilities)
    entries = []
    for position, chosen in enumerate(path):
        mass: dict[str, float] = {}
        total = 0.0
        for name in live:
            p = probabilities[name]
            total += p
            if len(tokens[name]) > position:
                token = tokens[name][position]
                mass[token] = mass.get(token, 0.0) + p
        ranked = sorted(mass.items(), key=lambda item: -item[1])[:top_n]
        entries.append(
            {
                "token": chosen,
                "logprob": math.log(mass[chosen] / total),
                "top_logprobs": [
                    {"token": token, "logprob": math.log(p / total)} for token, p in ranked
                ],
            }
        )
        live = [n for n in live if len(tokens[n]) > position and tokens[n][position] == chosen]
    return entries


class FakeLLM:
    def __init__(self) -> None:
        self.mock = MockBackend()
        self.lock = threading.Lock()
        self.arrivals: dict[bytes, int] = {}
        self.replies: dict[bytes, bytes] = {}
        self.stats = {"requests": 0, "status_429": 0, "status_5xx": 0, "busy_s": 0.0}

    def respond(self, body: bytes) -> tuple[int, bytes]:
        key = hashlib.sha256(body).digest()
        status = self.fault(key, body)
        if status is not None:
            return status, json.dumps({"error": {"message": "injected fault", "code": status}}).encode()
        reply = self.replies.get(key)
        if reply is not None:
            return 200, reply
        try:
            data = self.answer(json.loads(body))
        except (ValueError, KeyError, IndexError, TypeError) as err:
            return 400, json.dumps({"error": {"message": f"bad request: {err}"}}).encode()
        reply = json.dumps(data).encode()
        with self.lock:
            self.replies[key] = reply
        return 200, reply

    def fault(self, key: bytes, body: bytes) -> int | None:
        if RATE_LIMIT_WORD.encode() in body:
            status = 429
        elif SERVER_ERROR_WORD.encode() in body:
            status = 503
        else:
            return None
        with self.lock:
            count = self.arrivals.get(key, 0)
            self.arrivals[key] = count + 1
        return status if count % 2 == 0 else None

    def answer(self, payload: dict) -> dict:
        prompt = payload["messages"][-1]["content"]
        request = PromptRequest(user_text=prompt)
        if payload.get("logprobs"):
            names = [m.group(1) for m in _CANDIDATE_LINE.finditer(prompt)]
            if not names:
                raise ValueError("no candidate lines in prompt")
            scores = self.mock.score_labels(request, names).scores
            winner = max(enumerate(names), key=lambda item: (scores[item[1]], -item[0]))[1]
            top = max(scores.values())
            weights = {n: math.exp(SCORE_SCALE * (scores[n] - top)) for n in names}
            norm = sum(weights.values())
            probabilities = {n: w / norm for n, w in weights.items()}
            entries = token_path(winner, probabilities, int(payload.get("top_logprobs") or 1))
            content, logprobs = winner, {"content": entries}
        else:
            content, logprobs = self.mock.complete(request), None
        completion_tokens = max(1, len(content) // 4)
        prompt_tokens = max(1, len(prompt) // 4)
        choice = {"index": 0, "message": {"role": "assistant", "content": content}, "finish_reason": "stop"}
        if logprobs is not None:
            choice["logprobs"] = logprobs
        return {
            "id": "fake-" + hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16],
            "object": "chat.completion",
            "model": payload.get("model", "fake"),
            "choices": [choice],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": completion_tokens,
                "total_tokens": prompt_tokens + completion_tokens,
            },
        }

    def record(self, status: int, seconds: float) -> None:
        with self.lock:
            self.stats["requests"] += 1
            self.stats["busy_s"] += seconds
            if status == 429:
                self.stats["status_429"] += 1
            elif status >= 500:
                self.stats["status_5xx"] += 1


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    llm: FakeLLM

    def log_message(self, format, *args) -> None:  # noqa: A002 - base-class signature
        pass

    def _send(self, status: int, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        # Headers and body in one write: split writes meet Nagle's algorithm
        # and delayed ACKs, and the benchmark would time TCP instead of tagcraft.
        self.wfile.write(head + body)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if self.path != "/stats":
            self._send(404, _NOT_FOUND)
            return
        with self.llm.lock:
            stats = dict(self.llm.stats)
        self._send(200, json.dumps(stats).encode())

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        started = time.thread_time()
        if self.path != "/v1/chat/completions":
            self._send(404, _NOT_FOUND)
            return
        status, body = self.llm.respond(self.rfile.read(int(self.headers.get("Content-Length", "0"))))
        self._send(status, body)
        self.llm.record(status, time.thread_time() - started)


def main() -> None:
    Handler.llm = FakeLLM()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    # The parent holds stdin open; end of input, also when the parent dies
    # without stopping us, shuts the server down.
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
