"""post_json over the real standard-library transport, against a threaded HTTP server on loopback."""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import kgrag.remote as remote_mod
from kgrag.embedding import ProviderConfig, RemoteEmbedder
from kgrag.evaluation import RemoteJudge
from kgrag.exceptions import ProviderError
from kgrag.extraction import RemoteExtractor
from kgrag.remote import ChatClient, post_json
from kgrag.retriever import RemoteGenerator

from helpers import FakePost, FakeResponse, chat_payload


class _Handler(BaseHTTPRequestHandler):
    """Records each POST on the server and answers with ``server.respond(body)``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append({"path": self.path, "headers": self.headers, "body": body})
        status, headers, reply = self.server.respond(body)
        self.send_response(status)
        for name, value in {**headers, "Content-Length": str(len(reply))}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, format, *args):  # keep the test output clean
        pass


def scripted(*replies):
    """A ``respond`` that gives the (status, headers, body) replies in order, one per request."""
    queue = list(replies)
    return lambda body: queue.pop(0)


@pytest.fixture(autouse=True)
def loopback_only(monkeypatch):
    """Keep every call straight to loopback, past any proxy the environment names, and keyless."""
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.setenv(name, "*")
    monkeypatch.delenv(remote_mod.API_KEY_ENV, raising=False)


@pytest.fixture
def sleeps(monkeypatch):
    waits: list[float] = []
    monkeypatch.setattr(remote_mod.time, "sleep", waits.append)
    return waits


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.received = []
    httpd.url = f"http://127.0.0.1:{httpd.server_port}/v1/embeddings"
    # A short poll interval: shutdown waits for the loop's next poll.
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "url",
    [
        "not-a-url",
        "ftp://x/y",
        "http://",
        "http://127.0.0.1:99999/v1",  # port out of range
        "http://127.0.0.1:port/v1",
        "http://[::1/v1",  # unclosed IPv6 bracket
        "http://127.0.0.1/v1 /chat",  # http.client refuses spaces and control characters
        "http://127.0.0.1/v1\n",
    ],
)
def test_malformed_endpoint_url_fails_without_attempt(monkeypatch, sleeps, url):
    fake = FakePost([])
    monkeypatch.setattr(remote_mod, "_send", fake)
    with pytest.raises(ProviderError, match="invalid endpoint URL"):
        post_json(url, {"model": "m"})
    assert fake.calls == []
    assert sleeps == []


@pytest.mark.parametrize(
    "url, sent",
    [
        ("http://127.0.0.1:9/v1/café", "http://127.0.0.1:9/v1/caf%C3%A9"),
        ("http://127.0.0.1:9/v1/é?q=ü&r=%20", "http://127.0.0.1:9/v1/%C3%A9?q=%C3%BC&r=%20"),
        ("http://127.0.0.1:9/v1/a%C3?b=[x]#é", "http://127.0.0.1:9/v1/a%C3?b=[x]#é"),  # ASCII path and query
    ],
)
def test_non_ascii_path_or_query_is_percent_encoded(monkeypatch, sleeps, url, sent):
    fake = FakePost([OSError("refused")])
    monkeypatch.setattr(remote_mod, "_send", fake)
    with pytest.raises(ProviderError, match="status connection-error"):
        post_json(url, {"model": "m"}, max_retries=0)
    assert [call["url"] for call in fake.calls] == [sent]


def test_ascii_url_reaches_send_as_given(monkeypatch, sleeps):
    url = "http://127.0.0.1:9/v1//x;p?q=a%20b&&#"
    fake = FakePost([FakeResponse(200, {"ok": True})])
    monkeypatch.setattr(remote_mod, "_send", fake)
    assert post_json(url, {"model": "m"}) == {"ok": True}
    assert [call["url"] for call in fake.calls] == [url]


def test_non_ascii_path_over_loopback(server, sleeps):
    server.respond = scripted((200, {}, b'{"ok": true}'))
    url = server.url.replace("/embeddings", "/café/embeddings?model=é")
    assert post_json(url, {"model": "m"}, timeout=5.0) == {"ok": True}
    (request,) = server.received
    assert request["path"] == "/v1/caf%C3%A9/embeddings?model=%C3%A9"


@pytest.mark.parametrize("key", ["", "sekrit"])
def test_json_reply_and_the_request_sent(server, sleeps, monkeypatch, key):
    if key:
        monkeypatch.setenv(remote_mod.API_KEY_ENV, key)
    server.respond = scripted((200, {"Content-Type": "application/json"}, b'{"ok": [1, "\xc3\xa9"]}'))
    payload = {"model": "m", "input": ["café", "x"]}
    assert post_json(server.url, payload, timeout=5.0) == {"ok": [1, "é"]}
    (request,) = server.received
    assert request["path"] == "/v1/embeddings"
    assert request["body"] == json.dumps(payload).encode("utf-8")
    assert request["headers"]["Content-Type"] == "application/json"
    assert request["headers"].get("Authorization") == (f"Bearer {key}" if key else None)
    assert sleeps == []


def test_reply_that_is_not_json(server, sleeps):
    server.respond = scripted((200, {}, b"<html>oops</html>"))
    with pytest.raises(ProviderError, match="^non-JSON response from "):
        post_json(server.url, {"model": "m"}, timeout=5.0)
    assert len(server.received) == 1


@pytest.mark.parametrize("status", [400, 307])
def test_status_never_retried_carries_its_body(server, sleeps, status):
    server.respond = scripted((status, {"Location": server.url}, b"unknown model 'm'"))
    with pytest.raises(ProviderError, match=f"failed: status {status}, body: ") as excinfo:
        post_json(server.url, {"model": "m"}, timeout=5.0)
    assert "unknown model 'm'" in str(excinfo.value)
    assert len(server.received) == 1
    assert sleeps == []


def test_retry_after_zero_on_503_is_honoured(server, sleeps):
    server.respond = scripted((503, {"Retry-After": "0"}, b"busy"), (200, {}, b"{}"))
    assert post_json(server.url, {"model": "m"}, timeout=5.0) == {}
    assert len(server.received) == 2
    assert sleeps == [0]


def test_500_then_200(server, sleeps):
    server.respond = scripted((500, {}, b"boom"), (200, {}, b'{"ok": true}'))
    assert post_json(server.url, {"model": "m"}, timeout=5.0) == {"ok": True}
    assert sleeps == [1.0]


def test_closed_port_is_a_connection_error_after_the_retries(sleeps):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(ProviderError, match="failed after 2 retries: status connection-error"):
        post_json(f"http://127.0.0.1:{port}/v1/chat", {"model": "m"}, timeout=5.0, max_retries=2)
    assert sleeps == [1.0, 2.0]


def test_tls_certificate_failure_is_not_retried(monkeypatch, sleeps):
    import ssl
    import urllib.error
    import urllib.request

    attempts = []

    def urlopen(request, timeout):
        attempts.append(request.full_url)
        raise urllib.error.URLError(ssl.SSLCertVerificationError(1, "certificate verify failed: self-signed"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(ProviderError, match="TLS certificate not verified: .*self-signed"):
        post_json("https://127.0.0.1:9/v1/chat", {"model": "m"}, max_retries=3)
    assert attempts == ["https://127.0.0.1:9/v1/chat"]
    assert sleeps == []


def test_a_python_without_ssl_still_posts_over_http(monkeypatch, server, sleeps):
    import sys

    monkeypatch.setitem(sys.modules, "ssl", None)  # any ``import ssl`` now raises ImportError
    server.respond = scripted((500, {}, b"boom"), (200, {}, b'{"ok": true}'))
    assert post_json(server.url, {"model": "m"}, timeout=5.0) == {"ok": True}
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(ProviderError, match="failed after 1 retries: status connection-error"):
        post_json(f"http://127.0.0.1:{port}/v1/chat", {"model": "m"}, timeout=5.0, max_retries=1)
    assert sleeps == [1.0, 1.0]


def test_remote_embedder_over_parallel_batches(server, sleeps):
    def respond(body):
        texts = json.loads(body)["input"]
        rows = [[float(text[1:]) + 1.0, 1.0] + [0.0] * 6 for text in texts]
        return 200, {}, json.dumps({"data": [{"index": i, "embedding": r} for i, r in enumerate(rows)]}).encode()

    server.respond = respond
    config = ProviderConfig(kind="remote", dimension=8, endpoint_url=server.url, model_name="e")
    out = RemoteEmbedder(config).embed_batch([f"t{i}" for i in range(130)])
    assert sorted(len(json.loads(r["body"])["input"]) for r in server.received) == [2, 64, 64]
    expected = np.zeros((130, 8))
    expected[:, 0] = np.arange(130) + 1.0
    expected[:, 1] = 1.0
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    assert np.allclose(out, expected, atol=1e-6)
    assert sleeps == []


@pytest.mark.parametrize("content", [None, 7])
@pytest.mark.parametrize(
    "ask",
    [
        lambda client: list(RemoteJudge(client).supported(["stmt"], ["ctx"])),
        lambda client: RemoteExtractor(client).triples(["Rome is in Italy."], "c0"),
        lambda client: RemoteGenerator(client).generate("What is Rome?", "context"),
    ],
    ids=["judge", "extractor", "generator"],
)
def test_chat_reply_whose_content_is_not_a_string_is_a_provider_error(monkeypatch, sleeps, ask, content):
    monkeypatch.setattr(remote_mod, "_send", FakePost([FakeResponse(200, chat_payload(content))]))
    with pytest.raises(ProviderError, match="malformed chat response: content is not a string"):
        ask(ChatClient("http://chat.test/v1/chat/completions", "chat-1"))
