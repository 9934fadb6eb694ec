"""HTTP plumbing for remote providers: retrying JSON POST and a chat client.

All remote calls share one policy, ``post_json``'s defaults, which the
embedder and ``ChatClient`` both post with: bearer token from the
SKETCH_API_KEY environment variable, a 30 s request timeout, 3 retries,
and exponential backoff (base 1s, factor 2) on 429, 5xx and connection
errors, the failures a later attempt can outlive; a server certificate
that fails verification is not one of them. A 429 or 503 whose
``Retry-After`` header is whole seconds, at most the request timeout,
waits that long before the next attempt instead. Any other non-2xx status
raises ProviderError at once, and so do 501 (Not Implemented) and 505
(HTTP Version Not Supported), which say the server will never serve the
request; a retryable failure raises it once the retries are exhausted.
Either way the error carries the status and a body excerpt. A malformed
endpoint URL raises it before any attempt, and a non-ASCII path or query,
which ``http.client`` cannot send, is percent-encoded as UTF-8 first.

``_send`` is the one HTTP seam: one POST through the standard library's
``urllib.request``. It follows a 301, 302 or 303 as a GET; a 307 or 308 is
a reply like any other non-retryable status.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from json import dumps, loads
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import quote, urlsplit, urlunsplit

from .exceptions import ProviderError

if TYPE_CHECKING:
    from email.message import Message

API_KEY_ENV = "SKETCH_API_KEY"
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BODY_EXCERPT_CHARS = 200
NEVER_RETRIED_5XX = frozenset({501, 505})
RETRY_AFTER_STATUSES = frozenset({429, 503})
_ASCII = "".join(map(chr, range(128)))  # what quote() leaves as it is: only non-ASCII is encoded


def _retry_after(value: str | None, limit: float) -> int | None:
    """A ``Retry-After`` header's delay, when it is whole seconds from 0 to ``limit``; else None.

    The HTTP-date form, a malformed value and a delay past ``limit`` (the
    request timeout) all give None, and the caller keeps its own backoff.
    """
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    seconds = int(value)
    return seconds if seconds <= limit else None


class _Reply(NamedTuple):
    """An HTTP reply: status, body decoded as UTF-8, and headers (``get`` ignores case)."""

    status_code: int
    text: str
    headers: Message

    def json(self):
        return loads(self.text)


def _send(url: str, *, json: dict, headers: dict[str, str], timeout: float) -> _Reply:
    """POST ``json`` to ``url`` once. An HTTP error status is a reply; no reply at all raises OSError.

    A server certificate that fails verification raises ProviderError: no
    later attempt can pass the same check.
    """
    # Imported here, not at module scope: urllib.request (with http.client, ssl and
    # email parsing) costs ~7 MB and ~75 ms at import, and only a remote call needs it.
    import http.client
    import urllib.error
    import urllib.request

    try:
        from ssl import SSLCertVerificationError
    except ImportError:  # a Python built without ssl makes no certificate check to fail
        SSLCertVerificationError = ()

    request = urllib.request.Request(url, data=dumps(json).encode("utf-8"), method="POST")
    for name, value in headers.items():
        request.add_unredirected_header(name, value)  # a followed redirect carries no bearer token
    try:
        try:
            reply = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            reply = exc
        except urllib.error.URLError as exc:  # urlopen wraps what failed before a reply
            if isinstance(exc.reason, SSLCertVerificationError):
                raise ProviderError(f"POST {url} failed: TLS certificate not verified: {exc.reason}") from exc
            raise
        with reply:
            return _Reply(reply.status, reply.read().decode("utf-8", "replace"), reply.headers)
    except http.client.HTTPException as exc:  # a reply http.client cannot read is no reply
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc


def post_json(
    url: str,
    payload: dict,
    *,
    timeout: float = 30.0,
    max_retries: int = 3,
) -> dict:
    """POST a JSON payload, retrying transient failures with backoff.

    A response is accepted only on 2xx with a JSON body. ``max_retries``
    counts retries after the first attempt.
    """
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError on a port that is not a number from 0 to 65535
        usable = parts.scheme in ("http", "https") and bool(parts.hostname)
    except ValueError:
        usable = False
    if not usable or " " in url or not url.isprintable():  # http.client refuses spaces and control characters
        raise ProviderError(f"invalid endpoint URL {url!r}: needs http or https, a host, and no whitespace")
    if not url.isascii():
        url = urlunsplit(parts._replace(path=quote(parts.path, safe=_ASCII), query=quote(parts.query, safe=_ASCII)))
    key = os.environ.get(API_KEY_ENV, "")
    headers = {"Content-Type": "application/json"}
    if key:
        headers["Authorization"] = f"Bearer {key}"

    last_status: int | str = "no-response"
    last_body = ""
    wait = None  # the server's Retry-After for the next attempt, when it is honoured
    for attempt in range(max_retries + 1):
        if attempt:
            time.sleep(BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** (attempt - 1) if wait is None else wait)
            wait = None
        try:
            resp = _send(url, json=payload, headers=headers, timeout=timeout)
        except OSError as exc:
            last_status, last_body = "connection-error", str(exc)
            continue
        if 200 <= resp.status_code < 300:
            try:
                return resp.json()
            except ValueError as exc:
                raise ProviderError(f"non-JSON response from {url}: {exc}") from exc
        if (resp.status_code != 429 and resp.status_code < 500) or resp.status_code in NEVER_RETRIED_5XX:
            raise ProviderError(
                f"POST {url} failed: status {resp.status_code}, "
                f"body: {resp.text[:BODY_EXCERPT_CHARS]!r}"
            )
        last_status, last_body = resp.status_code, resp.text
        if resp.status_code in RETRY_AFTER_STATUSES:
            wait = _retry_after(resp.headers.get("Retry-After"), timeout)
    raise ProviderError(
        f"POST {url} failed after {max_retries} retries: "
        f"status {last_status}, body: {last_body[:BODY_EXCERPT_CHARS]!r}"
    )


@dataclass
class ChatClient:
    """Minimal chat-completions client.

    Wire shape: POST {"model", "messages": [{"role", "content"}]} ->
    {"choices": [{"message": {"content"}}]}.
    """

    endpoint_url: str
    model_name: str

    def chat(self, messages: list[dict[str, str]]) -> str:
        data = post_json(self.endpoint_url, {"model": self.model_name, "messages": messages})
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed chat response: {data!r:.200}") from exc
        if type(content) is not str:
            raise ProviderError(f"malformed chat response: content is not a string: {data!r:.200}")
        return content
