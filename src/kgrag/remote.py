"""HTTP plumbing for remote providers: retrying JSON POST and a chat client.

All remote calls share one policy: bearer token from the SKETCH_API_KEY
environment variable, and exponential backoff (base 1s, factor 2) on 429,
5xx and connection errors, the failures a later attempt can outlive. Any
other non-2xx status raises ProviderError at once; a retryable failure
raises it once max_retries is exhausted. Either way the error carries the
status and a body excerpt.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import requests

from .exceptions import ProviderError

API_KEY_ENV = "SKETCH_API_KEY"
BACKOFF_BASE_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BODY_EXCERPT_CHARS = 200


def post_json(
    url: str,
    payload: dict,
    *,
    timeout: float = 30.0,
    max_retries: int = 3,
    api_key: str | None = None,
) -> dict:
    """POST a JSON payload, retrying transient failures with backoff.

    A response is accepted only on 2xx with a JSON body. ``max_retries``
    counts retries after the first attempt.
    """
    key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
    headers = {"Content-Type": "application/json"}
    if key:
        headers["Authorization"] = f"Bearer {key}"

    last_status: int | str = "no-response"
    last_body = ""
    for attempt in range(max_retries + 1):
        if attempt:
            time.sleep(BACKOFF_BASE_SECONDS * BACKOFF_FACTOR ** (attempt - 1))
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_status, last_body = "connection-error", str(exc)
            continue
        if 200 <= resp.status_code < 300:
            try:
                return resp.json()
            except ValueError as exc:
                raise ProviderError(f"non-JSON response from {url}: {exc}") from exc
        if resp.status_code != 429 and resp.status_code < 500:
            raise ProviderError(
                f"POST {url} failed: status {resp.status_code}, "
                f"body: {resp.text[:BODY_EXCERPT_CHARS]!r}"
            )
        last_status, last_body = resp.status_code, resp.text
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
    timeout: float = 30.0
    max_retries: int = 3
    api_key: str | None = field(default=None, repr=False)

    def chat(self, messages: list[dict[str, str]]) -> str:
        data = post_json(
            self.endpoint_url,
            {"model": self.model_name, "messages": messages},
            timeout=self.timeout,
            max_retries=self.max_retries,
            api_key=self.api_key,
        )
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProviderError(f"malformed chat response: {data!r:.200}") from exc
