from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgrag.embedding import (
    HashedEmbedder,
    ProviderConfig,
    RemoteEmbedder,
    cosine_similarity,
    embed_hashed,
    embed_remote,
    fnv1a64,
)
from kgrag.exceptions import ProviderError

from helpers import FakePost, FakeResponse, embedding_payload

import kgrag.remote as remote_mod


def reference_fnv1a64(data: bytes) -> int:
    # Independent restatement of the reference algorithm.
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


class TestHashedEmbedder:
    def test_deterministic(self):
        a = embed_hashed("the same exact text", 128)
        b = embed_hashed("the same exact text", 128)
        assert np.array_equal(a, b)

    def test_empty_text_zero_vector(self):
        v = embed_hashed("", 64)
        assert v.shape == (64,)
        assert not v.any()

    @pytest.mark.parametrize("token", ["rome", "pasta", "Vesuvius"])
    def test_single_token_one_hot(self, token):
        dim = 256
        h = reference_fnv1a64(token.lower().encode("utf-8"))
        expected_index = h % dim
        expected_sign = 1.0 if h >> 63 == 0 else -1.0
        v = embed_hashed(token, dim)
        assert v[expected_index] == expected_sign
        assert np.count_nonzero(v) == 1

    def test_fnv_reference_agreement(self):
        for text in [b"", b"a", b"rome", b"hello world", bytes(range(256))]:
            assert fnv1a64(text) == reference_fnv1a64(text)

    @given(st.lists(st.sampled_from("alpha beta gamma delta rho".split()), min_size=1, max_size=12))
    def test_bag_of_words_order_invariance(self, tokens):
        forward = embed_hashed(" ".join(tokens), 64)
        backward = embed_hashed(" ".join(reversed(tokens)), 64)
        assert np.allclose(forward, backward)

    @given(st.text(max_size=80))
    def test_unit_norm_or_zero(self, text):
        v = embed_hashed(text, 32)
        norm = float(np.linalg.norm(v))
        assert norm == pytest.approx(1.0, abs=1e-6) or norm == 0.0

    def test_case_folding(self):
        assert np.array_equal(embed_hashed("Rome", 64), embed_hashed("rome", 64))

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            embed_hashed("x", 4)
        with pytest.raises(ValueError):
            HashedEmbedder(7)

    def test_embedder_class_matches_function(self):
        embedder = HashedEmbedder(128)
        assert np.array_equal(embedder.embed("ciao mondo"), embed_hashed("ciao mondo", 128))
        batch = embedder.embed_batch(["a b", "c"])
        assert len(batch) == 2


class TestCosineSimilarity:
    def test_self_similarity_unit(self):
        v = embed_hashed("some text here", 64)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert cosine_similarity(a, b) == 0.0

    def test_closed_form(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0])
        assert cosine_similarity(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_is_zero(self):
        z = np.zeros(8)
        v = np.ones(8)
        assert cosine_similarity(z, v) == 0.0
        assert cosine_similarity(z, z) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(4), np.ones(5))

    vectors = st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
    ).map(lambda xs: np.array(xs))

    @given(vectors, vectors)
    def test_symmetry(self, a, b):
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)

    @given(vectors, vectors, st.floats(0.1, 10.0))
    def test_scale_invariance(self, a, b, alpha):
        assert cosine_similarity(alpha * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-9)

    @given(vectors, vectors)
    def test_bounded(self, a, b):
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


def remote_config(**kwargs) -> ProviderConfig:
    base = dict(
        kind="remote",
        dimension=8,
        endpoint_url="http://provider.test/v1/embeddings",
        model_name="embedder-1",
        timeout=5.0,
        max_retries=3,
        parallelism=2,
    )
    base.update(kwargs)
    return ProviderConfig(**base)


class TestRemoteEmbedder:
    def test_order_preserved_even_if_reply_shuffled(self, monkeypatch):
        payload = {
            "data": [
                {"index": 2, "embedding": [0.0] * 7 + [3.0]},
                {"index": 0, "embedding": [1.0] + [0.0] * 7},
                {"index": 1, "embedding": [0.0, 2.0] + [0.0] * 6},
            ]
        }
        fake = FakePost([FakeResponse(200, payload)])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        out = embed_remote(["first", "second", "third"], remote_config())
        assert len(out) == 3
        assert out[0][0] == 1.0 and out[1][1] == 1.0 and out[2][7] == 1.0

    def test_responses_renormalized(self, monkeypatch):
        fake = FakePost([FakeResponse(200, embedding_payload([[3.0, 4.0] + [0.0] * 6]))])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        (v,) = embed_remote(["x"], remote_config())
        assert v[:2] == pytest.approx([0.6, 0.8])

    def test_batching_at_64(self, monkeypatch):
        def batch_response(call_json):
            return embedding_payload([[1.0] + [0.0] * 7] * len(call_json["input"]))

        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append(len(json["input"]))
            return FakeResponse(200, batch_response(json))

        monkeypatch.setattr(remote_mod.requests, "post", fake_post)
        out = embed_remote([f"t{i}" for i in range(130)], remote_config())
        assert len(out) == 130
        assert sorted(calls, reverse=True) == [64, 64, 2]

    def test_retry_backoff_on_429(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost(
            [
                FakeResponse(429, text="slow down"),
                FakeResponse(429, text="slow down"),
                FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7])),
            ]
        )
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        out = embed_remote(["x"], remote_config())
        assert len(out) == 1
        assert sleeps == [1.0, 2.0]

    def test_error_after_max_retries_carries_status_and_body(self, monkeypatch):
        monkeypatch.setattr(remote_mod.time, "sleep", lambda _: None)
        fake = FakePost([FakeResponse(503, text="upstream fell over")] * 4)
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        with pytest.raises(ProviderError, match="503") as excinfo:
            embed_remote(["x"], remote_config())
        assert "upstream fell over" in str(excinfo.value)
        assert len(fake.calls) == 4  # initial + 3 retries

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_client_error_fails_without_retry(self, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost([FakeResponse(status, text="cannot ever succeed")])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        with pytest.raises(ProviderError, match=str(status)) as excinfo:
            embed_remote(["x"], remote_config())
        assert "cannot ever succeed" in str(excinfo.value)
        assert len(fake.calls) == 1
        assert sleeps == []

    def test_connection_error_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost(
            [
                remote_mod.requests.ConnectionError("connection refused"),
                FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7])),
            ]
        )
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        assert len(embed_remote(["x"], remote_config())) == 1
        assert len(fake.calls) == 2
        assert sleeps == [1.0]

    def test_dimension_mismatch_within_batch(self, monkeypatch):
        payload = {
            "data": [
                {"index": 0, "embedding": [1.0] * 8},
                {"index": 1, "embedding": [1.0] * 6},
            ]
        }
        fake = FakePost([FakeResponse(200, payload)])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        with pytest.raises(ProviderError, match="dimension mismatch"):
            embed_remote(["a", "b"], remote_config())

    def test_wrong_dimension_vs_config(self, monkeypatch):
        fake = FakePost([FakeResponse(200, embedding_payload([[1.0] * 6]))])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        embedder = RemoteEmbedder(remote_config())
        with pytest.raises(ProviderError, match="dimension"):
            embedder.embed("x")

    def test_api_key_header(self, monkeypatch):
        fake = FakePost([FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7]))])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        monkeypatch.setenv("SKETCH_API_KEY", "sekrit")
        embed_remote(["x"], remote_config())
        assert fake.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_empty_input_no_calls(self, monkeypatch):
        fake = FakePost([])
        monkeypatch.setattr(remote_mod.requests, "post", fake)
        assert embed_remote([], remote_config()) == []
        assert fake.calls == []


class TestProviderConfig:
    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="hashed", dimension=4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="quantum")
