from __future__ import annotations

import math
import sys
import threading
import urllib.error

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kgrag.embedding import (
    MAX_BATCH_SIZE,
    MAX_PARALLEL_REQUESTS,
    HashedEmbedder,
    ProviderConfig,
    RemoteEmbedder,
    cosine_rows,
    embed_hashed,
    embed_hashed_many,
    embed_remote,
    fnv1a64,
)
from kgrag.exceptions import ProviderError

from helpers import (
    FakePost,
    FakeResponse,
    embedding_matrices,
    embedding_payload,
    record_texts,
    reference_cosine,
)

import kgrag.embedding as embedding_mod
import kgrag.remote as remote_mod


def reference_fnv1a64(data: bytes) -> int:
    # Independent restatement of the reference algorithm.
    h = 14695981039346656037
    for b in data:
        h = ((h ^ b) * 1099511628211) % 2**64
    return h


def reference_embed_hashed(text: str, dimension: int) -> np.ndarray:
    # The per-text, per-occurrence loop the batched embedder must reproduce byte for byte.
    values = np.zeros(dimension, dtype=np.float64)
    for token in text.lower().split():
        h = reference_fnv1a64(token.encode("utf-8"))
        sign = 1.0 if (h >> 63) == 0 else -1.0
        values[h % dimension] += sign
    norm = math.sqrt(float(np.dot(values, values)))
    if norm > 0.0:
        values /= norm
    return values.astype(np.float32)


TRICKY_TEXTS = ["", "   \t\n ", "rome rome Rome ROME", "İstanbul ΟΔΟΣ οδος", "pizza 🍕 🍕 emoji", "a\u00a0b c\u2003d"]


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


HASHED_TEXTS = st.one_of(
    st.text(max_size=60),
    st.sampled_from(TRICKY_TEXTS),
    st.lists(st.sampled_from(["rome", "Rome", "pasta", "İstanbul", "ΟΔΟΣ", "🍕"]), max_size=20).map(" ".join),
)


class TestBatchedHashedEmbedder:
    @given(st.lists(HASHED_TEXTS, max_size=8), st.sampled_from([8, 13, 64, 256]))
    @example(TRICKY_TEXTS, 64)
    def test_rows_match_reference_bytes(self, texts, dimension):
        batch = HashedEmbedder(dimension).embed_batch(texts)
        assert len(batch) == len(texts)
        for text, row in zip(texts, batch):
            expected = reference_embed_hashed(text, dimension)
            assert row.dtype == np.float32 and row.shape == (dimension,)
            assert row.tobytes() == expected.tobytes()
            assert embed_hashed(text, dimension).tobytes() == embed_hashed_many([text], dimension)[0].tobytes()

    def test_single_text_matches_reference_bytes(self):
        for text in TRICKY_TEXTS:
            assert embed_hashed(text, 64).tobytes() == reference_embed_hashed(text, 64).tobytes()

    def test_empty_batch(self):
        assert HashedEmbedder(64).embed_batch([]).shape == (0, 64)
        assert embed_hashed_many([], 64).shape == (0, 64)
        assert embed_hashed_many([], 64).dtype == np.float32

    def test_batch_without_tokens_is_zero(self):
        rows = embed_hashed_many(["", "  "], 16)
        assert rows.dtype == np.float32 and rows.shape == (2, 16)
        assert not rows.any()

    def test_each_distinct_token_hashed_once_per_batch(self, monkeypatch):
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        HashedEmbedder(64).embed_batch(["rome pasta rome", "Pasta sauce", "ROME"])
        assert sorted(hashed) == [b"pasta", b"rome", b"sauce"]

    def test_batch_larger_than_one_block(self, monkeypatch):
        texts = [f"rome w{i % 7} pasta " * (i % 3) for i in range(2 * embedding_mod._BLOCK_ROWS + 3)]
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        batch = HashedEmbedder(32).embed_batch(texts)
        assert sorted(hashed) == sorted([b"rome", b"pasta"] + [f"w{k}".encode() for k in range(7)])
        assert [row.tobytes() for row in batch] == [reference_embed_hashed(t, 32).tobytes() for t in texts]

    def test_single_text_hashes_each_distinct_token_once(self, monkeypatch):
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        HashedEmbedder(64).embed("rome pasta Rome ROME pasta")
        assert sorted(hashed) == [b"pasta", b"rome"]

    def test_no_state_kept_across_batches(self, monkeypatch):
        embedder = HashedEmbedder(64)
        first = embedder.embed_batch(["rome pasta"])
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        second = embedder.embed_batch(["rome pasta"])
        assert sorted(hashed) == [b"pasta", b"rome"]
        assert first[0].tobytes() == second[0].tobytes()


class TestKeptTokenTable:
    def test_embed_hashes_only_tokens_new_to_the_embedder(self, monkeypatch):
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        embedder = HashedEmbedder(64)
        embedder.embed("rome pasta Rome")
        assert sorted(hashed) == [b"pasta", b"rome"]
        hashed.clear()
        row = embedder.embed("pasta sauce ROME")
        assert hashed == [b"sauce"]
        assert row.tobytes() == reference_embed_hashed("pasta sauce ROME", 64).tobytes()
        hashed.clear()
        HashedEmbedder(64).embed("pasta sauce ROME")
        assert sorted(hashed) == [b"pasta", b"rome", b"sauce"]

    def test_one_shot_function_hashes_every_call(self, monkeypatch):
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        embed_hashed("rome pasta", 64)
        embed_hashed("rome pasta", 64)
        assert sorted(hashed) == [b"pasta", b"pasta", b"rome", b"rome"]

    def test_table_cleared_once_it_holds_the_bound(self, monkeypatch):
        monkeypatch.setattr(embedding_mod, "MAX_KEPT_TOKENS", 4)
        hashed = record_texts(monkeypatch, embedding_mod, "fnv1a64")
        embedder = HashedEmbedder(64)
        embedder.embed("a b c")
        assert len(embedder._columns) == 3
        embedder.embed("c d")
        assert len(embedder._columns) == 0
        hashed.clear()
        assert embedder.embed("a d").tobytes() == reference_embed_hashed("a d", 64).tobytes()
        assert sorted(hashed) == [b"a", b"d"]

    def test_batch_neither_reads_nor_fills_the_table(self):
        embedder = HashedEmbedder(64)
        embedder.embed("rome pasta")
        kept = dict(embedder._columns)
        embedder.embed_batch(["rome sauce", "cheese"])
        assert embedder._columns == kept

    @pytest.mark.parametrize("bound", [None, 4])
    @given(st.lists(HASHED_TEXTS, max_size=12), st.sampled_from([8, 13, 64, 256]))
    @example(TRICKY_TEXTS * 2, 64)
    def test_texts_through_one_embedder_match_reference_bytes(self, bound, texts, dimension):
        with pytest.MonkeyPatch.context() as patch:
            if bound is not None:
                patch.setattr(embedding_mod, "MAX_KEPT_TOKENS", bound)
            embedder = HashedEmbedder(dimension)
            for text in texts:
                row = embedder.embed(text)
                assert row.dtype == np.float32 and row.shape == (dimension,)
                assert row.tobytes() == reference_embed_hashed(text, dimension).tobytes()
                assert len(embedder._columns) <= embedding_mod.MAX_KEPT_TOKENS

    @pytest.mark.parametrize("bound", [None, 16])
    def test_threads_sharing_one_embedder_get_single_thread_bytes(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(embedding_mod, "MAX_KEPT_TOKENS", bound)
        texts = [" ".join(f"w{(i * 7 + j) % 97}" for j in range(i % 11 + 1)) for i in range(120)]
        expected = [HashedEmbedder(64).embed(text).tobytes() for text in texts]
        embedder = HashedEmbedder(64)
        results: list[list[bytes]] = []
        start = threading.Barrier(8, timeout=30)

        def embed_all(shift: int) -> None:
            start.wait()
            order = texts[shift:] + texts[:shift]
            rows = [embedder.embed(text).tobytes() for text in order]
            results.append(rows[len(texts) - shift :] + rows[: len(texts) - shift])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=embed_all, args=(13 * i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 8
        assert len(embedder._columns) <= embedding_mod.MAX_KEPT_TOKENS


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """``cosine_rows`` of one pair of vectors."""
    return float(cosine_rows(a[None], b[None])[0])


class TestCosineSimilarity:
    def test_self_similarity_unit(self):
        v = embed_hashed("some text here", 64)
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert cosine(a, b) == 0.0

    def test_closed_form(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0])
        assert cosine(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_is_zero(self):
        z = np.zeros(8)
        v = np.ones(8)
        assert cosine(z, v) == 0.0
        assert cosine(z, z) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(4), np.ones(5))

    vectors = st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False), min_size=4, max_size=4
    ).map(lambda xs: np.array(xs))

    @given(vectors, vectors)
    def test_symmetry(self, a, b):
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)

    @given(vectors, vectors, st.floats(0.1, 10.0))
    @example(np.array([6.921560364447015e-158, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]), 0.1015625)
    def test_scale_invariance(self, a, b, alpha):
        assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), abs=1e-9)

    @given(vectors, vectors)
    def test_bounded(self, a, b):
        assert -1.0 <= cosine(a, b) <= 1.0


class TestCosineRows:
    @given(embedding_matrices(), st.randoms(use_true_random=False))
    def test_rows_match_pair_rule_bit_for_bit(self, a, rng):
        b = a[rng.sample(range(len(a)), len(a))]
        rows = cosine_rows(a, b)
        assert rows.dtype == np.float64 and rows.shape == (len(a),)
        expected = np.array([reference_cosine(x, y) for x, y in zip(a, b)], dtype=np.float64)
        assert rows.tobytes() == expected.tobytes()

    def test_zero_rows_and_clipping(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1e-3, 1e-3]])
        b = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [1e3, 1e3]])
        assert cosine_rows(a, b).tolist() == [0.0, 0.0, -1.0, 1.0]

    def test_rows_whose_squared_norm_underflows_or_overflows(self):
        a = np.array([[3e-170, 4e-170], [3e-320, 4e-320], [3e200, 4e200], [3.0, 4.0]])
        b = np.array([[3.0, 4.0], [3e200, 4e200], [-3e-170, -4e-170], [0.0, 1e-300]])
        assert cosine_rows(a, b) == pytest.approx([1.0, 1.0, -1.0, 0.8], abs=1e-15)
        assert cosine_rows(a, a).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_rows(np.ones((2, 4)), np.ones((2, 5)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_rows(np.ones((2, 4)), np.ones((3, 4)))

    def test_no_rows(self):
        assert cosine_rows(np.zeros((0, 8)), np.zeros((0, 8))).shape == (0,)


def remote_config(**kwargs) -> ProviderConfig:
    base = dict(
        kind="remote",
        dimension=8,
        endpoint_url="http://provider.test/v1/embeddings",
        model_name="embedder-1",
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
        monkeypatch.setattr(remote_mod, "_send", fake)
        out = embed_remote(["first", "second", "third"], remote_config())
        assert len(out) == 3
        assert out[0][0] == 1.0 and out[1][1] == 1.0 and out[2][7] == 1.0

    def test_responses_renormalized(self, monkeypatch):
        fake = FakePost([FakeResponse(200, embedding_payload([[3.0, 4.0] + [0.0] * 6]))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        (v,) = embed_remote(["x"], remote_config())
        assert v[:2] == pytest.approx([0.6, 0.8])

    def test_batching_at_64(self, monkeypatch):
        def batch_response(call_json):
            return embedding_payload([[1.0] + [0.0] * 7] * len(call_json["input"]))

        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append(len(json["input"]))
            return FakeResponse(200, batch_response(json))

        monkeypatch.setattr(remote_mod, "_send", fake_post)
        out = embed_remote([f"t{i}" for i in range(130)], remote_config())
        assert len(out) == 130
        assert sorted(calls, reverse=True) == [64, 64, 2]

    def test_batches_share_post_jsons_policy_on_four_workers(self, monkeypatch):
        # Each group of four batches meets at the barrier, so fewer workers time out and more show in the peak.
        barrier = threading.Barrier(MAX_PARALLEL_REQUESTS, timeout=30)
        lock = threading.Lock()
        timeouts, in_flight, peak = [], [0], [0]

        def fake_post(url, json=None, headers=None, timeout=None):
            with lock:
                timeouts.append(timeout)
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            barrier.wait()
            with lock:
                in_flight[0] -= 1
            return FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7] * len(json["input"])))

        monkeypatch.setattr(remote_mod, "_send", fake_post)
        texts = [f"t{i}" for i in range(8 * MAX_BATCH_SIZE)]
        assert len(embed_remote(texts, remote_config())) == len(texts)
        assert MAX_PARALLEL_REQUESTS == 4 and peak == [4]
        assert timeouts == [30.0] * 8  # post_json's default, as every remote call

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
        monkeypatch.setattr(remote_mod, "_send", fake)
        out = embed_remote(["x"], remote_config())
        assert len(out) == 1
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(("status", "retry_after", "waits"), [(429, "3", 3), (503, "0", 0), (503, " 30 ", 30)])
    def test_retry_after_seconds_honoured(self, monkeypatch, status, retry_after, waits):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost(
            [
                FakeResponse(status, text="busy", headers={"Retry-After": retry_after}),
                FakeResponse(429, text="slow down"),
                FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7])),
            ]
        )
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert len(embed_remote(["x"], remote_config())) == 1
        assert sleeps == [waits, 2.0]  # the header covers only the attempt after its own response

    @pytest.mark.parametrize("retry_after", ["31", "86400", "99999999999999999999"])
    def test_retry_after_past_the_timeout_keeps_the_backoff(self, monkeypatch, retry_after):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost(
            [FakeResponse(429, text="slow down", headers={"Retry-After": retry_after})] * 2
            + [FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7]))]
        )
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert len(embed_remote(["x"], remote_config())) == 1
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(
        ("status", "headers"),
        [
            (429, {}),
            (429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            (503, {"Retry-After": "soon"}),
            (503, {"Retry-After": ""}),
            (429, {"Retry-After": "-1"}),
            (429, {"Retry-After": "1.5"}),
            (429, {"Retry-After": "+2"}),
            (503, {"Retry-After": "\u0663"}),  # ARABIC-INDIC DIGIT THREE: a digit, but not delay-seconds
            (500, {"Retry-After": "3"}),  # honoured on 429 and 503 only
            (502, {"Retry-After": "0"}),
        ],
    )
    def test_retry_after_fallback_keeps_the_backoff(self, monkeypatch, status, headers):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost(
            [FakeResponse(status, text="busy", headers=headers)] * 2
            + [FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7]))]
        )
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert len(embed_remote(["x"], remote_config())) == 1
        assert sleeps == [1.0, 2.0]

    def test_error_after_max_retries_carries_status_and_body(self, monkeypatch):
        monkeypatch.setattr(remote_mod.time, "sleep", lambda _: None)
        fake = FakePost([FakeResponse(503, text="upstream fell over")] * 4)
        monkeypatch.setattr(remote_mod, "_send", fake)
        with pytest.raises(ProviderError, match="503") as excinfo:
            embed_remote(["x"], remote_config())
        assert "upstream fell over" in str(excinfo.value)
        assert len(fake.calls) == 4  # initial + 3 retries

    @pytest.mark.parametrize("status", [400, 401, 404, 501, 505])
    def test_client_error_fails_without_retry(self, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(remote_mod.time, "sleep", sleeps.append)
        fake = FakePost([FakeResponse(status, text="cannot ever succeed")])
        monkeypatch.setattr(remote_mod, "_send", fake)
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
                urllib.error.URLError("connection refused"),
                FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7])),
            ]
        )
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert len(embed_remote(["x"], remote_config())) == 1
        assert len(fake.calls) == 2
        assert sleeps == [1.0]

    @pytest.mark.parametrize(
        "indices",
        [[0, 0], [0, 2], [5, 9], [0], [0, 1, 2], [False, True], [0.0, 1.0]],
        ids=["repeat", "gap", "out-of-range", "short", "long", "bools", "floats"],
    )
    def test_reply_indices_other_than_one_per_text_are_malformed(self, monkeypatch, indices):
        payload = {"data": [{"index": i, "embedding": [1.0] * 8} for i in indices]}
        monkeypatch.setattr(remote_mod, "_send", FakePost([FakeResponse(200, payload)]))
        with pytest.raises(ProviderError, match="^malformed embedding response at input 0$"):
            embed_remote(["a", "b"], remote_config())

    def test_dimension_mismatch_within_batch(self, monkeypatch):
        payload = {
            "data": [
                {"index": 0, "embedding": [1.0] * 8},
                {"index": 1, "embedding": [1.0] * 6},
            ]
        }
        fake = FakePost([FakeResponse(200, payload)])
        monkeypatch.setattr(remote_mod, "_send", fake)
        with pytest.raises(ProviderError, match="dimension mismatch"):
            embed_remote(["a", "b"], remote_config())

    def test_wrong_dimension_vs_config(self, monkeypatch):
        fake = FakePost([FakeResponse(200, embedding_payload([[1.0] * 6]))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        embedder = RemoteEmbedder(remote_config())
        with pytest.raises(ProviderError, match="dimension"):
            embedder.embed("x")

    def test_api_key_header(self, monkeypatch):
        fake = FakePost([FakeResponse(200, embedding_payload([[1.0] + [0.0] * 7]))])
        monkeypatch.setattr(remote_mod, "_send", fake)
        monkeypatch.setenv("SKETCH_API_KEY", "sekrit")
        embed_remote(["x"], remote_config())
        assert fake.calls[0]["headers"]["Authorization"] == "Bearer sekrit"

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "abc",
            [None] * 8,
            [0.5] * 7 + [float("nan")],
            ["abc"] * 8,
            [[0.5]] * 8,
            [0.5] * 7 + [[0.5]],
            {"x": 1.0},
            ["1.5"] * 8,
            [True] * 8,
            [0.5] * 7 + [False],
            [0.5] * 7 + [10**400],
        ],
        ids=[
            "null", "string", "null-items", "nan-item", "string-items", "nested", "one-nested-item", "object",
            "numeric-string-items", "bool-items", "one-bool-item",
            "huge-int-item",
        ],
    )
    def test_bad_embedding_value_is_provider_error(self, monkeypatch, value):
        payload = {"data": [{"index": 0, "embedding": value}, {"index": 1, "embedding": [1.0] * 8}]}
        monkeypatch.setattr(remote_mod, "_send", FakePost([FakeResponse(200, payload)]))
        with pytest.raises(ProviderError, match="at input 0"):
            embed_remote(["a", "b"], remote_config())

    def test_embedder_returns_one_float32_matrix(self, monkeypatch):
        def fake_post(url, json=None, headers=None, timeout=None):
            return FakeResponse(200, embedding_payload([[3.0, 4.0] + [0.0] * 6] * len(json["input"])))

        monkeypatch.setattr(remote_mod, "_send", fake_post)
        out = RemoteEmbedder(remote_config()).embed_batch([f"t{i}" for i in range(130)])
        assert isinstance(out, np.ndarray) and out.dtype == np.float32 and out.shape == (130, 8)
        assert np.array_equal(out[:, :2], np.tile(np.float32([0.6, 0.8]), (130, 1)))

    def test_wrong_dimension_in_a_later_batch(self, monkeypatch):
        def fake_post(url, json=None, headers=None, timeout=None):
            dim = 8 if json["input"][0] == "t0" else 6
            return FakeResponse(200, embedding_payload([[1.0] * dim] * len(json["input"])))

        monkeypatch.setattr(remote_mod, "_send", fake_post)
        with pytest.raises(ProviderError, match="dimension mismatch at input 64"):
            RemoteEmbedder(remote_config()).embed_batch([f"t{i}" for i in range(100)])

    def test_empty_input_no_calls(self, monkeypatch):
        fake = FakePost([])
        monkeypatch.setattr(remote_mod, "_send", fake)
        assert embed_remote([], remote_config()).shape == (0, 8)
        assert fake.calls == []


class TestProviderConfig:
    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="hashed", dimension=4)

    def test_dimension_ceiling_is_the_vector_file_u32(self):
        # Construction only: nothing is embedded, so no row of 2**32 columns is allocated.
        assert ProviderConfig(dimension=2**32 - 1).dimension == 2**32 - 1
        for dimension in (2**32, 2**64, 10**20):
            with pytest.raises(ValueError, match=f"must be <= 4294967295, got {dimension}"):
                ProviderConfig(dimension=dimension)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="quantum")
