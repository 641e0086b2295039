import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from warc2meta.errors import ApiError, EmptyText
from warc2meta.metrics import (
    EmbeddingMemo,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    bertscore,
    levenshtein,
)

from helpers import MockChatServer


def dp_oracle(a: str, b: str) -> int:
    """Full-table dynamic program, kept independent of the library kernels."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[len(a)][len(b)]


class FixedProvider:
    """Embedding provider with explicitly pinned vectors per token."""

    def __init__(self, mapping):
        self.mapping = {k: np.asarray(v, dtype=float) for k, v in mapping.items()}

    def embed(self, text):
        return [(t, self.mapping[t]) for t in text.split()]


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_insertions_only(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_kitten_sitting(self):
        assert dp_oracle("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_unicode_scalars(self):
        assert levenshtein("café", "cafe") == 1
        # NFC normalization: combining sequence equals precomposed form
        assert levenshtein("café", "café") == 0

    def test_case_sensitive(self):
        assert levenshtein("Acme", "acme") == 1

    def test_random_pairs_match_oracle(self):
        rng = random.Random(20240601)
        alphabet = "abcdef"
        for _ in range(1000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert levenshtein(a, b) == dp_oracle(a, b)
        # non-ASCII and astral code points, lengths above 64 and 200 (bit
        # vectors wider than a machine word), and "" against long strings
        alphabet = "a\u00e9\u6f22\U0001f600 "
        lengths = [(0, 12), (60, 140), (190, 260)]
        for _ in range(150):
            a, b = (
                "".join(rng.choice(alphabet) for _ in range(rng.randint(*rng.choice(lengths))))
                for _ in range(2)
            )
            assert levenshtein(a, b) == dp_oracle(a, b)
        for n in (1, 64, 65, 250):
            long = "".join(rng.choice(alphabet) for _ in range(n))
            assert levenshtein("", long) == levenshtein(long, "") == n == dp_oracle("", long)

    @given(st.text(alphabet="abcd", max_size=10), st.text(alphabet="abcd", max_size=10))
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8),
           st.text(alphabet="abc", max_size=8))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(alphabet="abcd", max_size=10), st.text(alphabet="abcd", max_size=10))
    def test_identity_of_indiscernibles(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)


class TestBertscore:
    def test_identical_texts_f1_one(self):
        provider = MockEmbeddingProvider()
        p, r, f1 = bertscore("the quick brown fox", "the quick brown fox", provider)
        assert abs(f1 - 1.0) < 1e-9
        assert abs(p - 1.0) < 1e-9 and abs(r - 1.0) < 1e-9

    def test_hand_evaluated_one_by_two(self):
        provider = FixedProvider({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
        p, r, f1 = bertscore("a", "b c", provider)
        assert abs(p - 1.0) < 1e-9
        assert abs(r - 0.5) < 1e-9
        assert abs(f1 - 2 / 3) < 1e-9

    def test_orthogonal_embeddings_zero(self):
        provider = FixedProvider({"a": [1, 0], "z": [0, 1]})
        p, r, f1 = bertscore("a", "z", provider)
        assert p == 0.0 and r == 0.0 and f1 == 0.0

    def test_hand_evaluated_two_by_two(self):
        # cand tokens (1,0),(0,1); ref tokens (1,0),(0.6,0.8)
        provider = FixedProvider({
            "x": [1, 0], "y": [0, 1], "u": [1, 0], "v": [0.6, 0.8],
        })
        p, r, f1 = bertscore("x y", "u v", provider)
        assert abs(p - (1.0 + 0.8) / 2) < 1e-9
        assert abs(r - (1.0 + 0.8) / 2) < 1e-9
        assert abs(f1 - 0.9) < 1e-9

    def test_empty_text_raises(self):
        provider = MockEmbeddingProvider()
        with pytest.raises(EmptyText):
            bertscore("", "something", provider)

    def test_self_match_dominance(self):
        provider = MockEmbeddingProvider()
        x = "alpha beta gamma"
        _, _, self_f1 = bertscore(x, x, provider)
        for y in ("delta epsilon", "zeta", "eta theta iota kappa"):
            _, _, other_f1 = bertscore(x, y, provider)
            assert self_f1 >= other_f1

    def test_mock_provider_deterministic(self):
        a = MockEmbeddingProvider().embed("hello world")
        b = MockEmbeddingProvider().embed("hello world")
        for (ta, va), (tb, vb) in zip(a, b):
            assert ta == tb
            np.testing.assert_array_equal(va, vb)

    def test_mock_vectors_unit_norm(self):
        for _, v in MockEmbeddingProvider().embed("a few test tokens"):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestEmbeddingMemo:
    def test_each_distinct_text_embedded_once(self):
        seen = []

        class Counting(MockEmbeddingProvider):
            def embed(self, text):
                seen.append(text)
                return super().embed(text)

        memo = EmbeddingMemo(Counting())
        first = bertscore("alpha beta", "gamma", memo)
        again = bertscore("alpha beta", "gamma delta", memo)
        assert seen == ["alpha beta", "gamma", "gamma delta"]
        assert memo.hits == 1 and len(memo.memo) == 3
        plain = MockEmbeddingProvider()
        assert first == bertscore("alpha beta", "gamma", plain)
        assert again == bertscore("alpha beta", "gamma delta", plain)


class TestHttpEmbeddingProvider:
    def test_vectors_unit_normalised(self):
        reply = {"data": [{"tokens": ["acme", "corp", "pad"],
                           "embeddings": [[3.0, 4.0], [0.0, 2.5], [0.0, 0.0]]}]}
        with MockChatServer(script=[json.dumps(reply).encode()]) as server:
            out = HttpEmbeddingProvider(server.base_url + "/v1", "embed-small").embed("acme corp")
            assert server.requests == [{"model": "embed-small", "input": ["acme corp"]}]
            assert server.paths == ["/v1/embeddings"]
        assert [t for t, _ in out] == ["acme", "corp", "pad"]
        np.testing.assert_allclose(out[0][1], [0.6, 0.8])
        np.testing.assert_allclose(out[1][1], [0.0, 1.0])
        np.testing.assert_array_equal(out[2][1], [0.0, 0.0])  # a zero vector stays zero

    @pytest.mark.parametrize("entry", [503, 404, b"not json", b'{"data": []}'])
    def test_error_or_malformed_reply_raises(self, entry):
        with MockChatServer(script=[entry]) as server:
            provider = HttpEmbeddingProvider(server.base_url, "embed-small")
            with pytest.raises(ApiError):
                provider.embed("acme corp")
