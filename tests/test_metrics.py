import json
import math
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
    """Embedding provider with explicitly pinned vectors per token, each
    scaled to unit norm."""

    def __init__(self, mapping):
        self.mapping = {k: np.asarray(v, dtype=float) / np.linalg.norm(v)
                        for k, v in mapping.items()}
        self.dim = len(next(iter(self.mapping.values())))

    def embed(self, text):
        return np.array([self.mapping[t] for t in text.split()]).reshape(-1, self.dim)


def greedy_match_oracle(cand, ref):
    """(precision, recall, f1) of greedy cosine matching between two lists of
    vectors, in pure Python: precision is the mean row max of the cosine
    table, recall its mean column max."""
    def cosine(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        return dot / (math.sqrt(sum(a * a for a in u)) * math.sqrt(sum(b * b for b in v)))

    table = [[cosine(u, v) for v in ref] for u in cand]
    precision = sum(max(row) for row in table) / len(cand)
    recall = sum(max(col) for col in zip(*table)) / len(ref)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@st.composite
def vocabulary_and_texts(draw):
    """A small vocabulary of fixed nonzero integer vectors and two texts over it."""
    dim = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)
    vocab = draw(st.dictionaries(st.sampled_from("abcdefgh"), vector, min_size=1))
    text = st.lists(st.sampled_from(sorted(vocab)), min_size=1, max_size=6)
    return vocab, draw(text), draw(text)


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
        assert a.shape == b.shape == (2, 16)  # a row per token
        np.testing.assert_array_equal(a, b)

    def test_mock_vectors_unit_norm(self):
        m = MockEmbeddingProvider().embed("a few test tokens")
        assert m.shape == (4, 16)
        assert np.all(np.abs(np.linalg.norm(m, axis=1) - 1.0) < 1e-12)

    def test_mock_text_with_no_token_is_zero_rows(self):
        assert MockEmbeddingProvider().embed(" ").shape == (0, 16)

    @given(vocabulary_and_texts())
    def test_matches_pure_python_greedy_matching(self, case):
        vocab, cand, ref = case
        got = bertscore(" ".join(cand), " ".join(ref), FixedProvider(vocab))
        want = greedy_match_oracle([vocab[t] for t in cand], [vocab[t] for t in ref])
        assert abs(got[0] - want[0]) < 1e-9 and abs(got[1] - want[1]) < 1e-9, (got, want)
        # F1 divides by precision + recall: where that nears 0 (cosines can be
        # negative), last-bit differences in the two sums grow without bound
        if abs(want[0] + want[1]) >= 0.01:
            assert abs(got[2] - want[2]) < 1e-9, (got, want)


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
        assert out.shape == (3, 2)  # a row per token: "acme", "corp", "pad"
        np.testing.assert_allclose(out[0], [0.6, 0.8])
        np.testing.assert_allclose(out[1], [0.0, 1.0])
        np.testing.assert_array_equal(out[2], [0.0, 0.0])  # a zero vector stays zero

    @pytest.mark.parametrize("entry", [503, 404, b"not json", b'{"data": []}'])
    def test_error_or_malformed_reply_raises(self, entry):
        with MockChatServer(script=[entry]) as server:
            provider = HttpEmbeddingProvider(server.base_url, "embed-small")
            with pytest.raises(ApiError):
                provider.embed("acme corp")

    @pytest.mark.parametrize("embeddings", [
        [[3.0, 4.0], [1.0]],  # ragged rows
        [[3.0, 4.0], ["x", 1.0]],  # a non-numeric entry
        [3.0, 4.0],  # numbers, not rows
    ])
    def test_malformed_embeddings_raise_api_error(self, embeddings):
        reply = {"data": [{"tokens": ["acme", "corp"], "embeddings": embeddings}]}
        with MockChatServer(script=[json.dumps(reply).encode()]) as server:
            provider = HttpEmbeddingProvider(server.base_url, "embed-small")
            with pytest.raises(ApiError, match="malformed embeddings body"):
                bertscore("acme corp", "acme corp", provider)

    def test_no_tokens_is_empty_text(self):
        reply = {"data": [{"tokens": [], "embeddings": []}]}
        with MockChatServer(script=[json.dumps(reply).encode()]) as server:
            provider = HttpEmbeddingProvider(server.base_url, "embed-small")
            assert provider.embed("acme").shape[0] == 0
            with pytest.raises(EmptyText):
                bertscore("acme corp", "acme corp", provider)
