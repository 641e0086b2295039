import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from warc2meta.errors import ApiError, EmptyText
from warc2meta.metrics import (
    EMBED_BATCH,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    TokenTable,
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

    def embed(self, tokens):
        return np.array([self.mapping[t] for t in tokens]).reshape(-1, self.dim)


def score(candidate, reference, provider=None):
    """bertscore of two texts through a token table of both."""
    table = TokenTable(provider or MockEmbeddingProvider(), (candidate, reference))
    return bertscore(candidate, reference, table)


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
        p, r, f1 = score("the quick brown fox", "the quick brown fox")
        assert abs(f1 - 1.0) < 1e-9
        assert abs(p - 1.0) < 1e-9 and abs(r - 1.0) < 1e-9

    def test_hand_evaluated_one_by_two(self):
        provider = FixedProvider({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
        p, r, f1 = score("a", "b c", provider)
        assert abs(p - 1.0) < 1e-9
        assert abs(r - 0.5) < 1e-9
        assert abs(f1 - 2 / 3) < 1e-9

    def test_orthogonal_embeddings_zero(self):
        provider = FixedProvider({"a": [1, 0], "z": [0, 1]})
        p, r, f1 = score("a", "z", provider)
        assert p == 0.0 and r == 0.0 and f1 == 0.0

    def test_hand_evaluated_two_by_two(self):
        # cand tokens (1,0),(0,1); ref tokens (1,0),(0.6,0.8)
        provider = FixedProvider({
            "x": [1, 0], "y": [0, 1], "u": [1, 0], "v": [0.6, 0.8],
        })
        p, r, f1 = score("x y", "u v", provider)
        assert abs(p - (1.0 + 0.8) / 2) < 1e-9
        assert abs(r - (1.0 + 0.8) / 2) < 1e-9
        assert abs(f1 - 0.9) < 1e-9

    def test_empty_text_raises(self):
        with pytest.raises(EmptyText):
            score("", "something")

    def test_self_match_dominance(self):
        x = "alpha beta gamma"
        _, _, self_f1 = score(x, x)
        for y in ("delta epsilon", "zeta", "eta theta iota kappa"):
            _, _, other_f1 = score(x, y)
            assert self_f1 >= other_f1

    def test_mock_provider_deterministic(self):
        a = MockEmbeddingProvider().embed(("hello", "world"))
        b = MockEmbeddingProvider().embed(("hello", "world"))
        assert a.shape == b.shape == (2, 16)  # a row per token
        np.testing.assert_array_equal(a, b)

    def test_mock_vectors_are_pinned(self):
        # shake_256 words through (w >> 11) * 2**-52 - 1, exactly: the same
        # bits on every platform and Python and numpy version
        got = MockEmbeddingProvider().embed(("hello", "\u6f22\u5b57"))
        assert [[x.hex() for x in row] for row in got.tolist()] == [
            ["-0x1.69dd06ff2fa6cp-5", "0x1.3067e4ef1e9bap-8", "0x1.323ebefabd7fap-2",
             "-0x1.bec932f5129f0p-4", "-0x1.d65cb89bcd7d6p-2", "-0x1.62ff4c489c8b6p-2",
             "-0x1.0f8fbdc41b55cp-4", "0x1.7445ccd896c78p-2", "0x1.7cb34383ae964p-3",
             "0x1.231694cb74c4cp-6", "-0x1.808219c82c327p-3", "0x1.4484d00f8df3fp-2",
             "-0x1.ac389775ca67cp-3", "0x1.807c7b472032fp-2", "-0x1.beaf346e91451p-3",
             "-0x1.4b0386fe5441ap-3"],
            ["0x1.290b81d196f20p-2", "0x1.e89061f072b6dp-4", "0x1.972af8fde0610p-2",
             "0x1.d6f458dac225ap-5", "-0x1.95dd848868032p-2", "-0x1.6f827309281dcp-4",
             "0x1.d33276dd1bc27p-3", "0x1.ef8e8ac58e2ccp-4", "0x1.752e1cee8185cp-3",
             "-0x1.a6fe963e0e10ap-3", "-0x1.e12f825b75b31p-3", "-0x1.12f4448a8a77fp-5",
             "-0x1.851a2563fdb18p-2", "-0x1.4378cbfce7034p-2", "0x1.735c19e00b994p-2",
             "-0x1.705ae095f54c0p-6"],
        ]

    def test_mock_vectors_unit_norm(self):
        m = MockEmbeddingProvider().embed(tuple("a few test tokens".split()))
        assert m.shape == (4, 16)
        assert np.all(np.abs(np.linalg.norm(m, axis=1) - 1.0) < 1e-12)

    def test_mock_text_with_no_token_is_zero_rows(self):
        assert MockEmbeddingProvider().embed(()).shape == (0, 16)
        table = TokenTable(MockEmbeddingProvider(), [" ", "one"])
        assert table.matrix(" ").shape == (0, 16)
        assert TokenTable(MockEmbeddingProvider(), [" "]).matrix(" ").shape[0] == 0

    @given(vocabulary_and_texts())
    def test_matches_pure_python_greedy_matching(self, case):
        vocab, cand, ref = case
        got = score(" ".join(cand), " ".join(ref), FixedProvider(vocab))
        want = greedy_match_oracle([vocab[t] for t in cand], [vocab[t] for t in ref])
        assert abs(got[0] - want[0]) < 1e-9 and abs(got[1] - want[1]) < 1e-9, (got, want)
        # F1 divides by precision + recall: where that nears 0 (cosines can be
        # negative), last-bit differences in the two sums grow without bound
        if abs(want[0] + want[1]) >= 0.01:
            assert abs(got[2] - want[2]) < 1e-9, (got, want)


class Counting(MockEmbeddingProvider):
    """A mock provider that records the tokens of each call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def embed(self, tokens):
        self.calls.append(tokens)
        return super().embed(tokens)


class TestTokenTable:
    @pytest.mark.parametrize("n", [1, EMBED_BATCH, EMBED_BATCH + 1, 600])
    def test_each_distinct_token_embedded_once(self, n):
        words = [f"w{i}" for i in range(n)]
        texts = [" ".join(words[i:i + 7]) for i in range(0, n, 3)] + [" ".join(words)] * 2
        provider = Counting()
        table = TokenTable(provider, texts)
        assert all(type(call) is tuple for call in provider.calls)
        assert [len(call) for call in provider.calls] == (
            [EMBED_BATCH] * (n // EMBED_BATCH) + [n % EMBED_BATCH] * bool(n % EMBED_BATCH))
        assert len(provider.calls) == -(-n // EMBED_BATCH)
        assert [t for call in provider.calls for t in call] == words  # first-seen order
        assert (len(table.rows), table.requests) == (n, len(provider.calls))

    def test_no_token_makes_no_call(self):
        provider = Counting()
        table = TokenTable(provider, ["", "  \n"])
        assert provider.calls == [] and table.requests == 0
        with pytest.raises(EmptyText):
            bertscore("", " ", table)

    def test_scores_equal_per_text_matrices_bit_for_bit(self):
        # the same greedy matching on each text's own (tokens, dim) matrix
        def per_text(candidate, reference):
            embed = MockEmbeddingProvider().embed
            sim = embed(tuple(candidate.split())) @ embed(tuple(reference.split())).T
            p, r = float(sim.max(axis=1).mean()), float(sim.max(axis=0).mean())
            return p, r, 2 * p * r / (p + r) if p + r != 0 else 0.0

        rng = random.Random(7)
        vocab = [f"tok{i}" for i in range(300)] + ["café", "漢字", "a"]
        texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 40)))
                 for _ in range(60)]
        table = TokenTable(MockEmbeddingProvider(), texts)
        assert table.requests == 2  # 303 distinct tokens at most, more than one batch
        for cand, ref in zip(texts, texts[1:] + texts[:1]):
            assert bertscore(cand, ref, table) == per_text(cand, ref)
            np.testing.assert_array_equal(table.matrix(cand),
                                          MockEmbeddingProvider().embed(tuple(cand.split())))


def _reply(entries):
    return json.dumps({"object": "list", "data": entries, "model": "embed-small"}).encode()


def _index_reply(body):
    """An OpenAI-style reply whose vector for "t<k>" is (1, k)."""
    return _reply([{"object": "embedding", "index": i, "embedding": [1.0, float(t[1:])]}
                   for i, t in enumerate(body["input"])])


class TestHttpEmbeddingProvider:
    def test_vectors_unit_normalised(self):
        reply = _reply([{"index": 0, "embedding": [3.0, 4.0]},
                        {"index": 1, "embedding": [0.0, 2.5]},
                        {"index": 2, "embedding": [0.0, 0.0]}])
        with MockChatServer(script=[reply]) as server:
            provider = HttpEmbeddingProvider(server.base_url + "/v1", "embed-small")
            out = provider.embed(("acme", "corp", "pad"))
            assert server.requests == [{"model": "embed-small", "input": ["acme", "corp", "pad"]}]
            assert server.paths == ["/v1/embeddings"]
        assert out.shape == (3, 2)  # a row per token: "acme", "corp", "pad"
        np.testing.assert_allclose(out[0], [0.6, 0.8])
        np.testing.assert_allclose(out[1], [0.0, 1.0])
        np.testing.assert_array_equal(out[2], [0.0, 0.0])  # a zero vector stays zero

    def test_distinct_tokens_go_out_in_batches(self):
        texts = [" ".join(f"t{k}" for k in range(i, min(i + 10, 600))) for i in range(0, 600, 5)]
        with MockChatServer(reply_fn=_index_reply) as server:
            table = TokenTable(HttpEmbeddingProvider(server.base_url, "embed-small"), texts)
        inputs = [body["input"] for body in server.requests]
        assert [len(i) for i in inputs] == [256, 256, 88]
        assert [t for i in inputs for t in i] == [f"t{k}" for k in range(600)]
        assert table.requests == 3
        for k in (0, 255, 256, 599):
            np.testing.assert_allclose(table.matrix(f"t{k}")[0], np.array([1, k]) / np.hypot(1, k))

    def test_shuffled_indices_put_rows_in_place(self):
        def shuffled(body):
            entries = json.loads(_index_reply(body))["data"]
            random.Random(3).shuffle(entries)
            return _reply(entries)

        tokens = tuple(f"t{k}" for k in range(20))
        with MockChatServer(reply_fn=shuffled) as server:
            out = HttpEmbeddingProvider(server.base_url, "embed-small").embed(tokens)
        want = np.array([[1.0, k] for k in range(20)])
        np.testing.assert_allclose(out, want / np.linalg.norm(want, axis=1)[:, None])

    @pytest.mark.parametrize("entry", [
        503,
        404,
        b"not json",
        b'{"data": []}',  # no row for either token
        b'{"data": {"index": 0}}',
        _reply([{"index": 0, "embedding": [1.0, 0.0]}]),  # one row for two tokens
        _reply([{"index": i, "embedding": [1.0, 0.0]} for i in range(3)]),  # three rows
        _reply([{"index": 0, "embedding": [1.0, 0.0]}, {"embedding": [0.0, 1.0]}]),  # no index
        _reply([{"index": 0, "embedding": [1.0, 0.0]}, {"index": 0, "embedding": [0.0, 1.0]}]),
        _reply([{"index": 0, "embedding": [1.0, 0.0]}, {"index": 2, "embedding": [0.0, 1.0]}]),
        _reply([{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1}]),  # no embedding
    ])
    def test_error_or_malformed_reply_raises(self, entry):
        with MockChatServer(script=[entry]) as server:
            provider = HttpEmbeddingProvider(server.base_url, "embed-small")
            with pytest.raises(ApiError):
                provider.embed(("acme", "corp"))

    @pytest.mark.parametrize("embeddings", [
        [[3.0, 4.0], [1.0]],  # ragged rows
        [[3.0, 4.0], ["x", 1.0]],  # a non-numeric entry
        [[3.0, 4.0], [None, 1.0]],
        [[3.0, 4.0], ["1.0", 1.0]],  # a number in a string
        [[3.0, 4.0], [float("nan"), 1.0]],
        [3.0, 4.0],  # numbers, not rows
        [[[3.0, 4.0]], [[1.0, 0.0]]],  # rows of rows
    ])
    def test_malformed_embeddings_raise_api_error(self, embeddings):
        reply = _reply([{"index": i, "embedding": e} for i, e in enumerate(embeddings)])
        with MockChatServer(script=[reply]) as server:
            provider = HttpEmbeddingProvider(server.base_url, "embed-small")
            with pytest.raises(ApiError, match="malformed embeddings body"):
                TokenTable(provider, ["acme corp", "acme corp"])

    def test_text_with_no_token_is_empty_text(self):
        with MockChatServer(reply_fn=_index_reply) as server:
            table = TokenTable(HttpEmbeddingProvider(server.base_url, "embed-small"), [" ", "t1"])
            assert server.requests == [{"model": "embed-small", "input": ["t1"]}]
        assert table.matrix(" ").shape == (0, 2)
        with pytest.raises(EmptyText):
            bertscore(" ", "t1", table)
