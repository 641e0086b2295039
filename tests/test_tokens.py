import base64
import itertools
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from warc2meta.errors import VocabularyLoadError
from warc2meta.tokens import (
    PriceConfig,
    TokenizerHandle,
    count_tokens,
    encode,
    load_vocabulary,
    reduction_report,
)

PINNED_VOCAB = {
    b"he": 1,
    b"ll": 2,
    b"llo": 3,
    b"hello": 4,
    b" w": 5,
    b"or": 6,
    b"orl": 7,
    b"ab": 8,
    b"abc": 9,
}

TOK = TokenizerHandle(vocabulary=PINNED_VOCAB)

PRICES = PriceConfig(
    price_per_million_input=Decimal("2.50"),
    price_per_million_output=Decimal("10.00"),
)


def naive_encode(text: str, vocab) -> list:
    """Reference BPE: rescan every adjacent pair before each merge; take the
    lowest rank, leftmost on a tie."""
    parts = [bytes([b]) for b in text.encode("utf-8")]
    while len(parts) > 1:
        best = None
        for i in range(len(parts) - 1):
            rank = vocab.get(parts[i] + parts[i + 1])
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, i)
        if best is None:
            break
        i = best[1]
        parts[i : i + 2] = [parts[i] + parts[i + 1]]
    return parts


WORDS = (
    "service quality customer project design build support team office "
    "client solution product market delivery local global trusted expert "
    "partner value care system network planning growth community training "
    "café crème 漢字 企業 😀 naïve www ...... ------- 1000000"
).split()


def make_text(chars: int, seed: int) -> str:
    """`chars` characters of seeded random WORDS."""
    rng = random.Random(seed)
    words = []
    length = 0
    while length < chars:
        words.append(rng.choice(WORDS))
        length += len(words[-1]) + 1
    return " ".join(words)[:chars]


def train_ranks(text: str, merges: int) -> dict:
    """Rank table of the first `merges` most frequent adjacent pairs of
    text, each counted after the merges before it."""
    parts = [bytes([b]) for b in text.encode("utf-8")]
    ranks = {}
    while len(ranks) < merges and len(parts) > 1:
        pairs = Counter(map(bytes.__add__, parts, parts[1:]))
        for token in ranks:
            del pairs[token]
        if not pairs:
            break
        token = pairs.most_common(1)[0][0]
        ranks[token] = len(ranks)
        merged = []
        i = 0
        while i < len(parts):
            if i + 1 < len(parts) and parts[i] + parts[i + 1] == token:
                merged.append(token)
                i += 2
            else:
                merged.append(parts[i])
                i += 1
        parts = merged
    return ranks


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("", TOK) == 0
        assert count_tokens("", None) == 0

    def test_fallback_estimator(self):
        assert count_tokens("123456789", None) == 3  # ceil(9/4)
        assert count_tokens("1234", None) == 1

    def test_frozen_pinned_counts(self):
        # hand-simulated greedy merges over the pinned vocabulary
        assert count_tokens("hello", TOK) == 1
        assert count_tokens("abc", TOK) == 1
        assert count_tokens("abab", TOK) == 2
        assert count_tokens("world", TOK) == 3  # w, orl, d
        assert count_tokens("xyz", TOK) == 3  # no merges apply

    def test_oracle_equality_fixed_strings(self):
        for text in ["hello world", "abcabcabc", "he llo", "zzz", "a", ""]:
            assert len(naive_encode(text, PINNED_VOCAB)) == count_tokens(text, TOK)

    @given(st.text(alphabet="helo wrabc", max_size=64))
    def test_oracle_equality_random(self, text):
        assert len(naive_encode(text, PINNED_VOCAB)) == count_tokens(text, TOK)

    @given(st.text(max_size=200))
    def test_decode_roundtrip(self, text):
        assert b"".join(encode(text, TOK)) == text.encode("utf-8")

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert count_tokens(text, TOK) == count_tokens(text, TOK)

    @given(st.text(max_size=100), st.text(max_size=20))
    def test_fallback_monotone_in_length(self, a, b):
        assert count_tokens(a + b, None) >= count_tokens(a, None)


# Every rank order of the run tokens: merges of a run leave stale heap
# entries behind and make equal-rank pairs compete, so the leftmost-first
# tie-break decides the parts.
RUN_VOCABS = [
    {token: rank for rank, token in enumerate(order)}
    for order in itertools.permutations([b"aa", b"aaa", b"aaaa"])
]

MULTIBYTE_VOCAB = {
    token: rank
    for rank, token in enumerate(
        [
            "é".encode(), "😀".encode()[:2], b"a ", "😀".encode()[:3],
            "😀".encode(), "漢".encode()[:2], b"aa", "é".encode() + b"a",
            "漢".encode(), " 😀".encode(), b"a" + "漢".encode()[:1],
            "😀".encode()[3:] + b"a", "éé".encode(), b" a",
        ]
    )
}


class TestEncodeOracle:
    @pytest.mark.parametrize("vocab", RUN_VOCABS)
    def test_runs(self, vocab):
        tok = TokenizerHandle(vocabulary=vocab)
        for n in range(1, 40):
            assert encode("a" * n, tok) == naive_encode("a" * n, vocab)

    @given(st.text(alphabet="a b", min_size=100, max_size=300),
           st.sampled_from(RUN_VOCABS))
    def test_long_runs_with_breaks(self, text, vocab):
        vocab = {**vocab, b"a ": len(vocab), b" a": len(vocab) + 1}
        tok = TokenizerHandle(vocabulary=vocab)
        assert encode(text, tok) == naive_encode(text, vocab)

    @given(st.text(alphabet="aé漢😀 ", min_size=35, max_size=100))
    def test_multibyte_tokens(self, text):
        tok = TokenizerHandle(vocabulary=MULTIBYTE_VOCAB)
        assert encode(text, tok) == naive_encode(text, MULTIBYTE_VOCAB)

    def test_trained_table_on_long_text(self):
        # a table trained as real ones are, on text with multibyte characters
        ranks = train_ranks(make_text(12_000, seed=0), 300)
        assert len(ranks) == 300
        text = make_text(2_000, seed=2_000)
        assert encode(text, TokenizerHandle(vocabulary=ranks)) == naive_encode(text, ranks)


class TestVocabularyLoading:
    def test_rank_table_roundtrip(self, tmp_path):
        path = tmp_path / "vocab.txt"
        lines = [
            f"{base64.b64encode(tok).decode()} {rank}"
            for tok, rank in PINNED_VOCAB.items()
        ]
        path.write_text("\n".join(lines))
        tok = load_vocabulary(path)
        assert tok.vocabulary == PINNED_VOCAB
        assert count_tokens("hello", tok) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(VocabularyLoadError):
            load_vocabulary(tmp_path / "nope.txt")

    def test_garbled_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-base64!!! x\n")
        with pytest.raises(VocabularyLoadError):
            load_vocabulary(path)

    def test_duplicate_ranks_rejected(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text(
            f"{base64.b64encode(b'aa').decode()} 1\n"
            f"{base64.b64encode(b'bb').decode()} 1\n"
        )
        with pytest.raises(VocabularyLoadError):
            load_vocabulary(path)


class TestReductionReport:
    def test_headline_magnitude(self):
        before = count_tokens("x" * 4_000_000, None)  # 1,000,000 fallback tokens
        after = count_tokens("x" * 4_000, None)  # 1,000 fallback tokens
        report = reduction_report(before, after, PRICES)
        assert report.tokens_before == 1_000_000
        assert report.tokens_after == 1_000
        assert report.reduction_ratio == Fraction(999, 1000)

    def test_no_reduction(self):
        report = reduction_report(1, 1, PRICES)
        assert report.reduction_ratio == 0

    def test_empty_before_degenerate(self):
        report = reduction_report(0, 1, PRICES)
        assert report.reduction_ratio == 0

    def test_ratio_identity_exact(self):
        report = reduction_report(1000, 75, PRICES)
        assert report.reduction_ratio == 1 - Fraction(
            report.tokens_after, report.tokens_before
        )

    def test_cost_identity_exact(self):
        report = reduction_report(1_000_000, 1_000, PRICES)
        for tokens, cost in (
            (report.tokens_before, report.cost_before),
            (report.tokens_after, report.cost_after),
        ):
            expected = (
                Decimal(tokens) / Decimal(1_000_000) * PRICES.price_per_million_input
            ).quantize(Decimal("0.000001"))
            assert cost == expected

    def test_approximate_flag(self):
        assert reduction_report(1, 1, PRICES).approximate
        assert not reduction_report(1, 1, PRICES, TOK).approximate
