"""BPE token counting and cost-reduction reporting.

The tokenizer is loaded from a rank-table file (one "base64token rank"
pair per line). Without a vocabulary, a ceil(chars/4) estimator is used
and reports are flagged approximate. Currency arithmetic is exact
decimal with 6 fractional digits; reduction ratios are exact fractions.
"""

import base64
import heapq
import math
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .config import PriceConfig
from .errors import VocabularyLoadError

_CENTS = Decimal("0.000001")


class TokenizerHandle(NamedTuple):
    vocabulary: Dict[bytes, int]


def load_vocabulary(path) -> TokenizerHandle:
    """Load a tiktoken-style rank table: base64 token, space, integer rank."""
    ranks: Dict[bytes, int] = {}
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    token_b64, rank_s = line.split()
                    token = base64.b64decode(token_b64, validate=True)
                    rank = int(rank_s)
                except (ValueError, base64.binascii.Error) as exc:
                    raise VocabularyLoadError(f"{path}:{lineno}: {exc}") from exc
                ranks[token] = rank
    except OSError as exc:
        raise VocabularyLoadError(str(exc)) from exc
    if len(set(ranks.values())) != len(ranks):
        raise VocabularyLoadError(f"{path}: duplicate merge ranks")
    return TokenizerHandle(vocabulary=ranks)


def encode(text: str, tok: TokenizerHandle) -> List[bytes]:
    """Rank-based BPE over the UTF-8 bytes of text.

    Repeatedly merges the adjacent pair whose concatenation has the lowest
    rank, the leftmost one on a tie, until no pair is in the vocabulary.
    Parts are a linked list over byte offsets (part i spans
    data[i:nxt[i]]); candidate pairs wait in a heap keyed by
    (rank, left start, right end), and an entry whose pair has since
    changed is skipped when popped. O(n log n) in the byte length.
    """
    data = text.encode("utf-8")
    n = len(data)
    vocab = tok.vocabulary
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    heap = []
    for i in range(n - 1):
        rank = vocab.get(data[i : i + 2])
        if rank is not None:
            heap.append((rank, i, i + 2))
    heapq.heapify(heap)
    while heap:
        _rank, i, end = heapq.heappop(heap)
        j = nxt[i]
        # stale: part i was merged into its left neighbour (j == -1), or
        # part i or the part after it has grown since the entry was pushed
        # (the pair no longer ends at `end`, or part i is now the last part)
        if j < 0 or j >= n or nxt[j] != end:
            continue
        nxt[i] = end
        nxt[j] = -1
        if end < n:
            prv[end] = i
            rank = vocab.get(data[i : nxt[end]])
            if rank is not None:
                heapq.heappush(heap, (rank, i, nxt[end]))
        left = prv[i]
        if left >= 0:
            rank = vocab.get(data[left:end])
            if rank is not None:
                heapq.heappush(heap, (rank, left, end))
    parts = []
    i = 0
    while i < n:
        parts.append(data[i : nxt[i]])
        i = nxt[i]
    return parts


def count_tokens(text: str, tok: Optional[TokenizerHandle]) -> int:
    """Token count under the loaded vocabulary, or ceil(chars/4) without one."""
    if tok is None:
        return math.ceil(len(text) / 4)
    return len(encode(text, tok))


def truncate(
    text: str, max_tokens: int, tok: Optional[TokenizerHandle]
) -> Tuple[str, int, int]:
    """Cut text to at most max_tokens tokens from one encode of it.

    Returns (prefix, tokens in text, tokens in prefix); max_tokens <= 0
    keeps all of text. With a vocabulary the prefix is the longest one
    that ends on a token boundary of text's encoding and on a character
    boundary. No merge crosses a boundary of the final encoding, so the
    prefix encodes to exactly the tokens it kept. Without a vocabulary
    the prefix is the first max_tokens * 4 characters.
    """
    if tok is None:
        prefix = text[: max_tokens * 4] if max_tokens > 0 else text
        return prefix, count_tokens(text, None), count_tokens(prefix, None)
    parts = encode(text, tok)
    if max_tokens <= 0 or len(parts) <= max_tokens:
        return text, len(parts), len(parts)
    data = b"".join(parts)
    kept = max_tokens
    cut = sum(map(len, parts[:kept]))
    while cut and data[cut] & 0xC0 == 0x80:  # cut inside a UTF-8 character
        kept -= 1
        cut -= len(parts[kept])
    return data[:cut].decode("utf-8"), len(parts), kept


class CostReport(NamedTuple):
    tokens_before: int
    tokens_after: int
    reduction_ratio: Fraction
    cost_before: Decimal
    cost_after: Decimal
    approximate: bool


def _input_cost(tokens: int, prices: PriceConfig) -> Decimal:
    return (
        Decimal(tokens) / Decimal(1_000_000) * prices.price_per_million_input
    ).quantize(_CENTS)


def reduction_report(
    tokens_before: int,
    tokens_after: int,
    prices: PriceConfig,
    tok: Optional[TokenizerHandle] = None,
) -> CostReport:
    """Report the drop from tokens_before to tokens_after, both counted by
    the caller under tok; without tok the report is approximate."""
    ratio = Fraction(0) if tokens_before == 0 else 1 - Fraction(tokens_after, tokens_before)
    return CostReport(
        tokens_before=tokens_before,
        tokens_after=tokens_after,
        reduction_ratio=ratio,
        cost_before=_input_cost(tokens_before, prices),
        cost_after=_input_cost(tokens_after, prices),
        approximate=tok is None,
    )
