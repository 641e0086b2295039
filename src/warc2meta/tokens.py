"""BPE token counting and cost-reduction reporting.

The tokenizer is loaded from a rank-table file (one "base64token rank"
pair per line). Without a vocabulary, a ceil(chars/4) estimator is used
and reports are flagged approximate. Currency arithmetic is exact
decimal with 6 fractional digits; reduction ratios are exact fractions.
"""

import base64
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Dict, List, Optional

from .errors import VocabularyLoadError

_CENTS = Decimal("0.000001")


@dataclass(frozen=True)
class TokenizerHandle:
    vocabulary: Dict[bytes, int]
    name: str


def load_vocabulary(path, name: str = "") -> TokenizerHandle:
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
    return TokenizerHandle(vocabulary=ranks, name=name or str(path))


def encode(text: str, tok: TokenizerHandle) -> List[bytes]:
    """Greedy rank-based BPE merge over the UTF-8 bytes of text."""
    data = text.encode("utf-8")
    if not data:
        return []
    parts = [data[i : i + 1] for i in range(len(data))]
    vocab = tok.vocabulary
    while len(parts) > 1:
        best_rank = None
        best_idx = -1
        for i in range(len(parts) - 1):
            rank = vocab.get(parts[i] + parts[i + 1])
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_idx = i
        if best_rank is None:
            break
        parts[best_idx : best_idx + 2] = [parts[best_idx] + parts[best_idx + 1]]
    return parts


def count_tokens(text: str, tok: Optional[TokenizerHandle]) -> int:
    """Token count under the loaded vocabulary, or ceil(chars/4) without one."""
    if tok is None:
        return math.ceil(len(text) / 4)
    return len(encode(text, tok))


@dataclass(frozen=True)
class PriceConfig:
    price_per_million_input: Decimal
    price_per_million_output: Decimal


@dataclass(frozen=True)
class CostReport:
    tokens_before: int
    tokens_after: int
    reduction_ratio: Fraction
    cost_before: Decimal
    cost_after: Decimal
    price_per_million_input: Decimal
    price_per_million_output: Decimal
    approximate: bool
    degenerate: bool = False


def _input_cost(tokens: int, prices: PriceConfig) -> Decimal:
    return (
        Decimal(tokens) / Decimal(1_000_000) * prices.price_per_million_input
    ).quantize(_CENTS)


def reduction_report(
    before_texts: List[str],
    after_texts: List[str],
    prices: PriceConfig,
    tok: Optional[TokenizerHandle] = None,
) -> CostReport:
    """Aggregate token counts over both corpora into one CostReport."""
    if prices.price_per_million_input < 0 or prices.price_per_million_output < 0:
        raise ValueError("prices must be nonnegative")
    before = sum(count_tokens(t, tok) for t in before_texts)
    after = sum(count_tokens(t, tok) for t in after_texts)
    degenerate = before == 0
    ratio = Fraction(0) if degenerate else 1 - Fraction(after, before)
    return CostReport(
        tokens_before=before,
        tokens_after=after,
        reduction_ratio=ratio,
        cost_before=_input_cost(before, prices),
        cost_after=_input_cost(after, prices),
        price_per_million_input=prices.price_per_million_input,
        price_per_million_output=prices.price_per_million_output,
        approximate=tok is None,
        degenerate=degenerate,
    )
