"""Per-combination scoring and ranked aggregation.

Each prompt x heuristic combination gets three criteria: median title
edit distance (lower is better), median abstract embedding-similarity
F1 (higher is better), and its population standard deviation (lower is
better). Competition ranks per criterion are summed, and the sum is
ranked again to give the final score; tied sums share a score, so more
than one combination can hold score 1.
"""

import statistics
from typing import List, NamedTuple, Sequence, Tuple

from .errors import EmptyText, NoOverlap
from .metrics import TokenTable, bertscore, levenshtein
from .prompts import GeneratedMetadata


class ScorePair(NamedTuple):
    site_id: str
    title_levenshtein: int
    title_bertscore_f1: float
    abstract_bertscore_f1: float


class CombinationStats(NamedTuple):
    combination_id: int
    lev_median: float
    bs_median: float
    bs_std: float


class RankedCombination(NamedTuple):
    stats: CombinationStats
    rank_sum: int
    final_score: int


def score_pairs(
    joined: Sequence[Tuple[GeneratedMetadata, Tuple[str, str]]], table: TokenTable
) -> List[ScorePair]:
    """Score each generated row against its site's reference (title,
    abstract), with every token's vector from table; a pair with a text of
    no token cannot be scored and is left out."""
    pairs = []
    for gen, (title, abstract) in joined:
        try:
            title_f1 = bertscore(gen.title, title, table)[2]
            abstract_f1 = bertscore(gen.abstract, abstract, table)[2]
        except EmptyText:
            continue
        pairs.append(ScorePair(gen.site_id, levenshtein(gen.title, title), title_f1, abstract_f1))
    return pairs


def score_combination(pairs: Sequence[ScorePair], combo: int) -> CombinationStats:
    """Aggregate combination combo's score_pairs output into medians and dispersion."""
    if not pairs:
        raise NoOverlap("no site_id overlap between generated and reference")
    abstract_f1s = [p.abstract_bertscore_f1 for p in pairs]
    return CombinationStats(
        combination_id=combo,
        lev_median=statistics.median(p.title_levenshtein for p in pairs),
        bs_median=statistics.median(abstract_f1s),
        bs_std=statistics.pstdev(abstract_f1s),
    )


def _competition_ranks(values: Sequence, reverse: bool = False) -> List[int]:
    """1-based competition ranks; ties share the minimum rank (1,1,3,...)."""
    order = sorted(values, reverse=reverse)
    return [order.index(v) + 1 for v in values]


def rank_combinations(all_stats: Sequence[CombinationStats]) -> List[RankedCombination]:
    """Rank per criterion, sum, and rank the sums into final scores; a lone
    combination has rank sum 3 and final score 1."""
    rank_lev = _competition_ranks([s.lev_median for s in all_stats])
    rank_bs = _competition_ranks([s.bs_median for s in all_stats], reverse=True)
    rank_std = _competition_ranks([s.bs_std for s in all_stats])
    sums = [a + b + c for a, b, c in zip(rank_lev, rank_bs, rank_std)]
    finals = _competition_ranks(sums)
    ranked = [RankedCombination(*row) for row in zip(all_stats, sums, finals)]
    ranked.sort(key=lambda r: (r.final_score, r.stats.combination_id))
    return ranked
