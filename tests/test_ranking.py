import pytest

from warc2meta.errors import NoOverlap
from warc2meta.metrics import MockEmbeddingProvider, TokenTable
from warc2meta.prompts import GeneratedMetadata
from warc2meta.ranking import (
    CombinationStats,
    rank_combinations,
    score_combination,
    score_pairs,
)


def _meta(site_id, title, abstract):
    return GeneratedMetadata(
        title=title, abstract=abstract, source="combo2", site_id=site_id
    )


def _ref(rows):
    """A reference mapping {site_id: (title, abstract)} of rows."""
    return {r.site_id: (r.title, r.abstract) for r in rows}


def _joined(generated, reference):
    """Each generated row that has a reference row, with it."""
    return [(g, reference[g.site_id]) for g in generated if g.site_id in reference]


def _table(generated, reference):
    """A mock-embedding token table of every generated and reference text."""
    texts = [t for g in generated for t in (g.title, g.abstract)]
    return TokenTable(MockEmbeddingProvider(), texts + [t for r in reference.values() for t in r])


def _stats(combo, lev, bs, std):
    return CombinationStats(
        combination_id=combo,
        lev_median=lev,
        bs_median=bs,
        bs_std=std,
    )


def _combination(pairs):
    return score_combination(pairs, 2)


class TestScoreCombination:
    def test_exact_match(self):
        rows = [
            _meta("s1", "Acme", "Makes instruments for labs"),
            _meta("s2", "Beta", "Sells fresh produce daily"),
        ]
        pairs = score_pairs(_joined(rows, _ref(rows)), _table(rows, _ref(rows)))
        stats = _combination(pairs)
        assert stats.lev_median == 0
        assert abs(stats.bs_median - 1.0) < 1e-9
        assert stats.bs_std < 1e-9
        assert len(pairs) == 2
        assert stats.combination_id == 2

    def test_even_length_median(self):
        generated = [
            _meta("s1", "ax", "same abstract text"),
            _meta("s2", "abcd", "same abstract text"),
        ]
        reference = {"s1": ("by", "same abstract text"), "s2": ("abwxyz", "same abstract text")}
        from warc2meta.metrics import levenshtein

        # title distances {2, 4}: even-length median is the central mean
        assert levenshtein("ax", "by") == 2
        assert levenshtein("abcd", "abwxyz") == 4
        pairs = score_pairs(_joined(generated, reference), _table(generated, reference))
        stats = _combination(pairs)
        assert stats.lev_median == 3.0

    def test_three_site_hand_computed(self):
        generated = [
            _meta("s1", "Acme", "alpha beta"),
            _meta("s2", "Bravo", "gamma delta"),
            _meta("s3", "Crow", "epsilon zeta"),
        ]
        reference = {
            "s1": ("Acme", "alpha beta"),
            "s2": ("Brave", "gamma delta"),
            "s3": ("Crown", "iota kappa"),
        }
        table = _table(generated, reference)
        pairs = score_pairs(_joined(generated, reference), table)
        import statistics

        from warc2meta.metrics import bertscore, levenshtein

        exp_levs = [levenshtein(g.title, reference[g.site_id][0]) for g in generated]
        exp_f1s = [
            bertscore(g.abstract, reference[g.site_id][1], table)[2]
            for g in generated
        ]
        stats = _combination(pairs)
        assert [p.title_levenshtein for p in pairs] == exp_levs
        assert stats.lev_median == statistics.median(exp_levs)
        assert abs(stats.bs_median - statistics.median(exp_f1s)) < 1e-12
        assert abs(stats.bs_std - statistics.pstdev(exp_f1s)) < 1e-12

    def test_no_overlap(self):
        generated, reference = [_meta("s1", "A", "t")], {"s2": ("A", "t")}
        with pytest.raises(NoOverlap):
            pairs = score_pairs(_joined(generated, reference), _table(generated, reference))
            _combination(pairs)


class TestRankCombinations:
    def test_three_combination_fixture(self):
        stats = [
            _stats(0, 2, 0.90, 0.01),  # A: ranks 2,2,1 -> 5
            _stats(1, 5, 0.80, 0.02),  # B: ranks 3,3,2 -> 8
            _stats(2, 1, 0.95, 0.03),  # C: ranks 1,1,3 -> 5
        ]
        ranked = rank_combinations(stats)
        by_combo = {r.stats.combination_id: r for r in ranked}
        assert by_combo[0].rank_sum == 5
        assert by_combo[1].rank_sum == 8
        assert by_combo[2].rank_sum == 5
        assert by_combo[0].final_score == 1
        assert by_combo[2].final_score == 1
        assert by_combo[1].final_score == 3

    def test_total_tie_all_score_one(self):
        stats = [_stats(i, 3, 0.8, 0.02) for i in range(6)]
        ranked = rank_combinations(stats)
        assert all(r.final_score == 1 for r in ranked)

    def test_domination(self):
        stats = [_stats(0, 1, 0.99, 0.001), _stats(1, 9, 0.50, 0.1)]
        ranked = rank_combinations(stats)
        assert [r.final_score for r in ranked] == [1, 2]

    def test_best_rank_sum_is_always_one(self):
        import random

        rng = random.Random(99)
        for _ in range(50):
            stats = [
                _stats(i, rng.randint(0, 9), rng.random(), rng.random() / 10)
                for i in range(6)
            ]
            ranked = rank_combinations(stats)
            assert min(r.final_score for r in ranked) == 1
            best_sum = min(r.rank_sum for r in ranked)
            for r in ranked:
                assert (r.final_score == 1) == (r.rank_sum == best_sum)

    def test_monotone_transform_invariance(self):
        stats = [_stats(i, i + 1, 0.9 - i / 10, 0.01 * (i + 1)) for i in range(4)]
        transformed = [
            _stats(s.combination_id, s.lev_median * 7 + 3, s.bs_median, s.bs_std)
            for s in stats
        ]
        a = [(r.stats.combination_id, r.final_score) for r in rank_combinations(stats)]
        b = [(r.stats.combination_id, r.final_score) for r in rank_combinations(transformed)]
        assert a == b

    def test_single_combination_scores_one(self):
        [ranked] = rank_combinations([_stats(2, 1, 0.9, 0.01)])
        assert (ranked.stats.combination_id, ranked.rank_sum, ranked.final_score) == (2, 3, 1)

    def test_no_combination_ranks_to_nothing(self):
        assert rank_combinations([]) == []

    def test_output_sorted(self):
        stats = [_stats(i, 6 - i, 0.5 + i / 20, 0.05 - i / 200) for i in range(6)]
        ranked = rank_combinations(stats)
        keys = [(r.final_score, r.stats.combination_id) for r in ranked]
        assert keys == sorted(keys)
