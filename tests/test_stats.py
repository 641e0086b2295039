import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from warc2meta.errors import (
    DegenerateMatrix,
    EmptyAfterFiltering,
    MalformedCsv,
    NoDiscordantPairs,
    UnknownVerdict,
)
from warc2meta.stats import (
    GradingMatrix,
    chi_square_survival,
    cochran_q,
    ingest_grading,
    mcnemar,
)


def chi2_survival_oracle(x, df):
    """Numerical integration of the chi-square density tail."""
    a = mpmath.mpf(df) / 2
    density = lambda t: t ** (a - 1) * mpmath.e ** (-t / 2) / (
        2**a * mpmath.gamma(a)
    )
    return float(mpmath.quad(density, [x, mpmath.inf]))


def _matrix(cells, labels=None):
    k = len(cells[0])
    labels = labels or [f"t{j}" for j in range(k)]
    return GradingMatrix(
        subjects=[f"s{i}" for i in range(len(cells))],
        treatments=labels,
        cells=[list(row) for row in cells],
    )


class TestChiSquareSurvival:
    def test_zero_is_one(self):
        assert chi_square_survival(0, 1) == 1.0
        assert chi_square_survival(0, 5) == 1.0

    @pytest.mark.parametrize("df", [0, -1, 2.5])
    def test_df_not_a_positive_integer_rejected(self, df):
        with pytest.raises(ValueError, match="df must be an integer >= 1"):
            chi_square_survival(1.0, df)

    def test_df2_closed_form(self):
        assert abs(chi_square_survival(3, 2) - math.exp(-1.5)) < 1e-12

    def test_df1_standard_normal_relation(self):
        # survival = 2 * (1 - Phi(sqrt(x)))
        assert abs(chi_square_survival(3.841, 1) - 0.0500) < 5e-4
        expected = 2 * (1 - 0.5 * (1 + math.erf(math.sqrt(3.841) / math.sqrt(2))))
        assert abs(chi_square_survival(3.841, 1) - expected) < 1e-12

    def test_against_integration_oracle(self):
        rng = random.Random(12345)
        mpmath.mp.dps = 30
        for _ in range(60):
            df = rng.randint(1, 30)
            x = rng.uniform(0.01, 100.0)
            assert abs(chi_square_survival(x, df) - chi2_survival_oracle(x, df)) < 1e-10

    def test_monotone_decreasing_in_x(self):
        values = [chi_square_survival(x, 4) for x in (0.5, 1, 2, 5, 10, 40)]
        assert values == sorted(values, reverse=True)

    def test_increasing_in_df(self):
        values = [chi_square_survival(5.0, df) for df in (1, 2, 5, 10, 30)]
        assert values == sorted(values)


class TestCochranQ:
    def test_derived_fixture(self):
        m = _matrix([(1, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 0)])
        result = cochran_q(m)
        assert result.statistic == pytest.approx(3.0)
        assert result.degrees_of_freedom == 2
        assert result.p_value == pytest.approx(math.exp(-1.5), abs=1e-10)
        assert not result.reject_null

    def test_degenerate_matrix(self):
        with pytest.raises(DegenerateMatrix):
            cochran_q(_matrix([(1, 1, 1), (0, 0, 0)]))

    def test_decision_consistent_with_alpha(self):
        m = _matrix([(1, 0, 0)] * 12 + [(1, 1, 1)] * 3)
        result = cochran_q(m)
        assert result.reject_null == (result.p_value < 0.05)

    def test_row_permutation_invariance(self):
        rows = [(1, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (0, 1, 0)]
        base = cochran_q(_matrix(rows)).statistic
        rng = random.Random(3)
        for _ in range(5):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert cochran_q(_matrix(shuffled)).statistic == pytest.approx(base)


class TestMcnemar:
    def _discordant_matrix(self, b, c, concordant=3):
        cells = [[1, 0]] * b + [[0, 1]] * c + [[1, 1]] * concordant
        return _matrix(cells, labels=["A", "B"])

    def test_symmetric_counts(self):
        result = mcnemar(self._discordant_matrix(7, 7), "A", "B")
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_uncorrected_15_5(self):
        result = mcnemar(self._discordant_matrix(15, 5), "A", "B")
        assert result.statistic == pytest.approx(5.0)
        assert result.degrees_of_freedom == 1
        assert result.p_value == pytest.approx(0.0253, abs=1e-4)

    def test_corrected_15_5(self):
        result = mcnemar(self._discordant_matrix(15, 5), "A", "B", correction=True)
        assert result.statistic == pytest.approx(4.05)

    def test_swap_symmetry(self):
        m = self._discordant_matrix(11, 4)
        assert mcnemar(m, "A", "B").statistic == pytest.approx(
            mcnemar(m, "B", "A").statistic
        )

    def test_no_discordant_pairs(self):
        with pytest.raises(NoDiscordantPairs):
            mcnemar(_matrix([[1, 1], [0, 0]], labels=["A", "B"]), "A", "B")

    def test_exact_small_counts(self):
        # b=5, c=1: exact two-sided binomial tail of min(b,c) over 6 trials
        result = mcnemar(self._discordant_matrix(5, 1), "A", "B", exact=True)
        expected = 2 * (math.comb(6, 0) + math.comb(6, 1)) / 2**6
        assert result.p_value == pytest.approx(expected)

    def test_exact_capped_at_one(self):
        result = mcnemar(self._discordant_matrix(3, 3), "A", "B", exact=True)
        assert result.p_value == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=2, max_size=20))
    def test_cochran_k2_equals_uncorrected_mcnemar(self, rows):
        m = _matrix(rows, labels=["A", "B"])
        b = sum(1 for x, y in rows if x == 1 and y == 0)
        c = sum(1 for x, y in rows if x == 0 and y == 1)
        if b + c == 0:
            with pytest.raises((DegenerateMatrix, NoDiscordantPairs)):
                cochran_q(m)
            return
        q = cochran_q(m)
        mc = mcnemar(m, "A", "B")
        assert q.statistic == pytest.approx(mc.statistic, abs=1e-12)


class TestIngestGrading:
    def _write(self, tmp_path, rows):
        path = tmp_path / "grades.csv"
        lines = ["item_id,source,grader_id,verdict"] + rows
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_complete_matrix(self, tmp_path):
        rows = [
            f"i{i},{s},g1,{'pass' if (i + j) % 2 else 'fail'}"
            for i in range(3)
            for j, s in enumerate(["Human", "Combo2", "Combo3"])
        ]
        m = ingest_grading(self._write(tmp_path, rows))
        assert len(m.subjects) == 3
        assert m.treatments == ["Human", "Combo2", "Combo3"]
        assert m.dropped_incomplete == 0

    def test_incomplete_item_dropped(self, tmp_path):
        rows = [
            "i1,Human,g1,pass",
            "i1,Combo2,g1,pass",
            "i2,Human,g1,pass",  # missing Combo2 verdict
        ]
        m = ingest_grading(self._write(tmp_path, rows))
        assert m.subjects == ["i1"]
        assert m.dropped_incomplete == 1

    def test_majority_with_tie_fails(self, tmp_path):
        rows = [
            "i1,Human,g1,pass",
            "i1,Human,g2,fail",
            "i1,Combo2,g1,pass",
            "i1,Combo2,g2,pass",
            "i1,Combo2,g3,fail",
        ]
        m = ingest_grading(self._write(tmp_path, rows))
        assert m.cells == [[0, 1]]  # tie -> fail; 2/3 majority -> pass

    def test_unknown_verdict(self, tmp_path):
        path = self._write(tmp_path, ["i1,Human,g1,maybe"])
        with pytest.raises(UnknownVerdict):
            ingest_grading(path)

    @pytest.mark.parametrize("text", [
        "verdict,item_id,source,grader_id\npass,i1,Human,g1\npass\n",
        "item_id,source,grader_id,verdict\ni1,Human,g1,pass\ni1,Combo2,g1\n",  # no verdict
    ])
    def test_row_shorter_than_header(self, tmp_path, text):
        path = tmp_path / "grades.csv"
        path.write_text(text)
        with pytest.raises(MalformedCsv, match=rf"^{re.escape(str(path))}: line 3: too few fields$"):
            ingest_grading(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MalformedCsv):
            ingest_grading(path)

    def test_empty_after_filtering(self, tmp_path):
        rows = ["i1,Human,g1,pass", "i2,Combo2,g1,pass"]
        with pytest.raises(EmptyAfterFiltering):
            ingest_grading(self._write(tmp_path, rows))
