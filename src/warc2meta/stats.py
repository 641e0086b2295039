"""Cochran's Q and McNemar's tests over pass/fail grading matrices.

p-values come from the chi-square tail in closed form: for an integer df
it is a finite sum of exp/lgamma terms (plus erfc for odd df), so no
SciPy and no iteration; accuracy is well inside 1e-10 for the df range
these tests produce.
"""

import csv
import json
import math
from collections import defaultdict
from typing import Dict, List, NamedTuple, Tuple

from .errors import (
    DegenerateMatrix,
    EmptyAfterFiltering,
    MalformedCsv,
    NoDiscordantPairs,
    UnknownVerdict,
)

DEFAULT_ALPHA = 0.05


def chi_square_survival(x: float, df: int) -> float:
    """P(chi-square with df degrees of freedom >= x), for an integer df >= 1:
    the finite sum of Abramowitz & Stegun 26.4.4-5 for Q(df/2, x/2)."""
    if x <= 0:
        return 1.0
    if df < 1 or df != int(df):
        raise ValueError(f"df must be an integer >= 1, got {df}")
    half = x / 2.0
    total, a = (math.erfc(math.sqrt(half)), 1.5) if df % 2 else (0.0, 1.0)
    while a <= df / 2.0:
        total += math.exp((a - 1.0) * math.log(half) - half - math.lgamma(a))
        a += 1.0
    return min(1.0, total)


class TestResult(NamedTuple):
    test_name: str
    statistic: float
    degrees_of_freedom: int
    p_value: float
    alpha: float = DEFAULT_ALPHA

    @property
    def reject_null(self) -> bool:
        return self.p_value < self.alpha

    def to_json(self) -> str:
        return json.dumps(
            {
                "test": self.test_name,
                "statistic": self.statistic,
                "df": self.degrees_of_freedom,
                "p_value": self.p_value,
                "alpha": self.alpha,
                "reject_null": self.reject_null,
            },
            sort_keys=True,
        )

    def summary(self) -> str:
        verdict = "reject H0" if self.reject_null else "fail to reject H0"
        return (
            f"{self.test_name}: statistic={self.statistic:.4f} "
            f"df={self.degrees_of_freedom} p={self.p_value:.4f} "
            f"alpha={self.alpha} -> {verdict}"
        )


class GradingMatrix(NamedTuple):
    subjects: List[str]
    treatments: List[str]
    cells: List[List[int]]  # subjects x treatments, 1 = pass
    dropped_incomplete: int = 0

    def column(self, label: str) -> List[int]:
        if label not in self.treatments:
            raise MalformedCsv(f"no source {label!r}; the sources are {self.treatments}")
        j = self.treatments.index(label)
        return [row[j] for row in self.cells]


def ingest_grading(path) -> GradingMatrix:
    """Pivot a grading CSV (item_id, source, grader_id, verdict) to item x source.

    Multiple graders per cell resolve by majority; ties count as fail.
    Items missing a verdict for any source are dropped and counted.
    """
    votes: Dict[Tuple[str, str], List[int]] = defaultdict(list)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            expected = {"item_id", "source", "grader_id", "verdict"}
            if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
                raise MalformedCsv(
                    f"{path}: header must contain {sorted(expected)}"
                )
            for row in reader:
                if any(row[key] is None for key in expected):
                    raise MalformedCsv(f"{path}: line {reader.line_num}: too few fields")
                verdict = row["verdict"].strip().lower()
                if verdict not in ("pass", "fail"):
                    raise UnknownVerdict(f"{path}: verdict {row['verdict']!r}")
                votes[(row["item_id"].strip(), row["source"].strip())].append(verdict == "pass")
    except OSError as exc:
        raise MalformedCsv(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8: {exc}") from exc
    items = list(dict.fromkeys(item for item, _ in votes))  # in order of first appearance
    sources = list(dict.fromkeys(source for _, source in votes))
    if len(sources) < 2:
        raise MalformedCsv(f"{path}: need at least 2 sources")
    kept = [item for item in items if all((item, s) in votes for s in sources)]
    if not kept:
        raise EmptyAfterFiltering(f"{path}: no complete items")
    cells = [[int(sum(votes[(item, s)]) * 2 > len(votes[(item, s)])) for s in sources]
             for item in kept]
    return GradingMatrix(kept, sources, cells, dropped_incomplete=len(items) - len(kept))


def cochran_q(m: GradingMatrix, alpha: float = DEFAULT_ALPHA) -> TestResult:
    """Cochran's Q over k >= 2 related binary treatments."""
    k = len(m.treatments)
    col_totals = [sum(row[j] for row in m.cells) for j in range(k)]
    row_totals = [sum(row) for row in m.cells]
    grand = sum(row_totals)
    denom = k * grand - sum(l * l for l in row_totals)
    if denom == 0:
        raise DegenerateMatrix("every row is constant")
    q = (k - 1) * (k * sum(g * g for g in col_totals) - grand * grand) / denom
    df = k - 1
    return TestResult(
        test_name="CochranQ",
        statistic=q,
        degrees_of_freedom=df,
        p_value=chi_square_survival(q, df),
        alpha=alpha,
    )


def _binomial_two_sided(smaller: int, n: int) -> float:
    tail = sum(math.comb(n, i) for i in range(smaller + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def mcnemar(
    m: GradingMatrix,
    treatment_a: str,
    treatment_b: str,
    correction: bool = False,
    exact: bool = False,
    alpha: float = DEFAULT_ALPHA,
) -> TestResult:
    """McNemar's test on the discordant pairs between two treatments."""
    col_a = m.column(treatment_a)
    col_b = m.column(treatment_b)
    b = sum(1 for x, y in zip(col_a, col_b) if x == 1 and y == 0)
    c = sum(1 for x, y in zip(col_a, col_b) if x == 0 and y == 1)
    if b + c == 0:
        raise NoDiscordantPairs(f"{treatment_a} vs {treatment_b}")
    adj = abs(b - c) - (1 if correction else 0)
    statistic = max(0.0, adj) ** 2 / (b + c)
    if exact and b + c < 25:
        p = _binomial_two_sided(min(b, c), b + c)
    else:
        p = chi_square_survival(statistic, 1)
    return TestResult(
        test_name="McNemar",
        statistic=statistic,
        degrees_of_freedom=1,
        p_value=p,
        alpha=alpha,
    )
