"""Acceptance suite: one test per release criterion, each printing a
PASS line on success. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import json
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
import yaml

from warc2meta.config import build
from warc2meta.heuristics import HeuristicId, select
from warc2meta.ingest import ingest_many
from warc2meta.metrics import levenshtein
from warc2meta.prompts import WITH_RULES, WITHOUT_RULES
from warc2meta.ranking import CombinationStats, rank_combinations
from warc2meta.sites import PageRecord, SiteDocument
from warc2meta.stats import GradingMatrix, chi_square_survival, cochran_q, mcnemar
from warc2meta.tokens import PriceConfig, count_tokens, reduction_report
from warc2meta.urlnorm import normalize_url
from warc2meta.warc import open_warc_stream

from helpers import MockChatServer, build_warc, html_page, response_record, run_cli
from test_metrics import FixedProvider, dp_oracle, score
from test_stats import chi2_survival_oracle

PRICES = PriceConfig(Decimal("2.50"), Decimal("10.00"))


def _ok(n, detail=""):
    print(f"ACCEPTANCE {n}: PASS {detail}".rstrip())


def _fixture_corpus(root):
    """Thirteen files covering the parser's edge cases, with expected outcomes."""
    d = root / "corpus"
    d.mkdir()
    expect = {}  # name -> (pages, rejected, duplicates) or "error"

    def site(name, records, gz=False, expected=None):
        path = d / name
        build_warc(path, records, gzipped=gz)
        expect[name] = expected

    body = lambda i: html_page(f"T{i}", f"plenty of genuine page content {i} " * 10)
    site("plain_ok.warc", [
        response_record("https://a.sg/", body=body(1)),
        response_record("https://a.sg/x", body=body(2)),
    ], expected=(2, 0, 0))
    site("gz_ok.warc.gz", [
        response_record("https://b.sg/", body=body(3)),
    ], gz=True, expected=(1, 0, 0))
    site("with_404.warc", [
        response_record("https://c.sg/", body=body(4)),
        response_record("https://c.sg/gone", status=404,
                        body=html_page("Gone", "not here anymore " * 10)),
    ], expected=(1, 1, 0))
    site("lorem.warc", [
        response_record("https://d.sg/", body=body(5)),
        response_record("https://d.sg/draft",
                        body=html_page("Draft", "Lorem ipsum dolor sit amet " * 10)),
    ], expected=(1, 1, 0))
    site("dupes.warc", [
        response_record("https://e.sg/", body=body(6)),
        response_record("https://e.sg/", body=html_page("T6", "longer recrawl text " * 30)),
    ], expected=(1, 0, 1))
    site("non_html.warc", [
        response_record("https://f.sg/logo.png", content_type="image/png",
                        body=b"\x89PNG fake bytes"),
        response_record("https://f.sg/", body=body(7)),
    ], expected=(1, 0, 0))
    site("bad_url.warc", [
        response_record("no-host/page", body=body(10)),
        response_record("https://k.sg/", body=body(11)),
    ], expected=(1, 0, 0))
    site("requests_only.warc", [
        __import__("helpers").warc_record(
            "request", "https://g.sg/", b"GET / HTTP/1.1\r\n\r\n",
            content_type="application/http; msgtype=request"),
    ], expected=(0, 0, 0))
    site("empty.warc.gz", [], gz=True, expected=(0, 0, 0))
    site("short_pages.warc", [
        response_record("https://h.sg/", body=html_page("H", "tiny")),
        response_record("https://h.sg/real", body=body(8)),
    ], expected=(1, 1, 0))
    site("www_variants.warc", [
        response_record("https://www.i.sg/", body=body(9)),
        response_record("https://i.sg/", body=html_page("T9", "bigger of the two variants " * 20)),
    ], expected=(1, 0, 1))
    site("truncated.warc", [
        response_record("https://j.sg/", body=b"x", declared_length=99_999),
    ], expected="error")
    site("garbage.warc", [b"this is not a warc file at all\r\n\r\n"],
         expected="error")
    return d, expect


def _ingest_all(paths):
    """ingest_many's results as (documents, [(path, error line)])."""
    results = list(ingest_many(paths))
    docs = [build(SiteDocument, json.loads(r.row), "row") for r in results if r.row is not None]
    return docs, [(p, r.error) for p, r in zip(paths, results) if r.row is None]


def test_criterion_1_parser_correctness(tmp_path):
    d, expect = _fixture_corpus(tmp_path)
    paths = sorted(d.iterdir())
    assert len(paths) >= 10
    started = time.monotonic()
    docs, errors = _ingest_all(paths)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"parsing took {elapsed:.2f}s"

    # one output row (or one error record) per input file
    assert len(docs) + len(errors) == len(paths)
    by_name = {doc.source_file.split("/")[-1]: doc for doc in docs}
    error_names = {str(p).split("/")[-1] for p, _ in errors}
    for name, expected in expect.items():
        if expected == "error":
            assert name in error_names, f"{name} should have failed"
            continue
        doc = by_name[name]
        pages, rejected, dupes = expected
        assert len(doc.pages) == pages, name
        assert doc.rejected_count == rejected, name
        assert doc.duplicate_count == dupes, name
    # determinism: a second pass produces byte-identical documents
    docs2, _ = _ingest_all(paths)
    assert [d.to_json() for d in docs] == [d.to_json() for d in docs2]
    _ok(1, f"({len(paths)} files in {elapsed:.2f}s)")


def test_ingest_manifest_accounts_for_every_html_record(tmp_path):
    d, expect = _fixture_corpus(tmp_path)
    out = tmp_path / "out"
    result = run_cli(["--output", str(out), "ingest", "--input", str(d)])
    assert result.exit_code == 0, result.output
    counts = json.loads((out / "manifest_ingest.json").read_text())["counts"]
    html = 0
    for name, expected in expect.items():
        if expected != "error":
            html += sum((r.content_type or "").startswith("text/html")
                        for r in open_warc_stream(d / name))
    assert counts["pages_undecodable"] == 1
    assert (counts["pages_kept"] + counts["pages_rejected"] + counts["pages_duplicate"]
            + counts["pages_undecodable"]) == html


def _synthetic_sites(n_sites=112, pages_per_site=50):
    sites = []
    for s in range(n_sites):
        pages = []
        for p in range(pages_per_site):
            url = normalize_url(f"https://site{s}.sg/section{p % 7}/page-{p}")
            text = f"Home | Products | Contact\nparagraph {p} of site {s} " * 20
            pages.append(PageRecord(
                url=url, raw_url=url, title=f"Page {p}",
                body_text=text, http_status=200, char_count=len(text),
            ))
        about_url = normalize_url(f"https://site{s}.sg/about")
        about = f"we are company number {s} and we make excellent things " * 3
        pages.append(PageRecord(
            url=about_url, raw_url=about_url, title="About",
            body_text=about, http_status=200, char_count=len(about),
        ))
        sites.append(SiteDocument(source_file=f"site{s}.warc", pages=pages))
    return sites


def test_criterion_2_heuristic_timing():
    sites = _synthetic_sites()
    timings = {}
    for heuristic in HeuristicId:
        name = heuristic.name.lower()
        started = time.monotonic()
        for site in sites:
            select(site, heuristic)
        timings[name] = time.monotonic() - started
        assert timings[name] < 15.0, f"{name} took {timings[name]:.2f}s on 112 files"
    _ok(2, "(" + ", ".join(f"{k}={v:.2f}s" for k, v in timings.items()) + ")")


def test_criterion_3_token_reduction():
    sites = []
    for s in range(20):
        pages = []
        about_url = normalize_url(f"https://s{s}.sg/about")
        pages.append(PageRecord(
            url=about_url, raw_url=about_url, title="About",
            body_text=f"short about text for company {s} with just enough words",
            http_status=200, char_count=60,
        ))
        for p in range(30):
            url = normalize_url(f"https://s{s}.sg/archive/item-{p}")
            text = f"very long archival page {p} " * 1000
            pages.append(PageRecord(
                url=url, raw_url=url, title=f"Item {p}",
                body_text=text, http_status=200, char_count=len(text),
            ))
        sites.append(SiteDocument(source_file=f"s{s}.warc", pages=pages))
    before = sum(
        count_tokens(" ".join(p.body_text for p in site.pages), None) for site in sites
    )
    after = sum(count_tokens(select(site, HeuristicId.ABOUT_PRIORITY).content, None)
                for site in sites)
    report = reduction_report(before, after, PRICES)
    assert report.reduction_ratio >= Fraction(99, 100), float(report.reduction_ratio)
    # arithmetic identities, exact
    assert report.reduction_ratio == 1 - Fraction(report.tokens_after, report.tokens_before)
    for tokens, cost in ((report.tokens_before, report.cost_before),
                        (report.tokens_after, report.cost_after)):
        assert cost == (Decimal(tokens) / Decimal(1_000_000)
                        * PRICES.price_per_million_input).quantize(Decimal("0.000001"))
    _ok(3, f"(reduction {float(report.reduction_ratio):.4%})")


def test_criterion_4_metric_oracles():
    rng = random.Random(424242)
    alphabet = "abcdefgh"
    pairs = []
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        pairs.append((a, b))
        assert levenshtein(a, b) == dp_oracle(a, b)
    # metric axioms over the same sample
    for a, b in pairs:
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)
    for (a, b), (_, c) in zip(pairs[:300], pairs[300:600]):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    # hand-computed greedy matching on <= 4-token mock-embedding cases
    provider = FixedProvider({"a": [1, 0], "b": [1, 0], "c": [0, 1],
                              "d": [0.6, 0.8]})
    p, r, f1 = score("a", "b c", provider)
    assert abs(p - 1.0) < 1e-9 and abs(r - 0.5) < 1e-9 and abs(f1 - 2 / 3) < 1e-9
    p, r, f1 = score("a c", "b d", provider)
    # sim matrix [[1, .6], [0, .8]]: P = (1+.8)/2, R = (1+.8)/2
    assert abs(p - 0.9) < 1e-9 and abs(r - 0.9) < 1e-9 and abs(f1 - 0.9) < 1e-9
    p, r, f1 = score("a", "c", provider)
    assert p == 0.0 and r == 0.0 and f1 == 0.0
    _ok(4, "(1000 pairs vs DP oracle; greedy-matching hand cases at 1e-9)")


def _stats_fixture(combo, lev, bs, std):
    return CombinationStats(
        combination_id=combo, lev_median=lev, bs_median=bs, bs_std=std,
    )


def test_criterion_5_ranking():
    fixture = [
        _stats_fixture(0, 2, 0.90, 0.01),
        _stats_fixture(1, 5, 0.80, 0.02),
        _stats_fixture(2, 1, 0.95, 0.03),
    ]
    scores = {r.stats.combination_id: r.final_score for r in rank_combinations(fixture)}
    assert scores == {0: 1, 2: 1, 1: 3}

    rng = random.Random(5)
    for _ in range(100):
        stats = [
            _stats_fixture(i, rng.randint(0, 9), rng.random(), rng.random() / 10)
            for i in range(6)
        ]
        ranked = rank_combinations(stats)
        best_sum = min(r.rank_sum for r in ranked)
        for r in ranked:
            assert (r.final_score == 1) == (r.rank_sum == best_sum)

    # a six-combination fixture shaped like the two-way tie at the top
    tied = [
        _stats_fixture(0, 4, 0.70, 0.050),
        _stats_fixture(1, 6, 0.60, 0.060),
        _stats_fixture(2, 1, 0.95, 0.010),
        _stats_fixture(3, 5, 0.65, 0.055),
        _stats_fixture(4, 3, 0.75, 0.040),
        _stats_fixture(5, 1, 0.95, 0.010),
    ]
    ranked = rank_combinations(tied)
    top = [r.stats.combination_id for r in ranked if r.final_score == 1]
    assert sorted(top) == [2, 5]
    _ok(5, "(final scores {1,1,3}; competition-rank tie shape reproduced)")


def test_criterion_6_statistics():
    m = GradingMatrix(
        subjects=["s0", "s1", "s2", "s3"],
        treatments=["Human", "Combo2", "Combo3"],
        cells=[[1, 1, 0], [1, 0, 0], [1, 1, 1], [0, 0, 0]],
    )
    q = cochran_q(m)
    assert q.statistic == pytest.approx(3.0, abs=1e-12)
    assert q.degrees_of_freedom == 2
    assert q.p_value == pytest.approx(0.22313, abs=1e-4)

    cells = [[1, 0]] * 15 + [[0, 1]] * 5 + [[1, 1]] * 2
    m2 = GradingMatrix(subjects=[f"i{i}" for i in range(22)],
                       treatments=["A", "B"], cells=cells)
    un = mcnemar(m2, "A", "B")
    assert un.statistic == pytest.approx(5.0, abs=1e-12)
    assert un.p_value == pytest.approx(0.0253, abs=1e-4)
    assert mcnemar(m2, "A", "B", correction=True).statistic == pytest.approx(4.05, abs=1e-12)

    rng = random.Random(6)
    checked = 0
    while checked < 200:
        rows = [[rng.randint(0, 1), rng.randint(0, 1)]
                for _ in range(rng.randint(2, 15))]
        b = sum(1 for x, y in rows if x == 1 and y == 0)
        c = sum(1 for x, y in rows if x == 0 and y == 1)
        if b + c == 0:
            continue
        gm = GradingMatrix(subjects=[str(i) for i in range(len(rows))],
                           treatments=["A", "B"], cells=rows)
        assert cochran_q(gm).statistic == pytest.approx(
            mcnemar(gm, "A", "B").statistic, abs=1e-12)
        checked += 1

    mpmath.mp.dps = 30
    rng = random.Random(7)
    worst = 0.0
    for _ in range(60):
        df = rng.randint(1, 30)
        x = rng.uniform(0.01, 100.0)
        err = abs(chi_square_survival(x, df) - chi2_survival_oracle(x, df))
        worst = max(worst, err)
    assert worst <= 1e-10, worst
    _ok(6, f"(chi-square survival worst error {worst:.2e})")


def _e2e_corpus(root, n=4):
    d = root / "warcs"
    d.mkdir()
    for i in range(n):
        records = [
            response_record(f"https://co{i}.sg/",
                            body=html_page(f"Co {i}", f"landing content for company {i} " * 12)),
            response_record(f"https://co{i}.sg/about",
                            body=html_page(f"About {i}", f"about company number {i} " * 12)),
        ]
        build_warc(d / f"co{i}.warc.gz", records, gzipped=True)
    return d


def _deterministic_reply(body):
    site = body["messages"][1]["content"].splitlines()[0]
    return {"title": f"Company at {site}", "abstract": f"Deterministic abstract for {site}"}


def test_criterion_7_end_to_end(tmp_path):
    started = time.monotonic()

    def run_pipeline(out_name, base_url):
        out = tmp_path / out_name
        cfg_path = tmp_path / f"{out_name}.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "input_dir": str(tmp_path / "warcs"),
            "output_dir": str(out),
            "client": {"base_url": base_url, "model_name": "mock-model",
                       "max_in_flight": 1},
        }))
        for args in (["ingest"], ["select", "--all"],
                     ["generate", "--all-combinations"]):
            result = run_cli(["--config", str(cfg_path)] + args)
            assert result.exit_code == 0, result.output
        reference = tmp_path / "reference.jsonl"
        if not reference.exists():
            with open(out / "generated_combo2.jsonl") as fh:
                rows = [json.loads(l) for l in fh]
            with open(reference, "w") as fh:
                for row in rows:
                    fh.write(json.dumps({
                        "site_id": row["site_id"], "source": "human",
                        "title": row["title"],
                        "abstract": row["abstract"] + " with human edits",
                        "model_name": None,
                    }) + "\n")
        result = run_cli(["--config", str(cfg_path), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 0, result.output
        return out

    _e2e_corpus(tmp_path)
    with MockChatServer(reply_fn=_deterministic_reply) as server:
        out1 = run_pipeline("run1", server.base_url)
        high_water = server.high_water
    with MockChatServer(reply_fn=_deterministic_reply) as server:
        out2 = run_pipeline("run2", server.base_url)

    assert high_water == 1, "sequential mode must never overlap requests"

    def artifacts(out):
        names = ["sites.jsonl", "ranked_summary.csv", "scores_per_site.csv",
                 "cost_report.csv"] + [f"generated_combo{c}.jsonl" for c in range(6)]
        return {n: (out / n).read_text() for n in names}

    assert artifacts(out1) == artifacts(out2), "pipeline must be deterministic"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"end-to-end took {elapsed:.1f}s"
    _ok(7, f"(two identical runs in {elapsed:.1f}s, high-water {high_water})")


def test_ip_literal_host_runs_through_every_stage(tmp_path):
    """A site on an IP-literal host ([::1], bracketed as RFC 3986 requires)
    is selected and generated beside a named one, its URL as ingest wrote it."""
    warcs = tmp_path / "warcs"
    warcs.mkdir()
    urls = {"bakery": "https://bakery.sg/about", "local": "http://[::1]/about"}
    for site_id, url in urls.items():
        page = html_page(site_id, f"{site_id} bakes fine bread every day " * 10)
        build_warc(warcs / f"{site_id}.warc", [response_record(url, body=page)])
    cfg = tmp_path / "cfg.yaml"
    with MockChatServer(reply_fn=_deterministic_reply) as server:
        cfg.write_text(yaml.safe_dump({
            "input_dir": str(warcs), "output_dir": str(tmp_path / "out"),
            "client": {"base_url": server.base_url, "model_name": "mock-model"},
        }))
        for args in (["ingest"], ["select", "--all"], ["generate", "--all-combinations"]):
            result = run_cli(["--config", str(cfg), *args])
            assert result.exit_code == 0, result.output

    def rows(name):
        with open(tmp_path / "out" / name, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    for h in (1, 2, 3):
        assert {r["site_id"]: r["chosen_url"] for r in rows(f"selections_h{h}.jsonl")} == urls
    for combo in range(6):
        titles = {r["site_id"]: r["title"] for r in rows(f"generated_combo{combo}.jsonl")}
        assert titles == {site_id: f"Company at {url}" for site_id, url in urls.items()}


def test_criterion_8_prompt_fidelity():
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    assert WITHOUT_RULES.system_text == (
        golden / "prompt_without_rules.txt").read_text(encoding="utf-8")
    assert WITH_RULES.system_text == (
        golden / "prompt_with_rules.txt").read_text(encoding="utf-8")
    base = WITHOUT_RULES.system_text
    assert base.endswith("{'title': [inferred_title], 'abstract': [created_abstract]}.")
    addendum = WITH_RULES.system_text[len(base):]
    for template in (
        "This is the website of (company’s name) which offers (services)",
        "is a private residential development by (name of company)",
        "This is a website of (Name of person), (role)",
    ):
        assert template in addendum
    _ok(8, "(both variants byte-identical to golden files)")
