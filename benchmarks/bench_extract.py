#!/usr/bin/env python3
"""Time ingest.extract_text against the html.parser oracle in tests/.

The oracle reads pages with tests/cpython_html_parser.py, a copy of
CPython 3.11.7's html.parser, so it gives the same answers on any Python.

Pages are built with tests/helpers.html_page from seeded random words and
markup: navigation links, scripts, styles, comments, nested noscript,
character references, attributes holding '>', and the plain
`<div class="row">`-style tags that most of a crawled page is made of.
Both extractors read every page; the script fails if they disagree on any
page, then prints pages/s for each.

Usage: PYTHONPATH=src:tests python3 benchmarks/bench_extract.py [--pages N]
"""

import argparse
import random
import time

from helpers import html_page
from html_oracle import oracle_text
from warc2meta.ingest import extract_text

WORDS = (
    "service quality customer project design build support team office "
    "café naïve 企業 AT&amp;T &lt;b&gt; 5&nbsp;km &#169; a<b"
).split()

MARKUP = (
    '<a href="/about" title="x>y">About</a>',
    "<script>if (a<b) document.write('<p>x</p>');</script>",
    "<style>p{color:red}</style>",
    "<!-- nav <b>start</b> -->",
    "<noscript><img src=x alt='no script'></noscript>",
    "<noscript><noscript>a</noscript>hidden</noscript>",
    "<br/>",
    "<title>Second title</title>",
    "<![CDATA[kept out]]>",
    "<DIV CLASS=row>",
    "</DIV>",
    '<div class="row">',
    "</div>",
    "<h2>",
    "</h2>",
    '<a href="/x" class="nav">',
    '<img src="/l.png" alt="logo">',
)


def make_pages(n, seed=0):
    rng = random.Random(seed)
    pages = []
    for i in range(n):
        parts = []
        for _ in range(rng.randint(20, 200)):
            parts.append(rng.choice(MARKUP) if rng.random() < 0.3 else rng.choice(WORDS) + " ")
        body = "".join(parts)
        pages.append(html_page(f"Page {i} &amp; co", body, rng.choice(MARKUP)).decode("utf-8"))
    return pages


def timed(fn, pages):
    started = time.perf_counter()
    results = [fn(page) for page in pages]
    return time.perf_counter() - started, results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pages", type=int, default=2000)
    args = parser.parse_args()

    pages = make_pages(args.pages)
    scan_s, got = timed(extract_text, pages)
    oracle_s, want = timed(oracle_text, pages)
    bad = sum(g != w for g, w in zip(got, want))
    if bad:
        raise SystemExit(f"{bad} of {args.pages} pages disagree with the html.parser oracle")

    size = sum(map(len, pages))
    print(f"{args.pages} pages, {size:,} chars, all agree with the oracle:")
    for name, secs in (("extract_text", scan_s), ("html.parser", oracle_s)):
        print(f"  {name:>12}: {secs:.3f}s ({args.pages / secs:,.0f} pages/s)")


if __name__ == "__main__":
    main()
