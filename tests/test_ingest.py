import encodings.aliases
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from concurrent import futures
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from warc2meta import ingest
from warc2meta.config import PipelineConfig, build
from warc2meta.ingest import (
    REJECT_MARKERS,
    deduplicate,
    extract_page,
    extract_text,
    ingest_many,
    ingest_warc_file,
    quality_filter,
)
from warc2meta.sites import PageRecord, SiteDocument
from warc2meta.urlnorm import normalize_url
from warc2meta.warc import RawWarcRecord

from helpers import build_warc, html_page, response_record, warc_corpus
from html_oracle import oracle_text


_LABELS = sorted({*encodings.aliases.aliases, *encodings.aliases.aliases.values()})


def _record(content_type="text/html", body=b"", uri="https://a.sg/", status=200):
    return RawWarcRecord(
        target_uri=uri,
        http_status=status,
        content_type=content_type,
        payload=body,
    )


def _page(body_text="x" * 100, title="T", status=200, url="https://a.sg/p"):
    return PageRecord(
        url=normalize_url(url),
        raw_url=url,
        title=title,
        body_text=body_text,
        http_status=status,
        char_count=len(body_text),
    )


class TestExtractPage:
    def test_non_html_absent(self):
        assert extract_page(_record(content_type="image/png", body=b"\x89PNG")) is None

    def test_strip_and_collapse(self):
        body = (
            b"<html><head><title>T</title><script>x()</script></head>"
            b"<body> a  b </body></html>"
        )
        page = extract_page(_record(body=body))
        assert page.title == "T"
        assert page.body_text == "a b"
        assert page.char_count == 3

    def test_script_only_body(self):
        body = b"<html><body><script>var x = 1;</script></body></html>"
        page = extract_page(_record(body=body))
        assert page.body_text == ""
        assert page.char_count == 0

    def test_style_noscript_template_stripped(self):
        body = (
            b"<html><body><style>p{}</style><noscript>no</noscript>"
            b"<template>tmp</template>keep</body></html>"
        )
        assert extract_page(_record(body=body)).body_text == "keep"

    def test_meta_charset_fallback(self):
        text = "caf\xe9 content here"
        body = (
            '<html><head><meta charset="iso-8859-1"><title>T</title></head>'
            f"<body>{text}</body></html>"
        ).encode("iso-8859-1")
        page = extract_page(_record(content_type="text/html", body=body))
        assert "café" in page.body_text

    @pytest.mark.parametrize("param", ['charset=iso-8859-1', 'charset="iso-8859-1"',
                                       'CHARSET = "iso-8859-1"'])
    def test_header_charset_plain_or_quoted(self, param):
        # RFC 9110 5.6.6: a parameter's value may be a quoted-string
        body = "<title>Café</title><p>Crème brûlée at the café.</p>".encode("iso-8859-1")
        page = extract_page(_record(content_type=f"text/html; {param}", body=body))
        assert (page.title, page.body_text) == ("Café", "Crème brûlée at the café.")

    def test_xhtml_accepted(self):
        page = extract_page(
            _record(content_type="application/xhtml+xml",
                    body=html_page("X", "xhtml body"))
        )
        assert page is not None

    def test_label_decoding_to_a_surrogate_falls_back_to_utf8(self):
        # utf-7 decodes "+2D0-" to U+D83D, a lone surrogate no store row can hold
        page = extract_page(_record(content_type="text/html; charset=utf-7",
                                    body=html_page("T+AGE-", "a +2D0- b")))
        assert (page.title, page.body_text) == ("T+AGE-", "a +2D0- b")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_LABELS), st.booleans(), st.lists(st.one_of(
        st.binary(max_size=6), st.sampled_from([b"+2D0-", b"+AGE-", b"\\ud800", b"\\U0000dfff",
                                                b"\xed\xa0\x80", b"\x00\xd8", b"&#xd800;"])),
        max_size=6).map(b"".join))
    @example("utf_7", False, b"+2D0-")
    @example("unicode_escape", True, b"\\ud800")
    @example("raw_unicode_escape", False, b"\\udfff")
    def test_any_label_yields_utf8_text(self, label, in_meta, payload):
        content_type = "text/html" if in_meta else f"text/html; charset={label}"
        meta = f'<meta charset="{label}">'.encode() if in_meta else b""
        page = extract_page(_record(content_type=content_type, body=meta + b"<p>" + payload))
        (page.title + page.body_text).encode("utf-8")  # strict: no lone surrogate


# html.parser's reading of edge cases: (page, title, body text)
EDGE_CASES = [
    # each text run between tags is unescaped on its own
    ("<p>&am<b></b>p;x</p>", "", "&amp;x"),
    ("<p>&#65<i></i>6; &l<b>t;</p>", "", "A6; &lt;"),
    ("<p>a<!-- never closed <b>c</b> d</p>", "", "a<!-- never closed <b>c d"),
    ("<p>a<![CDATA[a>b]]>c</p>", "", "ac"),
    ("<noscript><noscript>x</noscript>y</noscript>z", "", "z"),
    ("<P>Upper</P> <DiV>Mixed</dIv><SCRIPT>x()</ScRiPt> kept", "", "Upper Mixed kept"),
    ("a < b and <3 hearts", "", "a < b and <3 hearts"),
    ('<a title="x>y">link</a>', "", "link"),
    ("<p>before<script>never closed", "", "before"),
    ("<p>before<noscript>never closed", "", "before"),
    ("<title>A<script>b&amp;</script>C</title>body", "Ab&amp;C", "body"),
    ("<title>One</title><title>Two</title>", "One", "Two"),
    # unclosed comments and sections are text through the next '>', and a
    # later markup of another kind is still read
    ("a<!-- x > b <!-- y > c", "", "a<!-- x > b <!-- y > c"),
    ("<![CDATA[ x > <!-- c --> y", "", "<![CDATA[ x > y"),
    # after the last '>', all is text; a tag name cut short by NUL stays
    # unescaped, unless it ends in a quote
    ("a <x <x&lt;\x00b", "", "a <x <x&lt;\x00b"),
    ("<p>a</p> <x&amp;'\x00b", "", "a <x&'\x00b"),
    ("<title>t</x <!-- c", "t</x <!-- c", ""),
    # a tag's name and attributes have one reading: html.parser does not cut
    # them shorter or split them otherwise to reach a '>'
    ("<b'=\x00>", "", "<b'=\x00>"),
    ("<noscript x=='>'", "", "<noscript x=='>'"),
    # at the edges of the ordinary tags the scan matches first: a longer
    # name, a space before '>', a quoted '>', a glued attribute
    ("<scripts>x</scripts>", "", "x"),
    ("<TITLE >t</TITLE>", "t", ""),
    ('<h1 class="x>y">t</h1>', "", "t"),
    ('<a b="1"c="2">t</a>', "", "t"),
    ("</p >", "", ""),
    ("<title2>x", "", "x"),
    # a run of ordinary tags is one scan match, which each of these ends
    ("<div><p><b>x</b></p><script>y</script><i></i>z", "", "xz"),
    ('<div><p class="a"></p><title>T</title><b></b>b', "T", "b"),
    ("<p><i>a</i></style><b></b>b", "", "ab"),
    ("<p><b>a</b><!-- c --></p>d", "", "ad"),
    ("<p><b>a</b><!-- c </p>d", "", "a<!-- c </p>d"),
    ("<p><b>a</b><![CDATA[c]]></p>d", "", "ad"),
    ("<p><b>a</b><?pi c?></p>d", "", "ad"),
    ("<p></p><!DOCTYPE html><b>a</b>", "", "a"),
    ("<p><b>a</b><a href='x'>b</a></p>", "", "ab"),
    ('<p><b>a</b><a href="x', "", 'a<a href="x'),
    ("<p><b></b>a>b</p>", "", "a>b"),
]

_TAG_NAMES = ("script", "style", "noscript", "template", "title", "p", "scriptx",
              "h1", "my-el", "title2", "scripts")
_TEXT = st.one_of(
    st.text(alphabet="ab &;#x1<>=/'\"-!?[] \t\n\xa0\x00", max_size=6),
    st.sampled_from(["&amp;", "&am", "p;", "&#65", "6;", "&lt", "t;", "&"]),
)
_NAME = st.builds(
    lambda name, upper: "".join(c.upper() if u else c for c, u in zip(name, upper)),
    st.sampled_from(_TAG_NAMES), st.lists(st.booleans(), min_size=8, max_size=8),
)
_ATTR = st.one_of(
    # ` name="value"`, as most of a page's attributes are written
    st.builds(' {}="{}"'.format, st.sampled_from(["href", "data-x", "b"]),
              st.sampled_from(["v", "", "a b", "x>y", "'"])),
    st.builds(
        "{}{}{}".format,
        # a name with no space before it is glued to the previous attribute
        st.sampled_from([" href", " title", "  x", "/y", "\tz", ' "q', "&a", " data-x",
                         "  data-x", "b"]),
        st.sampled_from(["", "=", " = ", "=="]),
        st.one_of(
            st.builds("{}{}{}".format, st.sampled_from(["", '"', "'"]), _TEXT,
                      st.sampled_from(["", '"', "'"])),
            st.sampled_from(['"v"', '"a b"', "'v'", "v", "'a b'"]),
        ),
    ),
    # where a tag has one reading only: a quote or "=" glued to the tag name
    # is part of the name, and a quoted value that holds ">" after "==" or
    # " = " is one whole value, so that ">" does not end the tag
    st.builds(
        "{}{}{}".format, st.sampled_from([" x", "'", '"', "=", " x"]),
        st.sampled_from(["", "=", "==", " = "]),
        st.sampled_from(["'>'", '"x>y"', "v", "\x00", "'", '"'])),
)
_START = st.builds(lambda name, attrs, close: f"<{name}{''.join(attrs)}{close}",
                   _NAME, st.lists(_ATTR, max_size=2),
                   st.sampled_from([">", ">", "/>", " />", "", "", "\x00>"]))
_END = st.builds("</{}{}{}".format, st.sampled_from(["", " "]), _NAME,
                 st.sampled_from([">", ">", " >", " x>", "/>", ""]))
_MARKUP = st.sampled_from([
    "<!-- c -->", "<!-- c -- >", "<!--", "<!---->", "<!-- <script> -->", "<![CDATA[a>b]]>",
    "<![CDATA[", "<![if !IE]>", "<![endif]>", "<!DOCTYPE html>", "<!x>", "<?php x ?>",
    "<?", "</>", "</ 3>", "<", "<3", "<b>", "<title>", "</title>", "<script>", "</script>",
    "<noscript>", "</noscript>", "&am", "p;", "x", " ",
    "a>", "/b>",  # text that reads as a tag after a '<'
])
# a page may end inside a start tag, which html.parser then reads as text
_PAGES = st.builds(
    "{}{}".format, st.lists(st.one_of(_MARKUP, _TEXT, _START, _END), max_size=12).map("".join),
    st.one_of(st.just(""), st.builds("<{}{}".format, _NAME,
                                     st.lists(_ATTR, min_size=1, max_size=2).map("".join))))


# Parts of a crawl-like page: words with character references, and the
# navigation, script, style, comment and plain `<div class="row">`-style
# tags that most of a crawled page is made of
_CRAWL_WORDS = (
    "service quality customer project design build support team office "
    "café naïve 企業 AT&amp;T &lt;b&gt; 5&nbsp;km &#169; a<b"
).split()
_CRAWL_MARKUP = (
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


def _crawl_like_pages(n, seed=0):
    """n seeded pages of 20 to 200 parts, 30 % of them markup."""
    rng = random.Random(seed)
    pages = []
    for i in range(n):
        body = "".join(
            rng.choice(_CRAWL_MARKUP) if rng.random() < 0.3 else rng.choice(_CRAWL_WORDS) + " "
            for _ in range(rng.randint(20, 200)))
        pages.append(html_page(f"Page {i} &amp; co", body, rng.choice(_CRAWL_MARKUP)).decode())
    return pages


def _edge_case_examples(test):
    """Every EDGE_CASES page as an explicit example of the property."""
    for html, _, _ in EDGE_CASES:
        test = example(html)(test)
    return test


class TestExtractionOracle:
    @pytest.mark.parametrize("html, title, body", EDGE_CASES)
    def test_edge_case(self, html, title, body):
        page = extract_page(_record(body=html.encode("utf-8")))
        assert (page.title, page.body_text) == (title, body)
        assert oracle_text(html) == (title, body)

    @settings(max_examples=1000, deadline=None)
    @given(_PAGES)
    @_edge_case_examples
    def test_matches_html_parser(self, html):
        try:
            want = oracle_text(html)
        except AssertionError:
            reject()
        page = extract_page(_record(body=html.encode("utf-8")))
        assert (page.title, page.body_text) == want

    def test_matches_html_parser_on_crawl_like_pages(self):
        for page in _crawl_like_pages(500):
            assert extract_text(page) == oracle_text(page)

    @pytest.mark.parametrize("unit", [
        "<!-- x ", "<!-- x > ", "<![CDATA[ x > ", "<![if x > ", "<x", "<x ", "</a ",
        "<a b='x ", '<a b="x ', '<a b="x" ', "<x&amp;", "<? x ", "<!x ",
    ])
    def test_unclosed_markup_takes_linear_time(self, unit):
        # html.parser reads from each of these to the page's end, which is
        # quadratic in their number; a linear scan takes milliseconds here
        started = time.perf_counter()
        extract_text(unit * 10_000)
        assert time.perf_counter() - started < 1.0

    def test_unknown_marked_section_kept_as_text(self):
        # html.parser 3.11 raises on this section, which dropped the whole page
        html = "<p>a<![foo]>b</p>"
        assert extract_page(_record(body=html.encode("utf-8"))).body_text == "a<![foo]>b"


def _python(*args):
    """Run a fresh interpreter that imports this warc2meta; text output."""
    env = dict(os.environ, PYTHONPATH=str(Path(ingest.__file__).parents[1]))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_import_compiles_no_scanner():
    # a process that imports ingest and scans no page compiles nothing
    proc = _python("-c", "import warc2meta.heuristics, warc2meta.ingest as m;"
                   " n = m._scanner.cache_info().currsize; m.extract_text('<p>x</p>');"
                   " print(n, m._scanner.cache_info().currsize)")
    assert proc.stdout.split() == ["0", "1"], proc.stderr


# text around the reject markers: mixed case, the two non-ASCII letters
# that str.lower() makes ASCII (U+0130, U+212A), sharp s, digits and a
# lone surrogate, which a utf-7 page can decode to
_MARKER_TEXT = st.lists(st.one_of(
    st.sampled_from(["\u0130", "\u212a", "\u0307", "ß", "\u1e9e", "©", "\ud83d", "4", "0",
                     "40", " ", "i", "k", "I", "K"]),
    st.builds(lambda text, upper: "".join(c.upper() if u else c for c, u in zip(text, upper)),
              st.sampled_from([*REJECT_MARKERS, "lorem \u0130psum", "lorem", "ipsum",
                               "page not", "not found"]),
              st.lists(st.booleans(), min_size=14, max_size=14)),
), max_size=12).map("".join)


class TestQualityFilter:
    def test_status_404(self):
        assert quality_filter(_page(status=404)) == "status"

    def test_lorem_ipsum(self):
        page = _page(body_text="Lorem Ipsum dolor sit amet " * 5)
        assert quality_filter(page) == "placeholder"

    def test_page_not_found_in_title(self):
        assert quality_filter(_page(title="Page Not Found")) == "placeholder"

    def test_404_in_body(self):
        assert quality_filter(_page(body_text="Error 404 happened " * 5)) == "placeholder"

    def test_too_short(self):
        assert quality_filter(_page(body_text="tiny")) == "too_short"

    def test_nominal_keep(self):
        assert quality_filter(_page(body_text="genuine content " * 40)) is None

    def test_min_chars_configurable(self):
        assert quality_filter(_page(body_text="tiny"), min_chars=3) is None

    @pytest.mark.parametrize("body, reason", [
        ("LOREM \u0130PSUM dolor sit amet " * 5, None),  # lowered, "i" and a dot above
        ("Page Not Found, sorry " * 5, "placeholder"),
    ])
    def test_non_ascii_lowering(self, body, reason):
        assert quality_filter(_page(body_text=body)) == reason

    @settings(max_examples=300, deadline=None)
    @given(_MARKER_TEXT, _MARKER_TEXT)
    def test_agrees_with_str_lower(self, title, body):
        haystack = (title + " " + body).lower()
        want = ("placeholder" if any(m in haystack for m in REJECT_MARKERS)
                else "too_short" if len(body) < PipelineConfig().min_chars else None)
        assert quality_filter(_page(body_text=body, title=title)) == want


class TestDeduplicate:
    def test_longest_retained(self):
        short = _page(body_text="s" * 10)
        long = _page(body_text="l" * 50)
        assert deduplicate([short, long]) == [long]

    def test_tie_keeps_earliest(self):
        first = _page(body_text="a" * 10)
        second = _page(body_text="b" * 10)
        assert deduplicate([first, second]) == [first]

    def test_distinct_keys_identity(self):
        pages = [_page(url=f"https://a.sg/p{i}") for i in range(3)]
        assert deduplicate(pages) == pages

    def test_empty(self):
        assert deduplicate([]) == []

    def test_first_occurrence_order(self):
        a1 = _page(url="https://a.sg/a", body_text="x" * 10)
        b = _page(url="https://a.sg/b", body_text="y" * 99)
        a2 = _page(url="https://a.sg/a", body_text="z" * 50)
        assert deduplicate([a1, b, a2]) == [a2, b]


class TestIngestWarcFile:
    @pytest.mark.parametrize("codec", ["undefined", "punycode"])
    @pytest.mark.parametrize("label", ["content-type", "meta"])
    def test_unusable_charset_read_as_utf8(self, tmp_path, codec, label):
        # both codecs raise a plain UnicodeError, not a UnicodeDecodeError
        header = f"text/html; charset={codec}" if label == "content-type" else "text/html"
        meta = f'<meta charset="{codec}">' if label == "meta" else ""
        records = [
            response_record("https://a.sg/", content_type=header,
                            body=html_page("Caf\u00e9", "caf\u00e9 menu " * 10, meta)),
            response_record("https://a.sg/x", body=html_page("X", "content " * 20)),
        ]
        doc = ingest_warc_file(build_warc(tmp_path / "f.warc", records))
        assert [(p.title, p.body_text[:9]) for p in doc.pages] == [
            ("Caf\u00e9", "caf\u00e9 menu"), ("X", "content c")]
        assert doc.undecodable_count == 0

    def test_rejects_counted(self, tmp_path):
        records = [
            response_record("https://a.sg/", body=html_page("Home", "welcome " * 20)),
            response_record("https://a.sg/x", body=html_page("X", "content " * 20)),
            response_record("https://a.sg/gone", status=404,
                            body=html_page("Gone", "missing " * 20)),
        ]
        path = build_warc(tmp_path / "f.warc", records)
        doc = ingest_warc_file(path)
        assert len(doc.pages) == 2
        assert doc.rejected_count == 1
        assert doc.duplicate_count == 0

    def test_rejects_counted_by_reason(self, tmp_path):
        records = [
            response_record("https://a.sg/", body=html_page("Home", "welcome " * 20)),
            response_record("https://a.sg/gone", status=410, body=html_page("Gone", "x " * 20)),
            response_record("https://a.sg/lost", status=404, body=html_page("Lost", "y " * 20)),
            response_record("https://a.sg/todo", body=html_page("Todo", "Lorem ipsum " * 5)),
            response_record("https://a.sg/soon", body=html_page("Soon", "Coming soon.")),
        ]
        rejected = Counter()
        doc = ingest_warc_file(build_warc(tmp_path / "f.warc", records), rejected=rejected)
        assert rejected == {"status": 2, "placeholder": 1, "too_short": 1}
        assert doc.rejected_count == 4

    def test_each_record_is_read_as_html_or_not_once(self, tmp_path, monkeypatch):
        seen = []
        is_html = ingest._is_html
        monkeypatch.setattr(ingest, "_is_html",
                            lambda record: seen.append(record.target_uri) or is_html(record))
        uris = ["https://a.sg/", "https://a.sg:99999/", "https://a.sg/img"]
        records = [
            response_record(uris[0], body=html_page("Home", "welcome " * 20)),
            response_record(uris[1], body=html_page("Bad", "unreachable " * 20)),
            response_record(uris[2], content_type="image/png", body=b"png"),
        ]
        doc = ingest_warc_file(build_warc(tmp_path / "f.warc", records))
        assert seen == uris
        assert (len(doc.pages), doc.undecodable_count) == (1, 1)

    def test_duplicates_counted(self, tmp_path):
        records = [
            response_record("https://a.sg/", body=html_page("A", "first crawl " * 10)),
            response_record("https://a.sg/", body=html_page("A", "second crawl longer " * 10)),
        ]
        path = build_warc(tmp_path / "dup.warc", records)
        doc = ingest_warc_file(path)
        assert len(doc.pages) == 1
        assert doc.duplicate_count == 1
        assert "second" in doc.pages[0].body_text

    @pytest.mark.parametrize("bad_url", ["https://a.sg:99999/", "https://a.sg:abc/x"])
    def test_bad_port_counted_as_undecodable(self, tmp_path, bad_url):
        """A record whose URL has a bad port is skipped; the file still gives its row."""
        records = [
            response_record("https://a.sg/", body=html_page("Home", "welcome " * 20)),
            response_record(bad_url, body=html_page("Bad", "unreachable " * 20)),
            response_record("https://a.sg/x", body=html_page("X", "content " * 20)),
        ]
        doc = ingest_warc_file(build_warc(tmp_path / "port.warc", records))
        assert [page.url for page in doc.pages] == ["https://a.sg/", "https://a.sg/x"]
        assert doc.undecodable_count == 1
        assert doc.rejected_count == doc.duplicate_count == 0

    def test_request_only_warc(self, tmp_path):
        from helpers import warc_record

        rec = warc_record("request", "https://a.sg/", b"GET / HTTP/1.1\r\n\r\n",
                          content_type="application/http; msgtype=request")
        path = build_warc(tmp_path / "req.warc", [rec])
        doc = ingest_warc_file(path)
        assert doc.pages == []

    def test_count_reconciliation(self, tmp_path):
        records = [
            response_record("https://a.sg/", body=html_page("A", "keep me here " * 10)),
            response_record("https://a.sg/", body=html_page("A", "keep me longer " * 10)),
            response_record("https://a.sg/404", status=404,
                            body=html_page("E", "nope " * 10)),
            response_record("https://a.sg/img", content_type="image/png", body=b"png"),
        ]
        path = build_warc(tmp_path / "mix.warc", records)
        doc = ingest_warc_file(path)
        html_extracted = 3  # png record is not HTML
        assert len(doc.pages) + doc.rejected_count + doc.duplicate_count == html_extracted

    def test_determinism(self, tmp_path):
        records = [
            response_record(f"https://a.sg/p{i}", body=html_page(f"T{i}", f"body {i} " * 10))
            for i in range(5)
        ]
        path = build_warc(tmp_path / "det.warc", records)
        assert ingest_warc_file(path).to_json() == ingest_warc_file(path).to_json()

    def test_json_roundtrip(self, tmp_path):
        records = [
            response_record("https://a.sg/", body=html_page("A", "round trip body " * 5)),
        ]
        path = build_warc(tmp_path / "rt.warc", records)
        doc = ingest_warc_file(path)
        again = build(SiteDocument, json.loads(doc.to_json()), "row")
        assert again.to_json() == doc.to_json()


def _direct(path):
    """A file's (site row, error line), from ingest_warc_file called here."""
    try:
        return ingest_warc_file(path).to_json(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


class TestIngestMany:
    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        paths = warc_corpus(tmp_path_factory.mktemp("pool") / "warcs", 48)
        assert sum(p.stat().st_size for p in paths) >= ingest.POOL_MIN_BYTES
        return paths

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the process pools started while the test runs."""
        started = []

        class Pool(futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
        return started

    def test_pool_gives_the_per_file_results_in_input_order(self, corpus, pools):
        results = list(ingest_many(corpus))
        assert [(r.row, r.error) for r in results] == [_direct(p) for p in corpus]
        assert {r.error.split(":")[0] for r in results if r.error} == {
            "TruncatedRecord", "GzipError"}
        for r in results:
            if r.row is not None:
                doc = build(SiteDocument, json.loads(r.row), "row")
                assert r.counts == {
                    "pages_kept": len(doc.pages), "pages_rejected": doc.rejected_count,
                    "pages_duplicate": doc.duplicate_count,
                    "pages_undecodable": doc.undecodable_count,
                    **{f"pages_rejected_{reason}": r.counts[f"pages_rejected_{reason}"]
                       for reason in ("status", "placeholder", "too_short")},
                }
                assert sum(n for k, n in r.counts.items()
                           if k.startswith("pages_rejected_")) == doc.rejected_count
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert pools == ([min(cores, len(corpus))] if cores >= 2 else [])

    def test_cli_streams_the_same_rows_and_errors(self, corpus, tmp_path):
        out = tmp_path / "out"
        proc = _python("-m", "warc2meta.cli", "--output", out, "ingest", "--input", corpus[0].parent)
        assert proc.returncode == 0, proc.stderr
        rows, errors = zip(*map(_direct, corpus))
        assert (out / "sites.jsonl").read_text() == "".join(
            f"{row}\n" for row in rows if row is not None)
        assert proc.stderr == "".join(
            f"error: {path}: {error}\n" for path, error in zip(corpus, errors) if error)
        # one line: a forked worker must not write the parent's output again
        ingested = sum(row is not None for row in rows)
        assert proc.stdout == f"ingested {ingested}/{len(corpus)} files -> {out / 'sites.jsonl'}\n"

    def test_workers_do_not_repeat_buffered_output(self, corpus):
        proc = _python("-c", "import sys; from warc2meta.ingest import ingest_many;"
                       " print('before', end=''); list(ingest_many(sys.argv[1:]))", *corpus)
        assert (proc.returncode, proc.stdout) == (0, "before"), proc.stderr

    def test_pool_runs_with_public_names_wrapped(self, corpus, monkeypatch):
        # a tracer rebinds public names to closures, which cannot be pickled
        orig = ingest.ingest_warc_file
        monkeypatch.setattr(ingest, "ingest_warc_file", lambda *args: orig(*args))
        assert [(r.row, r.error) for r in ingest_many(corpus)] == [_direct(p) for p in corpus]

    @pytest.mark.parametrize("files", [3, 1])
    def test_small_batches_run_inline(self, corpus, pools, files):
        paths = corpus[:files]
        assert sum(p.stat().st_size for p in paths) < ingest.POOL_MIN_BYTES
        assert [(r.row, r.error) for r in ingest_many(paths)] == [_direct(p) for p in paths]
        assert pools == []
