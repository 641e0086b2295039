import re
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, reject, strategies as st

from warc2meta import heuristics, tokens
from warc2meta.errors import EmptySite, InvalidPattern, InvalidUrl
from warc2meta.heuristics import (
    DEFAULT_FILTER_RULES,
    FilterRule,
    HeuristicId,
    apply_reduction_filters,
    load_filter_rules,
    select,
)
from warc2meta.sites import PageRecord, SiteDocument
from warc2meta.tokens import TokenizerHandle, count_tokens
from warc2meta.urlnorm import normalize_url


def _page(url, body="some genuine page content " * 5):
    return PageRecord(
        url=normalize_url(url),
        raw_url=url,
        title="T",
        body_text=body,
        http_status=200,
        char_count=len(body),
    )


def _site(*urls_or_pages):
    pages = [
        p if isinstance(p, PageRecord) else _page(p) for p in urls_or_pages
    ]
    return SiteDocument(source_file="fixture.warc", pages=pages)


# absolute URLs with ports, IP literals, userinfo, escapes, trailing
# slashes, and queries and fragments that hold a path
_RAW_URLS = st.builds(
    "{}://{}{}{}{}{}{}".format,
    st.sampled_from(["http", "https", "HTTP"]),
    st.sampled_from(["a.sg", "www.A.sg", "u:p@a.sg", "[::1]", "[2001:DB8::1]", "127.0.0.1", ""]),
    st.sampled_from(["", ":80", ":443", ":8080"]),
    st.lists(st.sampled_from(["about", "About", "about-us", "a%2Fb", "%61bout", "", "x y",
                              ";p", "a?b"]), max_size=4).map(lambda s: "".join("/" + x for x in s)),
    st.sampled_from(["", "/", "//"]),
    st.sampled_from(["", "?", "?next=/about", "?a=1&utm_x=/about", "?q=/about/us?x"]),
    st.sampled_from(["", "#/about"]),
)


@given(_RAW_URLS)
@example("https://a.sg:8080/About/?next=/about")
@example("http://[::1]:80//about//")
def test_path_segments_are_urlsplits(raw):
    try:
        url = normalize_url(raw)
    except InvalidUrl:
        reject()
    assert heuristics._path_segments(url) == urlsplit(url).path.split("/")[1:]


class TestAboutPriority:
    def test_about_in_query_is_not_an_about_page(self):
        site = _site("https://a.sg/x?next=/about", "https://a.sg/products")
        assert select(site, HeuristicId.ABOUT_PRIORITY).chosen_url == "https://a.sg/products"

    def test_about_wins(self):
        site = _site("https://a.sg/", "https://a.sg/about", "https://a.sg/products")
        sel = select(site, HeuristicId.ABOUT_PRIORITY)
        assert sel.chosen_url == "https://a.sg/about"
        assert sel.heuristic == HeuristicId.ABOUT_PRIORITY

    def test_fallback_to_shortest(self):
        site = _site("https://a.sg/", "https://a.sg/products")
        sel = select(site, HeuristicId.ABOUT_PRIORITY)
        assert sel.chosen_url == "https://a.sg/"

    def test_shortest_among_about_matches(self):
        site = _site("https://a.sg/about", "https://a.sg/about-us")
        assert select(site, HeuristicId.ABOUT_PRIORITY).chosen_url == "https://a.sg/about"

    def test_about_token_variants(self):
        for token in ("about", "about-us", "aboutus", "about_us", "who-we-are"):
            site = _site("https://a.sg/x", f"https://a.sg/{token}")
            assert select(site, HeuristicId.ABOUT_PRIORITY).chosen_url == f"https://a.sg/{token}"

    @pytest.mark.parametrize("path", ["about.html", "about-us.php", "aboutus.aspx", "About.HTM"])
    def test_about_page_with_a_file_extension(self, path):
        site = _site("https://a.sg/x", f"https://a.sg/{path}")
        assert select(site, HeuristicId.ABOUT_PRIORITY).chosen_url == f"https://a.sg/{path}"

    @pytest.mark.parametrize("path", ["about.tar.gz", "about.abcdef", "about.", "about.h-m",
                                      "about.\u212a"])
    def test_only_one_short_ascii_extension_is_allowed(self, path):
        site = _site("https://a.sg/x", f"https://a.sg/{path}")
        assert select(site, HeuristicId.ABOUT_PRIORITY).chosen_url == "https://a.sg/x"

    def test_case_insensitive_segment_match(self):
        site = _site("https://a.sg/xyz", "https://a.sg/About")
        assert select(site, HeuristicId.ABOUT_PRIORITY).chosen_url == "https://a.sg/About"

    def test_empty_site(self):
        with pytest.raises(EmptySite):
            select(_site(), HeuristicId.ABOUT_PRIORITY)

    def test_matches_shortest_when_no_about(self):
        site = _site("https://a.sg/pq", "https://a.sg/longer-path")
        a = select(site, HeuristicId.ABOUT_PRIORITY)
        s = select(site, HeuristicId.SHORTEST_URL)
        assert a.chosen_url == s.chosen_url
        assert a.content == s.content


class TestShortestUrl:
    def test_strict_length_order(self):
        site = _site("https://a.sg/", "https://a.sg/x")
        assert select(site, HeuristicId.SHORTEST_URL).chosen_url == "https://a.sg/"

    def test_lexicographic_tie_break(self):
        site = _site("https://a.sg/b", "https://a.sg/a")
        assert select(site, HeuristicId.SHORTEST_URL).chosen_url == "https://a.sg/a"

    def test_single_page(self):
        page = _page("https://a.sg/only")
        sel = select(_site(page), HeuristicId.SHORTEST_URL)
        assert sel.chosen_url == page.url
        assert sel.content == page.body_text

    def test_token_estimates(self):
        site = _site(_page("https://a.sg/", body="x" * 400))
        sel = select(site, HeuristicId.SHORTEST_URL)
        assert sel.original_token_estimate == 100
        assert sel.reduced_token_estimate == 100

    def test_content_cap(self):
        site = _site(_page("https://a.sg/", body="x" * 100_000))
        sel = select(site, HeuristicId.SHORTEST_URL)
        assert sel.reduced_token_estimate <= 8000
        assert sel.reduced_token_estimate < sel.original_token_estimate


class TestReductionFilters:
    def test_whitespace_collapse(self):
        rule = DEFAULT_FILTER_RULES[-1]
        assert apply_reduction_filters("a   b\n\nc", [rule]) == "a b c"

    def test_nav_line_dropped(self):
        text = "Home | Shop | Cart\nWe build precision instruments for laboratories"
        assert apply_reduction_filters(text) == (
            "We build precision instruments for laboratories"
        )

    def test_empty_string(self):
        assert apply_reduction_filters("") == ""

    def test_copyright_line_dropped(self):
        text = "Copyright 2024 Acme Pte Ltd\nWe make the finest widgets in town"
        assert apply_reduction_filters(text) == "We make the finest widgets in town"

    def test_cookie_notice_dropped(self):
        text = "This site uses cookies to track you\nOur workshop opens daily at nine"
        assert apply_reduction_filters(text) == "Our workshop opens daily at nine"

    def test_symbol_runs_dropped(self):
        text = "visit our new store ======== today for discounts"
        out = apply_reduction_filters(text)
        assert "====" not in out

    @pytest.mark.parametrize("rule", DEFAULT_FILTER_RULES, ids=lambda r: r.name)
    def test_rule_never_lengthens(self, rule):
        samples = [
            "Home | Shop | Cart",
            "a   b\n\nc",
            "Copyright 2024 Acme\nreal content line here",
            "!!!!!!!!!! spam",
            "plain text already minimal",
        ]
        for s in samples:
            assert len(apply_reduction_filters(s, [rule])) <= len(s)

    def test_idempotent_default_set(self):
        samples = [
            "Home | Shop | Cart\nWe build precision instruments for laboratories",
            "a   b\n\nc",
            "Copyright 2024\nThe quick brown fox jumps over the dog\nok",
            "",
        ]
        for s in samples:
            once = apply_reduction_filters(s)
            assert apply_reduction_filters(once) == once

    def test_invalid_pattern_raises_at_compile(self):
        rule = FilterRule("broken", "([unclosed", "")
        with pytest.raises(InvalidPattern):
            rule.compiled()

    def test_rules_file_roundtrip(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("squash\t[0-9]+\tN\n# comment\n", encoding="utf-8")
        rules = load_filter_rules(path)
        assert len(rules) == 1
        assert apply_reduction_filters("room 101", rules) == "room N"

    def test_rules_file_bad_pattern(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("broken\t([\t\n", encoding="utf-8")
        with pytest.raises(InvalidPattern):
            load_filter_rules(path)

    def test_rules_file_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "rules.tsv"
        rules = b"# r\xc3\xa8gles\nsquash\t[0-9]+\tN\r\n"  # UTF-8, a CRLF line end
        path.write_bytes(rules + b"footer\tAll rights\xff reserved\t\n")
        with pytest.raises(InvalidPattern, match=f"^{re.escape(str(path))}:3: not UTF-8 text$"):
            load_filter_rules(path)
        path.write_bytes(rules)
        assert load_filter_rules(path) == [FilterRule("squash", "[0-9]+", "N")]


class TestShortestUrlFiltered:
    def test_same_url_smaller_estimate(self):
        noisy = "Home | Shop | Cart\n" * 10 + "We build precision instruments for laboratories"
        site = _site(_page("https://a.sg/", body=noisy),
                     _page("https://a.sg/longer"))
        sel = select(site, HeuristicId.SHORTEST_URL_FILTERED)
        base = select(site, HeuristicId.SHORTEST_URL)
        assert sel.chosen_url == base.chosen_url
        assert sel.reduced_token_estimate < sel.original_token_estimate

    def test_minimal_content_fixed_point(self):
        body = "already minimal content with enough words here"
        site = _site(_page("https://a.sg/", body=body))
        sel = select(site, HeuristicId.SHORTEST_URL_FILTERED)
        assert sel.reduced_token_estimate == sel.original_token_estimate

    def test_empty_site(self):
        with pytest.raises(EmptySite):
            select(_site(), HeuristicId.SHORTEST_URL_FILTERED)


def test_chosen_url_always_in_site():
    site = _site("https://a.sg/", "https://a.sg/about", "https://a.sg/contact-us")
    urls = {p.url for p in site.pages}
    for heuristic in HeuristicId:
        assert select(site, heuristic).chosen_url in urls


# Multi-byte and astral tokens, some of them ending or starting inside a
# character, so that token boundaries can fall inside a character.
_MB_TOKENS = [
    b"ab", b"ab ", " é".encode(), "é".encode(), "漢".encode()[:2], "漢".encode(),
    "😀".encode()[:2], "😀".encode()[:3], "😀".encode(), b"a" + "é".encode()[:1],
    "é".encode()[1:] + b"b", "😀".encode()[3:] + b" ", b"\n|",
]
MB_TOK = TokenizerHandle(vocabulary={t: rank for rank, t in enumerate(_MB_TOKENS)})
BYTE_TOK = TokenizerHandle(vocabulary={})  # one token per byte


class TestTruncation:
    @given(
        body=st.text(alphabet="ab é漢😀\n|xyz", max_size=80),
        max_tokens=st.integers(min_value=1, max_value=40),
        heuristic=st.sampled_from(list(HeuristicId)),
        tok=st.sampled_from([MB_TOK, BYTE_TOK, None]),
    )
    def test_prefix_within_budget_and_exact(self, body, max_tokens, heuristic, tok):
        sel = select(_site(_page("https://a.sg/", body=body)), heuristic,
                     tok=tok, max_tokens=max_tokens)
        source = body
        if heuristic == HeuristicId.SHORTEST_URL_FILTERED:
            source = apply_reduction_filters(body)
        assert source.startswith(sel.content)
        assert count_tokens(sel.content, tok) == sel.reduced_token_estimate
        assert sel.reduced_token_estimate <= max_tokens
        assert sel.original_token_estimate == count_tokens(body, tok)

    def test_cut_inside_character_steps_back(self):
        # 14 byte tokens; token 12 ends on the 3rd of the emoji's 4 bytes,
        # so the cut steps back over two tokens to the emoji's first byte
        site = _site(_page("https://a.sg/", body="abcdefghij😀"))
        sel = select(site, HeuristicId.SHORTEST_URL, tok=BYTE_TOK, max_tokens=12)
        assert sel.content == "abcdefghij"
        assert sel.original_token_estimate == 14
        assert sel.reduced_token_estimate == 10

    @pytest.mark.parametrize("heuristic,encodes", [(1, 1), (2, 1), (3, 2)])
    def test_page_encoded_once_per_text(self, heuristic, encodes, monkeypatch):
        calls = []
        real_encode = tokens.encode

        def counting(text, tok):
            calls.append(text)
            return real_encode(text, tok)

        monkeypatch.setattr(tokens, "encode", counting)
        site = _site(_page("https://a.sg/", body="ab é漢😀 " * 50))
        select(site, HeuristicId(heuristic), tok=MB_TOK, max_tokens=20)
        assert len(calls) == encodes
