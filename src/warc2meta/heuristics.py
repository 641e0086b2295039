"""Page-selection heuristics that collapse a site to one content block.

One `select`, with three strategies keyed by stable integer codes:
  1 = prefer the About page, falling back to the shortest URL
  2 = shortest URL
  3 = shortest URL plus regex filtering of the chosen content
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

from .config import PipelineConfig
from .errors import EmptySite, InvalidPattern
from .prompts import HeuristicId, Selection
from .sites import SiteDocument
from .tokens import TokenizerHandle, truncate


# An About page's path segment, in any case, with or without one file
# extension of 1-5 ASCII letters or digits ("about.html").
_ABOUT_RE = re.compile(r"(?ai:about|about-us|aboutus|about_us|who-we-are)(?:\.[a-zA-Z0-9]{1,5})?")


class FilterRule(NamedTuple):
    name: str
    pattern: str
    replacement: str

    def compiled(self):
        try:
            return re.compile(self.pattern)
        except re.error as exc:
            raise InvalidPattern(f"rule {self.name!r}: {exc}") from exc


# Order matters: pipe-separated nav fragments are split into lines
# before the line-level rules run; whitespace collapse comes last.
DEFAULT_FILTER_RULES = [
    FilterRule("nav-separators", r"[ \t]*\|[ \t]*", "\n"),
    FilterRule(
        "short-lines",
        r"(?m)^[^\S\n]*(?:\S+(?:[^\S\n]+\S+)?)?[^\S\n]*$\n?",
        "",
    ),
    FilterRule(
        "boilerplate-lines",
        r"(?mi)^.*(?:copyright|©|all rights reserved|cookie).*$\n?",
        "",
    ),
    FilterRule("symbol-runs", r"[^\w\s]{6,}", ""),
    FilterRule("whitespace", r"\s+", " "),
]


def load_filter_rules(path) -> List[FilterRule]:
    """Load rules from a text file, one per line: name<TAB>pattern<TAB>replacement."""
    rules = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if any("\udc80" <= c <= "\udcff" for c in line):  # an escaped non-UTF-8 byte
                raise InvalidPattern(f"{path}:{lineno}: not UTF-8 text")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InvalidPattern(
                    f"{path}:{lineno}: expected name<TAB>pattern<TAB>replacement"
                )
            rule = FilterRule(*parts)
            rule.compiled()  # validate at load time
            rules.append(rule)
    return rules


def apply_reduction_filters(text: str, rules: Optional[List[FilterRule]] = None) -> str:
    """Apply regex rules in order, globally, then strip the edges."""
    if rules is None:
        rules = DEFAULT_FILTER_RULES
    for rule in rules:
        text = rule.compiled().sub(rule.replacement, text)
    return text.strip()


def _path_segments(url: str) -> List[str]:
    """urlsplit(url).path.split("/")[1:] of a normalized URL, whose path
    runs from its third "/" to its first "?"."""
    return url.partition("?")[0].split("/")[3:]


def select(
    site: SiteDocument,
    heuristic: HeuristicId,
    rules: Optional[List[FilterRule]] = None,
    tok: Optional[TokenizerHandle] = None,
    max_tokens: int = PipelineConfig().max_content_tokens,
) -> Selection:
    """Pick the page with the shortest normalized URL (ties: lexicographic),
    among the About pages under heuristic 1 when the site has one, and cut
    its text to max_tokens. Heuristic 3 cuts the text after the filter
    rules, and still counts the unfiltered page as original_token_estimate."""
    heuristic = HeuristicId(heuristic)
    if not site.pages:
        raise EmptySite(site.source_file)
    about = []
    if heuristic == HeuristicId.ABOUT_PRIORITY:
        about = [p for p in site.pages if any(map(_ABOUT_RE.fullmatch, _path_segments(p.url)))]
    page = min(about or site.pages, key=lambda p: (len(p.url), p.url))
    content, original, reduced = truncate(page.body_text, max_tokens, tok)
    if heuristic == HeuristicId.SHORTEST_URL_FILTERED:
        filtered = apply_reduction_filters(page.body_text, rules)
        content, _, reduced = truncate(filtered, max_tokens, tok)
    return Selection(site.site_id, heuristic, page.url, content, original, reduced)
