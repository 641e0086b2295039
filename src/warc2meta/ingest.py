"""HTML page extraction, quality filtering, and per-file consolidation.

One WARC file becomes one SiteDocument (see `sites`): HTML records are
extracted, low-quality pages dropped, and duplicate URLs collapsed to the
variant with the most body text.
"""

import codecs
import os
import re
from collections import Counter
from functools import lru_cache
from html import unescape
from itertools import compress, repeat
from typing import List, NamedTuple, Optional

from .config import PipelineConfig
from .errors import InvalidUrl
from .sites import PageRecord, SiteDocument
from .urlnorm import normalize_url
from .warc import RawWarcRecord, open_warc_stream

HTML_CONTENT_TYPES = ("text/html", "application/xhtml+xml")
REJECT_MARKERS = ("404", "page not found", "lorem ipsum")
_REJECT_BYTES = tuple(marker.encode() for marker in REJECT_MARKERS)

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([a-zA-Z0-9_\-]+)""", re.I
)
_CHARSET_PARAM_RE = re.compile(r'charset\s*=\s*"?([a-zA-Z0-9_\-]+)', re.I)  # "quoted" too


# html.parser's grammar where it decides what is text: the tag names that
# change what is kept (ASCII case-insensitive, as it lowercases names), a
# tag name, and the attributes after it (quoted, bare or no value).
_SPECIAL = r"(?ai:script|style|noscript|template|title)"
_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_WHOLE = r"(?![^\t\n\r\f />\x00])"  # the tag name ends here
_ATTRS = (r"""(?:\s|/(?!>))*(?:(?<=['"\s/])[^\s/>][^\s/=>]*"""
          r"""(?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*)*""")
# Markup that runs to a close of its own, as (opener, close): comments, and
# marked sections by keyword.
_OPENERS = (
    (r"!--", r"--\s*>"),
    (r"!\[(?ai:temp|cdata|ignore|include|rcdata)(?![-_.a-zA-Z0-9])", r"\]\s*\]\s*>"),
    (r"!\[(?ai:if|else|endif)(?![-_.a-zA-Z0-9])", r"\]\s*>"),
)


@lru_cache(maxsize=None)
def _scanner(openers):
    """The scan regex for a page whose `openers` may still find their close."""
    # Dropped: other start and end tags, closed comments and marked
    # sections, processing instructions and declarations. The ordinary
    # start and end tags that make up most of a page (an ASCII name and
    # ` name="value"` attributes) match only what the general tag
    # alternatives after them match, at the same span, but with no capture
    # and no atomic group, so the scan tries them first. A run of them with
    # no text between is one match: each tag in it is what a match starting
    # there would take, and the empty text runs it skips add nothing.
    ordinary = (rf'(?:(?!{_SPECIAL}[ >])[a-zA-Z][a-zA-Z0-9]*(?: [a-zA-Z][a-zA-Z-]*="[^"]*")*>'
                rf"|/(?!{_SPECIAL}>)[a-zA-Z][a-zA-Z0-9]*>)")
    dropped = (
        rf"{ordinary}(?:<{ordinary})*",
        rf"(?!{_SPECIAL}{_WHOLE})(?>{_TAG_NAME}{_ATTRS})/?>",
        rf"/(?!\s*{_SPECIAL}\s*>|{_SPECIAL}[\t\n\r\f /\x00])[^>]*>",
        *(rf"{opener}(?s:.*?){close}" for opener, close in openers),
        r"\?[^>]*>", r"!(?!--|\[)[^>]*>",
    )
    # Captured in `sp` for the scan loop, in this group order: the special
    # end and start tags (script and style take their raw text through their
    # end tag); a start tag cut short, which html.parser keeps as raw text
    # (`junk`); an opener with no close after it, taken with the rest of
    # the page; and any other unterminated construct, which is text through
    # the next '>', or the rest of the page when no '>' is left.
    kept = (
        rf"/(?:\s+(?={_SPECIAL}\s*>))?(?P<end>{_SPECIAL})(?:\s*>|[\t\n\r\f /\x00][^>]*>)",
        rf"(?>(?P<name>(?P<raw>(?ai:script|style))|{_SPECIAL}){_WHOLE}{_ATTRS})"
        r"(?P<close>/)?>(?(close)|(?(raw)(?:(?P<rawtext>(?s:.*?))</\s*(?ai:(?P=raw))\s*>|(?s:.*))))",
        rf"(?P<junk>(?>{_TAG_NAME}{_ATTRS}))(?=[^>/=a-zA-Z])",
        rf"(?P<opener>{'|'.join(opener for opener, _ in openers) or '(?!)'})(?s:.*)",
        r"(?=[a-zA-Z/!?])(?:[^>]*>|(?s:.*))",
    )
    return re.compile(rf"<(?:{'|'.join(dropped)}|(?P<sp>{'|'.join(kept)}))")


# After a page's last '>' no markup can close, and html.parser reads the
# rest as text, but for a start tag's name cut short by "\x00".
_TAIL_RE = re.compile(r"(<[a-zA-Z][^\t\n\r\f />\x00]*)(?=(\x00)?)")


def extract_text(page: str) -> tuple[str, str]:
    """(title, body text) of an HTML page, read as html.parser reads it.

    Text inside script, style, noscript and template is dropped; the first
    <title> is the title, a later one's text is body text. Whitespace is
    collapsed.
    """
    # each text run between tags is unescaped on its own
    join = (lambda runs: "".join(map(unescape, runs))) if "&" in page else "".join
    title, body = [], []
    depth, in_title, title_done = 0, False, False
    openers = _OPENERS
    # The scanner compiles on the first page, not at import, so a process
    # that scans no page pays nothing for it. Every scanner has the same
    # groups, and split() yields a text run, then every group.
    scanner = _scanner(openers)
    sp, groups = scanner.groupindex["sp"], scanner.groups + 1
    while page:
        parts, page, start = _scanner(openers).split(page), "", 0
        last = len(parts) - 1
        # each kept markup's `sp` entry, then one past the page's last text run
        for i in (*compress(range(sp, last, groups), parts[sp::groups]), last + sp):
            at = i - sp  # the text run before this markup
            sink = title if in_title else None if depth else body
            if sink is not None:
                sink.append(join(parts[start:at + 1:groups]))
            if at == last:
                break
            start = at + groups
            end, name, raw, close, rawtext, junk, opener = parts[i + 1:start]
            if end:
                if end.lower() != "title":
                    depth -= depth > 0
                elif in_title:
                    in_title, title_done = False, True
            elif raw:
                if in_title and rawtext is not None:
                    title.append(rawtext)
            elif name:
                if name.lower() != "title":
                    depth += not close
                elif not title_done:
                    in_title, title_done = not close, bool(close)
            elif opener:
                # No close of this kind follows, so no later opener of it
                # closes either: rescan the rest without the kind, or each
                # one would read to the page's end again.
                openers = tuple(o for o in openers if not re.fullmatch(o[0], opener))
                page = "<" + parts[i]
                break
            elif sink is not None:
                text = "<" + parts[i]
                sink.append(text if junk else unescape(text) if text[-1] == ">"
                            else _tail_text(text))
    return _collapse("".join(title)), _collapse("".join(body))


def _tail_text(tail: str) -> str:
    parts = _TAIL_RE.split(tail)  # text, tag name, "\x00" or None, text, ...
    out = [unescape(parts[0])]
    for name, nul, text in zip(*[iter(parts[1:])] * 3):
        # a name ending in a quote lets "\x00" begin an attribute instead
        out += name if nul and name[-1] not in "'\"" else unescape(name), unescape(text)
    return "".join(out)


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _decode_body(payload: bytes, content_type: Optional[str]) -> str:
    encodings = []
    if content_type:
        m = _CHARSET_PARAM_RE.search(content_type)
        if m:
            encodings.append(m.group(1))
    m = _META_CHARSET_RE.search(payload[:2048])
    if m:
        encodings.append(m.group(1).decode("ascii", "ignore"))
    for enc in encodings:
        try:
            text = payload.decode(enc)
            if codecs.lookup(enc).name != "utf-8":  # strict UTF-8 yields no surrogate
                text.encode("utf-8")  # a lone surrogate (utf-7 "+2D0-") fails the label
            return text
        except (UnicodeError, LookupError):  # `undefined` raises a plain UnicodeError
            continue
    return payload.decode("utf-8", errors="replace")


def _is_html(record: RawWarcRecord) -> bool:
    media_type = (record.content_type or "").split(";")[0].strip().lower()
    return media_type in HTML_CONTENT_TYPES


def extract_page(record: RawWarcRecord, known_html: bool = False) -> Optional[PageRecord]:
    """Turn an HTML record into a PageRecord; None for non-HTML or a bad URL.
    A caller that has found the record to be HTML says so by `known_html`."""
    if not (known_html or _is_html(record)):
        return None
    try:
        url = normalize_url(record.target_uri)
    except InvalidUrl:
        return None
    title, body_text = extract_text(_decode_body(record.payload, record.content_type))
    return PageRecord(
        url=url,
        raw_url=record.target_uri,
        title=title,
        body_text=body_text,
        http_status=record.http_status,
        char_count=len(body_text),
    )


def quality_filter(page: PageRecord,
                   min_chars: int = PipelineConfig().min_chars) -> Optional[str]:
    """Return a rejection reason, or None to keep the page."""
    if page.http_status is not None and page.http_status >= 400:
        return "status"
    # The ASCII-lowered UTF-8 bytes hold the markers str.lower() finds, far
    # faster on non-ASCII text: only U+0130 and U+212A lower to ASCII letters
    # ("i" before U+0307, and "k"), and no marker can take either. A page
    # not made by extract_page may hold a lone surrogate, hence "surrogatepass".
    haystack = (page.title + " " + page.body_text).encode("utf-8", "surrogatepass").lower()
    for marker in _REJECT_BYTES:
        if marker in haystack:
            return "placeholder"
    if page.char_count < min_chars:
        return "too_short"
    return None


def deduplicate(pages: List[PageRecord]) -> List[PageRecord]:
    """Keep the longest-body page per normalized URL; first-occurrence URL order."""
    best = {}  # a replaced value keeps its key's place
    for page in pages:
        if page.url not in best or page.char_count > best[page.url].char_count:
            best[page.url] = page
    return list(best.values())


def ingest_warc_file(path, min_chars: int = PipelineConfig().min_chars,
                     rejected: Optional[Counter] = None) -> SiteDocument:
    """Stream one WARC file into a deduplicated, quality-filtered SiteDocument;
    `rejected`, an empty Counter if given, counts its rejected pages by reason."""
    kept = []
    rejected = Counter() if rejected is None else rejected
    undecodable = 0
    for record in open_warc_stream(path):
        if not _is_html(record):
            continue
        page = extract_page(record, known_html=True)
        if page is None:
            undecodable += 1
            continue
        reason = quality_filter(page, min_chars)
        if reason is not None:
            rejected[reason] += 1
            continue
        kept.append(page)
    pages = deduplicate(kept)
    return SiteDocument(str(path), pages, rejected_count=rejected.total(),
                        duplicate_count=len(kept) - len(pages), undecodable_count=undecodable)


# quality_filter's reasons, and a FileResult's page counts, named as the
# ingest manifest names their sums.
REJECT_REASONS = ("status", "placeholder", "too_short")
PAGE_COUNTS = ("pages_kept", "pages_rejected", "pages_duplicate", "pages_undecodable",
               *(f"pages_rejected_{reason}" for reason in REJECT_REASONS))


class FileResult(NamedTuple):
    """One WARC file's outcome: its site row and page counts, or the
    `"{type}: {message}"` line of the error that stopped it."""

    row: Optional[str] = None
    counts: Optional[dict] = None
    error: Optional[str] = None


def _ingest_file(path, min_chars: int) -> FileResult:
    # The pool's task, private so that no tracer rebinds it to a wrapper the
    # pool cannot pickle. It returns only strings and ints: an exception whose
    # __init__ takes other arguments than its message cannot be unpickled.
    rejected = Counter()
    try:
        doc = ingest_warc_file(path, min_chars, rejected)
    except Exception as exc:
        return FileResult(error=f"{type(exc).__name__}: {exc}")
    return FileResult(doc.to_json(), dict(zip(PAGE_COUNTS, (
        len(doc.pages), doc.rejected_count, doc.duplicate_count, doc.undecodable_count,
        *(rejected[reason] for reason in REJECT_REASONS)))))


# A pool costs about 35 ms to import, fork and stop. Ingest through one
# broke even at about 0.6 MB of gzipped WARC files and 1.8 MB of plain ones
# (crawl-like sites, 2-core KVM guest, CPython 3.11); less runs inline.
POOL_MIN_BYTES = 1 << 20


def ingest_many(paths, min_chars: int = PipelineConfig().min_chars):
    """Yield each WARC file's FileResult, in input order, as it is ready.

    The files are ingested by a pool of processes, one per usable core, when
    there are at least two usable cores and two files, the files hold at
    least POOL_MIN_BYTES on disk, and the platform can fork; otherwise one
    after another in this process, by the same function. The pool forks,
    whatever the platform's default start method, so its workers inherit
    the loaded modules instead of importing them again. Only the results
    still to be read are held, not every document.
    """
    paths = list(paths)
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cores or 1, len(paths))
    if workers >= 2 and sum(os.path.getsize(p) for p in paths if os.path.isfile(p)) >= POOL_MIN_BYTES:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # multiprocessing flushes sys.stdout and sys.stderr before each
            # fork, so no worker writes out a second copy of buffered output
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                yield from pool.map(_ingest_file, paths, repeat(min_chars))
            return
    yield from map(_ingest_file, paths, repeat(min_chars))
