"""HTML page extraction, quality filtering, and per-file consolidation.

One WARC file becomes one SiteDocument: HTML records are extracted,
low-quality pages dropped, and duplicate URLs collapsed to the variant
with the most body text.
"""

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from html.parser import HTMLParser
from typing import List, Optional

from .errors import InvalidUrl
from .store import dumps
from .urlnorm import NormalizedUrl, normalize_url
from .warc import RawWarcRecord, open_warc_stream

HTML_CONTENT_TYPES = ("text/html", "application/xhtml+xml")
DEFAULT_MIN_CHARS = 30
REJECT_MARKERS = ("404", "page not found", "lorem ipsum")

_META_CHARSET_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([a-zA-Z0-9_\-]+)""", re.I
)
_CHARSET_PARAM_RE = re.compile(r"charset\s*=\s*([a-zA-Z0-9_\-]+)", re.I)
_SKIPPED_ELEMENTS = frozenset({"script", "style", "noscript", "template"})


@dataclass(frozen=True)
class PageRecord:
    url: NormalizedUrl
    raw_url: str
    page_title: str
    body_text: str
    http_status: Optional[int]
    char_count: int


@dataclass
class SiteDocument:
    source_file: str
    pages: List[PageRecord]
    rejected_count: int = 0
    duplicate_count: int = 0
    undecodable_count: int = 0

    def to_json(self) -> str:
        return dumps(
            {
                "source_file": self.source_file,
                "page_count": len(self.pages),
                "rejected_count": self.rejected_count,
                "duplicate_count": self.duplicate_count,
                "undecodable_count": self.undecodable_count,
                "pages": [
                    {
                        "url": p.url.url,
                        "raw_url": p.raw_url,
                        "title": p.page_title,
                        "char_count": p.char_count,
                        "http_status": p.http_status,
                        "body_text": p.body_text,
                    }
                    for p in self.pages
                ],
            }
        )

    @classmethod
    def from_json(cls, row) -> "SiteDocument":
        """From a site row, as text or parsed."""
        obj = json.loads(row) if isinstance(row, str) else row
        pages = [
            PageRecord(
                url=normalize_url(p["url"]),
                raw_url=p["raw_url"],
                page_title=p["title"],
                body_text=p["body_text"],
                http_status=p["http_status"],
                char_count=p["char_count"],
            )
            for p in obj["pages"]
        ]
        return cls(
            source_file=obj["source_file"],
            pages=pages,
            rejected_count=obj["rejected_count"],
            duplicate_count=obj["duplicate_count"],
            undecodable_count=obj.get("undecodable_count", 0),
        )


class _TextExtractor(HTMLParser):
    """Collects visible text and the first <title>, skipping script-like elements."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks = []
        self.title_chunks = []
        self._skip_depth = 0
        self._in_title = False
        self._title_done = False

    def handle_starttag(self, tag, attrs):
        if tag in _SKIPPED_ELEMENTS:
            self._skip_depth += 1
        elif tag == "title" and not self._title_done:
            self._in_title = True

    def handle_endtag(self, tag):
        if tag in _SKIPPED_ELEMENTS and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag == "title" and self._in_title:
            self._in_title = False
            self._title_done = True

    def handle_data(self, data):
        if self._in_title:
            self.title_chunks.append(data)
        elif self._skip_depth == 0:
            self.chunks.append(data)


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _decode_body(payload: bytes, content_type: Optional[str]) -> Optional[str]:
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
            return payload.decode(enc)
        except (UnicodeDecodeError, LookupError):
            continue
    try:
        return payload.decode("utf-8", errors="replace")
    except Exception:
        return None


def _is_html(record: RawWarcRecord) -> bool:
    media_type = (record.content_type or "").split(";")[0].strip().lower()
    return media_type in HTML_CONTENT_TYPES


def extract_page(record: RawWarcRecord) -> Optional[PageRecord]:
    """Turn an HTML record into a PageRecord; None for non-HTML or undecodable."""
    if not _is_html(record):
        return None
    body = _decode_body(record.payload, record.content_type)
    if body is None:
        return None
    try:
        url = normalize_url(record.target_uri)
    except InvalidUrl:
        return None
    parser = _TextExtractor()
    try:
        parser.feed(body)
        parser.close()
    except Exception:
        return None
    body_text = _collapse("".join(parser.chunks))
    return PageRecord(
        url=url,
        raw_url=record.target_uri,
        page_title=_collapse("".join(parser.title_chunks)),
        body_text=body_text,
        http_status=record.http_status,
        char_count=len(body_text),
    )


def quality_filter(page: PageRecord, min_chars: int = DEFAULT_MIN_CHARS) -> Optional[str]:
    """Return a rejection reason, or None to keep the page."""
    if page.http_status is not None and page.http_status >= 400:
        return "status"
    haystack = (page.page_title + " " + page.body_text).lower()
    for marker in REJECT_MARKERS:
        if marker in haystack:
            return "placeholder"
    if page.char_count < min_chars:
        return "too_short"
    return None


def deduplicate(pages: List[PageRecord]) -> List[PageRecord]:
    """Keep the longest-body page per dedup_key; first-occurrence key order."""
    best = {}
    order = []
    for page in pages:
        key = page.url.dedup_key
        if key not in best:
            best[key] = page
            order.append(key)
        elif page.char_count > best[key].char_count:
            best[key] = page
    return [best[k] for k in order]


def ingest_warc_file(path, min_chars: int = DEFAULT_MIN_CHARS) -> SiteDocument:
    """Stream one WARC file into a deduplicated, quality-filtered SiteDocument."""
    kept = []
    rejected = 0
    undecodable = 0
    for record in open_warc_stream(path):
        page = extract_page(record)
        if page is None:
            if _is_html(record):
                undecodable += 1
            continue
        if quality_filter(page, min_chars) is not None:
            rejected += 1
            continue
        kept.append(page)
    pages = deduplicate(kept)
    return SiteDocument(
        source_file=str(path),
        pages=pages,
        rejected_count=rejected,
        duplicate_count=len(kept) - len(pages),
        undecodable_count=undecodable,
    )


def ingest_many(paths, workers: int = 4, min_chars: int = DEFAULT_MIN_CHARS):
    """Ingest WARC files in a bounded worker pool.

    Returns (documents, errors) where errors is a list of (path, exception).
    Output order matches input order.
    """
    docs = []
    errors = []
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [(p, pool.submit(ingest_warc_file, p, min_chars)) for p in paths]
        for path, fut in futures:
            try:
                docs.append(fut.result())
            except Exception as exc:
                errors.append((path, exc))
    return docs, errors
