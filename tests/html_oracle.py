"""Oracle for ingest's text extraction: an html.parser reading of a page.

This is the extractor ingest used before its one-regex scan. It keeps
visible text, skips script/style/noscript/template bodies and comments,
takes the first <title> only, and unescapes character references in each
text run. `oracle_text` returns what `extract_page` should report for the
same page.

The parser is a copy of CPython 3.11.7's html.parser
(cpython_html_parser.py), not the running interpreter's: later CPython
releases read malformed markup differently, and the scan reproduces
3.11.7's reading.
"""

from cpython_html_parser import HTMLParser

SKIPPED_ELEMENTS = frozenset({"script", "style", "noscript", "template"})


class TextExtractor(HTMLParser):
    """Collects visible text and the first <title>, skipping script-like elements."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.chunks = []
        self.title_chunks = []
        self._skip_depth = 0
        self._in_title = False
        self._title_done = False

    def handle_starttag(self, tag, attrs):
        if tag in SKIPPED_ELEMENTS:
            self._skip_depth += 1
        elif tag == "title" and not self._title_done:
            self._in_title = True

    def handle_endtag(self, tag):
        if tag in SKIPPED_ELEMENTS and self._skip_depth > 0:
            self._skip_depth -= 1
        elif tag == "title" and self._in_title:
            self._in_title = False
            self._title_done = True

    def handle_data(self, data):
        if self._in_title:
            self.title_chunks.append(data)
        elif self._skip_depth == 0:
            self.chunks.append(data)


def _collapse(text):
    return " ".join(text.split())


def oracle_text(html):
    """(title, body text) of a page, whitespace collapsed.

    Raises AssertionError where html.parser does (a `<![` section with an
    unknown keyword).
    """
    parser = TextExtractor()
    parser.feed(html)
    parser.close()
    return _collapse("".join(parser.title_chunks)), _collapse("".join(parser.chunks))
