"""The row of sites.jsonl, one WARC file's kept pages: select reads it without ingest."""

import os
import re
from typing import List, NamedTuple, Optional

from .store import dumps


class PageRecord(NamedTuple):
    url: str  # normalized
    raw_url: str
    title: str
    body_text: str
    http_status: Optional[int]
    char_count: int


class SiteDocument(NamedTuple):
    source_file: str
    pages: List[PageRecord]
    rejected_count: int = 0
    duplicate_count: int = 0
    undecodable_count: int = 0

    def to_json(self) -> str:
        return dumps(dict(self._asdict(), page_count=len(self.pages),
                          pages=[p._asdict() for p in self.pages]))

    @property
    def site_id(self) -> str:
        return re.sub(r"\.warc(?:\.gz)?\Z", "", os.path.basename(self.source_file))
