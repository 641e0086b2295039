"""Streaming reader for WARC 1.0/1.1 files, plain or gzipped.

Only response and resource records are surfaced; everything else
(request, metadata, warcinfo, ...) is skipped silently. Records are
yielded one at a time so peak memory is bounded by the largest single
record, not by file size.
"""

import gzip
import io
import re
import zlib
from typing import Iterator, NamedTuple, Optional

from .errors import GzipError, MalformedWarcHeader, TruncatedRecord

_VERSION_RE = re.compile(rb"^WARC/(\d+\.\d+)\r?\n?$")
_STATUS_RE = re.compile(rb"^HTTP/\d\.\d\s+(\d{3})")

SURFACED_TYPES = ("response", "resource")


class RawWarcRecord(NamedTuple):
    """One response/resource record with its HTTP envelope removed."""

    target_uri: str
    http_status: Optional[int]
    content_type: Optional[str]
    payload: bytes


def _read_headers(stream) -> dict:
    """Read header lines up to the blank separator; keys lowercased."""
    headers = {}
    while True:
        line = stream.readline()
        if not line:
            raise MalformedWarcHeader("EOF inside WARC header block")
        if line in (b"\r\n", b"\n"):
            return headers
        if b":" not in line:
            raise MalformedWarcHeader(f"header line without colon: {line[:60]!r}")
        name, _, value = line.partition(b":")
        headers[name.strip().lower().decode("latin-1")] = value.strip().decode(
            "latin-1", "replace"
        )


def _split_http_payload(payload: bytes):
    """Split an application/http payload into (status, content_type, body)."""
    m = _STATUS_RE.match(payload)
    if not m:
        return None, None, payload
    status = int(m.group(1))
    # the headers end at the first blank line, CRLF or bare LF: the body
    # may hold a blank line of the other kind
    idx = payload.find(b"\r\n\r\n")
    lf = payload.find(b"\n\n", 0, None if idx == -1 else idx)
    if lf != -1:
        head, body = payload[:lf], payload[lf + 2:]
    elif idx != -1:
        head, body = payload[:idx], payload[idx + 4:]
    else:
        head, body = payload, b""
    content_type = None
    for line in head.split(b"\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-type":
            content_type = value.strip().decode("latin-1", "replace")
            break
    return status, content_type, body


def _iter_records(stream) -> Iterator[RawWarcRecord]:
    while True:
        line = stream.readline()
        # tolerate record-separator blank lines between records
        while line in (b"\r\n", b"\n"):
            line = stream.readline()
        if not line:
            return
        if not _VERSION_RE.match(line.strip() + b"\n"):
            raise MalformedWarcHeader(f"bad WARC version line: {line[:60]!r}")
        headers = _read_headers(stream)
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError):
            length = -1
        if length < 0:  # stream.read(-1) would read the rest of the file
            raise MalformedWarcHeader("missing or invalid Content-Length")
        rec_type = headers.get("warc-type")
        if rec_type is None:
            raise MalformedWarcHeader("missing WARC-Type")
        payload = stream.read(length)
        if len(payload) < length:
            raise TruncatedRecord(
                f"record declares {length} bytes, got {len(payload)}"
            )
        if rec_type not in SURFACED_TYPES:
            continue
        uri = headers.get("warc-target-uri", "")
        if uri.startswith("<") and uri.endswith(">"):
            uri = uri[1:-1]
        warc_ct = headers.get("content-type", "")
        if warc_ct.startswith("application/http"):
            status, content_type, body = _split_http_payload(payload)
        else:
            status, content_type, body = None, warc_ct or None, payload
        yield RawWarcRecord(uri, status, content_type, body)


def open_warc_stream(path) -> Iterator[RawWarcRecord]:
    """Yield RawWarcRecords from a .warc or .warc.gz file in file order."""
    raw = open(path, "rb")
    try:
        magic = raw.read(2)
        raw.seek(0)
        if magic == b"\x1f\x8b":
            # gzip module transparently walks member-per-record files; a
            # 64 KiB buffer cuts the GzipFile reads that readline triggers
            stream = io.BufferedReader(gzip.GzipFile(fileobj=raw), 1 << 16)
        elif magic == b"":
            return
        else:
            stream = raw  # open() already buffers it
        try:
            yield from _iter_records(stream)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise GzipError(str(exc)) from exc
    finally:
        raw.close()
