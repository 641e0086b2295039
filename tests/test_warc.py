import gzip

import pytest

from warc2meta.errors import MalformedWarcHeader, TruncatedRecord
from warc2meta.ingest import extract_page
from warc2meta.warc import open_warc_stream

from helpers import build_warc, html_page, response_record, warc_record


def test_empty_gzip_file_yields_no_records(tmp_path):
    path = tmp_path / "empty.warc.gz"
    path.write_bytes(b"")
    assert list(open_warc_stream(path)) == []


def test_empty_gzip_member(tmp_path):
    path = tmp_path / "empty2.warc.gz"
    path.write_bytes(gzip.compress(b""))
    assert list(open_warc_stream(path)) == []


def test_response_surfaced_request_skipped(tmp_path):
    records = [
        response_record("https://a.sg/", body=html_page("T", "hello")),
        warc_record("request", "https://a.sg/", b"GET / HTTP/1.1\r\n\r\n",
                    content_type="application/http; msgtype=request"),
    ]
    path = build_warc(tmp_path / "two.warc", records)
    out = list(open_warc_stream(path))
    assert len(out) == 1
    rec = out[0]
    assert rec.target_uri == "https://a.sg/"
    assert rec.http_status == 200
    assert rec.content_type.startswith("text/html")
    assert b"<title>T</title>" in rec.payload


def test_gzip_member_per_record(tmp_path):
    records = [
        response_record("https://a.sg/", body=html_page("A", "one")),
        response_record("https://a.sg/b", body=html_page("B", "two")),
    ]
    path = build_warc(tmp_path / "two.warc.gz", records, gzipped=True)
    out = list(open_warc_stream(path))
    assert [r.target_uri for r in out] == ["https://a.sg/", "https://a.sg/b"]


def test_truncated_record(tmp_path):
    rec = response_record("https://a.sg/", body=b"x", declared_length=10_000)
    path = build_warc(tmp_path / "trunc.warc", [rec])
    with pytest.raises(TruncatedRecord):
        list(open_warc_stream(path))


def test_malformed_version_line(tmp_path):
    path = tmp_path / "bad.warc"
    path.write_bytes(b"NOT-A-WARC/9.9\r\nWARC-Type: response\r\n\r\n")
    with pytest.raises(MalformedWarcHeader):
        list(open_warc_stream(path))


def test_missing_content_length(tmp_path):
    path = tmp_path / "nolen.warc"
    path.write_bytes(b"WARC/1.0\r\nWARC-Type: response\r\n\r\n")
    with pytest.raises(MalformedWarcHeader):
        list(open_warc_stream(path))


@pytest.mark.parametrize("length", [-1, -5])
def test_negative_content_length(tmp_path, length):
    # -1 would read the next records' headers into the first one's payload
    records = [response_record(f"https://a.sg/{i}", body=html_page("T", f"page {i}"),
                               declared_length=None if i else length) for i in range(3)]
    path = build_warc(tmp_path / "neg.warc", records)
    with pytest.raises(MalformedWarcHeader, match="invalid Content-Length"):
        list(open_warc_stream(path))


def test_lf_only_http_headers_keep_the_whole_body(tmp_path):
    # the body's CRLF blank line is not the end of the LF-only headers
    payload = (b"HTTP/1.1 200 OK\nContent-Type: text/html\n\n<html><title>T</title>"
               b"<p>first part</p>\r\n\r\n<p>second part</p></html>")
    path = build_warc(tmp_path / "lf.warc", [warc_record("response", "https://a.sg/", payload)])
    [rec] = open_warc_stream(path)
    assert (rec.http_status, rec.content_type) == (200, "text/html")
    page = extract_page(rec)
    assert (page.title, page.body_text) == ("T", "first part second part")


def test_resource_record_uses_warc_content_type(tmp_path):
    rec = warc_record("resource", "https://a.sg/page.html",
                      html_page("R", "resource body text"),
                      content_type="text/html")
    path = build_warc(tmp_path / "res.warc", [rec])
    [out] = open_warc_stream(path)  # the one resource record is surfaced
    assert out.target_uri == "https://a.sg/page.html"
    assert out.http_status is None
    assert out.content_type == "text/html"
    assert out.payload == html_page("R", "resource body text")


def test_streaming_record_size_accounting(tmp_path):
    # several hundred records: iteration must not require whole-file buffering;
    # each yielded payload is bounded by the largest single record
    big_body = html_page("T", "x" * 500)
    records = [
        response_record(f"https://a.sg/p{i}", body=big_body) for i in range(300)
    ]
    path = build_warc(tmp_path / "many.warc", records)
    max_payload = 0
    count = 0
    for rec in open_warc_stream(path):
        max_payload = max(max_payload, len(rec.payload))
        count += 1
    assert count == 300
    assert max_payload <= len(big_body)
