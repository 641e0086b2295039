"""Shared test helpers: WARC fixture builders, scriptable HTTP servers and
an in-process CLI runner."""

import contextlib
import gzip
import io
import json
import random
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def http_response_payload(status=200, content_type="text/html; charset=utf-8",
                          body=b"", headers=()):
    """An HTTP response message; `headers` are extra "Name: value" lines."""
    reason = {200: "OK", 404: "Not Found", 500: "Server Error"}.get(status, "X")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        + "".join(f"{line}\r\n" for line in headers)
        + f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


def warc_record(record_type, uri, payload,
                content_type="application/http; msgtype=response",
                declared_length=None):
    length = len(payload) if declared_length is None else declared_length
    head = (
        "WARC/1.0\r\n"
        f"WARC-Type: {record_type}\r\n"
        f"WARC-Target-URI: {uri}\r\n"
        "WARC-Date: 2024-06-01T00:00:00Z\r\n"
        "WARC-Record-ID: <urn:uuid:00000000-0000-0000-0000-000000000000>\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii")
    return head + payload + b"\r\n\r\n"


def html_page(title, body_text, extra=""):
    return (
        f"<html><head><title>{title}</title></head>"
        f"<body><p>{body_text}</p>{extra}</body></html>"
    ).encode("utf-8")


def response_record(uri, status=200, content_type="text/html; charset=utf-8",
                    body=b"", declared_length=None, headers=()):
    return warc_record(
        "response", uri, http_response_payload(status, content_type, body, headers),
        declared_length=declared_length,
    )


def build_warc(path, records, gzipped=False):
    if gzipped:
        # one gzip member per record, per the WARC convention
        data = b"".join(gzip.compress(r) for r in records)
    else:
        data = b"".join(records)
    path.write_bytes(data)
    return path


_WORDS = ("archive catalogue museum library record collection heritage digital "
          "service project research public history national gallery café").split()


def warc_corpus(root, n_files, pages=30, seed=0):
    """Write n_files WARC files under root; return their paths, in sorted order.

    Every fourth file is a broken one, in turn truncated, bad gzip and empty;
    the others hold `pages` HTML pages of about 4 KB of seeded random words,
    then a 404 page, a shorter copy of the first page and a page with no
    usable URL. The files are named *.warc, whatever they hold, so that the
    CLI's input order is this order.
    """
    rng = random.Random(seed)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_files):
        kind = ("truncated", "bad-gzip", "empty")[i // 4 % 3] if i % 4 == 3 else "ok"
        path = root / f"{i:04d}-{kind}.warc"
        records = [
            response_record(f"https://site{i}.sg/p{j}", body=html_page(
                f"Site {i} page {j}", " ".join(rng.choices(_WORDS, k=500))))
            for j in range(pages)
        ] + [
            response_record(f"https://site{i}.sg/gone", status=404,
                            body=html_page("Gone", "not here " * 20)),
            response_record(f"https://www.site{i}.sg/p0", body=html_page("Copy", "copy " * 20)),
            response_record("no-host", body=html_page("Lost", "no address " * 20)),
        ]
        if kind == "truncated":
            build_warc(path, records + [
                response_record(f"https://site{i}.sg/cut", body=b"x", declared_length=99_999)])
        elif kind == "bad-gzip":
            data = bytearray(b"".join(gzip.compress(r) for r in records))
            data[len(data) // 2:len(data) // 2 + 64] = bytes(64)
            path.write_bytes(data)
        else:
            build_warc(path, records if kind == "ok" else [])
        paths.append(path)
    return paths


def _chunked(data, size=16):
    """data in HTTP/1.1 chunked transfer coding, `size` bytes a chunk."""
    chunks = [data[i:i + size] for i in range(0, len(data), size)]
    return b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks) + b"0\r\n\r\n"


def defect_corpus(root):
    """Write one WARC file per site under root; return the directory.

    Two clean sites, then one site per known extraction, filter or decoding
    defect, each named for it: a nav of glued links, a one-line copyright
    page, a two-paragraph Chinese page, "404 Orchard Road", gb2312 with a
    GBK-only character, cp1252 quotes labelled iso-8859-1, UTF-16 with a
    BOM, a gzip Content-Encoding body, a chunked body, one page under four
    URLs, and a contact page with an email address and a phone number.
    Every byte is fixed, so the pipeline's outputs on it can be pinned.
    """
    root.mkdir(parents=True, exist_ok=True)
    fish = "We sell fresh fish at the harbour market every morning."
    chinese = ("<p>新加坡国家图书馆收藏了大量的历史文献和老照片。</p>"
               "<p>我们的网站介绍本地的文化遗产和社区活动。</p>")
    bread = html_page("Tiong Bahru Bakery", "We bake sourdough bread every morning in Tiong Bahru.")
    same = html_page("Kopi House", "Kopi House serves local coffee and kaya toast since 1968.")
    sites = {
        "clean-bakery": [
            response_record("https://bakery.sg/", body=html_page(
                "Bakery", "Fresh bread and cakes baked daily for the neighbourhood " * 3)),
            response_record("https://bakery.sg/about", body=html_page(
                "About us", "A family bakery founded in 1985 by the Tan family " * 3)),
            response_record("https://bakery.sg/products/breads", body=html_page(
                "Breads", "Sourdough, wholemeal and rye loaves with prices " * 6)),
        ],
        "clean-clinic": [
            response_record("https://clinic.sg/", body=html_page(
                "Family Clinic", "General practice and vaccinations for all ages " * 3)),
            response_record("https://clinic.sg/about-us", body=html_page(
                "Who we are", "Three doctors serving Toa Payoh residents since 2001 " * 3)),
            response_record("https://clinic.sg/services/list", body=html_page(
                "Services", "Health screening, travel vaccines and chronic care " * 5)),
        ],
        "glued-nav": [response_record("https://fish.sg/", body=(
            "<html><head><title>Harbour Fish</title></head><body><nav><a>Home</a>"
            f"<a>About</a><a>Contact</a></nav><p>{fish}</p></body></html>").encode())],
        "copyright-footer": [response_record("https://footer.sg/", body=html_page(
            "Footer Co", "Copyright 2024 Footer Trading Pte Ltd. All rights reserved."))],
        "chinese-page": [response_record("https://library.sg/", body=(
            f"<html><head><title>文化遗产</title></head><body>{chinese}</body></html>").encode())],
        "orchard-road": [
            response_record("https://tailor.sg/", body=html_page(
                "Orchard Tailor", "Bespoke suits and shirts made to measure in two weeks.")),
            response_record("https://tailor.sg/contact", body=html_page(
                "Contact", "Visit our shop at 404 Orchard Road, Singapore 238879, daily.")),
        ],
        "gb2312-label": [response_record(
            "https://news.sg/", content_type="text/html; charset=gb2312", body=html_page(
                "新闻", "朱镕基总理访问新加坡的新闻报道和照片收藏在这里。").decode().encode("gbk"))],
        "cp1252-quotes": [response_record(
            "https://quotes.sg/", content_type="text/html; charset=iso-8859-1", body=html_page(
                "Quotes", "Our motto is \u201cquality first\u201d for every customer we serve."
            ).decode().encode("cp1252"))],
        "utf16-bom": [response_record("https://wide.sg/", content_type="text/html", body=(
            b"\xff\xfe" + html_page("Wide", "A page saved as UTF-16 with a byte order mark.")
            .decode().encode("utf-16-le")))],
        "gzip-body": [response_record("https://zipped.sg/", body=gzip.compress(
            html_page("Zipped", "This page was sent with a gzip content coding."), mtime=0),
            headers=["Content-Encoding: gzip"])],
        "chunked-body": [response_record("https://chunks.sg/", body=_chunked(bread),
                                         headers=["Transfer-Encoding: chunked"])],
        "same-page-urls": [
            response_record(url, body=same)
            for url in ("http://kopi.sg/", "https://kopi.sg/", "https://kopi.sg/index.html",
                        "https://kopi.sg/?jsessionid=A1B2")],
        "contact-details": [
            response_record("https://movers.sg/", body=html_page(
                "Lion Movers", "House and office moving across the island, seven days a week.")),
            response_record("https://movers.sg/contact", body=html_page(
                "Contact", "Email hello@lionmovers.sg or call +65 6123 4567 for a quote.")),
        ],
    }
    for name, records in sites.items():
        build_warc(root / f"{name}.warc", records)
    return root


class MockChatServer:
    """Scriptable OpenAI-style /chat/completions endpoint.

    `script` is a list of responses; each entry is either a dict
    {"title": ..., "abstract": ...} (wrapped into a completion), a raw
    string (returned as the assistant message verbatim), bytes (sent
    as the whole 200 reply body), or an int HTTP status for an error
    reply; a 429 carries `Retry-After: retry_after`. When the script runs
    out, the last entry repeats. Tracks request bodies, headers and
    targets, client connections and the concurrent-connection high-water
    mark. With keep_alive the server speaks HTTP/1.1 and keeps each
    connection open for the client to reuse; otherwise it closes it after
    one reply.
    """

    def __init__(self, script=None, reply_fn=None, keep_alive=False, retry_after="0"):
        self.script = list(script or [])
        self.reply_fn = reply_fn
        self.requests = []
        self.headers = []  # one dict per request
        self.paths = []  # each request line's target
        self.connections = 0
        self.in_flight = 0
        self.high_water = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                # count concurrency only while the reply is being computed:
                # the decrement must land before the client can observe the
                # response, or a sequential client looks overlapped.
                with outer._lock:
                    outer.requests.append(body)
                    outer.headers.append(dict(self.headers))
                    outer.paths.append(self.path)
                    outer.in_flight += 1
                    outer.high_water = max(outer.high_water, outer.in_flight)
                try:
                    entry = outer._next_entry(body)
                finally:
                    with outer._lock:
                        outer.in_flight -= 1
                if isinstance(entry, int):
                    self.send_response(entry)
                    if entry == 429:
                        self.send_header("Retry-After", retry_after)
                    self.send_header("Content-Length", "2")
                    self.end_headers()
                    self.wfile.write(b"{}")
                    return
                if isinstance(entry, bytes):
                    data = entry
                else:
                    content = json.dumps(entry) if isinstance(entry, dict) else entry
                    reply = {"choices": [{"message": {"content": content}}]}
                    data = json.dumps(reply).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for serve_forever's next poll: keep it short
        self.thread = threading.Thread(target=self.server.serve_forever, args=(0.01,),
                                       daemon=True)

    def _next_entry(self, body):
        if self.reply_fn is not None:
            return self.reply_fn(body)
        with self._lock:
            if len(self.script) > 1:
                return self.script.pop(0)
            return self.script[0]

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        return False


@dataclass
class CliResult:
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    exception: BaseException | None = None  # what ended a run with a non-zero status


def run_cli(args):
    """Runs `warc2meta.cli.main(args)` in this process with stdout and stderr
    captured. A `sys.exit(message)` counts as status 1, its message written
    to the output, as the interpreter does at exit."""
    from warc2meta.cli import main

    buf = io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code or 0
            if not isinstance(code, int):
                print(code, file=buf)
                code = 1
            exception = exc if code else None
        except Exception as exc:  # a crash, not a reported error
            code, exception = 1, exc
    return CliResult(code, buf.getvalue(), exception)
