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
                          body=b""):
    reason = {200: "OK", 404: "Not Found", 500: "Server Error"}.get(status, "X")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
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
                    body=b"", declared_length=None):
    return warc_record(
        "response", uri, http_response_payload(status, content_type, body),
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
