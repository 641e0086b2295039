"""Benchmark-owned OpenAI-style chat endpoint.

Replies are derived from the request content alone, so a site's reply
does not depend on arrival order or concurrency, and prompt variants
and heuristics produce different titles and abstracts (the ranking has
something to rank). Faults are keyed by content too: the corpus plants
a fixed number of (site host, prompt variant) pairs, read from the
request's URL line and system prompt. Each distinct request of a
rate-limited pair is refused once with `Retry-After: 0`; the first ask
of a re-ask pair gets a reply that breaks the JSON schema. A fixed
count, rather than a hash bucket, keeps the API spend the same for every
seed. Each request's handling time and each client connection are
recorded.
"""

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

RULES_MARKER = "following these rules"


def _key(messages):
    blob = json.dumps(messages, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).digest()


def fault_key(messages):
    """(site host, prompt variant) of a chat request."""
    url = messages[1]["content"].partition("\n")[0]
    variant = "rules" if RULES_MARKER in messages[0]["content"] else "norules"
    return urlsplit(url).hostname or "", variant


def reply_for(messages):
    """Deterministic {title, abstract} for a chat request."""
    system = messages[0]["content"]
    url, _, content = messages[1]["content"].partition("\n")
    h = int.from_bytes(_key(messages[:2])[8:16], "big")
    words = content.split()
    host = (urlsplit(url).hostname or "site").split(".")[0]
    name = " ".join(w.capitalize() for w in re.sub(r"\d+", "", host).split("-") if w)
    if RULES_MARKER in system:
        title = name if h % 3 else f"{name} {words[h % len(words)].strip('.,')}"
        span = words[5:5 + 20 + h % 30]
        abstract = (
            f"This is the website of {title} which offers {' '.join(span)} The website "
            "contains information of contact, location and its services."
        )
    else:
        start = h % 5
        title = " ".join(words[start:start + 2 + h % 5]) or name
        abstract = " ".join(words[start:start + 30 + h % 40])
    return {"title": title, "abstract": abstract}


class MockChat:
    """Threaded HTTP/1.1 endpoint; use as a context manager."""

    def __init__(self):
        self.rate_limited = frozenset()
        self.reasked = frozenset()
        self._lock = threading.Lock()
        self.reset()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with outer._lock:
                    outer.connections += 1

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                started = time.perf_counter()
                messages = json.loads(raw)["messages"]
                status, data = outer._handle(messages)
                self.send_response(status)
                if status == 429:
                    self.send_header("Retry-After", "0")
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                with outer._lock:
                    outer.log.append(
                        (started, time.perf_counter() - started, status, len(messages) > 2)
                    )

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)

    def reset(self):
        """Start a new stage: forget requests, connections and refused keys."""
        with self._lock:
            self._limited = set()
            self.log = []
            self.connections = 0

    def plant(self, rate_limited=(), reasked=()):
        """Set the (host, variant) pairs that get a 429 and a schema-breaking reply."""
        self.rate_limited = frozenset(map(tuple, rate_limited))
        self.reasked = frozenset(map(tuple, reasked))

    def _handle(self, messages):
        pair = fault_key(messages)
        if pair in self.rate_limited:
            key = _key(messages)
            with self._lock:
                refuse = key not in self._limited
                self._limited.add(key)
            if refuse:
                return 429, b'{"error": "rate limited"}'
        if pair in self.reasked and len(messages) == 2:
            content = "Sure! Here is the metadata you asked for."
        else:
            content = json.dumps(reply_for(messages))
        reply = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        return 200, json.dumps(reply).encode("utf-8")

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        return False
