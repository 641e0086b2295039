"""JSON over HTTP(S) with the standard library's http.client.

A `Connection` talks to the host of one base URL and keeps its socket
open between posts until it is closed. Proxies come from the
environment (`http_proxy`, `https_proxy`, `no_proxy`): an HTTP request
goes to the proxy with the absolute URL as its target, an HTTPS request
through a CONNECT tunnel. HTTPS verifies the server against the system
CA store, or the bundle named by `SSL_CERT_FILE`.
"""

import base64
import functools
import http.client
import json
import os
import select
import ssl
import sys
from urllib.parse import unquote, urlsplit


@functools.lru_cache(maxsize=None)
def _tls_context():
    return ssl.create_default_context()


def _proxy(url):
    """The environment's proxy for url, split, or None to go direct. urllib.request
    loads only where one can apply: a `*_proxy` variable is set, or on macOS/Windows."""
    if sys.platform not in ("darwin", "win32") and not any(
            name.lower().endswith("_proxy") for name in os.environ):
        return None
    from urllib.request import getproxies, proxy_bypass

    proxy = getproxies().get(url.scheme)
    if not proxy or proxy_bypass(url.netloc):
        return None
    return urlsplit(proxy if "://" in proxy else "http://" + proxy)


def _proxy_auth(proxy):
    if proxy.username is None:
        return {}
    creds = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(creds.encode()).decode()}


class Connection:
    """One HTTP(S) connection to base_url's host; each post reuses it."""

    TIMEOUT = 60.0  # seconds to connect, and for each read of a reply

    def __init__(self, base_url: str):
        url = urlsplit(base_url)
        tls = url.scheme == "https"
        cls = http.client.HTTPSConnection if tls else http.client.HTTPConnection
        extra = {"context": _tls_context()} if tls else {}
        host, port = url.hostname, url.port or (443 if tls else 80)
        self.prefix = url.path.rstrip("/")
        self.headers = {"Content-Type": "application/json"}
        proxy = _proxy(url)
        if proxy is None:
            self.conn = cls(host, port, timeout=self.TIMEOUT, **extra)
            return
        self.conn = cls(proxy.hostname, proxy.port or 80, timeout=self.TIMEOUT, **extra)
        if tls:
            self.conn.set_tunnel(host, port, headers=_proxy_auth(proxy))
        else:  # absolute-form target
            self.prefix = f"http://{url.netloc.rpartition('@')[2]}{self.prefix}"
            self.headers.update(_proxy_auth(proxy))

    def post(self, path: str, obj, headers=None):
        """POST obj as JSON to the base URL's path + path.

        Returns (status, headers, body); the body is read in full, so the
        connection is free for the next post.
        """
        sock = self.conn.sock
        if sock is not None and select.select([sock], [], [], 0)[0]:
            self.conn.close()  # an idle socket that reads ready was closed by the server
        self.conn.request("POST", self.prefix + path, json.dumps(obj).encode("utf-8"),
                          {**self.headers, **(headers or {})})
        resp = self.conn.getresponse()
        return resp.status, resp.headers, resp.read()

    def close(self):
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
