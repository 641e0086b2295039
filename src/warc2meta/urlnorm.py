"""URL standardization for crawl deduplication.

A normalized URL is a string, `scheme://host[:port]/path[?query]`: the
scheme and host lowercased, `www.` and a default port dropped, an IP
literal host kept in its brackets, no fragment, no trailing slash but the
root's, and no tracking parameters. Normalization is a fixed point:
applying it to a normalized URL gives the same string.
"""

from urllib.parse import urlsplit

from .errors import InvalidUrl

# query parameters stripped by default; utm_* matched as a prefix
TRACKING_PARAMS = ("fbclid", "gclid")
TRACKING_PREFIXES = ("utm_",)

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def _is_tracking_param(name: str) -> bool:
    lowered = name.lower()
    if lowered in TRACKING_PARAMS:
        return True
    return any(lowered.startswith(p) for p in TRACKING_PREFIXES)


def normalize_url(raw: str) -> str:
    """Standardize an absolute URL; raises InvalidUrl otherwise."""
    try:
        parts = urlsplit(raw.strip())
        port = parts.port  # raises on a port that is not a number in 0-65535
    except ValueError as exc:
        raise InvalidUrl(f"{raw!r}: {exc}") from exc
    if not parts.scheme or not parts.netloc:
        raise InvalidUrl(f"not an absolute URL: {raw!r}")

    scheme = parts.scheme.lower()
    host = parts.hostname or ""  # lowercased, an IP literal's brackets dropped
    if ":" in host:
        host = f"[{host}]"
    elif host.startswith("www."):
        host = host[4:]
    if not host:
        raise InvalidUrl(f"no host: {raw!r}")
    if port is not None and str(port) != _DEFAULT_PORTS.get(scheme):
        host = f"{host}:{port}"

    path = parts.path or "/"
    if path != "/" and path.endswith("/"):
        path = path.rstrip("/") or "/"
    if not path.startswith("/"):
        path = "/" + path

    kept = []
    for pair in parts.query.split("&"):
        if not pair:
            continue
        name = pair.split("=", 1)[0]
        if not _is_tracking_param(name):
            kept.append(pair)
    query = "&".join(kept)

    return f"{scheme}://{host}{path}" + (f"?{query}" if query else "")
