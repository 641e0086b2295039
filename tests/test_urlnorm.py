import pytest
from hypothesis import given, strategies as st

from warc2meta.errors import InvalidUrl
from warc2meta.urlnorm import normalize_url


def test_full_normalization():
    u = normalize_url("HTTP://WWW.Example.SG:80/About/#x")
    assert u.scheme == "http"
    assert u.host == "example.sg"
    assert u.path == "/About"
    assert u.query == ""


def test_root_path_fixed_point():
    assert normalize_url("https://a.sg/").path == "/"
    assert normalize_url("https://a.sg").path == "/"


def test_tracking_params_removed():
    assert normalize_url("https://a.sg/p?utm_source=x&q=1").query == "q=1"
    assert normalize_url("https://a.sg/p?fbclid=abc&gclid=def").query == ""


def test_non_default_port_kept():
    assert normalize_url("https://a.sg:8443/x").host == "a.sg:8443"
    assert normalize_url("https://a.sg:443/x").host == "a.sg"


def test_fragment_never_retained():
    assert "#" not in normalize_url("https://a.sg/p#frag").url


def test_dedup_key_roundtrip():
    u = normalize_url("https://a.sg/p?q=1")
    assert u.dedup_key == "https://a.sg/p?q=1"


@pytest.mark.parametrize("bad", ["", "not a url", "/relative/only", "mailto:",
                                 "http://example.com:99999/", "http://example.com:abc/x"])
def test_invalid_urls(bad):
    with pytest.raises(InvalidUrl):
        normalize_url(bad)


_hosts = st.from_regex(r"[a-z][a-z0-9]{0,10}\.(sg|com|org)", fullmatch=True)
_paths = st.from_regex(r"(/[A-Za-z0-9_\-]{0,8}){0,4}/?", fullmatch=True)
_queries = st.from_regex(r"([a-z]{1,5}=[a-z0-9]{0,4}&?){0,3}", fullmatch=True)


@given(host=_hosts, path=_paths, query=_queries,
       scheme=st.sampled_from(["http", "https", "HTTP"]),
       www=st.booleans())
def test_idempotent(host, path, query, scheme, www):
    raw = f"{scheme}://{'www.' if www else ''}{host}{path}"
    if query:
        raw += f"?{query}"
    once = normalize_url(raw)
    assert normalize_url(once.url) == once
