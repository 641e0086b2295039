import pytest
from hypothesis import given, strategies as st

from warc2meta.errors import InvalidUrl
from warc2meta.urlnorm import normalize_url


def test_full_normalization():
    assert normalize_url("HTTP://WWW.Example.SG:80/About/#x") == "http://example.sg/About"


def test_root_path_fixed_point():
    assert normalize_url("https://a.sg/") == "https://a.sg/"
    assert normalize_url("https://a.sg") == "https://a.sg/"


def test_tracking_params_removed():
    assert normalize_url("https://a.sg/p?utm_source=x&q=1") == "https://a.sg/p?q=1"
    assert normalize_url("https://a.sg/p?fbclid=abc&gclid=def") == "https://a.sg/p"


def test_non_default_port_kept():
    assert normalize_url("https://a.sg:8443/x") == "https://a.sg:8443/x"
    assert normalize_url("https://a.sg:443/x") == "https://a.sg/x"
    # an IP literal host keeps its brackets (RFC 3986 3.2.2)
    assert normalize_url("HTTP://[2001:DB8::1]:8080/x/") == "http://[2001:db8::1]:8080/x"
    assert normalize_url("https://[::1]:443") == "https://[::1]/"


def test_fragment_never_retained():
    assert normalize_url("https://a.sg/p#frag") == "https://a.sg/p"


def test_dedup_key_roundtrip():
    assert normalize_url("https://a.sg/p?q=1") == "https://a.sg/p?q=1"


@pytest.mark.parametrize("bad", ["", "not a url", "/relative/only", "mailto:",
                                 "http://example.com:99999/", "http://example.com:abc/x",
                                 "http://user@/x", "http://:80/", "https://www./"])
def test_invalid_urls(bad):
    with pytest.raises(InvalidUrl):
        normalize_url(bad)


_names = st.from_regex(r"(www\.)?[a-z][a-z0-9]{0,10}\.(sg|com|org)", fullmatch=True)
_ports = st.just("") | st.integers(0, 65535).map(":{}".format)
_ip_literals = st.builds("[{}]{}".format, st.ip_addresses(v=6), _ports)
_hosts = _names | _ip_literals
_paths = st.from_regex(r"(/[A-Za-z0-9_\-]{0,8}){0,4}/?", fullmatch=True)
_queries = st.from_regex(r"([a-z]{1,5}=[a-z0-9]{0,4}&?){0,3}", fullmatch=True)


@given(host=_hosts, path=_paths, query=_queries,
       scheme=st.sampled_from(["http", "https", "HTTP"]))
def test_idempotent(host, path, query, scheme):
    raw = f"{scheme}://{host}{path}"
    if query:
        raw += f"?{query}"
    once = normalize_url(raw)
    assert normalize_url(once) == once
