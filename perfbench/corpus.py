"""Deterministic inputs for the pipeline benchmark.

`build(workload, seed, out_dir, base_url)` writes everything the program
receives: gzipped WARC files (one site each), the human reference JSONL,
the pipeline config and, on `bpe-long`, a BPE rank table trained from
the corpus. The same (workload, seed) gives byte-identical files; the
config differs only in the mock endpoint's URL, whose port the OS picks.

Every count that shapes the workload (sites, pages per kind, fault
sites) is fixed per workload, and the seed only varies the words. That
keeps run-to-run spread down to noise rather than input size.

The returned manifest is the benchmark's own record of what it planted,
used by the output checks as an oracle independent of the program.
"""

import base64
import gzip
import hashlib
import json
import random
import zlib
from collections import Counter
from pathlib import Path

WORDS = (
    "service quality customer project design build support team office client "
    "solution product market delivery local global trusted expert partner value "
    "care system network planning growth community training research data "
    "secure fast reliable modern family premium custom digital studio print "
    "kitchen garden property finance legal health dental clinic school tuition "
    "logistics freight storage supply energy solar water clean repair install "
    "consulting marketing software cloud hardware retail wholesale fashion "
    "furniture interior renovation catering events travel tours photography "
    "video media brand strategy audit tax accounting insurance engineering "
    "manufacturing precision steel timber glass packaging printing courier "
    "cleaning security staffing recruitment wellness fitness beauty salon spa "
    "bakery coffee restaurant grocery organic pet veterinary medical pharmacy "
    "our with for and the you your we offer provide help since years experience "
    "every day across region city island customers partners industry award "
    "winning friendly professional affordable flexible complete range quality "
    "standards certified licensed dedicated innovative sustainable efficient"
).split()

NAME_WORDS = (
    "harbor lumen cedar summit apex meridian orchid lion pearl jade crest "
    "beacon harmony vista nova atlas zenith coral bamboo eagle falcon willow "
    "maple river stone bright golden silver north east pacific marina sunrise "
    "evergreen horizon crown unity pioneer keystone bluebell redwood aurora"
).split()

KINDS = (
    "Logistics", "Dental", "Studio", "Engineering", "Bakery", "Consulting",
    "Interiors", "Realty", "Tuition", "Solar", "Catering", "Printing",
)
CITIES = ("Singapore", "Jurong", "Tampines", "Woodlands", "Bedok", "Clementi")
NAV = ("Home", "About", "Services", "Projects", "Blog", "Careers", "Contact")
# a text breadcrumb that heuristic 3's nav-separator and short-line rules cut
BREADCRUMB = "Home | Our services | Contact us"
FOOTER = "© 2024 {name}. All rights reserved. This site uses cookies to improve your experience."
LOREM = (
    "Lorem ipsum dolor sit amet, consectetur adipiscing elit, sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua."
)

# Shape of each workload. Counts are exact, never drawn from the seed.
WORKLOADS = {
    # Cataloguers' default run: many multi-page gzipped sites, no tokenizer.
    "crawl": dict(
        sites=28, blog_pages=96, service_pages=4, para_words=(40, 80), paras=3,
        footer=True, faults=True, no_about=7, contact_404=4, empty_sites=1,
        tokenizer=False, max_content_tokens=8000,
    ),
    # Few sites of a few long pages under a trained rank table.
    "bpe-long": dict(
        sites=2, blog_pages=0, service_pages=0, long_chars=(1000, 800),
        footer=True, faults=False, no_about=0, contact_404=0, empty_sites=0,
        tokenizer=True, max_content_tokens=150, merges=300, train_bytes=12000,
    ),
    # Many small sites whose checkpoints are filled before timing.
    "rescore": dict(
        sites=200, blog_pages=0, service_pages=1, para_words=(30, 50), paras=1,
        footer=False, breadcrumb=True, faults=False, no_about=40, contact_404=0, empty_sites=1,
        tokenizer=False, max_content_tokens=8000,
    ),
}

CORRUPT_KINDS = ("truncated", "bad-gzip")
# share of (site, prompt variant) pairs planted with each chat fault
FAULT_SHARE = 0.05


def _rng(workload, seed):
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _sentence(rng, n):
    words = [rng.choice(WORDS) for _ in range(n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _paragraph(rng, lo, hi):
    n = rng.randint(lo, hi)
    out = []
    while n > 0:
        k = min(n, rng.randint(8, 16))
        out.append(_sentence(rng, k))
        n -= k
    return " ".join(out)


def _exact_chars(rng, n):
    """Sentences cut to exactly n characters, so page sizes do not vary by seed."""
    text = ""
    while len(text) < n:
        text += _sentence(rng, rng.randint(8, 16)) + " "
    return text[:n]


class _Company:
    def __init__(self, rng, index, long_title):
        n_words = rng.randint(1, 4) if long_title else rng.randint(1, 2)
        words = rng.sample(NAME_WORDS, n_words)
        kind = rng.choice(KINDS)
        self.name = " ".join(w.capitalize() for w in words) + " " + kind
        if long_title and rng.random() < 0.5:
            self.name += rng.choice((" Pte Ltd", " Group", " & Co", " Holdings Pte Ltd"))
        self.domain = "-".join(words) + f"{index}.com.sg"
        self.city = rng.choice(CITIES)
        self.kind = kind


def _html(title, body, charset="utf-8"):
    return (
        f'<!DOCTYPE html><html><head><meta charset="{charset}"><title>{title}</title>'
        f"<style>body{{font-family:sans-serif}}</style></head><body>{body}"
        "<script>window.dataLayer=[];</script></body></html>"
    )


def _nav():
    links = "".join(f'<a href="/{n.lower()}">{n}</a>' for n in NAV)
    return (
        '<header class="site-header"><div class="container"><a class="logo" href="/">'
        '<img src="/logo.png" alt="logo"></a>'
        f'<nav class="main-nav" role="navigation">{links}</nav></div></header>'
    )


def _sidebar(rng):
    items = "".join(
        f'<li class="post-item"><a href="/blog/{rng.choice(WORDS)}-{k}">'
        f"{rng.choice(WORDS).capitalize()} {rng.choice(WORDS)}</a></li>"
        for k in range(8)
    )
    return f'<aside class="sidebar"><div class="widget"><ul class="posts">{items}</ul></div></aside>'


def _http(status, content_type, body):
    reason = {200: "OK", 404: "Not Found"}.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


def _record(rec_type, uri, payload, content_type, index):
    head = (
        "WARC/1.0\r\n"
        f"WARC-Type: {rec_type}\r\n"
        f"WARC-Target-URI: {uri}\r\n"
        "WARC-Date: 2024-06-01T00:00:00Z\r\n"
        f"WARC-Record-ID: <urn:uuid:00000000-0000-0000-0000-{index:012d}>\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("ascii")
    return head + payload + b"\r\n\r\n"


class _SiteWriter:
    """Accumulates one site's WARC records and counts the HTML ones."""

    def __init__(self):
        self.records = []
        self.html_records = 0
        self.texts = []

    def response(self, uri, status, body_html, charset="utf-8", content_type=None):
        ct = content_type or f"text/html; charset={charset}"
        data = body_html.encode(charset) if isinstance(body_html, str) else body_html
        self.records.append(_record(
            "response", uri, _http(status, ct, data),
            "application/http; msgtype=response", len(self.records),
        ))
        if ct.split(";")[0].strip().lower() in ("text/html", "application/xhtml+xml"):
            self.html_records += 1

    def other(self, rec_type, uri, payload, content_type):
        self.records.append(_record(rec_type, uri, payload, content_type, len(self.records)))


def _about_text(rng, co, cfg):
    lead = (
        f"{co.name} is a {co.kind.lower()} company based in {co.city}. "
        f"We offer {rng.choice(WORDS)} {rng.choice(WORDS)} and {rng.choice(WORDS)} "
        f"services to customers across the region."
    )
    lo, hi = cfg.get("para_words", (40, 80))
    return lead + " " + _paragraph(rng, lo, hi)


def _page(co, title, heading, paragraphs, footer, sidebar=""):
    body = _nav() + f'<main class="content"><div class="row"><h1>{heading}</h1>'
    body += "".join(f'<div class="col"><p>{p}</p></div>' for p in paragraphs)
    body += "</div></main>" + sidebar
    if footer:
        body += f"<footer>{FOOTER.format(name=co.name)}</footer>"
    return _html(f"{title} | {co.name}", body)


def _write_site(rng, co, cfg, flags):
    """Build one site's records; returns (writer, reference abstract)."""
    w = _SiteWriter()
    base = f"https://{co.domain}"
    footer = cfg["footer"]
    lo, hi = cfg.get("para_words", (40, 80))
    paras = cfg.get("paras", 2)
    w.other("warcinfo", "", b"software: perfbench-corpus\r\nformat: WARC/1.0\r\n",
            "application/warc-fields")
    if flags.get("empty"):
        # a crawl that only reached error pages: ingests to zero pages
        for path in ("/", "/about", "/contact"):
            w.response(base + path, 404, _html("Not Found", "<h1>404 Page not found</h1>"))
        return w, None

    about = _about_text(rng, co, cfg)
    if "long_chars" in cfg:
        home_chars, about_chars = cfg["long_chars"]
        home = [_exact_chars(rng, home_chars)]
        about_paras = [(about + " " + _exact_chars(rng, about_chars))[:about_chars]]
    else:
        home = [_paragraph(rng, lo, hi) for _ in range(paras)]
        if cfg.get("breadcrumb"):
            home.insert(0, BREADCRUMB)
        about_paras = [about] + [_paragraph(rng, lo, hi) for _ in range(paras - 1)]
    w.texts.extend(home + about_paras)
    w.response(base + "/", 200, _page(co, "Home", co.name, home, footer))
    w.other("request", base + "/", b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
            "application/http; msgtype=request")
    if not flags.get("no_about"):
        w.response(base + "/about-us", 200, _page(co, "About", "About us", about_paras, footer))
    for i in range(cfg["service_pages"]):
        text = [_paragraph(rng, lo, hi) for _ in range(paras)]
        w.response(f"{base}/services/{rng.choice(WORDS)}-{i}", 200,
                   _page(co, "Services", "Our services", text, footer))
    for i in range(cfg["blog_pages"]):
        text = [_paragraph(rng, lo, hi) for _ in range(paras)]
        w.response(f"{base}/blog/{rng.choice(WORDS)}-{rng.choice(WORDS)}-{i}", 200,
                   _page(co, "Blog", _sentence(rng, 5), text, footer, _sidebar(rng)))
    if cfg["faults"]:
        _write_crawl_faults(rng, w, co, base, flags, lo, hi, footer)
    return w, about


def _write_crawl_faults(rng, w, co, base, flags, lo, hi, footer):
    """The mix real crawls carry: dupes, error pages, placeholders, non-HTML."""
    street = rng.randint(10, 399) if not flags.get("contact_404") else 404
    phone = f"+65 6{rng.randint(100, 399)} {rng.randint(1000, 9999)}"
    if flags.get("contact_404"):
        phone = f"+65 6404 {rng.randint(1000, 9999)}"
    contact = [
        f"Visit us at {street} Orchard Road, {co.city}. Call {phone} or write to "
        f"hello@{co.domain}. Opening hours are Monday to Friday, 9am to 6pm.",
        _paragraph(rng, lo // 2, hi // 2),
    ]
    w.response(base + "/contact", 200, _page(co, "Contact", "Contact us", contact, footer))
    # duplicate URLs: tracking parameter, www prefix and trailing slash variants
    dup = [_paragraph(rng, lo, hi)]
    w.response(base + "/services?utm_source=newsletter", 200,
               _page(co, "Services", "Our services", dup, footer))
    w.response(base + "/services/", 200,
               _page(co, "Services", "Our services", dup + ["More."], footer))
    w.response(base.replace("https://", "https://www.") + "/about-us", 200,
               _page(co, "About", "About", [_paragraph(rng, 10, 20)], footer))
    w.response(base + "/old-offers", 404,
               _html("404 Not Found", "<h1>Page not found</h1><p>Sorry, this page moved.</p>"))
    w.response(base + "/test-page", 200, _page(co, "Test", "Test", [LOREM], footer))
    w.response(base + "/coming-soon", 200, _html("Soon", "<p>Coming soon.</p>"))
    w.response("not a url/broken", 200, _html("Broken", "<p>" + _paragraph(rng, 20, 30) + "</p>"))
    latin = f"Café and crème brûlée from {co.name}. " + _paragraph(rng, lo // 2, hi // 2)
    w.response(base + "/menu", 200,
               _html("Menu", "<p>" + latin + "</p>", charset="iso-8859-1"),
               charset="iso-8859-1")
    w.response(base + "/logo.png", 200, b"\x89PNG\r\n\x1a\n" + bytes(range(64)),
               content_type="image/png")
    w.response(base + "/brochure.pdf", 200, b"%PDF-1.4\n" + b"0" * 200,
               content_type="application/pdf")
    w.other("metadata", base + "/", b"outlinks: 12\r\n", "application/warc-fields")


def _gzip_members(records):
    return [gzip.compress(r, mtime=0) for r in records]


def _corrupt(kind, records):
    """Return file bytes whose reading fails: truncated tail or a bad member."""
    members = _gzip_members(records)
    if kind == "truncated":
        last = records[-1]
        head, sep, payload = last.partition(b"\r\n\r\n")
        members[-1] = gzip.compress(head + sep + payload[: len(payload) // 3], mtime=0)
        return b"".join(members)
    mid = len(members) // 2
    bad = bytearray(members[mid])
    start = 10 + (len(bad) - 18) // 3
    bad[start:start + 8] = b"\xff" * 8
    members[mid] = bytes(bad)
    data = b"".join(members)
    try:
        gzip.decompress(data)
    except (OSError, EOFError, zlib.error):
        return data
    raise RuntimeError("corrupted gzip member still decompresses")


def _pick(rng, n, k, exclude=()):
    pool = [i for i in range(n) if i not in exclude]
    return set(rng.sample(pool, min(k, len(pool))))


def _train_bpe(text, merges):
    """Train a byte-level BPE rank table: 256 single bytes, then merges."""
    vocab = {bytes([b]): b for b in range(256)}
    tokens = [bytes([b]) for b in text]
    for _ in range(merges):
        pairs = Counter(zip(tokens, tokens[1:]))
        if not pairs:
            break
        (a, b), count = max(pairs.items(), key=lambda kv: (kv[1], kv[0]))
        if count < 2:
            break
        merged = a + b
        if merged not in vocab:
            vocab[merged] = len(vocab)
        out = []
        i = 0
        while i < len(tokens):
            if i + 1 < len(tokens) and tokens[i] == a and tokens[i + 1] == b:
                out.append(merged)
                i += 2
            else:
                out.append(tokens[i])
                i += 1
        tokens = out
    return vocab


def build(workload, seed, out_dir, base_url):
    """Write the workload's inputs under out_dir; return the planted manifest."""
    cfg = WORKLOADS[workload]
    out_dir = Path(out_dir)
    warc_dir = out_dir / "warcs"
    warc_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(workload, seed)
    n = cfg["sites"]
    empty = _pick(rng, n, cfg["empty_sites"])
    no_about = _pick(rng, n, cfg["no_about"], empty)
    contact_404 = _pick(rng, n, cfg["contact_404"], empty)

    manifest = {"sites": {}, "corrupt": []}
    reference = []
    training = []
    hosts = []
    long_titles = workload == "rescore"
    for i in range(n):
        co = _Company(rng, i, long_titles)
        site_id = f"s{i:04d}-{co.domain.split('.')[0]}"
        flags = {"empty": i in empty, "no_about": i in no_about,
                 "contact_404": i in contact_404}
        writer, abstract = _write_site(rng, co, cfg, flags)
        (warc_dir / f"{site_id}.warc.gz").write_bytes(b"".join(_gzip_members(writer.records)))
        manifest["sites"][site_id] = {"html_records": writer.html_records, **flags}
        if abstract is not None:
            reference.append({"site_id": site_id, "source": "human",
                              "title": co.name, "abstract": abstract})
        training.extend(writer.texts)
        if abstract is not None:
            hosts.append(co.domain)

    if cfg["faults"]:
        pairs = [(host, variant) for host in hosts for variant in ("rules", "norules")]
        k = round(FAULT_SHARE * len(pairs))
        chosen = rng.sample(pairs, 2 * k)
        manifest["faults"] = {"rate_limited": chosen[:k], "reasked": chosen[k:]}

    for k, kind in enumerate(CORRUPT_KINDS):
        co = _Company(rng, n + k, False)
        site_id = f"s{n + k:04d}-{co.domain.split('.')[0]}"
        writer, _ = _write_site(rng, co, WORKLOADS["rescore"], {})
        (warc_dir / f"{site_id}.warc.gz").write_bytes(_corrupt(kind, writer.records))
        manifest["corrupt"].append(site_id)

    with open(out_dir / "reference.jsonl", "w", encoding="utf-8") as fh:
        for row in reference:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    lines = [
        f"input_dir: {warc_dir.name}",
        "output_dir: out",
        "heuristic: 2",
        "prompt_variant: rules",
        "client:",
        f"  base_url: {base_url}",
        "  model_name: mock-chat",
        "  max_retries: 3",
        "worker_count: 2",
        "min_chars: 30",
        f"max_content_tokens: {cfg['max_content_tokens']}",
    ]
    if cfg["tokenizer"]:
        text = " ".join(training).encode("utf-8")[: cfg["train_bytes"]]
        vocab = _train_bpe(text, cfg["merges"])
        with open(out_dir / "ranks.tiktoken", "w", encoding="ascii") as fh:
            for token, rank in sorted(vocab.items(), key=lambda kv: kv[1]):
                fh.write(f"{base64.b64encode(token).decode()} {rank}\n")
        lines.append("tokenizer_path: ranks.tiktoken")
    (out_dir / "pipeline.yaml").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest["site_count"] = n + len(CORRUPT_KINDS)
    return manifest
