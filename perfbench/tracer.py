"""Run one warc2meta CLI stage with spans around each layer's public calls.

Usage: python3 tracer.py TRACE_JSON RUN_ID -- <warc2meta arguments>

The wrappers are installed from outside the program: each public
function is replaced, in every warc2meta module that imported it, by a
wrapper that records a span (id, parent, name, start, end) and a few
counts. Spans stay in memory and are written to TRACE_JSON, with the
RUN_ID that every stage of one pipeline pass shares, when the stage
exits. A function the program no longer has is skipped, so its
metrics read 0 rather than breaking the run.

Spans opened on a worker thread with no open span of its own take the
main thread's innermost span as parent, so per-file ingest spans hang
under `ingest_many`.
"""

import hashlib
import itertools
import json
import sys
import threading
import time
from collections import Counter


class Tracer:
    """Spans and counts of one stage process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.distinct = {"tokens": {}, "embed": set()}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._main_stack[-1][0] if self._main_stack else 0
        span = (next(self._ids), parent, name, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span[0], span[1], span[2], span[3], end))

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def seen_token_text(self, text):
        digest = hashlib.blake2b(text.encode("utf-8", "surrogatepass"), digest_size=16).digest()
        with self._lock:
            self.distinct["tokens"][digest] = len(text)

    def seen_embed_text(self, text):
        with self._lock:
            self.distinct["embed"].add(text)

    def wrap(self, name, fn, after=None):
        """Span around fn; after(result, args, kwargs) adds counts."""

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _replace(orig, new):
    """Rebind every warc2meta module-level name that refers to orig."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("warc2meta"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def _patch(tracer, module, name, span, after=None):
    orig = getattr(module, name, None)
    if orig is not None:
        _replace(orig, tracer.wrap(span, orig, after))


def _patch_method(tracer, cls, name, span, after=None):
    raw = cls.__dict__.get(name) if cls is not None else None
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(span, raw.__func__, after)))
    else:
        setattr(cls, name, tracer.wrap(span, raw, after))


def _traced_stream(tracer, orig):
    def open_warc_stream(path, *args, **kwargs):
        gen = orig(path, *args, **kwargs)
        try:
            while True:
                span = tracer.open("warc.read")
                try:
                    record = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.count("warc.records")
                tracer.count("warc.payload_bytes", len(getattr(record, "payload", b"")))
                yield record
        finally:
            gen.close()

    return open_warc_stream


def install(tracer):
    """Wrap the public functions of each layer; returns the cli module."""
    from warc2meta import cli, client, heuristics, ingest, metrics, prompts, ranking, tokens, warc

    if hasattr(warc, "open_warc_stream"):
        _replace(warc.open_warc_stream, _traced_stream(tracer, warc.open_warc_stream))

    def quality_after(reason, args, kwargs):
        if reason is not None:
            tracer.count(f"ingest.rejected.{reason}")

    def file_after(doc, args, kwargs):
        kept = len(doc.pages)
        tracer.count("ingest.files")
        tracer.count("ingest.kept", kept)
        tracer.count("ingest.duplicates", doc.duplicate_count)
        tracer.count("ingest.undecodable", doc.undecodable_count)
        tracer.count(
            "ingest.pages",
            kept + doc.rejected_count + doc.duplicate_count + doc.undecodable_count,
        )

    _patch(tracer, ingest, "extract_page", "ingest.extract_page")
    _patch(tracer, ingest, "quality_filter", "ingest.quality_filter", quality_after)
    _patch(tracer, ingest, "deduplicate", "ingest.deduplicate")
    _patch(tracer, ingest, "ingest_warc_file", "ingest.ingest_warc_file", file_after)
    _patch(tracer, ingest, "ingest_many", "ingest.ingest_many")
    site_cls = getattr(ingest, "SiteDocument", None)
    _patch_method(tracer, site_cls, "to_json", "ingest.to_json")
    _patch_method(tracer, site_cls, "from_json", "cli.from_json")
    _patch_method(tracer, getattr(client, "GeneratedMetadata", None), "from_json", "cli.from_json")

    def select_after(sel, args, kwargs):
        tracer.count("heuristics.selections")
        if not sel.content.strip():
            tracer.count("heuristics.empty")

    orig_select = getattr(heuristics, "select", None)
    if orig_select is not None:
        def select(site, heuristic, *args, **kwargs):
            name = f"heuristics.select_h{int(heuristic)}"
            return tracer.wrap(name, orig_select, select_after)(site, heuristic, *args, **kwargs)

        _replace(orig_select, select)
    _patch(tracer, heuristics, "apply_reduction_filters", "heuristics.apply_reduction_filters")

    def count_after(n, args, kwargs):
        text = args[0] if args else kwargs.get("text", "")
        tracer.count("tokens.chars", len(text))
        tracer.seen_token_text(text)

    _patch(tracer, tokens, "count_tokens", "tokens.count_tokens", count_after)
    _patch(tracer, tokens, "reduction_report", "tokens.reduction_report")
    _patch(tracer, tokens, "load_vocabulary", "tokens.load_vocabulary")
    _patch(tracer, prompts, "build_prompt", "prompts.build_prompt")
    _patch(tracer, client, "generate_metadata", "client.generate_metadata")

    orig_batch = getattr(client, "run_batch", None)
    if orig_batch is not None:
        def run_batch(*args, **kwargs):
            before = sum(1 for s in tracer.spans if s[2] == "client.generate_metadata")
            rows = tracer.wrap("client.run_batch", orig_batch)(*args, **kwargs)
            called = sum(1 for s in tracer.spans if s[2] == "client.generate_metadata") - before
            tracer.count("client.rows", len(rows))
            tracer.count("client.resumed", len(rows) - called)
            return rows

        _replace(orig_batch, run_batch)

    def embed_after(result, args, kwargs):
        tracer.seen_embed_text(args[1] if len(args) > 1 else kwargs.get("text", ""))

    _patch(tracer, metrics, "levenshtein", "metrics.levenshtein")
    _patch(tracer, metrics, "bertscore", "metrics.bertscore")
    _patch_method(tracer, getattr(metrics, "MockEmbeddingProvider", None), "embed",
                  "metrics.embed", embed_after)
    _patch(tracer, ranking, "score_pairs", "ranking.score_pairs")
    _patch(tracer, ranking, "score_combination", "ranking.score_combination")
    _patch(tracer, ranking, "rank_combinations", "ranking.rank_combinations")
    return cli


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        sys.exit("usage: tracer.py TRACE_JSON RUN_ID -- <warc2meta arguments>")
    out_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    cli = install(tracer)
    span = tracer.open("cli.stage")
    try:
        cli.main.main(args=cli_args, prog_name="warc2meta")
    finally:
        tracer.close(span)
        tokens_distinct = tracer.distinct["tokens"]
        tracer.counts["tokens.distinct_chars"] = sum(tokens_distinct.values())
        tracer.counts["metrics.embed_distinct"] = len(tracer.distinct["embed"])
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
