"""Per-layer metrics from the spans and counts `tracer.py` writes.

A span's self time is its duration minus the part of that interval
covered by its child spans (the union, so overlapping worker-thread
children are not subtracted twice). Layer times are sums of self times
over the layer's spans; on threaded stages they add up thread time, not
wall time.
"""

import json
from collections import defaultdict

STAGES = ("ingest", "select", "generate", "evaluate")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def self_times(spans):
    """{span id: self seconds} for spans given as (id, parent, name, start, end)."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if cur_end is None or c_start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = c_start, c_end
            else:
                cur_end = max(cur_end, c_end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = (end - start) - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def iteration_metrics(stage_traces, stage_walls, mock_logs, connections):
    """Per-layer metrics of one traced pipeline pass.

    stage_traces: {stage: path to the tracer's JSON}; stage_walls:
    {stage: seconds}; mock_logs: the mock's (start, seconds, status,
    reask) records during `generate`; connections: its connection count.
    """
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    counts = defaultdict(float)
    queue_wait = 0.0
    for stage in STAGES:
        with open(stage_traces[stage], encoding="utf-8") as fh:
            trace = json.load(fh)
        spans = [tuple(s) for s in trace["spans"]]
        for name, value in trace["counts"].items():
            counts[name] += value
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}
        for sid, parent, name, start, end in spans:
            self_by_name[name] += selfs[sid]
            calls[name] += 1
            if name in ("ingest.ingest_warc_file", "client.generate_metadata"):
                durations[name].append((start, end))
            if name == "ingest.ingest_warc_file" and parent in by_id:
                queue_wait += start - by_id[parent][3]

    m = {}
    for layer in ("ingest", "cli", "heuristics", "tokens", "client", "metrics", "ranking"):
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))
    file_ms = [(e - s) * 1000 for s, e in durations["ingest.ingest_warc_file"]]
    m.update({
        "warc.records": counts["warc.records"],
        "warc.payload_mb": counts["warc.payload_bytes"] / 1e6,
        "warc.read_s": self_by_name["warc.read"],
        "ingest.files": counts["ingest.files"],
        "ingest.pages": counts["ingest.pages"],
        "ingest.extract_s": self_by_name["ingest.extract_page"],
        "ingest.filter_s": self_by_name["ingest.quality_filter"],
        "ingest.dedup_s": self_by_name["ingest.deduplicate"],
        "ingest.file_p50_ms": percentile(file_ms, 50),
        "ingest.file_p99_ms": percentile(file_ms, 99),
        "ingest.queue_wait_s": queue_wait,
        "ingest.kept_ratio": _ratio(counts["ingest.kept"], counts["ingest.pages"]),
        "ingest.rejected.status": counts["ingest.rejected.status"],
        "ingest.rejected.placeholder": counts["ingest.rejected.placeholder"],
        "ingest.rejected.too_short": counts["ingest.rejected.too_short"],
        "ingest.duplicates": counts["ingest.duplicates"],
        "ingest.undecodable": counts["ingest.undecodable"],
        "ingest.store_write_s": self_by_name["ingest.to_json"],
        "cli.store_read_s": self_by_name["cli.from_json"],
        "heuristics.h1_s": self_by_name["heuristics.select_h1"],
        "heuristics.h2_s": self_by_name["heuristics.select_h2"],
        "heuristics.h3_s": self_by_name["heuristics.select_h3"],
        "heuristics.filter_s": self_by_name["heuristics.apply_reduction_filters"],
        "heuristics.empty_ratio": _ratio(counts["heuristics.empty"],
                                         counts["heuristics.selections"]),
        "tokens.count_calls": calls["tokens.count_tokens"],
        "tokens.count_s": self_by_name["tokens.count_tokens"],
        "tokens.encoded_chars": counts["tokens.chars"],
        "tokens.encode_redundancy": _ratio(counts["tokens.chars"],
                                           counts["tokens.distinct_chars"]),
        "tokens.report_s": self_by_name["tokens.reduction_report"],
        "tokens.vocab_load_s": self_by_name["tokens.load_vocabulary"],
        "prompts.build_s": self_by_name["prompts.build_prompt"],
        "metrics.levenshtein_calls": calls["metrics.levenshtein"],
        "metrics.levenshtein_s": self_by_name["metrics.levenshtein"],
        "metrics.bertscore_calls": calls["metrics.bertscore"],
        "metrics.bertscore_s": self_by_name["metrics.bertscore"],
        "metrics.embed_calls": calls["metrics.embed"],
        "metrics.embed_s": self_by_name["metrics.embed"],
        "metrics.embed_unique_ratio": _ratio(counts["metrics.embed_distinct"],
                                             calls["metrics.embed"]),
        "ranking.score_pairs_calls": calls["ranking.score_pairs"],
        "ranking.score_s": self_by_name["ranking.score_pairs"]
        + self_by_name["ranking.score_combination"],
        "ranking.rank_s": self_by_name["ranking.rank_combinations"],
    })
    for stage in STAGES:
        m[f"cli.stage_s.{stage}"] = stage_walls[stage]

    rows = durations["client.generate_metadata"]
    server = [(start, secs) for start, secs, _status, _reask in mock_logs]
    overhead = []
    for r_start, r_end in rows:
        inside = sum(secs for start, secs in server if r_start <= start <= r_end)
        overhead.append((r_end - r_start - inside) * 1000)
    m.update({
        "client.rows": counts["client.rows"],
        "client.requests": len(mock_logs),
        "client.retries_429": sum(1 for log in mock_logs if log[2] == 429),
        "client.reasks": sum(1 for log in mock_logs if log[3] and log[2] == 200),
        "client.row_p50_ms": percentile([(e - s) * 1000 for s, e in rows], 50),
        "client.row_p99_ms": percentile([(e - s) * 1000 for s, e in rows], 99),
        "client.server_p50_ms": percentile([secs * 1000 for _, secs in server], 50),
        "client.overhead_p50_ms": percentile(overhead, 50),
        "client.connections_per_request": _ratio(connections, len(mock_logs)),
        "client.resumed_rows": counts["client.resumed"],
    })
    return m

