"""Output checks with oracles kept apart from the program.

Each check returns a list of failure messages; an empty list passes.
The oracles are written from the definitions, not from the program's
code: a full-table edit distance, a naive lowest-rank-first BPE, and a
competition ranking recomputed from the per-site scores.
"""

import base64
import csv
import itertools
import json
import statistics
import unicodedata
from pathlib import Path


def dp_levenshtein(a, b):
    """Edit distance over NFC code points by the full (len(a)+1) x (len(b)+1) table."""
    a = unicodedata.normalize("NFC", a)
    b = unicodedata.normalize("NFC", b)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[len(a)][len(b)]


def load_ranks(path):
    ranks = {}
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                token, rank = line.split()
                ranks[base64.b64decode(token)] = int(rank)
    return ranks


def naive_bpe_count(text, ranks):
    """Token count by merging the lowest-rank adjacent pair, leftmost first, until none merge."""
    parts = [bytes([b]) for b in text.encode("utf-8")]
    pair_ranks = [ranks.get(parts[i] + parts[i + 1]) for i in range(len(parts) - 1)]
    while True:
        best = None
        for i, r in enumerate(pair_ranks):
            if r is not None and (best is None or r < pair_ranks[best]):
                best = i
        if best is None:
            return len(parts)
        parts[best:best + 2] = [parts[best] + parts[best + 1]]
        del pair_ranks[best]
        if best > 0:
            pair_ranks[best - 1] = ranks.get(parts[best - 1] + parts[best])
        if best < len(parts) - 1:
            pair_ranks[best] = ranks.get(parts[best] + parts[best + 1])


def competition_ranks(values, reverse=False):
    """1-based ranks where ties share the smallest rank (1, 1, 3, ...)."""
    return [1 + sum(1 for w in values if (w > v if reverse else w < v)) for v in values]


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _site_id(source_file):
    name = Path(source_file).name
    for suffix in (".warc.gz", ".warc"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_ingest(out, manifest, ingest_stderr):
    """Row per non-corrupt file, page accounting adds up, corrupt files reported."""
    errors = []
    rows = {_site_id(r["source_file"]): r for r in read_jsonl(out / "sites.jsonl")}
    for site_id, planted in manifest["sites"].items():
        row = rows.get(site_id)
        if row is None:
            errors.append(f"ingest: no sites.jsonl row for {site_id}")
            continue
        seen = (len(row["pages"]) + row["rejected_count"] + row["duplicate_count"]
                + row.get("undecodable_count", 0))
        if seen != planted["html_records"]:
            errors.append(f"ingest: {site_id} accounts for {seen} of "
                          f"{planted['html_records']} HTML records")
    for site_id in manifest["corrupt"]:
        if site_id in rows:
            errors.append(f"ingest: corrupt file {site_id} produced a row")
        if site_id not in ingest_stderr:
            errors.append(f"ingest: corrupt file {site_id} was not reported")
    return errors


def check_title_levenshtein(out, reference_path):
    """Every title_lev equals the DP distance between generated and reference titles."""
    errors = []
    ref = {r["site_id"]: r["title"] for r in read_jsonl(reference_path)}
    generated = {}
    for path in out.glob("generated_combo*.jsonl"):
        combo = int(path.stem[len("generated_combo"):])
        for row in read_jsonl(path):
            if "title" in row and "error" not in row:
                generated[(row["site_id"], combo)] = row["title"]
    with open(out / "scores_per_site.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["site_id"], int(row["combination_id"]))
            if key not in generated or row["site_id"] not in ref:
                errors.append(f"evaluate: scored pair {key} has no generated or reference row")
                continue
            want = dp_levenshtein(generated[key], ref[row["site_id"]])
            if int(row["title_lev"]) != want:
                errors.append(f"evaluate: title_lev {row['title_lev']} != {want} for {key}")
    return errors


def check_ranking(out):
    """ranked_summary.csv equals the ranking recomputed from scores_per_site.csv.

    The CSV rounds F1 to 6 places, so two combinations whose F1 median or
    deviation differ by less than that rounding may be ordered either way
    (or tie) in the program. Such near-tied values are tried in every
    order; combinations with identical score rows always tie.
    """
    by_combo = {}
    with open(out / "scores_per_site.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            lev, f1 = by_combo.setdefault(int(row["combination_id"]), ([], []))
            lev.append(int(row["title_lev"]))
            f1.append(float(row["abstract_bs_f1"]))
    combos = sorted(by_combo)
    rows = [tuple(by_combo[c][1]) for c in combos]
    lev_med = [statistics.median(by_combo[c][0]) for c in combos]
    bs_med = [statistics.median(r) for r in rows]
    bs_std = [statistics.pstdev(r) for r in rows]
    with open(out / "ranked_summary.csv", newline="", encoding="utf-8") as fh:
        got = [(int(r["ranked_aggregated_score"]), int(r["combination"]), int(r["shortlisted"]))
               for r in csv.DictReader(fh)]
    lev_ranks = competition_ranks(lev_med)
    want = None
    for med_keys in itertools.product(*_orders(bs_med, rows)):
        for std_keys in itertools.product(*_orders(bs_std, rows)):
            sums = [a + b + c for a, b, c in zip(
                lev_ranks,
                competition_ranks(_merge(med_keys), reverse=True),
                competition_ranks(_merge(std_keys)))]
            ranked = sorted(zip(competition_ranks(sums), combos))
            ranked = [(score, combo, int(score == 1)) for score, combo in ranked]
            if ranked == got:
                return []
            want = want or ranked
    return [f"evaluate: ranked_summary {got} != recomputed {want}"]


def _orders(values, rows, eps=2e-6):
    """Per group of near-tied values, every way the true values may order.

    Groups chain values closer than eps, so every value outside a group
    lies above or below all of it. Each option maps an index to a sort
    key (group minimum, level); indices with identical rows share a level.
    """
    groups = []
    for i in sorted(range(len(values)), key=values.__getitem__):
        if groups and values[i] - values[groups[-1][-1]] < eps:
            groups[-1].append(i)
        else:
            groups.append([i])
    options = []
    for group in groups:
        units = list(dict.fromkeys(rows[i] for i in group))
        base = values[group[0]]
        options.append([
            {i: (base, levels[units.index(rows[i])]) for i in group}
            for levels in itertools.product(range(len(units)), repeat=len(units))
        ])
    return options


def _merge(keys_by_group):
    merged = {}
    for keys in keys_by_group:
        merged.update(keys)
    return [merged[i] for i in range(len(merged))]


def check_tokens_before(out, ranks_path):
    """cost_report's tokens_before equals the naive BPE over each site's whole text."""
    ranks = load_ranks(ranks_path)
    want = 0
    for site in read_jsonl(out / "sites.jsonl"):
        want += naive_bpe_count(" ".join(p["body_text"] for p in site["pages"]), ranks)
    errors = []
    with open(out / "cost_report.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if int(row["tokens_before"]) != want:
                errors.append(f"select: heuristic {row['heuristic']} tokens_before "
                              f"{row['tokens_before']} != naive BPE {want}")
    return errors


def generated_rows(out):
    """{combo file name: parsed rows}, for comparing two generate runs."""
    return {p.name: read_jsonl(p) for p in sorted(out.glob("generated_combo*.jsonl"))}
