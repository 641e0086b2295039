#!/usr/bin/env python3
"""Check that select's memory is set by its largest site, not by the crawl.

The corpus is built with tests/helpers.warc_corpus and ingested with the
CLI, each in a child process; the default 48 files give a sites.jsonl of
about 4.6 MB. That file is written once and again as N concatenated
copies, and `python -m warc2meta.cli select --all` runs in a child
process on each; the child's max RSS comes from os.wait4. The script
fails when N copies use more than one copy plus MARGIN_MB, when an
N-copy selections_h<K>.jsonl is not the one-copy file repeated N times,
or when an N-copy cost report's tokens_before or tokens_after is not N
times the one-copy value.

Usage: PYTHONPATH=src:tests python3 benchmarks/bench_select.py [--copies N] [--files F]
"""

import argparse
import csv
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MARGIN_MB = 8.0
# Built in a child, so that this process, which imports no more than the
# standard library, keeps a peak RSS below select's (see main).
CORPUS_CODE = ("import sys, pathlib, helpers\n"
               "helpers.warc_corpus(pathlib.Path(sys.argv[1]), int(sys.argv[2]))")


def cli(out, *args):
    """Run one warc2meta command writing to out; return (wall s, max RSS MB).
    Its stderr (ingest's lines for the broken files) goes to a log beside out."""
    started = time.perf_counter()
    log = out.with_name(f"{out.name}-{args[0]}.err")
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "warc2meta.cli", "--output", str(out), *args],
            stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(args)} failed:\n{log.read_text()[-800:]}")
    return time.perf_counter() - started, usage.ru_maxrss / 1024


def token_sums(out):
    """{heuristic: (tokens_before, tokens_after)} from out's cost report."""
    with open(out / "cost_report.csv", newline="") as fh:
        return {r["heuristic"]: (int(r["tokens_before"]), int(r["tokens_after"]))
                for r in csv.DictReader(fh)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--copies", type=int, default=10)
    parser.add_argument("--files", type=int, default=48)
    args = parser.parse_args()
    n = args.copies

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        subprocess.run([sys.executable, "-c", CORPUS_CODE, tmp / "warcs", str(args.files)],
                       check=True)
        one, many = tmp / "one", tmp / "many"
        cli(one, "ingest", "--input", str(tmp / "warcs"))
        size = (one / "sites.jsonl").stat().st_size
        many.mkdir()
        with open(many / "sites.jsonl", "wb") as dst:
            for _ in range(n):
                with open(one / "sites.jsonl", "rb") as src:
                    shutil.copyfileobj(src, dst)
        # subprocess vforks, so a child's max RSS is at least this process's
        # own peak: a one-copy figure at or below it would not be select's
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs = {out: cli(out, "select", "--all") for out in (one, many)}

        bad = [f"selections_h{h}.jsonl is not {n} copies of the one-copy file"
               for h in (1, 2, 3)
               if (many / f"selections_h{h}.jsonl").read_bytes()
               != (one / f"selections_h{h}.jsonl").read_bytes() * n]
        want = {h: (before * n, after * n) for h, (before, after) in token_sums(one).items()}
        if token_sums(many) != want:
            bad.append(f"cost report tokens {token_sums(many)}, expected {want}")

    (wall1, rss1), (wall_n, rss_n) = runs[one], runs[many]
    if rss1 <= own:
        raise SystemExit(f"one copy's {rss1:.1f} MB is this process's own peak of {own:.1f} MB,"
                         " not select's")
    mb = size / 1e6
    print(f"this process's own peak before select: {own:.1f} MB max RSS")
    print(f"select --all on {mb:.2f} MB of sites.jsonl: {rss1:.1f} MB max RSS, {wall1:.2f}s")
    print(f"select --all on {n} copies ({mb * n:.2f} MB): {rss_n:.1f} MB max RSS, {wall_n:.2f}s")
    if rss_n > rss1 + MARGIN_MB:
        bad.append(f"{n} copies used {rss_n - rss1:.1f} MB more than one, over the "
                   f"{MARGIN_MB:.0f} MB margin")
    if bad:
        raise SystemExit("\n".join(bad))
    print(f"within {MARGIN_MB:.0f} MB of one copy; selections and token sums scale by {n}")


if __name__ == "__main__":
    main()
