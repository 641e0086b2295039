#!/usr/bin/env python3
"""Time ingest.ingest_many against a plain per-file ingest_warc_file loop.

The corpus is built with tests/helpers.warc_corpus: N WARC files of about
125 KB each, every fourth one truncated, bad gzip or empty. With the
default 48 files it holds about 5 MB, above ingest.POOL_MIN_BYTES, so
ingest_many runs its process pool on a host with two or more cores.

Each side runs once untimed, so neither is timed cold. The timed passes
then go pool, loop, loop, pool, pool, loop, so each side runs as often
first as second. The script fails if any pass's site rows or error lines
differ from the untimed loop's in any file or in their order, then
prints each side's median time, files/s and MB/s.

Usage: PYTHONPATH=src:tests python3 benchmarks/bench_ingest.py [--files N]
"""

import argparse
import statistics
import tempfile
import time
from pathlib import Path

from helpers import warc_corpus
from warc2meta.ingest import POOL_MIN_BYTES, ingest_many, ingest_warc_file


def per_file(paths):
    results = []
    for path in paths:
        try:
            results.append((ingest_warc_file(path).to_json(), None))
        except Exception as exc:
            results.append((None, f"{type(exc).__name__}: {exc}"))
    return results


def timed(fn, paths):
    started = time.perf_counter()
    results = fn(paths)
    return time.perf_counter() - started, results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--files", type=int, default=48)
    args = parser.parse_args()

    sides = {"ingest_many": lambda ps: [(r.row, r.error) for r in ingest_many(ps)],
             "per-file loop": per_file}
    pool, loop = sides
    times = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as tmp:
        paths = warc_corpus(Path(tmp), args.files)
        mb = sum(p.stat().st_size for p in paths) / 1e6
        sides[pool](paths)  # untimed: each side's first pass warms it up
        want = per_file(paths)
        for name in (pool, loop, loop, pool, pool, loop):
            secs, got = timed(sides[name], paths)
            bad = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
            if bad:
                raise SystemExit(f"{name}: {bad} of {args.files} files differ from the per-file loop")
            times[name].append(secs)

    gate = "above" if mb * 1e6 >= POOL_MIN_BYTES else "below"
    print(f"{args.files} files, {mb:.2f} MB ({gate} the pool's {POOL_MIN_BYTES / 1e6:.2f} MB),"
          " all rows and errors agree with the per-file loop; median of 3 timed passes:")
    for name, runs in times.items():
        secs = statistics.median(runs)
        print(f"  {name:>13}: {secs:.3f}s ({args.files / secs:,.0f} files/s, {mb / secs:.1f} MB/s)")


if __name__ == "__main__":
    main()
