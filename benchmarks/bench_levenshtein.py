#!/usr/bin/env python3
"""Time metrics.levenshtein against a full-table dynamic-programming oracle.

Both are run over the same random lowercase pairs; the script fails if they
disagree on any pair, then prints pairs/s for each.

Usage: python3 benchmarks/bench_levenshtein.py [--pairs N] [--length L]
"""

import argparse
import random
import time

from warc2meta.metrics import levenshtein


def dp_oracle(a, b):
    """Textbook two-row Wagner-Fischer table."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def make_pairs(n, length, seed=0):
    rng = random.Random(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [
        tuple("".join(rng.choice(letters) for _ in range(length)) for _ in range(2))
        for _ in range(n)
    ]


def timed(fn, pairs):
    started = time.perf_counter()
    results = [fn(a, b) for a, b in pairs]
    return time.perf_counter() - started, results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--length", type=int, default=64)
    args = parser.parse_args()

    pairs = make_pairs(args.pairs, args.length)
    kernel_s, got = timed(levenshtein, pairs)
    oracle_s, want = timed(dp_oracle, pairs)
    bad = sum(g != w for g, w in zip(got, want))
    if bad:
        raise SystemExit(f"{bad} of {args.pairs} pairs disagree with the DP oracle")

    print(f"{args.pairs} pairs of length {args.length}, all agree with the oracle:")
    for name, secs in (("levenshtein", kernel_s), ("dp oracle", oracle_s)):
        print(f"  {name:>11}: {secs:.3f}s ({args.pairs / secs:,.0f} pairs/s)")


if __name__ == "__main__":
    main()
