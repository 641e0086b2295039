#!/usr/bin/env python3
"""Time tokens.encode against a naive rank-merge loop.

A rank table is trained first from generated text (no download): each
merge joins the most frequent adjacent pair. Texts of each --chars length
are then encoded by both; the script fails if the parts differ for any
text, then prints chars/s for each. Last, it times encode alone on 32,000
characters, where the naive loop would take minutes. Encode times are the
fastest of three runs; the naive loop runs once.

Usage: python3 benchmarks/bench_tokens.py [--chars N [N ...]]
"""

import argparse
import random
import time
from collections import Counter

from warc2meta.tokens import TokenizerHandle, encode

WORDS = (
    "service quality customer project design build support team office "
    "client solution product market delivery local global trusted expert "
    "partner value care system network planning growth community training "
    "café crème 漢字 企業 😀 naïve www ...... ------- 1000000"
).split()

MERGES = 300
LONG_CHARS = 32_000
ENCODE_REPEATS = 3


def make_text(chars, seed):
    rng = random.Random(seed)
    words = []
    length = 0
    while length < chars:
        words.append(rng.choice(WORDS))
        length += len(words[-1]) + 1
    return " ".join(words)[:chars]


def train_ranks(text, merges):
    """Rank table of the first `merges` most frequent adjacent pairs."""
    parts = [bytes([b]) for b in text.encode("utf-8")]
    ranks = {}
    while len(ranks) < merges and len(parts) > 1:
        pairs = Counter(a + b for a, b in zip(parts, parts[1:]) if a + b not in ranks)
        if not pairs:
            break
        token = pairs.most_common(1)[0][0]
        ranks[token] = len(ranks)
        merged = []
        i = 0
        while i < len(parts):
            if i + 1 < len(parts) and parts[i] + parts[i + 1] == token:
                merged.append(token)
                i += 2
            else:
                merged.append(parts[i])
                i += 1
        parts = merged
    return ranks


def naive_encode(text, ranks):
    """Rescan every adjacent pair before each merge; take the lowest rank,
    leftmost on a tie."""
    parts = [bytes([b]) for b in text.encode("utf-8")]
    while len(parts) > 1:
        best = None
        for i in range(len(parts) - 1):
            rank = ranks.get(parts[i] + parts[i + 1])
            if rank is not None and (best is None or rank < best[0]):
                best = (rank, i)
        if best is None:
            break
        i = best[1]
        parts[i : i + 2] = [parts[i] + parts[i + 1]]
    return parts


def timed(fn, *args, repeats=1):
    """(fastest wall seconds of `repeats` calls, result)."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        secs = time.perf_counter() - started
        best = secs if best is None else min(best, secs)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chars", type=int, nargs="+", default=[2000, 8000])
    args = parser.parse_args()

    training = make_text(12_000, seed=0)
    ranks = train_ranks(training, MERGES)
    tok = TokenizerHandle(vocabulary=ranks)
    print(f"rank table: {len(ranks)} merges trained on {len(training):,} chars")

    for chars in args.chars:
        text = make_text(chars, seed=chars)
        encode_s, got = timed(encode, text, tok, repeats=ENCODE_REPEATS)
        naive_s, want = timed(naive_encode, text, ranks)
        if got != want:
            raise SystemExit(f"{chars} chars: encode parts differ from the naive loop")
        print(f"{chars} chars, {len(got)} tokens, parts agree with the naive loop:")
        for name, secs in (("encode", encode_s), ("naive loop", naive_s)):
            print(f"  {name:>10}: {secs:.4f}s ({chars / secs:,.0f} chars/s)")
        print(f"  {'speedup':>10}: {naive_s / encode_s:,.0f}x")

    long_text = make_text(LONG_CHARS, seed=LONG_CHARS)
    long_s, _ = timed(encode, long_text, tok, repeats=ENCODE_REPEATS)
    print(f"encode only, {LONG_CHARS} chars: {long_s:.4f}s "
          f"({LONG_CHARS / long_s:,.0f} chars/s)")


if __name__ == "__main__":
    main()
