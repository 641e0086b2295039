#!/usr/bin/env python3
"""Time client.run_batch against the scriptable chat server in tests/.

Each row is one site with its own selection of seeded random words. The
server derives each reply from the request it received and keeps it; the
script fails if any row's title and abstract differ from the reply the
server computed for that row's request. A second run on the same checkpoint
must resume: the script fails unless that run sends no request, returns the
rows of the first, and leaves the checkpoint's bytes as they were, one line
per site. It prints
milliseconds per row for both runs, with the server's request and
connection counts.

Usage: PYTHONPATH=src:tests python3 benchmarks/bench_client.py [--rows N]
"""

import argparse
import hashlib
import json
import random
import sys
import tempfile
import time

from helpers import MockChatServer
from warc2meta.config import ClientConfig
from warc2meta.client import run_batch
from warc2meta.prompts import WITH_RULES, HeuristicId, Selection
from warc2meta.urlnorm import normalize_url

WORDS = "service quality customer project design build support team office café".split()


def make_items(n, seed=0):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        content = f"site {i} " + " ".join(rng.choice(WORDS) for _ in range(300))
        selection = Selection(
            site_id=f"s{i}",
            heuristic=HeuristicId.SHORTEST_URL,
            chosen_url=normalize_url(f"https://site{i}.example.sg/"),
            content=content,
            original_token_estimate=len(content),
            reduced_token_estimate=len(content),
        )
        items.append(selection)
    return items


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=200)
    args = parser.parse_args()

    computed = {}  # selection content -> the reply the server sent for it

    def reply_fn(body):
        content = body["messages"][1]["content"].partition("\n")[2]
        digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
        reply = {"title": f"Site {digest[:8]}", "abstract": f"Abstract {digest}"}
        computed[content] = reply
        return reply

    items = make_items(args.rows)
    with MockChatServer(reply_fn=reply_fn, keep_alive=True) as server, \
            tempfile.TemporaryDirectory() as tmp:
        cfg = ClientConfig(base_url=server.base_url + "/v1", model_name="bench-model")
        checkpoint = f"{tmp}/checkpoint.jsonl"
        started = time.perf_counter()
        rows = run_batch(items, WITH_RULES, cfg, checkpoint)
        elapsed = time.perf_counter() - started
        requests, connections = len(server.requests), server.connections
        with open(checkpoint, "rb") as fh:
            held = fh.read()
        started = time.perf_counter()
        resumed = run_batch(items, WITH_RULES, cfg, checkpoint)
        resume_elapsed = time.perf_counter() - started
        resent = len(server.requests) - requests
        with open(checkpoint, "rb") as fh:
            after = fh.read()
        checkpointed = [json.loads(line)["site_id"] for line in after.splitlines()]

    wrong = [
        row.site_id for row, sel in zip(rows, items)
        if row.result is None
        or computed.get(sel.content) != {"title": row.result.title,
                                         "abstract": row.result.abstract}
    ]
    if wrong:
        print(f"FAIL: {len(wrong)} of {len(rows)} rows differ from the server's "
              f"replies, first {wrong[:5]}", file=sys.stderr)
        return 1
    if resent or [r.to_json() for r in resumed] != [r.to_json() for r in rows]:
        print(f"FAIL: the resumed run sent {resent} requests, or its rows differ "
              "from the first run's", file=sys.stderr)
        return 1
    if after != held:
        print("FAIL: the resumed run changed the checkpoint's bytes", file=sys.stderr)
        return 1
    if sorted(checkpointed) != sorted(sel.site_id for sel in items):
        print(f"FAIL: the checkpoint holds {len(checkpointed)} lines for "
              f"{len(items)} sites", file=sys.stderr)
        return 1
    print(f"{len(rows)} rows: {elapsed * 1000 / len(rows):.3f} ms/row "
          f"({requests} requests on {connections} connections); resumed: "
          f"{resume_elapsed * 1000 / len(rows):.3f} ms/row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
