import hashlib
import io
import json
import os
import random
import socket
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from warc2meta.client import (
    RETRY_BACKOFF,
    ClientConfig,
    generate_metadata,
    run_batch,
    _parse_reply,
)
from warc2meta.errors import ApiError, RateLimited, SchemaViolation
from warc2meta.prompts import (WITH_RULES, WITHOUT_RULES, HeuristicId, Selection,
                               build_prompt, combination_id)
from warc2meta.store import appending, dumps
from warc2meta.urlnorm import normalize_url

from helpers import MockChatServer


def _selection(content="acme corp builds instruments", heuristic=HeuristicId.SHORTEST_URL,
               site_id="s1"):
    url = normalize_url("https://acme.sg/")
    return Selection(
        site_id=site_id,
        heuristic=heuristic,
        chosen_url=url,
        content=content,
        original_token_estimate=10,
        reduced_token_estimate=10,
    )


def _messages(variant=WITH_RULES):
    """The messages run_batch sends for _selection()."""
    selection = _selection()
    return build_prompt(variant, selection.content, selection.chosen_url)


def _cfg(base_url, **kw):
    return ClientConfig(base_url=base_url, model_name="test-model", **kw)


class TestCombinationId:
    def test_table_layout(self):
        assert combination_id(WITH_RULES, HeuristicId.ABOUT_PRIORITY) == 0
        assert combination_id(WITHOUT_RULES, HeuristicId.ABOUT_PRIORITY) == 1
        assert combination_id(WITH_RULES, HeuristicId.SHORTEST_URL) == 2
        assert combination_id(WITHOUT_RULES, HeuristicId.SHORTEST_URL) == 3
        assert combination_id(WITH_RULES, HeuristicId.SHORTEST_URL_FILTERED) == 4
        assert combination_id(WITHOUT_RULES, HeuristicId.SHORTEST_URL_FILTERED) == 5


class TestParseReply:
    def test_clean_json(self):
        out = _parse_reply('{"title": "T", "abstract": "A"}')
        assert out == ("T", "A")

    def test_json_inside_prose(self):
        out = _parse_reply('Sure! Here it is:\n{"title": "T", "abstract": "A"}\nDone.')
        assert out == ("T", "A")

    @pytest.mark.parametrize("bad", [
        "no json here",
        '{"title": "T"}',
        '{"title": "", "abstract": "A"}',
        '{"title": 3, "abstract": "A"}',
        "[1, 2]",
    ])
    def test_schema_violations(self, bad):
        with pytest.raises(SchemaViolation):
            _parse_reply(bad)


class TestGenerateMetadata:
    def test_happy_path(self, tmp_path):
        reply = {"title": "Acme Pte Ltd", "abstract": "This is the website of Acme..."}
        with MockChatServer(script=[reply]) as server:
            [row] = run_batch([_selection()], WITH_RULES, _cfg(server.base_url), tmp_path / "ck")
        meta = row.result
        assert meta.title == "Acme Pte Ltd"
        assert meta.source == "combo2"
        assert meta.site_id == "s1"
        assert meta.model_name == "test-model"

    def test_prose_then_valid_json_on_retry(self):
        script = [
            "I think the title is Acme.",
            {"title": "Acme", "abstract": "An instrument maker."},
        ]
        with MockChatServer(script=script) as server:
            title, _ = generate_metadata(_messages(), _cfg(server.base_url))
            assert title == "Acme"
            # the re-ask carries the parse error back to the model
            second = server.requests[1]
            assert second["messages"][-1]["role"] == "user"
            assert "not valid" in second["messages"][-1]["content"]

    def test_rate_limited_forever(self):
        with MockChatServer(script=[429]) as server:
            with pytest.raises(RateLimited):
                generate_metadata(_messages(), _cfg(server.base_url, max_retries=2))

    @pytest.mark.parametrize("retry_after, slept", [
        ("0.02", 0.02),  # a finite number of seconds >= 0 is honoured
        *((bad, RETRY_BACKOFF[0]) for bad in ("-1", "nan", "inf", "1e999", "soon")),
    ])
    def test_bad_retry_after_takes_the_backoff(self, retry_after, slept, monkeypatch):
        """A Retry-After that is not a finite number >= 0 counts as absent."""
        delays = []
        monkeypatch.setattr("warc2meta.client.time.sleep", delays.append)
        reply = {"title": "T", "abstract": "A"}
        with MockChatServer(script=[429, reply], retry_after=retry_after) as server:
            title, _ = generate_metadata(_messages(), _cfg(server.base_url))
        assert title == "T"
        assert len(server.requests) == 2
        assert delays == [slept]

    def test_server_error_surfaces(self):
        with MockChatServer(script=[500]) as server:
            with pytest.raises(ApiError):
                generate_metadata(_messages(), _cfg(server.base_url))

    def test_schema_violation_after_retries(self):
        with MockChatServer(script=["never json"]) as server:
            with pytest.raises(SchemaViolation):
                generate_metadata(_messages(), _cfg(server.base_url, max_retries=1))

    def test_request_body_shape(self):
        reply = {"title": "T", "abstract": "A"}
        with MockChatServer(script=[reply]) as server:
            generate_metadata(_messages(WITHOUT_RULES), _cfg(server.base_url))
            body = server.requests[0]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.0
        assert body["response_format"] == {"type": "json_object"}
        assert body["messages"][0]["role"] == "system"
        assert body["messages"][1]["content"].startswith("https://acme.sg/")


class TestRunBatch:
    def _items(self, n=3):
        return [_selection(content=f"site {i} content", site_id=f"s{i}") for i in range(n)]

    def _echo_fn(self, body):
        # deterministic reply derived from the request
        site = body["messages"][1]["content"].splitlines()[1]
        return {"title": f"Title for {site}", "abstract": f"Abstract for {site}"}

    def test_sequential_mode(self, tmp_path):
        with MockChatServer(reply_fn=self._echo_fn) as server:
            rows = run_batch(self._items(), WITH_RULES, _cfg(server.base_url), tmp_path / "ck")
            assert server.high_water == 1
        assert [r.site_id for r in rows] == ["s0", "s1", "s2"]
        assert all(r.result is not None for r in rows)

    def test_each_prompt_built_once(self, tmp_path, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return build_prompt(*args)

        monkeypatch.setattr("warc2meta.client.build_prompt", counted)
        with MockChatServer(reply_fn=self._echo_fn) as server:
            rows = run_batch(self._items(), WITH_RULES, _cfg(server.base_url), tmp_path / "ck")
            assert len(server.requests) == 3
        assert all(r.result is not None for r in rows)
        assert len(built) == 3

    def test_concurrent_mode_overlaps(self, tmp_path):
        barrier = threading.Barrier(3, timeout=10)

        def slow_fn(body):
            barrier.wait()
            return self._echo_fn(body)

        with MockChatServer(reply_fn=slow_fn) as server:
            run_batch(self._items(3), WITH_RULES,
                      _cfg(server.base_url, max_in_flight=3), tmp_path / "ck")
            assert server.high_water == 3

    def test_partial_failure_recorded(self, tmp_path):
        def fn(body):
            if "site 1" in body["messages"][1]["content"]:
                return 500
            return self._echo_fn(body)

        with MockChatServer(reply_fn=fn) as server:
            rows = run_batch(self._items(), WITH_RULES, _cfg(server.base_url, max_retries=0),
                             tmp_path / "ck")
        assert rows[1].error is not None and rows[1].result is None
        assert rows[0].result is not None and rows[2].result is not None

    def test_checkpoint_resume(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            run_batch(self._items(2), WITH_RULES, cfg, checkpoint_path=ckpt)
            first_run_requests = len(server.requests)
            rows = run_batch(self._items(3), WITH_RULES, cfg, checkpoint_path=ckpt)
            # only the new third item hits the API
            assert len(server.requests) == first_run_requests + 1
        assert [r.site_id for r in rows] == ["s0", "s1", "s2"]
        lines = [json.loads(l) for l in ckpt.read_text().splitlines()]
        assert len(lines) == 3

    def test_rows_hold_the_replies_sent_and_a_rerun_sends_none(self, tmp_path):
        computed = {}  # each selection's content -> the reply the server sent for it

        def reply_fn(body):
            content = body["messages"][1]["content"].partition("\n")[2]
            digest = hashlib.sha256(content.encode("utf-8")).hexdigest()
            computed[content] = {"title": f"Site {digest[:8]}", "abstract": f"Abstract {digest}"}
            return computed[content]

        rng = random.Random(0)
        words = "service quality customer project design build support team office café".split()
        items = [_selection(content=f"site {i} " + " ".join(rng.choice(words) for _ in range(300)),
                            site_id=f"s{i}") for i in range(200)]
        ckpt = tmp_path / "ckpt.jsonl"
        with MockChatServer(reply_fn=reply_fn, keep_alive=True) as server:
            cfg = _cfg(server.base_url)
            rows = run_batch(items, WITH_RULES, cfg, ckpt)
            sent, held = len(server.requests), ckpt.read_bytes()
            resumed = run_batch(items, WITH_RULES, cfg, ckpt)
            assert len(server.requests) == sent
        assert [{"title": r.result.title, "abstract": r.result.abstract} for r in rows] == [
            computed[sel.content] for sel in items]
        assert [r.to_json() for r in resumed] == [r.to_json() for r in rows]
        assert ckpt.read_bytes() == held
        assert sorted(json.loads(line)["site_id"] for line in held.splitlines()) == sorted(
            sel.site_id for sel in items)

    def test_concurrent_checkpoint_resume(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MockChatServer(reply_fn=self._echo_fn) as server:
                cfg = _cfg(server.base_url, max_in_flight=8)
                run_batch(self._items(24), WITH_RULES, cfg, checkpoint_path=ckpt)
                rows = run_batch(self._items(24), WITH_RULES, cfg, checkpoint_path=ckpt)
                assert len(server.requests) == 24
        finally:
            sys.setswitchinterval(interval)
        lines = [json.loads(l) for l in ckpt.read_text().splitlines()]  # no torn row
        assert sorted(l["site_id"] for l in lines) == sorted(f"s{i}" for i in range(24))
        assert [r.result.title for r in rows] == [f"Title for site {i} content" for i in range(24)]

    def test_checkpoint_changed_content_requested_again(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            run_batch(self._items(2), WITH_RULES, cfg, checkpoint_path=ckpt)
            changed = [_selection(content="site 0 new content", site_id="s0"), self._items(2)[1]]
            rows = run_batch(changed, WITH_RULES, cfg, checkpoint_path=ckpt)
            assert len(server.requests) == 3  # only the changed site is asked again
            # another model or temperature changes every request
            rows_t = run_batch(changed, WITH_RULES, _cfg(server.base_url, temperature=0.5),
                               checkpoint_path=ckpt)
            assert len(server.requests) == 5
        assert rows[0].result.title == "Title for site 0 new content"
        assert rows[1].result.title == "Title for site 1 content"
        assert [r.result.title for r in rows_t] == [r.result.title for r in rows]

    def test_checkpoint_retries_failed_rows(self, tmp_path):
        ckpt = tmp_path / "ckpt.jsonl"
        down = {"site 1 content"}

        def fn(body):
            if body["messages"][1]["content"].splitlines()[1] in down:
                return 500
            return self._echo_fn(body)

        with MockChatServer(reply_fn=fn) as server:
            cfg = _cfg(server.base_url, max_retries=0)
            first = run_batch(self._items(), WITH_RULES, cfg, checkpoint_path=ckpt)
            assert first[1].error.startswith("ApiError: API error 500")
            down.clear()  # the server recovers
            rows = run_batch(self._items(), WITH_RULES, cfg, checkpoint_path=ckpt)
            assert len(server.requests) == 4  # the failed site only, once
        assert all(r.result is not None for r in rows)
        assert rows[1].result.title == "Title for site 1 content"

    def test_torn_last_checkpoint_line_is_asked_again(self, tmp_path):
        """A last line with no newline, an append cut off mid-row, counts
        as unwritten: its site is asked again, on a line of its own."""
        ckpt = tmp_path / "ckpt.jsonl"
        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            run_batch(self._items(2), WITH_RULES, cfg, checkpoint_path=ckpt)
            whole = ckpt.read_text()
            run_batch(self._items(3)[2:], WITH_RULES, cfg, tmp_path / "other")
            ckpt.write_text(whole + (tmp_path / "other").read_text()[:25])
            rows = run_batch(self._items(3), WITH_RULES, cfg, checkpoint_path=ckpt)
            assert len(server.requests) == 4  # s2 only, once more
        assert [r.result.title for r in rows] == [f"Title for site {i} content" for i in range(3)]
        lines = ckpt.read_text().splitlines()
        assert "\n".join(lines[:2]) + "\n" == whole
        assert [json.loads(line)["site_id"] for line in lines] == ["s0", "s1", "s2"]

    def test_resume_opens_and_reads_the_checkpoint_once(self, tmp_path, monkeypatch):
        """A resumed batch opens its checkpoint once and reads its bytes
        once: the torn-line cut and the parse of the lines share one read."""
        ckpt = tmp_path / "ckpt.jsonl"
        opened, sizes = [], []
        real_open = open

        def counted_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if not isinstance(file, (str, os.PathLike)) or Path(file) != ckpt:
                return fh
            opened.append(args)
            return _CountedReads(fh, sizes)

        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            run_batch(self._items(2), WITH_RULES, cfg, ckpt)
            held = ckpt.read_bytes()
            with monkeypatch.context() as patch:
                patch.setattr("builtins.open", counted_open)
                rows = run_batch(self._items(3), WITH_RULES, cfg, ckpt)
            assert len(server.requests) == 3
        assert [r.served for r in rows] == [True, True, False]
        assert (len(opened), sum(sizes)) == (1, len(held))
        assert ckpt.read_bytes().startswith(held)

    def test_checkpoint_row_without_key_requested_again(self, tmp_path):
        # rows written before checkpoints carried a request key
        ckpt = tmp_path / "ckpt.jsonl"
        ckpt.write_text(json.dumps({
            "site_id": "s0", "source": "combo2", "title": "Old", "abstract": "Old reply",
            "model_name": "test-model",
        }) + "\n")
        with MockChatServer(reply_fn=self._echo_fn) as server:
            rows = run_batch(self._items(1), WITH_RULES, _cfg(server.base_url),
                             checkpoint_path=ckpt)
            assert len(server.requests) == 1
        assert rows[0].result.title == "Title for site 0 content"

    def test_checkpoint_holds_only_replies(self, tmp_path, monkeypatch):
        """An error is never written, so a rerun that gets only errors
        leaves the checkpoint as it was, and it is never rewritten."""
        ckpt = tmp_path / "ckpt.jsonl"
        replaced = []
        monkeypatch.setattr(os, "replace", lambda *args: replaced.append(args))

        def fn(body):  # site 1 always fails
            if body["messages"][1]["content"].splitlines()[1] == "site 1 content":
                return 500
            return self._echo_fn(body)

        with MockChatServer(reply_fn=fn) as server:
            cfg = _cfg(server.base_url, max_retries=0)
            run_batch(self._items(), WITH_RULES, cfg, checkpoint_path=ckpt)
            first = ckpt.read_text()
            rows = run_batch(self._items(), WITH_RULES, cfg, checkpoint_path=ckpt)
            assert len(server.requests) == 4
        assert ckpt.read_text() == first
        assert [json.loads(line)["site_id"] for line in first.splitlines()] == ["s0", "s2"]
        assert replaced == []
        assert [r.served for r in rows] == [True, False, True]
        assert rows[1].error.startswith("ApiError: API error 500")

    def test_reply_followed_by_an_error_row_is_still_served(self, tmp_path):
        """An error row that an older version wrote after a site's reply
        neither hides the reply nor makes it go."""
        ckpt = tmp_path / "ckpt.jsonl"
        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            run_batch(self._items(1), WITH_RULES, cfg, checkpoint_path=ckpt)
            with open(ckpt, "a") as fh:
                fh.write(dumps({"site_id": "s0", "error": "ApiError: injected"}) + "\n")
            held = ckpt.read_text()
            sent = len(server.requests)
            for _ in range(2):
                rows = run_batch(self._items(1), WITH_RULES, cfg, checkpoint_path=ckpt)
                assert len(server.requests) == sent
                assert rows[0].result.title == "Title for site 0 content"
        assert ckpt.read_text() == held
        assert rows[0].served

    def test_reverted_request_is_served(self, tmp_path):
        """Content one, then two, then one again: the third run is served
        the first run's reply."""
        ckpt = tmp_path / "ckpt.jsonl"
        one, two = ([_selection(content=f"site 0 {text}", site_id="s0")] for text in ("1", "2"))
        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            sent = []
            for items in (one, two, one):
                rows = run_batch(items, WITH_RULES, cfg, checkpoint_path=ckpt)
                sent.append(len(server.requests) - sum(sent))
        assert sent == [1, 1, 0]
        assert rows[0].served and rows[0].result.title == "Title for site 0 1"
        assert len(ckpt.read_text().splitlines()) == 2

    def test_deterministic_output(self, tmp_path):
        with MockChatServer(reply_fn=self._echo_fn) as server:
            cfg = _cfg(server.base_url)
            a = [r.to_json() for r in run_batch(self._items(), WITH_RULES, cfg, tmp_path / "a")]
            b = [r.to_json() for r in run_batch(self._items(), WITH_RULES, cfg, tmp_path / "b")]
        assert a == b


class _CountedReads:
    """A file handle that adds the size of each read through it to `sizes`."""

    def __init__(self, fh, sizes):
        self.fh, self.sizes = fh, sizes

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self.fh)
        self.sizes.append(len(line))
        return line

    def read(self, *args):
        data = self.fh.read(*args)
        self.sizes.append(len(data))
        return data


def test_rows_appended_from_many_threads_stay_whole_lines(tmp_path):
    """Rows that several threads append to one checkpoint at once, each
    longer than the file's buffer, land whole on lines of their own."""
    path = tmp_path / "ckpt.jsonl"
    rows = [dumps({"site_id": f"s{i}", "pad": "x" * (io.DEFAULT_BUFFER_SIZE + i)})
            for i in range(500)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with appending(path) as (_, append), ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(append, rows))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(path.read_text().splitlines()) == sorted(rows)


def _key(content, cfg):
    """The request key of a row of TestCheckpointRule: the sha256 of its
    messages, model and temperature."""
    messages = build_prompt(WITH_RULES, f"site {content}", normalize_url("https://acme.sg/"))
    blob = dumps([messages, cfg.model_name, cfg.temperature]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _reply(content):
    return {"title": f"Title for site {content}", "abstract": f"Abstract for site {content}"}


SITES = [f"s{i}" for i in range(5)]


class TestCheckpointRule:
    """run_batch, call after call on one checkpoint, serves exactly the
    requests that the log holds a reply for and appends one line per reply
    it paid for, whatever else the log holds."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_calls_follow_the_log_rule(self, data):
        version = dict.fromkeys(SITES, 0)
        down = set()

        def fn(body):
            content = body["messages"][1]["content"].splitlines()[1]
            if content.split()[1] in down:
                return 500
            return {"title": f"Title for {content}", "abstract": f"Abstract for {content}"}

        with MockChatServer(reply_fn=fn) as server, tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ckpt.jsonl"
            for _ in range(data.draw(st.integers(2, 3), label="calls")):
                sites = data.draw(st.permutations(SITES), label="order")[
                    :data.draw(st.integers(1, len(SITES)), label="sites")]
                down = data.draw(st.sets(st.sampled_from(sites)), label="down")
                for site in data.draw(st.sets(st.sampled_from(sites)), label="changed"):
                    version[site] = data.draw(st.integers(0, 2).filter(
                        lambda v, site=site: v != version[site]), label="version")
                content = {site: f"{site} v{version[site]}" for site in sites}
                cfg = _cfg(server.base_url, max_retries=0,
                           max_in_flight=data.draw(st.sampled_from([1, 3])))
                inject = data.draw(st.sampled_from(
                    [None, "torn", "no-site", "error", "list-key", "number-key", "no-build"]),
                    label="inject")
                site = data.draw(st.sampled_from(sites), label="injected site")
                line = {"site_id": site, "source": "combo2", **_reply(content[site]),
                        "key": _key(content[site], cfg)}  # a reply in all but what is injected
                text = ckpt.read_text() if ckpt.exists() else ""
                if inject == "torn":
                    row = dumps(line)
                    text += row[:data.draw(st.integers(1, len(row) - 1), label="cut")]
                elif inject == "no-site":
                    text += dumps(dict(line, site_id=None)) + "\n"
                elif inject == "error":
                    text += dumps({"site_id": site, "error": "ApiError: injected"}) + "\n"
                elif inject == "list-key":
                    text += dumps(dict(line, key=[line["key"]])) + "\n"
                elif inject == "number-key":
                    text += dumps(dict(line, key=7)) + "\n"
                elif inject == "no-build":
                    text += dumps(dict(line, abstract=None)) + "\n"
                ckpt.write_text(text)
                before = text[:text.rfind("\n") + 1]  # the torn-line cut
                held = set()  # (site_id, key) of each reply in the log
                for obj in map(json.loads, before.splitlines()):
                    if isinstance(obj.get("key"), str) and all(
                            isinstance(obj.get(name), str)
                            for name in ("site_id", "title", "abstract", "source")):
                        held.add((obj["site_id"], obj["key"]))

                sent = len(server.requests)
                rows = run_batch([_selection(content=f"site {content[s]}", site_id=s)
                                  for s in sites], WITH_RULES, cfg, ckpt)
                after = ckpt.read_text()
                assert [r.site_id for r in rows] == list(sites)
                paid = []
                for row in rows:
                    key = _key(content[row.site_id], cfg)
                    assert row.served == ((row.site_id, key) in held)
                    if row.site_id in down and not row.served:
                        assert row.error.startswith("ApiError: API error 500")
                    else:
                        assert row.result.title == _reply(content[row.site_id])["title"]
                        if not row.served:
                            paid.append(dumps(dict(vars(row.result), key=key)))
                assert after.startswith(before)
                assert sorted(after[len(before):].splitlines()) == sorted(paid)
                assert len(server.requests) - sent == sum(not r.served for r in rows)


class TestClientConfig:
    def test_invalid_in_flight(self):
        with pytest.raises(ValueError):
            ClientConfig(base_url="x", model_name="m", max_in_flight=0)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            ClientConfig(base_url="x", model_name="m", temperature=3.0)

    def test_api_key_from_env(self, monkeypatch):
        cfg = ClientConfig(base_url="x", model_name="m")
        monkeypatch.setenv("WARC2META_API_KEY", "sekrit")
        assert cfg.api_key() == "sekrit"


def _closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestWire:
    """What the client sends and how it reads replies, seen from the server."""

    def test_bearer_token_only_when_key_set(self, monkeypatch):
        reply = {"title": "T", "abstract": "A"}
        monkeypatch.delenv("WARC2META_API_KEY", raising=False)
        with MockChatServer(script=[reply]) as server:
            generate_metadata(_messages(), _cfg(server.base_url))
            monkeypatch.setenv("WARC2META_API_KEY", "sekrit")
            generate_metadata(_messages(), _cfg(server.base_url))
            without, with_key = server.headers
        assert "Authorization" not in without
        assert with_key["Authorization"] == "Bearer sekrit"
        assert with_key["Content-Type"] == "application/json"
        assert server.paths == ["/chat/completions"] * 2

    def test_non_json_body_is_api_error(self):
        with MockChatServer(script=[b"<html>bad gateway</html>"]) as server:
            with pytest.raises(ApiError, match="malformed completion body"):
                generate_metadata(_messages(), _cfg(server.base_url))

    def test_closed_port_gives_one_error_row_per_site(self, tmp_path):
        items = [_selection(content=f"site {i} content", site_id=f"s{i}") for i in range(3)]
        rows = run_batch(items, WITH_RULES, _cfg(f"http://127.0.0.1:{_closed_port()}/v1"),
                         tmp_path / "ck")
        assert [r.site_id for r in rows] == ["s0", "s1", "s2"]
        assert all(r.result is None and r.error.startswith("ConnectionRefusedError: ")
                   for r in rows)

    def test_http_proxy_from_environment(self, monkeypatch):
        for name in ("HTTP_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        reply = {"title": "T", "abstract": "A"}
        with MockChatServer(script=[reply]) as server:
            monkeypatch.setenv("http_proxy", server.base_url)
            title, _ = generate_metadata(_messages(), _cfg("http://warc2meta-proxy.invalid/v1"))
        assert title == "T"
        assert server.paths == ["http://warc2meta-proxy.invalid/v1/chat/completions"]
        assert server.headers[0]["Host"] == "warc2meta-proxy.invalid"

    def test_one_connection_per_row_reused_for_its_retries(self, tmp_path):
        # row 1: a 429, then a reply that breaks the schema, then a valid one
        script = [429, "no json here", {"title": "T", "abstract": "A"}]
        with MockChatServer(script=script, keep_alive=True) as server:
            rows = run_batch(self._items(2), WITH_RULES, _cfg(server.base_url), tmp_path / "ck")
            assert len(server.requests) == 4
            assert server.connections == 2
        assert all(r.result is not None for r in rows)

    def _items(self, n):
        return [_selection(content=f"site {i} content", site_id=f"s{i}") for i in range(n)]
