import base64
import builtins
import csv
import dataclasses
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from warc2meta import cli, store, tokens
from warc2meta.config import PipelineConfig
from warc2meta.errors import ConfigError
from warc2meta.metrics import EMBED_BATCH
from warc2meta.prompts import GeneratedMetadata, Selection
from warc2meta.sites import PageRecord, SiteDocument

from helpers import (MockChatServer, build_warc, defect_corpus, html_page, response_record,
                     run_cli, warc_corpus)


def _make_corpus(root, n_sites=3):
    warc_dir = root / "warcs"
    warc_dir.mkdir()
    for i in range(n_sites):
        records = [
            response_record(
                f"https://site{i}.sg/",
                body=html_page(f"Site {i}", f"landing page for site {i} " * 10),
            ),
            response_record(
                f"https://site{i}.sg/about",
                body=html_page(f"About {i}", f"about page of company {i} " * 10),
            ),
            response_record(
                f"https://site{i}.sg/products/catalogue",
                body=html_page(f"Products {i}", f"product list entry {i} " * 40),
            ),
        ]
        build_warc(warc_dir / f"site{i}.warc.gz", records, gzipped=True)
    return warc_dir


def _write_config(root, warc_dir, base_url="http://127.0.0.1:1/v1"):
    cfg = {
        "input_dir": str(warc_dir),
        "output_dir": str(root / "out"),
        "heuristic": 2,
        "prompt_variant": "rules",
        "client": {"base_url": base_url, "model_name": "test-model",
                   "max_retries": 0},
    }
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _echo_reply(body):
    site = body["messages"][1]["content"].splitlines()[0]
    return {"title": f"Title {site}", "abstract": f"Abstract for {site}"}


class TestIngestCommand:
    def test_one_row_per_file(self, tmp_path):
        warc_dir = _make_corpus(tmp_path)
        cfg = _write_config(tmp_path, warc_dir)
        result = run_cli(["--config", str(cfg), "ingest"])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "sites.jsonl").read_text().splitlines()
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "out" / "manifest_ingest.json").read_text())
        assert manifest["counts"]["files"] == 3

    def test_page_decoding_to_a_surrogate_is_kept(self, tmp_path):
        warc_dir = tmp_path / "warcs"
        warc_dir.mkdir()
        build_warc(warc_dir / "site.warc", [
            response_record("https://a.sg/", body=html_page("Home", "welcome " * 20)),
            response_record("https://a.sg/x", content_type="text/html; charset=utf-7",
                            body=html_page("X", "content +2D0- " * 20)),
        ])
        result = run_cli(["--config", str(_write_config(tmp_path, warc_dir)), "ingest"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "out" / "manifest_ingest.json").read_text())
        assert manifest["counts"]["pages_kept"] == 2
        [site] = (tmp_path / "out" / "sites.jsonl").read_text().splitlines()
        assert json.loads(site)["pages"][1]["body_text"].startswith("content +2D0- content")

    def test_empty_dir_is_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = _write_config(tmp_path, empty)
        result = run_cli(["--config", str(cfg), "ingest"])
        assert result.exit_code != 0
        assert "NoInput" in result.output

    def test_corrupt_file_among_good(self, tmp_path):
        warc_dir = _make_corpus(tmp_path, n_sites=2)
        (warc_dir / "broken.warc").write_bytes(b"garbage not a warc\r\n\r\n")
        cfg = _write_config(tmp_path, warc_dir)
        result = run_cli(["--config", str(cfg), "ingest"])
        assert result.exit_code == 0
        lines = (tmp_path / "out" / "sites.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert "broken.warc" in result.output


class TestSelectCommand:
    def test_single_heuristic(self, tmp_path):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path))
        run_cli(["--config", str(cfg), "ingest"])
        result = run_cli(["--config", str(cfg), "select", "--heuristic", "2"])
        assert result.exit_code == 0, result.output
        sel = (tmp_path / "out" / "selections_h2.jsonl").read_text().splitlines()
        assert len(sel) == 3
        assert (tmp_path / "out" / "cost_report.csv").is_file()

    def test_all_heuristics(self, tmp_path):
        warc_dir = _make_corpus(tmp_path)
        empty = warc_dir / "empty.warc"
        build_warc(empty, [response_record("https://gone.sg/", status=404)])
        cfg = _write_config(tmp_path, warc_dir)
        run_cli(["--config", str(cfg), "ingest"])
        result = run_cli(["--config", str(cfg), "select", "--all"])
        assert result.exit_code == 0, result.output
        for h in (1, 2, 3):
            path = tmp_path / "out" / f"selections_h{h}.jsonl"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            errors = [r["error"] for r in rows if "error" in r]
            assert errors == [f"EmptySite: {empty}"]
        with open(tmp_path / "out" / "cost_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["heuristic"] for r in rows] == ["1", "2", "3"]

    def test_all_heuristics_count_site_text_once(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path))
        run_cli(["--config", str(cfg), "ingest"])
        counted = []
        real_count = tokens.count_tokens

        def counting(text, tok):
            counted.append(text)
            return real_count(text, tok)

        # cli imports count_tokens when a command runs, so this patch reaches it too
        monkeypatch.setattr(tokens, "count_tokens", counting)
        result = run_cli(["--config", str(cfg), "select", "--all"])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "out" / "sites.jsonl") as fh:
            sites = [json.loads(line) for line in fh]
        for site in sites:
            whole = " ".join(p["body_text"] for p in site["pages"])
            assert counted.count(whole) == 1

    @pytest.mark.parametrize("heuristic", [1, 2, 3])
    @pytest.mark.parametrize("rank_table", [False, True], ids=["estimate", "bpe"])
    def test_cost_report_counts_both_sides_with_one_tokenizer(self, tmp_path,
                                                              heuristic, rank_table):
        """The report row, against each site's and each selection's own count."""
        cfg = _write_config(tmp_path, _make_corpus(tmp_path))
        raw = yaml.safe_load(cfg.read_text())
        raw["max_content_tokens"] = 40  # every selection is truncated
        tok = None
        if rank_table:
            merges = [b"pa", b"ge", b"page", b"ab", b"ou", b"out", b"si", b"te", b" p", b"en"]
            table = tmp_path / "ranks.tiktoken"
            table.write_text("".join(f"{base64.b64encode(t).decode()} {rank}\n"
                                     for rank, t in enumerate(merges)))
            raw["tokenizer_path"] = str(table)
            tok = tokens.load_vocabulary(table)
        cfg.write_text(yaml.safe_dump(raw))
        args = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli(args + ["ingest"]).exit_code == 0
        result = run_cli(args + ["select", "--heuristic", str(heuristic)])
        assert result.exit_code == 0, result.output
        with open(out / "sites.jsonl") as fh:
            sites = [json.loads(line) for line in fh]
        before = sum(tokens.count_tokens(" ".join(p["body_text"] for p in site["pages"]), tok)
                     for site in sites)
        with open(out / f"selections_h{heuristic}.jsonl") as fh:
            selected = [json.loads(line) for line in fh]
        for sel in selected:
            assert tokens.count_tokens(sel["content"], tok) == sel["reduced_token_estimate"] <= 40
        after = sum(sel["reduced_token_estimate"] for sel in selected)
        with open(out / "cost_report.csv") as fh:
            [row] = csv.DictReader(fh)
        assert row["heuristic"] == str(heuristic)
        assert (int(row["tokens_before"]), int(row["tokens_after"])) == (before, after)
        assert row["reduction_ratio"] == f"{1 - after / before:.6f}"
        assert row["approximate"] == str(int(not rank_table))

    def test_non_http_base_url_fails_before_output(self, tmp_path):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path), "ftp://127.0.0.1/v1")
        result = run_cli(["--config", str(cfg), "ingest"])
        assert result.exit_code == 1
        assert "Error: ConfigError: client.base_url must be an http or https URL" in result.output
        assert not (tmp_path / "out").exists()

    def test_missing_tokenizer_fails_before_output(self, tmp_path):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path))
        assert run_cli(["--config", str(cfg), "ingest"]).exit_code == 0
        missing = tmp_path / "no_such.tiktoken"
        raw = yaml.safe_load(cfg.read_text())
        raw["tokenizer_path"] = str(missing)
        cfg.write_text(yaml.safe_dump(raw))
        result = run_cli(["--config", str(cfg), "select", "--all"])
        assert result.exit_code != 0
        assert str(missing) in result.output
        assert list((tmp_path / "out").glob("selections_h*.jsonl")) == []

    def test_missing_sites_fails_before_output(self, tmp_path):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path))
        out = tmp_path / "out"
        out.mkdir()
        seeded = out / "selections_h2.jsonl"
        seeded.write_text('{"site_id": "kept"}\n')
        result = run_cli(["--config", str(cfg), "select"])
        assert result.exit_code != 0
        assert "Error: ConfigError: no " in result.output
        assert "run `ingest` first" in result.output
        assert seeded.read_text() == '{"site_id": "kept"}\n'

    def test_all_heuristics_match_single_runs(self, tmp_path):
        """The three interleaved writers of --all write what three runs of one write."""
        warc_dir = _make_corpus(tmp_path)
        build_warc(warc_dir / "empty.warc", [response_record("https://gone.sg/", status=404)])
        cfg = _write_config(tmp_path, warc_dir)
        args = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli(args + ["ingest"]).exit_code == 0

        def report_rows():
            with open(out / "cost_report.csv") as fh:
                return list(csv.reader(fh))

        single, single_rows = {}, []
        for h in (1, 2, 3):
            assert run_cli(args + ["select", "--heuristic", str(h)]).exit_code == 0
            single[h] = (out / f"selections_h{h}.jsonl").read_bytes()
            header, *rows = report_rows()
            single_rows += rows
        result = run_cli(args + ["select", "--all"])
        assert result.exit_code == 0, result.output
        for h in (1, 2, 3):
            assert (out / f"selections_h{h}.jsonl").read_bytes() == single[h]
        assert report_rows() == [header, *single_rows]

    def test_manifest_counts_empty_selections_per_heuristic(self, tmp_path):
        """empty_h<N> counts the selections of no text, which generate refuses."""
        cfg = _write_config(tmp_path, defect_corpus(tmp_path / "warcs"))
        out = tmp_path / "out"
        assert run_cli(["--config", str(cfg), "ingest"]).exit_code == 0

        def empty(h):
            rows = map(json.loads, (out / f"selections_h{h}.jsonl").read_text().splitlines())
            return sum(1 for row in rows if not row["content"].strip())

        def counts():
            return json.loads((out / "manifest_select.json").read_text())["counts"]

        assert run_cli(["--config", str(cfg), "select", "--all"]).exit_code == 0
        assert {k: v for k, v in counts().items() if k.startswith("empty_")} == {
            f"empty_h{h}": empty(h) for h in (1, 2, 3)}
        assert empty(3) > 0
        assert run_cli(["--config", str(cfg), "select", "--heuristic", "1"]).exit_code == 0
        assert [k for k in counts() if k.startswith("empty_")] == ["empty_h1"]
        assert counts()["empty_h1"] == empty(1)

    def test_memory_is_set_by_a_site_not_the_crawl(self, tmp_path):
        """select --all on ten copies of a crawl's sites.jsonl stays within
        8 MB of max RSS over one copy, and its outputs scale by ten."""
        one, many = tmp_path / "one", tmp_path / "many"
        warcs = warc_corpus(tmp_path / "warcs", 48)[0].parent
        assert run_cli(["--output", one, "ingest", "--input", warcs]).exit_code == 0
        sites = (one / "sites.jsonl").read_bytes()
        many.mkdir()
        with open(many / "sites.jsonl", "wb") as fh:
            for _ in range(10):
                fh.write(sites)
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", _SELECT_RSS_SCRIPT, one, many],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        bare, rss_one, rss_many = map(float, proc.stdout.split())
        assert rss_one > bare  # else the figure is the launcher's peak, not select's
        assert rss_many <= rss_one + 8
        for h in (1, 2, 3):
            name = f"selections_h{h}.jsonl"
            assert (many / name).read_bytes() == (one / name).read_bytes() * 10

        def token_sums(out):
            with open(out / "cost_report.csv", newline="") as fh:
                return {r["heuristic"]: (int(r["tokens_before"]), int(r["tokens_after"]))
                        for r in csv.DictReader(fh)}

        assert token_sums(many) == {
            h: (before * 10, after * 10) for h, (before, after) in token_sums(one).items()}


# Runs `select --all` on each output directory it is given, each in a child of
# this small interpreter, and prints the max RSS in MB of a bare child and then
# of each run. Linux starts a child's max RSS at the peak of the process that
# started it, so a child of pytest would read pytest's peak, not select's.
_SELECT_RSS_SCRIPT = """
import os, subprocess, sys
def max_rss(*args):
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, args
    return usage.ru_maxrss / 1024
runs = [("-c", "pass")] + [("-m", "warc2meta.cli", "--output", out, "select", "--all")
                           for out in sys.argv[1:]]
print(*(max_rss(*args) for args in runs))
"""


class TestGenerateEvaluate:
    def _pipeline_to_selections(self, tmp_path, base_url):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path), base_url=base_url)
        assert run_cli(["--config", str(cfg), "ingest"]).exit_code == 0
        assert run_cli(["--config", str(cfg), "select", "--all"]).exit_code == 0
        return cfg

    def test_generate_and_evaluate(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = self._pipeline_to_selections(tmp_path, server.base_url)
            result = run_cli(["--config", str(cfg), "generate", "--all-combinations"])
            assert result.exit_code == 0, result.output
            for combo in range(6):
                path = tmp_path / "out" / f"generated_combo{combo}.jsonl"
                assert path.is_file()

        reference = tmp_path / "reference.jsonl"
        with open(tmp_path / "out" / "generated_combo2.jsonl") as fh:
            rows = [json.loads(l) for l in fh]
        with open(reference, "w") as fh:
            for row in rows:
                fh.write(json.dumps({
                    "site_id": row["site_id"], "source": "human",
                    "title": row["title"], "abstract": row["abstract"],
                    "model_name": None,
                }) + "\n")
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "out" / "ranked_summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 6
        assert summary[0]["ranked_aggregated_score"] == "1"

    def test_one_combination_is_ranked(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = _write_config(tmp_path, _make_corpus(tmp_path), base_url=server.base_url)
            for stage in (["ingest"], ["select", "--heuristic", "2"],
                          ["generate", "--heuristic", "2", "--prompt", "rules"]):
                result = run_cli(["--config", str(cfg), *stage])
                assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        reference = tmp_path / "reference.jsonl"
        reference.write_text((out / "generated_combo2.jsonl").read_text())
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 0, result.output
        assert (out / "ranked_summary.csv").read_text().splitlines() == [
            "prompt,heuristic,combination,ranked_aggregated_score,shortlisted", "rules,2,2,1,1"]
        with open(out / "scores_per_site.csv") as fh:
            scored = [(r["site_id"], r["combination_id"]) for r in csv.DictReader(fh)]
        assert scored == [(f"site{i}", "2") for i in range(3)]

    def test_generate_resume_skips_done(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = self._pipeline_to_selections(tmp_path, server.base_url)
            args = ["--config", str(cfg), "generate", "--heuristic", "2",
                    "--prompt", "rules"]
            assert run_cli(args).exit_code == 0
            first = len(server.requests)
            assert run_cli(args).exit_code == 0
            assert len(server.requests) == first  # checkpoint prevented re-requests

    def test_generate_rerun_writes_no_checkpoint_byte(self, tmp_path):
        """A rerun on unchanged selections is served every reply from the
        checkpoints, and leaves each of them as it was: the same bytes in
        the same file, not a copy that replaced it."""
        warcs = defect_corpus(tmp_path / "warcs")
        out = tmp_path / "out"

        def counts():
            return json.loads((out / "manifest_generate.json").read_text())["counts"]

        def checkpoints():
            return {path.name: (path.stat().st_ino, path.read_bytes())
                    for path in out.glob("checkpoint_combo*")}

        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = _write_config(tmp_path, warcs, server.base_url)
            for args in (["ingest"], ["select", "--all"], ["generate", "--all-combinations"]):
                assert run_cli(["--config", str(cfg), *args]).exit_code == 0
            first = counts()
            held = checkpoints()
            sent = len(server.requests)
            assert run_cli(["--config", str(cfg), "generate", "--all-combinations"]).exit_code == 0
            assert len(server.requests) == sent
        assert checkpoints() == held
        assert len(held) == 6
        assert first["served"] == 0 and first["errors"] > 0  # the empty h3 selections
        assert counts() == dict(first, served=first["generated"])

    def test_generate_counts_the_sites_select_failed_on(self, tmp_path):
        warc_dir = _make_corpus(tmp_path, n_sites=1)
        build_warc(warc_dir / "empty.warc", [response_record("https://gone.sg/", status=404)])
        out = tmp_path / "out"
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = _write_config(tmp_path, warc_dir, server.base_url)
            for args in (["ingest"], ["select", "--heuristic", "2"]):
                assert run_cli(["--config", str(cfg), *args]).exit_code == 0
            result = run_cli(["--config", str(cfg), "generate", "--heuristic", "2",
                              "--prompt", "rules"])
        assert result.exit_code == 0, result.output
        assert "combo 2: 1/2 generated" in result.output
        assert json.loads((out / "manifest_select.json").read_text())["counts"]["errors"] == 1
        assert json.loads((out / "manifest_generate.json").read_text())["counts"] == {
            "generated": 1, "served": 0, "errors": 0, "selection_errors": 1}

    def test_generate_asks_again_after_reselect(self, tmp_path):
        def content_reply(body):
            url, _, content = body["messages"][1]["content"].partition("\n")
            return {"title": f"Title {url}", "abstract": content}

        with MockChatServer(reply_fn=content_reply) as server:
            cfg = self._pipeline_to_selections(tmp_path, server.base_url)
            args = ["--config", str(cfg), "generate", "--heuristic", "2",
                    "--prompt", "rules"]
            assert run_cli(args).exit_code == 0
            generated = tmp_path / "out" / "generated_combo2.jsonl"
            before = generated.read_text()
            sent = len(server.requests)
            raw = yaml.safe_load(cfg.read_text())
            raw["max_content_tokens"] = 5
            cfg.write_text(yaml.safe_dump(raw))
            reselect = ["--config", str(cfg), "select", "--heuristic", "2"]
            assert run_cli(reselect).exit_code == 0
            assert run_cli(args).exit_code == 0
            assert len(server.requests) == sent + 3  # every site's content changed
        rows = [json.loads(line) for line in generated.read_text().splitlines()]
        assert generated.read_text() != before
        assert all(len(r["abstract"]) <= 20 for r in rows)  # 5 tokens of ~4 chars

    def _generate_all(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = self._pipeline_to_selections(tmp_path, server.base_url)
            args = ["--config", str(cfg), "generate", "--all-combinations"]
            assert run_cli(args).exit_code == 0
        return cfg, tmp_path / "out"

    def test_evaluate_isolates_unscorable_pairs(self, tmp_path):
        cfg, out = self._generate_all(tmp_path)
        reference = tmp_path / "reference.jsonl"
        with open(reference, "w") as fh:
            for line in (out / "generated_combo2.jsonl").read_text().splitlines():
                row = dict(json.loads(line), source="human")
                if row["site_id"] == "site0":
                    row["abstract"] = " "  # embeds to no token: bertscore raises EmptyText
                fh.write(json.dumps(row) + "\n")
        # combination 0 keeps only site0, so no pair of it can be scored
        combo0 = out / "generated_combo0.jsonl"
        combo0.write_text(
            "".join(l + "\n" for l in combo0.read_text().splitlines() if '"site0"' in l)
        )
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 0, result.output
        counts = json.loads((out / "manifest_evaluate.json").read_text())["counts"]
        assert counts["combinations"] == 5
        assert counts["no_overlap"] == 1
        assert counts["unscored"] == 6  # site0 in each of the six combinations
        assert counts["no_reference"] == 0
        with open(out / "ranked_summary.csv") as fh:
            ranked = sorted(int(r["combination"]) for r in csv.DictReader(fh))
        assert ranked == [1, 2, 3, 4, 5]
        with open(out / "scores_per_site.csv") as fh:
            scored = {r["site_id"] for r in csv.DictReader(fh)}
        assert scored == {"site1", "site2"}

    def test_evaluate_reads_the_documented_reference_format(self, tmp_path):
        cfg, out = self._generate_all(tmp_path)
        rows = [json.loads(l) for l in (out / "generated_combo2.jsonl").read_text().splitlines()]
        outputs = []
        for keys in (("site_id", "source", "title", "abstract"), ("site_id", "title", "abstract")):
            reference = tmp_path / "reference.jsonl"
            reference.write_text("".join(
                json.dumps({k: dict(r, source="human")[k] for k in keys}) + "\n" for r in rows
            ))
            result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
            assert result.exit_code == 0, result.output
            outputs.append(((out / "scores_per_site.csv").read_bytes(),
                            (out / "ranked_summary.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") == 1 + 6 * len(rows)  # every pair was scored

    def test_evaluate_counts_generated_rows_with_no_reference(self, tmp_path):
        cfg, out = self._generate_all(tmp_path)
        reference = tmp_path / "reference.jsonl"
        reference.write_text((out / "generated_combo2.jsonl").read_text())
        combo3 = out / "generated_combo3.jsonl"
        extra = dict(json.loads(combo3.read_text().splitlines()[0]), site_id="site9")
        combo3.write_text(combo3.read_text() + json.dumps(extra) + "\n")
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 0, result.output
        counts = json.loads((out / "manifest_evaluate.json").read_text())["counts"]
        assert counts["no_reference"] == 1
        assert (counts["combinations"], counts["unscored"], counts["no_overlap"]) == (6, 0, 0)
        # each distinct token of the scored texts is embedded once, in one request
        scored = [json.loads(l) for combo in range(6) for l in
                  (out / f"generated_combo{combo}.jsonl").read_text().splitlines()]
        tokens = {t for r in scored if r["site_id"] != "site9"
                  for t in (r["title"] + " " + r["abstract"]).split()}
        assert (counts["embed_tokens"], counts["embed_requests"]) == (len(tokens), 1)
        with open(out / "scores_per_site.csv") as fh:
            assert "site9" not in {r["site_id"] for r in csv.DictReader(fh)}

    def test_evaluate_counts_error_rows(self, tmp_path):
        """A generated error row is left out and counted, also in a
        combination that has no other row."""
        out = tmp_path / "out"
        out.mkdir()
        good = {"site_id": "s1", "source": "combo2", "title": "Acme", "abstract": "Acme builds."}
        (out / "generated_combo0.jsonl").write_text(
            json.dumps({"site_id": "s1", "error": "EmptyContent: https://s1.sg/"}) + "\n")
        (out / "generated_combo2.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(
            {"site_id": "s2", "error": "ApiError: API error 500: down"}) + "\n")
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps(good) + "\n")
        cfg = _write_config(tmp_path, tmp_path)
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 0, result.output
        counts = json.loads((out / "manifest_evaluate.json").read_text())["counts"]
        assert (counts["error_rows"], counts["combinations"]) == (2, 1)
        assert (counts["no_reference"], counts["unscored"], counts["no_overlap"]) == (0, 0, 0)

    def test_evaluate_reports_pipeline_error_without_traceback(self, tmp_path):
        cfg, out = self._generate_all(tmp_path)
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps({
            "site_id": "elsewhere", "source": "human", "title": "T", "abstract": "A",
        }) + "\n")
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        # every combination is skipped for no overlap, which leaves none to rank
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a reported error, not a crash
        assert "Error: NoOverlap: no generated combination has a scored pair" in result.output

    @pytest.mark.parametrize("key, value", [
        ("site_id", ...), ("title", ...), ("abstract", ...),  # the key left out
        ("title", 5), ("abstract", None),  # not a string
    ])
    def test_evaluate_reference_row_lacking_a_string_is_config_error(
            self, tmp_path, key, value):
        cfg, out = self._generate_all(tmp_path)
        rows = [json.loads(l) for l in (out / "generated_combo2.jsonl").read_text().splitlines()]
        rows[1].pop(key)
        if value is not ...:
            rows[1][key] = value
        rows.append({"site_id": "site9", "error": "not catalogued"})  # an error row needs none
        reference = tmp_path / "reference.jsonl"
        reference.write_text("".join(json.dumps(r) + "\n" for r in rows))
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a reported error, not a KeyError
        got = None if value is ... else value
        assert result.output == (
            f"Error: ConfigError: {reference}: line 2: {key} must be str, got {got!r}\n")
        assert not (out / "ranked_summary.csv").exists()

    @pytest.mark.parametrize("line, problem", [
        ('{"site_id": "site0", "tit', "Unterminated string"),
        ("[1, 2]", "a JSON list, not an object"),
    ])
    def test_evaluate_reference_line_not_an_object_is_config_error(
            self, tmp_path, line, problem):
        cfg, out = self._generate_all(tmp_path)
        reference = tmp_path / "reference.jsonl"
        reference.write_text((out / "generated_combo2.jsonl").read_text() + "\n" + line)
        result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: ConfigError: {reference}: line 5: {problem}" in result.output

    def test_generate_torn_checkpoint_line_is_config_error(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = self._pipeline_to_selections(tmp_path, server.base_url)
            args = ["--config", str(cfg), "generate", "--heuristic", "1", "--prompt", "rules"]
            assert run_cli(args).exit_code == 0
            ckpt = tmp_path / "out" / "checkpoint_combo0.jsonl"
            n = len(ckpt.read_text().splitlines())
            with open(ckpt, "a") as fh:  # a row cut off mid-write, then a newline: only a
                fh.write('{"site_id": "x", "tit\n')  # last line without one is unwritten
            sent = len(server.requests)
            result = run_cli(args)
            assert len(server.requests) == sent
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no JSONDecodeError traceback
        assert f"Error: ConfigError: {ckpt}: line {n + 1}: Invalid control" in result.output

    def test_evaluate_embedding_batches_of_two_widths_are_api_error(self, tmp_path):
        def embeddings(body):  # 2-wide vectors for a full batch, 3-wide for the rest
            width = 2 if len(body["input"]) == EMBED_BATCH else 3
            return json.dumps({"data": [{"index": i, "embedding": [1.0] * width}
                                        for i in range(len(body["input"]))]}).encode()

        out = tmp_path / "out"
        out.mkdir()
        words = " ".join(f"w{k}" for k in range(EMBED_BATCH + 44))
        (out / "generated_combo0.jsonl").write_text(json.dumps(
            {"site_id": "s1", "source": "combo0", "title": "T", "abstract": words}) + "\n")
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps({"site_id": "s1", "title": "T", "abstract": "w0"}) + "\n")
        with MockChatServer(reply_fn=embeddings) as server:
            cfg = _write_config(tmp_path, tmp_path)
            raw = yaml.safe_load(cfg.read_text())
            raw["embedding_base_url"] = server.base_url
            cfg.write_text(yaml.safe_dump(raw))
            result = run_cli(["--config", str(cfg), "evaluate", "--reference", str(reference)])
            assert [len(body["input"]) for body in server.requests] == [EMBED_BATCH, 45]
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # no ValueError traceback
        assert result.output == "Error: ApiError: API error 200: embeddings of [2, 3] dimensions\n"

    def test_evaluate_missing_reference(self, tmp_path):
        cfg = _write_config(tmp_path, _make_corpus(tmp_path))
        result = run_cli(["--config", str(cfg), "evaluate", "--reference",
                          str(tmp_path / "nope.jsonl")])
        assert result.exit_code != 0
        assert "ConfigError" in result.output


class TestStatsCommand:
    def test_cochran_fixture(self, tmp_path):
        path = tmp_path / "grades.csv"
        rows = ["item_id,source,grader_id,verdict"]
        fixture = [(1, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 0)]
        for i, row in enumerate(fixture):
            for label, v in zip(["Human", "Combo2", "Combo3"], row):
                rows.append(f"i{i},{label},g1,{'pass' if v else 'fail'}")
        path.write_text("\n".join(rows) + "\n")
        result = run_cli(["stats", str(path), "--test", "cochran"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output.splitlines()[0])
        assert payload["statistic"] == pytest.approx(3.0)
        assert payload["df"] == 2

    def test_mcnemar_pair(self, tmp_path):
        path = tmp_path / "grades.csv"
        rows = ["item_id,source,grader_id,verdict"]
        for i in range(15):
            rows.append(f"a{i},Combo2,g1,pass")
            rows.append(f"a{i},Human,g1,fail")
        for i in range(5):
            rows.append(f"b{i},Combo2,g1,fail")
            rows.append(f"b{i},Human,g1,pass")
        path.write_text("\n".join(rows) + "\n")
        result = run_cli(["stats", str(path), "--test", "mcnemar", "--a", "Combo2",
                          "--b", "Human"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output.splitlines()[0])
        assert payload["statistic"] == pytest.approx(5.0)
        assert payload["reject_null"] is True

    def test_left_out_items_are_counted_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "grades.csv"
        path.write_text("item_id,source,grader_id,verdict\ni1,Human,g1,pass\ni1,Combo2,g1,fail\n"
                        "i2,Human,g1,pass\ni3,Combo2,g1,pass\n")
        cli.main(["stats", str(path)])
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2 and json.loads(out.splitlines()[0])["statistic"] == 1.0
        assert err == "2 items left out: no verdict from every source\n"

    def test_complete_grading_prints_no_left_out_line(self, tmp_path, capsys):
        cli.main(["stats", str(_grades(tmp_path))])
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 2 and err == ""

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        result = run_cli(["stats", str(path)])
        assert result.exit_code != 0
        assert "MalformedCsv" in result.output

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.1", "nan", "inf", "five"])
    def test_alpha_outside_zero_to_one_is_usage_error(self, tmp_path, alpha):
        path = _grades(tmp_path)
        result = run_cli(["stats", str(path), "--alpha", alpha])
        assert result.exit_code == 2
        assert f"argument --alpha: {alpha!r} is not a number between 0 and 1" in result.output

    def test_alpha_sets_the_decision(self, tmp_path):
        result = run_cli(["stats", str(_grades(tmp_path)), "--alpha", "0.5"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output.splitlines()[0])
        assert payload["alpha"] == 0.5 and payload["p_value"] < 0.5
        assert payload["reject_null"] is True

    def test_row_shorter_than_header_is_malformed_csv(self, tmp_path):
        path = tmp_path / "grades.csv"
        path.write_text("verdict,item_id,source,grader_id\npass,i1,Human,g1\npass\n")
        result = run_cli(["stats", str(path)])
        assert (result.exit_code, result.output) == (
            1, f"Error: MalformedCsv: {path}: line 3: too few fields\n")
        assert isinstance(result.exception, SystemExit)  # no AttributeError traceback


def _grades(tmp_path):
    """A grading CSV whose Cochran's Q is 1.0 (p = 0.317)."""
    path = tmp_path / "grades.csv"
    path.write_text("item_id,source,grader_id,verdict\ni1,Human,g1,pass\ni1,Combo2,g1,fail\n")
    return path


class TestUsageErrors:
    @pytest.mark.parametrize("args, message", [
        (["select", "--heuristic", "2", "--all"],
         "argument --all: not allowed with argument --heuristic"),
        (["select", "--all", "--heuristic", "2"],
         "argument --heuristic: not allowed with argument --all"),
        (["generate", "--heuristic", "1", "--all-combinations"],
         "argument --all-combinations: not allowed with --heuristic/--prompt"),
        (["generate", "--all-combinations", "--prompt", "rules"],
         "argument --all-combinations: not allowed with --heuristic/--prompt"),
    ])
    def test_an_option_the_command_would_ignore_is_refused(self, tmp_path, args, message):
        cfg = _write_config(tmp_path, tmp_path)
        result = run_cli(["--config", str(cfg), *args])
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("call", [
        lambda args: cli.main(args),
        lambda args: cli.main.main(args=args, prog_name="warc2meta"),  # perfbench/tracer.py
    ], ids=["main", "main.main"])
    def test_exit_statuses(self, tmp_path, capsys, call):
        def status(*args):
            try:
                call([str(a) for a in args])
            except SystemExit as exc:
                return exc.code
            return 0

        grades, missing = _grades(tmp_path), tmp_path / "none.csv"
        assert status("stats", grades) == 0
        assert "CochranQ" in capsys.readouterr().out
        assert status("stats", missing) == (
            f"Error: MalformedCsv: [Errno 2] No such file or directory: '{missing}'")
        for args, error in [
            (("stats",), "the following arguments are required: GRADING_CSV"),
            (("bogus",), "invalid choice: 'bogus'"),
            (("select", "--heur", "2"), "unrecognized arguments: --heur 2"),  # no abbreviations
            (("generate", "--all"), "unrecognized arguments: --all"),
            (("stats", grades, "--corr"), "unrecognized arguments: --corr"),
        ]:
            assert status(*args) == 2
            assert error in capsys.readouterr().err

    def test_interrupt_is_aborted_with_status_1(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "load_config", interrupted)
        result = run_cli(["select"])
        assert (result.exit_code, result.output) == (1, "\nAborted!\n")

    def test_module_run_reports_an_error_on_stderr(self, tmp_path):
        missing = tmp_path / "none.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "warc2meta.cli", "stats", str(missing)], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"Error: MalformedCsv: [Errno 2] No such file or directory: '{missing}'\n")


# Runs one CLI stage in this interpreter, then prints its OPENBLAS_NUM_THREADS
# and which of the heavy modules the stage loaded. click is watched because it
# may still be installed, where a leftover import of it would pass every other test.
_STAGE_SCRIPT = """
import os, sys
from warc2meta.cli import main
main(sys.argv[1:])
watched = ("click", "requests", "yaml", "numpy", "numpy.random", "concurrent.futures",
           "urllib.request", "warc2meta.client", "warc2meta.heuristics", "warc2meta.ingest",
           "warc2meta.metrics", "warc2meta.ranking", "warc2meta.stats", "warc2meta.tokens",
           "warc2meta.urlnorm", "warc2meta.warc")
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(sorted(m for m in watched if m in sys.modules))
"""


def _run_stage(*args, **env):
    """(modules loaded, OPENBLAS_NUM_THREADS at exit) of one stage run in a
    fresh interpreter, whose environment has no proxy or BLAS variable but env's."""
    base = {k: v for k, v in os.environ.items()
            if not k.lower().endswith("_proxy") and k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _STAGE_SCRIPT, *map(str, args)],
        capture_output=True, text=True, env={**base, "PYTHONPATH": src, **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    blas, loaded = proc.stdout.splitlines()[-2:]
    return loaded, blas


def _generated_outputs(tmp_path, server):
    """A config whose output directory holds every combination's generated
    rows, and a reference file of combination 2's rows."""
    cfg = _write_config(tmp_path, _make_corpus(tmp_path), server.base_url)
    for args in (["ingest"], ["select", "--all"], ["generate", "--all-combinations"]):
        result = run_cli(["--config", str(cfg), *args])
        assert result.exit_code == 0, result.output
    reference = tmp_path / "reference.jsonl"
    reference.write_text((tmp_path / "out" / "generated_combo2.jsonl").read_text())
    return cfg, reference


class TestImportFootprint:
    def _loaded(self, *args, **env):
        return _run_stage(*args, **env)[0]

    def test_each_stage_loads_only_what_it_runs(self, tmp_path):
        grades = tmp_path / "grades.csv"
        grades.write_text(
            "item_id,source,grader_id,verdict\n"
            "i1,Human,g1,pass\ni1,Combo2,g1,fail\n"
            "i2,Human,g1,pass\ni2,Combo2,g1,pass\n"
        )
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = _write_config(tmp_path, _make_corpus(tmp_path), server.base_url)
            loaded = {
                "ingest": self._loaded("--config", cfg, "ingest"),
                "select": self._loaded("--config", cfg, "select", "--all"),
                "generate": self._loaded("--config", cfg, "generate", "--all-combinations"),
                "stats": self._loaded("stats", grades),
            }
        reference = tmp_path / "reference.jsonl"
        reference.write_text((tmp_path / "out" / "generated_combo2.jsonl").read_text())
        loaded["evaluate"] = self._loaded("--config", cfg, "evaluate", "--reference", reference)
        assert loaded == {
            "ingest": "['warc2meta.ingest', 'warc2meta.urlnorm', 'warc2meta.warc']",
            "select": "['warc2meta.heuristics', 'warc2meta.tokens']",
            "generate": "['warc2meta.client']",
            "stats": "['warc2meta.stats']",
            "evaluate": "['numpy', 'warc2meta.metrics', 'warc2meta.ranking']",  # not numpy.random
        }

    def test_generate_loads_urllib_request_when_a_proxy_is_set(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg, reference = _generated_outputs(tmp_path, server)
            (tmp_path / "out" / "checkpoint_combo2.jsonl").unlink()  # so each row is asked
            (tmp_path / "out" / "generated_combo2.jsonl").unlink()
            loaded = self._loaded("--config", cfg, "generate", http_proxy=server.base_url)
        assert loaded == "['urllib.request', 'warc2meta.client']"
        assert (tmp_path / "out" / "generated_combo2.jsonl").read_text() == reference.read_text()
        # an absolute-form target: the request went through the proxy
        assert server.paths[-3:] == [f"{server.base_url}/chat/completions"] * 3


class TestBlasThreads:
    def test_one_blas_thread_unless_the_caller_set_the_count(self, tmp_path):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg, reference = _generated_outputs(tmp_path, server)
        args = ("--config", cfg, "evaluate", "--reference", reference)
        out = tmp_path / "out"
        runs = []
        for env in ({}, {"OPENBLAS_NUM_THREADS": "4"}):
            loaded, blas = _run_stage(*args, **env)
            assert "'numpy'" in loaded
            runs.append((blas, (out / "scores_per_site.csv").read_bytes(),
                         (out / "ranked_summary.csv").read_bytes()))
        assert [blas for blas, *_ in runs] == ["1", "4"]
        assert runs[0][1:] == runs[1][1:]
        assert runs[0][1].count(b"\n") > 1  # scores were written


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """A valid output directory of the 3-site corpus, every stage run, and
    its reference file (combination 2's rows)."""
    root = tmp_path_factory.mktemp("pipeline")
    with MockChatServer(reply_fn=_echo_reply) as server:
        _, reference = _generated_outputs(root, server)
    return root / "out", reference


# each stage file, the row type it is read as and the command that reads it
_STAGE_FILES = {
    "sites.jsonl": (SiteDocument, ["select", "--all"]),
    **{f"selections_h{h}.jsonl": (Selection, ["generate", "--heuristic", str(h),
                                              "--prompt", "rules"]) for h in (1, 2, 3)},
    **{f"generated_combo{c}.jsonl": (GeneratedMetadata, ["evaluate"]) for c in range(6)},
    "reference.jsonl": (cli.Reference, ["evaluate"]),
}


def _run_on_copy(pipeline_out, root, name, mutate):
    """The result of the stage that reads `name`, run on a copy of pipeline_out
    whose file `name` (its bytes) was replaced by mutate(bytes)."""
    out, reference = pipeline_out
    shutil.copytree(out, root / "out")
    shutil.copy(reference, root / "reference.jsonl")
    path = root / "reference.jsonl" if name == "reference.jsonl" else root / "out" / name
    path.write_bytes(mutate(path.read_bytes()))
    args = _STAGE_FILES[name][1]
    if args == ["evaluate"]:
        args = ["evaluate", "--reference", root / "reference.jsonl"]
    cfg = _write_config(root, root)  # a closed port, should a stage get as far as asking
    return path, run_cli(["--config", cfg, "--output", root / "out", *args])


def _keyed(obj, at):
    """The mapping and key that the key path `at` names in obj."""
    for step in at[:-1]:
        obj = obj[step]
    return obj, at[-1]


def _field_paths(cls, obj, required_only):
    """Key paths to the fields of obj, a row of type cls, and of its pages."""
    paths = []
    for f in dataclasses.fields(cls):
        optional = type(None) in typing.get_args(typing.get_type_hints(cls)[f.name])
        has_default = (f.default, f.default_factory) != (dataclasses.MISSING,) * 2
        if not required_only or not (optional or has_default):
            paths.append([f.name])
    if cls is SiteDocument:
        paths += [["pages", i, *p] for i, page in enumerate(obj["pages"])
                  for p in _field_paths(PageRecord, page, required_only)]
    return paths


class TestStageFilesAreChecked:
    """A stage file that does not hold rows of its type ends the stage that
    reads it with one `Error:` line naming the file and line, never a traceback."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_mutation_is_one_error_line(self, pipeline_out, data):
        name = data.draw(st.sampled_from(sorted(_STAGE_FILES)))
        kind = data.draw(st.sampled_from(["drop", "retype", "byte", "cut"]))
        cls = _STAGE_FILES[name][0]
        expected = {}

        def mutate(raw):
            lines = raw.split(b"\n")
            if kind == "byte":
                at = data.draw(st.integers(0, len(raw)))
                expected["line"] = raw.count(b"\n", 0, at) + 1
                return raw[:at] + b"\xff" + raw[at:]
            n = data.draw(st.integers(0, len(lines) - 2))  # the last is the empty tail
            expected["line"] = n + 1
            if kind == "cut":
                lines[n] = lines[n][:data.draw(st.integers(1, len(lines[n]) - 1))]
                return b"\n".join(lines)
            obj = json.loads(lines[n])
            at = data.draw(st.sampled_from(_field_paths(cls, obj, kind == "drop")))
            parent, key = _keyed(obj, at)
            expected["key"] = "".join(f"[{s}]" if isinstance(s, int) else f": {s}" for s in at)
            if kind == "drop":
                del parent[key]
            else:
                parent[key] = 7 if isinstance(parent[key], str) else "7"
            lines[n] = json.dumps(obj).encode()
            return b"\n".join(lines)

        with tempfile.TemporaryDirectory() as root:
            path, result = _run_on_copy(pipeline_out, Path(root), name, mutate)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # a reported error, not a crash
        assert result.output.count("\n") == 1
        assert result.output.startswith(f"Error: ConfigError: {path}: line {expected['line']}")
        if "key" in expected:
            assert f"line {expected['line']}{expected['key']} must be " in result.output

    @pytest.mark.parametrize("name, change, message", [
        ("sites.jsonl", lambda row: row.pop("pages"), "pages must be list, got None"),
        ("sites.jsonl", lambda row: row["pages"][1].pop("body_text"),
         "pages[1]: body_text must be str, got None"),
        ("selections_h2.jsonl", lambda row: row.pop("content"), "content must be str, got None"),
        ("selections_h2.jsonl", lambda row: row.update(heuristic=7),
         "heuristic must be HeuristicId, got 7"),
        ("generated_combo2.jsonl", lambda row: row.pop("abstract"),
         "abstract must be str, got None"),
    ])
    def test_probe(self, pipeline_out, tmp_path, name, change, message):
        def mutate(raw):
            first, rest = raw.split(b"\n", 1)
            row = json.loads(first)
            change(row)
            return json.dumps(row).encode() + b"\n" + rest

        path, result = _run_on_copy(pipeline_out, tmp_path, name, mutate)
        assert (result.exit_code, result.output) == (
            1, f"Error: ConfigError: {path}: line 1: {message}\n")
        assert isinstance(result.exception, SystemExit)

    def test_reference_not_utf8(self, pipeline_out, tmp_path):
        at = pipeline_out[1].read_bytes().index(b"Title") + 4  # on the first line
        path, result = _run_on_copy(pipeline_out, tmp_path, "reference.jsonl",
                                    lambda raw: raw[:at] + b"\xe9" + raw[at + 1:])
        assert (result.exit_code, result.output) == (1, (
            f"Error: ConfigError: {path}: line 1: 'utf-8' codec can't decode byte 0xe9"
            f" in position {at}: invalid continuation byte\n"))
        assert isinstance(result.exception, SystemExit)  # no UnicodeDecodeError traceback

    @pytest.mark.parametrize("bad_row", [
        {"key": "k", "title": "T"},  # no site_id
        {"key": "k", "site_id": "site0", "title": "T"},  # not a GeneratedMetadata row
        {"key": "k", "site_id": ["site0"], "title": "T", "abstract": "A", "source": "combo2"},
    ])
    def test_bad_checkpoint_row_is_asked_again(self, tmp_path, bad_row):
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg, _ = _generated_outputs(tmp_path, server)
            out = tmp_path / "out"
            ckpt = out / "checkpoint_combo2.jsonl"
            kept = ckpt.read_text().splitlines()
            ckpt.write_text(json.dumps(bad_row) + "\n" + "\n".join(kept[1:]) + "\n")
            before = (out / "generated_combo2.jsonl").read_text()
            sent = len(server.requests)
            result = run_cli(["--config", cfg, "generate", "--heuristic", "2", "--prompt", "rules"])
            assert (result.exit_code, result.exception) == (0, None), result.output
            assert len(server.requests) == sent + 1  # site0 only, whose row was replaced
        assert (out / "generated_combo2.jsonl").read_text() == before
        assert ckpt.read_text().splitlines() == [json.dumps(bad_row), *kept[1:], kept[0]]


def _outputs(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestFailedStageKeepsOutputs:
    """A stage that fails on a bad input row leaves the previous run's
    outputs whole, and leaves no temporary file behind."""

    def test_select_keeps_the_previous_selections(self, pipeline_out, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out[0], out)
        sites = [json.loads(line) for line in (out / "sites.jsonl").read_text().splitlines()]
        sites = [dict(row, source_file=f"copy{i}-{row['source_file']}")
                 for i in range(4) for row in sites]  # 12 rows

        def select(rows):
            (out / "sites.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
            return run_cli(["--config", _write_config(tmp_path, tmp_path), "--output", out,
                            "select", "--all"])

        assert select(sites).exit_code == 0
        kept = _outputs(out)
        assert kept["selections_h1.jsonl"].count(b"\n") == 12
        del sites[10]["pages"]
        result = select(sites)
        assert (result.exit_code, result.output) == (1, (
            f"Error: ConfigError: {out / 'sites.jsonl'}: line 11: pages must be list, got None\n"))
        kept["sites.jsonl"] = (out / "sites.jsonl").read_bytes()
        assert _outputs(out) == kept

    def test_generate_reads_every_selections_file_before_asking(self, pipeline_out, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out[0], out)
        for ckpt in out.glob("checkpoint_combo*.jsonl"):
            ckpt.unlink()  # so that every row would be asked
        path = out / "selections_h3.jsonl"
        first, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(first[:20] + b"\n" + rest)  # its first line cut short
        kept = _outputs(out)
        with MockChatServer(reply_fn=_echo_reply) as server:
            cfg = _write_config(tmp_path, tmp_path, server.base_url)
            result = run_cli(["--config", cfg, "--output", out, "generate", "--all-combinations"])
            assert server.requests == []
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: ConfigError: {path}: line 1: ")
        assert result.output.count("\n") == 1
        assert _outputs(out) == kept

    def test_select_with_a_rules_file_not_utf8(self, pipeline_out, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out[0], out)
        rules = tmp_path / "rules.tsv"
        rules.write_bytes(b"footer\tAll rights\xff reserved\t\n")
        cfg = _write_config(tmp_path, tmp_path)
        cfg.write_text(cfg.read_text() + f"filter_rules_path: {rules}\n")
        kept = _outputs(out)
        result = run_cli(["--config", cfg, "--output", out, "select", "--all"])
        assert (result.exit_code, result.output) == (
            1, f"Error: InvalidPattern: {rules}:1: not UTF-8 text\n")
        assert isinstance(result.exception, SystemExit)  # no UnicodeDecodeError traceback
        assert _outputs(out) == kept


class _FullDisk:
    """A text file that takes the first 10 characters written to it, then
    fails as a write to a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStageManifest:
    """`store.stage` writes a stage's manifest last, and only when the
    stage ends without an error."""

    def test_written_after_the_block_ends_without_an_error(self, tmp_path):
        cfg = PipelineConfig(output_dir=tmp_path)
        path = tmp_path / "manifest_select.json"
        with store.stage(cfg, "select") as counts:
            counts["sites"] = 2
            assert not path.exists()
        manifest = json.loads(path.read_text())
        assert sorted(manifest) == ["config_digest", "counts", "finished_at", "run_id", "stage",
                                    "started_at"]
        assert manifest["stage"] == "select" and manifest["counts"] == {"sites": 2}
        assert manifest["config_digest"] == cfg.digest()
        assert manifest["started_at"] <= manifest["finished_at"]
        with pytest.raises(ConfigError), store.stage(cfg, "evaluate"):
            raise ConfigError("stopped")
        assert not (tmp_path / "manifest_evaluate.json").exists()

    def test_a_failed_write_leaves_the_previous_manifest_whole(self, tmp_path, monkeypatch):
        """A new manifest whose write fails part-way, after its file is
        opened (a full disk, say), leaves the previous one whole and no
        temporary file."""
        cfg = PipelineConfig(output_dir=tmp_path)
        with store.stage(cfg, "select") as counts:
            counts["sites"] = 2
        before = (tmp_path / "manifest_select.json").read_bytes()
        real_open = open

        def full_disk(*args, **kwargs):
            return _FullDisk(real_open(*args, **kwargs))

        with pytest.raises(OSError, match="No space left"), monkeypatch.context() as patch:
            with store.stage(cfg, "select") as counts:
                counts["sites"] = 3
                patch.setattr(io, "open", full_disk)  # pathlib's open
                patch.setattr(builtins, "open", full_disk)
        assert (tmp_path / "manifest_select.json").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["manifest_select.json"]

    @pytest.mark.parametrize("args", [
        ["ingest", "--input", "missing"],
        ["ingest", "--input", "warcs"],
        ["select"],
        ["generate"],
        ["evaluate", "--reference", "missing.jsonl"],
    ], ids=["no-input-dir", "no-warc-file", "no-sites", "no-selections", "no-reference"])
    def test_a_stage_stopped_before_its_work_writes_none(self, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        Path("warcs").mkdir()
        Path("out").mkdir()
        result = run_cli(["--config", _write_config(tmp_path, "warcs"), "--output", "out", *args])
        assert result.exit_code == 1, result.output
        assert list(Path("out").iterdir()) == []

    def test_ingest_with_every_file_failed_writes_it_then_exits_1(self, tmp_path):
        warcs = tmp_path / "warcs"
        warcs.mkdir()
        (warcs / "broken.warc").write_bytes(b"garbage not a warc\r\n\r\n")
        result = run_cli(["--config", _write_config(tmp_path, warcs), "ingest"])
        assert result.exit_code == 1
        counts = json.loads((tmp_path / "out" / "manifest_ingest.json").read_text())["counts"]
        assert (counts["files"], counts["ingested"], counts["failed"]) == (1, 0, 1)


def _token_embeddings(body):
    """An OpenAI-style reply whose vector for a token is fixed by its characters."""
    return json.dumps({"data": [
        {"index": i, "embedding": [len(t), sum(map(ord, t)) % 97, ord(t[0]) % 13 - 6]}
        for i, t in enumerate(body["input"])]}).encode()


def test_evaluate_with_http_embeddings_is_pinned(pipeline_out, tmp_path):
    """The HTTP provider's scores and ranking, byte for byte: the mock
    provider's recipe does not reach them."""
    out = tmp_path / "out"
    shutil.copytree(pipeline_out[0], out)
    with MockChatServer(reply_fn=_token_embeddings) as server:
        cfg = _write_config(tmp_path, tmp_path)
        cfg.write_text(cfg.read_text() + f"embedding_base_url: {server.base_url}\n")
        result = run_cli(["--config", cfg, "--output", out, "evaluate",
                          "--reference", pipeline_out[1]])
        assert len(server.requests) == 1
    assert result.exit_code == 0, result.output
    golden = Path(__file__).parent / "golden"
    for name in ("scores_per_site.csv", "ranked_summary.csv"):
        assert (out / name).read_bytes() == (golden / f"http_embeddings_{name}").read_bytes()


class TestStatsInputs:
    def test_unknown_label_names_the_sources(self, tmp_path):
        result = run_cli(["stats", _grades(tmp_path), "--test", "mcnemar", "--a", "Nope",
                          "--b", "Human"])
        assert (result.exit_code, result.output) == (
            1, "Error: MalformedCsv: no source 'Nope'; the sources are ['Human', 'Combo2']\n")
        assert isinstance(result.exception, SystemExit)  # no ValueError traceback

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "grades.csv"
        raw = b"item_id,source,grader_id,verdict\ni1,Hum\xe9n,g1,pass\ni1,Combo2,g1,fail\n"
        path.write_bytes(raw)
        result = run_cli(["stats", path])
        assert (result.exit_code, result.output) == (1, (
            f"Error: MalformedCsv: {path}: not UTF-8: 'utf-8' codec can't decode byte 0xe9"
            f" in position {raw.index(0xe9)}: invalid continuation byte\n"))
        assert isinstance(result.exception, SystemExit)

    def test_pipeline_config_is_not_loaded(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("client:\n  max_retries: -1\n")
        assert run_cli(["--config", bad, "select"]).exit_code == 1  # a stage reads it
        result = run_cli(["--config", bad, "stats", _grades(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "CochranQ" in result.output
