"""The whole pipeline on `helpers.defect_corpus`, pinned file by file.

Each output is compared as text with its copy under tests/golden/pipeline/,
so a change that moves an output shows, in its diff, what moved. The copies
record today's behaviour, known defects included: a change that fixes one
updates them in the same commit. To rewrite them after such a change, run
this test with WARC2META_UPDATE_GOLDEN=1 and review the diff.
"""

import json
import os
from pathlib import Path

import yaml

from helpers import MockChatServer, defect_corpus, run_cli

GOLDEN = Path(__file__).parent / "golden" / "pipeline"
OUTPUTS = ["sites.jsonl", "cost_report.csv",
           *(f"selections_h{h}.jsonl" for h in (1, 2, 3)),
           *(f"generated_combo{c}.jsonl" for c in range(6)),
           "scores_per_site.csv", "ranked_summary.csv"]

# The cataloguer's record of each site: none for gzip-body (a generated row
# with no reference), and an abstract of no token for utf16-bom (unscored).
REFERENCE = {
    "clean-bakery": ("Tan Family Bakery", "A family bakery selling sourdough bread and cakes."),
    "clean-clinic": ("Family Clinic", "A Toa Payoh clinic offering general practice."),
    "glued-nav": ("Harbour Fish", "A fishmonger selling fresh fish at the harbour market."),
    "copyright-footer": ("Footer Trading", "A trading company."),
    "chinese-page": ("文化遗产", "新加坡国家图书馆的文化遗产网站。"),
    "orchard-road": ("Orchard Tailor", "A tailor making bespoke suits on Orchard Road."),
    "gb2312-label": ("新闻", "新闻报道和照片。"),
    "cp1252-quotes": ("Quotes", "A shop whose motto is quality first."),
    "utf16-bom": ("Wide", " "),
    "chunked-body": ("Tiong Bahru Bakery", "A bakery making sourdough bread in Tiong Bahru."),
    "same-page-urls": ("Kopi House", "A coffee shop serving kaya toast since 1968."),
    "contact-details": ("Lion Movers", "A house and office moving company."),
}


def _reply(body):
    """A reply made from the request alone: the site URL, the first words
    of the content sent, and whether the prompt held the rules."""
    system, user = (m["content"] for m in body["messages"])
    url, _, content = user.partition("\n")
    words = content.split()
    rules = " It follows the rules." if "following these rules" in system else ""
    return {"title": " ".join(words[:3]) or url,
            "abstract": f"The website at {url} says: {' '.join(words[:10])}.{rules}"}


def test_pipeline_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths: source_file is "warcs/<site>.warc"
    defect_corpus(tmp_path / "warcs")
    Path("reference.jsonl").write_text("".join(
        json.dumps({"site_id": site, "title": t, "abstract": a}, ensure_ascii=False) + "\n"
        for site, (t, a) in REFERENCE.items()), encoding="utf-8")
    manifests = {}
    with MockChatServer(reply_fn=_reply) as server:
        Path("config.yaml").write_text(yaml.safe_dump({"client": {
            "base_url": server.base_url, "model_name": "mock-model", "max_retries": 0}}))
        for args in (["ingest", "--input", "warcs"], ["select", "--all"],
                     ["generate", "--all-combinations"],
                     ["evaluate", "--reference", "reference.jsonl"]):
            result = run_cli(["--config", "config.yaml", "--output", "out", *args])
            assert result.exit_code == 0, result.output
            manifest = json.loads(Path(f"out/manifest_{args[0]}.json").read_text())
            manifests[args[0]] = {"keys": sorted(manifest), "counts": manifest["counts"]}
    got = {name: Path("out", name).read_bytes().decode("utf-8") for name in OUTPUTS}
    got["manifests.json"] = json.dumps(manifests, indent=2, sort_keys=True) + "\n"
    if os.environ.get("WARC2META_UPDATE_GOLDEN"):
        GOLDEN.mkdir(parents=True, exist_ok=True)
        for name, text in got.items():
            (GOLDEN / name).write_bytes(text.encode("utf-8"))
    for name, text in got.items():
        assert text == (GOLDEN / name).read_bytes().decode("utf-8"), name
