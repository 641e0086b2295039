"""Command-line pipeline: ingest -> select -> generate -> evaluate, plus
standalone stats. `select` writes the cost report.

Stage outputs are JSONL/CSV files under the output directory (see
`store`), so every stage can be inspected and rerun independently. A
pipeline error ends a command with its type and message, not a traceback.
Each command imports the layers it runs when it runs, so a stage process
loads no other stage's modules or libraries.
"""

import sys
from pathlib import Path

import click

from . import store
from .config import PipelineConfig, load_config
from .errors import ConfigError, NoOverlap, Warc2MetaError


def _site_id(source_file: str) -> str:
    name = Path(source_file).name
    for suffix in (".warc.gz", ".warc"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


class _Pipeline(click.Group):
    """Reports a pipeline error as `Error: <type>: <message>`, exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Warc2MetaError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Pipeline)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML pipeline configuration.")
@click.option("--output", type=click.Path(), default=None, help="Output directory.")
@click.pass_context
def main(ctx, config_path, output):
    """Convert WARC archives into candidate catalogue metadata and evaluate it."""
    ctx.obj = load_config(config_path, output)


@main.command()
@click.option("--input", "input_dir", type=click.Path(), default=None,
              help="Directory holding *.warc / *.warc.gz files.")
@click.pass_obj
def ingest(cfg: PipelineConfig, input_dir):
    """Extract, filter, and deduplicate pages: one store row per WARC file,
    written as each file is done."""
    from .ingest import PAGE_COUNTS, ingest_many

    started = store.now()
    if input_dir:
        cfg.input_dir = Path(input_dir)
    if not cfg.input_dir.is_dir():
        raise click.ClickException(f"input directory not found: {cfg.input_dir}")
    paths = sorted(cfg.input_dir.glob("*.warc")) + sorted(cfg.input_dir.glob("*.warc.gz"))
    if not paths:
        raise click.ClickException(f"NoInput: no WARC files in {cfg.input_dir}")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    counts = {"files": len(paths), **dict.fromkeys(("ingested", "failed", *PAGE_COUNTS), 0)}
    sites = cfg.output_dir / store.SITES
    with store.jsonl_writer(sites) as write:
        for path, result in zip(paths, ingest_many(paths, cfg.min_chars)):
            if result.row is None:
                counts["failed"] += 1
                click.echo(f"error: {path}: {result.error}", err=True)
                continue
            write(result.row)
            counts["ingested"] += 1
            for key, n in result.counts.items():
                counts[key] += n
    store.write_manifest(cfg.output_dir, "ingest", cfg.digest(), counts, started)
    click.echo(f"ingested {counts['ingested']}/{len(paths)} files -> {sites}")
    if counts["ingested"] == 0 and counts["failed"]:
        sys.exit(1)


@main.command("select")
@click.option("--heuristic", type=click.IntRange(1, 3), default=None,
              help="Heuristic code 1|2|3; default from config.")
@click.option("--all", "all_heuristics", is_flag=True, help="Run all three heuristics.")
@click.pass_obj
def select_cmd(cfg: PipelineConfig, heuristic, all_heuristics):
    """Collapse each site to one content block and report token costs.

    Sites are read one at a time, and each goes through every requested
    heuristic before the next is read. A site's selection error is written
    as its row, in place of a selection. The cost report has a row per
    heuristic run: the tokens of every whole site (its pages' texts joined
    by spaces) against the tokens selected, both counted by one tokenizer.
    """
    from contextlib import ExitStack

    from .heuristics import HeuristicId, load_filter_rules, select
    from .ingest import SiteDocument
    from .tokens import count_tokens, load_vocabulary, reduction_report

    started = store.now()
    rows = store.read_jsonl(cfg.output_dir / store.SITES, after="ingest")
    rules = load_filter_rules(cfg.filter_rules_path) if cfg.filter_rules_path else None
    tok = load_vocabulary(cfg.tokenizer_path) if cfg.tokenizer_path else None
    which = list(HeuristicId) if all_heuristics else [HeuristicId(heuristic or cfg.heuristic)]
    paths = {h: cfg.output_dir / store.selections(h) for h in which}
    afters = dict.fromkeys(which, 0)
    before = sites = errors = 0
    with ExitStack() as stack:
        writers = {h: stack.enter_context(store.jsonl_writer(paths[h])) for h in which}
        for row in rows:
            sites += 1
            before += count_tokens(" ".join(p["body_text"] for p in row["pages"]), tok)
            doc = SiteDocument.from_json(row)
            sid = _site_id(doc.source_file)
            for h, write in writers.items():
                try:
                    sel = select(doc, h, rules, tok, cfg.max_content_tokens)
                except Warc2MetaError as exc:
                    write(store.dumps({"site_id": sid, "error": f"{type(exc).__name__}: {exc}"}))
                    errors += 1
                    continue
                write(sel.to_json(sid))
                afters[h] += sel.reduced_token_estimate
    for h in which:
        click.echo(f"heuristic {int(h)} -> {paths[h]}")
    reports = {h: reduction_report(before, after, cfg.prices, tok) for h, after in afters.items()}
    store.write_csv(
        cfg.output_dir / store.COST_REPORT,
        ["heuristic", "tokens_before", "tokens_after", "reduction_ratio", "cost_before",
         "cost_after", "approximate"],
        [[int(h), r.tokens_before, r.tokens_after, f"{float(r.reduction_ratio):.6f}",
          str(r.cost_before), str(r.cost_after), int(r.approximate)] for h, r in reports.items()],
    )
    counts = {"sites": sites, "heuristics": len(which), "errors": errors}
    store.write_manifest(cfg.output_dir, "select", cfg.digest(), counts, started)


@main.command()
@click.option("--heuristic", type=click.IntRange(1, 3), default=None)
@click.option("--prompt", "prompt_name", type=click.Choice(["rules", "norules"]),
              default=None)
@click.option("--all-combinations", is_flag=True,
              help="Sweep all six prompt x heuristic combinations.")
@click.pass_obj
def generate(cfg: PipelineConfig, heuristic, prompt_name, all_combinations):
    """Call the chat model over selections; resumable via checkpoints."""
    from .client import combination_id, run_batch
    from .heuristics import HeuristicId, Selection
    from .prompts import COMBINATIONS, VARIANTS

    started = store.now()
    combos = COMBINATIONS if all_combinations else [
        (VARIANTS[prompt_name or cfg.prompt_variant], HeuristicId(heuristic or cfg.heuristic))]
    generated_total = 0
    error_total = 0
    for variant, h in combos:
        selected = store.read_jsonl(cfg.output_dir / store.selections(h), after="select")
        items = [(r["site_id"], Selection.from_json(r)) for r in selected if "error" not in r]
        combo = combination_id(variant, h)
        ckpt = cfg.output_dir / store.checkpoint(combo)
        rows = run_batch(items, variant, cfg.client, checkpoint_path=ckpt)
        out = cfg.output_dir / store.generated(combo)
        with store.jsonl_writer(out) as write:
            for row in rows:
                write(row.to_json())
        ok = sum(1 for r in rows if r.result is not None)
        generated_total += ok
        error_total += len(rows) - ok
        click.echo(f"combo {combo}: {ok}/{len(rows)} generated -> {out}")
    counts = {"generated": generated_total, "errors": error_total}
    store.write_manifest(cfg.output_dir, "generate", cfg.digest(), counts, started)


@main.command()
@click.option("--reference", "reference_path", type=click.Path(), required=True,
              help="JSONL of human-produced {site_id, title, abstract} rows.")
@click.pass_obj
def evaluate(cfg: PipelineConfig, reference_path):
    """Score every generated combination against the reference and rank them.

    A generated row whose site has no reference row is left out
    (`no_reference`), and so are a pair with a text of no token
    (`unscored`) and a combination with no scored pair (`no_overlap`).
    """
    from .client import GeneratedMetadata, combination_id
    from .metrics import HttpEmbeddingProvider, MockEmbeddingProvider, TokenTable
    from .prompts import COMBINATIONS
    from .ranking import rank_combinations, score_combination, score_pairs

    started = store.now()
    refs = [r for r in store.read_jsonl(reference_path) if "error" not in r]
    for key in ("site_id", "title", "abstract"):
        if any(not isinstance(r.get(key), str) for r in refs):
            raise ConfigError(f"{reference_path}: a reference row has no {key!r} string")
    reference = {r["site_id"]: (r["title"], r["abstract"]) for r in refs}
    combos = []  # (variant, heuristic, generated rows) of each combination that has any
    for variant, h in COMBINATIONS:
        path = cfg.output_dir / store.generated(combination_id(variant, h))
        rows = store.read_jsonl(path) if path.is_file() else ()
        generated = [GeneratedMetadata.from_json(r) for r in rows if "error" not in r]
        if generated:
            combos.append((variant, h, generated))
    provider = (HttpEmbeddingProvider(cfg.embedding_base_url, cfg.embedding_model or "")
                if cfg.embedding_base_url else MockEmbeddingProvider())
    table = TokenTable(provider, (
        text for _, _, generated in combos for g in generated if g.site_id in reference
        for text in (g.title, g.abstract, *reference[g.site_id])))
    all_stats, score_rows = [], []
    no_reference = unscored = no_overlap = 0
    for variant, h, generated in combos:
        pairs = score_pairs(generated, reference, table)
        missing = sum(g.site_id not in reference for g in generated)
        no_reference += missing
        unscored += len(generated) - missing - len(pairs)
        try:
            all_stats.append(score_combination(pairs, variant, h))
        except NoOverlap:
            no_overlap += 1
            continue
        combo = combination_id(variant, h)
        score_rows += [
            [p.site_id, combo, p.title_levenshtein, f"{p.title_bertscore_f1:.6f}",
             f"{p.abstract_bertscore_f1:.6f}"]
            for p in pairs
        ]
    ranked = rank_combinations(all_stats)
    store.write_csv(
        cfg.output_dir / store.SCORES,
        ["site_id", "combination_id", "title_lev", "title_bs_f1", "abstract_bs_f1"],
        score_rows,
    )
    summary = cfg.output_dir / store.RANKED_SUMMARY
    store.write_csv(
        summary,
        ["prompt", "heuristic", "combination", "ranked_aggregated_score", "shortlisted"],
        [
            [r.stats.prompt.name, int(r.stats.heuristic),
             r.stats.combination_id, r.final_score, int(r.final_score == 1)]
            for r in ranked
        ],
    )
    shortlist = [r.stats.combination_id for r in ranked if r.final_score == 1]
    click.echo(f"ranked summary -> {summary}")
    click.echo(f"shortlisted for manual review: combos {shortlist}")
    counts = {"combinations": len(all_stats), "shortlisted": len(shortlist),
              "no_reference": no_reference, "unscored": unscored, "no_overlap": no_overlap,
              "embed_tokens": len(table.rows), "embed_requests": table.requests}
    store.write_manifest(cfg.output_dir, "evaluate", cfg.digest(), counts, started)


@main.command()
@click.argument("grading_csv", type=click.Path())
@click.option("--test", "test_name", type=click.Choice(["cochran", "mcnemar"]),
              default="cochran")
@click.option("--a", "label_a", default=None, help="First treatment (mcnemar).")
@click.option("--b", "label_b", default=None, help="Second treatment (mcnemar).")
@click.option("--correction", is_flag=True, help="Continuity correction (mcnemar).")
@click.option("--exact", is_flag=True,
              help="Exact binomial p for small discordant counts (mcnemar).")
@click.option("--alpha", type=float, default=0.05)
def stats(grading_csv, test_name, label_a, label_b, correction, exact, alpha):
    """Run Cochran's Q or McNemar's test on a grading CSV."""
    from .stats import cochran_q, ingest_grading, mcnemar

    matrix = ingest_grading(grading_csv)
    if test_name == "cochran":
        result = cochran_q(matrix, alpha=alpha)
    else:
        if not label_a or not label_b:
            raise click.ClickException("--test mcnemar requires --a and --b")
        result = mcnemar(
            matrix, label_a, label_b, correction=correction, exact=exact, alpha=alpha
        )
    click.echo(result.to_json())
    click.echo(result.summary())


if __name__ == "__main__":
    main()
