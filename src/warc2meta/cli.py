"""Command-line pipeline: ingest -> select -> generate -> evaluate, plus
standalone stats and cost reporting.

Stage outputs are JSONL/CSV files under the output directory so every
stage can be inspected and rerun independently.
"""

import csv
import datetime
import json
import sys
import uuid
from pathlib import Path

import click

from .client import GeneratedMetadata, combination_id, run_batch
from .config import PipelineConfig, load_config
from .errors import ConfigError, Warc2MetaError
from .heuristics import HeuristicId, Selection, load_filter_rules, select
from .ingest import SiteDocument, ingest_many
from .metrics import HttpEmbeddingProvider, MockEmbeddingProvider
from .prompts import VARIANTS
from .ranking import rank_combinations, score_combination, score_pairs
from .stats import cochran_q, ingest_grading, mcnemar
from .tokens import count_tokens, load_vocabulary, reduction_report
from .urlnorm import normalize_url


# combination_id order: heuristic-major, with-rules before without
ALL_COMBINATIONS = [
    (v, h) for h in HeuristicId for v in (VARIANTS["rules"], VARIANTS["norules"])
]


def _site_id(source_file: str) -> str:
    name = Path(source_file).name
    for suffix in (".warc.gz", ".warc"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _write_manifest(out_dir: Path, stage: str, cfg: PipelineConfig, counts, started):
    manifest = {
        "run_id": uuid.uuid4().hex,
        "stage": stage,
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_digest": cfg.digest(),
        "counts": counts,
    }
    path = out_dir / f"manifest_{stage}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _load_sites(out_dir: Path):
    store = out_dir / "sites.jsonl"
    if not store.is_file():
        raise ConfigError(f"no site store at {store}; run `ingest` first")
    with open(store, encoding="utf-8") as fh:
        return [SiteDocument.from_json(line) for line in fh if line.strip()]


def _tokens_before(docs, tok):
    """Token count of the whole-site "before" texts of the reduction report."""
    return sum(count_tokens(" ".join(p.body_text for p in d.pages), tok) for d in docs)


def _tokenizer(cfg: PipelineConfig):
    if cfg.tokenizer_path is None:
        return None
    return load_vocabulary(cfg.tokenizer_path)


def _build_config(config_path, output, workers) -> PipelineConfig:
    if config_path:
        cfg = load_config(config_path)
    else:
        cfg = PipelineConfig(input_dir=Path("."), output_dir=Path("out"))
    if output:
        cfg.output_dir = Path(output)
    if workers:
        cfg.worker_count = workers
    return cfg


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML pipeline configuration.")
@click.option("--output", type=click.Path(), default=None, help="Output directory.")
@click.option("--workers", type=int, default=None, help="Worker pool size.")
@click.pass_context
def main(ctx, config_path, output, workers):
    """Convert WARC archives into candidate catalogue metadata and evaluate it."""
    try:
        ctx.obj = _build_config(config_path, output, workers)
        ctx.obj.validate()
    except Warc2MetaError as exc:
        raise click.ClickException(str(exc))


@main.command()
@click.option("--input", "input_dir", type=click.Path(), default=None,
              help="Directory holding *.warc / *.warc.gz files.")
@click.pass_obj
def ingest(cfg: PipelineConfig, input_dir):
    """Extract, filter, and deduplicate pages: one store row per WARC file."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if input_dir:
        cfg.input_dir = Path(input_dir)
    if not cfg.input_dir.is_dir():
        raise click.ClickException(f"input directory not found: {cfg.input_dir}")
    paths = sorted(cfg.input_dir.glob("*.warc")) + sorted(cfg.input_dir.glob("*.warc.gz"))
    if not paths:
        raise click.ClickException(f"NoInput: no WARC files in {cfg.input_dir}")
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    docs, errors = ingest_many(paths, cfg.worker_count, cfg.min_chars)
    store = cfg.output_dir / "sites.jsonl"
    with open(store, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(doc.to_json() + "\n")
    for path, exc in errors:
        click.echo(f"error: {path}: {type(exc).__name__}: {exc}", err=True)
    counts = {
        "files": len(paths),
        "ingested": len(docs),
        "failed": len(errors),
        "pages_kept": sum(len(d.pages) for d in docs),
        "pages_rejected": sum(d.rejected_count for d in docs),
        "pages_duplicate": sum(d.duplicate_count for d in docs),
    }
    _write_manifest(cfg.output_dir, "ingest", cfg, counts, started)
    click.echo(f"ingested {len(docs)}/{len(paths)} files -> {store}")
    if docs == [] and errors:
        sys.exit(1)


def _selection_row(site_id, sel):
    return json.dumps(
        {
            "site_id": site_id,
            "heuristic": int(sel.heuristic),
            "chosen_url": sel.chosen_url.url,
            "content": sel.content,
            "original_token_estimate": sel.original_token_estimate,
            "reduced_token_estimate": sel.reduced_token_estimate,
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def _read_selections(out_dir: Path, heuristic: HeuristicId):
    """(site_id, Selection) for each non-error row of a selections file."""
    path = out_dir / f"selections_h{int(heuristic)}.jsonl"
    if not path.is_file():
        raise click.ClickException(
            f"no selections for heuristic {int(heuristic)}; run `select` first"
        )
    items = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            if "error" in obj:
                continue
            sel = Selection(
                heuristic=HeuristicId(obj["heuristic"]),
                chosen_url=normalize_url(obj["chosen_url"]),
                content=obj["content"],
                original_token_estimate=obj["original_token_estimate"],
                reduced_token_estimate=obj["reduced_token_estimate"],
            )
            items.append((obj["site_id"], sel))
    return items


def _run_select(cfg, docs, heuristic, rules, tok):
    """Write selections_h<N>.jsonl; return (path, tokens selected, errors).

    The tokens selected are the sum of the selections'
    reduced_token_estimate, the exact count of each content under tok.
    """
    rows = []
    tokens_after = 0
    errors = 0
    for doc in docs:
        sid = _site_id(doc.source_file)
        try:
            sel = select(doc, heuristic, rules, tok, cfg.max_content_tokens)
        except Warc2MetaError as exc:
            rows.append(
                json.dumps({"site_id": sid, "error": f"{type(exc).__name__}: {exc}"})
            )
            errors += 1
            continue
        rows.append(_selection_row(sid, sel))
        tokens_after += sel.reduced_token_estimate
    out = cfg.output_dir / f"selections_h{int(heuristic)}.jsonl"
    out.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return out, tokens_after, errors


@main.command("select")
@click.option("--heuristic", type=click.IntRange(1, 3), default=None,
              help="Heuristic code 1|2|3; default from config.")
@click.option("--all", "all_heuristics", is_flag=True, help="Run all three heuristics.")
@click.pass_obj
def select_cmd(cfg: PipelineConfig, heuristic, all_heuristics):
    """Collapse each site to one content block and report token costs."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    docs = _load_sites(cfg.output_dir)
    rules = load_filter_rules(cfg.filter_rules_path) if cfg.filter_rules_path else None
    tok = _tokenizer(cfg)
    which = (
        list(HeuristicId)
        if all_heuristics
        else [HeuristicId(heuristic or int(cfg.heuristic))]
    )
    before = _tokens_before(docs, tok)
    cost_rows = []
    total_errors = 0
    for h in which:
        out, after, errors = _run_select(cfg, docs, h, rules, tok)
        total_errors += errors
        report = reduction_report(before, after, cfg.prices, tok)
        cost_rows.append((h, report))
        click.echo(f"heuristic {int(h)} -> {out}")
    _write_cost_csv(cfg.output_dir / "cost_report.csv", cost_rows)
    counts = {"sites": len(docs), "heuristics": len(which), "errors": total_errors}
    _write_manifest(cfg.output_dir, "select", cfg, counts, started)


def _write_cost_csv(path, cost_rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "heuristic",
                "tokens_before",
                "tokens_after",
                "reduction_ratio",
                "cost_before",
                "cost_after",
                "approximate",
            ]
        )
        for h, rep in cost_rows:
            writer.writerow(
                [
                    int(h),
                    rep.tokens_before,
                    rep.tokens_after,
                    f"{float(rep.reduction_ratio):.6f}",
                    str(rep.cost_before),
                    str(rep.cost_after),
                    int(rep.approximate),
                ]
            )


@main.command()
@click.option("--heuristic", type=click.IntRange(1, 3), default=None)
@click.option("--prompt", "prompt_name", type=click.Choice(["rules", "norules"]),
              default=None)
@click.option("--all-combinations", is_flag=True,
              help="Sweep all six prompt x heuristic combinations.")
@click.pass_obj
def generate(cfg: PipelineConfig, heuristic, prompt_name, all_combinations):
    """Call the chat model over selections; resumable via checkpoints."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if all_combinations:
        combos = ALL_COMBINATIONS
    else:
        variant = VARIANTS[prompt_name or cfg.prompt_variant]
        combos = [(variant, HeuristicId(heuristic or int(cfg.heuristic)))]
    generated_total = 0
    error_total = 0
    for variant, h in combos:
        items = _read_selections(cfg.output_dir, h)
        combo = combination_id(variant, h)
        ckpt = cfg.output_dir / f"checkpoint_combo{combo}.jsonl"
        rows = run_batch(items, variant, cfg.client, checkpoint_path=ckpt)
        out = cfg.output_dir / f"generated_combo{combo}.jsonl"
        with open(out, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(row.to_json() + "\n")
        ok = sum(1 for r in rows if r.result is not None)
        generated_total += ok
        error_total += len(rows) - ok
        click.echo(f"combo {combo}: {ok}/{len(rows)} generated -> {out}")
    counts = {"generated": generated_total, "errors": error_total}
    _write_manifest(cfg.output_dir, "generate", cfg, counts, started)


def _load_generated(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "title" in obj and "error" not in obj:
                rows.append(GeneratedMetadata.from_json(line))
    return rows


def _provider(cfg: PipelineConfig):
    if cfg.embedding_base_url:
        return HttpEmbeddingProvider(cfg.embedding_base_url, cfg.embedding_model or "")
    return MockEmbeddingProvider()


@main.command()
@click.option("--reference", "reference_path", type=click.Path(), required=True,
              help="JSONL of human-produced {site_id, title, abstract} rows.")
@click.pass_obj
def evaluate(cfg: PipelineConfig, reference_path):
    """Score every generated combination against the reference and rank them."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if not Path(reference_path).is_file():
        raise click.ClickException(f"ConfigError: missing reference file {reference_path}")
    reference = _load_generated(reference_path)
    provider = _provider(cfg)
    all_stats = []
    per_site_rows = []
    for variant, h in ALL_COMBINATIONS:
        combo = combination_id(variant, h)
        path = cfg.output_dir / f"generated_combo{combo}.jsonl"
        if not path.is_file():
            continue
        generated = _load_generated(path)
        if not generated:
            continue
        pairs = score_pairs(generated, reference, provider)
        all_stats.append(score_combination(pairs, len(generated), variant, h))
        for pair in pairs:
            per_site_rows.append(
                [
                    pair.site_id,
                    combo,
                    pair.title_levenshtein,
                    f"{pair.title_bertscore_f1:.6f}",
                    f"{pair.abstract_bertscore_f1:.6f}",
                ]
            )
    if len(all_stats) < 2:
        raise click.ClickException(
            "need at least two generated combinations to evaluate"
        )
    ranked = rank_combinations(all_stats)
    scores_csv = cfg.output_dir / "scores_per_site.csv"
    with open(scores_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["site_id", "combination_id", "title_lev", "title_bs_f1", "abstract_bs_f1"]
        )
        writer.writerows(per_site_rows)
    summary_csv = cfg.output_dir / "ranked_summary.csv"
    with open(summary_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["prompt", "heuristic", "combination", "ranked_aggregated_score", "shortlisted"]
        )
        for r in ranked:
            writer.writerow(
                [
                    r.stats.prompt.variant.value,
                    int(r.stats.heuristic),
                    r.stats.combination_id,
                    r.final_score,
                    int(r.final_score == 1),
                ]
            )
    shortlist = [r.stats.combination_id for r in ranked if r.final_score == 1]
    click.echo(f"ranked summary -> {summary_csv}")
    click.echo(f"shortlisted for manual review: combos {shortlist}")
    counts = {"combinations": len(all_stats), "shortlisted": len(shortlist)}
    _write_manifest(cfg.output_dir, "evaluate", cfg, counts, started)


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
    try:
        matrix = ingest_grading(grading_csv)
        if test_name == "cochran":
            result = cochran_q(matrix, alpha=alpha)
        else:
            if not label_a or not label_b:
                raise click.ClickException("--test mcnemar requires --a and --b")
            result = mcnemar(
                matrix, label_a, label_b, correction=correction, exact=exact,
                alpha=alpha,
            )
    except Warc2MetaError as exc:
        raise click.ClickException(f"{type(exc).__name__}: {exc}")
    click.echo(result.to_json())
    click.echo(result.summary())


@main.command()
@click.option("--heuristic", type=click.IntRange(1, 3), default=None)
@click.pass_obj
def cost(cfg: PipelineConfig, heuristic):
    """Recompute the token/cost reduction report from stored stage outputs."""
    docs = _load_sites(cfg.output_dir)
    tok = _tokenizer(cfg)
    before = _tokens_before(docs, tok)
    h = HeuristicId(heuristic or int(cfg.heuristic))
    after = sum(
        count_tokens(sel.content, tok) for _, sel in _read_selections(cfg.output_dir, h)
    )
    report = reduction_report(before, after, cfg.prices, tok)
    _write_cost_csv(cfg.output_dir / "cost_report.csv", [(h, report)])
    click.echo(
        f"heuristic {int(h)}: {report.tokens_before} -> {report.tokens_after} tokens "
        f"(reduction {float(report.reduction_ratio):.4%})"
    )


if __name__ == "__main__":
    main()
