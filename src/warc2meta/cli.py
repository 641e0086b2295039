"""Command-line pipeline: ingest -> select -> generate -> evaluate, plus
standalone stats. `select` writes the cost report.

Stage outputs are JSONL/CSV files under the output directory (see
`store`), so every stage can be inspected and rerun independently. A
pipeline error ends a command with its type and message, not a traceback.
Each command imports the layers it runs when it runs, so a stage process
loads no other stage's modules or libraries.
"""

import sys
from argparse import ArgumentParser, ArgumentTypeError, RawDescriptionHelpFormatter
from pathlib import Path
from typing import NamedTuple

from . import store
from .config import PipelineConfig, load_config
from .errors import NoOverlap, Warc2MetaError


def ingest(cfg: PipelineConfig, args):
    """Extract, filter, and deduplicate pages: one store row per WARC file,
    written as each file is done. A file that fails is counted by its
    error's type, as `failed_<type>`."""
    from .ingest import PAGE_COUNTS, ingest_many

    if args.input:
        cfg = cfg._replace(input_dir=Path(args.input))
    with store.stage(cfg, "ingest") as counts:
        if not cfg.input_dir.is_dir():
            sys.exit(f"Error: input directory not found: {cfg.input_dir}")
        paths = sorted(cfg.input_dir.glob("*.warc")) + sorted(cfg.input_dir.glob("*.warc.gz"))
        if not paths:
            sys.exit(f"Error: NoInput: no WARC files in {cfg.input_dir}")
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        counts.update(files=len(paths), **dict.fromkeys(("ingested", "failed", *PAGE_COUNTS), 0))
        sites = cfg.output_dir / store.SITES
        with store.jsonl_writer(sites) as write:
            for path, result in zip(paths, ingest_many(paths, cfg.min_chars)):
                if result.row is None:
                    counts["failed"] += 1
                    counts["failed_" + result.error.partition(":")[0]] += 1
                    print(f"error: {path}: {result.error}", file=sys.stderr)
                    continue
                write(result.row)
                counts["ingested"] += 1
                for key, n in result.counts.items():
                    counts[key] += n
        print(f"ingested {counts['ingested']}/{len(paths)} files -> {sites}")
    if counts["ingested"] == 0 and counts["failed"]:
        sys.exit(1)


def select_cmd(cfg: PipelineConfig, args):
    """Collapse each site to one content block and report token costs.

    Sites are read one at a time, and each goes through every requested
    heuristic before the next is read. A site's selection error is written
    as its row, in place of a selection, and counted by type (`errors_<type>`).
    The cost report has a row per heuristic run: the tokens of every whole
    site (its pages' texts joined by spaces) against the tokens selected,
    both counted by one tokenizer.
    """
    from contextlib import ExitStack

    from .heuristics import HeuristicId, load_filter_rules, select
    from .sites import SiteDocument
    from .tokens import count_tokens, load_vocabulary, reduction_report

    with store.stage(cfg, "select") as counts:
        docs = store.read_jsonl(cfg.output_dir / store.SITES, SiteDocument, after="ingest")
        rules = load_filter_rules(cfg.filter_rules_path) if cfg.filter_rules_path else None
        tok = load_vocabulary(cfg.tokenizer_path) if cfg.tokenizer_path else None
        which = list(HeuristicId) if args.all else [HeuristicId(args.heuristic or cfg.heuristic)]
        paths = {h: cfg.output_dir / store.selections(h) for h in which}
        afters = dict.fromkeys(which, 0)
        counts.update(sites=0, heuristics=len(which), errors=0,
                      **{f"empty_h{int(h)}": 0 for h in which})
        before = 0
        with ExitStack() as stack:
            writers = {h: stack.enter_context(store.jsonl_writer(paths[h])) for h in which}
            for doc in docs:
                counts["sites"] += 1
                before += count_tokens(" ".join(p.body_text for p in doc.pages), tok)
                for h, write in writers.items():
                    try:
                        sel = select(doc, h, rules, tok, cfg.max_content_tokens)
                    except Warc2MetaError as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        write(store.dumps({"site_id": doc.site_id, "error": error}))
                        counts["errors"] += 1
                        counts[f"errors_{type(exc).__name__}"] += 1
                        continue
                    write(sel.to_json())
                    afters[h] += sel.reduced_token_estimate
                    counts[f"empty_h{int(h)}"] += not sel.content.strip()  # generate refuses it
        for h in which:
            print(f"heuristic {int(h)} -> {paths[h]}")
        reports = {h: reduction_report(before, n, cfg.prices, tok) for h, n in afters.items()}
        store.write_csv(
            cfg.output_dir / store.COST_REPORT,
            ["heuristic", "tokens_before", "tokens_after", "reduction_ratio", "cost_before",
             "cost_after", "approximate"],
            [[int(h), r.tokens_before, r.tokens_after, f"{float(r.reduction_ratio):.6f}",
              str(r.cost_before), str(r.cost_after), int(r.approximate)]
             for h, r in reports.items()],
        )


def generate(cfg: PipelineConfig, args):
    """Call the chat model over selections; resumable via checkpoints.

    Per combination, counts `generated` rows (`served` of them from the
    checkpoint), `errors` (`errors_<type>` by type), and `selection_errors`,
    sites select failed on.
    """
    from .client import run_batch
    from .prompts import COMBINATIONS, VARIANTS, HeuristicId, Selection, combination_id

    with store.stage(cfg, "generate") as counts:
        combos = COMBINATIONS if args.all_combinations else [(VARIANTS[
            args.prompt or cfg.prompt_variant], HeuristicId(args.heuristic or cfg.heuristic))]
        skipped = {h: [] for _, h in combos}  # each selections file's error rows
        selected = {h: list(store.read_jsonl(cfg.output_dir / store.selections(h), Selection,
                                             after="select", errors=skipped[h]))
                    for h in skipped}  # each built before any request
        counts.update(generated=0, served=0, errors=0, selection_errors=0)
        for variant, h in combos:
            combo = combination_id(variant, h)
            ckpt = cfg.output_dir / store.checkpoint(combo)
            rows = run_batch(selected[h], variant, cfg.client, checkpoint_path=ckpt)
            out = cfg.output_dir / store.generated(combo)
            with store.jsonl_writer(out) as write:
                for row in rows:
                    write(row.to_json())
            ok = sum(1 for r in rows if r.result is not None)
            counts.update("errors_" + r.error.partition(":")[0] for r in rows if r.error)
            counts["generated"] += ok
            counts["served"] += sum(r.served for r in rows)
            counts["errors"] += len(rows) - ok
            counts["selection_errors"] += len(skipped[h])
            print(f"combo {combo}: {ok}/{len(rows) + len(skipped[h])} generated -> {out}")


Reference = NamedTuple("Reference", [("site_id", str), ("title", str), ("abstract", str)])


def evaluate(cfg: PipelineConfig, args):
    """Score every generated combination against the reference and rank them.

    A generated error row is left out (`error_rows`), and so are a row
    whose site has no reference row (`no_reference`), a pair with a text
    of no token (`unscored`) and a combination with no scored pair
    (`no_overlap`).
    """
    from .metrics import HttpEmbeddingProvider, MockEmbeddingProvider, TokenTable
    from .prompts import COMBINATIONS, GeneratedMetadata
    from .ranking import rank_combinations, score_combination, score_pairs

    with store.stage(cfg, "evaluate") as counts:
        reference = {r.site_id: (r.title, r.abstract)
                     for r in store.read_jsonl(args.reference, Reference)}
        counts.update(no_reference=0, unscored=0, no_overlap=0)
        joined = {}  # combination id: (row, reference) of its rows, if it has any
        errors = []  # generated rows that hold an error, not a reply
        for combo in range(len(COMBINATIONS)):
            path = cfg.output_dir / store.generated(combo)
            generated = (list(store.read_jsonl(path, GeneratedMetadata, errors=errors))
                         if path.is_file() else [])
            if generated:
                joined[combo] = [(g, reference[g.site_id]) for g in generated
                                 if g.site_id in reference]
                counts["no_reference"] += len(generated) - len(joined[combo])
        provider = (HttpEmbeddingProvider(cfg.embedding_base_url, cfg.embedding_model or "")
                    if cfg.embedding_base_url else MockEmbeddingProvider())
        table = TokenTable(provider, (text for rows in joined.values() for g, ref in rows
                                      for text in (g.title, g.abstract, *ref)))
        all_stats, score_rows = [], []
        for combo, rows in joined.items():
            pairs = score_pairs(rows, table)
            counts["unscored"] += len(rows) - len(pairs)
            try:
                all_stats.append(score_combination(pairs, combo))
            except NoOverlap:
                counts["no_overlap"] += 1
                continue
            score_rows += [
                [p.site_id, combo, p.title_levenshtein, f"{p.title_bertscore_f1:.6f}",
                 f"{p.abstract_bertscore_f1:.6f}"]
                for p in pairs
            ]
        if not all_stats:
            raise NoOverlap("no generated combination has a scored pair")
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
            [[variant.name, int(h), r.stats.combination_id, r.final_score, int(r.final_score == 1)]
             for r in ranked for variant, h in [COMBINATIONS[r.stats.combination_id]]],
        )
        shortlist = [r.stats.combination_id for r in ranked if r.final_score == 1]
        print(f"ranked summary -> {summary}")
        print(f"shortlisted for manual review: combos {shortlist}")
        counts.update(combinations=len(all_stats), shortlisted=len(shortlist),
                      error_rows=len(errors), embed_tokens=len(table.rows),
                      embed_requests=table.requests)


def stats(cfg, args):
    """Run Cochran's Q or McNemar's test on a grading CSV."""
    from .stats import cochran_q, ingest_grading, mcnemar

    matrix = ingest_grading(args.grading_csv)
    if args.test == "cochran":
        result = cochran_q(matrix, alpha=args.alpha)
    else:
        if not args.a or not args.b:
            sys.exit("Error: --test mcnemar requires --a and --b")
        result = mcnemar(matrix, args.a, args.b, correction=args.correction, exact=args.exact,
                         alpha=args.alpha)
    print(result.to_json())
    print(result.summary())
    if matrix.dropped_incomplete:
        print(f"{matrix.dropped_incomplete} items left out: no verdict from every source",
              file=sys.stderr)


def _alpha(text: str) -> float:
    try:
        if 0 < float(text) < 1:  # NaN and the infinities fail this
            return float(text)
    except ValueError:
        pass
    raise ArgumentTypeError(f"{text!r} is not a number between 0 and 1")


def _parse(args, prog: str):
    parser = ArgumentParser(prog=prog, allow_abbrev=False, description=(
        "Convert WARC archives into candidate catalogue metadata and evaluate it."))
    parser.add_argument("--config", metavar="PATH", help="YAML pipeline configuration.")
    parser.add_argument("--output", metavar="PATH", help="Output directory.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    sub = {}
    for run in (ingest, select_cmd, generate, evaluate, stats):
        doc = "\n".join(line.strip() for line in run.__doc__.splitlines())
        sub[run] = commands.add_parser(
            run.__name__.removesuffix("_cmd"), help=doc.split("\n\n")[0].replace("\n", " "),
            description=doc, allow_abbrev=False, formatter_class=RawDescriptionHelpFormatter)
        sub[run].set_defaults(run=run)
    sub[ingest].add_argument("--input", help="Directory holding *.warc / *.warc.gz files.")
    one_or_all = sub[select_cmd].add_mutually_exclusive_group()
    one_or_all.add_argument("--heuristic", type=int, choices=(1, 2, 3),
                            help="Heuristic code 1|2|3; default from config.")
    one_or_all.add_argument("--all", action="store_true", help="Run all three heuristics.")
    sub[generate].add_argument("--heuristic", type=int, choices=(1, 2, 3))
    sub[generate].add_argument("--prompt", choices=("rules", "norules"))
    sub[generate].add_argument("--all-combinations", action="store_true",
                               help="Sweep all six prompt x heuristic combinations.")
    sub[evaluate].add_argument("--reference", metavar="PATH", required=True,
                               help="JSONL of human-produced {site_id, title, abstract} rows.")
    sub[stats].add_argument("grading_csv", metavar="GRADING_CSV")
    sub[stats].add_argument("--test", choices=("cochran", "mcnemar"), default="cochran")
    sub[stats].add_argument("--a", help="First treatment (mcnemar).")
    sub[stats].add_argument("--b", help="Second treatment (mcnemar).")
    sub[stats].add_argument("--correction", action="store_true",
                            help="Continuity correction (mcnemar).")
    sub[stats].add_argument("--exact", action="store_true",
                            help="Exact binomial p for small discordant counts (mcnemar).")
    sub[stats].add_argument("--alpha", type=_alpha, default=0.05, help="0 < alpha < 1.")
    ns = parser.parse_args(args)
    # no one mutually exclusive group keeps --all-combinations from both
    # --heuristic and --prompt and still lets those two go together
    if ns.run is generate and ns.all_combinations and (ns.heuristic or ns.prompt):
        sub[generate].error("argument --all-combinations: not allowed with --heuristic/--prompt")
    return ns


def main(args=None, prog_name: str = "warc2meta"):
    """Runs one command. A failed command exits with status 1 and an
    `Error: ...` line on stderr, a usage error with status 2."""
    ns = _parse(args, prog_name)
    try:  # stats reads no setting, so it loads no config
        ns.run(None if ns.run is stats else load_config(ns.config, ns.output), ns)
    except Warc2MetaError as exc:
        sys.exit(f"Error: {type(exc).__name__}: {exc}")
    except KeyboardInterrupt:
        sys.exit("\nAborted!")


# perfbench/tracer.py runs a stage as `cli.main.main(args=..., prog_name=...)`;
# this alias goes when the tracer sets sys.argv and calls `main()` instead.
main.main = main


if __name__ == "__main__":
    main()
