"""The output directory: each artefact's file name, reader and writer.

Stages hand each other files in one directory (`output_dir`, `out/` by
default), so any stage can be inspected and rerun on its own. No other
module names these files:

    file                        written by     read by
    sites.jsonl                 ingest         select
    selections_h<N>.jsonl       select         generate
    cost_report.csv             select
    checkpoint_combo<N>.jsonl   generate       generate (resume)
    generated_combo<N>.jsonl    generate       evaluate
    scores_per_site.csv         evaluate
    ranked_summary.csv          evaluate
    manifest_<stage>.json       ingest, select, generate, evaluate

A JSONL row is one JSON object, keys sorted, non-ASCII kept. A row is
written by its dataclass's `to_json` and read back by `config.build`.
Only `client.run_batch` reads a checkpoint, and it only appends to one.
"""

import datetime
import json
import os
from contextlib import contextmanager
from pathlib import Path

from .config import build
from .errors import ConfigError


SITES = "sites.jsonl"
COST_REPORT = "cost_report.csv"
SCORES = "scores_per_site.csv"
RANKED_SUMMARY = "ranked_summary.csv"


def selections(heuristic) -> str:
    return f"selections_h{int(heuristic)}.jsonl"


def checkpoint(combo: int) -> str:
    return f"checkpoint_combo{combo}.jsonl"


def generated(combo: int) -> str:
    return f"generated_combo{combo}.jsonl"


def dumps(obj) -> str:
    """One JSONL row."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def read_jsonl(path, row=None, after=None, errors=None):
    """The object of each non-blank line, parsed once, as it is read, or
    given a row type, each that is not an error row built by config.build;
    the list `errors`, if given, gets the error rows passed over.

    A missing file is a ConfigError, raised by this call, before any row
    is read; `after` names the stage that writes it. A line that is not
    UTF-8, a JSON object or a row is a ConfigError naming the file and line.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no {path}" + (f"; run `{after}` first" if after else ""))
    return _rows(path, row, errors)


def _rows(path, row, errors):
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    obj = json.loads(line.decode("utf-8"))
                    if not isinstance(obj, dict):
                        raise ValueError(f"a JSON {type(obj).__name__}, not an object")
                except ValueError as exc:  # UnicodeDecodeError among them
                    raise ConfigError(f"{path}: line {n}: {exc}")
                if row is None or "error" not in obj:  # an error row has an "error" key
                    yield obj if row is None else build(row, obj, f"{path}: line {n}")
                elif errors is not None:
                    errors.append(obj)


@contextmanager
def replacing(path, newline=None):
    """A text file of a temporary name beside path, which replaces path
    when the block ends without an error and is removed when it does not,
    so a failed run leaves the previous file whole."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


@contextmanager
def jsonl_writer(path, append=False):
    """A write(row) for one JSONL file, new (see `replacing`) or appended
    to. Each row is flushed as it is written, so an interrupted append
    keeps every row it finished; the next append first cuts off the last
    line if it has no newline, the row that was being written."""
    if append:
        with open(path, "ab+") as fh:
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)
    with open(path, "a", encoding="utf-8") if append else replacing(path) as fh:

        def write(row: str):
            fh.write(row + "\n")
            fh.flush()

        yield write


def write_csv(path, header, rows):
    import csv  # here: ingest and generate write no CSV

    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def stage(cfg, name: str):
    """A stage's run: yields its counts, which the block fills in. When the
    block ends without an error, manifest_<name>.json is written last: a
    fresh run id, the start and end times (UTC, ISO 8601), the digest of
    cfg as it is then, and the counts."""
    started = _now()
    counts = {}
    yield counts
    manifest = {"run_id": os.urandom(16).hex(), "stage": name, "started_at": started,
                "finished_at": _now(), "config_digest": cfg.digest(), "counts": counts}
    path = Path(cfg.output_dir) / f"manifest_{name}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()
