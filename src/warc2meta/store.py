"""The output directory: each artefact's file name, reader and writer.

Stages hand each other files in one directory (`output_dir`, `out/` by
default), so any stage can be inspected and rerun on its own. No other
module names these files:

    file                        written by            read by
    sites.jsonl                 ingest                select
    selections_h<N>.jsonl       select                generate
    cost_report.csv             select
    checkpoint_combo<N>.jsonl   generate (appended)   generate (resume)
    generated_combo<N>.jsonl    generate              evaluate
    scores_per_site.csv         evaluate
    ranked_summary.csv          evaluate
    manifest_<stage>.json       ingest, select, generate, evaluate

A JSONL row is one JSON object, keys sorted, non-ASCII kept. A row is
written by its dataclass's `to_json` and read back by `config.build`.
Every file but a checkpoint (`appending`) is written whole (`replacing`).
"""

import io
import json
import os
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
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
    the list `errors`, if given, gets the error rows passed over. A missing
    file is a ConfigError, raised by this call, before any row is read;
    `after` names the stage that writes it. A line that is not UTF-8, a
    JSON object or a row is a ConfigError naming the file and line, here
    and in a checkpoint, which `appending` parses by these same rules.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no {path}" + (f"; run `{after}` first" if after else ""))
    return _rows(path, row, errors)


def _rows(path, row, errors, data=None):
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
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
def appending(path):
    """The objects of a JSONL log's lines (see `read_jsonl`), read once, after
    a last line without its newline (a torn append) is cut off, and an
    append(row) on the same handle, for any thread, that writes and flushes
    each row whole, so an interrupted run keeps every row it finished."""
    lock = threading.Lock()
    with open(path, "ab+") as fh:
        fh.seek(0)
        kept = fh.read()
        kept = kept[:fh.truncate(kept.rfind(b"\n") + 1)]  # truncate returns the new size

        def append(row: str):
            with lock:
                fh.write(row.encode("utf-8") + b"\n")
                fh.flush()

        yield _rows(path, None, None, kept), append


@contextmanager
def jsonl_writer(path):
    """A write(row) for one JSONL file, written whole (see `replacing`)."""
    with replacing(path) as fh:
        yield lambda row: fh.write(row + "\n")


def write_csv(path, header, rows):
    import csv  # here: ingest and generate write no CSV

    with replacing(path, newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


@contextmanager
def stage(cfg, name: str):
    """A stage's run: yields its counts, which the block fills in. When the
    block ends without an error, manifest_<name>.json is written last and
    whole (see `replacing`): a fresh run id, the start and end times (UTC,
    ISO 8601), the digest of cfg as it is then, and the counts."""
    started = datetime.now(timezone.utc).isoformat()
    counts = {}
    yield counts
    with replacing(Path(cfg.output_dir) / f"manifest_{name}.json") as fh:
        json.dump({"run_id": os.urandom(16).hex(), "stage": name, "started_at": started,
                   "finished_at": datetime.now(timezone.utc).isoformat(),
                   "config_digest": cfg.digest(), "counts": counts}, fh, indent=2, sort_keys=True)
