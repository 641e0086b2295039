"""OpenAI-compatible chat-completion client with JSON-constrained output.

Requests default to strictly sequential issuance (max_in_flight=1) to
stay inside API rate limits; a bounded in-flight window enables
parallelism where limits allow. Each site gets one connection (see
`transport`), reused only for its own 429 retries and schema re-asks.
Batches checkpoint after every completed site, keyed by the request, so
an interrupted run resumes without asking again for a reply it already
holds; `run_batch` parses the checkpoint's rows once, and a run that
leaves a site more than one row rewrites it from memory with the last.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .config import ClientConfig, build
from .errors import ApiError, ConfigError, RateLimited, SchemaViolation
from .prompts import GeneratedMetadata, PromptVariant, Selection, build_prompt, combination_id
from .store import dumps, jsonl_writer, read_jsonl, replacing

if TYPE_CHECKING:
    from .transport import Connection


_JSON_BLOB_RE = re.compile(r"\{.*\}", re.S)
# seconds before each retry of a 429 with no usable Retry-After; the last repeats
RETRY_BACKOFF = (0.5, 1.0, 2.0, 4.0)


def _parse_reply(content: str) -> Tuple[str, str]:
    """The (title, abstract) of the model reply, or raise SchemaViolation."""
    candidate = content.strip()
    try:
        obj = json.loads(candidate)
    except json.JSONDecodeError:
        m = _JSON_BLOB_RE.search(candidate)
        if m is None:
            raise SchemaViolation(f"no JSON object in reply: {candidate[:120]!r}")
        try:
            obj = json.loads(m.group(0))
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"unparseable JSON in reply: {exc}")
    if not isinstance(obj, dict):
        raise SchemaViolation("reply JSON is not an object")
    for name in ("title", "abstract"):
        if not isinstance(obj.get(name), str) or not obj[name].strip():
            raise SchemaViolation(f"missing or empty {name!r}")
    return obj["title"], obj["abstract"]


def _post_chat(messages: List[Dict[str, str]], cfg: ClientConfig, conn: Connection) -> str:
    body = {
        "model": cfg.model_name,
        "messages": messages,
        "temperature": cfg.temperature,
        "response_format": {"type": "json_object"},
    }
    key = cfg.api_key()
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    attempts = 0
    while True:
        status, reply_headers, data = conn.post("/chat/completions", body, headers)
        if status == 429:
            if attempts >= cfg.max_retries:
                raise RateLimited(f"429 after {attempts} retries")
            try:
                delay = float(reply_headers.get("Retry-After"))
                if not 0 <= delay < float("inf"):
                    raise ValueError(delay)
            except (TypeError, ValueError):  # absent, or not a finite number of seconds >= 0
                delay = RETRY_BACKOFF[min(attempts, len(RETRY_BACKOFF) - 1)]
            time.sleep(delay)
            attempts += 1
            continue
        if status != 200:
            raise ApiError(status, data.decode("utf-8", "replace"))
        try:
            return json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ApiError(status, f"malformed completion body: {exc}")


def generate_metadata(
    selection: Selection, variant: PromptVariant, cfg: ClientConfig
) -> GeneratedMetadata:
    """One chat completion on one connection, re-asked with the parse
    error on schema failures."""
    from .transport import Connection

    messages = build_prompt(variant, selection.content, selection.chosen_url)
    last_error: Optional[SchemaViolation] = None
    with Connection(cfg.base_url) as conn:
        for _ in range(cfg.max_retries + 1):
            reply = _post_chat(messages, cfg, conn)
            try:
                title, abstract = _parse_reply(reply)
            except SchemaViolation as exc:
                last_error = exc
                messages = messages + [
                    {"role": "assistant", "content": reply},
                    {"role": "user", "content": f"Your previous reply was not valid: {exc}. "
                     "Return only the JSON object {'title': ..., 'abstract': ...}."},
                ]
                continue
            return GeneratedMetadata(
                title, abstract, source=f"combo{combination_id(variant, selection.heuristic)}",
                site_id=selection.site_id, model_name=cfg.model_name)
    raise last_error


@dataclass
class BatchRow:
    site_id: str
    result: Optional[GeneratedMetadata] = None
    error: Optional[str] = None
    key: Optional[str] = None  # sha256 of the request that result answers

    def to_json(self, checkpoint: bool = False) -> str:
        """The generated row; a checkpoint row adds the request key."""
        obj = {"site_id": self.site_id}
        if self.result is not None:
            obj.update(vars(self.result))
        if self.error is not None:
            obj["error"] = self.error
        if checkpoint and self.key is not None:
            obj["key"] = self.key
        return dumps(obj)


def run_batch(
    selections: Sequence[Selection],
    variant: PromptVariant,
    cfg: ClientConfig,
    checkpoint_path,
) -> List[BatchRow]:
    """Generate metadata for each selection's site, preserving order.

    Per-item failures become error rows; nothing aborts the batch. Each
    row is appended to the checkpoint as it completes. A checkpointed
    reply is served only while the sha256 of its site's request (messages,
    model, temperature) is unchanged; a changed request, an error row, a row
    without a key or one that does not build as a GeneratedMetadata is asked
    again, and so is the site of a last line that an interrupted append left
    without its newline. The checkpoint ends the run with one row per site,
    the last; it is rewritten from memory only when some row had to go.
    """
    done = {}  # site_id: (request key, reply)
    last = {}  # site_id: its last checkpoint row
    lines = 0  # checkpoint rows read and appended
    lock = threading.Lock()
    with jsonl_writer(checkpoint_path, append=True) as write:  # drops a torn last line
        for obj in read_jsonl(checkpoint_path):
            lines += 1
            if isinstance(obj.get("site_id"), str):
                last[obj["site_id"]] = dumps(obj)
            if "key" in obj:  # only replies carry a key; one that does not build is asked again
                with suppress(ConfigError):
                    reply = build(GeneratedMetadata, obj, str(checkpoint_path))
                    done[reply.site_id] = (obj["key"], reply)

        def work(selection) -> BatchRow:
            nonlocal lines
            try:
                messages = build_prompt(variant, selection.content, selection.chosen_url)
                blob = dumps([messages, cfg.model_name, cfg.temperature])
                key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
                hit = done.get(selection.site_id)
                if hit and hit[0] == key:
                    return BatchRow(selection.site_id, hit[1])
                result = generate_metadata(selection, variant, cfg)
                row = BatchRow(selection.site_id, result, key=key)
            except Exception as exc:
                row = BatchRow(selection.site_id, error=f"{type(exc).__name__}: {exc}")
            with lock:
                last[row.site_id] = line = row.to_json(checkpoint=True)
                write(line)
                lines += 1
            return row

        if cfg.max_in_flight == 1:
            rows = [work(selection) for selection in selections]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
                rows = list(pool.map(work, selections))
    if lines > len(last):  # a site written twice, or a row of no site
        with replacing(checkpoint_path) as fh:
            fh.write("".join(f"{line}\n" for line in last.values()))
    return rows
