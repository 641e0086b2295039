"""OpenAI-compatible chat-completion client with JSON-constrained output.

Requests default to strictly sequential issuance (max_in_flight=1) to
stay inside API rate limits; a bounded in-flight window enables
parallelism where limits allow. Each site gets one connection (see
`transport`), reused only for its own 429 retries and schema re-asks.
A batch's checkpoint is the log of the replies it paid for, each keyed by
its site and request and appended as it arrives, so a rerun, interrupted
or not, asks only for what the log holds no reply to.
"""

from __future__ import annotations

import hashlib  # not config's sha256: TLS maps OpenSSL anyway, and it hashes 5x as fast
import json
import re
import time
from contextlib import suppress
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .config import ClientConfig, build
from .errors import ApiError, ConfigError, RateLimited, SchemaViolation
from .prompts import GeneratedMetadata, PromptVariant, Selection, build_prompt, combination_id
from .store import appending, dumps

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


def generate_metadata(messages: List[Dict[str, str]], cfg: ClientConfig) -> Tuple[str, str]:
    """The (title, abstract) of one chat completion of messages on one
    connection, re-asked with the parse error on schema failures."""
    from .transport import Connection

    last_error: Optional[SchemaViolation] = None
    with Connection(cfg.base_url) as conn:
        for _ in range(cfg.max_retries + 1):
            reply = _post_chat(messages, cfg, conn)
            try:
                return _parse_reply(reply)
            except SchemaViolation as exc:
                last_error = exc
                messages = messages + [
                    {"role": "assistant", "content": reply},
                    {"role": "user", "content": f"Your previous reply was not valid: {exc}. "
                     "Return only the JSON object {'title': ..., 'abstract': ...}."},
                ]
    raise last_error


class BatchRow(NamedTuple):
    site_id: str
    result: Optional[GeneratedMetadata] = None
    error: Optional[str] = None
    served: bool = False  # result is a reply the checkpoint held

    def to_json(self) -> str:
        """The generated row."""
        obj = {"site_id": self.site_id}
        if self.result is not None:
            obj.update(self.result._asdict())
        if self.error is not None:
            obj["error"] = self.error
        return dumps(obj)


def run_batch(
    selections: Sequence[Selection],
    variant: PromptVariant,
    cfg: ClientConfig,
    checkpoint_path,
) -> List[BatchRow]:
    """Generate metadata for each selection's site, preserving order.

    Per-item failures become error rows; nothing aborts the batch. Each
    reply is appended to the checkpoint as it arrives, with the sha256 of
    its request (messages, model, temperature) as its `key`; an error is
    never written. A request is served from the checkpoint when any line
    (see `store.appending`) holds a reply for its site and key; a line that
    does not build as a GeneratedMetadata with a string key is never served.
    """
    with appending(checkpoint_path) as (logged, append):  # a torn last line cut off
        done = {}  # (site_id, request key): reply
        for obj in logged:
            if isinstance(obj.get("key"), str):  # only replies carry a key
                with suppress(ConfigError):
                    reply = build(GeneratedMetadata, obj, str(checkpoint_path))
                    done[reply.site_id, obj["key"]] = reply

        def work(selection) -> BatchRow:
            try:
                messages = build_prompt(variant, selection.content, selection.chosen_url)
                blob = dumps([messages, cfg.model_name, cfg.temperature])
                key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
                if (selection.site_id, key) in done:
                    return BatchRow(selection.site_id, done[selection.site_id, key], served=True)
                title, abstract = generate_metadata(messages, cfg)
                result = GeneratedMetadata(
                    title, abstract, source=f"combo{combination_id(variant, selection.heuristic)}",
                    site_id=selection.site_id, model_name=cfg.model_name)
            except Exception as exc:
                return BatchRow(selection.site_id, error=f"{type(exc).__name__}: {exc}")
            append(dumps(dict(result._asdict(), key=key)))
            return BatchRow(selection.site_id, result)

        if cfg.max_in_flight == 1:
            return [work(selection) for selection in selections]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
            return list(pool.map(work, selections))
