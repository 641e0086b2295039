"""OpenAI-compatible chat-completion client with JSON-constrained output.

Requests default to strictly sequential issuance (max_in_flight=1) to
stay inside API rate limits; a bounded in-flight window enables
parallelism where limits allow. Batches checkpoint after every
completed site, keyed by the request, so an interrupted run resumes
without asking again for a reply it already holds. requests is imported
where a session is opened, so only the stages that call the API load it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import ApiError, RateLimited, SchemaViolation
from .heuristics import HeuristicId, Selection
from .prompts import PromptVariant, Variant, build_prompt
from .store import dumps, jsonl_writer, read_jsonl

if TYPE_CHECKING:
    import requests


def combination_id(variant: PromptVariant, heuristic: HeuristicId) -> int:
    """Stable 0..5 numbering: heuristic-major, with-rules before without."""
    return 2 * (int(heuristic) - 1) + (0 if variant.variant == Variant.WITH_RULES else 1)


@dataclass(frozen=True)
class GeneratedMetadata:
    title: str
    abstract: str
    source: str  # "human" or "combo<N>"
    site_id: str
    model_name: Optional[str] = None

    def to_json(self) -> str:
        return dumps(vars(self))

    @classmethod
    def from_json(cls, obj) -> "GeneratedMetadata":
        """From a parsed generated row."""
        return cls(obj["title"], obj["abstract"], obj["source"], obj["site_id"],
                   obj.get("model_name"))


@dataclass(frozen=True)
class ClientConfig:
    base_url: str
    model_name: str
    api_key_source: str = "WARC2META_API_KEY"
    temperature: float = 0.0
    max_in_flight: int = 1
    max_retries: int = 3
    retry_backoff: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    timeout: float = 60.0

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")

    def api_key(self) -> str:
        return os.environ.get(self.api_key_source, "")


_JSON_BLOB_RE = re.compile(r"\{.*\}", re.S)


def _parse_reply(content: str) -> Dict[str, str]:
    """Extract {title, abstract} from the model reply or raise SchemaViolation."""
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
    title = obj.get("title")
    abstract = obj.get("abstract")
    if not isinstance(title, str) or not title.strip():
        raise SchemaViolation("missing or empty 'title'")
    if not isinstance(abstract, str) or not abstract.strip():
        raise SchemaViolation("missing or empty 'abstract'")
    return {"title": title, "abstract": abstract}


def _post_chat(
    messages: List[Dict[str, str]], cfg: ClientConfig, session: requests.Session
) -> str:
    body = {
        "model": cfg.model_name,
        "messages": messages,
        "temperature": cfg.temperature,
        "response_format": {"type": "json_object"},
    }
    headers = {"Content-Type": "application/json"}
    key = cfg.api_key()
    if key:
        headers["Authorization"] = f"Bearer {key}"
    attempts = 0
    while True:
        resp = session.post(
            cfg.base_url.rstrip("/") + "/chat/completions",
            json=body,
            headers=headers,
            timeout=cfg.timeout,
        )
        if resp.status_code == 429:
            if attempts >= cfg.max_retries:
                raise RateLimited(f"429 after {attempts} retries")
            try:
                delay = float(resp.headers.get("Retry-After"))
            except (TypeError, ValueError):  # absent or not a number of seconds
                delay = cfg.retry_backoff[min(attempts, len(cfg.retry_backoff) - 1)]
            time.sleep(delay)
            attempts += 1
            continue
        if resp.status_code != 200:
            raise ApiError(resp.status_code, resp.text)
        payload = resp.json()
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ApiError(resp.status_code, f"malformed completion body: {exc}")


def generate_metadata(
    selection: Selection,
    variant: PromptVariant,
    cfg: ClientConfig,
    site_id: str,
    session: Optional[requests.Session] = None,
) -> GeneratedMetadata:
    """One chat completion, re-asked with the parse error on schema failures."""
    if session is None:
        import requests

        session = requests.Session()
    messages = build_prompt(variant, selection.content, selection.chosen_url.url)
    last_error: Optional[SchemaViolation] = None
    for _ in range(cfg.max_retries + 1):
        reply = _post_chat(messages, cfg, session)
        try:
            parsed = _parse_reply(reply)
        except SchemaViolation as exc:
            last_error = exc
            messages = messages + [
                {"role": "assistant", "content": reply},
                {
                    "role": "user",
                    "content": (
                        f"Your previous reply was not valid: {exc}. "
                        "Return only the JSON object "
                        "{'title': ..., 'abstract': ...}."
                    ),
                },
            ]
            continue
        return GeneratedMetadata(
            title=parsed["title"],
            abstract=parsed["abstract"],
            source=f"combo{combination_id(variant, selection.heuristic)}",
            site_id=site_id,
            model_name=cfg.model_name,
        )
    raise last_error


def request_key(variant: PromptVariant, selection: Selection, cfg: ClientConfig) -> str:
    """sha256 of the chat request for a selection: messages, model, temperature."""
    messages = build_prompt(variant, selection.content, selection.chosen_url.url)
    blob = dumps([messages, cfg.model_name, cfg.temperature])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class BatchRow:
    site_id: str
    result: Optional[GeneratedMetadata] = None
    error: Optional[str] = None
    key: Optional[str] = None  # request_key of result

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
    items: Sequence[Tuple[str, Selection]],
    variant: PromptVariant,
    cfg: ClientConfig,
    checkpoint_path=None,
) -> List[BatchRow]:
    """Generate metadata for (site_id, selection) pairs, preserving order.

    Per-item failures become error rows; nothing aborts the batch. Each
    row is appended to the checkpoint as it completes. A checkpointed
    reply is served only while its site's request_key is unchanged; a
    changed request, an error row or a row without a key is asked again.
    """
    import requests

    done = {}
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        # only replies carry a key; error rows and unkeyed rows are left out
        done = {o["site_id"]: o for o in read_jsonl(checkpoint_path) if "key" in o}
    lock = threading.Lock()
    ckpt = jsonl_writer(checkpoint_path, append=True) if checkpoint_path else nullcontext()
    with ckpt as write:

        def work(item) -> BatchRow:
            site_id, selection = item
            try:
                hit = done.get(site_id)
                if hit and hit["key"] == request_key(variant, selection, cfg):
                    return BatchRow(site_id, GeneratedMetadata.from_json(hit))
                with requests.Session() as session:
                    result = generate_metadata(selection, variant, cfg, site_id, session)
                row = BatchRow(site_id, result, key=request_key(variant, selection, cfg))
            except Exception as exc:
                row = BatchRow(site_id=site_id, error=f"{type(exc).__name__}: {exc}")
            if write is not None:
                with lock:
                    write(row.to_json(checkpoint=True))
            return row

        if cfg.max_in_flight == 1:
            return [work(item) for item in items]
        with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
            return list(pool.map(work, items))
