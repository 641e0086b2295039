"""OpenAI-compatible chat-completion client with JSON-constrained output.

Requests default to strictly sequential issuance (max_in_flight=1) to
stay inside API rate limits; a bounded in-flight window enables
parallelism where limits allow. Batches checkpoint after every
completed site so an interrupted run resumes without re-requesting.
requests is imported where a session is opened, so only the stages
that call the API load it.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import ApiError, RateLimited, SchemaViolation
from .heuristics import HeuristicId, Selection
from .prompts import PromptVariant, Variant, build_prompt

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
        return json.dumps(
            {
                "site_id": self.site_id,
                "source": self.source,
                "title": self.title,
                "abstract": self.abstract,
                "model_name": self.model_name,
            },
            ensure_ascii=False,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "GeneratedMetadata":
        obj = json.loads(line)
        return cls(
            title=obj["title"],
            abstract=obj["abstract"],
            source=obj["source"],
            site_id=obj["site_id"],
            model_name=obj.get("model_name"),
        )


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


@dataclass
class BatchRow:
    site_id: str
    result: Optional[GeneratedMetadata] = None
    error: Optional[str] = None

    def to_json(self) -> str:
        obj = {"site_id": self.site_id}
        if self.result is not None:
            obj.update(json.loads(self.result.to_json()))
        if self.error is not None:
            obj["error"] = self.error
        return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def _load_checkpoint(path) -> Dict[str, BatchRow]:
    done = {}
    if path is None or not os.path.exists(path):
        return done
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            row = BatchRow(site_id=obj["site_id"], error=obj.get("error"))
            if "title" in obj:
                row.result = GeneratedMetadata.from_json(line)
            done[row.site_id] = row
    return done


def run_batch(
    items: Sequence[Tuple[str, Selection]],
    variant: PromptVariant,
    cfg: ClientConfig,
    checkpoint_path=None,
) -> List[BatchRow]:
    """Generate metadata for (site_id, selection) pairs, preserving order.

    Per-item failures become error rows; nothing aborts the batch.
    """
    import requests

    done = _load_checkpoint(checkpoint_path)
    lock = threading.Lock()
    ckpt_fh = open(checkpoint_path, "a", encoding="utf-8") if checkpoint_path else None

    def work(item) -> BatchRow:
        site_id, selection = item
        if site_id in done:
            return done[site_id]
        session = requests.Session()
        try:
            row = BatchRow(
                site_id=site_id,
                result=generate_metadata(selection, variant, cfg, site_id, session),
            )
        except Exception as exc:
            row = BatchRow(site_id=site_id, error=f"{type(exc).__name__}: {exc}")
        finally:
            session.close()
        if ckpt_fh is not None:
            with lock:
                ckpt_fh.write(row.to_json() + "\n")
                ckpt_fh.flush()
        return row

    try:
        if cfg.max_in_flight == 1:
            rows = [work(item) for item in items]
        else:
            with ThreadPoolExecutor(max_workers=cfg.max_in_flight) as pool:
                rows = list(pool.map(work, items))
    finally:
        if ckpt_fh is not None:
            ckpt_fh.close()
    return rows
