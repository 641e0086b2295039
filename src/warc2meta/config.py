"""Pipeline configuration loaded from a YAML file.

Secrets never live in the file: the client reads its bearer token from
the environment variable named by api_key_source.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Optional, Tuple
from urllib.parse import urlsplit

import yaml

from .errors import ConfigError
from .heuristics import HeuristicId
from .tokens import PriceConfig


@dataclass(frozen=True)
class ClientConfig:
    """Chat endpoint settings; `client.py` makes the calls."""

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


@dataclass
class PipelineConfig:
    input_dir: Path
    output_dir: Path
    heuristic: HeuristicId = HeuristicId.SHORTEST_URL
    prompt_variant: str = "rules"
    client: ClientConfig = field(
        default_factory=lambda: ClientConfig(
            base_url="https://api.openai.com/v1", model_name="gpt-4o"
        )
    )
    tokenizer_path: Optional[Path] = None
    prices: PriceConfig = field(
        default_factory=lambda: PriceConfig(
            price_per_million_input=Decimal("2.50"),
            price_per_million_output=Decimal("10.00"),
        )
    )
    filter_rules_path: Optional[Path] = None
    min_chars: int = 30
    max_content_tokens: int = 8000
    embedding_base_url: Optional[str] = None
    embedding_model: Optional[str] = None

    def validate(self):
        for p in (self.tokenizer_path, self.filter_rules_path):
            if p is not None and not Path(p).is_file():
                raise ConfigError(f"referenced file not readable: {p}")

    def digest(self) -> str:
        """Short hash of every setting that can change a stage's outputs.

        The referenced tokenizer and filter-rule files must be readable
        (validate() checks that), since their contents are hashed.
        """
        blob = json.dumps(
            {
                "input_dir": str(self.input_dir),
                "output_dir": str(self.output_dir),
                "heuristic": int(self.heuristic),
                "prompt_variant": self.prompt_variant,
                "model": self.client.model_name,
                "base_url": self.client.base_url,
                "temperature": self.client.temperature,
                "max_retries": self.client.max_retries,
                "max_in_flight": self.client.max_in_flight,
                "tokenizer_sha256": _file_sha256(self.tokenizer_path),
                "filter_rules_sha256": _file_sha256(self.filter_rules_path),
                "price_per_million_input": self.prices.price_per_million_input,
                "price_per_million_output": self.prices.price_per_million_output,
                "min_chars": self.min_chars,
                "max_content_tokens": self.max_content_tokens,
                "embedding_base_url": self.embedding_base_url,
                "embedding_model": self.embedding_model,
            },
            sort_keys=True,
            default=str,  # Path and Decimal values
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _file_sha256(path: Optional[Path]) -> Optional[str]:
    """Hash of a referenced file's bytes: its contents, not its name, set the outputs."""
    if path is None:
        return None
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_http_url(name: str, url) -> None:
    try:
        parts = urlsplit(url)
        ok = parts.scheme in ("http", "https") and bool(parts.hostname)
        parts.port  # raises on a port that is not a number in range
    except (TypeError, AttributeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be an http or https URL with a host, got {url!r}")


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    try:
        client_raw = raw.get("client", {})
        client = ClientConfig(
            base_url=client_raw.get("base_url", "https://api.openai.com/v1"),
            model_name=client_raw.get("model_name", "gpt-4o"),
            api_key_source=client_raw.get("api_key_source", "WARC2META_API_KEY"),
            temperature=float(client_raw.get("temperature", 0.0)),
            max_in_flight=int(client_raw.get("max_in_flight", 1)),
            max_retries=int(client_raw.get("max_retries", 3)),
        )
        prices_raw = raw.get("prices", {})
        prices = PriceConfig(
            price_per_million_input=Decimal(
                str(prices_raw.get("price_per_million_input", "2.50"))
            ),
            price_per_million_output=Decimal(
                str(prices_raw.get("price_per_million_output", "10.00"))
            ),
        )
        cfg = PipelineConfig(
            input_dir=Path(raw.get("input_dir", ".")),
            output_dir=Path(raw.get("output_dir", "out")),
            heuristic=HeuristicId(int(raw.get("heuristic", 2))),
            prompt_variant=str(raw.get("prompt_variant", "rules")),
            client=client,
            tokenizer_path=Path(raw["tokenizer_path"])
            if raw.get("tokenizer_path")
            else None,
            prices=prices,
            filter_rules_path=Path(raw["filter_rules_path"])
            if raw.get("filter_rules_path")
            else None,
            min_chars=int(raw.get("min_chars", 30)),
            max_content_tokens=int(raw.get("max_content_tokens", 8000)),
            embedding_base_url=raw.get("embedding_base_url"),
            embedding_model=raw.get("embedding_model"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.prompt_variant not in ("rules", "norules"):
        raise ConfigError(f"prompt_variant must be rules|norules, got {cfg.prompt_variant}")
    _check_http_url("client.base_url", cfg.client.base_url)
    if cfg.embedding_base_url is not None:
        _check_http_url("embedding_base_url", cfg.embedding_base_url)
    return cfg
