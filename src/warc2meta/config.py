"""Pipeline settings, each declared once: a dataclass field and its default.

A YAML config file names the fields, the client's and the prices' under
`client:` and `prices:`; a key left out or empty takes its default, and an
unknown key is ignored. Secrets never live in the file: the client reads
its bearer token from the environment variable named by api_key_source.
"""

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Optional, Tuple, get_args
from urllib.parse import urlsplit

from .errors import ConfigError

# settings that cannot change an output, so the digest leaves them out
NOT_DIGESTED = frozenset({"api_key_source", "retry_backoff", "timeout"})
# settings a config file does not set
_NOT_IN_FILE = frozenset({"retry_backoff", "timeout"})
# settings that name a file: it must be readable, and is digested by content
_FILES = ("tokenizer_path", "filter_rules_path")


@dataclass(frozen=True)
class ClientConfig:
    """Chat endpoint settings; `client.py` makes the calls."""

    base_url: str = "https://api.openai.com/v1"
    model_name: str = "gpt-4o"
    api_key_source: str = "WARC2META_API_KEY"
    temperature: float = 0.0
    max_in_flight: int = 1
    max_retries: int = 3
    retry_backoff: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    timeout: float = 60.0

    def __post_init__(self):
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")

    def api_key(self) -> str:
        return os.environ.get(self.api_key_source, "")


@dataclass(frozen=True)
class PriceConfig:
    """USD per million tokens."""

    price_per_million_input: Decimal = Decimal("2.50")
    price_per_million_output: Decimal = Decimal("10.00")


@dataclass
class PipelineConfig:
    input_dir: Path = Path(".")
    output_dir: Path = Path("out")
    heuristic: int = 2  # a heuristics.HeuristicId
    prompt_variant: str = "rules"
    client: ClientConfig = field(default_factory=ClientConfig)
    tokenizer_path: Optional[Path] = None
    prices: PriceConfig = field(default_factory=PriceConfig)
    filter_rules_path: Optional[Path] = None
    min_chars: int = 30
    max_content_tokens: int = 8000
    embedding_base_url: Optional[str] = None
    embedding_model: Optional[str] = None

    def validate(self):
        """Raise ConfigError for the first setting a stage would fail on."""
        if self.heuristic not in (1, 2, 3):
            raise ConfigError(f"heuristic must be 1, 2 or 3, got {self.heuristic}")
        if self.prompt_variant not in ("rules", "norules"):
            raise ConfigError(f"prompt_variant must be rules|norules, got {self.prompt_variant}")
        _check_http_url("client.base_url", self.client.base_url)
        if self.embedding_base_url is not None:
            _check_http_url("embedding_base_url", self.embedding_base_url)
        if min(dataclasses.astuple(self.prices)) < 0:
            raise ConfigError("prices must be >= 0")
        for name in _FILES:
            p = getattr(self, name)
            if p is not None and not Path(p).is_file():
                raise ConfigError(f"referenced file not readable: {p}")

    def digest(self) -> str:
        """Short hash of every setting but NOT_DIGESTED; the referenced
        files must be readable (validate() checks), as their contents count."""
        blob = json.dumps(_digested(self), sort_keys=True, default=str)  # Path, Decimal
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _digested(settings) -> dict:
    out = {}
    for f in dataclasses.fields(settings):
        if f.name in NOT_DIGESTED:
            continue
        value = getattr(settings, f.name)
        if dataclasses.is_dataclass(value):
            value = _digested(value)
        elif f.name in _FILES and value is not None:
            # its contents, not its name, set the outputs
            value = hashlib.sha256(Path(value).read_bytes()).hexdigest()
        out[f.name] = value
    return out


def _check_http_url(name: str, url) -> None:
    try:
        parts = urlsplit(url)
        ok = parts.scheme in ("http", "https") and bool(parts.hostname)
        parts.port  # raises on a port that is not a number in range
    except (TypeError, AttributeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be an http or https URL with a host, got {url!r}")


def _build(cls, raw, name: str):
    """cls from a parsed YAML mapping: each value converted to its field's type."""
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(raw).__name__}")
    values = {}
    for f in dataclasses.fields(cls):
        value = raw.get(f.name)
        if value is None or value == "" or f.name in _NOT_IN_FILE:
            continue
        kind = (get_args(f.type) or (f.type,))[0]  # Optional[X] -> X
        if dataclasses.is_dataclass(kind):
            values[f.name] = _build(kind, value, f"{name}: {f.name}")
            continue
        try:  # str() first: a YAML float such as 2.5 is not a Decimal
            values[f.name] = kind(str(value)) if kind is Decimal else kind(value)
        except (ValueError, TypeError, ArithmeticError):
            raise ConfigError(f"{name}: {f.name} must be {kind.__name__}, got {value!r}") from None
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(path=None, output_dir=None) -> PipelineConfig:
    """The checked settings of the YAML file at path, or the defaults
    without one; output_dir, if given, replaces the file's."""
    raw = None
    if path is not None:
        import yaml  # only a config file needs PyYAML

        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    cfg = _build(PipelineConfig, raw, str(path))
    if output_dir is not None:
        cfg.output_dir = Path(output_dir)
    cfg.validate()
    return cfg
