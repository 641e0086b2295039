"""Pipeline settings, each declared once: a NamedTuple field and its default.
Settings do not change in place; `_replace` gives a changed copy.

A YAML config file names the fields, the client's and the prices' under
`client:` and `prices:`; a key left out or empty takes its default, and an
unknown key is ignored if it holds a scalar or a section of them. The file
is read here, without PyYAML, as a mapping of two levels in the YAML that
README documents. Secrets never live in the file: the client reads its
bearer token from the environment variable named by api_key_source.

`sha256` and `shake_256` are CPython's built-in hashes, as in `random`; the
same ones from `hashlib` map OpenSSL, about 3.7 MB, which only `generate` needs.
"""

import json
import os
import re
from decimal import Decimal
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Union, get_args, get_origin, get_type_hints
from urllib.parse import urlsplit

from .errors import ConfigError

try:  # CPython's own sha256 is in _sha2 from 3.12, in _sha256 before
    from _sha3 import shake_256
    try:
        from _sha2 import sha256
    except ImportError:
        from _sha256 import sha256
except ImportError:  # a build without them
    from hashlib import sha256, shake_256

# the setting that cannot change an output, so the digest leaves it out
NOT_DIGESTED = frozenset({"api_key_source"})
# settings that name a file: it must be readable, and is digested by content
_FILES = ("tokenizer_path", "filter_rules_path")


class _ClientFields(NamedTuple):
    base_url: str = "https://api.openai.com/v1"
    model_name: str = "gpt-4o"
    api_key_source: str = "WARC2META_API_KEY"
    temperature: float = 0.0
    max_in_flight: int = 1
    max_retries: int = 3


class ClientConfig(_ClientFields):
    """Chat endpoint settings; `client.py` makes the calls. A value out of
    range is a ValueError, from the constructor and from `_replace`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.temperature <= 2.0:
            raise ValueError("temperature must be in [0, 2]")
        return self

    @classmethod
    def _make(cls, iterable):  # what _replace builds with
        return cls(*super()._make(iterable))

    def api_key(self) -> str:
        return os.environ.get(self.api_key_source, "")


class PriceConfig(NamedTuple):
    """USD per million tokens."""

    price_per_million_input: Decimal = Decimal("2.50")
    price_per_million_output: Decimal = Decimal("10.00")


class PipelineConfig(NamedTuple):
    input_dir: Path = Path(".")
    output_dir: Path = Path("out")
    heuristic: int = 2  # a heuristics.HeuristicId
    prompt_variant: str = "rules"
    client: ClientConfig = ClientConfig()
    tokenizer_path: Optional[Path] = None
    prices: PriceConfig = PriceConfig()
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
        if min(self.prices) < 0:
            raise ConfigError("prices must be >= 0")
        for name in _FILES:
            p = getattr(self, name)
            if p is not None and not Path(p).is_file():
                raise ConfigError(f"referenced file not readable: {p}")

    def digest(self) -> str:
        """Short hash of every setting but NOT_DIGESTED; the referenced
        files must be readable (validate() checks), as their contents count."""
        blob = json.dumps(_digested(self), sort_keys=True, default=str)  # Path, Decimal
        return sha256(blob.encode()).hexdigest()[:16]


def _digested(settings) -> dict:
    out = {}
    for name, value in settings._asdict().items():
        if name in NOT_DIGESTED:
            continue
        if isinstance(value, tuple):  # a section
            value = _digested(value)
        elif name in _FILES and value is not None:
            # its contents, not its name, set the outputs
            value = sha256(Path(value).read_bytes()).hexdigest()
        out[name] = value
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


def build(cls, raw, name: str):
    """The NamedTuple cls from a parsed mapping, a config section or a stage
    file's row: a key that names no field is passed over, a null or empty
    value takes its field's default, and a field without one is required; a
    field of a NamedTuple type is built from a mapping. A value must be
    of its field's type, but an int may stand for a float or an IntEnum, a
    str for a Path, and a str or a number for a Decimal."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping, got {type(raw).__name__}")
    values = {}
    for key, base, kind, required in _fields(cls):
        value = raw.get(key)
        if type(value) is base and value != "":  # most values: kept as they are
            values[key] = value
        elif required or value is not None and value != "":
            values[key] = _value(kind, value, f"{name}: {key}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@lru_cache(maxsize=None)
def _fields(cls):
    """(name, X of Optional[X] or List[X], or the type; type, required) per field."""
    hints = get_type_hints(cls)  # evaluates annotations left as strings, too
    return tuple((name, (get_args(t) or (t,))[0], t, name not in cls._field_defaults)
                 for name in cls._fields for t in [hints[name]])


def _value(kind, value, name: str):
    if get_origin(kind) is Union:  # Optional[X]
        return None if value is None else _value(get_args(kind)[0], value, name)
    if isinstance(kind, type) and issubclass(kind, tuple):  # a NamedTuple
        return build(kind, value, name)
    if get_origin(kind) is list and type(value) is list:  # of NamedTuples
        return [_value(get_args(kind)[0], v, f"{name}[{i}]") for i, v in enumerate(value)]
    if type(value) in {float: (float, int), Path: (str,), Decimal: (str, int, float)}.get(
            kind, (kind, int) if isinstance(kind, type) and issubclass(kind, int) else (kind,)):
        try:  # str() first: a float such as 2.5 is not a Decimal
            return Decimal(str(value)) if kind is Decimal else kind(value)
        except (ValueError, ArithmeticError):
            pass
    raise ConfigError(f"{name} must be {(get_origin(kind) or kind).__name__}, got {value!r}")


# The YAML a config file may use, which yaml.safe_load reads the same way: a mapping of
# one-line scalars and sections, each a mapping of one-line scalars; either may be {}.
_ESCAPE = (r"\\(?:[0abtnvfre \"/\\N_LP]|x[0-9A-Fa-f]{2}|u[0-9A-Fa-f]{4}"
           r"|U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4})")
_QUOTED = rf"""'(?:[^']|'')*'|"(?:[^"\\]|{_ESCAPE})*\""""
_PLAIN = r"""(?:[^-?:,\[\]{}#&*!|>'"%@` ]|[-?:](?=[^ ]))(?:[^: ]|:(?=[^ ])| +(?=[^ #:]|:[^ ]))*"""
_VALUE = rf"({_QUOTED}|{_PLAIN}|\{{ *\}})(?: +#.*| *)"
_KEY = rf"({_QUOTED}|{_PLAIN}) *:(?: +|$)"
_ESCAPES = dict(zip('0abtnvfre "/\\N_LP', '\0\a\b\t\n\v\f\r\x1b "/\\\x85\xa0\u2028\u2029'))
# How YAML 1.1 types a plain scalar (https://yaml.org/type/): null, a decimal
# int and a dotted float are read; a plain scalar of any other type is refused.
_TYPED = r"""(?x)(?P<none>~|null|Null|NULL)|(?P<int>[-+]?(?:0|[1-9][0-9]*))
  |(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?|\.[0-9]+(?:[eE][-+][0-9]+)?)
  |(?P<other>[yY]es|YES|[nN]o|NO|[tT]rue|TRUE|[fF]alse|FALSE|[oO]n|ON|[oO]ff|OFF|<<|=
  |[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?|[-+]?(?:0b[0-1_]+
  |0[0-7_]+|0x[0-9a-fA-F_]+|0|[1-9][0-9_]*(?::[0-5]?[0-9])*|[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*
  |[0-9][0-9_]*\.[0-9_]*(?:[eE][-+][0-9]+)?)|[0-9]{4}-(?:[0-9][0-9]-[0-9][0-9]|[0-9][0-9]?-
  [0-9][0-9]?(?:[Tt]|\ +)[0-9][0-9]?:[0-9][0-9]:[0-9][0-9](?:\.[0-9]*)?
  (?:\ *(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?))"""


def _read_yaml(text: str, path):
    """What yaml.safe_load gives for text, which must keep to the subset
    above; anything else is a ConfigError naming the line."""
    def fail(n, why="not in the YAML subset a config file may use (see README)"):
        raise ConfigError(f"{path}: line {n}: {why}")

    bad = re.search(r"[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ufffe\uffff]|^(?:---|\.\.\.)",
                    text, re.M)
    if bad:
        fail(text.count("\n", 0, bad.start()) + 1, "a tab, control character or document marker")
    lines = [(n, len(line) - len(body), body) for n, line in enumerate(text.split("\n"), 1)
             if (body := line.lstrip(" "))[:1] not in ("", "#")]  # (number, indent, text)

    def scalar(n, token):
        if token[0] in "'\"":
            return token[1:-1].replace("''", "'") if token[0] == "'" else re.sub(
                r"\\(?:x(..)|u(.{4})|U(.{8})|(.))", lambda m: _ESCAPES[m[4]] if m[4]
                else chr(int(m[m.lastindex], 16)), token[1:-1])
        m = re.fullmatch(_TYPED, token)
        if m and m["other"]:
            fail(n, f"YAML 1.1 reads plain {token} as a bool, a date or a number: quote it")
        return token if m is None else None if m["none"] else (int if m["int"] else float)(token)

    def value(n, body):
        token = (re.fullmatch(_VALUE, body) or fail(n))[1]
        return {} if token[0] == "{" else scalar(n, token)

    if not lines or not re.match(_KEY, lines[0][2]):  # no node, or a file that is one scalar
        if len(lines) > 1:
            fail(lines[1][0])
        return value(lines[0][0], lines[0][2]) if lines else None
    out, root = {}, lines[0][1]  # the mapping may be indented as a whole
    for n, indent, body in lines:
        m = re.match(_KEY, body) or fail(n)
        if len(m[0].rstrip(" ")) > 1025:
            fail(n, "a key longer than 1024 characters")
        key, rest = scalar(n, m[1]), body[m.end():]
        opens = rest[:1] in ("", "#")  # "key:", which a section's lines may follow
        item = None if opens else value(n, rest)
        if indent == root:  # inner: its section's indent, None until set, root if it has none
            out[key], section, inner = item, key, None if opens else root
        elif inner == indent or inner is None and indent > root:
            if inner is None:  # the section's first line sets its lines' indent
                out[section], inner = {}, indent
            out[section][key] = item
        else:  # a third level, or an indent of neither level
            fail(n)
    return out


def load_config(path=None, output_dir=None) -> PipelineConfig:
    """The checked settings of the YAML file at path, or the defaults
    without one; output_dir, if given, replaces the file's."""
    raw = None
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        raw = _read_yaml(raw, path)
    cfg = build(PipelineConfig, {} if raw is None else raw, str(path))
    if output_dir is not None:
        cfg = cfg._replace(output_dir=Path(output_dir))
    cfg.validate()
    return cfg
