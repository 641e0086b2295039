import hashlib
import math
import random
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

from warc2meta.config import (
    NOT_DIGESTED,
    ClientConfig,
    PipelineConfig,
    PriceConfig,
    build,
    _read_yaml,
    load_config,
    sha256,
    shake_256,
)
from warc2meta.errors import ConfigError

from helpers import run_cli


@pytest.fixture(autouse=True)
def referenced_files(tmp_path, monkeypatch):
    """The rank table and filter rules the settings below name, in the cwd."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ranks.tiktoken").write_text("YWI= 0\n")
    (tmp_path / "rules.tsv").write_text("footer\tAll rights reserved\t\n")


def _config():
    return PipelineConfig(input_dir=Path("crawls"), output_dir=Path("out"))


def _with_client(**changes):
    return lambda cfg: cfg._replace(client=cfg.client._replace(**changes))


def _with_prices(**changes):
    return lambda cfg: cfg._replace(prices=cfg.prices._replace(**changes))


# each returns a changed copy of the settings it is given
OUTPUT_SETTINGS = {
    "tokenizer_path": lambda cfg: cfg._replace(tokenizer_path=Path("ranks.tiktoken")),
    "filter_rules_path": lambda cfg: cfg._replace(filter_rules_path=Path("rules.tsv")),
    "price_per_million_input": _with_prices(price_per_million_input=Decimal("3.00")),
    "price_per_million_output": _with_prices(price_per_million_output=Decimal("12.00")),
    "embedding_base_url": lambda cfg: cfg._replace(embedding_base_url="http://127.0.0.1:9/v1"),
    "embedding_model": lambda cfg: cfg._replace(embedding_model="embed-small"),
    "max_retries": _with_client(max_retries=5),
    "max_in_flight": _with_client(max_in_flight=4),
}

# a valid value other than the default, for every setting
OTHER_VALUES = {
    "input_dir": Path("crawls-2024"),
    "output_dir": Path("out-2024"),
    "heuristic": 3,
    "prompt_variant": "norules",
    "client": ClientConfig(model_name="gpt-4o-mini"),
    "tokenizer_path": Path("ranks.tiktoken"),
    "prices": PriceConfig(Decimal("0.15"), Decimal("0.60")),
    "filter_rules_path": Path("rules.tsv"),
    "min_chars": 50,
    "max_content_tokens": 4000,
    "embedding_base_url": "http://127.0.0.1:9/v1",
    "embedding_model": "embed-small",
    "base_url": "http://127.0.0.1:8000/v1",
    "model_name": "gpt-4o-mini",
    "api_key_source": "OTHER_API_KEY",
    "temperature": 0.7,
    "max_in_flight": 4,
    "max_retries": 5,
    "price_per_million_input": Decimal("3.00"),
    "price_per_million_output": Decimal("12.00"),
}
# (section, name) of every field; section None for PipelineConfig's own
SETTINGS = [
    (section, name)
    for cls, section in ((PipelineConfig, None), (ClientConfig, "client"), (PriceConfig, "prices"))
    for name in cls._fields
]


def _changed(section, name):
    cfg = _config()
    if section is None:
        return cfg._replace(**{name: OTHER_VALUES[name]})
    return cfg._replace(**{section: getattr(cfg, section)._replace(**{name: OTHER_VALUES[name]})})


class TestDigest:
    @pytest.mark.parametrize("section, name", SETTINGS, ids=[name for _, name in SETTINGS])
    def test_every_setting_digested_unless_excluded(self, section, name):
        cfg = _changed(section, name)
        cfg.validate()
        assert cfg != _config()
        assert (cfg.digest() != _config().digest()) == (name not in NOT_DIGESTED)

    @pytest.mark.parametrize("change", OUTPUT_SETTINGS.values(), ids=OUTPUT_SETTINGS)
    def test_output_setting_changes_digest(self, change):
        cfg = change(_config())
        assert cfg.digest() != _config().digest()

    @pytest.mark.parametrize("field, name, rewritten", [
        ("tokenizer_path", "ranks.tiktoken", "YWI= 0\nYmM= 1\n"),
        ("filter_rules_path", "rules.tsv", "footer\tCopyright\t\n"),
    ])
    def test_file_rewritten_in_place_changes_digest(self, field, name, rewritten):
        cfg = _config()._replace(**{field: Path(name)})
        before = cfg.digest()
        Path(name).write_text(rewritten)
        assert cfg.digest() != before

    def test_worker_count_key_ignored(self):
        """A config naming the removed ingest pool size still loads, to the same digest."""
        Path("old.yaml").write_text("input_dir: crawls\noutput_dir: out\nworker_count: 2\n")
        Path("new.yaml").write_text("input_dir: crawls\noutput_dir: out\n")
        assert load_config("old.yaml").digest() == load_config("new.yaml").digest()


class TestEndpointUrls:
    """Endpoint URLs are checked when the config loads, before any stage runs."""

    @pytest.mark.parametrize("url", [
        "ftp://api.example.com/v1",
        "api.example.com/v1",
        "http:///v1",
        "https://api.example.com:port/v1",
        7,
    ])
    @pytest.mark.parametrize("key", ["base_url", "embedding_base_url"])
    def test_not_http_url_rejected(self, url, key):
        raw = {"client": {"base_url": url}} if key == "base_url" else {key: url}
        Path("cfg.yaml").write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=key):
            load_config("cfg.yaml")

    def test_http_and_https_accepted(self):
        Path("cfg.yaml").write_text(yaml.safe_dump({
            "client": {"base_url": "http://127.0.0.1:8000/v1"},
            "embedding_base_url": "https://[::1]:8443/v1",
        }))
        cfg = load_config("cfg.yaml")
        assert cfg.client.base_url == "http://127.0.0.1:8000/v1"
        assert cfg.embedding_base_url == "https://[::1]:8443/v1"


class TestLoad:
    def test_every_file_key_sets_its_setting(self):
        """The 18 keys a file can set."""
        leaves = [(section, name) for section, name in SETTINGS
                  if name not in ("client", "prices")]
        raw = {}
        for section, name in leaves:
            value = OTHER_VALUES[name]
            if isinstance(value, (Path, Decimal)):
                value = str(value)
            (raw.setdefault(section, {}) if section else raw)[name] = value
        Path("cfg.yaml").write_text(yaml.safe_dump(raw))
        cfg = load_config("cfg.yaml")
        assert len(leaves) == 18
        for section, name in leaves:
            assert getattr(getattr(cfg, section) if section else cfg, name) == OTHER_VALUES[name]

    def test_no_file_takes_defaults(self):
        assert load_config() == PipelineConfig()
        assert load_config(output_dir="elsewhere").output_dir == Path("elsewhere")

    @pytest.mark.parametrize("text", ["", "client:\n", "prices:\n", "client:\nprices: {}\n"])
    def test_empty_file_or_section_takes_defaults(self, text):
        Path("cfg.yaml").write_text(text)
        assert load_config("cfg.yaml") == PipelineConfig()

    @pytest.mark.parametrize("text, name", [
        ("just words\n", "cfg.yaml"),
        ("client: 7\n", "cfg.yaml: client"),
        ("prices: gratis\n", "cfg.yaml: prices"),
    ])
    def test_not_a_mapping_rejected(self, text, name):
        Path("cfg.yaml").write_text(text)
        with pytest.raises(ConfigError, match=f"^{name} must be a mapping"):
            load_config("cfg.yaml")

    @pytest.mark.parametrize("text, match", [
        ("heuristic: 4\n", "heuristic"),
        ("prompt_variant: terse\n", "prompt_variant"),
        ("min_chars: many\n", "min_chars"),
        ("client:\n  temperature: 3\n", "temperature"),
        ("client:\n  max_in_flight: 0\n", "max_in_flight"),
        ("client:\n  max_retries: -1\n", "max_retries"),
        ("prices:\n  price_per_million_input: cheap\n", "price_per_million_input"),
        ("prices:\n  price_per_million_input: -1\n", "prices"),
        ("prices:\n  price_per_million_output: -1\n", "prices"),
    ])
    def test_bad_value_rejected(self, text, match):
        Path("cfg.yaml").write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config("cfg.yaml")

    @pytest.mark.parametrize("text, message", [
        ("min_chars: 1.9\n", "min_chars must be int, got 1.9"),  # was read as 1
        ("heuristic: 2.7\n", "heuristic must be int, got 2.7"),  # was read as 2
        ("client:\n  model_name: 4\n", "client: model_name must be str, got 4"),
        ('min_chars: "30"\n', "min_chars must be int, got '30'"),
        ("input_dir: 5\n", "input_dir must be Path, got 5"),
        ("prices:\n  price_per_million_input: {}\n",
         "prices: price_per_million_input must be Decimal, got {}"),
    ])
    def test_value_of_another_type_rejected(self, text, message):
        Path("cfg.yaml").write_text(text)
        with pytest.raises(ConfigError) as caught:
            load_config("cfg.yaml")
        assert str(caught.value) == f"cfg.yaml: {message}"

    def test_int_for_float_and_str_or_number_for_decimal_accepted(self):
        Path("cfg.yaml").write_text("client:\n  temperature: 1\nprices:\n"
                                    "  price_per_million_input: 3\n"
                                    "  price_per_million_output: 0.5\n")
        cfg = load_config("cfg.yaml")
        assert cfg.client.temperature == 1.0 and type(cfg.client.temperature) is float
        assert (cfg.prices.price_per_million_input, cfg.prices.price_per_million_output) == (
            Decimal("3"), Decimal("0.5"))

    @pytest.mark.parametrize("name, value", [
        ("max_in_flight", 0), ("temperature", 3.0), ("max_retries", -1)])
    def test_changed_copy_checked(self, name, value):
        """_replace checks a client setting as the constructor does."""
        with pytest.raises(ValueError, match=name):
            ClientConfig()._replace(**{name: value})
        with pytest.raises(ValueError, match=name):
            ClientConfig(**{name: value})
        assert ClientConfig()._replace(max_in_flight=4) == ClientConfig(max_in_flight=4)

    def test_negative_max_retries_rejected_before_any_stage(self):
        with pytest.raises(ValueError, match="max_retries"):
            ClientConfig(max_retries=-1)
        Path("cfg.yaml").write_text("output_dir: out\nclient:\n  max_retries: -1\n")
        result = run_cli(["--config", "cfg.yaml", "ingest", "--input", "."])
        assert result.exit_code == 1
        assert "Error: ConfigError: cfg.yaml: client: max_retries must be >= 0" in result.output
        assert not Path("out").exists()


def test_readme_configuration_block_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    Path("cfg.yaml").write_text(block)
    cfg = load_config("cfg.yaml")
    assert cfg == PipelineConfig()
    assert cfg.digest() == PipelineConfig().digest()


# PyYAML is the reader's oracle: load_config must give what build and
# validate() give for yaml.safe_load's reading of the same file.
def _oracle(text):
    try:
        cfg = build(PipelineConfig, yaml.safe_load(text), "cfg.yaml")
        cfg.validate()
        return cfg, cfg.digest()
    except ConfigError as exc:
        return str(exc)


def _loaded():
    try:
        cfg = load_config("cfg.yaml")
        return cfg, cfg.digest()
    except ConfigError as exc:
        return str(exc)


# one-line text: a line break in a string makes safe_dump write it over several lines
_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\x85\u2028\u2029")
_TEXT = st.text(_CHARS, max_size=12)
_KEYS = st.text(_CHARS, min_size=1, max_size=12)  # safe_dump writes "" as a complex "? " key
_SCALARS = (st.none() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
            | _TEXT | st.sampled_from(["", "true", "0x1F", "1_000", "2024-01-01", "1e5", ".inf"]))
# a valid value for each setting a file sets, as a YAML scalar
_VALID = {name: str(value) if isinstance(value, (Path, Decimal)) else value
          for name, value in OTHER_VALUES.items()
          if not isinstance(value, (tuple, ClientConfig, PriceConfig))}


def _mostly(good, other):
    """good three times in four, else other ("|" would weigh each scalar kind as one)."""
    return st.integers(0, 3).flatmap(lambda k: good if k else other)


def _section(cls):
    """Some of cls's settings, mostly valid, else any scalar, and some unknown keys."""
    known = st.fixed_dictionaries({}, optional={
        name: _mostly(st.just(_VALID[name]), _SCALARS) if name in _VALID else _SCALARS
        for name in cls._fields if name not in ("client", "prices")})
    unknown = st.dictionaries(_KEYS, _SCALARS, max_size=2)
    return st.tuples(unknown, known).map(lambda parts: {**parts[0], **parts[1]})


_CONFIGS = st.tuples(
    _section(PipelineConfig),
    st.fixed_dictionaries({}, optional={"client": _mostly(_section(ClientConfig), _SCALARS),
                                        "prices": _mostly(_section(PriceConfig), _SCALARS)}),
    st.dictionaries(_KEYS, _section(PriceConfig), max_size=1),  # an unknown section
).map(lambda parts: {**parts[2], **parts[0], **parts[1]})


class TestReaderAgainstPyYAML:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=_CONFIGS, allow_unicode=st.booleans())
    def test_dumped_config_loads_as_pyyaml_reads_it(self, raw, allow_unicode):
        """Every config safe_dump writes on one line per key loads to the same
        settings and digest, or fails with the same message."""
        text = yaml.safe_dump(raw, width=math.inf, allow_unicode=allow_unicode)
        Path("cfg.yaml").write_text(text, encoding="utf-8")
        assert _loaded() == _oracle(text)

    @pytest.mark.parametrize("text, line", [
        ("client: {base_url: x}\n", 1),                      # flow mapping with content
        ("a: &anchor x\nb: *anchor\n", 1),                   # anchor
        ("b: *anchor\n", 1),                                 # alias
        ("input_dir: !!str crawls\n", 1),                    # tag
        ("prompt_variant: |\n  rules\n", 1),                 # block scalars
        ("prompt_variant: >-\n  rules\n", 1),
        ("client:\n  model_name: gpt\n    4o\n", 3),         # multi-line scalars
        ("prompt_variant: 'ru\n  les'\n", 1),
        ('prompt_variant: "ru\n  les"\n', 1),
        ("min_chars: 30\n? complex key\n", 2),
        ("client:\n  max_retries: true\n", 2),               # bools
        ("heuristic: yes\n", 1),
        ("embedding_model: off\n", 1),
        ("input_dir: 2024-01-01\n", 1),                      # timestamp
        ("input_dir: 2001-12-14 21:59:43.10 -5\n", 1),
        ("min_chars: 0x1E\n", 1),                            # hex, octal, binary ints
        ("min_chars: 036\n", 1),
        ("min_chars: 0b11110\n", 1),
        ("min_chars: 1:30\n", 1),                            # sexagesimal
        ("max_content_tokens: 8_000\n", 1),                  # underscored
        ("prices:\n  price_per_million_input: 2_500.0\n", 2),
        ("client:\n  temperature: .inf\n", 2),               # inf and nan
        ("client:\n  temperature: -.Inf\n", 2),
        ("client:\n  temperature: .nan\n", 2),
        ("--- \ninput_dir: crawls\n", 1),                    # document markers
        ("input_dir: crawls\n...\n", 2),
        ("input_dir:\tcrawls\n", 1),                         # a tab
        ('input_dir: "\\q"\n', 1),                           # an unknown escape
        ("input_dir: crawls#: x\n", 1),                      # ": " inside a plain scalar
        ("input_dir: cr\x85awls\n", 1),                      # a NEL line break, a C1 control
        ("input_dir: cr\x9fawls\n", 1),
        ("- input_dir: crawls\n", 1),                        # block sequences
        ("notes:\n- x\n", 2),
        pytest.param("- " * 1200 + "x\n", 1, id="sequence-of-sequences"),
        ("client: [base_url]\n", 1),                         # flow lists
        ("heuristic: [2]\n", 1),
        ("client:\n  retry:\n    max: 3\n", 3),              # a third level
        pytest.param("".join(" " * depth + "k:\n" for depth in range(1200)), 3,
                     id="staircase-of-keys"),
        ("min_chars:\n  30\n", 2),                           # a value below its key
    ])
    def test_outside_the_subset_rejected_naming_file_and_line(self, text, line):
        Path("cfg.yaml").write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^cfg\.yaml: line {line}: "):
            load_config("cfg.yaml")
        result = run_cli(["--config", "cfg.yaml", "select"])
        assert result.exit_code == 1 and result.output.count("\n") == 1
        assert result.output.startswith(f"Error: ConfigError: cfg.yaml: line {line}: ")

    def test_key_of_1024_characters_at_most(self):
        """PyYAML allows a key's colon at most 1024 characters from its start."""
        Path("cfg.yaml").write_text("k" * 1023 + " : 1\n")
        assert yaml.safe_load(Path("cfg.yaml").read_text()) == {"k" * 1023: 1}
        assert load_config("cfg.yaml") == PipelineConfig()
        Path("cfg.yaml").write_text("k" * 1024 + " : 1\n")
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(Path("cfg.yaml").read_text())
        with pytest.raises(ConfigError, match=r"^cfg\.yaml: line 1: "):
            load_config("cfg.yaml")

    @pytest.mark.parametrize("text", ["max_retries: true", "heuristic: 0x2", "min_chars: 1_0"])
    def test_typed_plain_scalar_asks_to_be_quoted(self, text):
        Path("cfg.yaml").write_text(text)
        with pytest.raises(ConfigError, match="quote it"):
            load_config("cfg.yaml")

    def test_bom_and_crlf_line_ends(self):
        Path("cfg.yaml").write_bytes(
            b"\xef\xbb\xbfinput_dir: crawls\r\nclient:\r\n  model_name: m # note\r\n")
        cfg = load_config("cfg.yaml")
        assert (cfg.input_dir, cfg.client.model_name) == (Path("crawls"), "m")
        assert (cfg, cfg.digest()) == _oracle(Path("cfg.yaml").read_text(encoding="utf-8"))

    def test_file_not_utf8_rejected(self):
        Path("cfg.yaml").write_bytes(b"input_dir: cr\xffawls\n")
        with pytest.raises(ConfigError, match=r"^cfg\.yaml: .*codec can't decode"):
            load_config("cfg.yaml")

    @pytest.mark.parametrize("text, raw", [
        ("a: 'it''s'\nb: \"\\x41\\u00e9\\t\\\\\"\nc: ~\nd: -7\ne: 1.\nf: .5\ng: 1e5\n",
         {"a": "it's", "b": "A\u00e9\t\\", "c": None, "d": -7, "e": 1.0, "f": 0.5, "g": "1e5"}),
        ("a: {}\nb:\n  c: {}\n", {"a": {}, "b": {"c": {}}}),
        ("url: http://h:8/v1#x\nk y : v:w #c\n", {"url": "http://h:8/v1#x", "k y": "v:w"}),
        ('e: "\\0\\a\\b\\t\\n\\v\\f\\r\\e\\ \\"\\/\\\\\\N\\_\\L\\P\\x41\\u00e9\\U0001F600"\n',
         {"e": "\0\a\b\t\n\v\f\r\x1b \"/\\\x85\xa0\u2028\u2029A\u00e9\U0001F600"}),
    ])
    def test_subset_reads_as_pyyaml_does(self, text, raw):
        assert yaml.safe_load(text) == raw
        assert _read_yaml(text, "cfg.yaml") == raw


# lines built from YAML's indicators, for the reader to read as PyYAML does or refuse
_ATOMS = st.sampled_from([
    "a", "x y", "1", "-1", "1.5", ".5", "-.5", "1e5", "~", "null", "true", "0x1f", "1_0", "1:30",
    "'q'", "'it''s'", '"d\\n"', '"\\x41"', '"\\q"', "[]", "{}", "[a, b]", "[a,]", "{a: 1}", "&x a",
    "*x", "!!str a", "|", "#c", " #c", "a#b", "http://h:1/v", "-", "- a", ":", "?", "a: b", "'a",
    "[a, 'b, c']", "[-1]", "\u00e9", "a b  ", "'x'#c", "a,b", "[a]x", "<<", "=", "@", "%Y", "",
    "b#:", "a #b", "'a' : b", "- - x",
])
_LINES = st.lists(st.tuples(st.sampled_from(["", " ", "  ", "    "]),
                            st.sampled_from(["{0}: {1}", "{0}:{1}", "- {0}", "-{0}", "- {0}: {1}",
                                             "{0}", "{0} :  {1}"]),
                            _ATOMS, _ATOMS), max_size=6)


@settings(max_examples=400, deadline=None)
@given(lines=_LINES)
def test_reader_never_differs_from_pyyaml(lines):
    text = "\n".join(indent + form.format(a, b) for indent, form, a, b in lines)
    try:
        got = _read_yaml(text, "cfg.yaml")
    except ConfigError as exc:
        assert str(exc).startswith("cfg.yaml: line ")
        return
    assert repr(got) == repr(yaml.safe_load(text))  # repr: 1 and 1.0 differ


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300), st.integers(0, 300))
@example(b"", 0)
@example(b"", 128)
@example(random.Random(1).randbytes((1 << 20) + 7), 128)
def test_bound_hashes_are_hashlibs(data, length):
    """config's sha256 and shake_256, CPython's built-in ones where it has
    them, give hashlib's digests, so the config digest and the mock vectors
    stay the same bits."""
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert shake_256(data).digest(length) == hashlib.shake_256(data).digest(length)
