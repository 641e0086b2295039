import dataclasses
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from warc2meta.cli import main
from warc2meta.config import (
    NOT_DIGESTED,
    ClientConfig,
    PipelineConfig,
    PriceConfig,
    load_config,
)
from warc2meta.errors import ConfigError


@pytest.fixture(autouse=True)
def referenced_files(tmp_path, monkeypatch):
    """The rank table and filter rules the settings below name, in the cwd."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ranks.tiktoken").write_text("YWI= 0\n")
    (tmp_path / "rules.tsv").write_text("footer\tAll rights reserved\t\n")


def _config():
    return PipelineConfig(input_dir=Path("crawls"), output_dir=Path("out"))


def _with_client(**changes):
    def change(cfg):
        cfg.client = dataclasses.replace(cfg.client, **changes)

    return change


def _with_prices(**changes):
    def change(cfg):
        cfg.prices = dataclasses.replace(cfg.prices, **changes)

    return change


OUTPUT_SETTINGS = {
    "tokenizer_path": lambda cfg: setattr(cfg, "tokenizer_path", Path("ranks.tiktoken")),
    "filter_rules_path": lambda cfg: setattr(cfg, "filter_rules_path", Path("rules.tsv")),
    "price_per_million_input": _with_prices(price_per_million_input=Decimal("3.00")),
    "price_per_million_output": _with_prices(price_per_million_output=Decimal("12.00")),
    "embedding_base_url": lambda cfg: setattr(
        cfg, "embedding_base_url", "http://127.0.0.1:9/v1"
    ),
    "embedding_model": lambda cfg: setattr(cfg, "embedding_model", "embed-small"),
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
    "retry_backoff": (0.0,),
    "timeout": 5.0,
    "price_per_million_input": Decimal("3.00"),
    "price_per_million_output": Decimal("12.00"),
}
# (section, name) of every field; section None for PipelineConfig's own
SETTINGS = [
    (section, f.name)
    for cls, section in ((PipelineConfig, None), (ClientConfig, "client"), (PriceConfig, "prices"))
    for f in dataclasses.fields(cls)
]


def _changed(section, name):
    cfg = _config()
    if section is None:
        setattr(cfg, name, OTHER_VALUES[name])
    else:
        setattr(cfg, section, dataclasses.replace(getattr(cfg, section),
                                                  **{name: OTHER_VALUES[name]}))
    return cfg


class TestDigest:
    @pytest.mark.parametrize("section, name", SETTINGS, ids=[name for _, name in SETTINGS])
    def test_every_setting_digested_unless_excluded(self, section, name):
        cfg = _changed(section, name)
        cfg.validate()
        assert cfg != _config()
        assert (cfg.digest() != _config().digest()) == (name not in NOT_DIGESTED)

    @pytest.mark.parametrize("change", OUTPUT_SETTINGS.values(), ids=OUTPUT_SETTINGS)
    def test_output_setting_changes_digest(self, change):
        cfg = _config()
        change(cfg)
        assert cfg.digest() != _config().digest()

    @pytest.mark.parametrize("field, name, rewritten", [
        ("tokenizer_path", "ranks.tiktoken", "YWI= 0\nYmM= 1\n"),
        ("filter_rules_path", "rules.tsv", "footer\tCopyright\t\n"),
    ])
    def test_file_rewritten_in_place_changes_digest(self, field, name, rewritten):
        cfg = _config()
        setattr(cfg, field, Path(name))
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
        """The 18 keys a file can set; the timeout and backoff are not among them."""
        leaves = [(section, name) for section, name in SETTINGS
                  if name not in ("client", "prices", "retry_backoff", "timeout")]
        raw = {"client": {"timeout": 5}}
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
        assert cfg.client.timeout == ClientConfig().timeout

    def test_no_file_takes_defaults(self):
        assert load_config() == PipelineConfig()
        assert load_config(output_dir="elsewhere").output_dir == Path("elsewhere")

    @pytest.mark.parametrize("text", ["", "client:\n", "prices:\n", "client:\nprices: {}\n"])
    def test_empty_file_or_section_takes_defaults(self, text):
        Path("cfg.yaml").write_text(text)
        assert load_config("cfg.yaml") == PipelineConfig()

    @pytest.mark.parametrize("text, name", [
        ("- input_dir: crawls\n", "cfg.yaml"),
        ("just words\n", "cfg.yaml"),
        ("client: 7\n", "cfg.yaml: client"),
        ("client: [base_url]\n", "cfg.yaml: client"),
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
        ("prices:\n  price_per_million_output: -1\n", "prices"),
    ])
    def test_bad_value_rejected(self, text, match):
        Path("cfg.yaml").write_text(text)
        with pytest.raises(ConfigError, match=match):
            load_config("cfg.yaml")

    def test_negative_max_retries_rejected_before_any_stage(self):
        with pytest.raises(ValueError, match="max_retries"):
            ClientConfig(max_retries=-1)
        Path("cfg.yaml").write_text("output_dir: out\nclient:\n  max_retries: -1\n")
        result = CliRunner().invoke(main, ["--config", "cfg.yaml", "ingest", "--input", "."])
        assert result.exit_code == 1
        assert "Error: ConfigError: cfg.yaml: client: max_retries must be >= 0" in result.output
        assert not Path("out").exists()
