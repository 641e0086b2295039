import dataclasses
from decimal import Decimal
from pathlib import Path

import pytest
import yaml

from warc2meta.config import PipelineConfig, load_config
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


class TestDigest:
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
