import dataclasses
from decimal import Decimal
from pathlib import Path

import pytest

from warc2meta.config import PipelineConfig


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

    def test_worker_count_leaves_digest(self):
        cfg = _config()
        cfg.worker_count = 7
        assert cfg.digest() == _config().digest()
