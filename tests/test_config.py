"""Run-config construction, validation, and JSON round-trips."""

import json

import pytest

from heightbins.config import ModelConfig, OptimizerConfig, RunConfig, load_run_config
from heightbins.errors import ConfigError
from heightbins.head import HeadConfig
from heightbins.losses import LossConfig


def test_default_config_validates():
    RunConfig().validate()


def test_dict_round_trip_preserves_everything():
    cfg = RunConfig(
        manifest="m.json",
        out_dir="runs/x",
        seed=7,
        levels=("F4", "F5"),
        model=ModelConfig(widths=(4, 8, 16, 16, 16), head=HeadConfig(n_bins=8, h_max=50.0)),
        loss=LossConfig(lambdas=(0.5, 1.0), fg_family="laplace"),
        optimizer=OptimizerConfig(lr=3e-3),
        batch_size=8,
        max_epochs=20,
        patience=5,
    )
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_from_dict_converts_json_lists_to_tuples():
    doc = json.loads(json.dumps(RunConfig().to_dict()))
    assert isinstance(doc["levels"], list)
    cfg = RunConfig.from_dict(doc)
    assert cfg.levels == ("F5",)
    assert cfg.model.widths == (8, 16, 32, 64, 64)


def test_missing_loss_block_defaults_to_one_lambda():
    cfg = RunConfig.from_dict({"levels": ["F5"]})
    assert cfg.loss.lambdas == (1.0,)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"bogus": 1}, "bogus"),
        ({"model": {"bogus": 1}}, "bogus"),
        ({"model": {"head": {"bogus": 1}}}, "bogus"),
        ({"loss": {"lambdas": [1.0], "bogus": 1}}, "bogus"),
        ({"optimizer": {"bogus": 1}}, "bogus"),
    ],
)
def test_unknown_keys_are_named_in_the_error(doc, fragment):
    with pytest.raises(ConfigError, match=fragment):
        RunConfig.from_dict(doc)


def test_lambda_count_must_match_levels():
    with pytest.raises(ConfigError, match="lambdas"):
        RunConfig.from_dict({"levels": ["F4", "F5"], "loss": {"lambdas": [1.0]}})


@pytest.mark.parametrize(
    "levels",
    [[], ["F9"], ["F5", "F4"], ["F5", "F5"]],
)
def test_bad_level_lists_rejected(levels):
    doc = {"levels": levels}
    if len(levels) > 1:
        doc["loss"] = {"lambdas": [1.0] * len(levels)}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", 0), ("max_epochs", 0), ("patience", 0), ("seed", None)],
)
def test_protocol_fields_validated(field, value):
    doc = {field: value}
    with pytest.raises((ConfigError, TypeError)):
        cfg = RunConfig.from_dict(doc)
        cfg.validate()


@pytest.mark.parametrize(
    "opt",
    [
        {"lr": 0.0},
        {"lr": -1e-3},
        {"weight_decay": -0.1},
        {"betas": [0.9, 1.0]},
        {"betas": [-0.1, 0.999]},
    ],
)
def test_optimizer_bounds(opt):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"optimizer": opt})


def test_fg_threshold_must_lie_in_the_head_height_range():
    with pytest.raises(ConfigError, match="fg_threshold"):
        RunConfig.from_dict({"model": {"head": {"h_min": 2.0}}, "loss": {"lambdas": [1.0]}})
    with pytest.raises(ConfigError, match="fg_threshold"):
        RunConfig.from_dict({"loss": {"lambdas": [1.0], "fg_threshold": 120.0}})
    RunConfig.from_dict({"loss": {"lambdas": [1.0], "fg_threshold": 100.0}})


def test_widths_must_be_five_positive_ints():
    with pytest.raises(ConfigError, match="widths"):
        RunConfig.from_dict({"model": {"widths": [8, 16, 32]}})
    with pytest.raises(ConfigError, match="widths"):
        RunConfig.from_dict({"model": {"widths": [8, 16, 32, 64, 0]}})


def test_load_run_config_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 3, "levels": ["F5"]}))
    cfg = load_run_config(path)
    assert cfg.seed == 3


def test_load_run_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config(tmp_path / "absent.json")


def test_load_run_config_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(path)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError, match="object"):
        RunConfig.from_dict([1, 2, 3])
    with pytest.raises(ConfigError, match="object"):
        RunConfig.from_dict({"model": [1]})
