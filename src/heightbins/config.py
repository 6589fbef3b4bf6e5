"""Run configuration: one JSON document covering model, loss, optimizer,
and training protocol, validated exhaustively at load time."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .backbone import LEVEL_NAMES
from .errors import ConfigError
from .head import HeadConfig
from .losses import LossConfig

__all__ = ["ModelConfig", "OptimizerConfig", "RunConfig", "load_run_config"]


def _build(cls, data: dict, where: str):
    """Construct a dataclass from a dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}; known keys: {sorted(names)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            v = data[f.name]
            kwargs[f.name] = tuple(v) if isinstance(v, list) else v
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class ModelConfig:
    """Backbone widths plus the shared per-level head shape."""

    in_channels: int = 1
    widths: tuple[int, ...] = (8, 16, 32, 64, 64)
    head: HeadConfig = field(default_factory=HeadConfig)

    def validate(self) -> None:
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if len(self.widths) != 5 or any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be 5 positive ints, got {self.widths}")
        self.head.validate()


@dataclass
class OptimizerConfig:
    lr: float = 1e-4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)

    def validate(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        b1, b2 = self.betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")


@dataclass
class RunConfig:
    """Everything one training or evaluation run needs."""

    manifest: str = "data/manifest.json"
    out_dir: str = "runs/default"
    seed: int = 0
    levels: tuple[str, ...] = ("F5",)
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=lambda: LossConfig(lambdas=(1.0,)))
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 4
    max_epochs: int = 100
    patience: int = 10

    def validate(self) -> None:
        if not self.levels:
            raise ConfigError("levels must name at least one pyramid level")
        bad = [lvl for lvl in self.levels if lvl not in LEVEL_NAMES]
        if bad:
            raise ConfigError(f"unknown levels {bad}; valid levels: {list(LEVEL_NAMES)}")
        order = [LEVEL_NAMES.index(lvl) for lvl in self.levels]
        if order != sorted(order) or len(set(order)) != len(order):
            raise ConfigError(
                f"levels must be unique and ordered coarse to fine, got {list(self.levels)}"
            )
        if len(self.loss.lambdas) != len(self.levels):
            raise ConfigError(
                f"{len(self.loss.lambdas)} lambdas for {len(self.levels)} levels; "
                "they must pair up"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        self.model.validate()
        self.loss.validate()
        self.optimizer.validate()
        head = self.model.head
        if not head.h_min <= self.loss.fg_threshold <= head.h_max:
            raise ConfigError(
                f"loss.fg_threshold {self.loss.fg_threshold} outside "
                f"[{head.h_min}, {head.h_max}]"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        model_data = data.pop("model", {})
        if not isinstance(model_data, dict):
            raise ConfigError("model must be a JSON object")
        model_data = dict(model_data)
        head = _build(HeadConfig, model_data.pop("head", {}), "model.head")
        model = _build(ModelConfig, model_data, "model")
        model.head = head
        loss_data = data.pop("loss", None)
        # no loss block: default to a single full-weight level, matching default levels
        loss = LossConfig(lambdas=(1.0,)) if loss_data is None else _build(LossConfig, loss_data, "loss")
        optimizer = _build(OptimizerConfig, data.pop("optimizer", {}), "optimizer")
        cfg = _build(cls, data, "config")
        cfg.model, cfg.loss, cfg.optimizer = model, loss, optimizer
        cfg.validate()
        return cfg


def load_run_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)
