"""Flat key=value run configuration, written next to every run's outputs."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import TypedescError
from .stage1 import MAX_TEMPLATE_LEN, ModelDims
from .stage2 import MAX_DESCRIPTION_LEN
from .trainer import TrainConfig


@dataclass
class RunConfig(ModelDims, TrainConfig):
    """Every run setting; config.txt lists TrainConfig's fields, ModelDims', then these."""

    # data
    value_vocab_size: int = 10000
    target_vocab_size: int = 10000
    max_position: int = 16
    min_statements: int = 5
    # decoding
    max_template_len: int = MAX_TEMPLATE_LEN
    max_description_len: int = MAX_DESCRIPTION_LEN

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    """Parse key=value lines over a base config; unknown keys are rejected."""
    cfg = base if base is not None else RunConfig()
    casts = {f.name: (int if f.default.__class__ is int else float) for f in fields(RunConfig)}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TypedescError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in casts:
            raise TypedescError(f"{path}: line {lineno}: unknown config key '{key}'")
        try:
            setattr(cfg, key, casts[key](value))
        except ValueError:
            raise TypedescError(
                f"{path}: line {lineno}: bad value {value!r} for key '{key}'") from None
    return cfg


def save_config(cfg: RunConfig, path):
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(RunConfig)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
