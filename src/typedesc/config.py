"""Flat key=value run configuration, written next to every run's outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .corpus import RESERVED_WORDS, read_lines
from .diffcore import atomic_write
from .errors import TypedescError
from .stage1 import MAX_TEMPLATE_LEN, ModelDims
from .stage2 import MAX_DESCRIPTION_LEN
from .trainer import TrainConfig


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


_UNIT = (lambda v: 0.0 <= v < 1.0), "in [0, 1)"
_POSITIVE = (lambda v: v > 0.0), "> 0"

# the values each RunConfig field accepts; every value must also be finite
_VALID = {
    "lr": _at_least(0.0), "beta1": _UNIT, "beta2": _UNIT, "eps": _POSITIVE,
    "batch_size": _at_least(1), "max_epochs": _at_least(1), "seed": _at_least(0),
    "grad_clip_norm": _POSITIVE, "validate_every": _at_least(1),
    "early_stop_patience": _at_least(1),
    "d_h": _at_least(1), "d_word": _at_least(1), "d_prop": _at_least(1), "d_pos": _at_least(1),
    "value_vocab_size": _at_least(len(RESERVED_WORDS)),
    "target_vocab_size": _at_least(len(RESERVED_WORDS)),
    "max_position": _at_least(1), "min_statements": _at_least(1),
    "max_template_len": _at_least(1), "max_description_len": _at_least(1),
}


@dataclass
class RunConfig(ModelDims, TrainConfig):
    """Every run setting; config.txt lists TrainConfig's fields, ModelDims', then these.

    Construction range-checks every field, so a RunConfig made by `load_config`
    or `dataclasses.replace` is checked too.
    """

    # data
    value_vocab_size: int = 10000
    target_vocab_size: int = 10000
    max_position: int = 16
    min_statements: int = 5
    # decoding
    max_template_len: int = MAX_TEMPLATE_LEN
    max_description_len: int = MAX_DESCRIPTION_LEN

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepts, allowed = _VALID[f.name]
            if not (math.isfinite(value) and accepts(value)):
                raise TypedescError(f"{f.name} must be {allowed}, got {value}")

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})

    def dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})


def load_config(path) -> RunConfig:
    """Parse key=value lines over the defaults; unknown or repeated keys and bad values fail."""
    casts = {f.name: (int if f.default.__class__ is int else float) for f in fields(RunConfig)}
    values, first = {}, {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TypedescError(f"{path}: line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in casts:
            raise TypedescError(f"{path}: line {lineno}: unknown config key '{key}'")
        if first.setdefault(key, lineno) != lineno:
            raise TypedescError(
                f"{path}: line {lineno}: key '{key}' repeats line {first[key]}")
        try:
            values[key] = casts[key](value)
        except ValueError:
            raise TypedescError(
                f"{path}: line {lineno}: bad value {value!r} for key '{key}'") from None
    try:
        return RunConfig(**values)
    except TypedescError as exc:
        raise TypedescError(f"{path}: {exc}") from None


def save_config(cfg: RunConfig, path):
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(RunConfig)))
