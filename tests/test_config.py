import inspect
from dataclasses import fields

import pytest

from typedesc import corpus, diffcore, stage1, stage2
from typedesc.config import RunConfig, load_config, save_config
from typedesc.errors import TypedescError
from typedesc.stage1 import ModelDims
from typedesc.trainer import TrainConfig, TwoStageModel

NO_DEFAULT = inspect.Parameter.empty

KEYS = ["lr", "beta1", "beta2", "eps", "batch_size", "max_epochs", "seed", "grad_clip_norm",
        "validate_every", "early_stop_patience", "d_h", "d_word", "d_prop", "d_pos",
        "value_vocab_size", "target_vocab_size", "max_position", "min_statements",
        "max_template_len", "max_description_len"]


def test_keys_are_pinned(tmp_path):
    path = tmp_path / "config.txt"
    save_config(RunConfig(), path)
    assert [line.split(" = ")[0] for line in path.read_text().splitlines()] == KEYS


def test_parts_keep_their_defaults():
    assert RunConfig().train_config() == TrainConfig()
    assert RunConfig().dims() == ModelDims()


# the last parameters of each signature, in order, with their defaults
@pytest.mark.parametrize("func,tail", [
    (diffcore.Adam, {"lr": NO_DEFAULT, "beta1": NO_DEFAULT, "beta2": NO_DEFAULT,
                     "eps": NO_DEFAULT}),
    (stage1.generate_template, {"max_len": NO_DEFAULT, "mode": NO_DEFAULT,
                                "beam_width": NO_DEFAULT}),
    (stage2.decode_description, {"max_len": NO_DEFAULT, "mode": NO_DEFAULT,
                                 "beam_width": NO_DEFAULT}),
    (corpus.build_vocabs, {"max_position": NO_DEFAULT}),
    (TwoStageModel.joint_loss, {"self": NO_DEFAULT, "entity": NO_DEFAULT}),
    (TwoStageModel.generate, {"max_template_len": RunConfig().max_template_len,
                              "max_description_len": RunConfig().max_description_len}),
], ids=["Adam", "generate_template", "decode_description", "build_vocabs", "joint_loss",
        "generate"])
def test_each_default_lives_in_one_place(func, tail):
    params = list(inspect.signature(func).parameters.values())[-len(tail):]
    assert {p.name: p.default for p in params} == tail


def test_round_trip_every_field(tmp_path):
    changed = RunConfig(**{f.name: f.default * 3 + 1 if f.type == "int" else f.default / 2
                           for f in fields(RunConfig)})
    assert all(getattr(changed, f.name) != f.default for f in fields(RunConfig))
    path = tmp_path / "config.txt"
    save_config(changed, path)
    assert load_config(path) == changed


@pytest.mark.parametrize("bad", [{"d_h": 0}, {"validate_every": 0}, {"lr": float("inf")},
                                 {"beta1": -0.1}, {"grad_clip_norm": 0.0},
                                 {"target_vocab_size": 3}, {"max_position": 0},
                                 {"min_statements": 0}])
def test_out_of_range_field_rejected(bad):
    with pytest.raises(TypedescError, match=f"{next(iter(bad))} must be"):
        RunConfig(**bad)


def test_load_config_checks_ranges(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("lr = -1\n", encoding="utf-8")
    with pytest.raises(TypedescError, match="lr must be >= 0.0"):
        load_config(path)


def test_repeated_key_names_both_lines(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("lr = 0.5\nd_h = 8\nlr = 0.01\n", encoding="utf-8")
    with pytest.raises(TypedescError, match=r"config\.txt: line 3: key 'lr' repeats line 1"):
        load_config(path)
