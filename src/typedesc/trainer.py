"""End-to-end optimization of both stages under the joint negative log-likelihood."""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import annotator, stage1, stage2
from .corpus import DatasetSplit, Entity, VocabSet, reconstruct_infobox
from .diffcore import (Adam, Tensor, add_n, atomic_write, clip_gradients, no_grad,
                       save_checkpoint)
from .errors import TrainingDiverged, TypedescError
from .lexicon import HED
from .stage1 import ModelDims


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 16
    max_epochs: int = 50
    seed: int = 0
    grad_clip_norm: float = 5.0
    validate_every: int = 1
    early_stop_patience: int = 5


class TwoStageModel:
    """Both stages over one shared parameter dict."""

    def __init__(self, dims: ModelDims, vocabs: VocabSet, params: dict):
        self.dims = dims
        self.vocabs = vocabs
        self.params = params

    @classmethod
    def build(cls, dims: ModelDims, vocabs: VocabSet, seed: int) -> "TwoStageModel":
        rng = np.random.default_rng(seed)
        params = {}
        params.update(stage1.init_encoder_params(dims, vocabs, rng))
        params.update(stage1.init_stage1_params(dims, vocabs, rng))
        params.update(stage2.init_stage2_params(dims, vocabs, rng))
        return cls(dims, vocabs, params)

    def snapshot(self) -> dict:
        return {name: p.data.copy() for name, p in self.params.items()}

    def gold_template(self, entity: Entity) -> list[str]:
        return annotator.annotate(entity.description_tokens).template

    def encode_entity(self, entity: Entity):
        source = reconstruct_infobox(entity, self.vocabs.position_count)
        try:
            return source, stage1.encode_infobox(source, self.vocabs, self.params)
        except TypedescError as exc:
            raise TypedescError(f"entity {entity.entity_id}: {exc}") from None

    def joint_loss(self, entity: Entity) -> Tensor:
        """L1 (template) + L2 (description), both teacher forced on gold targets."""
        if not entity.description.strip():
            raise TypedescError(f"entity {entity.entity_id} has no description")
        template = self.gold_template(entity)
        source, enc = self.encode_entity(entity)
        loss1 = stage1.template_nll(enc, template, self.vocabs, self.params)
        template_enc = stage2.encode_template(template, self.vocabs, self.params)
        extvocab = stage2.ExtendedVocab(self.vocabs, source)
        loss2 = stage2.description_nll(enc, template_enc, entity.description_tokens,
                                       extvocab, self.params)
        total = loss1 + loss2
        if not np.isfinite(total.data):
            raise TrainingDiverged(
                f"non-finite loss on entity {entity.entity_id}")
        return total

    def generate(self, entity: Entity, mode: str = "greedy", beam_width: int = 1,
                 template_override: list[str] | None = None,
                 max_template_len: int = stage1.MAX_TEMPLATE_LEN,
                 max_description_len: int = stage2.MAX_DESCRIPTION_LEN):
        """Run both stages without a tape; returns (template tokens, description tokens)."""
        with no_grad():
            source, enc = self.encode_entity(entity)
            if template_override is not None:
                template = list(template_override)
            else:
                template = stage1.generate_template(enc, self.vocabs, self.params,
                                                    max_template_len, mode, beam_width)
            if not template:
                template = [HED]  # stage 2 needs a non-empty template to condition on
            template_enc = stage2.encode_template(template, self.vocabs, self.params)
            extvocab = stage2.ExtendedVocab(self.vocabs, source)
            description = stage2.decode_description(enc, template_enc, extvocab, self.params,
                                                    max_description_len, mode, beam_width)
        return template, description


@dataclass
class TrainResult:
    model: TwoStageModel
    step_losses: list[float]
    epoch_rows: list[dict]
    best_valid_loss: float | None

    @property
    def epochs_run(self) -> int:
        return len(self.epoch_rows)


def _mean_valid_loss(model: TwoStageModel, entities: list[Entity]) -> float:
    with no_grad():
        return float(np.mean([model.joint_loss(e).item() for e in entities]))


def train(data: DatasetSplit, config: TrainConfig, dims: ModelDims, vocabs: VocabSet,
          out_dir, on_epoch=None) -> TrainResult:
    """Adam over shuffled epochs with gradient clipping and best-valid checkpointing.

    The result holds the parameters of the best validation epoch, or, when no
    validation epoch has improved, those after the last completed step. They
    go to `out_dir` as checkpoint.bin, with train_log.csv, also when a
    non-finite loss or gradient raises TrainingDiverged. Runs are bit-for-bit
    reproducible under a fixed seed. `on_epoch`, when given, is called as
    on_epoch(epoch, model) after each epoch and may return True to stop early.
    """
    if not data.train:
        raise TypedescError("training split is empty")
    model = TwoStageModel.build(dims, vocabs, config.seed)
    optimizer = Adam(model.params, config.lr, config.beta1, config.beta2, config.eps)
    order_rng = random.Random(config.seed)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    step_losses: list[float] = []
    epoch_rows: list[dict] = []
    best_valid = None
    best_arrays = None  # a private copy of the best validation epoch's parameters
    patience_left = config.early_stop_patience

    def finish():
        optimizer.zero_grads()
        if best_arrays is not None:
            for name, p in model.params.items():
                p.data = best_arrays[name]
        save_checkpoint(out_dir / "checkpoint.bin", model.params)
        with atomic_write(out_dir / "train_log.csv", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["epoch", "train_loss", "valid_loss", "seconds"])
            writer.writeheader()
            writer.writerows(epoch_rows)

    try:
        for epoch in range(1, config.max_epochs + 1):
            started = time.perf_counter()
            indices = list(range(len(data.train)))
            order_rng.shuffle(indices)
            epoch_losses = []
            for lo in range(0, len(indices), config.batch_size):
                batch = [data.train[i] for i in indices[lo:lo + config.batch_size]]
                losses = [model.joint_loss(e) for e in batch]
                batch_loss = add_n(losses) * (1.0 / len(losses))
                optimizer.zero_grads()
                batch_loss.backward()
                clip_gradients(model.params, config.grad_clip_norm)
                optimizer.step()
                value = batch_loss.item()
                step_losses.append(value)
                epoch_losses.append(value)

            valid_loss = None
            if data.valid and epoch % config.validate_every == 0:
                valid_loss = _mean_valid_loss(model, data.valid)
                if best_valid is None or valid_loss < best_valid:
                    best_valid = valid_loss
                    best_arrays = model.snapshot()
                    patience_left = config.early_stop_patience
                else:
                    patience_left -= 1

            epoch_rows.append({
                "epoch": epoch,
                "train_loss": f"{np.mean(epoch_losses):.6f}",
                "valid_loss": "" if valid_loss is None else f"{valid_loss:.6f}",
                "seconds": f"{time.perf_counter() - started:.3f}",
            })
            if patience_left <= 0 or (on_epoch is not None and on_epoch(epoch, model)):
                break
    except TrainingDiverged as exc:
        finish()
        raise TrainingDiverged(f"{exc}; best checkpoint retained") from None

    finish()
    return TrainResult(model, step_losses, epoch_rows, best_valid_loss=best_valid)
