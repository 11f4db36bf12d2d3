"""Infobox encoder (shared by both stages) and the template decoder.

The encoder concatenates word, property and position embeddings per value
word and runs a unidirectional GRU. The template decoder attends over the
encoder states with a general-product score and emits one template token
per step.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby

import numpy as np

from . import diffcore, search
from .corpus import SourceToken, VocabSet
from .diffcore import (Tensor, affine, attend, concat, cross_entropy, embedding_lookup,
                       gru_cell, gru_sequence, gru_weights, init_gru, softmax, tanh,
                       transpose, uniform_param, zeros)
from .errors import TypedescError
from .lexicon import BOS, EOS

MAX_TEMPLATE_LEN = 16  # template tokens decoded before stopping without eos


@dataclass
class ModelDims:
    """Hidden and embedding sizes shared by both stages."""

    d_h: int = 256
    d_word: int = 256
    d_prop: int = 128
    d_pos: int = 128


@dataclass
class EncoderOutput:
    states: Tensor  # (L, d_h), one row per source token
    final: Tensor   # (d_h,)


@dataclass
class InfoboxEncoding(EncoderOutput):
    copy_keys: Tensor  # (L, d_h), tanh(H W_c + b_c): stage 2's copy key of each source token


def init_encoder_params(dims: ModelDims, vocabs: VocabSet, rng) -> dict:
    p = {}
    p["enc.word_emb"] = uniform_param(rng, (len(vocabs.value_vocab), dims.d_word))
    p["enc.prop_emb"] = uniform_param(rng, (len(vocabs.property_vocab), dims.d_prop))
    p["enc.pos_emb"] = uniform_param(rng, (vocabs.position_count, dims.d_pos))
    init_gru(p, "enc.gru", dims.d_word + dims.d_prop + dims.d_pos, dims.d_h, rng)
    return p


def init_stage1_params(dims: ModelDims, vocabs: VocabSet, rng) -> dict:
    n_template = len(vocabs.template_vocab)
    p = {}
    p["s1.tmpl_emb"] = uniform_param(rng, (n_template, dims.d_word))
    p["s1.init.w"] = uniform_param(rng, (dims.d_h, dims.d_h))
    p["s1.init.b"] = uniform_param(rng, (dims.d_h,))
    p["s1.attn.w"] = uniform_param(rng, (dims.d_h, dims.d_h))
    init_gru(p, "s1.gru", dims.d_word + dims.d_h, dims.d_h, rng)
    p["s1.out.w"] = uniform_param(rng, (n_template, dims.d_h))
    p["s1.out.b"] = uniform_param(rng, (n_template,))
    return p


def encode_infobox(tokens: list[SourceToken], vocabs: VocabSet,
                   params: dict) -> InfoboxEncoding:
    """GRU states over the reconstructed infobox sequence, and stage 2's copy keys.

    The keys depend on the states alone, so every description step of an
    example, and every hypothesis of a beam, shares the ones formed here.
    """
    if not tokens:
        raise TypedescError("cannot encode an empty infobox")
    gru = gru_weights(params, "enc.gru")
    xs = concat([
        embedding_lookup(params["enc.word_emb"], [vocabs.value_id(t.word) for t in tokens]),
        embedding_lookup(params["enc.prop_emb"],
                         [vocabs.property_id(t.property) for t in tokens]),
        embedding_lookup(params["enc.pos_emb"], [t.position for t in tokens]),
    ])
    states = gru_sequence(xs, zeros(gru.uz.data.shape[0]), gru)
    copy_keys = tanh(affine([transpose(params["s2.copy.w"])], [states], params["s2.copy.b"]))
    return InfoboxEncoding(states=states, final=embedding_lookup(states, len(tokens) - 1),
                           copy_keys=copy_keys)


class RowGroups:
    """One value per entity for a block of decoder rows that several entities share.

    The first `counts[0]` rows of the block belong to `values[0]`, the next
    `counts[1]` rows to `values[1]`, and so on. The step functions take one
    entity's encoding, or an encoding whose fields are RowGroups (`per_field`),
    through the same code; only `attend_general` and
    `stage2.copy_gen_distribution` look at the groups.
    """

    def __init__(self, values: list, counts: list[int]):
        self.values = values
        self.counts = counts

    @classmethod
    def of(cls, per_entity: list, owners: list[int]) -> "RowGroups":
        """The values of the entities that own a block's rows; row i belongs to
        entity owners[i], and each entity's rows come together."""
        runs = [(k, len(list(rows))) for k, rows in groupby(owners)]
        return cls([per_entity[k] for k, _ in runs], [n for _, n in runs])

    def per_field(self):
        """The values, dataclasses of one type such as encodings, as one of that
        type whose every field is the RowGroups of that field."""
        kind = type(self.values[0])
        return kind(**{f.name: RowGroups([getattr(v, f.name) for v in self.values], self.counts)
                       for f in fields(kind)})

    def split(self, *blocks: Tensor):
        """Each value with its entity's rows of every block, as new leaves (no tape)."""
        lo = 0
        for value, n in zip(self.values, self.counts):
            yield (value, *(Tensor(b.data[lo:lo + n]) for b in blocks))
            lo += n


def attend_general(states, s_prev: Tensor, w: Tensor):
    """General-product attention: scores h_i . W s, softmax, weighted sum, as one node.

    Takes a state vector, or a block of rows, one per hypothesis, each
    attended on its own, as the step functions take an id and a state
    vector, or an id array and a block of rows. Returns the context and the
    attention weights alpha, a Tensor without gradient. With `states` a
    RowGroups, each entity's rows attend over its own states, one `attend`
    per entity; the contexts join in row order, without a tape, and alpha,
    which no batched caller reads, is None.
    """
    if isinstance(states, RowGroups):
        return Tensor(np.concatenate([attend(h, rows, w)[0].data
                                      for h, rows in states.split(s_prev)])), None
    context, alpha = attend(states, s_prev, w)
    return context, Tensor(alpha)


def init_decoder_state(final: Tensor, params: dict) -> Tensor:
    """Decoder start state: learned tanh projection of the encoder final state."""
    return tanh(affine([params["s1.init.w"]], [final], params["s1.init.b"]))


def _step_logits(t_prev_id, s_prev: Tensor, enc: EncoderOutput, params: dict):
    context, _ = attend_general(enc.states, s_prev, params["s1.attn.w"])
    x = concat([embedding_lookup(params["s1.tmpl_emb"], t_prev_id), context])
    s_next = gru_cell(x, s_prev, gru_weights(params, "s1.gru"))
    logits = affine([params["s1.out.w"]], [s_next], params["s1.out.b"])
    return logits, s_next


def decode_template_step(t_prev_id, s_prev: Tensor, enc: EncoderOutput, params: dict):
    """One decoder step: distribution over template tokens and the next state.

    Takes an id and a state vector, or an id array and a block of rows; `enc`
    is the rows' encoding, or one whose fields are RowGroups over several entities.
    """
    logits, s_next = _step_logits(t_prev_id, s_prev, enc, params)
    return softmax(logits), s_next


def template_nll(enc: EncoderOutput, template_tokens: list[str], vocabs: VocabSet,
                 params: dict) -> Tensor:
    """Teacher-forced negative log-likelihood of a template, eos appended."""
    s = init_decoder_state(enc.final, params)
    prev = vocabs.template_vocab[BOS]
    losses = []
    targets = [vocabs.template_id(t) for t in template_tokens]
    targets.append(vocabs.template_vocab[EOS])
    for target in targets:
        logits, s = _step_logits(prev, s, enc, params)
        losses.append(cross_entropy(logits, target))
        prev = target
    return diffcore.add_n(losses)


def generate_template(encs: list[EncoderOutput], vocabs: VocabSet, params: dict,
                      max_len: int, mode: str, beam_width: int) -> list[list[str]]:
    """Decode the template of each encoding until eos or max_len, all in one search loop.

    Every step call scores the open hypotheses of every entity as one block.
    A search state is (entity index, decoder state row). Meant for no_grad,
    as `TwoStageModel.generate_many` runs it.
    """

    def step(prev_ids, states):
        owners = [k for k, _ in states]
        probs, s_next = decode_template_step(prev_ids, Tensor(np.array([s for _, s in states])),
                                             RowGroups.of(encs, owners).per_field(), params)
        return np.log(probs.data + search.LOG_FLOOR), list(zip(owners, s_next.data))

    s0 = init_decoder_state(Tensor(np.array([e.final.data for e in encs])), params)
    ids = search.decode(step, list(enumerate(s0.data)), vocabs.template_vocab[BOS],
                        vocabs.template_vocab[EOS], max_len, mode, beam_width)
    return [[vocabs.template_itos[i] for i in seq] for seq in ids]
