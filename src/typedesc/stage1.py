"""Infobox encoder (shared by both stages) and the template decoder.

The encoder concatenates word, property and position embeddings per value
word and runs a unidirectional GRU. The template decoder attends over the
encoder states with a general-product score and emits one template token
per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore, search
from .corpus import SourceToken, VocabSet
from .diffcore import (Tensor, concat, cross_entropy, embedding_lookup, gru_cell,
                       gru_sequence, gru_weights, init_gru, matmul, softmax, tanh,
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


def encode_infobox(tokens: list[SourceToken], vocabs: VocabSet, params: dict) -> EncoderOutput:
    """GRU states over the reconstructed infobox sequence."""
    if not tokens:
        raise TypedescError("cannot encode an empty infobox")
    gru = gru_weights(params, "enc.gru")
    xs = concat([
        embedding_lookup(params["enc.word_emb"], [vocabs.value_id(t.word) for t in tokens]),
        embedding_lookup(params["enc.prop_emb"],
                         [vocabs.property_id(t.property) for t in tokens]),
        embedding_lookup(params["enc.pos_emb"], [t.position for t in tokens]),
    ], axis=1)
    states = gru_sequence(xs, zeros(gru.uz.data.shape[0]), gru)
    return EncoderOutput(states=states, final=embedding_lookup(states, len(tokens) - 1))


def attend_general(states: Tensor, s_prev: Tensor, w: Tensor):
    """General-product attention: scores h_i . W s, softmax, weighted sum."""
    scores = matmul(states, matmul(w, s_prev))
    alpha = softmax(scores)
    context = matmul(transpose(states), alpha)
    return context, alpha


def init_decoder_state(final: Tensor, params: dict) -> Tensor:
    """Decoder start state: learned tanh projection of the encoder final state."""
    return tanh(matmul(params["s1.init.w"], final) + params["s1.init.b"])


def _step_logits(t_prev_id: int, s_prev: Tensor, enc: EncoderOutput, params: dict):
    n_template = params["s1.tmpl_emb"].data.shape[0]
    if not 0 <= t_prev_id < n_template:
        raise TypedescError(f"unknown template token id {t_prev_id}")
    context, _ = attend_general(enc.states, s_prev, params["s1.attn.w"])
    x = concat([embedding_lookup(params["s1.tmpl_emb"], t_prev_id), context])
    s_next = gru_cell(x, s_prev, gru_weights(params, "s1.gru"))
    logits = matmul(params["s1.out.w"], s_next) + params["s1.out.b"]
    return logits, s_next


def decode_template_step(t_prev_id: int, s_prev: Tensor, enc: EncoderOutput, params: dict):
    """One decoder step: distribution over template tokens and the next state."""
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


def generate_template(enc: EncoderOutput, vocabs: VocabSet, params: dict, max_len: int,
                      mode: str, beam_width: int) -> list[str]:
    """Decode a template until eos or max_len; tapes unless under no_grad."""

    def step(prev_id, state):
        probs, s_next = decode_template_step(prev_id, state, enc, params)
        return np.log(probs.data + 1e-300), s_next

    ids = search.decode(step, init_decoder_state(enc.final, params),
                        vocabs.template_vocab[BOS], vocabs.template_vocab[EOS], max_len,
                        mode, beam_width)
    return [vocabs.template_itos[i] for i in ids]
