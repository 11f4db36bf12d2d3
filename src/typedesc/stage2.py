"""Template encoder and the description decoder with gates and conditional copy.

The template is encoded bidirectionally; the decoder attends over both the
infobox states and the template states, balances the three contexts (source,
template, target) with sigmoid context gates, and emits each word either by
generating from the target vocabulary or by copying a source value word.
"""

from __future__ import annotations

import numpy as np

from . import diffcore, search
from .corpus import SourceToken, VocabSet
from .diffcore import (Tensor, concat, cross_entropy, embedding_lookup, gru_cell,
                       gru_sequence, gru_weights, init_gru, matmul, scatter_add, sigmoid,
                       softmax, tanh, transpose, uniform_param, zeros)
from .errors import TypedescError
from .lexicon import BOS, EOS, UNK
from .stage1 import EncoderOutput, ModelDims, attend_general

MAX_DESCRIPTION_LEN = 24  # description words decoded before stopping without eos


class ExtendedVocab:
    """Target vocabulary extended with this example's copyable source words.

    Words already in the target vocabulary keep their id; out-of-vocabulary
    source words get fresh ids after the base range, so copy mass for a word
    always lands on a single entry.
    """

    def __init__(self, vocabs: VocabSet, source_tokens: list[SourceToken]):
        self.vocabs = vocabs
        self.base_size = len(vocabs.target_vocab)
        self.oov_words = []
        oov_index = {}
        position_ids = []
        for tok in source_tokens:
            word_id = vocabs.target_vocab.get(tok.word)
            if word_id is None:
                if tok.word not in oov_index:
                    oov_index[tok.word] = self.base_size + len(self.oov_words)
                    self.oov_words.append(tok.word)
                word_id = oov_index[tok.word]
            position_ids.append(word_id)
        self._oov_index = oov_index
        self.position_ids = np.asarray(position_ids, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.base_size + len(self.oov_words)

    def ext_id(self, word: str) -> int:
        """Extended id of a word: its target id, its copy id, or unk."""
        if word in self.vocabs.target_vocab:
            return self.vocabs.target_vocab[word]
        return self._oov_index.get(word, self.vocabs.target_vocab[UNK])

    def word(self, ext_id: int) -> str:
        if ext_id < self.base_size:
            return self.vocabs.target_itos[ext_id]
        return self.oov_words[ext_id - self.base_size]

    def decoder_input_id(self, ext_id: int) -> int:
        """Target-vocabulary id fed back into the decoder (unk for copied OOV words)."""
        if ext_id < self.base_size:
            return ext_id
        return self.vocabs.target_vocab[UNK]


def init_stage2_params(dims: ModelDims, vocabs: VocabSet, rng) -> dict:
    n_template = len(vocabs.template_vocab)
    n_target = len(vocabs.target_vocab)
    d_h, d_word = dims.d_h, dims.d_word
    p = {}
    p["s2.tmpl_emb"] = uniform_param(rng, (n_template, d_word))
    init_gru(p, "s2.fw", d_word, d_h, rng)
    init_gru(p, "s2.bw", d_word, d_h, rng)
    p["s2.proj.w"] = uniform_param(rng, (d_h, 2 * d_h))
    p["s2.proj.b"] = uniform_param(rng, (d_h,))
    p["s2.init.w"] = uniform_param(rng, (d_h, 2 * d_h))
    p["s2.init.b"] = uniform_param(rng, (d_h,))
    p["s2.word_emb"] = uniform_param(rng, (n_target, d_word))
    p["s2.attn_x.w"] = uniform_param(rng, (d_h, d_h))
    p["s2.attn_t.w"] = uniform_param(rng, (d_h, d_h))
    for side in ("x", "t"):
        p[f"s2.gate_{side}.we"] = uniform_param(rng, (d_h, d_word))
        p[f"s2.gate_{side}.us"] = uniform_param(rng, (d_h, d_h))
        p[f"s2.gate_{side}.cc"] = uniform_param(rng, (d_h, d_h))
        p[f"s2.gate_{side}.b"] = uniform_param(rng, (d_h,))
    p["s2.fuse.w"] = uniform_param(rng, (d_h, d_word))
    p["s2.fuse.u"] = uniform_param(rng, (d_h, d_h))
    p["s2.fuse.b"] = uniform_param(rng, (d_h,))
    p["s2.fuse.c1"] = uniform_param(rng, (d_h, d_h))
    p["s2.fuse.c1_b"] = uniform_param(rng, (d_h,))
    p["s2.fuse.c2"] = uniform_param(rng, (d_h, d_h))
    p["s2.fuse.c2_b"] = uniform_param(rng, (d_h,))
    init_gru(p, "s2.gru", d_word + d_h, d_h, rng)
    p["s2.gen.w"] = uniform_param(rng, (n_target, 2 * d_h))
    p["s2.gen.b"] = uniform_param(rng, (n_target,))
    p["s2.copy.w"] = uniform_param(rng, (d_h, d_h))
    p["s2.copy.b"] = uniform_param(rng, (d_h,))
    p["s2.switch.w1"] = uniform_param(rng, (d_h, 2 * d_h))
    p["s2.switch.b1"] = uniform_param(rng, (d_h,))
    p["s2.switch.w2"] = uniform_param(rng, (1, d_h))
    p["s2.switch.b2"] = uniform_param(rng, (1,))
    return p


def encode_template(template_tokens: list[str], vocabs: VocabSet, params: dict) -> EncoderOutput:
    """Bidirectional GRU over the template, projected back to d_h per position."""
    if not template_tokens:
        raise TypedescError("cannot encode an empty template")
    embs = embedding_lookup(params["s2.tmpl_emb"],
                            [vocabs.template_id(t) for t in template_tokens])
    fw = gru_weights(params, "s2.fw")
    bw = gru_weights(params, "s2.bw")
    h0 = zeros(fw.uz.data.shape[0])
    both = concat([gru_sequence(embs, h0, fw), gru_sequence(embs, h0, bw, reverse=True)],
                  axis=1)
    states = matmul(both, transpose(params["s2.proj.w"])) + params["s2.proj.b"]
    return EncoderOutput(states=states,
                         final=embedding_lookup(states, len(template_tokens) - 1))


def init_description_state(enc_final: Tensor, template_final: Tensor, params: dict) -> Tensor:
    """Start state from both encoders through a learned tanh projection."""
    joined = concat([enc_final, template_final])
    return tanh(matmul(params["s2.init.w"], joined) + params["s2.init.b"])


def context_gates(y_prev_emb: Tensor, s_prev: Tensor, c_x: Tensor, c_t: Tensor, params: dict):
    """Sigmoid gates over the source and template contexts."""
    g_x = sigmoid(matmul(params["s2.gate_x.we"], y_prev_emb)
                  + matmul(params["s2.gate_x.us"], s_prev)
                  + matmul(params["s2.gate_x.cc"], c_x)
                  + params["s2.gate_x.b"])
    g_t = sigmoid(matmul(params["s2.gate_t.we"], y_prev_emb)
                  + matmul(params["s2.gate_t.us"], s_prev)
                  + matmul(params["s2.gate_t.cc"], c_t)
                  + params["s2.gate_t.b"])
    return g_x, g_t


def fuse_contexts(y_prev_emb: Tensor, s_prev: Tensor, c_x: Tensor, c_t: Tensor,
                  g_x: Tensor, g_t: Tensor, params: dict) -> Tensor:
    """Gated interpolation of target, source and template contexts.

    The (1 - g_x - g_t) coefficient can go negative since both gates are
    independent sigmoids; implemented literally, no renormalization.
    """
    target_side = matmul(params["s2.fuse.w"], y_prev_emb) \
        + matmul(params["s2.fuse.u"], s_prev) + params["s2.fuse.b"]
    coeff = 1.0 - g_x - g_t
    return (coeff * target_side
            + g_x * (matmul(params["s2.fuse.c1"], c_x) + params["s2.fuse.c1_b"])
            + g_t * (matmul(params["s2.fuse.c2"], c_t) + params["s2.fuse.c2_b"]))


def copy_gen_distribution(s_j: Tensor, c2: Tensor, enc_states: Tensor,
                          extvocab: ExtendedVocab, params: dict) -> Tensor:
    """Mixture over the extended vocabulary.

    Generate path: softmax over target-vocabulary scores. Copy path: softmax
    over per-position source scores, positions of the same word summed. A
    sigmoid MLP switch supplies the mixture weight.
    """
    sc = concat([s_j, c2])
    gen_logits = matmul(params["s2.gen.w"], sc) + params["s2.gen.b"]
    p_gen = softmax(gen_logits)
    hidden = tanh(matmul(params["s2.switch.w1"], sc) + params["s2.switch.b1"])
    p_z = sigmoid(matmul(params["s2.switch.w2"], hidden) + params["s2.switch.b2"])  # (1,)

    n_oov = extvocab.size - extvocab.base_size
    gen_part = p_z * p_gen
    if n_oov:
        gen_part = concat([gen_part, zeros(n_oov)])
    copy_scores = matmul(tanh(matmul(enc_states, params["s2.copy.w"]) + params["s2.copy.b"]),
                         s_j)
    copy_probs = (1.0 - p_z) * softmax(copy_scores)
    copy_part = scatter_add(copy_probs, extvocab.position_ids, extvocab.size)
    return gen_part + copy_part


def description_step(y_prev_id: int, s_prev: Tensor, enc: EncoderOutput,
                     template_enc: EncoderOutput, extvocab: ExtendedVocab, params: dict):
    """One decoder step: distribution over the extended vocabulary and next state."""
    n_target = params["s2.word_emb"].data.shape[0]
    if not 0 <= y_prev_id < n_target:
        raise TypedescError(f"unknown target token id {y_prev_id}")
    y_emb = embedding_lookup(params["s2.word_emb"], y_prev_id)
    c_x, _ = attend_general(enc.states, s_prev, params["s2.attn_x.w"])
    c_t, _ = attend_general(template_enc.states, s_prev, params["s2.attn_t.w"])
    g_x, g_t = context_gates(y_emb, s_prev, c_x, c_t, params)
    c2 = fuse_contexts(y_emb, s_prev, c_x, c_t, g_x, g_t, params)
    s_j = gru_cell(concat([y_emb, c2]), s_prev, gru_weights(params, "s2.gru"))
    dist = copy_gen_distribution(s_j, c2, enc.states, extvocab, params)
    return dist, s_j


def description_nll(enc: EncoderOutput, template_enc: EncoderOutput,
                    target_tokens: list[str], extvocab: ExtendedVocab,
                    params: dict) -> Tensor:
    """Teacher-forced negative log-likelihood of the description, eos appended.

    A gold word that is both generatable and copyable is scored by the summed
    mass of both paths, so the switch is trained by marginalizing over them.
    """
    s = init_description_state(enc.final, template_enc.final, params)
    prev = extvocab.vocabs.target_vocab[BOS]
    losses = []
    for tok in list(target_tokens) + [EOS]:
        dist, s = description_step(prev, s, enc, template_enc, extvocab, params)
        target = extvocab.ext_id(tok)
        losses.append(cross_entropy(dist, target, from_logits=False))
        prev = extvocab.decoder_input_id(target)
    return diffcore.add_n(losses)


def decode_description(enc: EncoderOutput, template_enc: EncoderOutput,
                       extvocab: ExtendedVocab, params: dict, max_len: int, mode: str,
                       beam_width: int) -> list[str]:
    """Decode a description, copied OOV words verbatim; tapes unless under no_grad."""

    def step(prev_ext_id, state):
        prev = extvocab.decoder_input_id(prev_ext_id)
        dist, s_next = description_step(prev, state, enc, template_enc, extvocab, params)
        return np.log(dist.data + 1e-300), s_next

    target_vocab = extvocab.vocabs.target_vocab
    ids = search.decode(step, init_description_state(enc.final, template_enc.final, params),
                        target_vocab[BOS], target_vocab[EOS], max_len, mode, beam_width)
    return [extvocab.word(i) for i in ids]
