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
from .diffcore import (Tensor, affine, concat, copy_mixture, cross_entropy, embedding_lookup,
                       gated_fusion, gru_cell, gru_sequence, gru_weights, init_gru, sigmoid,
                       tanh, uniform_param, zeros)
from .errors import TypedescError
from .lexicon import BOS, EOS, UNK
from .stage1 import EncoderOutput, InfoboxEncoding, ModelDims, RowGroups, attend_general

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
    both = concat([gru_sequence(embs, h0, fw), gru_sequence(embs, h0, bw, reverse=True)])
    states = affine([params["s2.proj.w"]], [both], params["s2.proj.b"])
    return EncoderOutput(states=states,
                         final=embedding_lookup(states, len(template_tokens) - 1))


def init_description_state(enc_final: Tensor, template_final: Tensor, params: dict) -> Tensor:
    """Start state from both encoders through a learned tanh projection."""
    joined = concat([enc_final, template_final])
    return tanh(affine([params["s2.init.w"]], [joined], params["s2.init.b"]))


def context_gates(y_prev_emb: Tensor, s_prev: Tensor, c_x: Tensor, c_t: Tensor, params: dict):
    """Sigmoid gates (g_x, g_t) over the source and template contexts."""
    return tuple(sigmoid(affine([params[f"s2.gate_{side}.{k}"] for k in ("we", "us", "cc")],
                                [y_prev_emb, s_prev, c], params[f"s2.gate_{side}.b"]))
                 for side, c in (("x", c_x), ("t", c_t)))


def fuse_contexts(y_prev_emb: Tensor, s_prev: Tensor, c_x: Tensor, c_t: Tensor,
                  g_x: Tensor, g_t: Tensor, params: dict) -> Tensor:
    """Gated interpolation of target, source and template contexts, as one node.

    The (1 - g_x - g_t) coefficient can go negative since both gates are
    independent sigmoids; implemented literally, no renormalization.
    """
    return gated_fusion([([params["s2.fuse.w"], params["s2.fuse.u"]], [y_prev_emb, s_prev],
                          params["s2.fuse.b"]),
                         ([params["s2.fuse.c1"]], [c_x], params["s2.fuse.c1_b"]),
                         ([params["s2.fuse.c2"]], [c_t], params["s2.fuse.c2_b"])], g_x, g_t)


def copy_gen_distribution(s_j: Tensor, c2: Tensor, copy_keys, extvocab, params: dict):
    """Mixture over the extended vocabulary.

    Generate path: softmax over target-vocabulary scores. Copy path: softmax
    over per-position scores s_j . k_i against the copy keys, positions of
    the same word summed. A sigmoid MLP switch supplies the mixture weight.
    The keys come once per example, from `stage1.encode_infobox`; the copy
    scores, both softmaxes, the switch's sigmoid and the mixing are one
    `copy_mixture` node. With `copy_keys` and `extvocab` RowGroups, the
    switch and the generate scores take every row at once, and the mixture
    runs per entity; the result is a RowGroups of the entities'
    distributions.
    """
    sc = concat([s_j, c2])
    hidden = tanh(affine([params["s2.switch.w1"]], [sc], params["s2.switch.b1"]))
    gen_logits = affine([params["s2.gen.w"]], [sc], params["s2.gen.b"])
    switch_logit = affine([params["s2.switch.w2"]], [hidden], params["s2.switch.b2"])
    if isinstance(copy_keys, RowGroups):
        return RowGroups([copy_mixture(*rows, keys, ext.position_ids, ext.size)
                          for (keys, *rows), ext in
                          zip(copy_keys.split(gen_logits, switch_logit, s_j), extvocab.values)],
                         copy_keys.counts)
    return copy_mixture(gen_logits, switch_logit, s_j, copy_keys, extvocab.position_ids,
                        extvocab.size)


def description_step(y_prev_id, s_prev: Tensor, enc: InfoboxEncoding,
                     template_enc: EncoderOutput, extvocab: ExtendedVocab, params: dict):
    """One decoder step: distribution over the extended vocabulary and next state.

    Takes an id and a state vector, or an id array and a block of rows. For
    the rows of several entities, the fields of `enc` and `template_enc` and
    `extvocab` itself are RowGroups with the same counts, and the
    distribution is a RowGroups.
    """
    y_emb = embedding_lookup(params["s2.word_emb"], y_prev_id)
    c_x, _ = attend_general(enc.states, s_prev, params["s2.attn_x.w"])
    c_t, _ = attend_general(template_enc.states, s_prev, params["s2.attn_t.w"])
    g_x, g_t = context_gates(y_emb, s_prev, c_x, c_t, params)
    c2 = fuse_contexts(y_emb, s_prev, c_x, c_t, g_x, g_t, params)
    s_j = gru_cell(concat([y_emb, c2]), s_prev, gru_weights(params, "s2.gru"))
    dist = copy_gen_distribution(s_j, c2, enc.copy_keys, extvocab, params)
    return dist, s_j


def description_nll(enc: InfoboxEncoding, template_enc: EncoderOutput,
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


def decode_description(encs: list[InfoboxEncoding], template_encs: list[EncoderOutput],
                       extvocabs: list[ExtendedVocab], params: dict, max_len: int, mode: str,
                       beam_width: int) -> list[list[str]]:
    """Decode the description of each entity, copied OOV words verbatim, in one search loop.

    Every step call scores the open hypotheses of every entity as one block.
    A search state is (entity index, decoder state row). Meant for no_grad,
    as `TwoStageModel.generate_many` runs it.
    """

    def step(prev_ext_ids, states):
        owners = [k for k, _ in states]
        prev = [extvocabs[k].decoder_input_id(i) for k, i in zip(owners, prev_ext_ids)]
        dist, s_next = description_step(prev, Tensor(np.array([s for _, s in states])),
                                        RowGroups.of(encs, owners).per_field(),
                                        RowGroups.of(template_encs, owners).per_field(),
                                        RowGroups.of(extvocabs, owners), params)
        rows = [row for d in dist.values for row in np.log(d.data + search.LOG_FLOOR)]
        return rows, list(zip(owners, s_next.data))

    target_vocab = extvocabs[0].vocabs.target_vocab
    s0 = init_description_state(Tensor(np.array([e.final.data for e in encs])),
                                Tensor(np.array([t.final.data for t in template_encs])), params)
    ids = search.decode(step, list(enumerate(s0.data)), target_vocab[BOS], target_vocab[EOS],
                        max_len, mode, beam_width)
    return [[ext.word(i) for i in seq] for ext, seq in zip(extvocabs, ids)]
