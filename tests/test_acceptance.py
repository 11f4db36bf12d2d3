"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured value. Run with `pytest tests/test_acceptance.py -v -s`.

The overfit fixture trains once on the 64-example synthetic corpus and is
shared by the copy-behavior and template-override criteria.
"""

import math
import os
import time

import numpy as np
import pytest

import synthdata
from typedesc import annotator, diffcore as dc, stage1, stage2
from typedesc.config import RunConfig
from typedesc.corpus import (DatasetSplit, Entity, VocabSet, filter_entities, load_jsonl,
                             reconstruct_infobox)
from typedesc.lexicon import BOS, EOS, HED, MOD, PAD, UNK, is_function
from typedesc.metrics import EvalRecord, bleu_n, corpus_copy_ratio, hed_acc, mod_copy
from typedesc.stage1 import ModelDims
from typedesc.trainer import TrainConfig, TwoStageModel, train

OVERFIT_DIMS = ModelDims(d_h=64, d_word=64, d_prop=32, d_pos=32)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def micro_vocabs():
    """Hand-built minimal vocabularies so gradient sweeps stay cheap."""
    def vocab(words):
        return {w: i for i, w in enumerate(words)}
    reserved = [PAD, UNK, BOS, EOS]
    return VocabSet(
        value_vocab=vocab(reserved + ["street", "france", "paris", "jacques", "cazotte"]),
        property_vocab=vocab([PAD, UNK, "instance_of", "country", "located_in",
                              "named_after"]),
        position_count=4,
        target_vocab=vocab(reserved + ["street", "in", "paris", ",", "france"]),
        template_vocab=vocab(reserved + [HED, MOD, "in", ","]),
    )


def micro_entity():
    return Entity("Q1", "rue cazotte", "street in paris , france",
                  [("p31", "instance of", "street"),
                   ("p17", "country", "france"),
                   ("p131", "located in", "paris"),
                   ("p138", "named after", "jacques cazotte")])


def scaled_model(dims, vocabs, seed, scale=0.4):
    model = TwoStageModel.build(dims, vocabs, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for p in model.params.values():
        p.data = rng.normal(0.0, scale, size=p.data.shape)
    return model


def template_exact_match(model, entities):
    hits = 0
    with dc.no_grad():
        for ent in entities:
            _, enc = model.encode_entity(ent)
            (produced,) = stage1.generate_template([enc], model.vocabs, model.params,
                                                   RunConfig().max_template_len, "greedy", 1)
            hits += produced == model.gold_template(ent)
    return hits / len(entities)


def token_accuracy(model, entities):
    correct = total = 0
    vocabs = model.vocabs
    with dc.no_grad():
        for ent in entities:
            template = model.gold_template(ent)
            source, enc = model.encode_entity(ent)
            template_enc = stage2.encode_template(template, vocabs, model.params)
            ext = stage2.ExtendedVocab(vocabs, source)
            state = stage2.init_description_state(enc.final, template_enc.final,
                                                  model.params)
            prev = vocabs.target_vocab[BOS]
            for tok in ent.description_tokens + [EOS]:
                dist, state = stage2.description_step(prev, state, enc, template_enc,
                                                      ext, model.params)
                correct += int(np.argmax(dist.data)) == ext.ext_id(tok)
                total += 1
                prev = vocabs.target_vocab.get(tok, vocabs.target_vocab[UNK])
    return correct / total


@pytest.fixture(scope="module")
def overfit(tmp_path_factory):
    """Train on the 64-example synthetic corpus until both stages hit 95%."""
    entities = synthdata.make_corpus(n=64, seed=7)
    vocabs = synthdata.make_vocabs(entities, withhold_oov=True)
    data = DatasetSplit(train=entities, valid=[], test=[])
    state = {}

    def check(epoch, model):
        if epoch % 30:
            return False
        state["template_exact"] = template_exact_match(model, entities)
        state["token_acc"] = token_accuracy(model, entities)
        return state["template_exact"] >= 0.95 and state["token_acc"] >= 0.95

    started = time.perf_counter()
    result = train(data, TrainConfig(max_epochs=500, seed=0), OVERFIT_DIMS, vocabs,
                   tmp_path_factory.mktemp("overfit"), on_epoch=check)
    state["seconds"] = time.perf_counter() - started
    state["epochs"] = result.epochs_run
    state.setdefault("template_exact", template_exact_match(result.model, entities))
    state.setdefault("token_acc", token_accuracy(result.model, entities))
    return result.model, entities, vocabs, state


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = {}

    d = 5
    gru_errs = []
    attn_errs = []
    gate_errs = []
    fuse_errs = []
    for point in range(10):
        rng = np.random.default_rng(100 + point)

        def t(*shape, grad=True):
            return dc.Tensor(rng.normal(0.0, 0.5, size=shape), requires_grad=grad)

        params = {}
        dc.init_gru(params, "g", d, d, rng)
        for p in params.values():
            p.data = rng.normal(0.0, 0.5, size=p.data.shape)
        x, h = t(d), t(d)
        probe = dc.Tensor(rng.normal(size=d))
        weights = dc.gru_weights(params, "g")
        gru_errs.append(dc.grad_check(
            lambda: (dc.gru_cell(x, h, weights) * probe).sum(),
            [x, h] + list(params.values())))

        states, s_prev, w = t(4, d), t(d), t(d, d)
        attn_errs.append(dc.grad_check(
            lambda: (stage1.attend_general(states, s_prev, w)[0] * probe).sum(),
            [states, s_prev, w]))

        gp = {f"s2.gate_{side}.{k}": t(d, d) if k != "b" else t(d)
              for side in ("x", "t") for k in ("we", "us", "cc", "b")}
        e_prev, sp, cx, ct = t(d), t(d), t(d), t(d)
        gate_errs.append(dc.grad_check(
            lambda: ((lambda g: (g[0] * probe).sum() + (g[1] * probe).sum())(
                stage2.context_gates(e_prev, sp, cx, ct, gp))),
            [e_prev, sp, cx, ct] + list(gp.values())))

        fp = {"s2.fuse.w": t(d, d), "s2.fuse.u": t(d, d), "s2.fuse.b": t(d),
              "s2.fuse.c1": t(d, d), "s2.fuse.c1_b": t(d),
              "s2.fuse.c2": t(d, d), "s2.fuse.c2_b": t(d)}
        gx, gt = dc.sigmoid(t(d)), dc.sigmoid(t(d))
        fuse_errs.append(dc.grad_check(
            lambda: (stage2.fuse_contexts(e_prev, sp, cx, ct, gx, gt, fp) * probe).sum(),
            [e_prev, sp, cx, ct] + list(fp.values())))

    worst["gru_cell"] = max(gru_errs)
    worst["attention"] = max(attn_errs)
    worst["context_gates"] = max(gate_errs)
    worst["fusion"] = max(fuse_errs)

    vocabs = micro_vocabs()
    ent = micro_entity()
    dims = ModelDims(d_h=4, d_word=4, d_prop=3, d_pos=3)
    copy_errs = []
    joint_errs = []
    for point in range(10):
        model = scaled_model(dims, vocabs, seed=200 + point)
        source = reconstruct_infobox(ent, vocabs.position_count)
        template = model.gold_template(ent)

        def copy_loss():
            src, enc = model.encode_entity(ent)
            template_enc = stage2.encode_template(template, vocabs, model.params)
            ext = stage2.ExtendedVocab(vocabs, src)
            s0 = stage2.init_description_state(enc.final, template_enc.final,
                                               model.params)
            dist, _ = stage2.description_step(vocabs.target_vocab["street"], s0, enc,
                                              template_enc, ext, model.params)
            return dc.cross_entropy(dist, ext.ext_id("paris"), from_logits=False)

        copy_params = [model.params[name] for name in model.params
                       if name.startswith(("s2.gen", "s2.copy", "s2.switch"))]
        copy_errs.append(dc.grad_check(copy_loss, copy_params))
        # the joint loss sits near 25, so central differences need a larger
        # step before cancellation noise drowns the tiniest gradient elements
        joint_errs.append(dc.grad_check(lambda: model.joint_loss(ent),
                                        list(model.params.values()), epsilon=1e-4))
    worst["copy_gen"] = max(copy_errs)
    worst["joint_loss"] = max(joint_errs)

    elapsed = time.perf_counter() - started
    for layer, err in worst.items():
        assert err < 1e-4, f"{layer} gradient error {err}"
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 PASS gradient correctness: "
          + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
          + f" ({elapsed:.0f}s)")


def test_criterion_2_overfit_oracle(overfit):
    model, entities, vocabs, state = overfit
    assert state["template_exact"] >= 0.95
    assert state["token_acc"] >= 0.95
    assert state["epochs"] <= 500
    assert state["seconds"] < 900.0
    # the overfit model also reproduces its training descriptions end to end
    reproduced = sum(model.generate(e)[1] == e.description_tokens for e in entities)
    assert reproduced / len(entities) >= 0.95
    print(f"\nACCEPTANCE 2 PASS overfit: template exact {state['template_exact']:.3f}, "
          f"token accuracy {state['token_acc']:.3f}, {reproduced}/{len(entities)} "
          f"descriptions reproduced, after {state['epochs']} epochs "
          f"in {state['seconds']:.0f}s")


def test_criterion_3_copy_behavior(overfit):
    model, entities, vocabs, state = overfit
    oov = set(synthdata.oov_modifiers())
    assert all(w not in vocabs.target_vocab for w in oov)

    copied = missed = 0
    for ent in entities:
        gold_oov = [w for w in ent.description_tokens if w in oov]
        if not gold_oov:
            continue
        _, description = model.generate(ent)
        for w in gold_oov:
            if w in description:
                copied += 1
            else:
                missed += 1
    ratio = copied / (copied + missed)
    assert ratio >= 0.9

    # generate-path mass for an OOV word must route through unk only
    ent = next(e for e in entities if any(w in oov for w in e.description_tokens))
    word = next(w for w in ent.description_tokens if w in oov)
    assert vocabs.target_vocab.get(word, vocabs.target_vocab[UNK]) == vocabs.target_vocab[UNK]
    source, enc = model.encode_entity(ent)
    ext = stage2.ExtendedVocab(vocabs, source)
    assert ext.ext_id(word) >= ext.base_size
    switch_bias = model.params["s2.switch.b2"]
    saved = switch_bias.data.copy()
    switch_bias.data[:] = 60.0  # force p(generate) -> 1
    try:
        template_enc = stage2.encode_template(model.gold_template(ent), vocabs,
                                              model.params)
        with dc.no_grad():
            s0 = stage2.init_description_state(enc.final, template_enc.final,
                                               model.params)
            dist, _ = stage2.description_step(vocabs.target_vocab[BOS], s0, enc,
                                              template_enc, ext, model.params)
        assert dist.data[ext.ext_id(word)] < 1e-9
        assert abs(dist.data[:ext.base_size].sum() - 1.0) < 1e-9
    finally:
        switch_bias.data[:] = saved
    print(f"\nACCEPTANCE 3 PASS copy behavior: {copied}/{copied + missed} OOV modifiers "
          f"copied verbatim; generate-path mass for '{word}' routed to unk")


def test_criterion_4_metric_oracles():
    pair = [EvalRecord("Q1", "street in paris".split(), "street in france".split(),
                       [], [])]
    b1 = bleu_n(pair, 1)
    b2 = bleu_n(pair, 2)
    assert abs(b1 - 100.0 * 2 / 3) < 1e-6
    assert abs(b2 - 100.0 * math.sqrt(1.0 / 3.0)) < 1e-6

    fidelity = [EvalRecord("Q1", "street in paris , france".split(),
                           "street in paris , france".split(),
                           ["street", "paris", "france"], ["street"])]
    assert abs(mod_copy(fidelity) - 1.0) < 1e-6
    assert abs(hed_acc(fidelity) - 1.0) < 1e-6

    hallucinated = [EvalRecord("Q1", "street in germany".split(),
                               "street in paris , france".split(),
                               ["street", "paris", "france"], ["street"])]
    assert abs(mod_copy(hallucinated) - 0.0) < 1e-6
    assert abs(hed_acc(hallucinated) - 1.0) < 1e-6

    wrong_head = [EvalRecord("Q1", "river in france".split(),
                             "street in paris , france".split(),
                             ["street", "paris", "france"], ["street"])]
    assert abs(hed_acc(wrong_head) - 0.0) < 1e-6
    print(f"\nACCEPTANCE 4 PASS metric oracles: B-1={b1:.4f}, B-2={b2:.4f}, "
          "ModCopy/HedAcc fixtures exact")


def test_criterion_5_annotator_round_trip():
    import random
    rng = random.Random(55)
    failures = 0
    for _ in range(1000):
        tokens = synthdata.random_description(rng)
        ann = annotator.annotate(tokens)
        if annotator.apply_template(ann.template, ann.heads, ann.modifiers) != tokens:
            failures += 1
    assert failures == 0
    ann = annotator.annotate("street in paris , france".split())
    assert ann.template == [HED, "in", MOD, ",", MOD]
    print("\nACCEPTANCE 5 PASS round trip: 1000/1000 descriptions reconstructed; "
          "place template annotated as expected")


def test_criterion_6_normalization_invariants():
    rng = np.random.default_rng(66)
    vocabs = micro_vocabs()
    ent = micro_entity()
    worst_attn = 0.0
    worst_dist = 0.0
    for step in range(100):
        d = int(rng.integers(2, 7))
        dims = ModelDims(d_h=d, d_word=d, d_prop=3, d_pos=3)
        model = scaled_model(dims, vocabs, seed=int(rng.integers(0, 10**6)),
                             scale=float(rng.uniform(0.1, 1.5)))
        source, enc = model.encode_entity(ent)
        s_prev = dc.Tensor(rng.normal(size=d) * 2)
        _, alpha = stage1.attend_general(enc.states, s_prev, model.params["s1.attn.w"])
        assert np.all(alpha.data >= 0)
        worst_attn = max(worst_attn, abs(alpha.data.sum() - 1.0))

        ext = stage2.ExtendedVocab(vocabs, source)
        template_enc = stage2.encode_template([HED, "in", MOD], vocabs, model.params)
        with dc.no_grad():
            s0 = stage2.init_description_state(enc.final, template_enc.final,
                                               model.params)
            dist, _ = stage2.description_step(
                int(rng.integers(0, len(vocabs.target_vocab))), s0, enc, template_enc,
                ext, model.params)
        assert np.all(dist.data >= 0)
        worst_dist = max(worst_dist, abs(dist.data.sum() - 1.0))
    assert worst_attn < 1e-9
    assert worst_dist < 1e-9
    print(f"\nACCEPTANCE 6 PASS normalization: worst attention deviation {worst_attn:.2e}, "
          f"worst output-distribution deviation {worst_dist:.2e} over 100 fuzz steps")


def test_criterion_7_determinism(tmp_path):
    entities = synthdata.make_corpus(n=16, seed=3)
    vocabs = synthdata.make_vocabs(entities)
    dims = ModelDims(d_h=8, d_word=8, d_prop=4, d_pos=4)
    data = DatasetSplit(train=entities, valid=[], test=[])
    cfg = TrainConfig(max_epochs=3, batch_size=4, seed=21)
    first = train(data, cfg, dims, vocabs, tmp_path / "first")
    second = train(data, cfg, dims, vocabs, tmp_path / "second")
    assert len(first.step_losses) == len(second.step_losses)
    worst = max(abs(a - b) for a, b in zip(first.step_losses, second.step_losses))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 7 PASS determinism: {len(first.step_losses)} steps, "
          f"max trajectory difference {worst:.1e}")


WIKI10K = os.environ.get("TYPEDESC_WIKI10K", "")


@pytest.mark.skipif(not (WIKI10K and os.path.exists(WIKI10K)),
                    reason="set TYPEDESC_WIKI10K to the Wiki10K JSONL to enable")
def test_criterion_8_wiki10k_copy_ratio():
    entities = filter_entities(load_jsonl(WIKI10K), 5)
    ratio = 100.0 * corpus_copy_ratio(entities)
    assert abs(ratio - 88.24) <= 3.0
    print(f"\nACCEPTANCE 8 PASS corpus copy ratio: {ratio:.2f}% vs 88.24% reference")


def test_criterion_9_template_override_study(overfit):
    model, entities, vocabs, state = overfit

    def reduce_template(template):
        reduced = list(template)
        idx = len(reduced) - 1 - reduced[::-1].index(MOD)
        was_final = idx == len(reduced) - 1
        del reduced[idx]
        if was_final and reduced and is_function(reduced[-1]):
            del reduced[-1]  # drop the connector left dangling by the slot
        return reduced

    survived = total = 0
    for ent in entities:
        template = model.gold_template(ent)
        if MOD not in template:
            continue
        reduced = reduce_template(template)
        if not reduced:
            continue
        _, description = model.generate(ent, template_override=reduced)
        total += 1
        if not description:
            continue
        gold_heads = annotator.extract_heads(ent.description_tokens)
        if annotator.extract_heads(description) & gold_heads:
            survived += 1
    ratio = survived / total
    assert ratio >= 0.8
    print(f"\nACCEPTANCE 9 PASS template override: gold head retained on "
          f"{survived}/{total} = {ratio:.3f} of reduced-template cases")
