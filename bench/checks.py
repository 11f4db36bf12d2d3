"""Output checks. Each is computed apart from the program or follows from a
property the method must have; none compares against stored output.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from typedesc import corpus, diffcore, metrics, stage1, stage2
from typedesc.lexicon import BOS
from typedesc.trainer import TwoStageModel

GRAD_CHECKED = ("s2.gen.w", "s2.copy.w", "enc.gru.wz", "s1.out.w")


def _loss(model, entities) -> float:
    with diffcore.no_grad():
        return float(np.mean([model.joint_loss(e).item() for e in entities]))


def _norm(params) -> float:
    return math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params.values()
                         if p.grad is not None))


def finite_differences(model, entity, rng, eps=1e-5) -> list[str]:
    """Central differences on sampled coordinates match the analytic gradient.

    The sample holds the two largest analytic entries of each matrix, which a
    wrong backward moves most, and two uniform ones.
    """
    problems = []
    analytic = {name: model.params[name].grad.reshape(-1) for name in GRAD_CHECKED}
    for name in GRAD_CHECKED:
        flat = model.params[name].data.reshape(-1)
        g = analytic[name]
        coords = list(np.argsort(-np.abs(g))[:2]) + list(rng.integers(0, g.size, 2))
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = _loss(model, [entity])
            flat[i] = orig - eps
            f_minus = _loss(model, [entity])
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            if abs(numeric - g[i]) > 1e-7 + 1e-4 * max(abs(numeric), abs(g[i])):
                problems.append(f"gradient of {name}[{i}]: analytic {g[i]:.6e}, "
                                f"finite difference {numeric:.6e}")
    return problems


def clipping(params, max_norm: float) -> list[str]:
    """clip_gradients reports the global norm and leaves it at most max_norm;
    a second clip to half the norm rescales it exactly to that."""
    problems = []
    before = _norm(params)
    reported = diffcore.clip_gradients(params, max_norm)
    if not math.isclose(reported, before, rel_tol=1e-9):
        problems.append(f"clip_gradients reported norm {reported}, recomputed {before}")
    after = _norm(params)
    if after > max_norm * (1 + 1e-12):
        problems.append(f"global norm {after} after clipping to {max_norm}")
    target = after / 2
    diffcore.clip_gradients(params, target)
    if not math.isclose(_norm(params), target, rel_tol=1e-9):
        problems.append(f"clipping to {target} left norm {_norm(params)}")
    return problems


def adam_update(params, cfg, rng) -> list[str]:
    """Two Adam steps on a fixed gradient equal the bias-corrected update
    recomputed here for sampled coordinates."""
    samples = {}
    for name in GRAD_CHECKED:
        p = params[name]
        idx = rng.integers(0, p.data.size, 4)
        samples[name] = (idx, p.data.reshape(-1)[idx].copy(), p.grad.reshape(-1)[idx].copy())
    optimizer = diffcore.Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    optimizer.step()
    optimizer.step()
    b1, b2 = cfg.beta1, cfg.beta2
    problems = []
    for name, (idx, p, g) in samples.items():
        m = np.zeros_like(g)
        v = np.zeros_like(g)
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p = p - cfg.lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + cfg.eps)
        got = params[name].data.reshape(-1)[idx]
        if not np.allclose(got, p, rtol=1e-12, atol=1e-15):
            problems.append(f"Adam update of {name}{list(idx)}: got {got}, expected {p}")
    return problems


def check_training(result, train: list, vocabs, cfg, rng) -> list[str]:
    problems = []
    if not result.step_losses or not all(math.isfinite(x) for x in result.step_losses):
        problems.append("a step loss is not finite")
    model = result.model
    probe = train[:4]
    initial = TwoStageModel.build(cfg.dims(), vocabs, cfg.seed)
    before, after = _loss(initial, probe), _loss(model, probe)
    del initial
    if not after < before:
        problems.append(f"probe-batch loss {after} after training is not below {before}")

    longest = max(probe, key=lambda e: len(e.description_tokens))
    for p in model.params.values():
        p.grad = None
    model.joint_loss(longest).backward()
    problems += finite_differences(model, longest, rng)
    problems += clipping(model.params, cfg.grad_clip_norm)
    problems += adam_update(model.params, cfg, rng)
    return problems


def _distribution(dist, where: str) -> list[str]:
    d = dist.data
    if d.min() < 0 or abs(d.sum() - 1.0) > 1e-9:
        return [f"{where}: min {d.min()}, sum {d.sum()!r}"]
    return []


def step_distributions(model, entity, template) -> list[str]:
    """The first three steps of each decoder give non-negative mass summing to 1."""
    vocabs, params = model.vocabs, model.params
    problems = []
    with diffcore.no_grad():
        source, enc = model.encode_entity(entity)
        state = stage1.init_decoder_state(enc.final, params)
        prev = vocabs.template_vocab[BOS]
        for k in range(3):
            probs, state = stage1.decode_template_step(prev, state, enc, params)
            problems += _distribution(probs, f"{entity.entity_id} template step {k}")
            prev = int(np.argmax(probs.data))
        template_enc = stage2.encode_template(template, vocabs, params)
        extvocab = stage2.ExtendedVocab(vocabs, source)
        state = stage2.init_description_state(enc.final, template_enc.final, params)
        prev = vocabs.target_vocab[BOS]
        for k in range(3):
            dist, state = stage2.description_step(prev, state, enc, template_enc, extvocab,
                                                  params)
            problems += _distribution(dist, f"{entity.entity_id} description step {k}")
            prev = extvocab.decoder_input_id(int(np.argmax(dist.data)))
    return problems


def check_generation(model, cfg, entities, predictions, mode: str, width: int,
                     sample: int) -> list[str]:
    """Every prediction is well formed; a sample is re-decoded through the API."""
    vocabs = model.vocabs
    problems = []
    if [p["entity_id"] for p in predictions] != [e.entity_id for e in entities]:
        return ["predictions are not one per input entity, in order"]
    for ent, pred in zip(entities, predictions):
        template, words = pred["template"].split(), pred["hypothesis"].split()
        source = {t.word for t in corpus.reconstruct_infobox(ent, vocabs.position_count)}
        if len(template) > cfg.max_template_len or any(
                t not in vocabs.template_vocab for t in template):
            problems.append(f"{ent.entity_id}: bad template {template}")
        if len(words) > cfg.max_description_len or any(
                w not in vocabs.target_vocab and w not in source for w in words):
            problems.append(f"{ent.entity_id}: bad description {words}")

    for ent, pred in list(zip(entities, predictions))[:sample]:
        decoded = model.generate(ent, mode=mode, beam_width=width)
        if (" ".join(decoded[0]), " ".join(decoded[1])) != (pred["template"], pred["hypothesis"]):
            problems.append(f"{ent.entity_id}: the API decodes {decoded}, generate wrote {pred}")
        greedy = decoded if mode == "greedy" else model.generate(ent)
        if model.generate(ent, mode="beam", beam_width=1) != greedy:
            problems.append(f"{ent.entity_id}: beam:1 differs from greedy")
        if model.generate(ent, template_override=greedy[0])[1] != greedy[1]:
            problems.append(f"{ent.entity_id}: forcing the greedy template changes the words")
        problems += step_distributions(model, ent, greedy[0] or ["$hed$"])
    return problems


def check_reports(reports: list[dict]) -> list[str]:
    problems = []
    for report in reports:
        scores = [report[k] for k in ("bleu1", "bleu2", "rougeL")]
        ratios = [report[k] for k in ("mod_copy", "hed_acc")]
        if not (all(0 <= s <= 100 for s in scores) and all(0 <= r <= 1 for r in ratios)):
            problems.append(f"evaluate report out of range: {report}")
    return problems


def self_scores(references: Path, work_dir: Path) -> list[str]:
    """The references scored against themselves are perfect."""
    path = work_dir / "self_predictions.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for ent in corpus.load_jsonl(references):
            fh.write(json.dumps({"entity_id": ent.entity_id, "hypothesis": ent.description}) + "\n")
    report = metrics.evaluate(path, references)
    perfect = (all(abs(report[k] - 100.0) <= 1e-9 for k in ("bleu1", "bleu2", "rougeL"))
               and report["hed_acc"] == 1.0)
    return [] if perfect else [f"self-scoring is not perfect: {report}"]
