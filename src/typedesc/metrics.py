"""Corpus evaluation: BLEU-1/2, ROUGE-L, modifier copy ratio and head accuracy."""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

from . import annotator, lexicon
from .corpus import TYPE_PROPERTY_IDS, Entity, json_text, load_jsonl, read_jsonl, tokenize
from .errors import CorpusError, TypedescError

ROUGE_BETA = 1.2
COPY_PREFIX_LEN = 4  # characters a copied word shares with a source word
BLEU_EPSILON = 1e-9


@dataclass
class EvalRecord:
    entity_id: str
    hypothesis: list[str]
    reference: list[str]
    source_values: list[str]
    kg_type_values: list[str]


def _ngrams(tokens, n):
    return collections.Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(records: list[EvalRecord], n: int) -> float:
    """Corpus-level cumulative BLEU with clipped precisions and brevity penalty."""
    if not records:
        raise TypedescError("cannot compute BLEU over an empty corpus")
    if n not in (1, 2):
        raise TypedescError(f"bleu_n supports n in (1, 2), got {n}")
    matches = [0] * n
    totals = [0] * n
    hyp_len = 0
    ref_len = 0
    for rec in records:
        hyp_len += len(rec.hypothesis)
        ref_len += len(rec.reference)
        for k in range(1, n + 1):
            hyp_counts = _ngrams(rec.hypothesis, k)
            ref_counts = _ngrams(rec.reference, k)
            matches[k - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            totals[k - 1] += sum(hyp_counts.values())
    if hyp_len == 0:
        return 0.0
    log_prec = 0.0
    for k in range(n):
        p = matches[k] / totals[k] if totals[k] else 0.0
        if p == 0.0:
            p = BLEU_EPSILON  # keeps tiny fixtures off a hard corpus-level zero
        log_prec += math.log(p) / n
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_prec)


def _lcs_length(a, b):
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(records: list[EvalRecord]) -> float:
    """Mean per-record LCS F-measure (beta = 1.2), scaled to [0, 100]."""
    if not records:
        raise TypedescError("cannot compute ROUGE-L over an empty corpus")
    beta2 = ROUGE_BETA * ROUGE_BETA
    scores = []
    for rec in records:
        if not rec.hypothesis or not rec.reference:
            scores.append(0.0)
            continue
        lcs = _lcs_length(rec.hypothesis, rec.reference)
        if lcs == 0:
            scores.append(0.0)
            continue
        precision = lcs / len(rec.hypothesis)
        recall = lcs / len(rec.reference)
        scores.append((1 + beta2) * recall * precision / (recall + beta2 * precision))
    return 100.0 * sum(scores) / len(scores)


def is_copied(word: str, source_values: list[str]) -> bool:
    """True when the word shares a prefix with any non-stopword source value word.

    Words shorter than the prefix length compare their full length instead.
    """
    if not word:
        raise TypedescError("is_copied: word must be non-empty")
    k = min(COPY_PREFIX_LEN, len(word))
    head = word[:k]
    return any(head == src[:k] for src in source_values if src not in lexicon.STOPWORDS)


def corpus_copy_ratio(entities: list[Entity]) -> float:
    """Fraction of non-stopword description tokens copied from source values.

    Copying is `is_copied`'s prefix rule, as in ModCopy, but head words are
    not excluded here.
    """
    copied = 0
    total = 0
    for ent in entities:
        source_words = []
        for _pid, _plabel, value in ent.statements:
            source_words.extend(tokenize(value))
        for tok in ent.description_tokens:
            if tok in lexicon.STOPWORDS or lexicon.is_punctuation(tok):
                continue
            total += 1
            if is_copied(tok, source_words):
                copied += 1
    if total == 0:
        raise CorpusError("no non-stopword description tokens in the corpus")
    return copied / total


def mod_copy(records: list[EvalRecord]) -> float:
    """Corpus ratio of hypothesis modifier words copied from the source values.

    Heads and stopwords are excluded; records without modifiers contribute to
    neither count.
    """
    copied = 0
    total = 0
    for rec in records:
        if not rec.hypothesis:
            continue
        ann = annotator.annotate(rec.hypothesis)
        for word in ann.modifiers:
            total += 1
            if is_copied(word, rec.source_values):
                copied += 1
    if total == 0:
        raise TypedescError("no modifier tokens in any hypothesis")
    return copied / total


def hed_acc(records: list[EvalRecord]) -> float:
    """Accuracy of hypothesis head words against reference heads and KG type values."""
    correct = 0
    total = 0
    for rec in records:
        if not rec.hypothesis:
            continue
        heads = annotator.extract_heads(rec.hypothesis)
        if not heads:
            continue
        valid = annotator.extract_heads(rec.reference) if rec.reference else set()
        valid = valid | set(rec.kg_type_values)
        total += len(heads)
        correct += sum(1 for h in heads if h in valid)
    if total == 0:
        raise TypedescError("no extractable head words in any hypothesis")
    return correct / total


def records_from_entities(predictions: dict[str, str], entities: list[Entity]) -> list[EvalRecord]:
    """Pair predictions with reference entities by entity_id."""
    by_id = {}
    for ent in entities:
        if ent.entity_id in by_id:
            raise TypedescError(f"duplicate entity_id in references: {ent.entity_id}")
        by_id[ent.entity_id] = ent
    missing = sorted(set(predictions) - set(by_id))
    extra = sorted(set(by_id) - set(predictions))
    if missing or extra:
        raise TypedescError(
            "prediction/reference entity_id mismatch: "
            f"predictions without references {missing}, references without predictions {extra}")
    records = []
    for ent in entities:
        source_values = []
        kg_type_values = []
        for pid, _plabel, value in ent.statements:
            words = tokenize(value)
            source_values.extend(words)
            if pid in TYPE_PROPERTY_IDS:
                kg_type_values.extend(words)
        records.append(EvalRecord(
            entity_id=ent.entity_id,
            hypothesis=tokenize(predictions[ent.entity_id]),
            reference=ent.description_tokens,
            source_values=source_values,
            kg_type_values=kg_type_values,
        ))
    return records


def evaluate_records(records: list[EvalRecord]) -> dict:
    """All five metrics; BLEU/ROUGE on [0, 100], the copy metrics on [0, 1]."""
    if not records:
        raise TypedescError("cannot evaluate an empty corpus")
    return {
        "bleu1": bleu_n(records, 1),
        "bleu2": bleu_n(records, 2),
        "rougeL": rouge_l(records),
        "mod_copy": mod_copy(records),
        "hed_acc": hed_acc(records),
    }


def evaluate(predictions_path, references_path) -> dict:
    """Score a predictions JSONL ({"entity_id", "hypothesis"}) against reference entities."""
    predictions = {}
    for lineno, obj in read_jsonl(predictions_path, ("entity_id", "hypothesis")):
        entity_id = json_text(obj["entity_id"], predictions_path, lineno, "entity_id")
        if entity_id in predictions:
            raise TypedescError(
                f"{predictions_path}: line {lineno}: duplicate entity_id '{entity_id}'")
        predictions[entity_id] = json_text(obj["hypothesis"], predictions_path, lineno,
                                           "hypothesis")
    if not predictions:
        raise TypedescError(f"{predictions_path}: no predictions found")
    entities = load_jsonl(references_path)
    return evaluate_records(records_from_entities(predictions, entities))


def format_report(report: dict) -> str:
    """Human-readable table; all columns shown as percentages."""
    header = f"{'B-1':>8} {'B-2':>8} {'RG-L':>8} {'ModCopy':>8} {'HedAcc':>8}"
    row = (f"{report['bleu1']:8.2f} {report['bleu2']:8.2f} {report['rougeL']:8.2f} "
           f"{100 * report['mod_copy']:8.2f} {100 * report['hed_acc']:8.2f}")
    return header + "\n" + row
