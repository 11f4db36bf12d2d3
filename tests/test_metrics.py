import json
import math
import random

import pytest

import synthdata
from typedesc.corpus import write_jsonl
from typedesc.errors import TypedescError
from typedesc.metrics import (EvalRecord, bleu_n, evaluate, evaluate_records, hed_acc,
                              is_copied, mod_copy, rouge_l)


def record(hyp, ref, source=(), types=(), eid="Q1"):
    return EvalRecord(entity_id=eid, hypothesis=hyp.split(), reference=ref.split(),
                      source_values=list(source), kg_type_values=list(types))


class TestBleu:
    def test_perfect_match(self):
        recs = [record("street in paris", "street in paris"),
                record("human", "human", eid="Q2")]
        assert abs(bleu_n(recs, 1) - 100.0) < 1e-9
        assert abs(bleu_n(recs, 2) - 100.0) < 1e-9

    def test_unigram_fixture(self):
        # "street" and "in" match, "paris" does not: p1 = 2/3, equal lengths
        recs = [record("street in paris", "street in france")]
        assert abs(bleu_n(recs, 1) - 100.0 * 2 / 3) < 1e-6

    def test_bigram_fixture(self):
        # bigrams: "street in" matches, "in paris" does not: p2 = 1/2
        recs = [record("street in paris", "street in france")]
        expected = 100.0 * math.sqrt((2 / 3) * (1 / 2))
        assert abs(bleu_n(recs, 2) - expected) < 1e-6

    def test_brevity_penalty(self):
        recs = [record("street", "street in paris")]
        expected = 100.0 * math.exp(1.0 - 3.0 / 1.0)  # p1 = 1, c=1 < r=3
        assert abs(bleu_n(recs, 1) - expected) < 1e-9

    def test_empty_corpus_rejected(self):
        with pytest.raises(TypedescError):
            bleu_n([], 1)

    def test_zero_bigram_matches_smoothed_not_zero(self):
        recs = [record("a b", "c d")]
        assert 0.0 < bleu_n(recs, 2) < 1.0


class TestRougeL:
    def test_identical(self):
        assert abs(rouge_l([record("street in paris", "street in paris")]) - 100.0) < 1e-9

    def test_hand_lcs_fixture(self):
        # hyp "a b c" vs ref "a c": LCS=2, P=2/3, R=1, beta=1.2
        beta2 = 1.2 * 1.2
        p, r = 2 / 3, 1.0
        expected = 100.0 * (1 + beta2) * r * p / (r + beta2 * p)
        assert abs(rouge_l([record("a b c", "a c")]) - expected) < 1e-6

    def test_disjoint_is_zero(self):
        assert rouge_l([record("a b", "c d")]) == 0.0


class TestIsCopied:
    def test_shared_four_char_prefix(self):
        assert is_copied("japanese", ["japan"])

    def test_no_shared_prefix(self):
        assert not is_copied("street", ["france", "paris"])

    def test_short_word_uses_its_own_length(self):
        assert is_copied("usa", ["usance"])
        assert not is_copied("usa", ["us"])

    def test_stopword_sources_ignored(self):
        assert not is_copied("there", ["the"])
        assert not is_copied("inner", ["in"])

    def test_empty_word_rejected(self):
        with pytest.raises(TypedescError):
            is_copied("", ["x"])

    def test_monotone_in_source_set(self):
        rng = random.Random(7)
        pool = ["street", "paris", "france", "japan", "japanese", "lake", "usa"]
        for _ in range(200):
            word = rng.choice(pool)
            small = rng.sample(pool, 3)
            large = small + rng.sample(pool, 2)
            if is_copied(word, small):
                assert is_copied(word, large)


class TestModCopy:
    def test_all_modifiers_copied(self):
        recs = [record("street in paris , france", "street in paris , france",
                       source=["street", "paris", "france"])]
        assert mod_copy(recs) == 1.0

    def test_uncopied_modifier(self):
        # hypothesis hallucinates "germany" while the source says "france"
        recs = [record("street in germany", "street in france", source=["france"])]
        assert mod_copy(recs) == 0.0

    def test_headless_modifierless_records_skipped(self):
        recs = [record("human", "human", source=["human"]),
                record("street in paris", "street in paris",
                       source=["street", "paris"], eid="Q2")]
        assert mod_copy(recs) == 1.0

    def test_corpus_without_modifiers_reads_zero(self):
        assert mod_copy([record("human", "human", source=["human"])]) == 0.0

    def test_verbatim_modifiers_always_copied(self):
        rng = random.Random(3)
        mods = ["paris", "france", "berlin", "tokyo"]
        recs = []
        for i in range(20):
            chosen = rng.sample(mods, 2)
            recs.append(record(f"street in {chosen[0]} , {chosen[1]}", "street",
                               source=mods + ["street"], eid=f"Q{i}"))
        assert mod_copy(recs) == 1.0


class TestHedAcc:
    def test_wrong_head(self):
        recs = [record("river in france", "street in paris , france",
                       types=["street"])]
        assert hed_acc(recs) == 0.0

    def test_right_head_wrong_modifier(self):
        recs = [record("street in germany", "street in paris , france",
                       types=["street"])]
        assert hed_acc(recs) == 1.0

    def test_identical_all_correct(self):
        recs = [record("street in paris", "street in paris"),
                record("american singer , producer", "american singer , producer",
                       eid="Q2")]
        assert hed_acc(recs) == 1.0

    def test_type_values_rescue_mismatched_reference(self):
        recs = [record("village in france", "municipality of france",
                       types=["village"])]
        assert hed_acc(recs) == 1.0

    def test_missing_type_values_fall_back_to_reference(self):
        recs = [record("village in france", "village of france")]
        assert hed_acc(recs) == 1.0

    def test_corpus_without_heads_reads_zero(self):
        assert hed_acc([record("", "street in paris", types=["street"])]) == 0.0


class TestEvaluate:
    def fixture_records(self):
        return [
            record("street in paris , france", "street in paris , france",
                   source=["street", "paris", "france"], types=["street"], eid="Q1"),
            record("river in germany", "street in paris , france",
                   source=["street", "paris", "france"], types=["street"], eid="Q2"),
            record("human", "human", source=["human"], types=["human"], eid="Q3"),
        ]

    def test_hand_computed_report(self):
        report = evaluate_records(self.fixture_records())
        # corpus hypothesis length 9 vs reference length 11: brevity penalty applies
        brevity = math.exp(1.0 - 11 / 9)
        # unigram: 5/5 + 1/3 + 1/1 matches over 9 hypothesis tokens
        assert abs(report["bleu1"] - 100.0 * brevity * (7 / 9)) < 1e-6
        # bigram: 4/4 + 0/2 + 0/0 matches over 6 hypothesis bigrams
        expected_b2 = 100.0 * brevity * math.sqrt((7 / 9) * (4 / 6))
        assert abs(report["bleu2"] - expected_b2) < 1e-6
        beta2 = 1.44
        f_q2 = (1 + beta2) * (1 / 5) * (1 / 3) / ((1 / 5) + beta2 * (1 / 3))
        expected_rouge = 100.0 * (1.0 + f_q2 + 1.0) / 3
        assert abs(report["rougeL"] - expected_rouge) < 1e-6
        # modifiers: paris, france (copied), germany (not)
        assert abs(report["mod_copy"] - 2 / 3) < 1e-9
        # heads: street (ok), river (wrong), human (ok)
        assert abs(report["hed_acc"] - 2 / 3) < 1e-9

    def test_permutation_invariant(self):
        recs = self.fixture_records()
        shuffled = [recs[2], recs[0], recs[1]]
        a = evaluate_records(recs)
        b = evaluate_records(shuffled)
        for key in a:
            assert abs(a[key] - b[key]) < 1e-12

    def test_perfect_predictions_from_files(self, tmp_path, rue_cazotte):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({
            "entity_id": "Q1", "label": "rue cazotte",
            "description": "street in paris , france",
            "statements": [["P31", "instance of", "street"],
                           ["P17", "country", "france"],
                           ["P131", "located in", "paris"],
                           ["P138", "named after", "jacques cazotte"],
                           ["P625", "coordinates", "48.8 2.3"]],
        }) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"entity_id": "Q1",
                                     "hypothesis": "street in paris , france"}) + "\n",
                         encoding="utf-8")
        report = evaluate(preds, refs)
        assert report["bleu1"] == 100.0
        assert report["bleu2"] == 100.0
        assert report["rougeL"] == 100.0
        assert report["mod_copy"] == 1.0
        assert report["hed_acc"] == 1.0

    @pytest.mark.parametrize("hypothesis", ["castle", ""])
    def test_every_metric_without_modifiers_or_heads(self, tmp_path, hypothesis):
        # one head word and no modifier in every hypothesis, or no word at all
        ents = synthdata.make_corpus(n=4, seed=1)
        refs, preds = tmp_path / "refs.jsonl", tmp_path / "preds.jsonl"
        write_jsonl(refs, ents)
        preds.write_text("".join(json.dumps({"entity_id": e.entity_id, "hypothesis": hypothesis})
                                 + "\n" for e in ents), encoding="utf-8")
        report = evaluate(preds, refs)
        assert set(report) == {"bleu1", "bleu2", "rougeL", "mod_copy", "hed_acc"}
        assert report["mod_copy"] == 0.0
        assert all(0.0 <= report[k] <= 100.0 for k in ("bleu1", "bleu2", "rougeL"))
        assert 0.0 <= report["hed_acc"] <= 1.0
        if not hypothesis:
            assert set(report.values()) == {0.0}

    def test_id_mismatch_lists_ids(self, tmp_path):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({
            "entity_id": "Q7", "label": "x", "description": "street",
            "statements": [["p31", "instance of", "street"]],
        }) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"entity_id": "Q9", "hypothesis": "street"}) + "\n",
                         encoding="utf-8")
        with pytest.raises(TypedescError) as err:
            evaluate(preds, refs)
        assert "Q9" in str(err.value) and "Q7" in str(err.value)

    @pytest.mark.parametrize("first,second", [("5", 5), (5, "5")],
                             ids=["string-then-number", "number-then-string"])
    def test_duplicate_id_rejected_as_stored(self, tmp_path, first, second):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({
            "entity_id": "5", "label": "x", "description": "street",
            "statements": [["p31", "instance of", "street"]],
        }) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(json.dumps({"entity_id": eid, "hypothesis": hyp}) + "\n"
                                 for eid, hyp in [(first, "street"), (second, "canal")]),
                         encoding="utf-8")
        with pytest.raises(TypedescError, match="line 2: duplicate entity_id '5'"):
            evaluate(preds, refs)

    def test_null_hypothesis_rejected(self, tmp_path):
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({
            "entity_id": "Q1", "label": "x", "description": "none",
            "statements": [["p31", "instance of", "none"]],
        }) + "\n", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text(json.dumps({"entity_id": "Q1", "hypothesis": None}) + "\n",
                         encoding="utf-8")
        with pytest.raises(TypedescError,
                           match=r"preds\.jsonl: line 1: 'hypothesis' must be a string"):
            evaluate(preds, refs)

    def test_empty_predictions_rejected(self, tmp_path):
        refs = tmp_path / "refs.jsonl"
        refs.write_text("", encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text("", encoding="utf-8")
        with pytest.raises(TypedescError):
            evaluate(preds, refs)
