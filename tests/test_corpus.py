import ast
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import typedesc
from typedesc.config import RunConfig
from typedesc.corpus import (Entity, build_vocabs, filter_entities, load_jsonl,
                             read_vocab_file, reconstruct_infobox, split_dataset, tokenize,
                             write_jsonl)
from typedesc.errors import TypedescError
from typedesc.lexicon import BOS, DETACHABLE_PUNCTUATION, EOS, HED, MOD, UNK
from typedesc.metrics import corpus_copy_ratio

MAX_POSITION = RunConfig().max_position


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def entity(n_statements=5, description="street in paris , france", eid="Q1"):
    statements = [("p31", "instance of", "street")]
    statements += [("p" + str(i), "prop " + str(i), "value " + str(i))
                   for i in range(n_statements - 1)]
    return Entity(eid, "label", description, statements)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Rue Cazotte") == ["rue", "cazotte"]

    def test_detaches_punctuation(self):
        assert tokenize("paris, france") == ["paris", ",", "france"]
        assert tokenize("(1997) film.") == ["(", "1997", ")", "film", "."]

    def test_keeps_internal_punctuation(self):
        assert tokenize("jean-paul u.s.a.") == ["jean-paul", "u.s.a", "."]

    def test_already_tokenized_is_stable(self):
        tokens = tokenize("street in paris , france")
        assert tokens == ["street", "in", "paris", ",", "france"]
        assert tokenize(" ".join(tokens)) == tokens

    # any text, with the characters tokenize treats specially drawn often
    @settings(derandomize=True, database=None, max_examples=500)
    @given(st.text(st.one_of(st.sampled_from(" \t\n" + DETACHABLE_PUNCTUATION + "aA"),
                             st.characters())))
    def test_retokenizing_is_the_identity(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestLoadJsonl:
    def test_loads_rue_cazotte_line(self, tmp_path):
        line = json.dumps({
            "entity_id": "Q1", "label": "Rue Cazotte",
            "description": "Street in Paris, France",
            "statements": [["P31", "instance of", "street"],
                           ["P138", "named after", "Jacques Cazotte"]],
        })
        path = tmp_path / "data.jsonl"
        write_lines(path, [line])
        ents = load_jsonl(path)
        assert len(ents) == 1
        ent = ents[0]
        assert ent.entity_id == "Q1"
        assert ent.description == "street in paris , france"
        # values stay verbatim (lowercased), tokenized only later
        assert ent.statements[1] == ("p138", "named after", "jacques cazotte")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_jsonl(path) == []

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for bad in ("{broken", "3", '["entity_id", "label", "description", "statements"]'):
            write_lines(path, ['{"entity_id": "Q1", "label": "x", "description": "d", '
                               '"statements": [["p1", "p", "v"]]}', bad])
            with pytest.raises(TypedescError, match="line 2"):
                load_jsonl(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, ['{"entity_id": "Q1", "label": "x", "statements": []}'])
        with pytest.raises(TypedescError, match="description"):
            load_jsonl(path)

    @pytest.mark.parametrize("key,value", [
        ("entity_id", None), ("label", True), ("description", None),
        ("description", ["fr", "x"]), ("statements", {"p": 1})],
        ids=["entity_id-null", "label-boolean", "description-null", "description-array",
             "statement-object"])
    def test_non_text_field_rejected(self, tmp_path, key, value):
        good = {"entity_id": "Q1", "label": "x", "description": "d",
                "statements": [["p1", "p", "v"]]}
        bad = {**good, key: [["p1", "p", value]] if key == "statements" else value}
        path = tmp_path / "bad.jsonl"
        write_lines(path, [json.dumps(good), json.dumps(bad)])
        with pytest.raises(TypedescError, match=rf"bad\.jsonl: line 2: '{key}' must be a string"):
            load_jsonl(path)

    def test_entity_without_statements_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, ['{"entity_id": "Q1", "label": "x", "description": "d", '
                           '"statements": []}'])
        with pytest.raises(TypedescError, match="no statements"):
            load_jsonl(path)


def test_failed_write_jsonl_keeps_earlier_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [entity(eid=f"Q{i}") for i in range(3)])
    before = path.read_bytes()
    unwritable = entity(eid="Qset")
    unwritable.statements[0] = ("p31", "instance of", {"street"})
    with pytest.raises(TypeError):
        write_jsonl(path, [entity(), unwritable])
    assert path.read_bytes() == before and len(before.splitlines()) == 3
    assert list(tmp_path.iterdir()) == [path]


def _nodes_by_function(tree, kind):
    """(top-level function or method name, node) for every `kind` node in a module."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            for found in ast.walk(node):
                if isinstance(found, kind):
                    yield getattr(node, "name", "<module>"), found


def test_files_are_read_and_written_in_one_place():
    """Only atomic_write writes a file and only corpus.read_lines decodes file text.

    The exception is load_checkpoint, which decodes the parameter names in its binary file.
    """
    writes, decodes = [], []
    for path in sorted(Path(typedesc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, call in _nodes_by_function(tree, ast.Call):
            where = (path.stem, func)
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            owner = getattr(getattr(call.func, "value", None), "id", None)
            mode = (call.args[1] if len(call.args) > 1
                    else next((k.value for k in call.keywords if k.arg == "mode"), None))
            mode = "r" if mode is None else getattr(mode, "value", "unknown")
            if where == ("diffcore", "atomic_write"):
                continue
            if (name in ("write_text", "write_bytes") or owner == "shutil"
                    or name == "open" and not mode.startswith("r")):
                writes.append((*where, call.lineno))
            elif (name == "read_text" or name == "open" and mode != "rb"
                  or name == "decode" and all(isinstance(a, ast.Constant) for a in call.args)):
                decodes.append(where)
    assert writes == []
    assert [d for d in decodes if d != ("diffcore", "load_checkpoint")] == [("corpus", "read_lines")]


def test_only_the_two_error_types_are_raised():
    """Every raise in the package is bare or raises TypedescError or TrainingDiverged, the
    two classes errors.py defines, so `cli.main` reports every one of them as one error line.

    The exception is cli.entry, which raises SystemExit with main's exit status.
    """
    package = Path(typedesc.__file__).parent
    others = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, node in _nodes_by_function(tree, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if exc is not None and ast.unparse(exc) not in ("TypedescError", "TrainingDiverged"):
                others.append((path.stem, func, ast.unparse(exc)))
    assert others == [("cli", "entry", "SystemExit")]
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    assert ([node.name for node in errors.body if isinstance(node, ast.ClassDef)]
            == ["TypedescError", "TrainingDiverged"])


def test_every_public_diffcore_name_has_a_caller():
    """Every public top-level function or class of diffcore is referenced in the package
    or in bench/*.py outside its own definition, by name or as `diffcore.<name>`.

    The exception is grad_check, the finite-difference reference of the gradient tests.
    """
    source = Path(typedesc.__file__).parent / "diffcore.py"
    public = {node.name for node in ast.parse(source.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    used = set()
    bench = Path(__file__).resolve().parents[1] / "bench"
    for path in sorted(source.parent.glob("*.py")) + sorted(bench.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "diffcore"):
                    name = node.attr
                else:
                    continue
                if path != source or getattr(top, "name", None) != name:
                    used.add(name)
    assert sorted(public - used) == ["grad_check"]


class TestFilterEntities:
    def test_boundary(self):
        ents = [entity(4, eid="Q4"), entity(5, eid="Q5")]
        kept = filter_entities(ents, 5)
        assert [e.entity_id for e in kept] == ["Q5"]

    def test_min_one_keeps_everything_with_description(self):
        ents = [entity(1, eid="Q1"), entity(3, eid="Q2")]
        assert len(filter_entities(ents, 1)) == 2

    def test_drops_empty_description(self):
        ents = [entity(6, description="", eid="Q1"), entity(6, eid="Q2")]
        assert [e.entity_id for e in filter_entities(ents, 5)] == ["Q2"]

    def test_invalid_min(self):
        with pytest.raises(TypedescError, match="min_statements must be >= 1, got 0"):
            filter_entities([], 0)


class TestReconstructInfobox:
    def test_positions_within_value(self):
        ent = Entity("Q1", "l", "d", [("p138", "named after", "jacques cazotte")])
        tokens = reconstruct_infobox(ent, 16)
        assert [(t.word, t.property, t.position) for t in tokens] == [
            ("jacques", "named_after", 0), ("cazotte", "named_after", 1)]

    def test_statement_order_and_restart(self):
        ent = Entity("Q1", "l", "d", [("p17", "country", "france"),
                                      ("p31", "instance of", "street")])
        tokens = reconstruct_infobox(ent, 16)
        assert [(t.word, t.property, t.position) for t in tokens] == [
            ("france", "country", 0), ("street", "instance_of", 0)]

    def test_empty_value_contributes_nothing(self):
        ent = Entity("Q1", "l", "d", [("p1", "a", ""), ("p2", "b", "x")])
        tokens = reconstruct_infobox(ent, 16)
        assert [(t.word, t.property) for t in tokens] == [("x", "b")]

    def test_positions_clip_but_length_does_not(self):
        ent = Entity("Q1", "l", "d", [("p1", "a", " ".join("w%d" % i for i in range(20)))])
        tokens = reconstruct_infobox(ent, 4)
        assert len(tokens) == 20
        assert max(t.position for t in tokens) == 3
        assert all(t.position < 4 for t in tokens)


class TestBuildVocabs:
    def test_frequency_cutoff(self):
        ents = ([entity(5, description="street") for _ in range(10)]
                + [entity(5, description="river")])
        vocabs = build_vocabs(ents, 64, 5, MAX_POSITION)  # 4 reserved + 1 slot
        assert "street" in vocabs.target_vocab
        assert "river" not in vocabs.target_vocab
        unk = vocabs.target_vocab[UNK]
        assert vocabs.target_vocab.get("river", unk) == unk

    def test_tie_break_is_lexicographic(self):
        ents = [entity(5, description="zebra apple")]
        vocabs = build_vocabs(ents, 64, 5, MAX_POSITION)
        assert "apple" in vocabs.target_vocab
        assert "zebra" not in vocabs.target_vocab

    def test_template_vocab_has_slot_tokens(self):
        ents = [entity(5)]
        vocabs = build_vocabs(ents, 64, 64, MAX_POSITION)
        assert HED in vocabs.template_vocab
        assert MOD in vocabs.template_vocab
        assert list(vocabs.template_vocab)[-4:] == ["(", ")", ",", "."]

    def test_value_and_property_spaces_disjoint(self):
        # "country" appears both as a property and as a value word; ids are
        # assigned independently in separate tables.
        ents = [Entity("Q1", "l", "d", [("p17", "country", "country road")])]
        vocabs = build_vocabs(ents, 64, 64, MAX_POSITION)
        assert "country" in vocabs.value_vocab
        assert "country" in vocabs.property_vocab

    def test_size_below_reserved_rejected(self):
        with pytest.raises(TypedescError, match="vocab sizes must be >= 4 reserved tokens, "
                                                "got value=3 target=64"):
            build_vocabs([entity(5)], 3, 64, MAX_POSITION)

    def test_deterministic(self):
        ents = [entity(5, description="a b c %d" % i, eid="Q%d" % i) for i in range(6)]
        v1 = build_vocabs(ents, 64, 64, MAX_POSITION)
        v2 = build_vocabs(ents, 64, 64, MAX_POSITION)
        assert v1.target_vocab == v2.target_vocab
        assert v1.value_vocab == v2.value_vocab


class TestVocabFiles:
    def test_repeated_token_names_both_lines(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("<pad>\n<unk>\nstreet\nlake\nstreet\n", encoding="utf-8")
        with pytest.raises(TypedescError, match=r"v\.txt: line 5: token 'street' repeats line 3"):
            read_vocab_file(path)

    def test_blank_line_named_before_any_repeat(self, tmp_path):
        path = tmp_path / "v.txt"
        # a whitespace-only line, then two empty ones that would also repeat
        path.write_text("<pad>\n<unk>\n \nstreet\n\n\n", encoding="utf-8")
        with pytest.raises(TypedescError, match=r"v\.txt: line 3: blank line"):
            read_vocab_file(path)

    @pytest.mark.parametrize("attr,token", [("value_vocab", UNK), ("property_vocab", UNK),
                                            ("target_vocab", UNK), ("target_vocab", BOS),
                                            ("target_vocab", EOS), ("template_vocab", UNK),
                                            ("template_vocab", BOS), ("template_vocab", EOS)])
    def test_missing_reserved_token_rejected(self, attr, token):
        vocabs = build_vocabs([entity(5)], 64, 64, MAX_POSITION)
        kept = [w for w in getattr(vocabs, attr) if w != token]
        with pytest.raises(TypedescError, match=f"{attr} lacks the reserved token '{token}'"):
            replace(vocabs, **{attr: {w: i for i, w in enumerate(kept)}})


class TestSplitDataset:
    def test_ten_entities(self):
        ents = [entity(5, eid="Q%d" % i) for i in range(10)]
        split = split_dataset(ents, seed=1)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_same_seed_identical(self):
        ents = [entity(5, eid="Q%d" % i) for i in range(30)]
        a = split_dataset(ents, seed=9)
        b = split_dataset(ents, seed=9)
        assert [e.entity_id for e in a.train] == [e.entity_id for e in b.train]
        assert [e.entity_id for e in a.test] == [e.entity_id for e in b.test]

    def test_partition_property(self):
        for n in (10, 37, 200):
            ents = [entity(5, eid="Q%d" % i) for i in range(n)]
            split = split_dataset(ents, seed=n)
            ids = [e.entity_id for part in (split.train, split.valid, split.test)
                   for e in part]
            assert sorted(ids) == sorted(e.entity_id for e in ents)
            assert len(split.valid) == n // 10
            assert len(split.test) == n // 10

    def test_eight_one_one_ratio_scales(self):
        ents = [entity(5, eid="Q%d" % i) for i in range(2000)]
        split = split_dataset(ents, seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (1600, 200, 200)

    def test_too_small(self):
        with pytest.raises(TypedescError, match="need at least 10 entities to split, got 9"):
            split_dataset([entity(5, eid="Q%d" % i) for i in range(9)], seed=0)


class TestCorpusCopyRatio:
    def test_fully_copied(self):
        ent = Entity("Q1", "l", "street in paris , france",
                     [("p31", "instance of", "street"), ("p17", "country", "france"),
                      ("p131", "located in", "paris")])
        # "in" is a stopword and "," punctuation: denominator is 3, all copied
        assert corpus_copy_ratio([ent]) == 1.0

    def test_stopword_only_corpus_rejected(self):
        ent = Entity("Q1", "l", "of the", [("p1", "a", "x")])
        with pytest.raises(TypedescError, match="no non-stopword description tokens"):
            corpus_copy_ratio([ent])

    def test_range(self):
        rng = random.Random(5)
        ents = []
        for i in range(20):
            desc = " ".join(rng.choice(["street", "lake", "xyzzy", "in", "quux"])
                            for _ in range(4))
            ents.append(Entity("Q%d" % i, "l", desc,
                               [("p1", "a", "street lake")]))
        ratio = corpus_copy_ratio(ents)
        assert 0.0 <= ratio <= 1.0
