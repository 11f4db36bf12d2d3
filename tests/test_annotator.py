import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import synthdata
from typedesc.annotator import (HEAD, MODIFIER, annotate, apply_template,
                                extract_heads)
from typedesc.corpus import tokenize
from typedesc.errors import TypedescError
from typedesc.lexicon import HED, MOD, PUNCTUATION_TOKENS, STOPWORDS, is_function

# arbitrary description text: function words, punctuation, content words and junk
DESCRIPTION_TEXT = st.lists(st.one_of(
    st.sampled_from(sorted(STOPWORDS)), st.sampled_from(sorted(PUNCTUATION_TOKENS)),
    st.sampled_from(["street", "Paris", "gothic", "2014", "lake", "singer"]),
    st.text(alphabet="ab1,.() -", max_size=4)), min_size=1, max_size=8).map(" ".join)


class TestAnnotate:
    def test_place_description(self):
        ann = annotate("street in paris , france".split())
        assert ann.template == [HED, "in", MOD, ",", MOD]
        assert ann.heads == ["street"]
        assert ann.modifiers == ["paris", "france"]

    def test_coordinated_heads(self):
        ann = annotate("american singer , producer".split())
        assert ann.template == [MOD, HED, ",", HED]
        assert set(ann.heads) == {"singer", "producer"}

    def test_single_content_token(self):
        assert annotate(["human"]).template == [HED]

    def test_numeral_is_modifier(self):
        ann = annotate("2014 film".split())
        assert ann.roles == [MODIFIER, HEAD]

    def test_coordination_stops_at_preposition(self):
        ann = annotate("singer in france and germany".split())
        assert ann.heads == ["singer"]
        assert ann.modifiers == ["france", "germany"]
        assert ann.template == [HED, "in", MOD, "and", MOD]

    def test_coordination_requires_pure_separators(self):
        # "the" between runs is not a coordinator, so "producer" stays a modifier
        ann = annotate("singer the producer".split())
        assert ann.heads == ["singer"]
        assert ann.modifiers == ["producer"]

    def test_leading_preposition_falls_back(self):
        ann = annotate("of france".split())
        assert ann.heads == ["france"]

    def test_all_function_words_have_no_heads(self):
        ann = annotate("of the".split())
        assert ann.heads == []
        assert ann.template == ["of", "the"]

    def test_empty_rejected(self):
        with pytest.raises(TypedescError, match="cannot annotate an empty description"):
            annotate([])

    def test_roles_align(self):
        ann = annotate("gothic german church".split())
        assert len(ann.tokens) == len(ann.roles) == len(ann.template)
        assert ann.roles == [MODIFIER, MODIFIER, HEAD]


class TestExtractHeads:
    def test_place(self):
        assert extract_heads("street in paris , france".split()) == {"street"}

    def test_coordinated(self):
        assert extract_heads("american singer , producer".split()) == {"singer", "producer"}

    def test_same_template_same_head_slot(self):
        assert extract_heads("lake in siberia , russia".split()) == {"lake"}


class TestApplyTemplate:
    def test_fills_in_order(self):
        out = apply_template([HED, "in", MOD, ",", MOD], ["street"], ["paris", "france"])
        assert out == "street in paris , france".split()

    def test_single_head(self):
        assert apply_template([HED], ["human"], []) == ["human"]

    def test_missing_head_names_slot(self):
        with pytest.raises(TypedescError, match="slot 0"):
            apply_template([HED, "in", MOD], [], ["paris"])

    def test_missing_modifier_names_slot(self):
        with pytest.raises(TypedescError, match="slot 2"):
            apply_template([HED, "in", MOD], ["street"], [])


class TestProperties:
    def test_round_trip_on_families(self):
        rng = random.Random(11)
        for _ in range(300):
            tokens = synthdata.random_description(rng)
            ann = annotate(tokens)
            assert apply_template(ann.template, ann.heads, ann.modifiers) == tokens

    def test_round_trip_on_random_junk(self):
        rng = random.Random(13)
        words = ["street", "in", "of", "and", ",", "paris", "2014", "the", "gothic"]
        for _ in range(300):
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 7))]
            ann = annotate(tokens)
            assert apply_template(ann.template, ann.heads, ann.modifiers) == tokens

    def test_template_tokens_only_slots_or_input_function_words(self):
        rng = random.Random(17)
        for _ in range(200):
            tokens = synthdata.random_description(rng)
            ann = annotate(tokens)
            for src, tmpl in zip(ann.tokens, ann.template):
                assert tmpl in (HED, MOD) or (tmpl == src and is_function(src))

    def test_head_exists_whenever_content_exists(self):
        rng = random.Random(19)
        words = ["in", "of", "the", ",", "lake", "bridge", "french"]
        for _ in range(300):
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 6))]
            ann = annotate(tokens)
            if any(not is_function(t) for t in tokens):
                assert ann.heads

    @settings(derandomize=True, database=None, max_examples=500)
    @given(DESCRIPTION_TEXT)
    def test_round_trip_on_tokenized_text(self, text):
        tokens = tokenize(text)
        assume(tokens)
        ann = annotate(tokens)
        assert len(ann.template) == len(tokens)
        assert apply_template(ann.template, ann.heads, ann.modifiers) == tokens
        for src, tmpl in zip(tokens, ann.template):
            assert tmpl in (HED, MOD) or (tmpl == src and is_function(src))
        if any(not is_function(t) for t in tokens):
            assert ann.heads

    def test_deterministic(self):
        tokens = "gothic church in paris , france".split()
        assert annotate(tokens).template == annotate(tokens).template


def test_stopword_lexicon_is_function_words_only():
    # heads/modifiers used across the tests must never be classified FUNCTION
    for word in ["street", "lake", "singer", "paris", "france", "gothic", "2014"]:
        assert word not in STOPWORDS
    for word in ["in", "of", "and", "the"]:
        assert word in STOPWORDS
