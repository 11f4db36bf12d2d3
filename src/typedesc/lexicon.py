"""Embedded English function-word lexicon and the shared token constants.

The lexicon is fixed inside the package so that template annotation and the
copy-based metrics are reproducible bit for bit across machines.
"""

HED = "$hed$"
MOD = "$mod$"

PAD = "<pad>"
UNK = "<unk>"
BOS = "<bos>"
EOS = "<eos>"

# Prepositions double as the segment boundary in the head-modifier annotator.
PREPOSITIONS = frozenset("""
    aboard about above across after against along amid amidst among around as
    at atop before behind below beneath beside besides between beyond by
    despite down during except for from in inside into like near of off on
    onto out outside over past per since than through throughout till to
    toward towards under underneath until unto up upon via within without
""".split())

_ARTICLES = frozenset("a an the".split())

_CONJUNCTIONS = frozenset("""
    although and because but if nor or so though unless when whenever where
    wherever whereas whether while yet
""".split())

_PRONOUNS_DETERMINERS = frozenset("""
    all another any both each either enough every few he her hers him his i
    it its itself many me more most much my neither no none other others our
    ours she some such that their theirs them themselves these they this
    those us we what which who whom whose you your yours
""".split())

_AUXILIARIES = frozenset("""
    am are be been being can could did do does doing done had has have having
    is may might must shall should was were will would
""".split())

_ADVERBS = frozenset("also ever here just never not now only then there too very".split())

STOPWORDS = frozenset().union(
    PREPOSITIONS, _ARTICLES, _CONJUNCTIONS, _PRONOUNS_DETERMINERS,
    _AUXILIARIES, _ADVERBS,
)

# Punctuation detached by the tokenizer; commas matter because they are
# template tokens in coordinated descriptions.
DETACHABLE_PUNCTUATION = ",.()"
PUNCTUATION_TOKENS = frozenset(DETACHABLE_PUNCTUATION)

# Separators across which coordinated head runs continue.
COORDINATORS = frozenset({",", "and"})


def is_punctuation(token: str) -> bool:
    return bool(token) and not any(ch.isalnum() for ch in token)


def is_function(token: str) -> bool:
    """True for stopwords and free-standing punctuation; content words are False."""
    return token in STOPWORDS or is_punctuation(token)
