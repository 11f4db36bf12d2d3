"""JSONL entity ingestion, vocabularies, dataset splits and infobox reconstruction."""

from __future__ import annotations

import collections
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import lexicon
from .diffcore import atomic_write
from .errors import TypedescError
from .lexicon import BOS, EOS, HED, MOD, PAD, UNK

RESERVED_WORDS = (PAD, UNK, BOS, EOS)
RESERVED_PROPERTIES = (PAD, UNK)
# the tokens each VocabSet vocabulary must hold, since the code looks them up by name
REQUIRED_TOKENS = {"value_vocab": (UNK,), "property_vocab": (UNK,),
                   "target_vocab": (UNK, BOS, EOS), "template_vocab": (UNK, BOS, EOS)}

# Wikidata property ids whose values are candidate entity types.
TYPE_PROPERTY_IDS = frozenset({"p31", "p279"})


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach surrounding commas/periods/parens."""
    tokens = []
    for chunk in text.lower().split():
        lead = []
        while chunk and chunk[0] in lexicon.DETACHABLE_PUNCTUATION:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in lexicon.DETACHABLE_PUNCTUATION:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def property_token(label: str) -> str:
    """Property label as a single vocabulary token ("named after" -> "named_after")."""
    return "_".join(label.split())


@dataclass
class Entity:
    """A knowledge-graph entity with its infobox and gold type description.

    `description` holds the tokenized, space-joined gold text; statement values
    stay verbatim (lowercased) and are tokenized only during reconstruction.
    """

    entity_id: str
    label: str
    description: str
    statements: list[tuple[str, str, str]]

    @property
    def description_tokens(self) -> list[str]:
        return self.description.split()


@dataclass
class SourceToken:
    """One value word with its property token and within-value position."""

    word: str
    property: str
    position: int


@dataclass
class VocabSet:
    """Id maps for value words, properties, positions, target words and template tokens.

    Value words, properties and positions live in disjoint id spaces: three
    separate embedding tables, so the property "country" and the value word
    "country" are different tokens.
    """

    value_vocab: dict[str, int]
    property_vocab: dict[str, int]
    position_count: int
    target_vocab: dict[str, int]
    template_vocab: dict[str, int]

    def __post_init__(self):
        for attr, tokens in REQUIRED_TOKENS.items():
            for token in tokens:
                if token not in getattr(self, attr):
                    raise TypedescError(f"{attr} lacks the reserved token '{token}'")
        self.target_itos = _itos(self.target_vocab)
        self.template_itos = _itos(self.template_vocab)

    def value_id(self, word: str) -> int:
        return self.value_vocab.get(word, self.value_vocab[UNK])

    def property_id(self, prop: str) -> int:
        return self.property_vocab.get(prop, self.property_vocab[UNK])

    def template_id(self, token: str) -> int:
        return self.template_vocab.get(token, self.template_vocab[UNK])


def _itos(vocab: dict[str, int]) -> list[str]:
    out = [""] * len(vocab)
    for token, idx in vocab.items():
        out[idx] = token
    return out


@dataclass
class DatasetSplit:
    train: list[Entity]
    valid: list[Entity]
    test: list[Entity]


def read_lines(path) -> list[str]:
    """The lines of UTF-8 file `path`, or of standard input when it is None, without endings.

    The bytes are read and decoded once. A line ends at LF, CR LF or CR, as in text mode.
    """
    data = sys.stdin.buffer.read() if path is None else Path(path).read_bytes()
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # UTF-8 holds CR/LF only as themselves
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TypedescError(f"{'<stdin>' if path is None else path}: line {line}: "
                            f"not UTF-8 (byte 0x{data[exc.start]:02x})") from None
    return lines[:-1] if lines[-1] == "" else lines  # a final line ending starts no line


def read_jsonl(path, keys):
    """(line number, object) for each non-blank line of a JSONL file; each must hold `keys`."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TypedescError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise TypedescError(f"{path}: line {lineno}: expected a JSON object")
        for key in keys:
            if key not in obj:
                raise TypedescError(f"{path}: line {lineno}: missing key '{key}'")
        yield lineno, obj


_JSON_KINDS = {type(None): "null", bool: "true/false", list: "an array", dict: "an object"}


def json_text(value, path, lineno: int, key: str) -> str:
    """A JSON string or number as text; any other JSON value is an error naming the key."""
    if isinstance(value, str) or type(value) in (int, float):
        return str(value)
    raise TypedescError(f"{path}: line {lineno}: '{key}' must be a string or a number, "
                        f"got {_JSON_KINDS[type(value)]}")


def load_jsonl(path) -> list[Entity]:
    """Load entities from a JSONL file, lowercasing all text.

    Descriptions are tokenized here; statement values are stored verbatim.
    """
    entities = []
    for lineno, obj in read_jsonl(path, ("entity_id", "label", "description", "statements")):
        raw_statements = obj["statements"]
        if not isinstance(raw_statements, list) or not raw_statements:
            raise TypedescError(f"{path}: line {lineno}: entity has no statements")
        statements = []
        for st in raw_statements:
            if not isinstance(st, (list, tuple)) or len(st) != 3:
                raise TypedescError(
                    f"{path}: line {lineno}: statement must be "
                    f"[property_id, property_label, value], got {st!r}")
            pid, plabel, value = (json_text(part, path, lineno, "statements").lower()
                                  for part in st)
            statements.append((" ".join(pid.split()), " ".join(plabel.split()),
                               " ".join(value.split())))
        entities.append(Entity(
            entity_id=json_text(obj["entity_id"], path, lineno, "entity_id"),
            label=" ".join(json_text(obj["label"], path, lineno, "label").lower().split()),
            description=" ".join(tokenize(
                json_text(obj["description"], path, lineno, "description"))),
            statements=statements,
        ))
    return entities


def write_jsonl(path, entities: list[Entity]):
    with atomic_write(path, encoding="utf-8") as fh:
        for ent in entities:
            obj = {
                "entity_id": ent.entity_id,
                "label": ent.label,
                "description": ent.description,
                "statements": [list(st) for st in ent.statements],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def filter_entities(entities: list[Entity], min_statements: int) -> list[Entity]:
    """Keep entities with enough statements and a non-empty description, in order."""
    if min_statements < 1:
        raise TypedescError(f"min_statements must be >= 1, got {min_statements}")
    return [e for e in entities
            if len(e.statements) >= min_statements and e.description.strip()]


def reconstruct_infobox(entity: Entity, max_position: int) -> list[SourceToken]:
    """Flatten the infobox into (value word, property, position) triples.

    Positions index words within their value and saturate into the final
    bucket; the token count is never changed by clipping.
    """
    tokens = []
    for _pid, plabel, value in entity.statements:
        prop = property_token(plabel)
        for k, word in enumerate(tokenize(value)):
            tokens.append(SourceToken(word, prop, min(k, max_position - 1)))
    return tokens


def build_vocabs(train: list[Entity], value_vocab_size: int, target_vocab_size: int,
                 max_position: int) -> VocabSet:
    """Frequency vocabularies from the training split only.

    Sizes include the reserved tokens. Ties at the cutoff keep the
    lexicographically smaller word.
    """
    if not train:
        raise TypedescError("cannot build vocabularies from an empty training split")
    if value_vocab_size < len(RESERVED_WORDS) or target_vocab_size < len(RESERVED_WORDS):
        raise TypedescError(
            f"vocab sizes must be >= {len(RESERVED_WORDS)} reserved tokens, "
            f"got value={value_vocab_size} target={target_vocab_size}")

    value_counts = collections.Counter()
    target_counts = collections.Counter()
    property_counts = collections.Counter()
    for ent in train:
        target_counts.update(ent.description_tokens)
        for _pid, plabel, value in ent.statements:
            property_counts[property_token(plabel)] += 1
            value_counts.update(tokenize(value))

    def top(counts, capacity):
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [word for word, _ in ranked[:capacity]]

    value_words = list(RESERVED_WORDS) + top(value_counts, value_vocab_size - len(RESERVED_WORDS))
    target_words = list(RESERVED_WORDS) + top(target_counts, target_vocab_size - len(RESERVED_WORDS))
    property_words = list(RESERVED_PROPERTIES) + top(property_counts, len(property_counts))
    template_words = ([PAD, UNK, BOS, EOS, HED, MOD]
                      + sorted(lexicon.STOPWORDS)
                      + sorted(lexicon.PUNCTUATION_TOKENS))

    return VocabSet(
        value_vocab={w: i for i, w in enumerate(value_words)},
        property_vocab={w: i for i, w in enumerate(property_words)},
        position_count=max_position,
        target_vocab={w: i for i, w in enumerate(target_words)},
        template_vocab={w: i for i, w in enumerate(template_words)},
    )


def split_dataset(entities: list[Entity], seed: int) -> DatasetSplit:
    """Deterministic seeded shuffle followed by an 8:1:1 partition."""
    n = len(entities)
    if n < 10:
        raise TypedescError(f"need at least 10 entities to split, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    shuffled = [entities[i] for i in order]
    n_valid = n // 10
    n_test = n // 10
    n_train = n - n_valid - n_test
    return DatasetSplit(
        train=shuffled[:n_train],
        valid=shuffled[n_train:n_train + n_valid],
        test=shuffled[n_train + n_valid:],
    )


def write_vocab_file(path, vocab: dict[str, int]):
    """One token per line; the line number is the id."""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("\n".join(_itos(vocab)) + "\n")


def read_vocab_file(path) -> dict[str, int]:
    lines = read_lines(path)
    vocab = {token: i for i, token in enumerate(lines)}
    if len(vocab) != len(lines) or not all(map(str.strip, lines)):  # name the first bad line
        first = {}
        for lineno, token in enumerate(lines, start=1):
            if not token.strip():  # before the repeat test: "" twice is a blank, not a repeat
                raise TypedescError(f"{path}: line {lineno}: blank line where a token belongs")
            if first.setdefault(token, lineno) != lineno:
                raise TypedescError(
                    f"{path}: line {lineno}: token {token!r} repeats line {first[token]}")
    return vocab
