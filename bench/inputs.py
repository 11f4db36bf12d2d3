"""Seeded synthetic inputs at the benchmark's fixed model geometries.

The seed picks which words fill each entity; it never changes how much work
an entity costs. Entity i always has the same template family, statement
count and source-token count, so every seed gives the same per-item work and
the run-to-run spread measures the program and the host, not the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from typedesc import config, corpus, diffcore
from typedesc.cli import VOCAB_FILES
from typedesc.corpus import Entity, VocabSet
from typedesc.stage1 import ModelDims
from typedesc.trainer import TwoStageModel


@dataclass(frozen=True)
class Geometry:
    dims: ModelDims
    value_vocab_size: int
    target_vocab_size: int
    max_position: int


GEOMETRIES = {
    # the vocabulary sizes of the 64-entity corpus the overfit oracle trains on
    "overfit": Geometry(ModelDims(d_h=64, d_word=64, d_prop=32, d_pos=32), 256, 47, 8),
    # d_h=256 over the overfit vocabularies: the ROADMAP baseline's middle row
    "d256": Geometry(ModelDims(d_h=256, d_word=256, d_prop=128, d_pos=128), 256, 47, 8),
    # d_h=256 with both vocabularies padded to 10k
    "paper": Geometry(ModelDims(d_h=256, d_word=256, d_prop=128, d_pos=128), 10000, 10000, 16),
    # the self-check geometry: every code path, in seconds
    "tiny": Geometry(ModelDims(d_h=8, d_word=8, d_prop=4, d_pos=4), 64, 40, 8),
}

HEADS = ["canal", "tower", "hamlet", "gallery", "creek", "viaduct", "fortress", "poet",
         "sculptor", "novel", "chapel", "opera", "port", "depot"]
ADJECTIVES = ["belgian", "swiss", "danish", "greek", "czech", "finnish", "irish", "welsh"]
STYLES = ["rococo", "brutalist", "neoclassical", "tudor", "byzantine", "victorian"]
PLACES = [("ghent", "belgium"), ("basel", "switzerland"), ("aarhus", "denmark"),
          ("patras", "greece"), ("brno", "czechia"), ("tampere", "finland"),
          ("cork", "ireland"), ("cardiff", "wales"), ("porto", "portugal"),
          ("krakow", "poland")]
FIRSTNAMES = ["hilde", "bruno", "agnes", "tomas", "freya", "milan", "sofie", "arne"]
SURNAMES = ["janssen", "brunner", "holm", "pappas", "dvorak", "virtanen", "walsh", "evans"]
MODIFIER_WORDS = sorted(set(ADJECTIVES + STYLES + [c for c, _ in PLACES]
                            + [c for _, c in PLACES]))
# Every fifth modifier word is left out of the target vocabulary, so the
# description decoder can emit it only through the copy path.
WITHHELD = frozenset(MODIFIER_WORDS[::5])

# (template, the word pools that fill its $mod$ slots, number of heads)
FAMILIES = [
    (["$hed$"], [], 1),
    (["$mod$", "$hed$"], ["adjective"], 1),
    (["$mod$", "$mod$", "$hed$"], ["style", "adjective"], 1),
    (["$hed$", "in", "$mod$", ",", "$mod$"], ["place"], 1),
    (["$hed$", "of", "$mod$"], ["country"], 1),
    (["$mod$", "$hed$", ",", "$hed$"], ["adjective"], 2),
]

MOD_PROPERTIES = {
    "adjective": ("p27", "country of citizenship"),
    "style": ("p149", "architectural style"),
    "city": ("p131", "located in the administrative territorial entity"),
    "country": ("p17", "country"),
}


def _fillers(rng: random.Random) -> list[tuple[str, str, str]]:
    """Filler statements; each value has a fixed token count whatever the seed."""
    return [
        ("p571", "inception", str(rng.randint(1400, 2000))),
        ("p138", "named after", f"{rng.choice(FIRSTNAMES)} {rng.choice(SURNAMES)}"),
        ("p2048", "height", f"{rng.randint(3, 300)} m"),
        ("p625", "coordinate location",
         f"{rng.randint(10, 89)}.{rng.randint(10, 99)} {rng.randint(10, 179)}.{rng.randint(10, 99)}"),
        ("p1435", "heritage designation", rng.choice(["monument", "landmark", "protected"])),
    ]


def make_entity(rng: random.Random, index: int, prefix: str) -> Entity:
    template, pools, n_heads = FAMILIES[index % len(FAMILIES)]
    heads = rng.sample(HEADS, n_heads)
    statements = [("p31", "instance of", h) for h in heads]
    mods = []
    for pool in pools:
        if pool == "adjective":
            mods.append(("adjective", rng.choice(ADJECTIVES)))
        elif pool == "style":
            mods.append(("style", rng.choice(STYLES)))
        elif pool == "place":
            city, country = rng.choice(PLACES)
            mods += [("city", city), ("country", country)]
        else:
            mods.append(("country", rng.choice(PLACES)[1]))
    statements += [(*MOD_PROPERTIES[kind], word) for kind, word in mods]
    fillers = _fillers(rng)
    shift = index % len(fillers)
    fillers = fillers[shift:] + fillers[:shift]
    needed = max(5 + index % 4, len(statements))
    statements += fillers[:needed - len(statements)]

    fill = {"$hed$": iter(heads), "$mod$": iter(word for _, word in mods)}
    tokens = [next(fill[t]) if t in fill else t for t in template]
    return Entity(entity_id=f"{prefix}{index}", label=" ".join(tokens[:2]),
                  description=" ".join(tokens), statements=statements)


def make_entities(seed: int, count: int, prefix: str) -> list[Entity]:
    rng = random.Random(f"{prefix}:{seed}")
    return [make_entity(rng, i, prefix) for i in range(count)]


def _sized(vocab: dict[str, int], size: int, stem: str) -> dict[str, int]:
    """The vocabulary cut or padded to exactly `size` entries.

    Padding words never occur in the inputs; they give the embedding and
    output matrices the geometry's shape.
    """
    words = sorted(vocab, key=vocab.get)[:size]
    words += [f"{stem}{i:05d}" for i in range(size - len(words))]
    return {w: i for i, w in enumerate(words)}


def build_vocabs(train: list[Entity], geometry: Geometry) -> VocabSet:
    base = corpus.build_vocabs(train, geometry.value_vocab_size, geometry.target_vocab_size,
                               geometry.max_position)
    target = {w: i for i, w in enumerate(w for w in sorted(base.target_vocab,
                                                           key=base.target_vocab.get)
                                         if w not in WITHHELD)}
    return VocabSet(
        value_vocab=_sized(base.value_vocab, geometry.value_vocab_size, "valuepad"),
        property_vocab=base.property_vocab,
        position_count=geometry.max_position,
        target_vocab=_sized(target, geometry.target_vocab_size, "targetpad"),
        template_vocab=base.template_vocab,
    )


def run_config(geometry: Geometry, seed: int) -> config.RunConfig:
    d = geometry.dims
    return config.RunConfig(seed=seed, d_h=d.d_h, d_word=d.d_word, d_prop=d.d_prop,
                            d_pos=d.d_pos, value_vocab_size=geometry.value_vocab_size,
                            target_vocab_size=geometry.target_vocab_size,
                            max_position=geometry.max_position)


def _write_vocabs_and_config(out_dir: Path, vocabs: VocabSet, cfg: config.RunConfig):
    out_dir.mkdir(parents=True, exist_ok=True)
    for attr, filename in VOCAB_FILES.items():
        corpus.write_vocab_file(out_dir / filename, getattr(vocabs, attr))
    config.save_config(cfg, out_dir / "config.txt")


def write_prepared(out_dir: Path, train: list[Entity], vocabs: VocabSet,
                   cfg: config.RunConfig):
    """A data directory laid out as `typedesc prepare` writes one."""
    _write_vocabs_and_config(out_dir, vocabs, cfg)
    corpus.write_jsonl(out_dir / "train.jsonl", train)
    corpus.write_jsonl(out_dir / "valid.jsonl", [])
    corpus.write_jsonl(out_dir / "test.jsonl", [])


def read_vocabs(directory: Path, position_count: int) -> VocabSet:
    return VocabSet(position_count=position_count, **{
        attr: corpus.read_vocab_file(directory / name) for attr, name in VOCAB_FILES.items()})


def write_checkpoint(run_dir: Path, vocabs: VocabSet, cfg: config.RunConfig):
    """An untrained, seeded model with its config and vocabularies, as
    `typedesc generate` reads them from a training run's directory."""
    _write_vocabs_and_config(run_dir, vocabs, cfg)
    model = TwoStageModel.build(cfg.dims(), vocabs, seed=cfg.seed)
    diffcore.save_checkpoint(run_dir / "checkpoint.bin", model.params)


def oov_share(entities: list[Entity], vocabs: VocabSet) -> float:
    """Share of description words outside the target vocabulary."""
    words = [w for e in entities for w in e.description_tokens]
    return sum(w not in vocabs.target_vocab for w in words) / len(words)


def parameter_count(vocabs: VocabSet, geometry: Geometry) -> int:
    model = TwoStageModel.build(geometry.dims, vocabs, seed=0)
    return sum(p.data.size for p in model.params.values())
