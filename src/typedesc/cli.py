"""Command-line entry point: prepare, annotate, train, generate, evaluate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import annotator, corpus, diffcore, metrics, search
from .config import RunConfig, load_config, save_config
from .errors import TrainingDiverged, TypedescError
from .trainer import TwoStageModel, train

VOCAB_FILES = {
    "value_vocab": "value_vocab.txt",
    "property_vocab": "property_vocab.txt",
    "target_vocab": "target_vocab.txt",
    "template_vocab": "template_vocab.txt",
}
ERROR_PREFIX = "typedesc: error:"


def _write_vocab_files(out_dir: Path, vocabs: corpus.VocabSet):
    for attr, filename in VOCAB_FILES.items():
        corpus.write_vocab_file(out_dir / filename, getattr(vocabs, attr))


def _read_vocab_files(data_dir: Path, position_count: int) -> corpus.VocabSet:
    loaded = {}
    for attr, filename in VOCAB_FILES.items():
        path = data_dir / filename
        if not path.exists():
            raise TypedescError(f"missing vocabulary file {path}")
        loaded[attr] = corpus.read_vocab_file(path)
    return corpus.VocabSet(position_count=position_count, **loaded)


def cmd_prepare(args) -> int:
    cfg = RunConfig(seed=args.seed, min_statements=args.min_statements,
                    value_vocab_size=args.value_vocab, target_vocab_size=args.target_vocab,
                    max_position=args.max_position)
    entities = corpus.load_jsonl(args.input)
    kept = corpus.filter_entities(entities, cfg.min_statements)
    split = corpus.split_dataset(kept, cfg.seed)
    vocabs = corpus.build_vocabs(split.train, cfg.value_vocab_size, cfg.target_vocab_size,
                                 cfg.max_position)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus.write_jsonl(out_dir / "train.jsonl", split.train)
    corpus.write_jsonl(out_dir / "valid.jsonl", split.valid)
    corpus.write_jsonl(out_dir / "test.jsonl", split.test)
    _write_vocab_files(out_dir, vocabs)
    save_config(cfg, out_dir / "config.txt")
    print(f"prepared {len(split.train)}/{len(split.valid)}/{len(split.test)} "
          f"entities into {out_dir}")
    return 0


def cmd_annotate(args) -> int:
    rows = []
    for line in corpus.read_lines(args.input):
        tokens = corpus.tokenize(line)
        if not tokens:
            continue
        ann = annotator.annotate(tokens)
        heads = ",".join(ann.heads)
        rows.append(f"{' '.join(tokens)}\t{' '.join(ann.template)}\t{heads}\n")
    # every line is annotated before --out is touched
    if args.out:
        with diffcore.atomic_write(args.out, encoding="utf-8") as fh:
            fh.write("".join(rows))
    else:
        sys.stdout.write("".join(rows))
    return 0


def cmd_train(args) -> int:
    data_dir = Path(args.data_dir)
    data_cfg = load_config(data_dir / "config.txt")
    cfg = load_config(args.config) if args.config else RunConfig()
    flags = {flag: value for flag in ("seed", "max_epochs", "lr", "batch_size")
             if (value := getattr(args, flag)) is not None}
    # vocabulary geometry is fixed by the prepared data, not the run config
    data_fields = ("max_position", "value_vocab_size", "target_vocab_size", "min_statements")
    cfg = replace(cfg, **flags, **{name: getattr(data_cfg, name) for name in data_fields})

    data = corpus.DatasetSplit(train=corpus.load_jsonl(data_dir / "train.jsonl"),
                               valid=corpus.load_jsonl(data_dir / "valid.jsonl"), test=[])
    vocabs = _read_vocab_files(data_dir, cfg.max_position)
    out_dir = Path(args.out_dir)

    def write_run_files():  # only next to a checkpoint that train() has just written
        save_config(cfg, out_dir / "config.txt")
        _write_vocab_files(out_dir, vocabs)

    try:
        result = train(data, cfg.train_config(), cfg.dims(), vocabs, out_dir=out_dir)
    except TrainingDiverged:
        write_run_files()
        raise
    write_run_files()
    print(f"trained {result.epochs_run} epochs; final train loss "
          f"{result.epoch_rows[-1]['train_loss']}; checkpoint at {out_dir / 'checkpoint.bin'}")
    return 0


def _load_model(checkpoint_path: Path):
    run_dir = checkpoint_path.parent
    cfg_path = run_dir / "config.txt"
    if not cfg_path.exists():
        raise TypedescError(f"missing {cfg_path} next to the checkpoint")
    cfg = load_config(cfg_path)
    vocabs = _read_vocab_files(run_dir, cfg.max_position)
    model = TwoStageModel.build(cfg.dims(), vocabs, seed=0)
    diffcore.load_checkpoint(checkpoint_path, into=model.params)
    return model, cfg


def _template_override(text: str, vocabs: corpus.VocabSet) -> list[str]:
    """The tokens of `--template`, each a template word of this run (not a reserved token)."""
    tokens = corpus.tokenize(text)
    if not tokens:
        raise TypedescError("--template is blank")
    for token in tokens:
        if token not in vocabs.template_vocab or token in corpus.RESERVED_WORDS:
            raise TypedescError(f"--template token '{token}' is not a template word of this run")
    return tokens


def cmd_generate(args) -> int:
    mode, width = search.parse_mode(args.mode)
    model, cfg = _load_model(Path(args.checkpoint))
    override = (None if args.template is None
                else _template_override(args.template, model.vocabs))
    entities = corpus.load_jsonl(args.input)
    lines = []
    for ent in entities:
        template, description = model.generate(
            ent, mode=mode, beam_width=width, template_override=override,
            max_template_len=cfg.max_template_len,
            max_description_len=cfg.max_description_len)
        lines.append(json.dumps({
            "entity_id": ent.entity_id,
            "template": " ".join(template),
            "hypothesis": " ".join(description),
        }, ensure_ascii=False) + "\n")
    # every entity is decoded before --out is touched
    with diffcore.atomic_write(args.out, encoding="utf-8") as fh:
        fh.write("".join(lines))
    print(f"generated {len(entities)} descriptions into {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    report = metrics.evaluate(args.predictions, args.references)
    if args.out:
        with diffcore.atomic_write(args.out, encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    print(metrics.format_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typedesc",
        description="Two-stage template-based type description generation from infoboxes.")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()

    p = sub.add_parser("prepare", help="filter, split and index an entity JSONL file")
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--min-statements", type=int, default=defaults.min_statements)
    p.add_argument("--value-vocab", type=int, default=defaults.value_vocab_size)
    p.add_argument("--target-vocab", type=int, default=defaults.target_vocab_size)
    p.add_argument("--max-position", type=int, default=defaults.max_position)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("annotate", help="annotate descriptions (one per line) as TSV")
    p.add_argument("--input", default=None, help="defaults to stdin")
    p.add_argument("--out", default=None, help="defaults to stdout")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train", help="train both stages on a prepared data directory")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", default=None, help="key=value overrides of the defaults")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate templates and descriptions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="greedy", help="greedy or beam:<k>")
    p.add_argument("--template", default=None,
                   help="override the stage-1 template for every entity")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TypedescError, OSError) as exc:
        print(f"{ERROR_PREFIX} {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
