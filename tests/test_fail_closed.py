"""Fail-closed under mutation.

Each command, given one mutated input file, exits 0, or exits 1 with exactly one
`typedesc: error:` line and leaves its earlier output as it was. A mutation
changes, inserts or deletes a byte, truncates the file, or repeats, drops or
shuffles lines. Commands run in this process, so an exception that escapes
`cli.main` fails the test with its traceback.
"""

import itertools
import random
import shutil

import pytest

import synthdata
from typedesc import cli
from typedesc.corpus import write_jsonl

SEEDS = range(10)
MUTATIONS = ("change", "insert", "delete", "truncate", "repeat", "drop", "shuffle")
VOCAB_FILES = list(cli.VOCAB_FILES.values())
DATA_FILES = ["train.jsonl", "valid.jsonl", "config.txt", *VOCAB_FILES]
RUN_FILES = ["checkpoint.bin", "config.txt", *VOCAB_FILES]


def mutate(raw: bytes, rng: random.Random) -> bytes:
    kind = rng.choice(MUTATIONS)
    at = rng.randrange(len(raw))
    lines = raw.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if kind == "change":
        return raw[:at] + bytes([rng.randrange(256)]) + raw[at + 1:]
    if kind == "insert":
        return raw[:at] + bytes([rng.randrange(256)]) + raw[at:]
    if kind == "delete":
        return raw[:at] + raw[at + 1:]
    if kind == "truncate":
        return raw[:at]
    if kind == "repeat":
        return b"".join(lines[:i + 1] + lines[i:])
    if kind == "drop":
        return b"".join(lines[:i] + lines[i + 1:])
    rng.shuffle(lines)
    return b"".join(lines)


def mutate_file(path, rng):
    path.write_bytes(mutate(path.read_bytes(), rng))


def snapshot(path):
    """Every file under `path` (or `path` itself) and its bytes."""
    if path.is_file():
        return {path: path.read_bytes()}
    return {p: p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def run_fails_closed(argv, earlier, capsys) -> int:
    """Run one command: it exits 0, or 1 with one error line and `earlier` as it was."""
    before = snapshot(earlier)
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert cli.ERROR_PREFIX not in err
    else:
        assert code == 1 and err.startswith(cli.ERROR_PREFIX) and len(err.splitlines()) == 1
        assert snapshot(earlier) == before
    return code


def run_ok(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def make_run(root, seed, vocab_size, d_h, epochs):
    """prepare + train on a 40-entity synthetic corpus; returns (input, data dir, run dir)."""
    root.mkdir(exist_ok=True)
    raw, data, run = root / "entities.jsonl", root / "data", root / "run"
    write_jsonl(raw, synthdata.make_corpus(n=40, seed=seed))
    run_ok("prepare", "--input", raw, "--out-dir", data, "--value-vocab", vocab_size,
           "--target-vocab", vocab_size)
    cfg = root / "train.cfg"
    cfg.write_text(f"d_h = {d_h}\nd_word = 8\nd_prop = 4\nd_pos = 4\nmax_epochs = {epochs}\n"
                   "batch_size = 8\n", encoding="utf-8")
    run_ok("train", "--data-dir", data, "--config", cfg, "--out-dir", run)
    return raw, data, run


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("base")
    raw, data, run = make_run(root, seed=11, vocab_size=400, d_h=8, epochs=2)
    preds, report = root / "preds.jsonl", root / "report.json"
    run_ok("generate", "--checkpoint", run / "checkpoint.bin", "--input", data / "test.jsonl",
           "--out", preds, "--mode", "beam:2")
    run_ok("evaluate", "--predictions", preds, "--references", data / "test.jsonl",
           "--out", report)
    return {"train.cfg": root / "train.cfg", "input": raw, "data": data, "run": run,
            "preds": preds, "report": report}


def test_prepare_fails_closed(base, tmp_path, capsys):
    for seed in SEEDS:
        rng, case = random.Random(seed), tmp_path / str(seed)
        raw, out = case / "entities.jsonl", case / "data"
        shutil.copytree(base["data"], out)
        shutil.copy(base["input"], raw)
        mutate_file(raw, rng)
        run_fails_closed(["prepare", "--input", raw, "--out-dir", out], out, capsys)


def test_train_fails_closed(base, tmp_path, capsys):
    # the run config stays as it is, and one epoch is enough: a run that takes its
    # inputs trains as any other, and a longer run only costs time
    for seed in SEEDS:
        rng, case = random.Random(seed), tmp_path / str(seed)
        data, out = case / "data", case / "run"
        shutil.copytree(base["data"], data)
        shutil.copytree(base["run"], out)
        mutate_file(data / rng.choice(DATA_FILES), rng)
        run_fails_closed(["train", "--data-dir", data, "--config", base["train.cfg"],
                          "--out-dir", out, "--max-epochs", 1], out, capsys)


def test_generate_fails_closed(base, tmp_path, capsys):
    for seed in SEEDS:
        rng, case = random.Random(seed), tmp_path / str(seed)
        run, inp, out = case / "run", case / "test.jsonl", case / "preds.jsonl"
        shutil.copytree(base["run"], run)
        shutil.copy(base["data"] / "test.jsonl", inp)
        shutil.copy(base["preds"], out)
        mutate_file(rng.choice([inp] + [run / name for name in RUN_FILES]), rng)
        run_fails_closed(["generate", "--checkpoint", run / "checkpoint.bin", "--input", inp,
                          "--out", out, "--mode", "beam:2"], out, capsys)


def test_evaluate_fails_closed(base, tmp_path, capsys):
    for seed in SEEDS:
        rng, case = random.Random(seed), tmp_path / str(seed)
        case.mkdir()
        preds, refs, out = case / "preds.jsonl", case / "test.jsonl", case / "report.json"
        shutil.copy(base["preds"], preds)
        shutil.copy(base["data"] / "test.jsonl", refs)
        shutil.copy(base["report"], out)
        mutate_file(rng.choice([preds, refs]), rng)
        run_fails_closed(["evaluate", "--predictions", preds, "--references", refs,
                          "--out", out], out, capsys)


def test_checkpoint_with_another_runs_config_or_vocabularies(base, tmp_path, capsys):
    _, _, other = make_run(tmp_path / "other", seed=12, vocab_size=8, d_h=6, epochs=1)
    runs = (base["run"], other)
    out = tmp_path / "preds.jsonl"
    shutil.copy(base["preds"], out)
    for i, (ckpt, cfg, vocabs) in enumerate(itertools.product(runs, repeat=3)):
        if ckpt == cfg == vocabs:
            continue
        run = tmp_path / f"mixed{i}"
        run.mkdir()
        shutil.copy(ckpt / "checkpoint.bin", run)
        shutil.copy(cfg / "config.txt", run)
        for name in VOCAB_FILES:
            shutil.copy(vocabs / name, run)
        code = run_fails_closed(["generate", "--checkpoint", run / "checkpoint.bin", "--input",
                                 base["data"] / "test.jsonl", "--out", out], out, capsys)
        assert code == 1
