import io
import json
import os
import shutil
import stat
import threading

import numpy as np
import pytest

import synthdata
from typedesc import cli, corpus
from typedesc import diffcore as dc
from typedesc.config import load_config
from typedesc.corpus import Entity, write_jsonl
from typedesc.errors import TypedescError
from typedesc.lexicon import EOS


@pytest.fixture(scope="module")
def raw_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "entities.jsonl"
    write_jsonl(path, synthdata.make_corpus(n=20, seed=5))
    return path


def run(*argv):
    return cli.main(list(argv))


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith(cli.ERROR_PREFIX) and len(err.splitlines()) == 1


class TestPrepare:
    def test_splits_and_files(self, raw_corpus, tmp_path):
        out = tmp_path / "prepared"
        code = run("prepare", "--input", str(raw_corpus), "--out-dir", str(out),
                   "--seed", "1", "--min-statements", "5",
                   "--value-vocab", "400", "--target-vocab", "400")
        assert code == 0
        train = (out / "train.jsonl").read_text().splitlines()
        valid = (out / "valid.jsonl").read_text().splitlines()
        test = (out / "test.jsonl").read_text().splitlines()
        assert (len(train), len(valid), len(test)) == (16, 2, 2)
        assert not any("template" in json.loads(line) for line in train + valid + test)
        for name in ("value_vocab.txt", "property_vocab.txt", "target_vocab.txt",
                     "template_vocab.txt", "config.txt"):
            assert (out / name).exists()

    def test_rerun_identical_bytes(self, raw_corpus, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run("prepare", "--input", str(raw_corpus), "--out-dir", str(out),
                       "--seed", "7", "--value-vocab", "400",
                       "--target-vocab", "400") == 0
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "value_vocab.txt",
                     "target_vocab.txt", "config.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_min_statements_filter(self, tmp_path):
        ents = synthdata.make_corpus(n=12, seed=2)
        ents[0].statements = ents[0].statements[:4]
        path = tmp_path / "in.jsonl"
        write_jsonl(path, ents)
        out = tmp_path / "out"
        assert run("prepare", "--input", str(path), "--out-dir", str(out),
                   "--value-vocab", "400", "--target-vocab", "400") == 0
        kept = sum(len((out / name).read_text().splitlines())
                   for name in ("train.jsonl", "valid.jsonl", "test.jsonl"))
        assert kept == 11

    def test_missing_input_errors(self, tmp_path, capsys):
        code = run("prepare", "--input", str(tmp_path / "nope.jsonl"),
                   "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert cli.ERROR_PREFIX in capsys.readouterr().err


class TestAnnotateCommand:
    def test_tsv_output(self, tmp_path):
        src = tmp_path / "descs.txt"
        src.write_text("street in Paris, France\nhuman\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert run("annotate", "--input", str(src), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "street in paris , france\t$hed$ in $mod$ , $mod$\tstreet"
        assert lines[1] == "human\t$hed$\thuman"

    def test_failure_keeps_earlier_out(self, tmp_path, capsys):
        (tmp_path / "good.txt").write_text("human\n", encoding="utf-8")
        (tmp_path / "bad.txt").write_bytes(b"street in paris\n\xff\n")
        out = tmp_path / "out.tsv"
        assert run("annotate", "--input", str(tmp_path / "good.txt"), "--out", str(out)) == 0
        before = out.read_bytes()
        capsys.readouterr()
        assert run("annotate", "--input", str(tmp_path / "bad.txt"), "--out", str(out)) == 1
        assert_one_error_line(capsys)
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "good.txt", "out.tsv"]


def test_undecodable_input_is_one_error_line(pipeline, tmp_path, capsys):
    data_dir, run_dir = pipeline
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes((data_dir / "test.jsonl").read_bytes() + b"\xff\n")
    commands = [
        ("annotate", "--input", str(bad)),
        ("evaluate", "--predictions", str(bad), "--references", str(data_dir / "test.jsonl")),
        ("evaluate", "--predictions", str(data_dir / "test.jsonl"), "--references", str(bad)),
        ("generate", "--checkpoint", str(run_dir / "checkpoint.bin"), "--input", str(bad),
         "--out", str(tmp_path / "preds.jsonl")),
    ]
    for argv in commands:
        assert run(*argv) == 1
        assert_one_error_line(capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_undecodable_input_names_the_file_and_line(pipeline, tmp_path, capsys, monkeypatch):
    data_dir, run_dir = pipeline
    good = (data_dir / "test.jsonl").read_bytes()
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(good + b"\xff\n")
    bad_run = tmp_path / "run"
    shutil.copytree(run_dir, bad_run)
    vocab = bad_run / "target_vocab.txt"
    vocab.write_bytes(b"\xff\n" + vocab.read_bytes())
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"max_epochs = 1\n# caf\xe9\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"entity_id": json.loads(line)["entity_id"],
                                         "hypothesis": "human"}) + "\n"
                             for line in good.decode().splitlines()), encoding="utf-8")
    last = good.count(b"\n") + 1
    cases = [
        (("annotate", "--input", str(bad)), f"{bad}: line {last}:"),
        (("evaluate", "--predictions", str(bad), "--references", str(data_dir / "test.jsonl")),
         f"{bad}: line {last}:"),
        (("evaluate", "--predictions", str(preds), "--references", str(bad)),
         f"{bad}: line {last}:"),
        (("generate", "--checkpoint", str(bad_run / "checkpoint.bin"), "--input",
          str(data_dir / "test.jsonl"), "--out", str(tmp_path / "out.jsonl")),
         f"{vocab}: line 1:"),
        (("train", "--data-dir", str(data_dir), "--config", str(bad_cfg), "--out-dir",
          str(tmp_path / "out")), f"{bad_cfg}: line 2:"),
    ]
    for argv, where in cases:
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"{cli.ERROR_PREFIX} {where}")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"human\nstreet in \xff paris\n")))
    assert run("annotate") == 1
    assert capsys.readouterr().err.startswith(f"{cli.ERROR_PREFIX} <stdin>: line 2:")


THREE_LINES = {  # three lines that each reader accepts
    "load_jsonl": [json.dumps({"entity_id": f"Q{i}", "label": "x", "description": "street",
                               "statements": [["p1", "p", f"v{i}"]]}) for i in range(3)],
    "read_vocab_file": ["<pad>", "<unk>", "street"],
    "load_config": ["lr = 0.5", "# d_h = 4", "d_h = 8"],
    "annotate": ["street in Paris", "human", "lake in France"],
}
API_READERS = {"load_jsonl": corpus.load_jsonl, "read_vocab_file": corpus.read_vocab_file,
               "load_config": load_config}


@pytest.mark.parametrize("reader,source", [("load_jsonl", "file"), ("read_vocab_file", "file"),
                                           ("load_config", "file"), ("annotate", "file"),
                                           ("annotate", "stdin")])
def test_every_text_input_reads_alike(reader, source, tmp_path, capsys, monkeypatch):
    """LF, CR LF and CR endings read the same; a bad byte on line 3 is one error naming it."""
    path = tmp_path / "input.txt"

    def read(data: bytes):  # ("ok", what was read) or ("error", the one error message)
        path.write_bytes(data)
        if reader != "annotate":
            try:
                return "ok", API_READERS[reader](path)
            except TypedescError as exc:
                return "error", str(exc)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code = run("annotate", *(("--input", str(path)) if source == "file" else ()))
        out, err = capsys.readouterr()
        if code == 0:
            return "ok", out
        assert len(err.splitlines()) == 1
        return "error", err.removeprefix(f"{cli.ERROR_PREFIX} ")

    lines = [line.encode() for line in THREE_LINES[reader]]
    good = read(b"\n".join(lines) + b"\n")
    assert good[0] == "ok"
    name = "<stdin>" if source == "stdin" else str(path)
    for end in (b"\n", b"\r\n", b"\r"):
        assert read(end.join(lines) + end) == good
        kind, message = read(end.join(lines[:2] + [b"\xff" + lines[2]]) + end)
        assert kind == "error" and message.startswith(f"{name}: line 3: not UTF-8 (byte 0xff)")


@pytest.fixture(scope="module")
def pipeline(raw_corpus, tmp_path_factory):
    """prepare + short train, shared across generate/evaluate tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data_dir = root / "data"
    run_dir = root / "run"
    assert run("prepare", "--input", str(raw_corpus), "--out-dir", str(data_dir),
               "--seed", "1", "--value-vocab", "400", "--target-vocab", "400") == 0
    cfg = root / "train.cfg"
    cfg.write_text("d_h = 12\nd_word = 12\nd_prop = 6\nd_pos = 6\n"
                   "max_epochs = 2\nbatch_size = 8\n", encoding="utf-8")
    assert run("train", "--data-dir", str(data_dir), "--config", str(cfg),
               "--out-dir", str(run_dir)) == 0
    return data_dir, run_dir


ONE_SMALL_EPOCH = "d_word = 8\nd_prop = 4\nd_pos = 4\nmax_epochs = 1\n"


class TestTrainCommand:
    def test_outputs_exist(self, pipeline):
        _, run_dir = pipeline
        for name in ("checkpoint.bin", "train_log.csv", "config.txt",
                     "target_vocab.txt"):
            assert (run_dir / name).exists()

    def test_resolved_config_records_dims(self, pipeline):
        _, run_dir = pipeline
        text = (run_dir / "config.txt").read_text()
        assert "d_h = 12" in text
        assert "max_epochs = 2" in text

    def test_failure_keeps_earlier_run(self, pipeline, tmp_path, capsys):
        data_dir, _ = pipeline
        run_dir = tmp_path / "run"
        small, big = tmp_path / "small.cfg", tmp_path / "big.cfg"
        small.write_text(f"d_h = 8\n{ONE_SMALL_EPOCH}", encoding="utf-8")
        big.write_text(f"d_h = 16\n{ONE_SMALL_EPOCH}", encoding="utf-8")
        assert run("train", "--data-dir", str(data_dir), "--config", str(small),
                   "--out-dir", str(run_dir)) == 0
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        blank_data = tmp_path / "data"
        shutil.copytree(data_dir, blank_data)
        blank = Entity("Qblank", "blank", "street", [("p1", "named after", "")] * 5)
        write_jsonl(blank_data / "train.jsonl", [blank])
        capsys.readouterr()
        assert run("train", "--data-dir", str(blank_data), "--config", str(big),
                   "--out-dir", str(run_dir)) == 1
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and "Qblank" in err
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"),
                   "--out", str(tmp_path / "preds.jsonl")) == 0

    def test_out_dir_may_be_the_data_dir(self, pipeline, tmp_path):
        data_dir, _ = pipeline
        both = tmp_path / "data"
        shutil.copytree(data_dir, both)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"d_h = 8\n{ONE_SMALL_EPOCH}", encoding="utf-8")
        assert run("train", "--data-dir", str(both), "--config", str(cfg),
                   "--out-dir", str(both)) == 0
        assert run("generate", "--checkpoint", str(both / "checkpoint.bin"),
                   "--input", str(both / "test.jsonl"),
                   "--out", str(tmp_path / "preds.jsonl")) == 0

    def test_test_split_is_not_read(self, pipeline, tmp_path):
        data_dir, _ = pipeline
        no_test = tmp_path / "data"
        shutil.copytree(data_dir, no_test)
        (no_test / "test.jsonl").unlink()
        cfg = tmp_path / "small.cfg"
        cfg.write_text(f"d_h = 8\n{ONE_SMALL_EPOCH}", encoding="utf-8")
        assert run("train", "--data-dir", str(no_test), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run")) == 0

    def test_unknown_config_key_rejected(self, raw_corpus, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run("prepare", "--input", str(raw_corpus), "--out-dir", str(data_dir),
                   "--value-vocab", "400", "--target-vocab", "400") == 0
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_speed = 9\n", encoding="utf-8")
        code = run("train", "--data-dir", str(data_dir), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run"))
        assert code == 1
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("config_line,flags,named", [
        ("d_h = -3", (), "d_h"), ("d_word = 0", (), "d_word"),
        ("validate_every = 0", (), "validate_every"), ("lr = -1", (), "lr"),
        ("lr = nan", (), "lr"), ("beta2 = 1.0", (), "beta2"), ("eps = 0", (), "eps"),
        ("max_description_len = 0", (), "max_description_len"),
        ("", ("--batch-size", "0"), "batch_size"), ("", ("--seed", "-1"), "seed")])
    def test_bad_config_value_errors(self, pipeline, tmp_path, capsys, config_line, flags,
                                     named):
        data_dir, _ = pipeline
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"max_epochs = 1\n{config_line}\n", encoding="utf-8")
        code = run("train", "--data-dir", str(data_dir), "--config", str(cfg),
                   "--out-dir", str(tmp_path / "run"), *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and len(err.splitlines()) == 1
        assert f"{named} must be" in err
        assert not (tmp_path / "run").exists()

    def test_bad_prepare_value_errors(self, raw_corpus, tmp_path, capsys):
        code = run("prepare", "--input", str(raw_corpus), "--out-dir", str(tmp_path / "d"),
                   "--min-statements", "-1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and "min_statements must be" in err


class TestGenerateCommand:
    def test_writes_template_and_hypothesis(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        out = tmp_path / "preds.jsonl"
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(out)) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert set(rows[0]) == {"entity_id", "template", "hypothesis"}

    def test_template_override_applies_to_all(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        out = tmp_path / "preds.jsonl"
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(out),
                   "--template", "$hed$ in $mod$") == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(row["template"] == "$hed$ in $mod$" for row in rows)

    def test_empty_template_is_written_as_decoded(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        eos_run = tmp_path / "run"
        shutil.copytree(run_dir, eos_run)
        params = dc.load_checkpoint(eos_run / "checkpoint.bin")
        eos = corpus.read_vocab_file(eos_run / "template_vocab.txt")[EOS]
        params["s1.out.b"].data[eos] = 1e3  # stage 1 stops at its first step
        dc.save_checkpoint(eos_run / "checkpoint.bin", params)
        rows = {}
        for name, flags in (("decoded", ()), ("forced", ("--template", "$hed$"))):
            out = tmp_path / f"{name}.jsonl"
            assert run("generate", "--checkpoint", str(eos_run / "checkpoint.bin"),
                       "--input", str(data_dir / "test.jsonl"), "--out", str(out), *flags) == 0
            rows[name] = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["template"] for row in rows["decoded"]] == ["", ""]
        assert ([row["hypothesis"] for row in rows["decoded"]]
                == [row["hypothesis"] for row in rows["forced"]])

    @pytest.mark.parametrize("template,named", [
        ("", "--template is blank"), (" ", "--template is blank"),
        ("zzz qqq", "token 'zzz' is not a template word"),
        ("$hed$ <unk>", "token '<unk>' is not a template word")])
    def test_bad_template_keeps_earlier_out(self, pipeline, tmp_path, capsys, monkeypatch,
                                            template, named):
        data_dir, run_dir = pipeline
        out = tmp_path / "preds.jsonl"
        out.write_text("old\n", encoding="utf-8")
        decoded = []
        monkeypatch.setattr(cli.TwoStageModel, "generate", lambda *a, **k: decoded.append(1))
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(out),
                   "--template", template) == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX) and len(err.splitlines()) == 1
        assert named in err
        assert decoded == [] and out.read_bytes() == b"old\n"

    def test_beam_mode_parses(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        out = tmp_path / "preds.jsonl"
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(out),
                   "--mode", "beam:2") == 0

    def test_beam_wider_than_the_vocabulary_keeps_earlier_out(self, pipeline, tmp_path, capsys):
        data_dir, run_dir = pipeline
        out = tmp_path / "preds.jsonl"
        generate = ["generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--input", str(data_dir / "test.jsonl"), "--out", str(out), "--mode"]
        assert run(*generate, "beam:2") == 0
        before = out.read_bytes()
        capsys.readouterr()
        assert run(*generate, "beam:1000") == 1
        err = capsys.readouterr().err
        assert err.startswith(cli.ERROR_PREFIX) and len(err.splitlines()) == 1
        assert "beam width 1000 exceeds" in err
        assert out.read_bytes() == before

    def test_beam_width_below_one_keeps_earlier_out(self, pipeline, tmp_path, capsys):
        _, run_dir = pipeline
        empty, out = tmp_path / "empty.jsonl", tmp_path / "preds.jsonl"
        empty.write_bytes(b"")
        out.write_text("old\n", encoding="utf-8")
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(empty), "--out", str(out), "--mode", "beam:0") == 1
        err = capsys.readouterr().err
        assert err == f"{cli.ERROR_PREFIX} beam width must be >= 1, got 0\n"
        assert out.read_bytes() == b"old\n"

    def test_bad_mode_errors(self, pipeline, tmp_path, capsys):
        data_dir, run_dir = pipeline
        code = run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"),
                   "--out", str(tmp_path / "p.jsonl"), "--mode", "magic")
        assert code == 1
        assert cli.ERROR_PREFIX in capsys.readouterr().err

    def test_corrupt_checkpoint_version_errors(self, pipeline, tmp_path, capsys):
        data_dir, run_dir = pipeline
        bad_dir = copy_run_files(run_dir, tmp_path / "bad_run")
        raw = bytearray((run_dir / "checkpoint.bin").read_bytes())
        raw[4] = 42
        (bad_dir / "checkpoint.bin").write_bytes(bytes(raw))
        code = run("generate", "--checkpoint", str(bad_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"),
                   "--out", str(tmp_path / "p.jsonl"))
        assert code == 1
        assert "42" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,named", [("trailing", "trailing bytes"),
                                              ("extra", "s2.extra"), ("shape", "s2.gen.b"),
                                              ("missing", "s2.copy.b"),
                                              ("twice", "'s2.copy.b' appears twice")])
    def test_mismatched_checkpoint_errors(self, pipeline, tmp_path, capsys, damage, named):
        data_dir, run_dir = pipeline
        bad_dir = copy_run_files(run_dir, tmp_path / "bad_run")
        params = dc.load_checkpoint(run_dir / "checkpoint.bin")
        if damage == "extra":
            params["s2.extra"] = dc.Tensor(np.zeros(2))
        if damage == "shape":
            params["s2.gen.b"] = dc.Tensor(np.zeros(3))
        if damage == "missing":
            del params["s2.copy.b"]
        dc.save_checkpoint(bad_dir / "checkpoint.bin", params)
        if damage == "trailing":
            with open(bad_dir / "checkpoint.bin", "ab") as fh:
                fh.write(b"\x00")
        if damage == "twice":  # append a second copy of one entry and bump the count
            dc.save_checkpoint(tmp_path / "one.bin", {"s2.copy.b": params["s2.copy.b"]})
            raw = bytearray((bad_dir / "checkpoint.bin").read_bytes())
            raw[8:12] = (len(params) + 1).to_bytes(4, "little")
            raw += (tmp_path / "one.bin").read_bytes()[12:]
            (bad_dir / "checkpoint.bin").write_bytes(bytes(raw))
        code = run("generate", "--checkpoint", str(bad_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"),
                   "--out", str(tmp_path / "p.jsonl"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and len(err.splitlines()) == 1
        assert named in err

    def test_failure_keeps_earlier_out(self, pipeline, tmp_path, capsys):
        data_dir, run_dir = pipeline
        good = corpus.load_jsonl(data_dir / "train.jsonl")[:4]
        blank = Entity("Qblank", "blank", "street", [("p1", "named after", "")] * 5)
        write_jsonl(tmp_path / "good.jsonl", good)
        write_jsonl(tmp_path / "bad.jsonl", good[:2] + [blank] + good[2:])
        out = tmp_path / "preds.jsonl"
        generate = ["generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                    "--out", str(out), "--input"]
        assert run(*generate, str(tmp_path / "good.jsonl")) == 0
        before = out.read_bytes()
        assert len(before.splitlines()) == 4
        capsys.readouterr()
        assert run(*generate, str(tmp_path / "bad.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and "empty infobox" in err
        assert "Qblank" in err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "good.jsonl",
                                                              "preds.jsonl"]

    def test_symlinked_out_keeps_the_symlink(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        target = tmp_path / "real.jsonl"
        target.write_text("old\n")
        target.chmod(0o600)
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(link)) == 0
        assert link.is_symlink() and link.resolve() == target
        n = len(corpus.load_jsonl(data_dir / "test.jsonl"))
        assert len(target.read_text().splitlines()) == n
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]

    def test_fifo_out_is_written_in_place(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        fifo = tmp_path / "preds.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(fifo)) == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert len(got) == 1
        assert len(got[0].splitlines()) == len(corpus.load_jsonl(data_dir / "test.jsonl"))


class TestVocabularyFiles:
    """A damaged vocabulary file is one error line, and no output is touched."""

    @staticmethod
    def damage(path, edit):
        lines = path.read_text(encoding="utf-8").splitlines()
        if edit == "drop <bos>":
            lines.remove("<bos>")
        else:  # "N over M": line N's token written over line M
            src, dst = (int(n) for n in edit.split(" over "))
            lines[dst - 1] = lines[src - 1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("filename,edit,named", [
        ("target_vocab.txt", "drop <bos>", "target_vocab lacks the reserved token '<bos>'"),
        ("template_vocab.txt", "6 over 8", "template_vocab.txt: line 8: token"),
    ])
    def test_train_rejects_data_dir(self, pipeline, tmp_path, capsys, filename, edit, named):
        data_dir, _ = pipeline
        bad_data = tmp_path / "data"
        shutil.copytree(data_dir, bad_data)
        self.damage(bad_data / filename, edit)
        out_dir = tmp_path / "run"
        assert run("train", "--data-dir", str(bad_data), "--out-dir", str(out_dir),
                   "--max-epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and len(err.splitlines()) == 1
        assert named in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("filename", ["target_vocab.txt", "value_vocab.txt"])
    def test_generate_rejects_run_dir(self, pipeline, tmp_path, capsys, filename):
        data_dir, run_dir = pipeline
        bad_dir = copy_run_files(run_dir, tmp_path / "bad_run")
        shutil.copyfile(run_dir / "checkpoint.bin", bad_dir / "checkpoint.bin")
        self.damage(bad_dir / filename, "6 over 7")
        out = tmp_path / "preds.jsonl"
        out.write_text("old\n", encoding="utf-8")
        assert run("generate", "--checkpoint", str(bad_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and len(err.splitlines()) == 1
        assert f"{filename}: line 7: token" in err and "repeats line 6" in err
        assert out.read_text(encoding="utf-8") == "old\n"

    def test_generate_names_a_blank_vocabulary_line(self, pipeline, tmp_path, capsys):
        data_dir, run_dir = pipeline
        bad_dir = copy_run_files(run_dir, tmp_path / "bad_run")
        shutil.copyfile(run_dir / "checkpoint.bin", bad_dir / "checkpoint.bin")
        vocab = bad_dir / "target_vocab.txt"
        vocab.write_text(vocab.read_text(encoding="utf-8") + "\n", encoding="utf-8")
        lineno = len(vocab.read_text(encoding="utf-8").splitlines())
        assert run("generate", "--checkpoint", str(bad_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"),
                   "--out", str(tmp_path / "preds.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.count(cli.ERROR_PREFIX) == 1 and len(err.splitlines()) == 1
        assert f"target_vocab.txt: line {lineno}: blank line" in err
        assert "checkpoint.bin" not in err


def copy_run_files(run_dir, bad_dir):
    """A run directory with the config and vocabularies of `run_dir` and no checkpoint."""
    bad_dir.mkdir()
    for name in ("config.txt", "value_vocab.txt", "property_vocab.txt",
                 "target_vocab.txt", "template_vocab.txt"):
        (bad_dir / name).write_bytes((run_dir / name).read_bytes())
    return bad_dir


class TestEvaluateCommand:
    def test_perfect_scores_on_identical(self, pipeline, tmp_path, capsys):
        data_dir, _ = pipeline
        refs = data_dir / "test.jsonl"
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w", encoding="utf-8") as fh:
            for line in refs.read_text().splitlines():
                obj = json.loads(line)
                fh.write(json.dumps({"entity_id": obj["entity_id"],
                                     "hypothesis": obj["description"]}) + "\n")
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--predictions", str(preds), "--references", str(refs),
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["bleu1"] == 100.0
        assert report["bleu2"] == 100.0
        assert report["rougeL"] == 100.0
        assert report["mod_copy"] == 1.0
        assert report["hed_acc"] == 1.0
        assert "ModCopy" in capsys.readouterr().out

    def test_end_to_end_generate_then_evaluate(self, pipeline, tmp_path):
        data_dir, run_dir = pipeline
        preds = tmp_path / "preds.jsonl"
        assert run("generate", "--checkpoint", str(run_dir / "checkpoint.bin"),
                   "--input", str(data_dir / "test.jsonl"), "--out", str(preds)) == 0
        report_path = tmp_path / "report.json"
        assert run("evaluate", "--predictions", str(preds),
                   "--references", str(data_dir / "test.jsonl"),
                   "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"bleu1", "bleu2", "rougeL", "mod_copy", "hed_acc"}

    def test_failure_keeps_earlier_out(self, pipeline, tmp_path, capsys):
        data_dir, _ = pipeline
        refs = data_dir / "test.jsonl"
        preds = tmp_path / "preds.jsonl"
        preds.write_text("".join(
            json.dumps({"entity_id": obj["entity_id"], "hypothesis": obj["description"]}) + "\n"
            for obj in map(json.loads, refs.read_text().splitlines())), encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(preds.read_bytes() + b"\xff\n")
        out = tmp_path / "report.json"
        evaluate = ["evaluate", "--references", str(refs), "--out", str(out), "--predictions"]
        assert run(*evaluate, str(preds)) == 0
        before = out.read_bytes()
        capsys.readouterr()
        assert run(*evaluate, str(bad)) == 1
        assert_one_error_line(capsys)
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "preds.jsonl",
                                                              "report.json"]
