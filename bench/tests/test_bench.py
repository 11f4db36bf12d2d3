"""Tests of the benchmark itself: `python3 -m pytest bench/tests` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import inputs
import spans
from typedesc import diffcore, search, stage1, stage2
from typedesc.corpus import reconstruct_infobox
from typedesc.trainer import TwoStageModel

ROOT = Path(__file__).resolve().parents[2]


def run_bench(args, cwd, timeout):
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_self_check_passes():
    done = run_bench(["--self-check"], ROOT, timeout=300)
    assert done.returncode == 0, done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(["--workload", "train-overfit", "--seed", "0", "--seconds", "1",
                      "--trace", "0"], tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_layers_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == [{"name": layer.metric, "unit": layer.unit, "better": "lower"}
                                 for layer in spans.LAYERS]


def test_tracer_restores_every_binding():
    originals = (diffcore.gru_cell, stage1.attend_general, search.greedy,
                 TwoStageModel.__dict__["build"], diffcore.Tensor.backward, diffcore._make)
    tracer = spans.Tracer()
    tracer.install()
    assert stage2.gru_cell is not originals[0] and stage2.attend_general is not originals[1]
    tracer.uninstall()
    assert (stage2.gru_cell, stage2.attend_general, search.greedy,
            TwoStageModel.__dict__["build"], diffcore.Tensor.backward,
            diffcore._make) == originals
    assert stage1.gru_cell is diffcore.gru_cell


def test_self_time_excludes_child_spans(monkeypatch):
    tracer = spans.Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer starts, inner starts, inner ends, outer ends
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    inner = tracer._wrap("inner", lambda: None)
    tracer._wrap("outer", inner)()
    assert tracer.totals()["outer"] == [1, 10.0, 2.0]
    assert tracer.totals()["inner"] == [1, 2.0, 0.0]


def test_missing_function_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + [("search.gone", "search", "gone")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["search.gone"]


def test_seed_changes_words_not_work():
    first, again, other = (inputs.make_entities(seed, 24, "E") for seed in (1, 1, 2))
    assert first == again
    assert [e.description for e in first] != [e.description for e in other]
    for a, b in zip(first, other):
        assert len(a.statements) == len(b.statements)
        assert len(a.description_tokens) == len(b.description_tokens)
        assert len(reconstruct_infobox(a, 16)) == len(reconstruct_infobox(b, 16))


def test_geometry_parameter_counts():
    corpus64 = inputs.make_entities(0, 64, "T")
    counts = {name: inputs.parameter_count(inputs.build_vocabs(corpus64, geometry), geometry)
              for name, geometry in inputs.GEOMETRIES.items() if name in ("overfit", "paper")}
    assert counts["overfit"] == 308_646
    assert 14.2e6 < counts["paper"] < 14.4e6
