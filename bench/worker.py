"""One phase of a benchmark run, in a process of its own.

    worker.py prepare  WORKLOAD RUN_DIR SEED [--tiny]
    worker.py measure  WORKLOAD RUN_DIR SEED SECONDS TRACE [--tiny]

`prepare` writes the seeded inputs (and, for generate workloads, the
checkpoint) into RUN_DIR. `measure` times set-up and the item loop on them,
then checks the outputs, and prints a host line and the result line. run.py
starts both with the BLAS and OpenMP thread counts pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import spans
from typedesc import cli, config, corpus, diffcore, trainer
from workloads import WORKLOADS, tiny

VOCAB_CORPUS = 64  # entities whose words build a generate workload's vocabularies


def prepare(workload, run_dir: Path, seed: int):
    geometry = inputs.GEOMETRIES[workload.geometry]
    cfg = inputs.run_config(geometry, seed)
    cfg.max_epochs = 10 ** 6  # the run's length, not an epoch count, ends training
    if workload.kind == "train":
        train = inputs.make_entities(seed, workload.entities, "T")
        vocabs = inputs.build_vocabs(train, geometry)
        inputs.write_prepared(run_dir / "data", train, vocabs, cfg)
        described = train
    else:
        vocabs = inputs.build_vocabs(inputs.make_entities(seed, VOCAB_CORPUS, "T"), geometry)
        inputs.write_checkpoint(run_dir / "model", vocabs, cfg)
        described = inputs.make_entities(seed, workload.entities * workload.chunks, "E")
        for k in range(workload.chunks):
            chunk = described[k * workload.entities:(k + 1) * workload.entities]
            corpus.write_jsonl(run_dir / f"input{k}.jsonl", chunk)
        corpus.write_jsonl(run_dir / "empty.jsonl", [])
    sources = [len(corpus.reconstruct_infobox(e, geometry.max_position)) for e in described]
    makeup = {
        "parameters": inputs.parameter_count(vocabs, geometry),
        "entities": len(described),
        "statements_per_entity": statistics.mean(len(e.statements) for e in described),
        "source_tokens_per_entity": statistics.mean(sources),
        "description_words_per_entity": statistics.mean(
            len(e.description_tokens) for e in described),
        "description_oov_share": inputs.oov_share(described, vocabs),
    }
    (run_dir / "makeup.json").write_text(json.dumps(makeup) + "\n", encoding="utf-8")


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "loadavg": os.getloadavg(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def calibration() -> dict:
    """A fixed probe timed in the measuring process, so host drift shows beside
    the figures. It runs after the peak RSS is read, which it would raise."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    python_ms = 1e3 * (time.perf_counter() - started)
    # as large as the paper geometry's s2.gen.w, so it streams from memory
    a = np.random.default_rng(0).standard_normal((10000, 512))
    x = np.ones(512)
    started = time.perf_counter()
    for _ in range(50):
        x = a.T @ (a @ x)
        x /= np.abs(x).max()
    return {"python_loop_ms": python_ms, "matvec_loop_ms": 1e3 * (time.perf_counter() - started)}


def time_setups(fn, repeats: int, times: list):
    """Time `repeats` set-ups and append their seconds to `times`.

    Set-up takes milliseconds and the host's speed drifts over seconds, so
    the workloads time set-ups at several points of a run and report the
    median of all of them.
    """
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)


def train_setup(data_dir: Path):
    """What `typedesc train` does before its first step."""
    cfg = config.load_config(data_dir / "config.txt")
    data = corpus.DatasetSplit(*(corpus.load_jsonl(data_dir / f"{part}.jsonl")
                                 for part in ("train", "valid", "test")))
    vocabs = inputs.read_vocabs(data_dir, cfg.max_position)
    model = trainer.TwoStageModel.build(cfg.dims(), vocabs, cfg.seed)
    diffcore.Adam(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    return cfg, data, vocabs


def measure_train(workload, run_dir: Path, seconds: float):
    data_dir = run_dir / "data"
    setup_times = []
    time_setups(lambda: train_setup(data_dir), workload.setup_repeats, setup_times)
    cfg, data, vocabs = train_setup(data_dir)
    gc.collect()

    # Epoch 1 holds train()'s own model build and first-touch allocations;
    # the rate counts the epochs after it, and the final checkpoint write.
    marks = []

    def on_epoch(epoch, model):
        marks.append(time.perf_counter())
        return len(marks) > 1 and marks[-1] - marks[0] >= seconds

    result = trainer.train(data, cfg.train_config(), cfg.dims(), vocabs,
                           out_dir=run_dir / "trained", on_epoch=on_epoch)
    ended = time.perf_counter()
    measured = (len(marks) - 1) * len(data.train)
    run = {"items_per_s": measured / (ended - marks[0]),
           "attempted": len(marks) * len(data.train), "failed": 0,
           "peak_rss_mb": peak_rss_mb(), "epoch_s": [b - a for a, b in zip(marks, marks[1:])]}
    # the second half of the set-ups runs after the peak RSS is read, which it
    # would raise at the paper geometry
    time_setups(lambda: train_setup(data_dir), workload.setup_repeats, setup_times)
    run["setup_s"] = statistics.median(setup_times)
    return run, lambda: checks.check_training(result, data.train, vocabs, cfg,
                                              np.random.default_rng(cfg.seed))


def quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def measure_generate(workload, run_dir: Path, seconds: float):
    checkpoint = str(run_dir / "model" / "checkpoint.bin")
    mode = ["--mode", workload.mode]

    def generate(k: int, out: str) -> int:
        return quiet_cli(["generate", "--checkpoint", checkpoint, "--input",
                          str(run_dir / f"input{k}.jsonl"), "--out", out] + mode)

    empty = ["--input", str(run_dir / "empty.jsonl"), "--out", str(run_dir / "empty.out")]

    def setup():
        return quiet_cli(["generate", "--checkpoint", checkpoint] + empty + mode)

    # A round is `typedesc generate` over one input chunk, then `typedesc
    # evaluate` on its predictions. Each round loads the model again; that
    # load is set-up, so the median set-up is taken out of the item time.
    setup_times = []
    first_pass = {}
    attempted = failed = rounds = 0
    busy = 0.0
    round_s = []
    while rounds < workload.chunks or busy < seconds:
        k = rounds % workload.chunks
        out, report = run_dir / f"pred{k}.jsonl", run_dir / f"report{k}.json"
        time_setups(setup, workload.setup_repeats, setup_times)
        started = time.perf_counter()
        code = generate(k, str(out)) or quiet_cli(
            ["evaluate", "--predictions", str(out), "--references",
             str(run_dir / f"input{k}.jsonl"), "--out", str(report)])
        round_s.append(time.perf_counter() - started)
        busy += round_s[-1]
        rounds += 1
        attempted += workload.entities
        if code:
            failed += workload.entities
        elif first_pass.setdefault(k, out.read_bytes()) != out.read_bytes():
            failed += workload.entities  # a repeated chunk must decode to the same bytes
    setup_s = statistics.median(setup_times)
    run = {"setup_s": setup_s, "items_per_s": attempted / (busy - rounds * setup_s),
           "attempted": attempted, "failed": failed, "peak_rss_mb": peak_rss_mb(),
           "round_s": round_s}
    return run, lambda: generation_checks(workload, run_dir, sorted(first_pass))


def generation_checks(workload, run_dir: Path, chunks: list[int]) -> list[str]:
    model_dir = run_dir / "model"
    cfg = config.load_config(model_dir / "config.txt")
    vocabs = inputs.read_vocabs(model_dir, cfg.max_position)
    model = trainer.TwoStageModel.build(cfg.dims(), vocabs, cfg.seed)
    mode, width = ("greedy", 1) if workload.mode == "greedy" else (
        "beam", int(workload.mode.split(":")[1]))
    problems = []
    for k in chunks:
        references = run_dir / f"input{k}.jsonl"
        predictions = [json.loads(line) for line in
                       (run_dir / f"pred{k}.jsonl").read_text(encoding="utf-8").splitlines()]
        sample = 4 if k == chunks[0] else 0
        problems += checks.check_generation(model, cfg, corpus.load_jsonl(references),
                                            predictions, mode, width, sample)
        problems += checks.check_reports(
            [json.loads((run_dir / f"report{k}.json").read_text(encoding="utf-8"))])
    problems += checks.self_scores(run_dir / "input0.jsonl", run_dir)
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, run_dir: Path, seconds: float, traced: bool):
    host = host_facts()
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    measure_fn = measure_train if workload.kind == "train" else measure_generate
    run, run_checks = measure_fn(workload, run_dir, seconds)
    if tracer:
        tracer.uninstall()
    host.update(calibration())
    problems = run_checks()
    host["loadavg_end"] = os.getloadavg()
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)

    if tracer:
        values = tracer.metrics(run["attempted"])
    else:
        values = {name: {"value": run[name], "unit": unit}
                  for name, unit in (("setup_s", "s"), ("items_per_s", "1/s"),
                                     ("peak_rss_mb", "MB"))}
    makeup = json.loads((run_dir / "makeup.json").read_text(encoding="utf-8"))
    print(json.dumps({"workload": workload.name, "traced": traced, "host": host,
                      "inputs": makeup, "run": run,
                      "missing_spans": tracer.missing if tracer else []}))
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": values}))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("prepare", "measure"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float, nargs="?", default=0.0)
    parser.add_argument("trace", type=int, nargs="?", default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    if args.phase == "prepare":
        prepare(workload, args.run_dir, args.seed)
    else:
        measure(workload, args.run_dir, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
