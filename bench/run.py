"""Benchmark of typedesc training and generation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the repository root. Each run prepares seeded inputs in one fresh
process and measures them in another, both with BLAS and OpenMP pinned to
one thread. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
when --trace is 0 and the per-layer metrics when it is 1. The line before it
records the host, the inputs' make-up and the raw run figures.

--self-check runs every workload, untraced and traced, at a tiny geometry
and fails unless all output checks pass and every layer that runs on a
workload reports a figure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_TIMEOUT_S = 170  # both phases together

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402  (numpy-free)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_once(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> str:
    """Both phases of one run; returns the measuring process's standard output."""
    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUNS_DIR))
    extra = ["--tiny"] if tiny else []
    worker = [sys.executable, str(BENCH_DIR / "worker.py")]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        subprocess.run(worker + ["prepare", workload, str(run_dir), str(seed)] + extra,
                       env=child_env(), check=True, timeout=RUN_TIMEOUT_S)
        measured = subprocess.run(
            worker + ["measure", workload, str(run_dir), str(seed), str(seconds), str(trace)]
            + extra, env=child_env(), check=True, timeout=deadline - time.monotonic(),
            stdout=subprocess.PIPE, text=True)
        return measured.stdout
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def self_check() -> int:
    from spans import LAYERS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = json.loads(run_once(name, 1, 1.0, trace, tiny=True).splitlines()[-1])
            values = result["metrics"]
            where = f"{name} trace={trace}"
            before = len(problems)
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: output checks failed")
            if set(values) != expected[trace]:
                problems.append(f"{where}: metrics {sorted(values)}")
            wanted = [layer.metric for layer in LAYERS if name in layer.on] if trace \
                else sorted(expected[0])
            silent = [m for m in wanted if not values.get(m, {}).get("value", 0) > 0]
            if silent:
                problems.append(f"{where}: no figure for {silent}")
            print(f"self-check {where}: {'ok' if len(problems) == before else 'FAILED'}",
                  file=sys.stderr)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "typedesc" / "__init__.py").is_file():
        print(f"bench: no typedesc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        output = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
