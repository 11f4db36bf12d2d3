"""Per-layer spans recorded from outside the program.

`Tracer.install` rebinds each traced function of the `typedesc` modules to a
wrapper that records a span (name, start, end, parent span) in memory. The
rebinding happens in every `typedesc` module namespace that holds the
function, since `from .diffcore import gru_cell` and the like bind it again
under stage1 and stage2. A traced function that no longer exists is listed
in `missing` and its metrics read 0; it does not stop the run.

diffcore's elementwise ops are counted, not timed: every graph node passes
through `diffcore._make`, and timing thousands of nodes per item would cost
more than the layers being measured.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

# (span name, module, attribute path)
SPANS = [
    ("corpus.load_jsonl", "corpus", "load_jsonl"),
    ("trainer.build", "trainer", "TwoStageModel.build"),
    ("trainer.joint_loss", "trainer", "TwoStageModel.joint_loss"),
    ("diffcore.load_checkpoint", "diffcore", "load_checkpoint"),
    ("diffcore.save_checkpoint", "diffcore", "save_checkpoint"),
    ("diffcore.gru_cell", "diffcore", "gru_cell"),
    ("diffcore.backward", "diffcore", "Tensor.backward"),
    ("diffcore.clip_gradients", "diffcore", "clip_gradients"),
    ("diffcore.adam_step", "diffcore", "Adam.step"),
    ("stage1.encode_infobox", "stage1", "encode_infobox"),
    ("stage1.template_nll", "stage1", "template_nll"),
    ("stage1.decode_template_step", "stage1", "decode_template_step"),
    ("stage1.attend_general", "stage1", "attend_general"),
    ("stage2.encode_template", "stage2", "encode_template"),
    ("stage2.description_nll", "stage2", "description_nll"),
    ("stage2.description_step", "stage2", "description_step"),
    ("stage2.context_gates", "stage2", "context_gates"),
    ("stage2.fuse_contexts", "stage2", "fuse_contexts"),
    ("stage2.copy_gen_distribution", "stage2", "copy_gen_distribution"),
    ("search.greedy", "search", "greedy"),
    ("search.beam", "search", "beam"),
    ("metrics.evaluate", "metrics", "evaluate"),
]
STEP_SPAN = "search.step"  # the step function a search calls, wrapped per call
OPS = "diffcore.ops"


@dataclass(frozen=True)
class Layer:
    metric: str
    unit: str
    span: str
    stat: str                 # how the span totals become the metric
    on: frozenset[str]        # workloads on which the layer runs


ALL = frozenset({"train-overfit", "train-paper", "generate-greedy", "generate-beam"})
TRAIN = frozenset({"train-overfit", "train-paper"})
GENERATE = frozenset({"generate-greedy", "generate-beam"})

LAYERS = [
    Layer("corpus.load_jsonl.ms", "ms", "corpus.load_jsonl", "mean_ms", ALL),
    Layer("trainer.build.s", "s", "trainer.build", "mean_s", ALL),
    Layer("diffcore.load_checkpoint.s", "s", "diffcore.load_checkpoint", "mean_s", GENERATE),
    Layer("diffcore.save_checkpoint.s", "s", "diffcore.save_checkpoint", "mean_s", TRAIN),
    Layer("trainer.joint_loss.ms", "ms", "trainer.joint_loss", "mean_ms", TRAIN),
    Layer("stage1.encode_infobox.ms", "ms", "stage1.encode_infobox", "mean_ms", ALL),
    Layer("stage1.template_nll.ms", "ms", "stage1.template_nll", "mean_ms", TRAIN),
    Layer("stage1.decode_template_step.ms", "ms", "stage1.decode_template_step", "mean_ms",
          GENERATE),
    Layer("stage1.attend_general.ms", "ms", "stage1.attend_general", "mean_ms", ALL),
    Layer("stage2.encode_template.ms", "ms", "stage2.encode_template", "mean_ms", ALL),
    Layer("stage2.description_nll.ms", "ms", "stage2.description_nll", "mean_ms", TRAIN),
    Layer("stage2.description_step.self_ms", "ms", "stage2.description_step", "self_mean_ms",
          ALL),
    Layer("stage2.context_gates.ms", "ms", "stage2.context_gates", "mean_ms", ALL),
    Layer("stage2.fuse_contexts.ms", "ms", "stage2.fuse_contexts", "mean_ms", ALL),
    Layer("stage2.copy_gen_distribution.ms", "ms", "stage2.copy_gen_distribution", "mean_ms",
          ALL),
    Layer("diffcore.gru_cell.ms", "ms", "diffcore.gru_cell", "mean_ms", ALL),
    Layer("diffcore.gru_cell.calls_per_item", "count", "diffcore.gru_cell", "calls_per_item",
          ALL),
    Layer("diffcore.ops_per_item", "count", OPS, "calls_per_item", ALL),
    Layer("diffcore.backward.ms", "ms", "diffcore.backward", "mean_ms", TRAIN),
    Layer("diffcore.clip_gradients.ms", "ms", "diffcore.clip_gradients", "mean_ms", TRAIN),
    Layer("diffcore.adam_step.ms", "ms", "diffcore.adam_step", "mean_ms", TRAIN),
    Layer("search.steps_per_item", "count", STEP_SPAN, "calls_per_item", GENERATE),
    Layer("search.greedy.self_ms", "ms", "search.greedy", "self_ms_per_item",
          frozenset({"generate-greedy"})),
    Layer("search.beam.self_ms", "ms", "search.beam", "self_ms_per_item",
          frozenset({"generate-beam"})),
    Layer("metrics.evaluate.ms", "ms", "metrics.evaluate", "mean_ms", GENERATE),
]


def _typedesc_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "typedesc" or name.startswith("typedesc."))]


class Tracer:
    """Spans kept in memory while installed; `metrics` aggregates them."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.missing = []
        self.ops = 0
        self._stack = [-1]
        self._restore = []       # (owner, attribute, original raw value)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _wrap_search(self, name, fn):
        traced = self._wrap(name, fn)
        wrap_step = self._wrap

        def search(step, *args, **kwargs):
            return traced(wrap_step(STEP_SPAN, step), *args, **kwargs)

        return search

    def _wrap_make(self, fn):
        def counted(*args, **kwargs):
            self.ops += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import typedesc  # noqa: F401  (loads every module that gets rebound)
        from typedesc import cli  # noqa: F401

        modules = _typedesc_modules()
        for name, module_name, path in SPANS:
            owner = sys.modules.get(f"typedesc.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    self._rebind(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._rebind(owner, attr, self._wrap(name, raw))
                continue
            wrapper = (self._wrap_search if module_name == "search" else self._wrap)(name, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, key, wrapper)
        diffcore = sys.modules["typedesc.diffcore"]
        if "_make" in vars(diffcore):
            self._rebind(diffcore, "_make", self._wrap_make(diffcore._make))
        else:
            self.missing.append(OPS)

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def totals(self) -> dict:
        """Per span name: [calls, inclusive seconds, seconds covered by child spans]."""
        out = {}
        for name, start, end, parent in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            if parent >= 0:
                out.setdefault(self.spans[parent][0], [0, 0.0, 0.0])[2] += end - start
        out[OPS] = [self.ops, 0.0, 0.0]
        return out

    def metrics(self, items: int) -> dict:
        totals = self.totals()
        values = {}
        for layer in LAYERS:
            calls, inclusive, children = totals.get(layer.span, (0, 0.0, 0.0))
            per_call = 1.0 / calls if calls else 0.0
            value = {
                "mean_ms": 1e3 * inclusive * per_call,
                "mean_s": inclusive * per_call,
                "self_mean_ms": 1e3 * (inclusive - children) * per_call,
                "self_ms_per_item": 1e3 * (inclusive - children) / items,
                "calls_per_item": calls / items,
            }[layer.stat]
            values[layer.metric] = {"value": value, "unit": layer.unit}
        return values
