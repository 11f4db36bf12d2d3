"""Greedy and length-normalized beam decoding over a generic step function.

A step function takes the previous token id of every open hypothesis and
their decoder states, as a list, and scores all of them in one call:
`step(prev_ids, states) -> (log-probability rows (n, V), next states as a
list)`. Row i and state i belong to hypothesis i. There is one search loop:
greedy is the width-1 beam, whose one hypothesis is one row. The search
owns sequence bookkeeping only and treats states as opaque. This module is
the one place that parses a decoding mode and dispatches on it.
"""

from __future__ import annotations

import numpy as np

from .errors import TypedescError

LOG_FLOOR = 1e-300  # added to a probability before its log, so that a zero scores finitely


def greedy(step, state, bos_id: int, eos_id: int, max_len: int) -> list[int]:
    """The width-1 beam: the most likely token at each step, the lowest id on a tie."""
    return _search(step, state, bos_id, eos_id, max_len, 1)


def beam(step, state, bos_id: int, eos_id: int, max_len: int, width: int) -> list[int]:
    """Prune by cumulative log-probability, pick the final hypothesis by mean."""
    return _search(step, state, bos_id, eos_id, max_len, _check_width(width))


def _search(step, state, bos_id: int, eos_id: int, max_len: int, width: int) -> list[int]:
    """The one search loop behind `greedy` and `beam`.

    Each search step scores every open hypothesis in one step call. Finished
    hypotheses keep their place among the candidates; each open one adds its
    top `width` tokens in order, and one stable sort by score follows.
    """
    # hypothesis: (ids, cumulative logp, state, finished)
    beams = [([], 0.0, state, False)]
    for _ in range(max_len):
        open_beams = [h for h in beams if not h[3]]
        if not open_beams:
            break
        logp, next_states = step([h[0][-1] if h[0] else bos_id for h in open_beams],
                                 [h[2] for h in open_beams])
        if width > logp.shape[1]:  # a wider beam never prunes and grows as V^t
            raise TypedescError(
                f"beam width {width} exceeds the {logp.shape[1]} scores of a decoding step")
        # width 1 takes argmax, the stable sort's first entry, without sorting V scores
        tops = (logp.argmax(axis=1)[:, None] if width == 1
                else np.argsort(-logp, axis=1, kind="stable")[:, :width])
        rows = iter(zip(logp, tops, next_states))
        candidates = []
        for ids, score, st, finished in beams:
            if finished:
                candidates.append((ids, score, st, True))
                continue
            row, top, nst = next(rows)
            for tok in top.tolist():
                if tok == eos_id:
                    candidates.append((ids, score + float(row[tok]), nst, True))
                else:
                    candidates.append((ids + [tok], score + float(row[tok]), nst, False))
        candidates.sort(key=lambda h: -h[1])  # stable: insertion order breaks ties
        beams = candidates[:width]
    best = max(beams, key=lambda h: h[1] / (len(h[0]) + 1))
    return list(best[0])


def _check_width(width: int) -> int:
    if width < 1:
        raise TypedescError(f"beam width must be >= 1, got {width}")
    return width


def parse_mode(text: str) -> tuple[str, int]:
    """`greedy` or `beam:<k>` as (mode, beam width), k >= 1."""
    if text == "greedy":
        return "greedy", 1
    if text.startswith("beam:"):
        try:
            width = int(text.split(":", 1)[1])
        except ValueError:
            raise TypedescError(f"bad beam width in mode '{text}'") from None
        return "beam", _check_width(width)
    raise TypedescError(f"unknown mode '{text}' (expected greedy or beam:<k>)")


def decode(step, s0, bos_id: int, eos_id: int, max_len: int, mode: str,
           width: int) -> list[int]:
    """Token ids from the search that `mode` names ("greedy" or "beam")."""
    if mode == "greedy":
        return greedy(step, s0, bos_id, eos_id, max_len)
    if mode == "beam":
        return beam(step, s0, bos_id, eos_id, max_len, width)
    raise TypedescError(f"unknown decoding mode '{mode}'")
