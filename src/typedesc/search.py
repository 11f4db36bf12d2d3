"""Greedy and length-normalized beam decoding over a generic step function.

A step function maps (previous token id, decoder state) to (log-probability
vector, next state); the search owns sequence bookkeeping only. This module
is the one place that parses a decoding mode and dispatches on it.
"""

from __future__ import annotations

import numpy as np

from .errors import TypedescError

LOG_FLOOR = 1e-300  # added to a probability before its log, so that a zero scores finitely


def greedy(step, state, bos_id: int, eos_id: int, max_len: int) -> list[int]:
    ids = []
    prev = bos_id
    for _ in range(max_len):
        logp, state = step(prev, state)
        nxt = int(np.argmax(logp))
        if nxt == eos_id:
            break
        ids.append(nxt)
        prev = nxt
    return ids


def beam(step, state, bos_id: int, eos_id: int, max_len: int, width: int) -> list[int]:
    """Prune by cumulative log-probability, pick the final hypothesis by mean."""
    _check_width(width)
    # hypothesis: (ids, cumulative logp, state, finished)
    beams = [([], 0.0, state, False)]
    for _ in range(max_len):
        candidates = []
        any_open = False
        for ids, score, st, finished in beams:
            if finished:
                candidates.append((ids, score, st, True))
                continue
            any_open = True
            prev = ids[-1] if ids else bos_id
            logp, nst = step(prev, st)
            if width > logp.shape[0]:  # a wider beam never prunes and grows as V^t
                raise TypedescError(
                    f"beam width {width} exceeds the {logp.shape[0]} scores of a decoding step")
            top = np.argsort(-logp, kind="stable")[:width]
            for tok in top:
                tok = int(tok)
                if tok == eos_id:
                    candidates.append((ids, score + float(logp[tok]), nst, True))
                else:
                    candidates.append((ids + [tok], score + float(logp[tok]), nst, False))
        if not any_open:
            break
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
