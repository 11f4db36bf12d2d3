"""Greedy and length-normalized beam decoding over a generic step function.

One call runs several independent searches, one per initial state, in one
loop. A step function takes the previous token id of every open hypothesis
of every search and their decoder states, as lists, and scores all of them
in one call: `step(prev_ids, states) -> (log-probability rows, next states
as a list)`. Row i and state i belong to hypothesis i; the hypotheses of
each search come together, in search order. Rows of different searches may
differ in length, since a search's scores are its own vocabulary. So each
search step makes one step call, however many searches are open, and
`typedesc generate` decodes a batch of entities with it, up to
`trainer._DECODE_ROWS` rows a call. Given the same rows, each search picks
what it would pick alone; a step function that scores a block of rows
may round them differently from one row at a time, in the last bits, so
batched output is deterministic for a given input file and equals
per-entity decoding up to that rounding. Greedy is the
width-1 beam, whose one hypothesis is one row. The search owns sequence
bookkeeping only and treats states as opaque, so a state can carry the
index of the entity it decodes. This module is the one place that parses a
decoding mode and dispatches on it.
"""

from __future__ import annotations

import numpy as np

from .errors import TypedescError

LOG_FLOOR = 1e-300  # added to a probability before its log, so that a zero scores finitely


def greedy(step, states: list, bos_id: int, eos_id: int, max_len: int) -> list[list[int]]:
    """The width-1 beam: the most likely token at each step, the lowest id on a tie."""
    return _search(step, states, bos_id, eos_id, max_len, 1)


def beam(step, states: list, bos_id: int, eos_id: int, max_len: int,
         width: int) -> list[list[int]]:
    """Prune by cumulative log-probability, pick the final hypothesis by mean."""
    return _search(step, states, bos_id, eos_id, max_len, _check_width(width))


def _search(step, states: list, bos_id: int, eos_id: int, max_len: int,
            width: int) -> list[list[int]]:
    """The one search loop behind `greedy` and `beam`: token ids, one list per state.

    Each search step scores every open hypothesis of every search in one step
    call. Within a search, finished hypotheses keep their place among the
    candidates; each open one adds its top `width` tokens in order, and one
    stable sort by score follows.
    """
    # per search, its hypotheses: (ids, cumulative logp, state, finished)
    searches = [[([], 0.0, state, False)] for state in states]
    for _ in range(max_len):
        open_hyps = [h for beams in searches for h in beams if not h[3]]
        if not open_hyps:
            break
        logp, next_states = step([h[0][-1] if h[0] else bos_id for h in open_hyps],
                                 [h[2] for h in open_hyps])
        rows = iter(zip(logp, next_states))
        for k, beams in enumerate(searches):
            scored = [next(rows) for h in beams if not h[3]]
            if not scored:
                continue
            length = len(scored[0][0])  # a search's rows share a length
            if width > length:  # a wider beam never prunes and grows as V^t
                raise TypedescError(f"beam width {width} exceeds the {length} scores of a "
                                    f"decoding step")
            if width == 1:  # its one open row's argmax: the stable sort's first entry, unsorted
                tops = [[int(scored[0][0].argmax())]]
            else:  # one sort of the search's open rows
                block = np.array([row for row, _ in scored])
                tops = np.argsort(-block, axis=1, kind="stable")[:, :width].tolist()
            picks = iter(zip(scored, tops))
            candidates = []
            for ids, score, st, finished in beams:
                if finished:
                    candidates.append((ids, score, st, True))
                    continue
                (row, nst), top = next(picks)
                for tok in top:
                    if tok == eos_id:  # a finished hypothesis needs no state
                        candidates.append((ids, score + float(row[tok]), None, True))
                    else:
                        candidates.append((ids + [tok], score + float(row[tok]), nst, False))
            candidates.sort(key=lambda h: -h[1])  # stable: insertion order breaks ties
            searches[k] = candidates[:width]
    return [list(max(beams, key=lambda h: h[1] / (len(h[0]) + 1))[0]) for beams in searches]


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


def decode(step, states: list, bos_id: int, eos_id: int, max_len: int, mode: str,
           width: int) -> list[list[int]]:
    """Token ids of each search, one per initial state, from the search `mode` names."""
    if mode == "greedy":
        return greedy(step, states, bos_id, eos_id, max_len)
    if mode == "beam":
        return beam(step, states, bos_id, eos_id, max_len, width)
    raise TypedescError(f"unknown decoding mode '{mode}'")
