"""Rule-based head/modifier annotation of type descriptions.

Type descriptions are short noun compounds, so a deterministic shallow rule
replaces full dependency parsing: the rightmost content token before the
first preposition is the head, coordinated runs (joined by "," or "and")
contribute one head each, and every content token after the first
preposition is a modifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lexicon
from .errors import TypedescError
from .lexicon import HED, MOD

HEAD = "HEAD"
MODIFIER = "MODIFIER"
FUNCTION = "FUNCTION"


@dataclass
class Annotation:
    tokens: list[str]
    roles: list[str]
    template: list[str]

    @property
    def heads(self) -> list[str]:
        return [t for t, r in zip(self.tokens, self.roles) if r == HEAD]

    @property
    def modifiers(self) -> list[str]:
        return [t for t, r in zip(self.tokens, self.roles) if r == MODIFIER]


def _content_runs(tokens, start, stop):
    """Maximal runs of content tokens in [start, stop) as (begin, end) pairs."""
    runs = []
    i = start
    while i < stop:
        if lexicon.is_function(tokens[i]):
            i += 1
            continue
        j = i
        while j < stop and not lexicon.is_function(tokens[j]):
            j += 1
        runs.append((i, j))
        i = j
    return runs


def annotate(tokens: list[str]) -> Annotation:
    """Assign HEAD/MODIFIER/FUNCTION roles and emit the head-modifier template."""
    if not tokens:
        raise TypedescError("cannot annotate an empty description")

    roles = [FUNCTION if lexicon.is_function(t) else MODIFIER for t in tokens]

    prep = len(tokens)
    for i, tok in enumerate(tokens):
        if tok in lexicon.PREPOSITIONS:
            prep = i
            break

    head_runs = []
    runs = _content_runs(tokens, 0, prep)
    if runs:
        head_runs.append(runs[0])
        # Coordination: keep adding runs while every separator is "," or "and".
        for prev, cur in zip(runs, runs[1:]):
            gap = tokens[prev[1]:cur[0]]
            if all(tok in lexicon.COORDINATORS for tok in gap):
                head_runs.append(cur)
            else:
                break
    else:
        # Description opens with a preposition: fall back to the first content
        # run anywhere so that any description with a content word has a head.
        anywhere = _content_runs(tokens, 0, len(tokens))
        if anywhere:
            head_runs.append(anywhere[0])

    for _begin, end in head_runs:
        roles[end - 1] = HEAD

    template = []
    for tok, role in zip(tokens, roles):
        if role == HEAD:
            template.append(HED)
        elif role == MODIFIER:
            template.append(MOD)
        else:
            template.append(tok)
    return Annotation(tokens=list(tokens), roles=roles, template=template)


def extract_heads(tokens: list[str]) -> set[str]:
    """The set of head words of a description."""
    return set(annotate(tokens).heads)


def apply_template(template: list[str], heads: list[str], modifiers: list[str]) -> list[str]:
    """Fill $hed$/$mod$ slots in order; function tokens pass through verbatim."""
    out = []
    head_iter = iter(heads)
    mod_iter = iter(modifiers)
    for i, tok in enumerate(template):
        if tok == HED:
            try:
                out.append(next(head_iter))
            except StopIteration:
                raise TypedescError(f"template slot {i}: no head available") from None
        elif tok == MOD:
            try:
                out.append(next(mod_iter))
            except StopIteration:
                raise TypedescError(f"template slot {i}: no modifier available") from None
        else:
            out.append(tok)
    return out
