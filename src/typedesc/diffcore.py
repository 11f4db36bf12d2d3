"""Dense float64 tensors with reverse-mode differentiation.

A deliberately small engine: numpy holds the arrays, each op records its
parents and a backward closure, and `Tensor.backward()` walks the tape in
reverse topological order, then forms each parameter's weight gradient from
the rows every step sent it as one matrix product. Covers exactly the ops
the two-stage generator needs, with no general matrix product. A weight
product is `linear` (w x, or w applied to each row of a block) or part of
one of four fused ops, each one node with an analytic backward written on
raw arrays: an affine sum of several products and a bias (`affine`), the
gated fusion of three affine sums (`gated_fusion`), general-product
attention (`attend`) and a GRU step or sequence (`gru_cell`,
`gru_sequence`). One more fused node, `copy_mixture`, turns generate
logits, a switch logit and copy scores into the copy/generate mixture.
Plus Adam, finite-difference gradient checking and a binary checkpoint
format.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import struct
import sys
from typing import NamedTuple

import numpy as np

from .errors import TrainingDiverged, TypedescError

_GRAD_ENABLED = True


class no_grad:
    """Disable graph construction while the context is active (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Row-major float64 array with an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backprop = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.shape != ():
            raise TypedescError(f"backward needs a scalar root, got shape {self.data.shape}")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        try:
            for node in reversed(order):
                if node._backprop is not None:
                    node._backprop(node.grad)
            for leaf, gs, xs in _PENDING.values():
                prod = np.concatenate(gs).T @ np.concatenate(xs)
                if leaf.grad is None:
                    leaf.grad = prod
                else:
                    leaf.grad += prod
        finally:
            _PENDING.clear()

    def sum(self):
        return reduce_sum(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, _tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _tensor(other))

    __rmul__ = __mul__


def _tensor(x) -> Tensor:
    """x itself if a Tensor, else a Python number as a 0-d constant."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _make(data, parents, backprop) -> Tensor:
    """Graph node over `data`; `backprop(g)` sends the node's gradient g to its parents."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backprop = backprop
    return out


def _accum(t: Tensor, g, index=None):
    """Add g into t's gradient, or into its entries at `index` (repeats add up)."""
    if t.requires_grad:
        if t.grad is None:
            if index is None and g.shape == t.data.shape and t.data.flags.c_contiguous:
                # 0 + g is g, up to the sign of a zero, in zeros_like's C layout
                t.grad = g.copy()
                return
            t.grad = np.zeros_like(t.data)
        if index is None:
            t.grad += g
        else:
            np.add.at(t.grad, index, g)


# While a backward runs, the weight-gradient rows sent to each leaf (a
# parameter: requires_grad, no backprop), keyed by id. Tensor.backward reduces
# each leaf's rows in one product at its end (Appleyard et al. 2016) and
# always leaves this empty.
_PENDING: dict[int, tuple[Tensor, list, list]] = {}


def _accum_outer(t: Tensor, g, x):
    """Accumulate g.T @ x into t's gradient; g and x are rows that pair up, any
    leading shape read as rows, so a vector is one row and needs no adapter."""
    g, x = g.reshape(-1, g.shape[-1]), x.reshape(-1, x.shape[-1])
    if t._backprop is not None:
        _accum(t, g.T @ x)
    elif t.requires_grad:
        _, gs, xs = _PENDING.setdefault(id(t), (t, [], []))
        gs.append(g)
        xs.append(x)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def _binary(name: str, fn, a: Tensor, b: Tensor, grads) -> Tensor:
    """Broadcasting fn(a, b); grads(g) gives the gradients of a and b before un-broadcasting."""
    try:
        data = fn(a.data, b.data)
    except ValueError:
        raise TypedescError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None

    def backprop(g):
        for t, gt in zip((a, b), grads(g)):
            _accum(t, _unbroadcast(gt, t.data.shape))

    return _make(data, (a, b), backprop)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", np.add, a, b, lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", np.multiply, a, b, lambda g: (g * b.data, g * a.data))


def linear(x: Tensor, w: Tensor) -> Tensor:
    """w x for a vector x, or w applied to each row of a block x, as one node.

    Computed as (w x^T)^T, so a vector and a one-row block take the same product.
    """
    wd, xd = w.data, x.data
    if wd.ndim != 2 or xd.ndim not in (1, 2) or xd.shape[-1] != wd.shape[1]:
        raise TypedescError(f"linear: incompatible shapes {x.shape} and {w.shape}")

    def backprop(g):
        _accum_outer(w, g, xd)
        _accum(x, (wd.T @ g.T).T)

    return _make((wd @ xd.T).T, (w, x), backprop)


def _affine(ws, xs, b):
    """w_1 x_1 + ... + w_n x_n + b on raw arrays: each product `linear`'s, added left to right."""
    out = (ws[0] @ xs[0].T).T
    for w, x in zip(ws[1:], xs[1:]):
        out = out + (w @ x.T).T
    return out + b


def _checked_affine(name: str, ws: list[Tensor], xs: list[Tensor], b: Tensor):
    """`_affine` of the Tensors' arrays, after the shape checks that `name` reports."""
    for w, x in zip(ws, xs):
        if (x.data.ndim not in (1, 2) or x.data.shape[:-1] != xs[0].data.shape[:-1]
                or w.data.shape != b.data.shape + x.data.shape[-1:]):
            raise TypedescError(f"{name}: weight {w.shape}, input {x.shape}, bias {b.shape}")
    return _affine([w.data for w in ws], [x.data for x in xs], b.data)


def _affine_backprop(ws: list[Tensor], xs: list[Tensor], b: Tensor, g):
    """Send g, the gradient of an affine sum, to its weights, inputs and bias."""
    for w, x in zip(ws, xs):
        _accum_outer(w, g, x.data)
        _accum(x, (w.data.T @ g.T).T)
    _accum(b, _unbroadcast(g, b.data.shape))


def affine(ws: list[Tensor], xs: list[Tensor], b: Tensor) -> Tensor:
    """w_1 x_1 + ... + w_n x_n + b for vectors x_i, or for blocks of rows, as one node.

    The values are those of the chain of `linear` and `add` nodes it replaces.
    """
    data = _checked_affine("affine", ws, xs, b)
    return _make(data, (*ws, *xs, b), lambda g: _affine_backprop(ws, xs, b, g))


def gated_fusion(sides, g_x: Tensor, g_t: Tensor) -> Tensor:
    """(1 - g_x - g_t) a_0 + g_x a_1 + g_t a_2 for vectors or blocks of rows, as one node.

    Each a_i is the affine sum `affine(*sides[i])`. The coefficient is taken
    literally: two independent gates can drive it below zero. The values are
    those of the chain of `affine`, subtraction, product and sum nodes it
    replaces, in that chain's order.
    """
    sums = [_checked_affine("gated_fusion", *side) for side in sides]
    gx, gt = g_x.data, g_t.data
    if not gx.shape == gt.shape == sums[0].shape == sums[1].shape == sums[2].shape:
        raise TypedescError(f"gated_fusion: gates {g_x.shape} and {g_t.shape} for sums "
                            f"{[a.shape for a in sums]}")
    coeff = 1.0 - gx - gt
    data = coeff * sums[0] + gx * sums[1] + gt * sums[2]

    def backprop(g):
        target_part = g * sums[0]
        _accum(g_x, g * sums[1] - target_part)
        _accum(g_t, g * sums[2] - target_part)
        for side, gate in zip(sides, (coeff, gx, gt)):
            _affine_backprop(*side, g * gate)

    # parents in the order a depth-first walk met them in the replaced chain, so
    # that every gradient sums its parts in the same order
    (ws0, xs0, b0), (ws1, xs1, b1), (ws2, xs2, b2) = sides
    return _make(data, (*ws0, *xs0, b0, g_x, *ws1, *xs1, b1, g_t, *ws2, *xs2, b2), backprop)


# General-product attention (Luong et al. 2015) on raw arrays, for a query
# s that is a state vector or a block of rows, each row attended on its own:
#   q = W s; scores = H q; alpha = softmax(scores); context = H^T alpha
# Each product is the one `linear` computes, and the softmax is `softmax`'s.

def _attend(states, s, w):
    """The context and the values its backward needs, (q, alpha)."""
    q = (w @ s.T).T
    alpha = _softmax((states @ q.T).T)
    return (states.T @ alpha.T).T, (q, alpha)


def _attend_grad(g, states, w, saved):
    """Gradients of the scores, of q and of s, from g, the gradient of the context."""
    _q, alpha = saved
    dscores = _softmax_grad((states @ g.T).T, alpha)
    dq = (states.T @ dscores.T).T
    return dscores, dq, (w.T @ dq.T).T


def attend(states: Tensor, s: Tensor, w: Tensor):
    """General-product attention of s over the rows of states, as one node.

    Returns the context node and alpha, the attention weights as an array.
    """
    hd, sd, wd = states.data, s.data, w.data
    if (hd.ndim != 2 or wd.ndim != 2 or sd.ndim not in (1, 2)
            or sd.shape[-1] != wd.shape[1] or wd.shape[0] != hd.shape[1]):
        raise TypedescError(f"attend: states {states.shape}, query {s.shape}, "
                            f"weight {w.shape}")
    context, saved = _attend(hd, sd, wd)

    def backprop(g):
        dscores, dq, ds = _attend_grad(g, hd, wd, saved)
        q, alpha = saved
        _accum_outer(states, alpha, g)
        _accum_outer(states, dscores, q)
        _accum_outer(w, dq, sd)
        _accum(s, ds)

    return _make(context, (states, w, s), backprop), saved[1]


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise TypedescError(f"transpose expects a matrix, got shape {a.shape}")
    return _make(a.data.T, (a,), lambda g: _accum(a, g.T))


def concat(parts: list[Tensor]) -> Tensor:
    """Join along the last axis: vectors end to end, or blocks row by row."""
    try:
        data = np.concatenate([p.data for p in parts], axis=-1)
    except ValueError:
        shapes = [p.shape for p in parts]
        raise TypedescError(f"concat: incompatible shapes {shapes}") from None

    def backprop(g):
        offset = 0
        for p in parts:
            size = p.data.shape[-1]
            _accum(p, g[..., offset:offset + size])
            offset += size

    return _make(data, tuple(parts), backprop)


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return _make(y, (a,), lambda g: _accum(a, g * y * (1.0 - y)))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: _accum(a, g * (1.0 - y * y)))


def reduce_sum(a: Tensor) -> Tensor:
    return _make(a.data.sum(), (a,), lambda g: _accum(a, g))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g, y):
    """Gradient of the scores of y = _softmax(scores), from g, the gradient of y."""
    return (g - (g * y).sum(axis=-1, keepdims=True)) * y


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = _softmax(a.data)
    return _make(y, (a,), lambda g: _accum(a, _softmax_grad(g, y)))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Row(s) of a matrix such as an embedding table; an int gives a vector, a list a matrix."""
    idx = np.asarray(ids)
    return _make(table.data[idx], (table,), lambda g: _accum(table, g, idx))


def copy_mixture(gen_logits: Tensor, switch_logit: Tensor, copy_scores: Tensor, index,
                 size: int) -> Tensor:
    """Copy/generate mixture over an extended vocabulary of `size` entries, as one node.

    With p_z = sigmoid(switch_logit), entry j is p_z softmax(gen_logits)[j]
    (0 past the generate vocabulary) plus (1 - p_z) times the sum of
    softmax(copy_scores)[i] over the source positions i with index[i] == j
    (See et al. 2017). Takes vectors, or (k, V), (k, 1) and (k, L) blocks done
    row by row. The values are those of the softmax, sigmoid, subtraction,
    product and scatter nodes it replaces.
    """
    idx = np.asarray(index)
    if (gen_logits.data.ndim not in (1, 2) or gen_logits.shape[-1] > size or idx.ndim != 1
            or switch_logit.shape != gen_logits.shape[:-1] + (1,)
            or copy_scores.shape != gen_logits.shape[:-1] + idx.shape):
        raise TypedescError(f"copy_mixture: generate logits {gen_logits.shape} into size "
                            f"{size}, switch {switch_logit.shape}, copy scores "
                            f"{copy_scores.shape}, index {idx.shape}")
    p_gen = _softmax(gen_logits.data)
    p_copy = _softmax(copy_scores.data)
    p_z = _sigmoid(switch_logit.data)
    p_not = 1.0 - p_z
    n = p_gen.shape[-1]
    data = np.zeros(p_gen.shape[:-1] + (size,), dtype=np.float64)
    np.add.at(data.T, idx, (p_not * p_copy).T)
    data[..., :n] += p_z * p_gen

    def backprop(g):
        g_gen, g_copy = g[..., :n], g[..., idx]
        dp_z = (g_gen * p_gen).sum(axis=-1, keepdims=True) \
            - (g_copy * p_copy).sum(axis=-1, keepdims=True)
        _accum(gen_logits, _softmax_grad(g_gen * p_z, p_gen))
        _accum(switch_logit, dp_z * p_z * p_not)
        _accum(copy_scores, _softmax_grad(g_copy * p_not, p_copy))

    # parents in the order a depth-first walk met them in the replaced chain
    return _make(data, (gen_logits, switch_logit, copy_scores), backprop)


def add_n(parts: list[Tensor]) -> Tensor:
    data = parts[0].data.copy()
    for p in parts[1:]:
        data = data + p.data

    def backprop(g):
        for p in parts:
            _accum(p, g)

    return _make(data, tuple(parts), backprop)


def cross_entropy(dist: Tensor, target: int, from_logits: bool = True) -> Tensor:
    """Negative log-likelihood of one target id.

    With logits, uses the shifted log-sum-exp form so large scores never
    overflow; with probabilities, takes -log(p[target]) directly.
    """
    if dist.data.ndim != 1:
        raise TypedescError(f"cross_entropy expects a vector, got shape {dist.shape}")
    if not 0 <= target < dist.data.shape[0]:
        raise TypedescError(f"cross_entropy: target {target} out of range for shape {dist.shape}")
    x = dist.data
    if from_logits:
        m = x.max()
        lse = m + np.log(np.exp(x - m).sum())
        nll = lse - x[target]

        def backprop(g):
            p = np.exp(x - lse)
            p[target] -= 1.0
            _accum(dist, g * p)

    else:
        p_t = x[target]
        with np.errstate(divide="ignore", invalid="ignore"):
            nll = -np.log(p_t)

        def backprop(g):
            _accum(dist, -g / p_t, target)

    return _make(np.asarray(nll), (dist,), backprop)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

class GRUWeights(NamedTuple):
    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor


# One GRU step on raw arrays, given the input part W x + b of each gate:
#   z = sig(az + Uz h); r = sig(ar + Ur h)
#   hbar = tanh(ah + Uh (r*h)); h' = (1-z)*h + z*hbar
# gru_cell and gru_sequence both run it, and both backpropagate through
# _gru_step_grad and _gru_param_grads, so each op is one graph node.

def _gru_step(az, ar, ah, h, w: GRUWeights):
    """h' and the values its backward needs, (z, r, r*h, hbar); h is a state or a row block."""
    z = _sigmoid(az + (w.uz.data @ h.T).T)
    r = _sigmoid(ar + (w.ur.data @ h.T).T)
    rh = r * h
    hbar = np.tanh(ah + (w.uh.data @ rh.T).T)
    return (1.0 - z) * h + z * hbar, (z, r, rh, hbar)


def _gru_step_grad(g, h, saved, w: GRUWeights):
    """Gradients of the gate input parts and of h, from g, the gradient of h'."""
    z, r, _rh, hbar = saved
    dah = g * z * (1.0 - hbar * hbar)
    drh = dah @ w.uh.data
    daz = g * (hbar - h) * z * (1.0 - z)
    dar = drh * h * r * (1.0 - r)
    dh = g * (1.0 - z) + drh * r + daz @ w.uz.data + dar @ w.ur.data
    return daz, dar, dah, dh


def _gru_param_grads(w: GRUWeights, xs, hs, rhs, daz, dar, dah):
    """Accumulate the weight gradients and return the input gradient.

    Row t of xs, hs and rhs holds step t's x, h and r*h, and row t of
    daz, dar and dah its gate input-part gradients (vectors are one step);
    each weight gradient is one product over all steps.
    """
    for wx, u, b, da, hu in ((w.wz, w.uz, w.bz, daz, hs), (w.wr, w.ur, w.br, dar, hs),
                             (w.wh, w.uh, w.bh, dah, rhs)):
        _accum_outer(wx, da, xs)
        _accum_outer(u, da, hu)
        _accum(b, _unbroadcast(da, b.data.shape))
    return daz @ w.wz.data + dar @ w.wr.data + dah @ w.wh.data


def gru_cell(x: Tensor, h: Tensor, w: GRUWeights) -> Tensor:
    """One GRU step from input x and state h, vectors or row blocks, as one graph node."""
    xd, hd = x.data, h.data
    xt = xd.T
    h_next, saved = _gru_step((w.wz.data @ xt).T + w.bz.data, (w.wr.data @ xt).T + w.br.data,
                              (w.wh.data @ xt).T + w.bh.data, hd, w)

    def backprop(g):
        daz, dar, dah, dh = _gru_step_grad(g, hd, saved, w)
        _accum(h, dh)
        _accum(x, _gru_param_grads(w, xd, hd, saved[2], daz, dar, dah))

    return _make(h_next, (x, h, *w), backprop)


def gru_sequence(xs: Tensor, h0: Tensor, w: GRUWeights, reverse: bool = False) -> Tensor:
    """GRU states over the rows of xs from state h0, as one graph node.

    The gates' input parts W x + b of every step are one matrix product per
    gate (Appleyard et al. 2016). Row t of the result is the state after
    reading row t; with `reverse` the steps read the rows last to first.
    """
    if xs.data.ndim != 2:
        raise TypedescError(f"gru_sequence expects a matrix of inputs, got shape {xs.shape}")
    inputs = xs.data[::-1] if reverse else xs.data
    az = inputs @ w.wz.data.T + w.bz.data
    ar = inputs @ w.wr.data.T + w.br.data
    ah = inputs @ w.wh.data.T + w.bh.data
    steps = inputs.shape[0]
    hs = np.empty((steps + 1, h0.data.shape[0]))  # hs[t] is the state before step t
    hs[0] = h0.data
    saved = []
    for t in range(steps):
        hs[t + 1], step_saved = _gru_step(az[t], ar[t], ah[t], hs[t], w)
        saved.append(step_saved)

    def backprop(g):
        g = g[::-1] if reverse else g
        daz, dar, dah = (np.empty_like(az) for _ in range(3))
        dh = np.zeros_like(hs[0])
        for t in range(steps - 1, -1, -1):
            daz[t], dar[t], dah[t], dh = _gru_step_grad(g[t] + dh, hs[t], saved[t], w)
        _accum(h0, dh)
        rhs = np.array([s[2] for s in saved])
        dxs = _gru_param_grads(w, inputs, hs[:-1], rhs, daz, dar, dah)
        _accum(xs, dxs[::-1] if reverse else dxs)

    states = hs[1:]
    return _make(states[::-1] if reverse else states, (xs, h0, *w), backprop)


def init_gru(params: dict, prefix: str, d_in: int, d_h: int, rng):
    """Register the nine GRU weight tensors under `prefix` in `params`."""
    for gate in ("z", "r", "h"):
        params[f"{prefix}.w{gate}"] = uniform_param(rng, (d_h, d_in))
        params[f"{prefix}.u{gate}"] = uniform_param(rng, (d_h, d_h))
        params[f"{prefix}.b{gate}"] = uniform_param(rng, (d_h,))


def gru_weights(params: dict, prefix: str) -> GRUWeights:
    return GRUWeights(*(params[f"{prefix}.{name}"]
                        for name in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")))


INIT_SCALE = 0.08


def uniform_param(rng, shape) -> Tensor:
    """Learnable tensor initialized uniform(-INIT_SCALE, INIT_SCALE)."""
    return Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

# Elements per slice of an Adam update (256 KB of float64): a slice of p, g, m,
# v and the two scratch buffers stays in cache across the update's operations.
_ADAM_CHUNK = 32768


class Adam:
    """Adam with bias correction over a named parameter dict, updated in place."""

    def __init__(self, params: dict, lr: float, beta1: float, beta2: float, eps: float):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        # C order even for a transposed parameter, so step's flat views write through
        self.m = {name: np.zeros_like(p.data, order="C") for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data, order="C") for name, p in params.items()}
        size = min(_ADAM_CHUNK, max((p.data.size for p in params.values()), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def step(self):
        """One update. Once the running sum of squares of the gradients (`np.vdot`,
        clip_gradients' sum in its order) is not finite, TrainingDiverged names
        the parameter then reached, before any parameter, moment or `t` moves.

        Each parameter takes the textbook expressions in their usual order,
        m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t),
        p -= lr * m_hat / (sqrt(v_hat) + eps). They run slice by slice over
        the flattened parameter, into two slice-sized scratch buffers, so each
        parameter passes through memory once; every operation is elementwise,
        so slicing leaves the result bitwise unchanged.
        """
        total = 0.0
        for name, p in self.params.items():
            total += 0.0 if p.grad is None else float(np.vdot(p.grad, p.grad))
            if not math.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite gradient at step {self.t + 1} in parameter '{name}'")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for name, p in self.params.items():
            data = p.data.reshape(-1)
            g = p.grad.reshape(-1) if p.grad is not None else None
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for lo in range(0, data.size, _ADAM_CHUNK):
                hi = lo + _ADAM_CHUNK
                ps, ms, vs = data[lo:hi], m[lo:hi], v[lo:hi]
                gs = g[lo:hi] if g is not None else 0.0
                a, b = (s[:ps.size] for s in self._scratch)
                ms *= b1
                ms += np.multiply(1.0 - b1, gs, out=a)
                vs *= b2
                np.multiply(1.0 - b2, gs, out=a)
                vs += np.multiply(a, gs, out=a)
                np.divide(ms, c1, out=a)
                a *= self.lr
                np.divide(vs, c2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                ps -= np.divide(a, b, out=a)
            if not np.shares_memory(data, p.data):
                # reshape copied a parameter that is not C-contiguous
                p.data[...] = data.reshape(p.data.shape)

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None


def clip_gradients(params: dict, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm; returns the norm.

    A norm that is not finite scales nothing: `Adam.step` sums the same squares
    and rejects the gradients, which scaled by max_norm / inf would read 0 and pass.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.vdot(p.grad, p.grad))
    norm = float(np.sqrt(total))
    if max_norm < norm < math.inf:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def grad_check(f, params, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central finite-difference gradients.

    `f` rebuilds the scalar loss from the current parameter values on every call.
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data):
        raise TypedescError("grad_check: loss is not finite")
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + epsilon
                f_plus = float(f().data)
                flat[i] = orig - epsilon
                f_minus = float(f().data)
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise TypedescError("grad_check: non-finite value during finite differences")
                numeric = (f_plus - f_minus) / (2.0 * epsilon)
                rel = abs(aflat[i] - numeric) / max(abs(aflat[i]) + abs(numeric), 1e-8)
                worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"TDCK"
CHECKPOINT_VERSION = 1


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open `path` for writing so that a failure part-way leaves its earlier contents.

    A missing or regular file, or the file a symlink points to, is written as a
    temp file beside it and renamed over it, keeping its mode. A device or FIFO
    such as /dev/stdout is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        if os.path.exists(target):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_checkpoint(path, params: dict):
    """Names to shapes and raw little-endian float64 payloads, with a version header."""
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(params)))
        for name, p in params.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            arr = p.data
            fh.write(struct.pack("<B", arr.ndim))
            if arr.ndim:
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, into: dict | None = None) -> dict:
    """Parameters of a checkpoint; any short read or trailing byte is a TypedescError.

    With `into`, a dict of tensors such as a freshly built model's, the checkpoint must
    hold exactly its names and shapes and is read into its arrays (partly, on an error).
    """

    def need(n: int):
        if n > size - fh.tell():
            raise TypedescError(f"{path}: checkpoint is truncated")

    def unpack(fmt: str):
        need(struct.calcsize(fmt))
        return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise TypedescError(f"{path}: not a typedesc checkpoint")
        (version,) = unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise TypedescError(
                f"{path}: checkpoint version {version}, this build reads version "
                f"{CHECKPOINT_VERSION}")
        (count,) = unpack("<I")
        params = {}
        for _ in range(count):
            (name_len,) = unpack("<H")
            need(name_len)
            try:
                name = fh.read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise TypedescError(f"{path}: parameter name is not UTF-8") from None
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            need(8 * math.prod(shape))
            if name in params:
                raise TypedescError(f"{path}: parameter '{name}' appears twice")
            if into is None:
                params[name] = Tensor(np.empty(shape), requires_grad=True)
            elif name not in into:
                raise TypedescError(f"{path}: parameter '{name}' is not in the model")
            elif into[name].shape != shape:
                raise TypedescError(f"{path}: parameter '{name}' has shape {shape}, "
                                    f"the model's has {into[name].shape}")
            else:
                params[name] = into[name]
            arr = params[name].data
            fh.readinto(arr)
            if sys.byteorder == "big":  # payloads are little-endian
                arr.byteswap(inplace=True)
        if fh.tell() != size:
            raise TypedescError(f"{path}: trailing bytes after the last parameter")
        missing = sorted(set(into or ()) - set(params))
        if missing:
            raise TypedescError(f"{path}: checkpoint lacks parameters {missing[:5]}")
        return params
