import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typedesc import diffcore as dc
from typedesc import stage1
from typedesc.errors import TypedescError
from typedesc.stage1 import ModelDims
from typedesc.trainer import TrainConfig, TwoStageModel

TRAIN = TrainConfig()


def adam(params, lr):
    """Adam at learning rate `lr`, with TrainConfig's betas and eps."""
    return dc.Adam(params, lr, TRAIN.beta1, TRAIN.beta2, TRAIN.eps)


def param(rng, *shape, scale=0.5):
    return dc.Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = dc.softmax(dc.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_softmax_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = dc.softmax(dc.Tensor(rng.normal(size=7) * 10))
            assert abs(out.data.sum() - 1.0) < 1e-9
            assert np.all(out.data >= 0)

    def test_sigmoid_zero(self):
        assert dc.sigmoid(dc.Tensor(np.zeros(3))).data[0] == 0.5

    def test_shape_mismatch_names_shapes(self):
        a = dc.Tensor(np.zeros((2, 3)))
        b = dc.Tensor(np.zeros((2, 3)))
        with pytest.raises(TypedescError, match=r"\(2, 3\).*\(2, 3\)"):
            dc.affine([a], [b], dc.Tensor(np.zeros(3)))

    @pytest.mark.parametrize("op", [dc.add, dc.mul])
    def test_elementwise_shape_mismatch_names_op_and_shapes(self, op):
        a, b = dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros(4))
        with pytest.raises(TypedescError,
                           match=rf"^{op.__name__}: incompatible shapes \(2, 3\) and \(4,\)$"):
            op(a, b)

    def test_copy_mixture_rejects_generate_logits_longer_than_size(self):
        with pytest.raises(TypedescError, match=r"generate logits \(5,\) into size 4"):
            dc.copy_mixture(dc.Tensor(np.zeros(5)), dc.Tensor(np.zeros(1)),
                            dc.Tensor(np.zeros(2)), [0, 1], 4)

    @pytest.mark.parametrize("size", [4, 64, 256, 10_000])
    def test_sigmoid_matches_the_two_division_form(self, size):
        x = np.random.default_rng(size).normal(0.0, 10.0, size=size)
        x[:4] = [0.0, 800.0, -800.0, np.nan]
        e = np.exp(-np.abs(x))
        reference = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(dc._sigmoid(x), reference, equal_nan=True)

    def test_backward_needs_scalar(self):
        t = dc.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(TypedescError):
            (t * 2.0).backward()


class TestGRUCell:
    def zero_weights(self, d_in, d_h):
        p = {}
        dc.init_gru(p, "g", d_in, d_h, np.random.default_rng(0))
        for t in p.values():
            t.data[:] = 0.0
        return dc.gru_weights(p, "g"), p

    def test_zero_params_zero_state(self):
        w, _ = self.zero_weights(3, 4)
        x = dc.Tensor([1.0, -2.0, 3.0])
        h = dc.zeros(4)
        out = dc.gru_cell(x, h, w)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-15)

    def test_update_gate_saturation(self):
        # huge update-gate bias forces z ~ 1, so h' ~ hbar
        w, p = self.zero_weights(3, 4)
        p["g.bz"].data[:] = 50.0
        p["g.bh"].data[:] = 0.7
        x = dc.Tensor([0.0, 0.0, 0.0])
        h = dc.Tensor([5.0, -5.0, 2.0, 1.0])
        out = dc.gru_cell(x, h, w)
        np.testing.assert_allclose(out.data, np.tanh(0.7) * np.ones(4), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = {}
        dc.init_gru(p, "g", 3, 4, rng)
        for t in p.values():
            t.data = rng.normal(0.0, 0.5, size=t.data.shape)
        x = param(rng, 3)
        h = param(rng, 4)
        probe = dc.Tensor(rng.normal(size=4))
        w = dc.gru_weights(p, "g")
        err = dc.grad_check(lambda: (dc.gru_cell(x, h, w) * probe).sum(),
                            [x, h] + list(p.values()), epsilon=1e-5)
        assert err < 1e-4


def _unfused_gru_cell(x, h, w):
    """Reference GRU step built from elementwise ops, one node per op."""
    z = dc.sigmoid(dc.linear(x, w.wz) + dc.linear(h, w.uz) + w.bz)
    r = dc.sigmoid(dc.linear(x, w.wr) + dc.linear(h, w.ur) + w.br)
    hbar = dc.tanh(dc.linear(x, w.wh) + dc.linear(r * h, w.uh) + w.bh)
    return (1.0 + z * -1.0) * h + z * hbar  # 1 - z exactly: negation rounds nothing


def random_gru(rng, d_in, d_h, scale=0.5):
    p = {}
    dc.init_gru(p, "g", d_in, d_h, rng)
    for t in p.values():
        t.data = rng.normal(0.0, scale, size=t.data.shape)
    return dc.gru_weights(p, "g")


def grads_of(loss_fn, tensors):
    for t in tensors:
        t.grad = None
    loss_fn().backward()
    return [t.grad.copy() for t in tensors]


class TestFusedGRU:
    @pytest.mark.parametrize("seed", range(5))
    def test_cell_matches_unfused_reference(self, seed):
        rng = np.random.default_rng(seed)
        w = random_gru(rng, 7, 5)
        x, h = param(rng, 7, scale=1.0), param(rng, 5, scale=1.0)
        probe = dc.Tensor(rng.normal(size=5))
        fused = dc.gru_cell(x, h, w)
        assert np.max(np.abs(fused.data - _unfused_gru_cell(x, h, w).data)) <= 1e-13
        parents = [x, h, *w]
        got = grads_of(lambda: (dc.gru_cell(x, h, w) * probe).sum(), parents)
        want = grads_of(lambda: (_unfused_gru_cell(x, h, w) * probe).sum(), parents)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-10 * np.max(np.abs(r))

    @pytest.mark.parametrize("steps", [1, 2, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_sequence_gradient_matches_finite_differences(self, steps, reverse):
        rng = np.random.default_rng(10 * steps + reverse)
        w = random_gru(rng, 5, 5)
        xs, h0 = param(rng, steps, 5), param(rng, 5)
        probe = dc.Tensor(rng.normal(size=(steps, 5)))
        # at the default step, cancellation noise swamps the smallest gradient elements
        err = dc.grad_check(lambda: (dc.gru_sequence(xs, h0, w, reverse=reverse)
                                     * probe).sum(), [xs, h0, *w], epsilon=1e-4)
        assert err < 1e-6

    @pytest.mark.parametrize("reverse", [False, True])
    def test_sequence_matches_a_loop_of_cells(self, reverse):
        rng = np.random.default_rng(21)
        w = random_gru(rng, 6, 4)
        xs, h0 = param(rng, 5, 6, scale=1.0), param(rng, 4, scale=1.0)
        probe = dc.Tensor(rng.normal(size=(5, 4)))

        def looped():
            h, states = h0, [None] * 5
            for i in (range(4, -1, -1) if reverse else range(5)):
                h = states[i] = dc.gru_cell(dc.embedding_lookup(xs, i), h, w)
            return states

        seq = dc.gru_sequence(xs, h0, w, reverse=reverse)
        assert np.max(np.abs(seq.data - np.array([s.data for s in looped()]))) <= 1e-12
        parents = [xs, h0, *w]
        got = grads_of(lambda: (dc.gru_sequence(xs, h0, w, reverse=reverse) * probe).sum(),
                       parents)
        want = grads_of(lambda: dc.add_n([(s * dc.Tensor(probe.data[i])).sum()
                                          for i, s in enumerate(looped())]), parents)
        for g, r in zip(got, want):
            assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))

    def test_each_call_is_one_node(self, monkeypatch):
        rng = np.random.default_rng(4)
        w = random_gru(rng, 3, 2)
        made = []
        real = dc._make
        monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
        dc.gru_cell(param(rng, 3), param(rng, 2), w)
        dc.gru_sequence(param(rng, 6, 3), param(rng, 2), w, reverse=True)
        assert len(made) == 2


class TestRowBlocks:
    """linear, gru_cell and copy_mixture take a block of rows through the vector code."""

    def test_linear_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        w, x, xs = param(rng, 3, 4), param(rng, 4), param(rng, 2, 4)
        assert dc.grad_check(lambda: (dc.linear(x, w) * dc.Tensor([1.0, -2.0, 0.5])).sum(),
                             [w, x]) < 1e-6
        probe = dc.Tensor(rng.normal(size=(2, 3)))
        assert dc.grad_check(lambda: (dc.linear(xs, w) * probe).sum(), [w, xs]) < 1e-6

    def test_linear_rejects_a_mismatched_row_length(self):
        with pytest.raises(TypedescError, match=r"linear: incompatible shapes \(2, 3\) and "
                                                r"\(4, 4\)"):
            dc.linear(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((4, 4))))

    def test_linear_one_row_block_is_the_vector_bitwise(self):
        rng = np.random.default_rng(32)
        w, x = rng.normal(size=(6, 9)), rng.normal(size=9)
        row = dc.linear(dc.Tensor(x[None]), dc.Tensor(w)).data
        assert row.shape == (1, 6) and np.array_equal(row[0], w @ x)

    @staticmethod
    def one_row_case(op, rng):
        """fn(*inputs) -> the op's output, its vector inputs and its other parents."""
        if op == "linear":
            w = param(rng, 5, 7)
            return lambda x: dc.linear(x, w), [param(rng, 7)], [w]
        if op == "affine":
            ws, xs, b = random_affine(rng, 3, 0)
            return lambda *x: dc.affine(ws, list(x), b), xs, [*ws, b]
        if op == "attend_general":
            states, w = param(rng, 4, 5), param(rng, 5, 5)
            return lambda s: stage1.attend_general(states, s, w)[0], [param(rng, 5)], [states, w]
        w = random_gru(rng, 5, 4)
        return lambda x, h: dc.gru_cell(x, h, w), [param(rng, 5), param(rng, 4)], list(w)

    @pytest.mark.parametrize("op", ["linear", "affine", "attend_general", "gru_cell"])
    def test_one_row_block_is_the_vector_bitwise(self, op):
        rng = np.random.default_rng(35)
        fn, inputs, others = self.one_row_case(op, rng)
        blocks = [dc.Tensor(x.data[None], requires_grad=True) for x in inputs]
        vec, block = fn(*inputs).data, fn(*blocks).data
        assert block.ndim == 2 and np.array_equal(block.reshape(vec.shape), vec)
        probe = rng.normal(size=vec.shape)
        want = grads_of(lambda: (fn(*inputs) * dc.Tensor(probe)).sum(), [*inputs, *others])
        got = grads_of(lambda: (fn(*blocks) * dc.Tensor(probe.reshape(block.shape))).sum(),
                       [*blocks, *others])
        for g, r in zip(got, want):
            assert np.array_equal(g.reshape(r.shape), r)

    def test_gru_cell_block_rows_are_cells(self):
        rng = np.random.default_rng(33)
        w = random_gru(rng, 5, 4)
        xs, hs = param(rng, 3, 5, scale=1.0), param(rng, 3, 4, scale=1.0)
        block = dc.gru_cell(xs, hs, w).data
        for i in range(3):
            cell = dc.gru_cell(dc.Tensor(xs.data[i]), dc.Tensor(hs.data[i]), w).data
            assert_close_relative(block[i], cell)
        one = dc.gru_cell(dc.Tensor(xs.data[:1]), dc.Tensor(hs.data[:1]), w).data
        assert np.array_equal(one[0], dc.gru_cell(dc.Tensor(xs.data[0]),
                                                  dc.Tensor(hs.data[0]), w).data)
        probe = dc.Tensor(rng.normal(size=(3, 4)))
        err = dc.grad_check(lambda: (dc.gru_cell(xs, hs, w) * probe).sum(), [xs, hs, *w],
                            epsilon=1e-4)
        assert err < 1e-6

    def test_copy_mixture_block_rows_are_vector_calls(self):
        rng = np.random.default_rng(34)
        parts = param(rng, 3, 2), param(rng, 3, 1), param(rng, 3, 5)
        idx = np.array([0, 3, 3, 2, 0])
        block = dc.copy_mixture(*parts, idx, 4).data
        for i in range(3):
            row = dc.copy_mixture(*(dc.Tensor(p.data[i]) for p in parts), idx, 4).data
            assert np.array_equal(block[i], row)
        probe = dc.Tensor(rng.normal(size=(3, 4)))
        assert dc.grad_check(lambda: (dc.copy_mixture(*parts, idx, 4) * probe).sum(),
                             list(parts)) < 1e-6

    def test_copy_mixture_rejects_unpaired_rows(self):
        with pytest.raises(TypedescError, match="copy_mixture"):
            dc.copy_mixture(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((2, 1))),
                            dc.Tensor(np.zeros((3, 2))), [0, 1], 4)


def _unfused_affine(ws, xs, b):
    """Reference affine map: a chain of linear and add nodes, one node per op."""
    out = dc.linear(xs[0], ws[0])
    for w, x in zip(ws[1:], xs[1:]):
        out = out + dc.linear(x, w)
    return out + b


def random_affine(rng, terms, rows, d=6):
    """Weights (d, d_i), inputs (d_i,) or (rows, d_i), bias (d,), with d_i = 3, 4, 5, ..."""
    ws = [param(rng, d, 3 + i) for i in range(terms)]
    xs = [param(rng, *((rows,) if rows else ()), 3 + i, scale=1.0) for i in range(terms)]
    return ws, xs, param(rng, d)


class TestAffine:
    """affine is the linear-and-add chain it replaces, as one node."""

    @pytest.mark.parametrize("terms", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, 4])
    def test_matches_the_unfused_chain(self, terms, rows):
        rng = np.random.default_rng(40 + 10 * terms + rows)
        ws, xs, b = random_affine(rng, terms, rows)
        assert np.array_equal(dc.affine(ws, xs, b).data, _unfused_affine(ws, xs, b).data)
        probe = dc.Tensor(rng.normal(size=(rows, 6) if rows else 6))
        parents = [*ws, *xs, b]
        got = grads_of(lambda: (dc.affine(ws, xs, b) * probe).sum(), parents)
        want = grads_of(lambda: (_unfused_affine(ws, xs, b) * probe).sum(), parents)
        for g, r in zip(got, want):
            assert_close_relative(g, r)

    @pytest.mark.parametrize("terms", [1, 3])
    @pytest.mark.parametrize("rows", [0, 3])
    def test_gradients_match_finite_differences(self, terms, rows):
        rng = np.random.default_rng(50 + terms + rows)
        ws, xs, b = random_affine(rng, terms, rows)
        probe = dc.Tensor(rng.normal(size=(rows, 6) if rows else 6))
        assert dc.grad_check(lambda: (dc.affine(ws, xs, b) * probe).sum(),
                             [*ws, *xs, b]) < 1e-6

    def test_each_call_is_one_node(self, monkeypatch):
        ws, xs, b = random_affine(np.random.default_rng(60), 3, 2)
        made = []
        real = dc._make
        monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
        dc.affine(ws, xs, b)
        assert len(made) == 1

    def test_rejects_mismatched_shapes(self):
        w, x, b = dc.Tensor(np.zeros((4, 3))), dc.Tensor(np.zeros(3)), dc.Tensor(np.zeros(4))
        for ws, xs, bias in (([w], [dc.Tensor(np.zeros(2))], b),          # row length
                             ([w, w], [x, dc.Tensor(np.zeros((2, 3)))], b),  # vector and block
                             ([w], [x], dc.Tensor(np.zeros(3)))):          # bias length
            with pytest.raises(TypedescError, match=r"affine: weight \(4, 3\), input"):
                dc.affine(ws, xs, bias)


def outer_sum(gs, xs):
    return sum(np.outer(g, x) for g, x in zip(gs, xs))


def assert_close_relative(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestDeferredWeightGradients:
    """A parameter's gradient rows are reduced in one product at the end of backward."""

    def test_linear_over_steps_is_the_sum_of_outer_products(self):
        rng = np.random.default_rng(30)
        w = param(rng, 5, 4)
        xs = [dc.Tensor(rng.normal(size=4)) for _ in range(4)]
        probes = [rng.normal(size=5) for _ in range(4)]
        dc.add_n([(dc.linear(x, w) * dc.Tensor(p)).sum() for x, p in zip(xs, probes)]).backward()
        assert_close_relative(w.grad, outer_sum(probes, [x.data for x in xs]))

    def test_unrolled_gru_cell_is_the_sum_of_outer_products(self):
        rng = np.random.default_rng(31)
        w = random_gru(rng, 3, 4)
        xs = [rng.normal(size=3) for _ in range(4)]
        h0 = param(rng, 4)
        probes = [dc.Tensor(rng.normal(size=4)) for _ in range(4)]

        def loss(weights):
            """Sum of probed states, and the state before each step."""
            h, losses, hs = h0, [], []
            for x, wt, probe in zip(xs, weights, probes):
                hs.append(h.data)
                h = dc.gru_cell(dc.Tensor(x), h, wt)
                losses.append((h * probe).sum())
            return dc.add_n(losses), hs

        shared, hs = loss([w] * 4)
        shared.backward()
        # one copy of the weights per step: each step's bias gradient is its gate gradient
        copies = [dc.GRUWeights(*(dc.Tensor(t.data.copy(), requires_grad=True) for t in w))
                  for _ in xs]
        loss(copies)[0].backward()
        daz, dar, dah = ([c[i].grad for c in copies] for i in (2, 5, 8))
        rhs = [h / (1.0 + np.exp(-(w.wr.data @ x + w.ur.data @ h + w.br.data)))
               for x, h in zip(xs, hs)]
        for got, want in ((w.wz, outer_sum(daz, xs)), (w.uz, outer_sum(daz, hs)),
                          (w.wr, outer_sum(dar, xs)), (w.ur, outer_sum(dar, hs)),
                          (w.wh, outer_sum(dah, xs)), (w.uh, outer_sum(dah, rhs)),
                          (w.bz, sum(daz)), (w.br, sum(dar)), (w.bh, sum(dah))):
            assert_close_relative(got.grad, want)

    def test_weight_reached_by_two_paths_gets_both(self):
        rng = np.random.default_rng(32)
        w = param(rng, 4, 3)
        x, p = rng.normal(size=3), rng.normal(size=4)
        a, q = rng.normal(size=(2, 4)), rng.normal(size=(2, 3))
        # a transposed leaf gets its rows at once, through the transpose node
        ((dc.linear(dc.Tensor(x), w) * dc.Tensor(p)).sum()
         + (dc.linear(dc.Tensor(a), dc.transpose(w)) * dc.Tensor(q)).sum()
         + (dc.transpose(w) * dc.Tensor(q[:1].T @ p[None])).sum()
         + (dc.embedding_lookup(w, [1, 1]) * dc.Tensor(q)).sum()).backward()
        want = np.outer(p, x) + a.T @ q + p[:, None] @ q[:1]
        want[1] += q.sum(axis=0)
        assert_close_relative(w.grad, want)

    def test_non_leaf_left_operand(self):
        rng = np.random.default_rng(33)
        a = param(rng, 3, 4)
        x1, x2 = param(rng, 4), param(rng, 4)
        p = dc.Tensor(rng.normal(size=3))
        assert dc.grad_check(lambda: ((dc.linear(x1, dc.tanh(a)) + dc.linear(x2, dc.tanh(a)))
                                      * p).sum(), [a, x1, x2]) < 1e-6
        # a leaf or non-leaf a applied to a vector or to a block of rows: g^T b, exactly
        for b_shape in ((4,), (5, 4)):
            b = param(rng, *b_shape)
            g = rng.normal(size=b_shape[:-1] + (3,))
            for left in (a, dc.tanh(a)):
                left.grad = b.grad = None
                (dc.linear(b, left) * dc.Tensor(g)).sum().backward()
                want = np.outer(g, b.data) if b.data.ndim == 1 else g.T @ b.data
                assert np.array_equal(left.grad, want)
                assert np.array_equal(b.grad, (left.data.T @ g.T).T)

    def test_failed_backward_leaks_no_rows(self, monkeypatch):
        rng = np.random.default_rng(34)
        w, u = param(rng, 3, 4), param(rng, 4)
        p = rng.normal(size=3)

        def loss():
            x = dc.tanh(u)
            return x, (dc.linear(x, w) * dc.Tensor(p)).sum()

        x, failing = loss()

        def boom(g):
            raise RuntimeError("backprop failed")

        monkeypatch.setattr(x, "_backprop", boom)
        with pytest.raises(RuntimeError):
            failing.backward()
        assert not dc._PENDING
        w.grad = u.grad = None
        x, fine = loss()
        fine.backward()
        np.testing.assert_array_equal(w.grad, np.outer(p, x.data))


class TestGradCheck:
    def test_sum_gradient_is_ones(self):
        x = dc.Tensor(np.arange(5.0), requires_grad=True)
        err = dc.grad_check(lambda: x.sum(), [x])
        assert err < 1e-10
        x.grad = None
        loss = x.sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, np.ones(5))

    def test_constant_function(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        c = dc.Tensor(np.ones(()))
        err = dc.grad_check(lambda: c * 1.0, [x])
        assert err == 0.0

    def test_each_op(self, monkeypatch):
        rng = np.random.default_rng(7)
        a, b = param(rng, 3, 4), param(rng, 2, 4)
        m = dc.Tensor(rng.normal(size=(2, 3)))
        assert dc.grad_check(lambda: (dc.linear(b, a) * m).sum(), [a, b]) < 1e-6

        w, x = param(rng, 3, 4), param(rng, 4)
        v = dc.Tensor(rng.normal(size=3))
        assert dc.grad_check(lambda: (dc.linear(x, w) * v).sum(), [w, x]) < 1e-6

        t = param(rng, 6)
        probe = dc.Tensor(rng.normal(size=6))
        assert dc.grad_check(lambda: (dc.softmax(t) * probe).sum(), [t]) < 1e-6
        assert dc.grad_check(lambda: (dc.sigmoid(t) * probe).sum(), [t]) < 1e-6
        assert dc.grad_check(lambda: (dc.tanh(t) * probe).sum(), [t]) < 1e-6
        assert dc.grad_check(lambda: dc.cross_entropy(t, 2), [t]) < 1e-6

        pr = dc.Tensor(np.abs(rng.normal(size=4)) + 0.5, requires_grad=True)
        assert dc.grad_check(lambda: dc.cross_entropy(pr, 1, from_logits=False), [pr]) < 1e-6

        c1, c2 = param(rng, 3), param(rng, 4)
        probe7 = dc.Tensor(rng.normal(size=7))
        assert dc.grad_check(lambda: (dc.concat([c1, c2]) * probe7).sum(), [c1, c2]) < 1e-6

        tab = param(rng, 5, 3)
        probe3 = dc.Tensor(rng.normal(size=(2, 3)))
        assert dc.grad_check(
            lambda: (dc.embedding_lookup(tab, [1, 1]) * probe3).sum(), [tab]) < 1e-6

        # generate logits shorter than size, and copy positions that share an index
        gen, switch, scores = param(rng, 2), param(rng, 1), param(rng, 5)
        probe4 = dc.Tensor(rng.normal(size=4))
        idx = np.array([0, 3, 3, 2, 0])
        assert dc.grad_check(lambda: (dc.copy_mixture(gen, switch, scores, idx, 4)
                                      * probe4).sum(), [gen, switch, scores]) < 1e-6

        # the three sums of a gated fusion at d=5, two terms in the first
        sides = [random_affine(rng, terms, 0, d=5) for terms in (2, 1, 1)]
        gx, gt = param(rng, 5), param(rng, 5)
        probe5 = dc.Tensor(rng.normal(size=5))
        leaves = [gx, gt] + [t for ws, xs, b in sides for t in (*ws, *xs, b)]
        assert dc.grad_check(lambda: (dc.gated_fusion(sides, gx, gt) * probe5).sum(),
                             leaves) < 1e-6

        # a Python number operand is a 0-d constant: one node, numpy's values exactly
        made = []
        real = dc._make
        monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
        g = rng.normal(size=6)
        for op, value, grad in ((lambda: t + 0.3, t.data + 0.3, g),
                                (lambda: 0.3 + t, 0.3 + t.data, g),
                                (lambda: t * 0.3, t.data * 0.3, g * 0.3),
                                (lambda: 0.3 * t, 0.3 * t.data, 0.3 * g)):
            made.clear()
            out = op()
            assert len(made) == 1 and np.array_equal(out.data, value)
            t.grad = None
            (out * dc.Tensor(g)).sum().backward()
            assert np.array_equal(t.grad, grad)

    def test_non_finite_loss_rejected(self):
        x = dc.Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(TypedescError):
            dc.grad_check(lambda: (x * float("inf")).sum(), [x])


class TestBackwardLinearity:
    def test_sum_of_losses_equals_sum_of_backwards(self):
        rng = np.random.default_rng(2)
        w = param(rng, 4, 4)
        x1 = dc.Tensor(rng.normal(size=4))
        x2 = dc.Tensor(rng.normal(size=4))

        def loss(x):
            return (dc.tanh(dc.linear(x, w)) * dc.Tensor(np.ones(4))).sum()

        w.grad = None
        dc.add_n([loss(x1), loss(x2)]).backward()
        joint = w.grad.copy()

        w.grad = None
        loss(x1).backward()
        g1 = w.grad.copy()
        w.grad = None
        loss(x2).backward()
        g2 = w.grad.copy()
        np.testing.assert_allclose(joint, g1 + g2, atol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = dc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = adam({"p": p}, 0.1)
        for _ in range(5):
            p.grad = np.zeros(2)
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, 2.0])

    def test_first_step_hand_value(self):
        # m_hat = g, v_hat = g^2 after bias correction: step = -lr * 1/(1 + eps)
        p = dc.Tensor(np.array([0.0]), requires_grad=True)
        opt = adam({"p": p}, 0.001)
        p.grad = np.array([1.0])
        opt.step()
        assert abs(p.data[0] + 0.001) < 1e-9

    def test_constant_gradient_step_magnitude_is_lr(self):
        p = dc.Tensor(np.array([0.0]), requires_grad=True)
        opt = adam({"p": p}, 0.01)
        prev = p.data[0]
        for _ in range(50):
            p.grad = np.array([2.5])
            opt.step()
            assert abs(abs(p.data[0] - prev) - 0.01) < 1e-6
            prev = p.data[0]

    def test_non_finite_gradient_rejected(self):
        p = dc.Tensor(np.array([0.0]), requires_grad=True)
        opt = adam({"p": p}, TRAIN.lr)
        p.grad = np.array([np.nan])
        with pytest.raises(TypedescError, match="p"):
            opt.step()

    def test_non_finite_gradient_moves_no_parameter(self):
        # 1e200 is finite, but its square overflows the sum of squares; two
        # entries of 1e154 square to about 1e308 each, and only their total overflows
        for first_g, last_g in ((1.0, np.inf), (1.0, 1e200), (1e154, 1e154)):
            first = dc.Tensor(np.array([1.0]), requires_grad=True)
            last = dc.Tensor(np.array([2.0]), requires_grad=True)
            opt = adam({"first": first, "last": last}, 0.1)
            first.grad, last.grad = np.array([first_g]), np.array([last_g])
            with pytest.raises(TypedescError, match="last"):
                opt.step()
            assert (first.data[0], last.data[0], opt.t) == (1.0, 2.0, 0)
            np.testing.assert_array_equal(opt.m["first"], [0.0])


    def test_in_place_update_is_the_textbook_formula(self):
        rng = np.random.default_rng(40)
        shapes = {"scalar": (), "vector": (3,), "matrix": (2, 4), "row": (1, 5),
                  # more than two slices with a remainder; rows cross slice edges
                  "chunked": (2, dc._ADAM_CHUNK + 3), "transposed": (4, 3)}
        params = {n: param(rng, *shape) for n, shape in shapes.items()}
        # not C-contiguous: its flattened view is a copy the update must write back
        params["transposed"] = dc.Tensor(rng.normal(size=(3, 4)).T, requires_grad=True)
        data = params["transposed"].data
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = dc.Adam(params, lr, b1, b2, eps)
        assert all(opt.m[n].flags.c_contiguous and opt.v[n].flags.c_contiguous
                   for n in params)
        want = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(shape) for n, shape in shapes.items()}
        v = {n: np.zeros(shape) for n, shape in shapes.items()}
        for t in range(1, 6):
            for n, p in params.items():
                if (n, t) in {("matrix", 3), ("chunked", 2)}:
                    p.grad = None
                elif n == "transposed":
                    p.grad = rng.normal(size=shapes[n][::-1]).T
                else:
                    p.grad = rng.normal(size=shapes[n])
                g = np.zeros(shapes[n]) if p.grad is None else p.grad
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                m_hat = m[n] / (1.0 - b1 ** t)
                v_hat = v[n] / (1.0 - b2 ** t)
                want[n] = want[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step()
            for n, p in params.items():
                assert np.array_equal(p.data, want[n])
                assert np.array_equal(opt.m[n], m[n])
                assert np.array_equal(opt.v[n], v[n])
        assert params["transposed"].data is data

    def test_step_allocates_less_than_a_parameter(self):
        p = dc.Tensor(np.zeros(1_000_000), requires_grad=True)
        opt = adam({"p": p}, TRAIN.lr)
        p.grad = np.random.default_rng(41).normal(size=p.data.shape)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes
        # the finiteness check included: no temporary as large as a gradient
        assert peak < 100_000

    def test_construction_allocates_the_moments_and_cache_sized_scratch(self):
        p = dc.Tensor(np.zeros(1_000_000), requires_grad=True)
        tracemalloc.start()
        try:
            adam({"p": p}, TRAIN.lr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * p.data.nbytes


class TestClip:
    def test_scales_to_max_norm(self):
        a = dc.Tensor(np.zeros(3), requires_grad=True)
        a.grad = np.array([3.0, 4.0, 0.0])
        norm = dc.clip_gradients({"a": a}, 1.0)
        assert abs(norm - 5.0) < 1e-12
        np.testing.assert_allclose(a.grad, [0.6, 0.8, 0.0])

    def test_below_threshold_untouched(self):
        a = dc.Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        dc.clip_gradients({"a": a}, 1.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])

    def test_allocates_less_than_a_gradient(self):
        a = dc.Tensor(np.zeros(1_000_000), requires_grad=True)
        a.grad = np.random.default_rng(42).normal(size=a.data.shape)
        tracemalloc.start()
        try:
            norm = dc.clip_gradients({"a": a}, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm > 1.0 and abs(np.linalg.norm(a.grad) - 1.0) < 1e-12
        assert peak < a.grad.nbytes

    def test_global_norm_is_the_root_sum_of_squares(self):
        rng = np.random.default_rng(43)
        grads = {"scalar": np.array(-1.7), "vector": rng.normal(size=1000),
                 "transposed": rng.normal(size=(5, 3)).T}
        params = {n: dc.Tensor(np.zeros(g.shape), requires_grad=True)
                  for n, g in grads.items()}
        params["no_grad"] = dc.Tensor(np.zeros(2), requires_grad=True)
        for n, g in grads.items():
            params[n].grad = g
            alone = dc.clip_gradients({n: params[n]}, math.inf)
            assert abs(alone - np.sqrt(np.sum(g * g))) <= 1e-15 * alone
        want = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
        assert abs(dc.clip_gradients(params, math.inf) - want) <= 1e-15 * want


class TestNoGrad:
    def test_inference_builds_no_graph(self):
        w = dc.Tensor(np.ones((2, 2)), requires_grad=True)
        with dc.no_grad():
            out = dc.linear(dc.Tensor(np.ones(2)), w)
        assert out._parents == ()
        assert not out.requires_grad


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A scratch path, the bytes of a saved 3-parameter checkpoint, and tensors that fit it."""
    rng = np.random.default_rng(5)
    model = {"a.w": param(rng, 2, 2), "a.b": param(rng, 2), "c": param(rng)}
    path = tmp_path_factory.mktemp("checkpoint") / "model.bin"
    dc.save_checkpoint(path, model)
    return path, path.read_bytes(), model


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        params = {"layer.w": param(rng, 3, 2), "layer.b": param(rng, 2)}
        path = tmp_path / "model.bin"
        dc.save_checkpoint(path, params)
        loaded = dc.load_checkpoint(path)
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].requires_grad

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "model.bin"
        dc.save_checkpoint(path, {"w": dc.Tensor(np.zeros(2), requires_grad=True)})
        raw = bytearray(path.read_bytes())
        raw[4] = 99  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(TypedescError, match="99"):
            dc.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TypedescError, match="not a typedesc checkpoint"):
            dc.load_checkpoint(path)

    def test_every_strict_prefix_rejected(self, small_vocabs, tmp_path):
        model = TwoStageModel.build(ModelDims(d_h=1, d_word=1, d_prop=1, d_pos=1),
                                    small_vocabs, seed=0)
        path = tmp_path / "model.bin"
        dc.save_checkpoint(path, model.params)
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            reason = "not a typedesc checkpoint" if n < 4 else "checkpoint is truncated"
            with pytest.raises(TypedescError, match=reason):
                dc.load_checkpoint(cut)

    @settings(derandomize=True, database=None, max_examples=800)
    @given(data=st.data())
    def test_one_changed_byte_loads_or_is_a_checkpoint_error(self, small_checkpoint, data):
        path, raw, model = small_checkpoint
        at = data.draw(st.integers(0, len(raw)), label="offset")
        byte = data.draw(st.integers(0, 255), label="byte")
        if at < len(raw) and data.draw(st.booleans(), label="overwrite"):
            path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
        else:
            path.write_bytes(raw[:at] + bytes([byte]) + raw[at:])
        for into in (None, model):
            try:
                dc.load_checkpoint(path, into=into)
            except TypedescError as exc:
                assert str(exc).startswith(f"{path}: ")

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "model.bin"
        dc.save_checkpoint(path, {"w": dc.Tensor(np.ones(2), requires_grad=True)})
        before = path.read_bytes()
        # the second name is too long for its 16-bit length field, so the write
        # fails after the first parameter
        params = {"w": dc.Tensor(np.zeros(2), requires_grad=True),
                  "x" * 70000: dc.Tensor(np.zeros(1), requires_grad=True)}
        with pytest.raises(struct.error):
            dc.save_checkpoint(path, params)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        dc.save_checkpoint(path, {"w": dc.Tensor(np.zeros(2), requires_grad=True)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TypedescError, match="trailing"):
            dc.load_checkpoint(path)
