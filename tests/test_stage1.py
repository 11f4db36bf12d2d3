import math

import numpy as np
import pytest

from typedesc import diffcore as dc
from typedesc import stage1
from typedesc.corpus import SourceToken, build_vocabs, reconstruct_infobox
from typedesc.errors import TypedescError
from typedesc.lexicon import BOS, HED
from typedesc.config import RunConfig
from typedesc.trainer import TrainConfig, TwoStageModel
from test_diffcore import assert_close_relative, grads_of, linear


@pytest.fixture(scope="module")
def setup(rue_cazotte, tiny_dims):
    vocabs = build_vocabs([rue_cazotte], 64, 64, max_position=4)
    model = TwoStageModel.build(tiny_dims, vocabs, seed=2)
    return rue_cazotte, vocabs, model


class TestEncodeInfobox:
    def test_single_token(self, setup):
        ent, vocabs, model = setup
        enc = stage1.encode_infobox([SourceToken("street", "instance_of", 0)],
                                    vocabs, model.params)
        assert enc.states.shape == (1, model.dims.d_h)

    def test_state_count_matches_value_tokens(self, setup):
        ent, vocabs, model = setup
        source = reconstruct_infobox(ent, vocabs.position_count)
        expected = sum(len(v.split()) for _, _, v in ent.statements)
        enc = stage1.encode_infobox(source, vocabs, model.params)
        assert len(source) == expected
        assert enc.states.shape == (expected, model.dims.d_h)

    def test_zero_params_zero_states(self, setup, tiny_dims):
        ent, vocabs, model = setup
        zero = TwoStageModel.build(tiny_dims, vocabs, seed=0)
        for p in zero.params.values():
            p.data[:] = 0.0
        source = reconstruct_infobox(ent, vocabs.position_count)
        enc = stage1.encode_infobox(source, vocabs, zero.params)
        np.testing.assert_allclose(enc.states.data, 0.0, atol=1e-15)

    def test_empty_rejected(self, setup):
        _, vocabs, model = setup
        with pytest.raises(TypedescError):
            stage1.encode_infobox([], vocabs, model.params)

    def test_shared_states_unchanged_by_later_stages(self, setup):
        ent, vocabs, model = setup
        source, enc = model.encode_entity(ent)
        before = enc.states.data.copy()
        model.joint_loss(ent)
        model.generate(ent, max_template_len=4, max_description_len=4)
        np.testing.assert_array_equal(enc.states.data, before)


class TestAttendGeneral:
    def test_single_state_is_identity(self):
        h = dc.Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        s = dc.Tensor(np.array([0.3, -0.1, 0.5]))
        w = dc.Tensor(np.eye(3), requires_grad=True)
        context, alpha = stage1.attend_general(h, s, w)
        np.testing.assert_allclose(alpha.data, [1.0])
        np.testing.assert_allclose(context.data, h.data[0])

    def test_zero_scores_give_uniform_mean(self):
        states = dc.Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        s = dc.Tensor(np.array([2.0, -1.0]))
        w = dc.Tensor(np.zeros((2, 2)))
        context, alpha = stage1.attend_general(states, s, w)
        np.testing.assert_allclose(alpha.data, np.ones(3) / 3)
        np.testing.assert_allclose(context.data, states.data.mean(axis=0))

    def test_hand_computed_two_state_softmax(self):
        # scores are (1, 0): alpha = (e/(e+1), 1/(e+1))
        states = dc.Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        s = dc.Tensor(np.array([1.0, 0.0]))
        w = dc.Tensor(np.eye(2))
        _, alpha = stage1.attend_general(states, s, w)
        e = math.e
        np.testing.assert_allclose(alpha.data, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_weights_normalized_under_fuzz(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            L = rng.integers(1, 6)
            d = rng.integers(1, 5)
            states = dc.Tensor(rng.normal(size=(L, d)) * 3)
            s = dc.Tensor(rng.normal(size=d) * 3)
            w = dc.Tensor(rng.normal(size=(d, d)) * 3)
            _, alpha = stage1.attend_general(states, s, w)
            assert abs(alpha.data.sum() - 1.0) < 1e-9
            assert np.all(alpha.data >= 0)


def _unfused_attend_general(states, s_prev, w):
    """Reference attention: product, softmax and transpose nodes, one node per op."""
    alpha = dc.softmax(linear(linear(s_prev, w), states))
    return linear(alpha, dc.transpose(states)), alpha


class TestFusedAttention:
    """attend_general is the product/softmax/transpose chain it replaces, as one node."""

    def inputs(self, seed, rows, d=5, length=4):
        rng = np.random.default_rng(seed)

        def t(*shape):
            return dc.Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)

        s_prev = t(rows, d) if rows else t(d)
        probe = dc.Tensor(rng.normal(size=s_prev.shape))
        return t(length, d), s_prev, t(d, d), probe

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_matches_the_unfused_chain(self, rows):
        states, s_prev, w, probe = self.inputs(70 + rows, rows)
        context, alpha = stage1.attend_general(states, s_prev, w)
        ref_context, ref_alpha = _unfused_attend_general(states, s_prev, w)
        assert np.array_equal(context.data, ref_context.data)
        assert np.array_equal(alpha.data, ref_alpha.data)
        assert not alpha.requires_grad
        parents = [states, s_prev, w]
        got = grads_of(lambda: (stage1.attend_general(states, s_prev, w)[0] * probe).sum(),
                       parents)
        want = grads_of(lambda: (_unfused_attend_general(states, s_prev, w)[0] * probe).sum(),
                        parents)
        for g, r in zip(got, want):
            assert_close_relative(g, r)

    @pytest.mark.parametrize("rows", [0, 3])
    def test_gradients_match_finite_differences(self, rows):
        states, s_prev, w, probe = self.inputs(80 + rows, rows)
        err = dc.grad_check(lambda: (stage1.attend_general(states, s_prev, w)[0]
                                     * probe).sum(), [states, s_prev, w])
        assert err < 1e-6

    def test_each_call_is_one_node(self, monkeypatch):
        states, s_prev, w, _ = self.inputs(90, 2)
        made = []
        real = dc._make
        monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
        stage1.attend_general(states, s_prev, w)
        assert len(made) == 1


class TestDecodeStep:
    def test_distribution_sums_to_one(self, setup):
        ent, vocabs, model = setup
        source, enc = model.encode_entity(ent)
        s0 = stage1.init_decoder_state(enc.final, model.params)
        probs, s1_state = stage1.decode_template_step(
            vocabs.template_vocab[BOS], s0, enc, model.params)
        assert abs(probs.data.sum() - 1.0) < 1e-9
        assert s1_state.shape == (model.dims.d_h,)

    def test_zero_params_give_zero_init_state(self, setup, tiny_dims):
        ent, vocabs, model = setup
        zero = TwoStageModel.build(tiny_dims, vocabs, seed=0)
        for p in zero.params.values():
            p.data[:] = 0.0
        source, enc = zero.encode_entity(ent)
        s0 = stage1.init_decoder_state(enc.final, zero.params)
        np.testing.assert_allclose(s0.data, 0.0, atol=1e-15)


class TestDecodeStepRows:
    """An id array and a block of rows take the vector step's code row by row."""

    def states(self, model, enc, count):
        s0 = stage1.init_decoder_state(enc.final, model.params).data
        rng = np.random.default_rng(12)
        return [s0] + [np.tanh(s0 + rng.normal(0.0, 0.5, s0.shape)) for _ in range(count - 1)]

    def test_one_row_block_is_the_vector_call_bitwise(self, setup):
        ent, vocabs, model = setup
        _, enc = model.encode_entity(ent)
        (s0,) = self.states(model, enc, 1)
        prev = vocabs.template_vocab[BOS]
        probs, s_next = stage1.decode_template_step(prev, dc.Tensor(s0), enc, model.params)
        rows, s_rows = stage1.decode_template_step(np.array([prev]), dc.Tensor(s0[None]), enc,
                                                   model.params)
        assert np.array_equal(rows.data[0], probs.data)
        assert np.array_equal(s_rows.data[0], s_next.data)

    def test_block_rows_match_vector_calls(self, setup):
        ent, vocabs, model = setup
        _, enc = model.encode_entity(ent)
        states = self.states(model, enc, 3)
        ids = [vocabs.template_vocab[BOS], vocabs.template_vocab[HED], 5]
        rows, s_rows = stage1.decode_template_step(np.array(ids), dc.Tensor(np.stack(states)),
                                                   enc, model.params)
        for i, (prev, state) in enumerate(zip(ids, states)):
            probs, s_next = stage1.decode_template_step(prev, dc.Tensor(state), enc,
                                                        model.params)
            np.testing.assert_allclose(rows.data[i], probs.data, rtol=1e-12, atol=0)
            np.testing.assert_allclose(s_rows.data[i], s_next.data, rtol=1e-12, atol=0)


class TestGenerateTemplate:
    def test_max_len_one(self, setup):
        ent, vocabs, model = setup
        _, enc = model.encode_entity(ent)
        (tokens,) = stage1.generate_template([enc], vocabs, model.params, 1, "greedy", 1)
        assert len(tokens) <= 1

    def test_beam_one_equals_greedy(self, setup):
        ent, vocabs, model = setup
        _, enc = model.encode_entity(ent)
        (greedy,) = stage1.generate_template([enc], vocabs, model.params, 8, "greedy", 1)
        (beam,) = stage1.generate_template([enc], vocabs, model.params, 8, "beam", 1)
        assert greedy == beam

    def test_unknown_mode_rejected(self, setup):
        ent, vocabs, model = setup
        _, enc = model.encode_entity(ent)
        with pytest.raises(TypedescError):
            stage1.generate_template([enc], vocabs, model.params,
                                     RunConfig().max_template_len, "magic", 1)


class TestOverfitSanity:
    def test_loss_strictly_decreases_for_twenty_steps(self, setup, tiny_dims):
        ent, vocabs, _ = setup
        model = TwoStageModel.build(tiny_dims, vocabs, seed=4)
        cfg = TrainConfig()
        opt = dc.Adam(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        template = model.gold_template(ent)
        losses = []
        for _ in range(21):
            _, enc = model.encode_entity(ent)
            loss = stage1.template_nll(enc, template, vocabs, model.params)
            losses.append(loss.item())
            opt.zero_grads()
            loss.backward()
            opt.step()
        for before, after in zip(losses, losses[1:]):
            assert after < before
