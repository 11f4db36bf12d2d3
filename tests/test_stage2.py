import numpy as np
import pytest

from typedesc import diffcore as dc
from typedesc import stage1, stage2
from typedesc.corpus import SourceToken, build_vocabs
from typedesc.errors import TypedescError
from typedesc.lexicon import HED, MOD, UNK
from typedesc.trainer import TwoStageModel


@pytest.fixture(scope="module")
def setup(rue_cazotte, tiny_dims):
    vocabs = build_vocabs([rue_cazotte], 64, 64, max_position=4)
    model = TwoStageModel.build(tiny_dims, vocabs, seed=6)
    return rue_cazotte, vocabs, model


def zero_model(vocabs, dims):
    model = TwoStageModel.build(dims, vocabs, seed=0)
    for p in model.params.values():
        p.data[:] = 0.0
    return model


class TestEncodeTemplate:
    def test_length_one(self, setup):
        _, vocabs, model = setup
        enc = stage2.encode_template([HED], vocabs, model.params)
        assert enc.states.shape == (1, model.dims.d_h)

    def test_empty_rejected(self, setup):
        _, vocabs, model = setup
        with pytest.raises(TypedescError):
            stage2.encode_template([], vocabs, model.params)

    def test_zero_params_zero_states(self, setup, tiny_dims):
        _, vocabs, _ = setup
        model = zero_model(vocabs, tiny_dims)
        enc = stage2.encode_template([HED, "in", MOD], vocabs, model.params)
        np.testing.assert_allclose(enc.states.data, 0.0, atol=1e-15)

    def test_tied_directions_mirror_reversed_input(self, setup):
        # with forward/backward GRUs tied and the projection halves tied,
        # encoding the reversed template must reverse the encoded states
        _, vocabs, model = setup
        p = dict(model.params)
        for gate in ("z", "r", "h"):
            for kind in ("w", "u", "b"):
                p[f"s2.bw.{kind}{gate}"] = p[f"s2.fw.{kind}{gate}"]
        d_h = model.dims.d_h
        half = p["s2.proj.w"].data[:, :d_h]
        p["s2.proj.w"] = dc.Tensor(np.concatenate([half, half], axis=1),
                                   requires_grad=True)
        template = [HED, "in", MOD, ",", MOD]
        fwd = stage2.encode_template(template, vocabs, p)
        rev = stage2.encode_template(template[::-1], vocabs, p)
        np.testing.assert_allclose(rev.states.data, fwd.states.data[::-1], atol=1e-12)


class TestContextGates:
    def test_zero_params_give_half(self, setup, tiny_dims):
        _, vocabs, _ = setup
        model = zero_model(vocabs, tiny_dims)
        d = tiny_dims.d_h
        args = [dc.zeros(tiny_dims.d_word), dc.zeros(d), dc.zeros(d), dc.zeros(d)]
        g_x, g_t = stage2.context_gates(*args, model.params)
        np.testing.assert_allclose(g_x.data, 0.5)
        np.testing.assert_allclose(g_t.data, 0.5)

    def test_large_bias_saturates(self, setup, tiny_dims):
        _, vocabs, _ = setup
        model = zero_model(vocabs, tiny_dims)
        model.params["s2.gate_x.b"].data[:] = 60.0
        d = tiny_dims.d_h
        args = [dc.zeros(tiny_dims.d_word), dc.zeros(d), dc.zeros(d), dc.zeros(d)]
        g_x, _ = stage2.context_gates(*args, model.params)
        assert np.all(g_x.data > 1.0 - 1e-12)

    def test_strictly_inside_unit_interval(self, setup):
        _, vocabs, model = setup
        rng = np.random.default_rng(0)
        d, dw = model.dims.d_h, model.dims.d_word
        for _ in range(50):
            g_x, g_t = stage2.context_gates(
                dc.Tensor(rng.normal(size=dw) * 4), dc.Tensor(rng.normal(size=d) * 4),
                dc.Tensor(rng.normal(size=d) * 4), dc.Tensor(rng.normal(size=d) * 4),
                model.params)
            for g in (g_x, g_t):
                assert np.all(g.data > 0.0)
                assert np.all(g.data < 1.0)


class TestFuseContexts:
    def test_zero_params_zero_context(self, setup, tiny_dims):
        _, vocabs, _ = setup
        model = zero_model(vocabs, tiny_dims)
        d, dw = tiny_dims.d_h, tiny_dims.d_word
        g = dc.Tensor(np.full(d, 0.5))
        out = stage2.fuse_contexts(dc.zeros(dw), dc.zeros(d), dc.zeros(d), dc.zeros(d),
                                   g, g, model.params)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_gate_limits_follow_interpolation_formula(self, setup):
        # g_x -> 1, g_t -> 0 zeroes the (1 - g_x - g_t) coefficient, leaving C1 cx
        _, vocabs, model = setup
        rng = np.random.default_rng(1)
        p = model.params
        d, dw = model.dims.d_h, model.dims.d_word
        e = dc.Tensor(rng.normal(size=dw))
        s = dc.Tensor(rng.normal(size=d))
        c_x = dc.Tensor(rng.normal(size=d))
        c_t = dc.Tensor(rng.normal(size=d))
        ones = dc.Tensor(np.ones(d))
        zeros = dc.Tensor(np.zeros(d))
        out = stage2.fuse_contexts(e, s, c_x, c_t, ones, zeros, p)
        expected = p["s2.fuse.c1"].data @ c_x.data + p["s2.fuse.c1_b"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_coefficient_goes_negative_when_both_gates_saturate(self, setup):
        # both gates at 1 give the literal -1 coefficient; no renormalization
        _, vocabs, model = setup
        rng = np.random.default_rng(8)
        p = model.params
        d, dw = model.dims.d_h, model.dims.d_word
        e = dc.Tensor(rng.normal(size=dw))
        s = dc.Tensor(rng.normal(size=d))
        c_x = dc.Tensor(rng.normal(size=d))
        c_t = dc.Tensor(rng.normal(size=d))
        ones = dc.Tensor(np.ones(d))
        out = stage2.fuse_contexts(e, s, c_x, c_t, ones, ones, p)
        target_side = p["s2.fuse.w"].data @ e.data + p["s2.fuse.u"].data @ s.data \
            + p["s2.fuse.b"].data
        expected = (-target_side
                    + p["s2.fuse.c1"].data @ c_x.data + p["s2.fuse.c1_b"].data
                    + p["s2.fuse.c2"].data @ c_t.data + p["s2.fuse.c2_b"].data)
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_both_gates_zero_keep_target_side_only(self, setup):
        _, vocabs, model = setup
        rng = np.random.default_rng(2)
        p = model.params
        d, dw = model.dims.d_h, model.dims.d_word
        e = dc.Tensor(rng.normal(size=dw))
        s = dc.Tensor(rng.normal(size=d))
        c_x = dc.Tensor(rng.normal(size=d))
        c_t = dc.Tensor(rng.normal(size=d))
        zeros = dc.Tensor(np.zeros(d))
        out = stage2.fuse_contexts(e, s, c_x, c_t, zeros, zeros, p)
        expected = p["s2.fuse.w"].data @ e.data + p["s2.fuse.u"].data @ s.data \
            + p["s2.fuse.b"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestExtendedVocab:
    def test_in_vocab_word_keeps_its_id(self, setup):
        _, vocabs, _ = setup
        source = [SourceToken("street", "instance_of", 0)]
        ext = stage2.ExtendedVocab(vocabs, source)
        assert ext.ext_id("street") == vocabs.target_vocab["street"]
        assert ext.size == ext.base_size

    def test_oov_words_get_fresh_ids(self, setup):
        _, vocabs, _ = setup
        source = [SourceToken("zzyzx", "p", 0), SourceToken("zzyzx", "p", 1),
                  SourceToken("qwaak", "p", 0)]
        ext = stage2.ExtendedVocab(vocabs, source)
        assert ext.size == ext.base_size + 2
        assert ext.ext_id("zzyzx") == ext.base_size
        assert ext.word(ext.base_size) == "zzyzx"
        assert ext.decoder_input_id(ext.base_size) == vocabs.target_vocab[UNK]


class TestCopyGenDistribution:
    def test_sums_to_one(self, setup):
        ent, vocabs, model = setup
        source, enc = model.encode_entity(ent)
        ext = stage2.ExtendedVocab(vocabs, source)
        rng = np.random.default_rng(3)
        d = model.dims.d_h
        s_j = dc.Tensor(rng.normal(size=d))
        c2 = dc.Tensor(rng.normal(size=d))
        dist = stage2.copy_gen_distribution(s_j, c2, enc.states, ext, model.params)
        assert abs(dist.data.sum() - 1.0) < 1e-9
        assert np.all(dist.data >= 0)

    def test_switch_forced_to_generate(self, setup):
        ent, vocabs, model = setup
        source, enc = model.encode_entity(ent)
        ext = stage2.ExtendedVocab(vocabs, source)
        p = model.params
        old = p["s2.switch.b2"].data.copy()
        p["s2.switch.b2"].data[:] = 60.0  # p(generate) ~ 1
        try:
            rng = np.random.default_rng(4)
            d = model.dims.d_h
            s_j = dc.Tensor(rng.normal(size=d))
            c2 = dc.Tensor(rng.normal(size=d))
            dist = stage2.copy_gen_distribution(s_j, c2, enc.states, ext, p)
            sc = np.concatenate([s_j.data, c2.data])
            logits = p["s2.gen.w"].data @ sc + p["s2.gen.b"].data
            ex = np.exp(logits - logits.max())
            np.testing.assert_allclose(dist.data[:ext.base_size], ex / ex.sum(), atol=1e-9)
            assert np.all(dist.data[ext.base_size:] < 1e-9)
        finally:
            p["s2.switch.b2"].data[:] = old

    def test_repeated_source_word_mass_is_summed(self, setup, tiny_dims):
        # source is (paris, paris): its copy mass is the sum of both positions
        ent, vocabs, model = setup
        source = [SourceToken("paris", "located_in", 0), SourceToken("paris", "located_in", 1)]
        enc = stage1.encode_infobox(source, vocabs, model.params)
        ext = stage2.ExtendedVocab(vocabs, source)
        rng = np.random.default_rng(6)
        d = model.dims.d_h
        s_j = dc.Tensor(rng.normal(size=d))
        c2 = dc.Tensor(rng.normal(size=d))
        dist = stage2.copy_gen_distribution(s_j, c2, enc.states, ext, model.params)
        p = model.params
        sc = np.concatenate([s_j.data, c2.data])
        hidden = np.tanh(p["s2.switch.w1"].data @ sc + p["s2.switch.b1"].data)
        from_mlp = p["s2.switch.w2"].data @ hidden + p["s2.switch.b2"].data
        p_gen_switch = 1.0 / (1.0 + np.exp(-from_mlp[0]))
        scores = np.tanh(enc.states.data @ p["s2.copy.w"].data + p["s2.copy.b"].data) @ s_j.data
        q = np.exp(scores - scores.max())
        q = q / q.sum()
        paris = vocabs.target_vocab["paris"]
        gen_logits = p["s2.gen.w"].data @ sc + p["s2.gen.b"].data
        egl = np.exp(gen_logits - gen_logits.max())
        gen_probs = egl / egl.sum()
        expected = p_gen_switch * gen_probs[paris] + (1 - p_gen_switch) * (q[0] + q[1])
        np.testing.assert_allclose(dist.data[paris], expected, atol=1e-12)

    def test_gradients_match_finite_differences(self, setup, tiny_dims):
        ent, vocabs, _ = setup
        model = TwoStageModel.build(tiny_dims, vocabs, seed=8)
        rng = np.random.default_rng(9)
        for p in model.params.values():
            p.data = rng.normal(0.0, 0.4, size=p.data.shape)
        template = model.gold_template(ent)

        def loss():
            source, enc = model.encode_entity(ent)
            template_enc = stage2.encode_template(template, vocabs, model.params)
            ext = stage2.ExtendedVocab(vocabs, source)
            s0 = stage2.init_description_state(enc.final, template_enc.final, model.params)
            dist, _ = stage2.description_step(vocabs.target_vocab["street"], s0, enc,
                                              template_enc, ext, model.params)
            return dc.cross_entropy(dist, ext.ext_id("paris"), from_logits=False)

        err = dc.grad_check(loss, list(model.params.values()))
        assert err < 1e-4


class TestDecodeDescription:
    def test_max_len_one(self, setup):
        ent, vocabs, model = setup
        source, enc = model.encode_entity(ent)
        template_enc = stage2.encode_template([HED], vocabs, model.params)
        ext = stage2.ExtendedVocab(vocabs, source)
        out = stage2.decode_description(enc, template_enc, ext, model.params,
                                        1, "greedy", 1)
        assert len(out) <= 1

    def test_beam_one_equals_greedy(self, setup):
        ent, vocabs, model = setup
        source, enc = model.encode_entity(ent)
        template_enc = stage2.encode_template([HED, "in", MOD], vocabs, model.params)
        ext = stage2.ExtendedVocab(vocabs, source)
        greedy = stage2.decode_description(enc, template_enc, ext, model.params,
                                           6, "greedy", 1)
        beamed = stage2.decode_description(enc, template_enc, ext, model.params,
                                           6, "beam", 1)
        assert greedy == beamed
