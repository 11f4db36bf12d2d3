import json
import math

import numpy as np
import pytest

import synthdata
from typedesc import diffcore as dc
from typedesc import stage1, stage2, trainer
from typedesc.corpus import DatasetSplit, Entity, load_jsonl, write_jsonl
from typedesc.errors import TrainingDiverged, TypedescError
from typedesc.lexicon import EOS, UNK
from typedesc.trainer import TrainConfig, TwoStageModel, train


@pytest.fixture(scope="module")
def corpus(small_corpus, small_vocabs, tiny_dims):
    return small_corpus, small_vocabs, tiny_dims


class TestJointLoss:
    def test_is_sum_of_stage_losses(self, corpus):
        ents, vocabs, dims = corpus
        model = TwoStageModel.build(dims, vocabs, seed=1)
        ent = ents[0]
        template = model.gold_template(ent)
        total = model.joint_loss(ent).item()

        source, enc = model.encode_entity(ent)
        l1 = stage1.template_nll(enc, template, vocabs, model.params).item()
        template_enc = stage2.encode_template(template, vocabs, model.params)
        ext = stage2.ExtendedVocab(vocabs, source)
        l2 = stage2.description_nll(enc, template_enc, ent.description_tokens, ext,
                                    model.params).item()
        assert abs(total - (l1 + l2)) < 1e-12

    def test_zero_params_give_uniform_nll(self, corpus):
        # all-zero parameters force uniform distributions: per-token template loss
        # is ln(template vocab) and description loss is ln(2 * target vocab)
        # because the copy switch sits at one half
        ents, vocabs, dims = corpus
        model = TwoStageModel.build(dims, vocabs, seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        ent = ents[0]
        template = model.gold_template(ent)
        source, enc = model.encode_entity(ent)
        l1 = stage1.template_nll(enc, template, vocabs, model.params).item()
        expected_l1 = (len(template) + 1) * math.log(len(vocabs.template_vocab))
        assert abs(l1 - expected_l1) < 1e-9

        template_enc = stage2.encode_template(template, vocabs, model.params)
        ext = stage2.ExtendedVocab(vocabs, source)
        gold = ent.description_tokens
        in_vocab = [t for t in gold + [EOS]
                    if t in vocabs.target_vocab and ext.ext_id(t) < ext.base_size]
        assert len(in_vocab) == len(gold) + 1  # corpus words all in target vocab
        l2 = stage2.description_nll(enc, template_enc, gold, ext, model.params).item()
        n = len(vocabs.target_vocab)
        per_token = []
        for tok in gold + [EOS]:
            mass = 0.5 / n
            if any(s.word == tok for s in source):
                positions = sum(1 for s in source if s.word == tok)
                mass += 0.5 * positions / len(source)
            per_token.append(-math.log(mass))
        assert abs(l2 - sum(per_token)) < 1e-9

    def test_matches_step_accumulated_log_probs(self, corpus):
        # oracle: replay the decoder steps, accumulate -log p by hand
        ents, vocabs, dims = corpus
        model = TwoStageModel.build(dims, vocabs, seed=3)
        ent = ents[1]
        template = model.gold_template(ent)
        source, enc = model.encode_entity(ent)

        s = stage1.init_decoder_state(enc.final, model.params)
        prev = vocabs.template_vocab["<bos>"]
        total = 0.0
        for tok in template + [EOS]:
            target = vocabs.template_id(tok)
            probs, s = stage1.decode_template_step(prev, s, enc, model.params)
            total += -math.log(probs.data[target])
            prev = target

        template_enc = stage2.encode_template(template, vocabs, model.params)
        ext = stage2.ExtendedVocab(vocabs, source)
        s = stage2.init_description_state(enc.final, template_enc.final, model.params)
        prev = vocabs.target_vocab["<bos>"]
        for tok in ent.description_tokens + [EOS]:
            dist, s = stage2.description_step(prev, s, enc, template_enc, ext,
                                              model.params)
            total += -math.log(dist.data[ext.ext_id(tok)])
            prev = vocabs.target_vocab.get(tok, vocabs.target_vocab[UNK])

        assert abs(model.joint_loss(ent).item() - total) < 1e-9

    def test_stored_template_key_is_ignored(self, corpus, tmp_path):
        # the annotator is the one source of gold templates
        ents, vocabs, dims = corpus
        model = TwoStageModel.build(dims, vocabs, seed=1)
        plain = tmp_path / "plain.jsonl"
        write_jsonl(plain, ents[:1])
        keyed = tmp_path / "keyed.jsonl"
        obj = {**json.loads(plain.read_text(encoding="utf-8")), "template": "$mod$ of the $hed$"}
        keyed.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        losses = [model.joint_loss(load_jsonl(path)[0]).item() for path in (plain, keyed)]
        assert losses[0] == losses[1]

    def test_finite_at_initialization(self, corpus):
        ents, vocabs, dims = corpus
        model = TwoStageModel.build(dims, vocabs, seed=5)
        for ent in ents:
            assert np.isfinite(model.joint_loss(ent).item())

    def test_stage1_only_loss_leaves_stage2_parameters(self, corpus):
        ents, vocabs, dims = corpus
        model = TwoStageModel.build(dims, vocabs, seed=7)
        cfg = TrainConfig()
        opt = dc.Adam(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        before = {n: p.data.copy() for n, p in model.params.items()}
        _, enc = model.encode_entity(ents[0])
        loss = stage1.template_nll(enc, model.gold_template(ents[0]), vocabs,
                                   model.params)
        opt.zero_grads()
        loss.backward()
        opt.step()
        for name, p in model.params.items():
            if name.startswith("s2."):
                np.testing.assert_array_equal(p.data, before[name])
        assert any(not np.array_equal(p.data, before[n])
                   for n, p in model.params.items() if n.startswith("s1."))


def test_joint_loss_node_count(monkeypatch):
    # every GRU call is one graph node; a GRU built from per-op nodes again
    # (1,030 nodes here) fails this bound
    from test_acceptance import micro_entity, micro_vocabs
    model = TwoStageModel.build(stage1.ModelDims(d_h=4, d_word=4, d_prop=3, d_pos=3),
                                micro_vocabs(), seed=0)
    made = []
    real = dc._make
    monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
    model.joint_loss(micro_entity())
    assert len(made) <= 474


def test_joint_loss_node_count_with_fused_affine_maps_and_attention(monkeypatch):
    # each affine sum and each attention is one graph node; building them from
    # linear, add, softmax and transpose nodes again (462 nodes here) fails this bound
    from test_acceptance import micro_entity, micro_vocabs
    model = TwoStageModel.build(stage1.ModelDims(d_h=4, d_word=4, d_prop=3, d_pos=3),
                                micro_vocabs(), seed=0)
    made = []
    real = dc._make
    monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
    model.joint_loss(micro_entity())
    assert len(made) <= 300


def test_joint_loss_node_count_with_fused_step_tail(monkeypatch):
    # the gated fusion and the copy/generate mixture are one node each, and the
    # copy keys are formed once; their per-operation chains again (272 nodes
    # here) fail this bound
    from test_acceptance import micro_entity, micro_vocabs
    model = TwoStageModel.build(stage1.ModelDims(d_h=4, d_word=4, d_prop=3, d_pos=3),
                                micro_vocabs(), seed=0)
    made = []
    real = dc._make
    monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
    model.joint_loss(micro_entity())
    assert len(made) <= 200


def test_joint_loss_node_count_with_copy_scores_in_the_mixture(monkeypatch):
    # each description step's copy scores are part of its copy_mixture node; a
    # separate score product node per step again (167 nodes here) fails this bound
    from test_acceptance import micro_entity, micro_vocabs
    model = TwoStageModel.build(stage1.ModelDims(d_h=4, d_word=4, d_prop=3, d_pos=3),
                                micro_vocabs(), seed=0)
    made = []
    real = dc._make
    monkeypatch.setattr(dc, "_make", lambda *a: made.append(1) or real(*a))
    model.joint_loss(micro_entity())
    assert len(made) <= 161


def test_copy_keys_are_formed_once_per_example(corpus, monkeypatch):
    # tanh(H W_c + b_c) depends on the encoder alone; counted by the transposes
    # of s2.copy.w, in whichever stage module forms the keys
    ents, vocabs, dims = corpus
    model = TwoStageModel.build(dims, vocabs, seed=4)
    copy_w = model.params["s2.copy.w"]
    formed = []
    real = dc.transpose

    def counted(a):
        formed.append(a is copy_w)
        return real(a)

    for module in (stage1, stage2):
        monkeypatch.setattr(module, "transpose", counted, raising=False)
    ent = max(ents, key=lambda e: len(e.description_tokens))
    for run in (lambda: model.joint_loss(ent), lambda: model.generate(ent),
                lambda: model.generate(ent, mode="beam", beam_width=4)):
        formed.clear()
        run()
        assert formed.count(True) == 1


def test_beam_makes_one_step_call_per_search_step(corpus, monkeypatch):
    # beam:3 scores every open hypothesis in one call, so a decoder is stepped
    # at most max_len times; one call per hypothesis makes up to 1 + 3 (max_len - 1)
    ents, vocabs, _ = corpus
    model = TwoStageModel.build(stage1.ModelDims(d_h=8, d_word=8, d_prop=4, d_pos=4),
                                vocabs, seed=3)
    calls = {"template": 0, "description": 0}

    def counted(key, fn):
        def step(*args):
            calls[key] += 1
            return fn(*args)
        return step

    monkeypatch.setattr(stage1, "decode_template_step",
                        counted("template", stage1.decode_template_step))
    monkeypatch.setattr(stage2, "description_step",
                        counted("description", stage2.description_step))
    template, description = model.generate(ents[0], mode="beam", beam_width=3,
                                           max_template_len=5, max_description_len=6)
    assert 0 < calls["template"] <= 5
    assert 0 < calls["description"] <= 6


class TestTrain:
    def split(self, ents, n_valid=0):
        if n_valid:
            return DatasetSplit(train=ents[:-n_valid], valid=ents[-n_valid:], test=[])
        return DatasetSplit(train=ents, valid=[], test=[])

    def test_single_example_overfits(self, corpus, tmp_path):
        # needs a realistically sized model: Adam's per-step movement scales
        # with parameter count, so tiny dims stall well above the bound
        ents, vocabs, _ = corpus
        dims = stage1.ModelDims(d_h=64, d_word=64, d_prop=32, d_pos=32)
        data = self.split([ents[2]])
        cfg = TrainConfig(max_epochs=500, batch_size=1, seed=11)
        result = train(data, cfg, dims, vocabs, tmp_path)
        assert result.step_losses[-1] < 0.05

    def test_same_seed_identical_trajectories(self, corpus, tmp_path):
        ents, vocabs, dims = corpus
        data = self.split(ents[:4])
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=13)
        a = train(data, cfg, dims, vocabs, tmp_path / "a")
        b = train(data, cfg, dims, vocabs, tmp_path / "b")
        assert a.step_losses == b.step_losses

    def test_zero_lr_leaves_parameters(self, corpus, tmp_path):
        ents, vocabs, dims = corpus
        data = self.split(ents[:2])
        cfg = TrainConfig(lr=0.0, max_epochs=2, batch_size=2, seed=1)
        result = train(data, cfg, dims, vocabs, tmp_path)
        fresh = TwoStageModel.build(dims, vocabs, seed=1)
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(p.data, fresh.params[name].data)

    @pytest.mark.parametrize("split", ["train", "valid"])
    @pytest.mark.parametrize("description, value, problem", [
        ("   ", "paris", "has no description"),
        ("street", "  ", "cannot encode an empty infobox")])
    def test_degenerate_entity_stops_before_the_first_step(self, corpus, tmp_path, monkeypatch,
                                                          split, description, value, problem):
        ents, vocabs, dims = corpus
        bad = Entity("S0", "bad", description, [("p1", "located in", value)])
        data = DatasetSplit(train=ents[:2] + [bad] * (split == "train"),
                            valid=ents[2:3] + [bad] * (split == "valid"), test=[])
        steps = []
        monkeypatch.setattr(dc.Adam, "step", lambda self: steps.append(1))
        out_dir = tmp_path / "run"
        with pytest.raises(TypedescError, match=f"^{split} split: entity S0.*{problem}$"):
            train(data, TrainConfig(max_epochs=1, batch_size=2), dims, vocabs, out_dir)
        assert steps == [] and not out_dir.exists()

    def test_divergence_aborts_with_checkpoint(self, corpus, tmp_path):
        ents, vocabs, dims = corpus
        data = self.split(ents[:2])
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=2, lr=1e30)
        with pytest.raises(TrainingDiverged):
            train(data, cfg, dims, vocabs, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.bin").exists()

    def test_non_finite_gradient_aborts_with_checkpoint_and_log(self, corpus, tmp_path,
                                                                monkeypatch):
        ents, vocabs, dims = corpus
        data = self.split(ents[:4])
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=2)
        steps = []

        def poisoned_clip(params, max_norm):
            steps.append(1)
            if len(steps) == 3:  # the first step of epoch 2
                params["s2.gen.b"].grad[0] = np.nan
            return dc.clip_gradients(params, max_norm)

        monkeypatch.setattr(trainer, "clip_gradients", poisoned_clip)
        with pytest.raises(TrainingDiverged, match="gradient"):
            train(data, cfg, dims, vocabs, out_dir=tmp_path)
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_loss,seconds" and len(log) == 2
        loaded = dc.load_checkpoint(tmp_path / "checkpoint.bin")
        assert np.all(np.isfinite(loaded["s2.gen.b"].data))

    def test_writes_checkpoint_and_log(self, corpus, tmp_path):
        ents, vocabs, dims = corpus
        data = self.split(ents[:4], n_valid=2)
        cfg = TrainConfig(max_epochs=2, batch_size=2, seed=3)
        result = train(data, cfg, dims, vocabs, out_dir=tmp_path)
        assert (tmp_path / "checkpoint.bin").exists()
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_loss,seconds"
        assert len(log) == 1 + result.epochs_run
        loaded = dc.load_checkpoint(tmp_path / "checkpoint.bin")
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(loaded[name].data, p.data)

    def test_epoch_callback_stops_early(self, corpus, tmp_path):
        ents, vocabs, dims = corpus
        data = self.split(ents[:2])
        cfg = TrainConfig(max_epochs=50, batch_size=2, seed=4)
        result = train(data, cfg, dims, vocabs, tmp_path,
                       on_epoch=lambda epoch, model: epoch >= 3)
        assert result.epochs_run == 3

    def test_unvalidated_run_keeps_its_trained_parameters(self, corpus, tmp_path):
        # no epoch reaches validate_every, so no validation epoch ever improves
        ents, vocabs, dims = corpus
        data = self.split(ents[:6], n_valid=2)
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=3, lr=0.01, validate_every=10)
        result = train(data, cfg, dims, vocabs, out_dir=tmp_path)
        assert result.best_valid_loss is None
        fresh = TwoStageModel.build(dims, vocabs, seed=3)
        assert any(not np.array_equal(p.data, fresh.params[name].data)
                   for name, p in result.model.params.items())
        loaded = dc.load_checkpoint(tmp_path / "checkpoint.bin")
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(loaded[name].data, p.data)

    def test_checkpoint_is_the_best_validation_epoch(self, corpus, tmp_path):
        ents, vocabs, dims = corpus
        data = self.split(ents[:6], n_valid=2)
        cfg = TrainConfig(max_epochs=4, batch_size=2, seed=1, lr=0.1)
        per_epoch = []
        result = train(data, cfg, dims, vocabs, out_dir=tmp_path,
                       on_epoch=lambda epoch, model: per_epoch.append(model.snapshot()))
        valid = [float(row["valid_loss"]) for row in result.epoch_rows]
        best = int(np.argmin(valid))
        assert best < len(valid) - 1  # the last epoch is not the best one
        loaded = dc.load_checkpoint(tmp_path / "checkpoint.bin")
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(p.data, per_epoch[best][name])
            np.testing.assert_array_equal(loaded[name].data, per_epoch[best][name])
        assert any(not np.array_equal(p.data, per_epoch[-1][name])
                   for name, p in result.model.params.items())

    def test_gradient_divergence_without_validation_keeps_the_last_step(
            self, corpus, tmp_path, monkeypatch):
        ents, vocabs, dims = corpus
        data = self.split(ents[:4])
        cfg = TrainConfig(max_epochs=3, batch_size=2, seed=2)
        cases = [
            ({"s2.gen.b": np.nan}, 4),
            # every entry finite, but the sum of squares overflows: clipping must
            # not scale such a gradient to zero, or the step goes through unchecked
            ({"s2.gen.b": 1e200}, 3),
            # each parameter's sum of squares is finite; only the global one overflows
            ({"s1.out.b": 1e154, "s2.gen.b": 1e154}, 3),
        ]
        for case, (poison, step) in enumerate(cases):
            out_dir = tmp_path / str(case)
            seen = []

            def poisoned_clip(params, max_norm):
                # the parameters clip sees are those after the previous step
                seen.append({name: p.data.copy() for name, p in params.items()})
                if len(seen) == step:  # two steps per epoch
                    for name, value in poison.items():
                        params[name].grad[0] = value
                return dc.clip_gradients(params, max_norm)

            monkeypatch.setattr(trainer, "clip_gradients", poisoned_clip)
            with pytest.raises(TrainingDiverged, match=f"gradient at step {step}"):
                train(data, cfg, dims, vocabs, out_dir=out_dir)
            loaded = dc.load_checkpoint(out_dir / "checkpoint.bin")
            assert set(loaded) == set(seen[-1])
            for name, arr in seen[-1].items():
                np.testing.assert_array_equal(loaded[name].data, arr)
            assert any(not np.array_equal(seen[-1][name], seen[-2][name])
                       for name in loaded)

    def test_validation_divergence_keeps_checkpoint_and_log(self, tmp_path, monkeypatch):
        # one step at lr=1e300 leaves finite weights of about 1e300, on which the
        # validation loss is not finite
        ents = synthdata.make_corpus(n=16, seed=3)
        data = DatasetSplit(train=ents[:10], valid=ents[10:12], test=[])
        dims = stage1.ModelDims(d_h=8, d_word=8, d_prop=4, d_pos=4)
        cfg = TrainConfig(lr=1e300, max_epochs=3, batch_size=10)
        live = []
        real_validate = trainer._mean_valid_loss

        def validate(model, entities):
            live.append(model.snapshot())
            return real_validate(model, entities)

        monkeypatch.setattr(trainer, "_mean_valid_loss", validate)
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match="loss on entity .*; best checkpoint retained"):
            train(data, cfg, dims, synthdata.make_vocabs(ents), out_dir=tmp_path)
        assert len(live) == 1
        log = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log == ["epoch,train_loss,valid_loss,seconds"]
        loaded = dc.load_checkpoint(tmp_path / "checkpoint.bin")
        assert set(loaded) == set(live[0])
        for name, arr in live[0].items():
            np.testing.assert_array_equal(loaded[name].data, arr)
