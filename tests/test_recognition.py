"""Tests for recognition sub-networks, fusion, and video-level prediction."""

from collections import Counter

import numpy as np
import pytest

from modgate import autodiff as ad
from modgate import verify
from modgate.autodiff import Tape, backward
from modgate.datagen import GenSpec, generate
from modgate.errors import ContractError
from modgate.modality import default_modalities
from modgate.model import Model, ModelConfig, forward_video
from modgate.objective import CostModel, total_loss
from modgate.policy import TRAIN_STOCHASTIC
from modgate.recognition import RecognitionNet


def tiny_recog(**kw):
    opts = dict(n_hidden=8, rng=np.random.default_rng(6))
    opts.update(kw)
    return RecognitionNet(default_modalities(), n_classes=4, **opts)


def tiny_model():
    cfg = ModelConfig(extractor_hidden=4, feature_width=6, lstm_hidden=5, recog_hidden=8)
    return Model(default_modalities(), n_classes=4, config=cfg, seed=3)


class TestSubnetworks:
    def test_logit_width_is_class_count(self):
        net = tiny_recog()
        out = net.subnetwork_forward(0, np.zeros((1, 24)))
        assert out.shape == (1, 4)

    def test_zero_weights_give_zero_logits(self):
        net = tiny_recog()
        for name, p in net.params.items():
            if name.startswith("recog.sub1"):
                p.values = np.zeros_like(p.values)
        out = net.subnetwork_forward(1, np.ones((1, 16)))
        np.testing.assert_array_equal(out.values, np.zeros((1, 4)))

    def test_execution_counter_increments(self):
        net = tiny_recog()
        assert net.executions == 0
        net.subnetwork_forward(0, np.zeros((1, 24)))
        net.subnetwork_forward(1, np.zeros((1, 16)))
        assert net.executions == 2

    def test_gradient_through_subnetwork(self):
        net = tiny_recog()
        x = np.random.default_rng(1).normal(size=(1, 24))
        rep = ad.grad_check(
            lambda _: ad.reduce_sum(
                ad.multiply(net.subnetwork_forward(0, x), ad.constant([[1.0, -1.0, 0.5, 2.0]]))
            ),
            net.params["recog.sub0.W1"],
            tol=1e-5,
        )
        assert rep.passed, rep.max_rel_error

    def test_unknown_subnetwork_raises(self):
        with pytest.raises(ContractError):
            tiny_recog().subnetwork_forward(5, np.zeros((1, 3)))


class TestFusion:
    def test_zero_weights_give_uniform_coefficients(self):
        net = tiny_recog()
        np.testing.assert_array_equal(net.fusion_coefficients([0, 1]).values, [0.5, 0.5])

    def test_coefficients_renormalize_over_subset(self):
        net = tiny_recog()
        net.params["recog.fusion"].values = np.array([3.0, -1.0])
        solo = net.fusion_coefficients([1])
        np.testing.assert_array_equal(solo.values, [1.0])

    def test_coefficients_sum_to_one_on_random_subsets(self):
        rng = np.random.default_rng(44)
        net = tiny_recog()
        net.params["recog.fusion"].values = rng.normal(size=2)
        for subset in ([0], [1], [0, 1]):
            assert abs(net.fusion_coefficients(subset).values.sum() - 1.0) <= 1e-12

    def test_single_selected_modality_passes_logits_through(self):
        net = tiny_recog()
        logits = ad.constant(np.array([[1.0, -2.0, 0.5, 3.0]]))
        fused = net.fuse_segment([[logits], [None]], np.array([[1, 0]]))
        np.testing.assert_array_equal(fused.values, logits.values[0])

    def test_equal_weights_average_logits(self):
        net = tiny_recog()
        a = ad.constant(np.array([[2.0, 0.0, 0.0, 0.0]]))
        b = ad.constant(np.array([[0.0, 2.0, 0.0, 0.0]]))
        fused = net.fuse_segment([[a], [b]], np.array([[1, 1]]))
        np.testing.assert_allclose(fused.values, [1.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_all_skipped_segment_is_inactive(self):
        U = np.zeros((2, 2), dtype=np.int8)
        fused = tiny_recog().fuse_segment([[None, None], [None, None]], U)
        assert not fused.requires_grad
        np.testing.assert_array_equal(fused.values, np.zeros(4))

    def test_selected_but_missing_logits_raise(self):
        with pytest.raises(ContractError):
            tiny_recog().fuse_segment([[None], [None]], np.array([[1, 0]]))

    def test_empty_selection_for_coefficients_raises(self):
        with pytest.raises(ContractError):
            tiny_recog().fusion_coefficients([])


def only_modality_zero(*segment_logits):
    """``fuse_segment`` inputs for segments that each select modality 0 alone."""
    rows = [ad.constant(np.array([row], dtype=float)) for row in segment_logits]
    U = np.array([[1, 0]] * len(rows))
    return [rows, [None] * len(rows)], U


class TestVideoPredict:
    def test_identical_segments_softmax_of_logits(self):
        net = tiny_recog()
        logits = np.array([2.0, 0.0, 0.0, 0.0])
        out = net.video_predict(*only_modality_zero(logits, logits, logits))
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_opposed_segments_average_out(self):
        net = tiny_recog()
        out = net.video_predict(*only_modality_zero([2.0, 0.0, 1.0, 1.0], [0.0, 2.0, 1.0, 1.0]))
        assert abs(out.values[0] - out.values[1]) < 1e-15

    def test_no_active_segments_fall_back_to_uniform(self):
        net = tiny_recog()
        out = net.video_predict([[None] * 3, [None] * 3], np.zeros((3, 2), dtype=np.int8))
        np.testing.assert_array_equal(out.values, np.full(4, 0.25))

    def test_inactive_segments_are_excluded_from_the_mean(self):
        net = tiny_recog()
        (rows, empty), U = only_modality_zero([4.0, 0.0, 0.0, 0.0])
        with_dead = net.video_predict([rows + [None], empty + [None]], np.vstack([U, [[0, 0]]]))
        alone = net.video_predict([rows, empty], U)
        np.testing.assert_array_equal(with_dead.values, alone.values)


class TestEndToEnd:
    def test_executions_equal_selected_cells_exactly(self):
        model = tiny_model()
        data = generate(GenSpec(n_videos=12, segments=7, seed=21))
        total_selected = 0
        before = model.recog.executions
        for video in data.videos:
            fw = forward_video(model, video)
            assert fw.executions == int(fw.decisions.U.sum())
            total_selected += int(fw.decisions.U.sum())
        assert model.recog.executions - before == total_selected

    def test_loss_gradient_reaches_head_logits(self):
        from modgate.objective import CostModel, total_loss

        model = tiny_model()
        video = generate(GenSpec(n_videos=1, segments=5, seed=33)).videos[0]
        with Tape():
            fw = forward_video(
                model, video, mode=TRAIN_STOCHASTIC, tau=1.0, rng=np.random.default_rng(3)
            )
            loss = total_loss(fw.logits, video.label, fw.decisions, CostModel())
            backward(loss)
        heads = {name: p for name, p in model.policy_parameters().items()
                 if name.startswith("policy.head")}
        assert len(heads) == 2 * len(model.modalities)
        for name, p in heads.items():
            assert p.grad is not None and np.any(p.grad != 0.0), f"no gradient reached {name}"

    def test_prediction_is_a_distribution(self):
        model = tiny_model()
        video = generate(GenSpec(n_videos=1, segments=5, seed=13)).videos[0]
        fw = forward_video(model, video)
        assert abs(fw.prediction.values.sum() - 1.0) <= 1e-12
        assert np.all(fw.prediction.values >= 0.0)


# all three subsets of two modalities, repeated, and one segment selecting nothing
MIXED = np.array([[1, 0], [1, 1], [0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int8)
NONE = np.zeros_like(MIXED)


def numpy_fusion(model, video, U, gates):
    """Per-segment fusion in plain numpy: the mean over active segments of
    ``sum_k gates[t, k] softmax(w[S_t])_k logits[t, k]``, or zeros."""
    p = {name: t.values for name, t in model.parameters().items()}
    fused = []
    for t, u in enumerate(U):
        selected = np.flatnonzero(u)
        if not len(selected):
            continue
        w = p["recog.fusion"][selected]
        alphas = np.exp(w - w.max()) / np.exp(w - w.max()).sum()
        total = np.zeros(model.n_classes)
        for a, k in zip(alphas, selected):
            hidden = np.tanh(p[f"recog.sub{k}.W1"] @ video.recog_views[k][t]
                             + p[f"recog.sub{k}.b1"])
            total += gates[t, k] * a * (p[f"recog.sub{k}.W2"] @ hidden + p[f"recog.sub{k}.b2"])
        fused.append(total)
    return np.mean(fused, axis=0) if fused else np.zeros(model.n_classes)


def planted_forward(model, video, U):
    """A soft-gated training rollout whose frozen noise makes the policy decide ``U``."""
    fw = forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0,
                       noise=verify.planted_noise(U), soft_gates=True)
    np.testing.assert_array_equal(fw.decisions.U, U)
    return fw


def mixed_video():
    return generate(GenSpec(n_videos=1, segments=len(MIXED), seed=17)).videos[0]


class TestPerVideoFusion:
    @pytest.mark.parametrize("U", [MIXED, NONE], ids=["mixed", "all-skip"])
    @pytest.mark.parametrize("gated", [False, True], ids=["forced", "soft-gates"])
    def test_matches_numpy_per_segment_fusion(self, U, gated):
        model, video = tiny_model(), mixed_video()
        model.recog.params["recog.fusion"].values = np.array([0.7, -0.4])
        if gated:
            fw = planted_forward(model, video, U)
            gates = np.stack([c.values[:, 1] for c in fw.decisions.carriers], axis=1)
            assert np.all((gates > 0.5) == (U == 1)) and np.all((gates > 0.0) & (gates < 1.0))
        else:
            fw = forward_video(model, video, forced_gates=U)
            gates = np.ones(U.shape)
        expected = numpy_fusion(model, video, U, gates)
        np.testing.assert_allclose(fw.logits.values, expected, rtol=0, atol=1e-12)
        probs = np.exp(expected - expected.max()) / np.exp(expected - expected.max()).sum()
        np.testing.assert_allclose(fw.prediction.values, probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["recog.fusion", "recog.sub1.W2", "policy.head0.W"])
    def test_loss_gradient_matches_finite_differences(self, name):
        model, video = tiny_model(), mixed_video()
        planted_forward(model, video, MIXED)
        cost = CostModel(lams=[0.3, 0.2], train_segments=len(MIXED))

        def loss(_):
            fw = planted_forward(model, video, MIXED)
            return total_loss(fw.logits, video.label, fw.decisions, cost)

        rep = ad.grad_check(loss, model.parameters()[name], tol=1e-4)
        assert rep.passed, rep.max_rel_error

    def test_one_fusion_per_video_and_one_subnetwork_call_per_selected_cell(self, monkeypatch):
        calls = Counter()
        for name in ("fuse_segment", "subnetwork_forward"):
            def counted(self, *args, _original=getattr(RecognitionNet, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(RecognitionNet, name, counted)
        model = tiny_model()
        videos = generate(GenSpec(n_videos=4, segments=len(MIXED), seed=5)).videos
        runs = [dict(forced_gates=MIXED), dict(forced_gates=NONE), {},
                dict(mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(2))]
        for video, kwargs in zip(videos, runs):
            calls.clear()
            fw = forward_video(model, video, **kwargs)
            assert calls["fuse_segment"] == 1
            assert calls["subnetwork_forward"] == fw.executions == int(fw.decisions.U.sum())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verify_full_loss_case_mixes_subsets(self, seed):
        model, video, noise, _ = verify.full_loss_case(seed)
        fw = forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0, noise=noise,
                           soft_gates=True)
        codes = set((fw.decisions.U @ [1, 2]).tolist())
        assert 0 in codes and len(codes - {0}) >= 2
