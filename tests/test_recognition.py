"""Tests for recognition sub-networks, fusion, and video-level prediction."""

import numpy as np
import pytest

from modgate import autodiff as ad
from modgate.autodiff import Tape, backward
from modgate.datagen import GenSpec, generate
from modgate.errors import ContractError
from modgate.modality import default_modalities
from modgate.model import Model, ModelConfig, forward_video
from modgate.policy import TRAIN_STOCHASTIC
from modgate.recognition import RecognitionNet, SegmentPrediction


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
        out = net.subnetwork_forward(0, np.zeros(24))
        assert out.shape == (4,)

    def test_zero_weights_give_zero_logits(self):
        net = tiny_recog()
        for name, p in net.params.items():
            if name.startswith("recog.sub1"):
                p.values = np.zeros_like(p.values)
        out = net.subnetwork_forward(1, np.ones(16))
        np.testing.assert_array_equal(out.values, np.zeros(4))

    def test_execution_counter_increments(self):
        net = tiny_recog()
        assert net.executions == 0
        net.subnetwork_forward(0, np.zeros(24))
        net.subnetwork_forward(1, np.zeros(16))
        assert net.executions == 2
        net.reset_executions()
        assert net.executions == 0

    def test_gradient_through_subnetwork(self):
        net = tiny_recog()
        x = np.random.default_rng(1).normal(size=24)
        rep = ad.grad_check(
            lambda _: ad.reduce_sum(
                ad.multiply(net.subnetwork_forward(0, x), ad.constant([1.0, -1.0, 0.5, 2.0]))
            ),
            net.params["recog.sub0.W1"],
            tol=1e-5,
        )
        assert rep.passed, rep.max_rel_error

    def test_unknown_subnetwork_raises(self):
        with pytest.raises(ContractError):
            tiny_recog().subnetwork_forward(5, np.zeros(3))


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
        logits = ad.constant(np.array([1.0, -2.0, 0.5, 3.0]))
        seg = net.fuse_segment([logits, None], np.array([1, 0]))
        assert seg.active
        np.testing.assert_array_equal(seg.logits.values, logits.values)

    def test_equal_weights_average_logits(self):
        net = tiny_recog()
        a = ad.constant(np.array([2.0, 0.0, 0.0, 0.0]))
        b = ad.constant(np.array([0.0, 2.0, 0.0, 0.0]))
        seg = net.fuse_segment([a, b], np.array([1, 1]))
        np.testing.assert_allclose(seg.logits.values, [1.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_all_skipped_segment_is_inactive(self):
        seg = tiny_recog().fuse_segment([None, None], np.array([0, 0]))
        assert not seg.active
        np.testing.assert_array_equal(seg.logits.values, np.zeros(4))

    def test_selected_but_missing_logits_raise(self):
        with pytest.raises(ContractError):
            tiny_recog().fuse_segment([None, None], np.array([1, 0]))

    def test_empty_selection_for_coefficients_raises(self):
        with pytest.raises(ContractError):
            tiny_recog().fusion_coefficients([])


class TestVideoPredict:
    def test_identical_segments_softmax_of_logits(self):
        net = tiny_recog()
        logits = np.array([2.0, 0.0, 0.0, 0.0])
        segs = [SegmentPrediction(ad.constant(logits), True) for _ in range(3)]
        out = net.video_predict(segs)
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(out.values, expected, atol=1e-15)

    def test_opposed_segments_average_out(self):
        net = tiny_recog()
        a = SegmentPrediction(ad.constant(np.array([2.0, 0.0, 1.0, 1.0])), True)
        b = SegmentPrediction(ad.constant(np.array([0.0, 2.0, 1.0, 1.0])), True)
        out = net.video_predict([a, b])
        assert abs(out.values[0] - out.values[1]) < 1e-15

    def test_no_active_segments_fall_back_to_uniform(self):
        net = tiny_recog()
        segs = [SegmentPrediction(ad.constant(np.zeros(4)), False)] * 3
        np.testing.assert_array_equal(net.video_predict(segs).values, np.full(4, 0.25))

    def test_inactive_segments_are_excluded_from_the_mean(self):
        net = tiny_recog()
        live = SegmentPrediction(ad.constant(np.array([4.0, 0.0, 0.0, 0.0])), True)
        dead = SegmentPrediction(ad.constant(np.zeros(4)), False)
        with_dead = net.video_predict([live, dead])
        alone = net.video_predict([live])
        np.testing.assert_array_equal(with_dead.values, alone.values)


class TestEndToEnd:
    def test_executions_equal_selected_cells_exactly(self):
        model = tiny_model()
        data = generate(GenSpec(n_videos=12, segments=7, seed=21))
        total_selected = 0
        model.recog.reset_executions()
        for video in data.videos:
            fw = forward_video(model, video)
            assert fw.executions == int(fw.decisions.U.sum())
            total_selected += int(fw.decisions.U.sum())
        assert model.recog.executions == total_selected

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
