"""Tests for the selection policy network and its rollout modes."""

import numpy as np
import pytest

from modgate import autodiff as ad
from modgate.autodiff import Tape, backward
from modgate.datagen import GenSpec, generate
from modgate.errors import ContractError, DomainError
from modgate.modality import default_modalities
from modgate.policy import (
    EVAL_DETERMINISTIC,
    EVAL_STOCHASTIC,
    TRAIN_STOCHASTIC,
    PolicyNet,
    forced_decisions,
)


def tiny_net(**kw):
    opts = dict(n_feature=6, n_hidden=5, n_extract=4, rng=np.random.default_rng(2))
    opts.update(kw)
    return PolicyNet(default_modalities(), **opts)


def tiny_video():
    spec = GenSpec(n_videos=1, segments=5, seed=9)
    return generate(spec).videos[0]


class TestJointFeature:
    def test_width_is_feature_width(self):
        net = tiny_net()
        f = net.extract_joint_feature([np.zeros((1, 8)), np.zeros((1, 6))])
        assert f.shape == (1, 6)

    def test_zero_weights_give_zero_feature(self):
        net = tiny_net()
        for name, p in net.params.items():
            if name.startswith("policy.extractor"):
                p.values = np.zeros_like(p.values)
        f = net.extract_joint_feature([np.ones((1, 8)), np.ones((1, 6))])
        np.testing.assert_array_equal(f.values, np.zeros((1, 6)))

    def test_wrong_view_count_raises(self):
        with pytest.raises(ContractError):
            tiny_net().extract_joint_feature([np.zeros((1, 8))])

    def test_gradients_reach_extractor_weights(self):
        net = tiny_net()
        W = net.params["policy.extractor.mod0.W"]
        rng = np.random.default_rng(4)
        views = [rng.normal(size=(1, 8)), rng.normal(size=(1, 6))]

        def f(_):
            out = net.extract_joint_feature(views)
            return ad.reduce_sum(ad.multiply(out, out))

        rep = ad.grad_check(f, W, tol=1e-5)
        assert rep.passed, rep.max_rel_error


class TestLstmStep:
    def test_all_zero_weights_and_state_stay_zero(self):
        net = tiny_net()
        for name in ("policy.lstm.Wx", "policy.lstm.Wh", "policy.lstm.b"):
            net.params[name].values = np.zeros_like(net.params[name].values)
        h = net.lstm_step(ad.constant(np.ones((3, 6))))
        np.testing.assert_array_equal(h.values, np.zeros((3, 5)))

    def test_high_forget_bias_preserves_cell(self):
        """The first row writes the cell; with zero input after it, the hidden
        rows ``o * tanh(c)`` (o fixed at 1/2) stay where the first one put them."""
        net = tiny_net()
        H = net.n_hidden
        rng = np.random.default_rng(8)
        Wx = np.zeros_like(net.params["policy.lstm.Wx"].values)
        Wx[2 * H : 3 * H] = rng.uniform(-1, 1, (H, 6))  # the input reaches the g gate only
        net.params["policy.lstm.Wx"].values = Wx
        net.params["policy.lstm.Wh"].values = np.zeros_like(net.params["policy.lstm.Wh"].values)
        bias = np.zeros(4 * H)
        bias[H : 2 * H] = 10.0
        net.params["policy.lstm.b"].values = bias
        feature = np.zeros((3, 6))
        feature[0] = rng.normal(size=6)
        h = net.lstm_step(ad.constant(feature)).values
        assert np.any(h[0] != 0.0)
        assert np.max(np.abs(h[1:] - h[0])) <= 1e-4

    def test_three_step_chain_gradient(self):
        net = tiny_net()
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(3, 6))

        def f(_):
            last = net.lstm_step(ad.constant(feats))[2]
            return ad.reduce_sum(ad.multiply(last, last))

        rep = ad.grad_check(f, net.params["policy.lstm.Wh"], tol=1e-4)
        assert rep.passed, rep.max_rel_error


class TestDecisionHeads:
    def test_one_score_row_per_modality(self):
        net = tiny_net()
        heads = net.decision_heads(ad.constant(np.zeros((1, 5))))
        assert len(heads) == 2
        assert all(h.shape == (1, 2) for h in heads)

    def test_zero_summary_gives_bias(self):
        net = tiny_net()
        net.params["policy.head1.b"].values = np.array([0.3, -0.2])
        heads = net.decision_heads(ad.constant(np.zeros((1, 5))))
        np.testing.assert_array_equal(heads[1].values, [[0.3, -0.2]])

    def test_initial_bias_is_zero(self):
        net = tiny_net()
        for k in range(2):
            np.testing.assert_array_equal(net.params[f"policy.head{k}.b"].values, np.zeros(2))


class TestRollout:
    def test_decision_matrix_shapes(self):
        dm = tiny_net().rollout(tiny_video(), mode=EVAL_DETERMINISTIC)
        assert dm.U.shape == (5, 2)
        assert dm.P.shape == (5, 2, 2)
        assert dm.carriers is None

    def test_probability_rows_sum_to_one(self):
        dm = tiny_net().rollout(
            tiny_video(), tau=0.7, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(3)
        )
        np.testing.assert_allclose(dm.P.sum(axis=-1), 1.0, atol=1e-12)

    def test_select_bias_forces_all_on(self):
        net = tiny_net()
        for k in range(2):
            net.params[f"policy.head{k}.b"].values = np.array([0.0, 10.0])
        dm = net.rollout(tiny_video(), mode=EVAL_DETERMINISTIC)
        assert dm.U.all()

    def test_tied_scores_skip(self):
        net = tiny_net()
        for name, p in net.params.items():
            if name.startswith("policy.head"):
                p.values = np.zeros_like(p.values)
        dm = net.rollout(tiny_video(), mode=EVAL_DETERMINISTIC)
        assert not dm.U.any()

    def test_train_mode_attaches_carriers_matching_hard(self):
        dm = tiny_net().rollout(
            tiny_video(), tau=1.0, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(5)
        )
        for t in range(5):
            for k in range(2):
                carrier = dm.carriers[k][t]
                assert carrier is not None
                np.testing.assert_array_equal(
                    carrier.values, np.eye(2)[dm.U[t, k]], err_msg=f"cell {t},{k}"
                )

    def test_same_seed_bitwise_reproducible(self):
        video = tiny_video()
        a = tiny_net().rollout(video, tau=0.9, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(7))
        b = tiny_net().rollout(video, tau=0.9, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.P, b.P)

    def test_eval_stochastic_varies_with_seed(self):
        video = tiny_video()
        net = tiny_net()
        draws = {
            net.rollout(video, tau=5.0, mode=EVAL_STOCHASTIC, rng=np.random.default_rng(s)).U.tobytes()
            for s in range(20)
        }
        assert len(draws) > 1

    def test_stochastic_mode_requires_rng(self):
        with pytest.raises(ContractError):
            tiny_net().rollout(tiny_video(), tau=1.0, mode=TRAIN_STOCHASTIC)

    def test_stochastic_mode_requires_positive_tau(self):
        with pytest.raises(DomainError):
            tiny_net().rollout(
                tiny_video(), tau=0.0, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(0)
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError):
            tiny_net().rollout(tiny_video(), mode="decide-harder")

    def test_causality_decisions_ignore_future_segments(self):
        video = tiny_video()
        net = tiny_net()
        base = net.rollout(video, mode=EVAL_DETERMINISTIC)
        tampered = generate(GenSpec(n_videos=1, segments=5, seed=9)).videos[0]
        for k in range(2):
            tampered.policy_views[k][3:] += 100.0
        after = net.rollout(tampered, mode=EVAL_DETERMINISTIC)
        np.testing.assert_array_equal(base.U[:3], after.U[:3])
        np.testing.assert_array_equal(base.P[:3], after.P[:3])

    def test_carrier_gradients_reach_every_policy_group_and_no_recognition(self):
        net = tiny_net()
        video = tiny_video()
        with Tape():
            dm = net.rollout(video, tau=1.0, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(11))
            total = ad.add_n([dm.carriers[k][t, 1] for t in range(5) for k in range(2)])
            backward(total)
        groups = ["policy.extractor.mod0", "policy.extractor.fc1", "policy.lstm", "policy.head0"]
        for prefix in groups:
            hit = any(
                p.grad is not None and np.any(p.grad != 0.0)
                for name, p in net.params.items()
                if name.startswith(prefix)
            )
            assert hit, f"no gradient reached {prefix}"

    def test_no_lstm_flag_reads_feature_directly(self):
        net = tiny_net(no_lstm=True)
        assert "policy.lstm.Wx" not in net.params
        assert net.params["policy.head0.W"].shape == (2, 6)
        dm = net.rollout(tiny_video(), mode=EVAL_DETERMINISTIC)
        assert dm.U.shape == (5, 2)

    def test_joint_skip_produces_identical_columns(self):
        net = tiny_net(joint_skip=True)
        assert net.n_heads == 1
        dm = net.rollout(
            tiny_video(), tau=1.0, mode=TRAIN_STOCHASTIC, rng=np.random.default_rng(13)
        )
        np.testing.assert_array_equal(dm.U[:, 0], dm.U[:, 1])
        assert dm.carriers[0] is dm.carriers[1]


class TestForcedDecisions:
    def test_matrix_matches_requested_gates(self):
        U = np.array([[1, 0], [0, 1], [1, 1]])
        dm = forced_decisions(U)
        np.testing.assert_array_equal(dm.U, U)
        np.testing.assert_allclose(dm.P.sum(axis=-1), 1.0)
        assert dm.carriers is None
