"""Tests for the loss, the usage penalty, and simulated compute accounting."""

import numpy as np
import pytest

from modgate import autodiff as ad
from modgate.autodiff import Tape, backward, grad_check
from modgate.datagen import GenSpec, generate
from modgate.errors import ConfigError
from modgate.gumbel import sample_gumbel
from modgate.modality import ModalitySpec, default_modalities
from modgate.model import Model, ModelConfig, forward_video
from modgate.objective import (
    CostModel,
    batch_mean,
    cross_entropy,
    full_compute,
    simulated_compute,
    total_loss,
)
from modgate.policy import TRAIN_STOCHASTIC, forced_decisions


def tiny_model(seed=3):
    cfg = ModelConfig(extractor_hidden=4, feature_width=6, lstm_hidden=5, recog_hidden=8)
    return Model(default_modalities(), n_classes=4, config=cfg, seed=seed)


def efficiency_cost(u_column, correct, lam, cost):
    """Plain-number usage penalty for one modality: the oracle for ``total_loss``."""
    if not correct:
        return lam * cost.gamma
    frac = float(np.sum(u_column)) / cost.train_segments
    return lam * frac * frac


class TestEfficiencyCost:
    def test_squared_fraction_when_correct(self):
        cost = CostModel(lams=[1.0, 0.05], gamma=10.0, train_segments=5)
        assert efficiency_cost(np.array([1, 1, 1, 0, 0]), True, 1.0, cost) == pytest.approx(0.36)

    def test_flat_gamma_when_incorrect(self):
        cost = CostModel(lams=[1.0, 1.0], gamma=10.0, train_segments=5)
        assert efficiency_cost(np.ones(5), False, 1.0, cost) == 10.0
        assert efficiency_cost(np.zeros(5), False, 0.5, cost) == 5.0

    def test_zero_selection_costs_nothing_when_correct(self):
        cost = CostModel(train_segments=5)
        assert efficiency_cost(np.zeros(5), True, 1.0, cost) == 0.0

    def test_adding_a_selection_never_decreases_the_penalty(self):
        rng = np.random.default_rng(17)
        cost = CostModel(lams=[0.7, 1.3], gamma=10.0, train_segments=6)
        for _ in range(200):
            U = (rng.random((6, 2)) < 0.5).astype(int)
            zeros = np.argwhere(U == 0)
            if len(zeros) == 0:
                continue
            t, k = zeros[rng.integers(len(zeros))]
            before = sum(
                efficiency_cost(U[:, j], True, cost.lams[j], cost) for j in range(2)
            )
            U2 = U.copy()
            U2[t, k] = 1
            after = sum(
                efficiency_cost(U2[:, j], True, cost.lams[j], cost) for j in range(2)
            )
            assert after >= before


class TestTotalLoss:
    def test_perfect_prediction_with_no_selection_is_free(self):
        # softmax rounds to exactly [1, 0, 0, 0]
        logits = ad.constant(np.array([50.0, 0.0, 0.0, 0.0]))
        decisions = forced_decisions(np.zeros((5, 2), dtype=int))
        cost = CostModel(lams=[1.0, 0.5], gamma=10.0, train_segments=5)
        loss = total_loss(logits, 0, decisions, cost)
        assert float(loss.values) == 0.0

    def test_uniform_incorrect_prediction_pays_gamma_per_modality(self):
        logits = ad.constant(np.zeros(4))
        decisions = forced_decisions(np.ones((5, 2), dtype=int))
        cost = CostModel(lams=[1.0, 1.0], gamma=10.0, train_segments=5)
        # argmax of a uniform vector is class 0; label 2 is a miss
        loss = total_loss(logits, 2, decisions, cost)
        assert float(loss.values) == pytest.approx(np.log(4.0) + 20.0, abs=1e-12)

    def test_usage_fractions_add_squared_penalties(self):
        # the log of a probability vector is a logit vector for those probabilities
        logits = ad.constant(np.log([0.7, 0.1, 0.1, 0.1]))
        U = np.zeros((5, 2), dtype=int)
        U[:3, 0] = 1  # fraction 3/5
        U[:, 1] = 1  # fraction 1
        decisions = forced_decisions(U)
        cost = CostModel(lams=[1.0, 0.05], gamma=10.0, train_segments=5)
        loss = total_loss(logits, 0, decisions, cost)
        expected = -np.log(0.7) + 1.0 * 0.36 + 0.05 * 1.0
        assert float(loss.values) == pytest.approx(expected, abs=1e-12)

    def test_zero_lams_reduce_to_cross_entropy_bitwise(self):
        model = tiny_model()
        video = generate(GenSpec(n_videos=1, segments=5, seed=41)).videos[0]
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        cost = CostModel(lams=[0.0, 0.0], gamma=0.0, train_segments=5)
        with Tape() as tape_a:
            fw = forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0, rng=rng_a)
            full = total_loss(fw.logits, video.label, fw.decisions, cost)
        with Tape() as tape_b:
            fw2 = forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0, rng=rng_b)
            plain = cross_entropy(fw2.logits, video.label)
        assert float(full.values) == float(plain.values)
        assert len(tape_a.records) == len(tape_b.records)

    def test_confidently_wrong_logits_keep_their_gradient(self):
        logits = ad.Tensor(np.array([0.0, 40.0, 0.0, 0.0]), requires_grad=True)
        probs = ad.softmax(logits).values
        assert probs[0] < 1e-12
        with Tape():
            loss = cross_entropy(logits, 0)
            backward(loss)
        assert float(loss.values) == pytest.approx(40.0 + np.log1p(3 * np.exp(-40.0)))
        np.testing.assert_allclose(logits.grad, probs - np.eye(4)[0], rtol=1e-12, atol=0)

    def test_confidently_wrong_video_trains_recognition(self):
        model = tiny_model()
        video = generate(GenSpec(n_videos=1, segments=5, seed=41)).videos[0]
        wrong = (video.label + 1) % 4
        for k in range(2):
            model.recog.params[f"recog.sub{k}.b2"].values[wrong] = 60.0
        cost = CostModel(lams=[0.0, 0.0], train_segments=5)
        with Tape():
            fw = forward_video(model, video, forced_gates=np.ones((5, 2), dtype=int))
            assert fw.prediction.values[video.label] < 1e-12
            backward(total_loss(fw.logits, video.label, fw.decisions, cost))
        for k in range(2):
            grad = model.recog.params[f"recog.sub{k}.b2"].grad
            assert grad is not None and grad[video.label] < -0.1, f"sub-network {k}: {grad}"

    def test_lam_count_must_match_modalities(self):
        pred = ad.constant(np.full(4, 0.25))
        decisions = forced_decisions(np.ones((5, 2), dtype=int))
        with pytest.raises(ConfigError):
            total_loss(pred, 0, decisions, CostModel(lams=[1.0], train_segments=5))

    def test_batch_mean_averages_tensors_and_floats(self):
        out = batch_mean([ad.constant(2.0), 4.0])
        assert float(out.values) == pytest.approx(3.0)


class TestLossGradients:
    def test_efficiency_term_matches_finite_differences(self):
        """Relaxed-gate usage penalty against central differences, frozen noise."""
        model = tiny_model()
        video = generate(GenSpec(n_videos=1, segments=5, seed=51)).videos[0]
        noise = sample_gumbel((5, 2, 2), np.random.default_rng(77))
        cost = CostModel(lams=[1.0, 0.45], gamma=10.0, train_segments=5)

        def f(_):
            dm = model.policy.rollout(
                video, tau=1.0, mode=TRAIN_STOCHASTIC, noise=noise, soft_gates=True
            )
            terms = []
            for k in range(2):
                picks = ad.concatenate([dm.carriers[k][t, 1:2] for t in range(5)])
                frac = ad.scale(ad.reduce_sum(picks), 1.0 / 5.0)
                terms.append(ad.scale(ad.multiply(frac, frac), cost.lams[k]))
            return ad.add_n(terms)

        for name in ("policy.head0.W", "policy.lstm.Wx", "policy.extractor.fc1.W"):
            rep = grad_check(f, model.policy.params[name], tol=1e-4)
            assert rep.passed, f"{name}: rel err {rep.max_rel_error:.2e}"

    def test_full_loss_matches_finite_differences_on_toy_rollout(self):
        """The whole objective, end to end, with frozen noise and relaxed gates."""
        model = tiny_model(seed=8)
        video = generate(GenSpec(n_videos=1, segments=2, seed=61)).videos[0]
        noise = sample_gumbel((2, 2, 2), np.random.default_rng(88))
        cost = CostModel(lams=[1.0, 0.45], gamma=10.0, train_segments=2)

        def f(_):
            fw = forward_video(
                model, video, mode=TRAIN_STOCHASTIC, tau=1.0, noise=noise, soft_gates=True
            )
            return total_loss(fw.logits, video.label, fw.decisions, cost)

        for name in (
            "policy.head1.W",
            "policy.lstm.Wh",
            "policy.extractor.mod0.W",
            "recog.sub0.W1",
            "recog.fusion",
        ):
            rep = grad_check(f, model.parameters()[name], tol=1e-4)
            assert rep.passed, f"{name}: rel err {rep.max_rel_error:.2e}"


class TestSimulatedCompute:
    def test_all_on_charges_policy_floor_plus_full_recognition(self):
        mods = [
            ModalitySpec("a", 8, 4, recog_cost=1.0, policy_cost=0.076),
            ModalitySpec("b", 8, 4, recog_cost=0.45, policy_cost=0.076),
        ]
        U = np.ones((10, 2), dtype=int)
        assert simulated_compute(U, mods) == pytest.approx(1.52 + 14.5)
        assert full_compute(10, mods) == pytest.approx(1.52 + 14.5)

    def test_all_off_still_pays_the_policy_floor(self):
        mods = default_modalities()
        U = np.zeros((10, 2), dtype=int)
        assert simulated_compute(U, mods) == pytest.approx(10 * (0.076 + 0.076))

    def test_halving_selection_halves_recognition_cost(self):
        mods = default_modalities()
        full_bill = simulated_compute(np.ones((10, 2), dtype=int), mods)
        half = np.ones((10, 2), dtype=int)
        half[5:] = 0
        half_bill = simulated_compute(half, mods)
        floor = 10 * (0.076 + 0.076)
        assert (half_bill - floor) == pytest.approx((full_bill - floor) / 2.0)

    def test_never_exceeds_the_all_on_ceiling(self):
        rng = np.random.default_rng(3)
        mods = default_modalities()
        ceiling = full_compute(10, mods)
        for _ in range(100):
            U = (rng.random((10, 2)) < rng.random()).astype(int)
            assert simulated_compute(U, mods) <= ceiling + 1e-12

    def test_modality_count_mismatch_raises(self):
        with pytest.raises(ConfigError):
            simulated_compute(np.ones((4, 3), dtype=int), default_modalities())
