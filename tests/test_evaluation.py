"""Evaluation reports, mask audits, and the baseline battery."""

import numpy as np
import pytest

from conftest import SEEDS, bundle_for, split_world
from modgate.datagen import Dataset, GenSpec, generate, subsample
from modgate.errors import ConfigError, InputError
from modgate.evaluation import (
    audit_policy,
    compare,
    comparison_csv,
    evaluate,
    evaluate_with_audit,
    run_baseline,
    uniform_segment_indices,
)
from modgate.model import forward_video
from modgate.objective import full_compute
from modgate.policy import EVAL_STOCHASTIC, TRAIN_STOCHASTIC
from modgate.training import TrainConfig


def all_on(shape, rng):
    return np.ones(shape, dtype=np.int8)


def coin_flip(shape, rng):
    return (rng.random(shape) < 0.5).astype(np.int8)


class TestUniformIndices:
    def test_short_video_keeps_everything(self):
        np.testing.assert_array_equal(uniform_segment_indices(10, 15), np.arange(10))
        np.testing.assert_array_equal(uniform_segment_indices(10, 10), np.arange(10))

    def test_even_spacing(self):
        np.testing.assert_array_equal(uniform_segment_indices(10, 4), [0, 2, 5, 7])
        np.testing.assert_array_equal(uniform_segment_indices(7, 3), [0, 2, 4])

    def test_indices_strictly_increase(self):
        for total in (5, 9, 16):
            for wanted in (1, 3, 5):
                idx = uniform_segment_indices(total, wanted)
                assert np.all(np.diff(idx) > 0) or len(idx) == 1


class TestEvaluateMechanics:
    def test_forced_all_on_hits_the_compute_ceiling(self, small_bundle):
        rep = evaluate(small_bundle.model, small_bundle.eval_data, seed=3,
                       forced_gates=all_on)
        assert rep.selection_rates == [1.0, 1.0]
        T = small_bundle.eval_data.segments
        assert rep.mean_compute == pytest.approx(
            full_compute(T, small_bundle.model.modalities), rel=1e-12)

    def test_forced_single_column(self, small_bundle):
        def only_first(shape, rng):
            U = np.zeros(shape, dtype=np.int8)
            U[:, 0] = 1
            return U

        rep = evaluate(small_bundle.model, small_bundle.eval_data, seed=3,
                       forced_gates=only_first)
        assert rep.selection_rates == [1.0, 0.0]
        assert rep.selected_counts[1] == 0

    def test_coin_flip_rates_near_half(self, main_bundle):
        # 100 videos x 10 segments = 1000 slots per modality
        rep = evaluate(main_bundle.model, main_bundle.eval_data, seed=3,
                       forced_gates=coin_flip)
        for rate in rep.selection_rates:
            assert abs(rate - 0.5) < 0.05

    def test_all_skip_falls_back_to_chance(self, main_bundle):
        """With nothing selected the predictor is uniform, so about 1/C right.

        The uniform prediction breaks its tie toward class 0, so accuracy is
        exactly the class-0 frequency — chance-level on balanced labels.
        """

        def none_at_all(shape, rng):
            return np.zeros(shape, dtype=np.int8)

        data = generate(GenSpec(n_videos=400, seed=11))
        rep = evaluate(main_bundle.model, data, seed=3, forced_gates=none_at_all)
        freq0 = np.mean([v.label == 0 for v in data.videos])
        assert rep.top1 == pytest.approx(freq0, abs=1e-12)
        assert abs(rep.top1 - 1.0 / data.n_classes) < 0.05
        assert rep.executions == 0

    def test_compute_consistent_with_counts(self, small_bundle):
        rep = evaluate(small_bundle.model, small_bundle.eval_data, seed=3)
        mods = small_bundle.model.modalities
        T = rep.eval_segments
        policy_floor = T * sum(m.policy_cost for m in mods)
        recog_work = sum(c * m.recog_cost for c, m in zip(rep.selected_counts, mods))
        expected = policy_floor + recog_work / rep.n_videos
        assert rep.mean_compute == pytest.approx(expected, rel=1e-12)

    def test_executions_counter_matches_selected(self, small_bundle):
        rep = evaluate(small_bundle.model, small_bundle.eval_data, seed=3)
        assert rep.executions == sum(rep.selected_counts)

    def test_report_is_deterministic(self, small_bundle):
        a = evaluate(small_bundle.model, small_bundle.eval_data, seed=3).to_csv()
        b = evaluate(small_bundle.model, small_bundle.eval_data, seed=3).to_csv()
        assert a == b

    def test_stochastic_mode_is_seed_reproducible(self, small_bundle):
        a = evaluate(small_bundle.model, small_bundle.eval_data, seed=7,
                     mode=EVAL_STOCHASTIC).to_csv()
        b = evaluate(small_bundle.model, small_bundle.eval_data, seed=7,
                     mode=EVAL_STOCHASTIC).to_csv()
        assert a == b

    def test_training_mode_rejected(self, small_bundle):
        with pytest.raises(ConfigError):
            evaluate(small_bundle.model, small_bundle.eval_data, mode=TRAIN_STOCHASTIC)
        with pytest.raises(ConfigError):
            evaluate(small_bundle.model, small_bundle.eval_data, mode="argmax")

    def test_empty_dataset_rejected(self, small_bundle):
        d = small_bundle.eval_data
        empty = Dataset([], d.n_classes, d.recog_dims, d.policy_dims, d.segments)
        with pytest.raises(InputError):
            evaluate(small_bundle.model, empty)

    def test_csv_shape(self, small_bundle):
        rep = evaluate(small_bundle.model, small_bundle.eval_data, seed=3)
        lines = rep.to_csv().splitlines()
        assert lines[0] == "metric,modality,value"
        assert len(lines) == 1 + 1 + len(rep.modality_names) + 1


class TestAudit:
    def _world(self, probs, seed=3, n=12):
        spec = GenSpec(n_videos=n, informative_probs=probs, seed=seed)
        return generate(spec)

    def test_all_informative_masks(self, small_bundle):
        """Every selection is a true positive when the mask is solid ones."""
        data = self._world([1.0, 1.0])
        precision, recall, f1 = audit_policy(small_bundle.model, data)
        rep = evaluate(small_bundle.model, data, seed=3)
        for k in range(2):
            if rep.selected_counts[k] > 0:
                assert precision[k] == pytest.approx(1.0)
                assert recall[k] == pytest.approx(rep.selection_rates[k], rel=1e-12)
            else:
                assert precision[k] == 0.0

    def test_never_informative_masks(self, small_bundle):
        # an all-zero mask cannot be generated (such videos carry no signal),
        # so plant it by hand to pin the zero-count conventions
        data = self._world([0.5, 0.5])
        for v in data.videos:
            v.mask = np.zeros_like(v.mask)
        precision, recall, f1 = audit_policy(small_bundle.model, data)
        assert precision == [0.0, 0.0]
        assert recall == [0.0, 0.0]
        assert f1 == [0.0, 0.0]

    def test_f1_is_harmonic_mean(self, small_bundle):
        data = self._world([0.5, 0.5])
        precision, recall, f1 = audit_policy(small_bundle.model, data)
        for p, r, f in zip(precision, recall, f1):
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert f == pytest.approx(expected, rel=1e-12)

    def test_stochastic_audit_scores_the_reported_decisions(self, small_bundle):
        """Under sampled gates the audit describes the decisions the report counts."""
        model, data = small_bundle.model, small_bundle.eval_data
        rep = evaluate_with_audit(model, data, seed=7, mode=EVAL_STOCHASTIC)
        tp, fp, fn = np.zeros(2), np.zeros(2), np.zeros(2)
        counts = np.zeros(2)
        for i, video in enumerate(data.videos):
            idx = uniform_segment_indices(video.n_segments, 10)
            fw = forward_video(model, subsample(video, idx), mode=EVAL_STOCHASTIC,
                               rng=np.random.default_rng([7, 4000, i]))
            picked, truth = fw.decisions.U.astype(bool), video.mask[idx]
            tp += (picked & truth).sum(axis=0)
            fp += (picked & ~truth).sum(axis=0)
            fn += (~picked & truth).sum(axis=0)
            counts += picked.sum(axis=0)
        assert rep.selected_counts == list(counts)
        assert np.all(tp + fp > 0) and np.all(tp + fn > 0)
        assert rep.precision == pytest.approx(list(tp / (tp + fp)), rel=1e-12)
        assert rep.recall == pytest.approx(list(tp / (tp + fn)), rel=1e-12)

    def test_audit_runs_each_video_once(self, small_bundle):
        model = small_bundle.model
        before = model.recog.executions
        rep = evaluate_with_audit(model, small_bundle.eval_data, seed=3)
        assert rep.f1 is not None
        assert model.recog.executions - before == rep.executions

    def test_deterministic_audit_matches_audit_policy(self, small_bundle):
        rep = evaluate_with_audit(small_bundle.model, small_bundle.eval_data, seed=3)
        precision, recall, f1 = audit_policy(small_bundle.model, small_bundle.eval_data)
        assert (rep.precision, rep.recall, rep.f1) == (precision, recall, f1)

    def test_missing_masks_rejected(self, small_bundle):
        data = self._world([0.5, 0.5])
        stripped = [
            type(v)(recog_views=v.recog_views, policy_views=v.policy_views,
                    label=v.label, mask=None)
            for v in data.videos
        ]
        bare = Dataset(stripped, data.n_classes, data.recog_dims,
                       data.policy_dims, data.segments)
        with pytest.raises(InputError):
            audit_policy(small_bundle.model, bare)
        # the combined entry point degrades gracefully instead
        rep = evaluate_with_audit(small_bundle.model, bare, seed=3)
        assert rep.f1 is None

    def test_with_audit_populates_all_three(self, small_bundle):
        rep = evaluate_with_audit(small_bundle.model, small_bundle.eval_data, seed=3)
        assert rep.precision is not None
        assert rep.recall is not None
        assert len(rep.f1) == 2
        rows = dict(((m, mod), v) for m, mod, v in rep.rows())
        assert ("f1", "hi") in rows and ("f1", "lo") in rows


@pytest.fixture(scope="module")
def quick():
    """A small world and short schedule for exercising every baseline kind."""
    spec = GenSpec(n_videos=45, seed=3)
    train_data, eval_data = split_world(spec, 30)
    cfg = TrainConfig(warmup_epochs=1, alternate_epochs=2, finetune_epochs=1, seed=3)
    return spec, train_data, eval_data, cfg


class TestBaselines:
    def test_unknown_kind_rejected(self, quick):
        spec, tr, te, cfg = quick
        with pytest.raises(ConfigError):
            run_baseline("oracle", tr, te, spec.modalities, cfg)
        with pytest.raises(ConfigError):
            run_baseline("unimodal-7", tr, te, spec.modalities, cfg)

    def test_weighted_fusion_is_always_on(self, quick):
        spec, tr, te, cfg = quick
        _, rep = run_baseline("weighted-fusion", tr, te, spec.modalities, cfg)
        assert rep.selection_rates == [1.0, 1.0]
        assert rep.mean_compute == pytest.approx(
            full_compute(te.segments, spec.modalities), rel=1e-12)

    def test_unimodal_isolates_one_stream(self, quick):
        spec, tr, te, cfg = quick
        _, first = run_baseline("unimodal-0", tr, te, spec.modalities, cfg)
        _, second = run_baseline("unimodal-1", tr, te, spec.modalities, cfg)
        assert first.selection_rates == [1.0, 0.0]
        assert second.selection_rates == [0.0, 1.0]
        assert second.mean_compute < first.mean_compute  # cheap stream is cheaper

    def test_random_policy_hovers_near_half(self, quick):
        spec, tr, te, cfg = quick
        _, rep = run_baseline("random-policy", tr, te, spec.modalities, cfg)
        for rate in rep.selection_rates:
            assert 0.25 < rate < 0.75

    def test_joint_skip_ties_the_columns(self, quick):
        spec, tr, te, cfg = quick
        model, rep = run_baseline("joint-skip-policy", tr, te, spec.modalities, cfg)
        assert rep.selection_rates[0] == pytest.approx(rep.selection_rates[1], abs=1e-12)
        assert model.config.joint_skip

    def test_compare_battery(self, quick):
        spec, tr, te, cfg = quick
        named = compare(tr, te, spec.modalities, cfg)
        assert [name for name, _ in named] == [
            "adaptive", "weighted-fusion", "unimodal-hi", "unimodal-lo", "random-policy",
        ]
        csv = comparison_csv(named)
        lines = csv.splitlines()
        assert lines[0] == "metric,modality,value,baseline"
        assert len(lines) == 1 + 5 * 4  # top1, two rates, compute per baseline


class TestTrainedQuality:
    def test_adaptive_beats_chance_and_saves_compute(self, main_bundle):
        assert main_bundle.adaptive.top1 > 0.5
        assert main_bundle.adaptive.mean_compute < main_bundle.fusion.mean_compute

    def test_fusion_report_is_the_ceiling(self, main_bundle):
        assert main_bundle.fusion.selection_rates == [1.0, 1.0]
        assert main_bundle.adaptive.mean_compute / main_bundle.fusion.mean_compute < 1.0

    def test_fusion_at_least_best_unimodal(self):
        """Complementary streams: using both never loses to the best one.

        Measured on the standard worlds: fusion 1.000/0.980/1.000 against
        best unimodal 1.000/0.980/1.000 for seeds 3/4/5.
        """
        for seed in SEEDS:
            b = bundle_for(seed)
            best = 0.0
            for kind in ("unimodal-0", "unimodal-1"):
                _, rep = run_baseline(kind, b.train_data, b.eval_data,
                                      b.spec.modalities, b.cfg)
                best = max(best, rep.top1)
            assert b.fusion.top1 >= best - 0.01
