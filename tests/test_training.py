"""Schedule mechanics, optimizer math, and training reproducibility."""

import gc
import weakref

import numpy as np
import pytest

from conftest import split_world
from modgate import autodiff as ad
from modgate import training
from modgate.checkpoint import load_checkpoint
from modgate.datagen import Dataset, GenSpec
from modgate.errors import ConfigError, InputError
from modgate.model import Model
from modgate.training import Adam, MomentumSGD, TrainConfig, train, train_forced


def snapshot(params):
    return {name: p.values.copy() for name, p in params.items()}


def same_state(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def tiny_world(seed=3, n_videos=30, n_train=20, **gen_kwargs):
    spec = GenSpec(n_videos=n_videos, seed=seed, **gen_kwargs)
    return spec, split_world(spec, n_train)


def fresh_model(spec, data, seed=3):
    return Model(spec.modalities, data.n_classes, seed=seed)


class TestScheduleShape:
    def test_phase_layout(self, small_bundle):
        rows = small_bundle.report.rows
        assert [r.epoch for r in rows] == [0, 1, 2, 3]
        assert [r.phase for r in rows] == ["warmup", "alternate", "alternate", "finetune"]

    def test_tau_column(self, small_bundle):
        rows = small_bundle.report.rows
        sched = small_bundle.cfg.schedule
        assert rows[0].tau == sched.tau0
        assert rows[1].tau == pytest.approx(sched.tau0, rel=1e-12)
        assert rows[2].tau == pytest.approx(sched.tau0 * sched.anneal_factor, rel=1e-12)
        # fine-tuning keeps reporting the last annealed temperature
        assert rows[3].tau == pytest.approx(rows[2].tau, rel=1e-12)

    def test_full_schedule_row_count_and_tau(self, main_bundle):
        rows = main_bundle.report.rows
        cfg = main_bundle.cfg
        assert len(rows) == cfg.total_epochs == 35
        assert rows[0].tau == cfg.schedule.tau0 == 5.0
        last_alt = [r for r in rows if r.phase == "alternate"][-1]
        assert last_alt.tau == pytest.approx(5.0 * 0.965**19, rel=1e-12)
        for r in rows:
            if r.phase == "finetune":
                assert r.tau == pytest.approx(last_alt.tau, rel=1e-12)

    def test_csv_layout(self, small_bundle):
        report = small_bundle.report
        text = report.to_csv()
        lines = text.splitlines()
        assert lines[0] == "epoch,phase,tau,loss,acc,sel_rate_k0,sel_rate_k1,compute_units"
        assert len(lines) == len(report.rows) + 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            int(fields[0])
            for field in fields[2:]:
                float(field)
        assert report.to_csv() == text  # serialization is stable

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_epochs=-1)
        with pytest.raises(ConfigError):
            TrainConfig(recog_momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(policy_betas=(0.9, 1.0))
        with pytest.raises(ConfigError):
            TrainConfig(train_segments=0)


class TestPhaseFreezing:
    def test_warmup_updates_recognition_only(self):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        policy0 = snapshot(model.policy_parameters())
        recog0 = snapshot(model.recog_parameters())
        train(model, tr, TrainConfig(warmup_epochs=2, alternate_epochs=0,
                                     finetune_epochs=0, seed=3))
        assert same_state(policy0, snapshot(model.policy_parameters()))
        assert not same_state(recog0, snapshot(model.recog_parameters()))

    def test_finetune_updates_recognition_only(self):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        policy0 = snapshot(model.policy_parameters())
        train(model, tr, TrainConfig(warmup_epochs=0, alternate_epochs=0,
                                     finetune_epochs=2, seed=3))
        assert same_state(policy0, snapshot(model.policy_parameters()))

    def test_alternation_strictly_interleaves(self):
        """Epoch 0 moves only the policy, epoch 1 only the recognizer."""
        spec, (tr, _) = tiny_world()
        init = fresh_model(spec, tr)
        policy0 = snapshot(init.policy_parameters())
        recog0 = snapshot(init.recog_parameters())

        one = fresh_model(spec, tr)
        train(one, tr, TrainConfig(warmup_epochs=0, alternate_epochs=1,
                                   finetune_epochs=0, seed=3))
        assert not same_state(policy0, snapshot(one.policy_parameters()))
        assert same_state(recog0, snapshot(one.recog_parameters()))

        two = fresh_model(spec, tr)
        train(two, tr, TrainConfig(warmup_epochs=0, alternate_epochs=2,
                                   finetune_epochs=0, seed=3))
        # the first epoch replays identically, the second touches only recog
        assert same_state(snapshot(one.policy_parameters()),
                          snapshot(two.policy_parameters()))
        assert not same_state(recog0, snapshot(two.recog_parameters()))

    def test_forced_training_never_touches_policy(self):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        policy0 = snapshot(model.policy_parameters())
        rows = []
        cfg = TrainConfig(warmup_epochs=1, alternate_epochs=2, finetune_epochs=1, seed=3)
        train_forced(model, tr, cfg, lambda shape, rng: np.ones(shape, dtype=np.int8),
                     rows=rows)
        assert same_state(policy0, snapshot(model.policy_parameters()))
        assert len(rows) == cfg.total_epochs
        assert all(r.phase == "forced" for r in rows)
        assert all(r.sel_rates == (1.0, 1.0) for r in rows)

    def test_no_alternation_degenerates_gracefully(self):
        """warmup+finetune only; the temperature column stays at tau0."""
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        _, report = train(model, tr, TrainConfig(warmup_epochs=1, alternate_epochs=0,
                                                 finetune_epochs=2, seed=3))
        assert [r.phase for r in report.rows] == ["warmup", "finetune", "finetune"]
        assert all(r.tau == 5.0 for r in report.rows)

    def test_zero_epochs_is_a_no_op(self):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        before = snapshot(model.parameters())
        _, report = train(model, tr, TrainConfig(warmup_epochs=0, alternate_epochs=0,
                                                 finetune_epochs=0, seed=3))
        assert report.rows == []
        assert same_state(before, snapshot(model.parameters()))

    def test_empty_dataset_rejected(self):
        spec, (tr, _) = tiny_world()
        empty = Dataset([], tr.n_classes, tr.recog_dims, tr.policy_dims, tr.segments)
        model = fresh_model(spec, tr)
        with pytest.raises(InputError):
            train(model, empty, TrainConfig(seed=3))
        with pytest.raises(InputError):
            train_forced(model, empty, TrainConfig(seed=3),
                         lambda shape, rng: np.ones(shape, dtype=np.int8))


class TestFrozenGroups:
    """Parameters outside the optimizer's group stay off the tape."""

    def _taped_params(self, model, monkeypatch):
        """Names of the parameters that each backward pass finds on its tape."""
        names = {id(p): name for name, p in model.parameters().items()}
        seen = []
        backward = ad.backward

        def recording(root):
            seen.append({names[id(t)] for rec in root.tape.records for t in rec.inputs
                         if id(t) in names})
            return backward(root)

        monkeypatch.setattr(ad, "backward", recording)
        return seen

    def test_finetune_tapes_no_policy_parameter(self, monkeypatch):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        seen = self._taped_params(model, monkeypatch)
        train(model, tr, TrainConfig(warmup_epochs=0, alternate_epochs=0,
                                     finetune_epochs=1, seed=3))
        assert seen and all(names and all(n.startswith("recog.") for n in names)
                            for names in seen)
        assert all(p.requires_grad and p.grad is None for p in model.parameters().values())

    def test_policy_epoch_tapes_no_recognition_parameter(self, monkeypatch):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        seen = self._taped_params(model, monkeypatch)
        train(model, tr, TrainConfig(warmup_epochs=0, alternate_epochs=1,
                                     finetune_epochs=0, seed=3))
        assert seen and all(names and all(n.startswith("policy.") for n in names)
                            for names in seen)
        assert all(p.requires_grad for p in model.parameters().values())

    def test_flags_come_back_when_an_epoch_raises(self, monkeypatch):
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(training, "forward_video", broken)
        with pytest.raises(RuntimeError):
            train(model, tr, TrainConfig(warmup_epochs=0, alternate_epochs=0,
                                         finetune_epochs=1, seed=3))
        assert all(p.requires_grad for p in model.parameters().values())

    def test_no_tape_outlives_its_epoch(self, monkeypatch):
        """Without the cyclic collector, every batch's tape is freed by the epoch's end."""
        made = []

        class Counted(ad.Tape):
            def __init__(self):
                super().__init__()
                made.append(weakref.ref(self))

        monkeypatch.setattr(ad, "Tape", Counted)
        spec, (tr, _) = tiny_world()
        model = fresh_model(spec, tr)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            train(model, tr, TrainConfig(warmup_epochs=1, alternate_epochs=2,
                                         finetune_epochs=1, seed=3))
            alive = sum(ref() is not None for ref in made)
        finally:
            if enabled:
                gc.enable()
        assert made and alive == 0


class TestWarmupQuality:
    def test_easy_world_is_learnable_by_warmup_alone(self):
        """With tiny noise, always-on fusion should nearly memorize the set."""
        spec, (tr, _) = tiny_world(n_videos=60, n_train=40, noise_sigma=0.1)
        model = fresh_model(spec, tr)
        rows = []
        from modgate.training import warmup

        warmup(model, tr, TrainConfig(warmup_epochs=20, seed=3), rows=rows)
        assert rows[-1].acc >= 0.9


class TestReproducibility:
    def test_rerun_is_bitwise_identical(self):
        spec, (tr, _) = tiny_world()
        cfg = TrainConfig(warmup_epochs=1, alternate_epochs=2, finetune_epochs=1, seed=3)
        m1, r1 = train(fresh_model(spec, tr), tr, cfg)
        m2, r2 = train(fresh_model(spec, tr), tr, cfg)
        assert r1.to_csv() == r2.to_csv()
        assert same_state(snapshot(m1.parameters()), snapshot(m2.parameters()))

    def test_seed_changes_the_trajectory(self):
        spec, (tr, _) = tiny_world()
        base = TrainConfig(warmup_epochs=1, alternate_epochs=2, finetune_epochs=1, seed=3)
        other = TrainConfig(warmup_epochs=1, alternate_epochs=2, finetune_epochs=1, seed=4)
        _, r1 = train(fresh_model(spec, tr), tr, base)
        _, r2 = train(fresh_model(spec, tr), tr, other)
        assert r1.to_csv() != r2.to_csv()

    def test_checkpoints_per_phase(self, tmp_path):
        spec, (tr, _) = tiny_world()
        cfg = TrainConfig(warmup_epochs=1, alternate_epochs=2, finetune_epochs=1, seed=3)
        prefix = str(tmp_path / "run")
        model, _ = train(fresh_model(spec, tr), tr, cfg, checkpoint_prefix=prefix)
        final = load_checkpoint(prefix + ".final")
        assert same_state(final, model.state())
        warm = load_checkpoint(prefix + ".warmup")
        assert set(warm) == set(final)
        assert not same_state(warm, final)
        load_checkpoint(prefix + ".alternate")  # present and well-formed


class TestMomentumSGD:
    def _param(self, values, grad):
        p = ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        p.grad = None if grad is None else np.asarray(grad, dtype=np.float64)
        return p

    def test_two_steps_hand_computed(self):
        p = self._param([1.0], [0.5])
        opt = MomentumSGD(lr=0.1, momentum=0.9, weight_decay=0.0)
        opt.step({"w": p})
        assert p.values[0] == pytest.approx(0.95, abs=1e-15)
        p.grad = np.array([0.5])
        opt.step({"w": p})
        # v2 = 0.9 * 0.5 + 0.5 = 0.95
        assert p.values[0] == pytest.approx(0.95 - 0.1 * 0.95, abs=1e-15)

    def test_weight_decay_pulls_toward_zero(self):
        p = self._param([2.0], [0.0])
        MomentumSGD(lr=0.1, momentum=0.0, weight_decay=0.1).step({"w": p})
        assert p.values[0] == pytest.approx(2.0 - 0.1 * 0.1 * 2.0, abs=1e-15)

    def test_none_grads_skipped(self):
        p = self._param([1.5], None)
        opt = MomentumSGD(lr=0.1)
        opt.step({"w": p})
        assert p.values[0] == 1.5
        assert opt.velocity == {}


class TestAdam:
    def _param(self, values, grad):
        p = ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        p.grad = np.asarray(grad, dtype=np.float64)
        return p

    def test_first_step_size_is_about_lr(self):
        for g in (0.3, -4.0, 2e-3):
            p = self._param([1.0], [g])
            Adam(lr=0.01).step({"w": p})
            assert abs(p.values[0] - 1.0) == pytest.approx(0.01, rel=1e-4)
            assert np.sign(1.0 - p.values[0]) == np.sign(g)

    def test_two_steps_match_reference_formula(self):
        lr, (b1, b2), eps = 0.005, (0.9, 0.999), 1e-8
        grads = [np.array([0.7, -0.2]), np.array([0.1, 0.4])]
        p = self._param([0.3, -1.2], grads[0])
        opt = Adam(lr=lr, betas=(b1, b2), eps=eps)

        ref = np.array([0.3, -1.2])
        m = np.zeros(2)
        v = np.zeros(2)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step({"w": p})
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(p.values, ref, rtol=1e-12)

    def test_zero_gradient_is_stationary(self):
        p = self._param([0.7], [0.0])
        Adam(lr=0.01).step({"w": p})
        assert p.values[0] == 0.7

    def test_no_weight_decay_in_adam(self):
        # the policy optimizer must not shrink parameters on zero gradients
        p = self._param([5.0], [0.0])
        opt = Adam(lr=0.1)
        for _ in range(10):
            p.grad = np.array([0.0])
            opt.step({"w": p})
        assert p.values[0] == 5.0
