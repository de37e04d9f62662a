"""The package's ten headline guarantees, one test and one verdict line each.

Criteria 1-4 are exact mathematical properties (gradients, sampling laws,
limits); 5-8 are quantitative claims about trained behavior measured over
three seeds; 9-10 pin reproducibility and on-disk format integrity.
"""

import time

import numpy as np
import pytest

from conftest import SEEDS, bundle_for, split_world
from modgate import autodiff as ad
from modgate import verify
from modgate.checkpoint import load_checkpoint, save_checkpoint
from modgate.cli import main
from modgate.datagen import GenSpec, generate, load_dataset, save_dataset
from modgate.errors import DataFormatError
from modgate.evaluation import evaluate, evaluate_with_audit
from modgate.gumbel import sample_gumbel
from modgate.model import Model, ModelConfig, forward_video
from modgate.objective import CostModel, total_loss
from modgate.policy import TRAIN_STOCHASTIC
from modgate.training import TrainConfig, train

_AUDIT_CACHE = {}
_SWEEP_CACHE = {}


def _verdict(num, name, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {name} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _audit_f1(seed):
    """Expensive-modality F1 on sparse low-noise data, full schedule."""
    if seed not in _AUDIT_CACHE:
        spec = GenSpec(n_videos=600, informative_probs=[0.3, 0.1],
                       noise_sigma=0.2, seed=seed)
        train_data, eval_data = split_world(spec, 400)
        model = Model(spec.modalities, train_data.n_classes, seed=seed)
        model, _ = train(model, train_data, TrainConfig(seed=seed))
        report = evaluate_with_audit(model, eval_data, seed=seed)
        _AUDIT_CACHE[seed] = report.f1[0]
    return _AUDIT_CACHE[seed]


def _selection_rate_at(seed, lam_expensive):
    """Eval selection rate of the expensive modality after a full schedule."""
    key = (seed, lam_expensive)
    if key not in _SWEEP_CACHE:
        spec = GenSpec(n_videos=300, seed=seed)
        train_data, eval_data = split_world(spec, 200)
        cfg = TrainConfig(seed=seed)
        cost = CostModel(lams=[lam_expensive, spec.modalities[1].lam],
                         train_segments=cfg.train_segments)
        model = Model(spec.modalities, train_data.n_classes, seed=seed)
        model, _ = train(model, train_data, cfg, cost=cost)
        report = evaluate(model, eval_data, seed=seed)
        _SWEEP_CACHE[key] = report.selection_rates[0]
    return _SWEEP_CACHE[key]


class TestAcceptance:
    def test_01_full_objective_gradients(self):
        """Analytic gradients of the whole training loss, every parameter."""
        start = time.perf_counter()
        spec = GenSpec(n_videos=1, segments=5, n_classes=4, seed=0)
        video = generate(spec).videos[0]
        small = ModelConfig(extractor_hidden=6, feature_width=8,
                            lstm_hidden=5, recog_hidden=7)
        model = Model(spec.modalities, 4, config=small, seed=0)
        noise = sample_gumbel((5, model.policy.n_heads, 2),
                              np.random.default_rng([0, 77]))
        cost = CostModel(lams=[0.3, 0.2], train_segments=5)

        def full_loss(_):
            fw = forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0,
                               noise=noise, soft_gates=True)
            return total_loss(fw.logits, video.label, fw.decisions, cost)

        worst = 0.0
        params = model.parameters()
        for name in sorted(params):
            rep = ad.grad_check(full_loss, params[name], tol=1e-4)
            worst = max(worst, rep.max_rel_error)
        elapsed = time.perf_counter() - start
        _verdict(1, "full-objective gradients",
                 worst <= 1e-4 and elapsed < 60.0,
                 f"max rel err {worst:.2e} over {len(params)} parameter "
                 f"groups in {elapsed:.1f}s")

    def test_02_noisy_argmax_law(self):
        start = time.perf_counter()
        passed, detail = verify.check_gumbel_max_marginal(seed=0)
        elapsed = time.perf_counter() - start
        _verdict(2, "noisy-argmax frequencies", passed and elapsed < 10.0,
                 f"{detail}, {elapsed:.1f}s")

    def test_03_straight_through_identities(self):
        passed, detail = verify.check_straight_through(seed=0)
        _verdict(3, "straight-through identities", passed, detail)

    def test_04_temperature_limits(self):
        passed, detail = verify.check_temperature_limits(seed=0)
        _verdict(4, "temperature limits", passed, detail)

    def test_05_accuracy_compute_tradeoff(self):
        """Near-fusion accuracy at a large compute discount, 2 of 3 seeds."""
        hits, parts = 0, []
        for seed in SEEDS:
            b = bundle_for(seed)
            saving = 1.0 - b.adaptive.mean_compute / b.fusion.mean_compute
            ok = (b.adaptive.top1 >= b.fusion.top1 - 0.01) and saving >= 0.30
            hits += ok
            parts.append(f"seed {seed}: acc {b.adaptive.top1:.3f} vs fusion "
                         f"{b.fusion.top1:.3f}, saving {saving:.0%}")
        runtime = sum(bundle_for(s).build_seconds for s in SEEDS)
        _verdict(5, "accuracy/compute trade-off",
                 hits >= 2 and runtime < 900.0,
                 "; ".join(parts) + f"; {runtime:.0f}s total")

    def test_06_learned_beats_random(self):
        hits, parts = 0, []
        for seed in SEEDS:
            b = bundle_for(seed)
            margin = b.adaptive.top1 - b.random.top1
            hits += margin >= 0.02
            parts.append(f"seed {seed}: +{margin:.3f}")
        _verdict(6, "learned beats random-50%", hits >= 2, "; ".join(parts))

    def test_07_policy_tracks_planted_masks(self):
        hits, parts = 0, []
        for seed in SEEDS:
            f1 = _audit_f1(seed)
            hits += f1 >= 0.8
            parts.append(f"seed {seed}: F1 {f1:.3f}")
        _verdict(7, "policy audit on the expensive modality", hits >= 2,
                 "; ".join(parts))

    def test_08_penalty_weight_monotonicity(self):
        """A costlier penalty can only reduce that modality's usage."""
        lams = (0.05, 0.5, 1.0)
        all_ok, parts = True, []
        for seed in SEEDS:
            rates = [_selection_rate_at(seed, lam) for lam in lams]
            rises = [r2 - r1 for r1, r2 in zip(rates, rates[1:]) if r2 > r1]
            ok = len(rises) <= 1 and all(r <= 0.02 for r in rises)
            all_ok = all_ok and ok
            parts.append("seed %d: %s" % (seed, "/".join(f"{r:.3f}" for r in rates)))
        _verdict(8, "penalty-weight monotonicity", all_ok, "; ".join(parts))

    def test_09_training_is_byte_deterministic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nn_videos = 60\n")
        data = tmp_path / "d.bin"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        outs = []
        for stem in ("first", "second"):
            prefix = tmp_path / stem
            assert main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(prefix)]) == 0
            outs.append(prefix)
        csv_same = (open(str(outs[0]) + ".csv", "rb").read()
                    == open(str(outs[1]) + ".csv", "rb").read())
        ckpt_same = (open(str(outs[0]) + ".final", "rb").read()
                     == open(str(outs[1]) + ".final", "rb").read())
        _verdict(9, "byte-deterministic training", csv_same and ckpt_same,
                 f"csv identical: {csv_same}, final checkpoint identical: {ckpt_same}")

    def test_10_format_integrity(self, tmp_path):
        problems = []

        data = generate(GenSpec(n_videos=6, seed=1))
        path = tmp_path / "d.bin"
        save_dataset(data, str(path))
        back = load_dataset(str(path))
        for orig, copy in zip(data.videos, back.videos):
            if orig.label != copy.label or not np.array_equal(orig.mask, copy.mask):
                problems.append("dataset labels/masks changed in flight")
                break
            for k in range(data.n_modalities):
                if not (np.array_equal(orig.recog_views[k], copy.recog_views[k])
                        and np.array_equal(orig.policy_views[k], copy.policy_views[k])):
                    problems.append("dataset views changed in flight")
                    break

        model = Model(GenSpec(n_videos=1, seed=1).modalities, data.n_classes,
                      config=ModelConfig(extractor_hidden=4, feature_width=6,
                                         lstm_hidden=4, recog_hidden=6),
                      seed=1)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model.state(), str(ckpt))
        restored = load_checkpoint(str(ckpt))
        for name, values in model.state().items():
            if not np.array_equal(values, restored[name]):
                problems.append(f"checkpoint parameter {name} changed in flight")

        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"XX" + path.read_bytes()[2:])
        with pytest.raises(DataFormatError):
            load_dataset(str(corrupt))
        code = main(["train", "--seed", "1", "--data", str(corrupt),
                     "--out", str(tmp_path / "t")])
        if code != 3:
            problems.append(f"corrupt dataset exit code {code} != 3")

        bad_ckpt = tmp_path / "corrupt.ckpt"
        bad_ckpt.write_bytes(b"XX" + ckpt.read_bytes()[2:])
        with pytest.raises(DataFormatError):
            load_checkpoint(str(bad_ckpt))
        code = main(["eval", "--checkpoint", str(bad_ckpt), "--data", str(path),
                     "--seed", "1"])
        if code != 3:
            problems.append(f"corrupt checkpoint exit code {code} != 3")

        _verdict(10, "format round-trips and corruption handling",
                 not problems, "; ".join(problems) or
                 "dataset and checkpoint round-trips bitwise, corrupt headers exit 3")
