"""Held-out metrics, planted-mask audits, and the reference baselines.

Evaluation always samples a fixed, uniformly spaced subset of segments per
video, rolls the policy deterministically unless told otherwise, and accounts
simulated compute alongside accuracy so the efficiency/accuracy trade-off is
one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import subsample
from .errors import ConfigError, InputError
from .model import Model, ModelConfig, check_compatible, forward_video
from .objective import simulated_compute
from .policy import EVAL_DETERMINISTIC, TRAIN_STOCHASTIC, ROLLOUT_MODES
from .training import all_on, train, train_forced


@dataclass
class EvalReport:
    """Accuracy, per-modality usage, compute, and (optionally) mask audits."""

    top1: float
    selection_rates: list
    selected_counts: list
    mean_compute: float
    n_videos: int
    eval_segments: int
    executions: int
    modality_names: list
    precision: list | None = None
    recall: list | None = None
    f1: list | None = None
    # per-video (T, K) hard decisions in dataset order: what the report describes
    decisions: list = field(default_factory=list, repr=False, compare=False)

    def rows(self):
        out = [("top1", "", self.top1)]
        for k, name in enumerate(self.modality_names):
            out.append(("selection_rate", name, self.selection_rates[k]))
        out.append(("mean_compute", "", self.mean_compute))
        if self.precision is not None:
            for metric, values in (
                ("precision", self.precision),
                ("recall", self.recall),
                ("f1", self.f1),
            ):
                for k, name in enumerate(self.modality_names):
                    out.append((metric, name, values[k]))
        return out

    def to_csv(self):
        lines = ["metric,modality,value"]
        for metric, modality, value in self.rows():
            lines.append(f"{metric},{modality},{value:.6f}")
        return "\n".join(lines) + "\n"


def comparison_csv(named_reports):
    """One CSV over several baselines: ``metric,modality,value,baseline``."""
    lines = ["metric,modality,value,baseline"]
    for name, report in named_reports:
        for metric, modality, value in report.rows():
            lines.append(f"{metric},{modality},{value:.6f},{name}")
    return "\n".join(lines) + "\n"


def uniform_segment_indices(total, wanted):
    """Evenly spaced segment positions, the whole video when it is short."""
    if wanted >= total:
        return np.arange(total)
    return np.floor(np.arange(wanted) * total / wanted).astype(int)


def evaluate(model, dataset, eval_segments=10, mode=EVAL_DETERMINISTIC, seed=0,
             forced_gates=None):
    """Aggregate accuracy, selection rates, and compute over a dataset.

    ``forced_gates`` replaces the policy with a callable ``(shape, rng) -> U``
    evaluated per video (baseline schedules); the per-video generator is
    derived from ``seed`` so stochastic baselines are reproducible.
    """
    if mode not in ROLLOUT_MODES or mode == TRAIN_STOCHASTIC:
        raise ConfigError(f"unsupported evaluation mode {mode!r}")
    check_compatible(model.modalities, dataset, model.n_classes)
    if not dataset.videos:
        raise InputError("cannot evaluate on an empty dataset")
    K = len(model.modalities)
    executed_before = model.recog.executions
    n_correct = 0
    decisions = []
    for i, video in enumerate(dataset.videos):
        clip = subsample(video, uniform_segment_indices(video.n_segments, eval_segments))
        rng = np.random.default_rng([seed, 4000, i])  # a deterministic rollout never reads it
        gates = None if forced_gates is None else forced_gates((clip.n_segments, K), rng)
        fw = forward_video(model, clip, mode=mode, rng=rng, forced_gates=gates)
        n_correct += int(np.argmax(fw.prediction.values) == video.label)
        decisions.append(fw.decisions.U)
    executions = model.recog.executions - executed_before

    selected = np.zeros(K)
    slots = 0
    compute_sum = 0.0
    for U in decisions:
        selected += U.sum(axis=0)
        slots += U.shape[0]
        compute_sum += simulated_compute(U, model.modalities)
    n = len(decisions)
    return EvalReport(
        top1=n_correct / n,
        selection_rates=list(selected / slots),
        selected_counts=[int(c) for c in selected],
        mean_compute=compute_sum / n,
        n_videos=n,
        eval_segments=min(eval_segments, dataset.segments),
        executions=executions,
        modality_names=[m.name for m in model.modalities],
        decisions=decisions,
    )


def _mask_scores(decisions, dataset, eval_segments):
    """Per-modality precision/recall/F1 of per-video decisions against planted masks.

    Every (video, segment, modality) slot counts once; a modality never
    selected gets precision 0 by convention (not NaN), and likewise for recall
    when the mask never marks it.
    """
    truth = []
    for video in dataset.videos:
        if video.mask is None:
            raise InputError("policy audit needs generated data with planted masks")
        truth.append(video.mask[uniform_segment_indices(video.n_segments, eval_segments)])
    picked = np.concatenate(decisions).astype(bool)
    truth = np.concatenate(truth)
    tp = (picked & truth).sum(axis=0)
    fp = (picked & ~truth).sum(axis=0)
    fn = (~picked & truth).sum(axis=0)
    precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
    recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    both = precision + recall
    f1 = np.where(both > 0, 2 * precision * recall / np.maximum(both, 1e-300), 0.0)
    return list(precision), list(recall), list(f1)


def audit_policy(model, dataset, eval_segments=10):
    """Precision/recall/F1 of the deterministic policy against planted masks."""
    check_compatible(model.modalities, dataset, model.n_classes)
    if not dataset.videos:
        raise InputError("cannot audit on an empty dataset")
    decisions = [
        forward_video(
            model, subsample(video, uniform_segment_indices(video.n_segments, eval_segments))
        ).decisions.U
        for video in dataset.videos
    ]
    return _mask_scores(decisions, dataset, eval_segments)


def evaluate_with_audit(model, dataset, eval_segments=10, mode=EVAL_DETERMINISTIC, seed=0):
    """evaluate() plus, when the dataset carries masks, the audit of its decisions."""
    report = evaluate(model, dataset, eval_segments=eval_segments, mode=mode, seed=seed)
    if all(v.mask is not None for v in dataset.videos):
        report.precision, report.recall, report.f1 = _mask_scores(
            report.decisions, dataset, eval_segments
        )
    return report


BASELINE_KINDS = ("weighted-fusion", "random-policy", "joint-skip-policy")


def _coin_flip(shape, rng):
    return (rng.random(shape) < 0.5).astype(np.int8)


def _column_only(k):
    def gates(shape, rng):
        U = np.zeros(shape, dtype=np.int8)
        U[:, k] = 1
        return U

    return gates


_FORCED_GATES = {"weighted-fusion": all_on, "random-policy": _coin_flip}


def run_baseline(kind, train_data, eval_data, modalities, cfg, model_config=None,
                 cost=None):
    """Train and evaluate one reference schedule; returns (model, EvalReport).

    ``unimodal-<k>`` trains sub-network k alone, ``weighted-fusion`` keeps
    every modality on, ``random-policy`` uses fresh 50% coin flips per slot at
    both training and evaluation time, and ``joint-skip-policy`` is the full
    adaptive method restricted to one shared keep/skip gate per segment.
    All schedules get the same epoch budget as the adaptive method.
    """
    n_classes = train_data.n_classes
    if kind == "joint-skip-policy":
        joint = replace(model_config or ModelConfig(), joint_skip=True)
        model = Model(modalities, n_classes, joint, seed=cfg.seed)
        train(model, train_data, cfg, cost=cost)
        return model, evaluate(model, eval_data, eval_segments=cfg.eval_segments, seed=cfg.seed)
    if kind.startswith("unimodal-"):
        k = int(kind.split("-", 1)[1])
        if not 0 <= k < len(modalities):
            raise ConfigError(f"unimodal baseline index {k} out of range")
        gates = _column_only(k)
    elif kind in _FORCED_GATES:
        gates = _FORCED_GATES[kind]
    else:
        raise ConfigError(f"unknown baseline kind {kind!r}")
    model = Model(modalities, n_classes, model_config, seed=cfg.seed)
    train_forced(model, train_data, cfg, gates)
    report = evaluate(
        model, eval_data, eval_segments=cfg.eval_segments, forced_gates=gates, seed=cfg.seed
    )
    return model, report


def compare(train_data, eval_data, modalities, cfg, model_config=None, cost=None,
            eval_mode=EVAL_DETERMINISTIC):
    """The adaptive method against its reference schedules, one report each.

    Returns a list of (name, EvalReport): adaptive first, then weighted
    fusion, one unimodal row per modality, and the random-50% policy.
    """
    adaptive = Model(modalities, train_data.n_classes, model_config, seed=cfg.seed)
    train(adaptive, train_data, cfg, cost=cost)
    named = [(
        "adaptive",
        evaluate(adaptive, eval_data, eval_segments=cfg.eval_segments,
                 mode=eval_mode, seed=cfg.seed),
    )]
    _, wf = run_baseline("weighted-fusion", train_data, eval_data, modalities, cfg,
                         model_config=model_config)
    named.append(("weighted-fusion", wf))
    for k, spec in enumerate(modalities):
        _, uni = run_baseline(f"unimodal-{k}", train_data, eval_data, modalities, cfg,
                              model_config=model_config)
        named.append((f"unimodal-{spec.name}", uni))
    _, rnd = run_baseline("random-policy", train_data, eval_data, modalities, cfg,
                          model_config=model_config)
    named.append(("random-policy", rnd))
    return named
