"""Three-phase optimization: recognition warm-up, alternating policy and
recognition updates under an annealed relaxation, then fine-tuning on the
frozen routes.

Every source of randomness is derived from the config seed: the example order
for epoch e comes from ``default_rng([seed, 1000 + e])``, and each example's
segment jitter plus its policy noise come from ``default_rng([seed, e, idx])``.
Reports are therefore byte-reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .datagen import subsample
from .errors import ConfigError, InputError
from .gumbel import TemperatureSchedule, sample_gumbel
from .model import forward_video
from .objective import CostModel, batch_mean, cross_entropy, simulated_compute, total_loss
from .policy import EVAL_DETERMINISTIC, TRAIN_STOCHASTIC


@dataclass
class TrainConfig:
    """Schedule lengths, optimizer settings, and the annealing plan."""

    warmup_epochs: int = 5
    alternate_epochs: int = 20
    finetune_epochs: int = 10
    train_segments: int = 5
    eval_segments: int = 10
    batch_size: int = 8
    policy_lr: float = 1e-3
    policy_betas: tuple = (0.9, 0.999)
    recog_lr: float = 1e-2
    recog_momentum: float = 0.9
    recog_weight_decay: float = 1e-4
    schedule: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    seed: int = 0

    def __post_init__(self):
        for name in ("warmup_epochs", "alternate_epochs", "finetune_epochs"):
            if int(getattr(self, name)) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.train_segments < 1 or self.eval_segments < 1:
            raise ConfigError("segment counts must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.policy_lr <= 0.0 or self.recog_lr <= 0.0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.recog_momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.recog_weight_decay < 0.0:
            raise ConfigError("weight decay must be >= 0")
        b1, b2 = self.policy_betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError("betas must lie in [0, 1)")

    @property
    def total_epochs(self):
        return self.warmup_epochs + self.alternate_epochs + self.finetune_epochs


class MomentumSGD:
    """Momentum descent; weight decay is folded into the raw gradient."""

    def __init__(self, lr, momentum=0.9, weight_decay=0.0):
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {}

    def step(self, params):
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.values
            prev = self.velocity.get(name)
            v = g if prev is None else self.momentum * prev + g
            self.velocity[name] = v
            p.values = p.values - self.lr * v


class Adam:
    """Adaptive-moment descent with bias correction."""

    def __init__(self, lr, betas=(0.9, 0.999), eps=1e-8):
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params):
        self.t += 1
        b1, b2 = self.betas
        for name in sorted(params):
            p = params[name]
            if p.grad is None:
                continue
            g = p.grad
            m = b1 * self.m.get(name, 0.0) + (1.0 - b1) * g
            v = b2 * self.v.get(name, 0.0) + (1.0 - b2) * g * g
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            p.values = p.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class EpochRow:
    epoch: int
    phase: str
    tau: float
    loss: float
    acc: float
    sel_rates: tuple
    compute: float


@dataclass
class TrainReport:
    """Per-epoch training trace, serializable as a fixed-format CSV."""

    rows: list
    n_modalities: int

    def header(self):
        sel = ",".join(f"sel_rate_k{k}" for k in range(self.n_modalities))
        return f"epoch,phase,tau,loss,acc,{sel},compute_units"

    def to_csv(self):
        lines = [self.header()]
        for r in self.rows:
            sel = ",".join(f"{s:.6f}" for s in r.sel_rates)
            lines.append(
                f"{r.epoch},{r.phase},{r.tau:.6f},{r.loss:.6f},{r.acc:.6f},{sel},{r.compute:.6f}"
            )
        return "\n".join(lines) + "\n"


def _video_list(data):
    return list(data.videos) if hasattr(data, "videos") else list(data)


def default_cost(model, cfg):
    return CostModel(
        lams=[m.lam for m in model.modalities],
        train_segments=cfg.train_segments,
    )


def all_on(shape, rng):
    """Gates that keep every cell on (warm-up and weighted fusion)."""
    return np.ones(shape, dtype=np.int8)


@contextmanager
def _frozen(params):
    """Switch ``requires_grad`` off on ``params`` for the block, then restore it."""
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, saved):
            p.requires_grad = flag


def _run_epoch(model, videos, cfg, cost, epoch, phase, tau, optimizer, group, forced=None):
    """One pass over the data; returns the trace row.

    With a ``cost`` the policy rolls out train-stochastic and each video pays
    ``total_loss``; without one it rolls out deterministically and pays the
    cross-entropy.  ``group`` is the parameter dict the optimizer may touch.
    Every other parameter is frozen for the epoch (``requires_grad`` off,
    restored on exit), so it stays off the tape and keeps its values bit for
    bit.
    ``forced`` overrides the policy with a callable ``(shape, rng) -> U`` for
    warm-up and baseline schedules.
    """
    order = np.random.default_rng([cfg.seed, 1000 + epoch]).permutation(len(videos))
    K = len(model.modalities)
    loss_sum = 0.0
    n_correct = 0
    selected = np.zeros(K)
    slots = 0
    compute_sum = 0.0
    frozen = [p for name, p in model.parameters().items() if name not in group]
    with _frozen(frozen):
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses = []
            with ad.Tape() as tape:
                for idx in batch:
                    video = videos[idx]
                    rng = np.random.default_rng([cfg.seed, epoch, int(idx)])
                    n_take = min(cfg.train_segments, video.n_segments)
                    positions = np.sort(rng.choice(video.n_segments, size=n_take, replace=False))
                    clip = subsample(video, positions)
                    if forced is not None:
                        fw = forward_video(model, clip, forced_gates=forced((n_take, K), rng))
                    elif cost is not None:
                        noise = sample_gumbel((n_take, model.policy.n_heads, 2), rng)
                        fw = forward_video(
                            model, clip, mode=TRAIN_STOCHASTIC, tau=tau, noise=noise
                        )
                    else:
                        fw = forward_video(model, clip, mode=EVAL_DETERMINISTIC)
                    if cost is not None:
                        loss = total_loss(fw.logits, video.label, fw.decisions, cost)
                    else:
                        loss = cross_entropy(fw.logits, video.label)
                    losses.append(loss)
                    loss_sum += float(loss.values)
                    n_correct += int(np.argmax(fw.prediction.values) == video.label)
                    selected += fw.decisions.U.sum(axis=0)
                    slots += n_take
                    compute_sum += simulated_compute(fw.decisions.U, model.modalities)
                objective = batch_mean(losses)
                # A batch whose routes never execute anything yields a constant
                # fallback prediction; there is nothing to differentiate then.
                if objective.requires_grad:
                    ad.backward(objective)
            # Each record's output points back at the tape: empty it so that
            # reference counting frees the batch's graph now, not the cyclic GC.
            tape.records.clear()
            if objective.requires_grad:
                optimizer.step(group)
            model.zero_grad()
    n = len(videos)
    return EpochRow(
        epoch=epoch,
        phase=phase,
        tau=tau,
        loss=loss_sum / n,
        acc=n_correct / n,
        sel_rates=tuple(selected / slots),
        compute=compute_sum / n,
    )


def warmup(model, data, cfg, opt=None, rows=None, epoch_offset=0):
    """Train recognition alone with every modality forced on (cross-entropy)."""
    videos = _video_list(data)
    if not videos:
        raise InputError("cannot train on an empty dataset")
    opt = opt or MomentumSGD(cfg.recog_lr, cfg.recog_momentum, cfg.recog_weight_decay)
    for e in range(cfg.warmup_epochs):
        row = _run_epoch(
            model, videos, cfg, None, epoch_offset + e, "warmup", cfg.schedule.tau0,
            opt, model.recog_parameters(), forced=all_on,
        )
        if rows is not None:
            rows.append(row)
    return model


def alternate(model, data, cfg, cost=None, policy_opt=None, recog_opt=None,
              rows=None, epoch_offset=0):
    """Alternate per-epoch: even epochs update the policy, odd the recognizer.

    Both parities minimize the full objective on stochastic rollouts with
    fresh noise per example, at the annealed temperature for that epoch.
    """
    videos = _video_list(data)
    if not videos:
        raise InputError("cannot train on an empty dataset")
    cost = cost or default_cost(model, cfg)
    policy_opt = policy_opt or Adam(cfg.policy_lr, cfg.policy_betas)
    recog_opt = recog_opt or MomentumSGD(cfg.recog_lr, cfg.recog_momentum, cfg.recog_weight_decay)
    for e in range(cfg.alternate_epochs):
        tau = cfg.schedule.tau_at(e)
        policy_turn = e % 2 == 0
        row = _run_epoch(
            model, videos, cfg, cost, epoch_offset + e, "alternate", tau,
            policy_opt if policy_turn else recog_opt,
            model.policy_parameters() if policy_turn else model.recog_parameters(),
        )
        if rows is not None:
            rows.append(row)
    return model


def _final_tau(cfg):
    if cfg.alternate_epochs > 0:
        return cfg.schedule.tau_at(cfg.alternate_epochs - 1)
    return cfg.schedule.tau0


def finetune(model, data, cfg, opt=None, rows=None, epoch_offset=0):
    """Retrain recognition under the frozen policy's deterministic routes."""
    videos = _video_list(data)
    if not videos:
        raise InputError("cannot train on an empty dataset")
    opt = opt or MomentumSGD(cfg.recog_lr, cfg.recog_momentum, cfg.recog_weight_decay)
    tau = _final_tau(cfg)
    for e in range(cfg.finetune_epochs):
        row = _run_epoch(
            model, videos, cfg, None, epoch_offset + e, "finetune", tau,
            opt, model.recog_parameters(),
        )
        if rows is not None:
            rows.append(row)
    return model


def train(model, data, cfg, cost=None, checkpoint_prefix=None):
    """Run warm-up, alternation, and fine-tuning; return (model, report).

    With ``checkpoint_prefix`` given, parameters are saved after each phase to
    ``prefix + '.warmup' / '.alternate' / '.final'``.
    """
    videos = _video_list(data)
    if not videos:
        raise InputError("cannot train on an empty dataset")
    cost = cost or default_cost(model, cfg)
    rows = []
    recog_opt = MomentumSGD(cfg.recog_lr, cfg.recog_momentum, cfg.recog_weight_decay)
    policy_opt = Adam(cfg.policy_lr, cfg.policy_betas)

    warmup(model, videos, cfg, opt=recog_opt, rows=rows, epoch_offset=0)
    if checkpoint_prefix:
        model.save(checkpoint_prefix + ".warmup")
    alternate(
        model, videos, cfg, cost=cost, policy_opt=policy_opt, recog_opt=recog_opt,
        rows=rows, epoch_offset=cfg.warmup_epochs,
    )
    if checkpoint_prefix:
        model.save(checkpoint_prefix + ".alternate")
    finetune(
        model, videos, cfg, opt=recog_opt, rows=rows,
        epoch_offset=cfg.warmup_epochs + cfg.alternate_epochs,
    )
    if checkpoint_prefix:
        model.save(checkpoint_prefix + ".final")
    return model, TrainReport(rows=rows, n_modalities=len(model.modalities))


def train_forced(model, data, cfg, gate_fn, rows=None):
    """Train recognition only, for the full epoch budget, under forced gates.

    ``gate_fn(shape, rng)`` supplies the 0/1 selection matrix per example per
    epoch; the policy network is never consulted or updated.  Baselines
    (always-on fusion, unimodal, random selection) are all schedules of this
    form.
    """
    videos = _video_list(data)
    if not videos:
        raise InputError("cannot train on an empty dataset")
    opt = MomentumSGD(cfg.recog_lr, cfg.recog_momentum, cfg.recog_weight_decay)
    for e in range(cfg.total_epochs):
        row = _run_epoch(
            model, videos, cfg, None, e, "forced", cfg.schedule.tau0,
            opt, model.recog_parameters(), forced=gate_fn,
        )
        if rows is not None:
            rows.append(row)
    return model
