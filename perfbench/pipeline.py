"""One round of the path a user takes, with every step timed.

generate -> save -> load -> warm-up -> alternation -> fine-tune -> save the
checkpoint -> load it back and evaluate with the mask audit (what
``modgate eval`` does).  The round calls only public functions of
``modgate.datagen``, ``modgate.model``, ``modgate.training``,
``modgate.evaluation`` and ``modgate.checkpoint`` (through ``Model.save`` and
``model_from_checkpoint``), always through the module attribute, so that a
traced run can swap in its wrappers.
"""

from __future__ import annotations

import gc
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from modgate import datagen, evaluation, model as model_mod, training
from modgate.policy import EVAL_DETERMINISTIC

# the timed steps of a round, in order; each sample of a step counts as one
# attempted operation
STEPS = ("generate", "save", "load", "warmup", "alternate", "finetune",
         "checkpoint_save", "eval")


def operations(workload):
    """Operations one round attempts."""
    return 3 * workload.data_repeats + len(STEPS) - 3


@dataclass
class Round:
    seconds: dict = field(default_factory=dict)  # step -> samples -> piece seconds
    executions: dict = field(default_factory=dict)  # phase -> executions counter delta
    policy_before: dict = field(default_factory=dict)  # phase -> policy state before it
    policy_after: dict = field(default_factory=dict)  # phase -> policy state after it
    generated: object = None
    loaded: object = None
    train_data: object = None
    eval_data: object = None
    model: object = None
    rows: list = field(default_factory=list)
    eval_model: object = None
    report: object = None
    data_path: str = ""
    checkpoint_path: str = ""


def new_model(inputs, seed):
    modalities, gen, model_config, _ = inputs
    return model_mod.Model(modalities, gen.n_classes, model_config, seed=seed)


def _policy_state(model):
    return {name: p.values.copy() for name, p in model.policy_parameters().items()}


# calls that mark a boundary between pieces of a timed step: one optimizer
# step per training batch, one forward_video per evaluated video
BOUNDARIES = ((training.MomentumSGD, "step"), (training.Adam, "step"),
              (evaluation, "forward_video"))


@contextmanager
def _boundaries(marks):
    """Append a clock read to ``marks`` at the start of every boundary call."""
    clock = time.perf_counter

    def marking(fn):
        def marked(*args, **kwargs):
            marks.append(clock())
            return fn(*args, **kwargs)

        return marked

    saved = [(owner, attr, vars(owner)[attr]) for owner, attr in BOUNDARIES]
    for owner, attr, original in saved:
        setattr(owner, attr, marking(original))
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _pieces(run, marks):
    """Run ``run()`` and return the intervals between its start, every
    boundary inside it, and its end."""
    gc.collect()
    marks.clear()
    marks.append(time.perf_counter())
    run()
    marks.append(time.perf_counter())
    return [b - a for a, b in zip(marks, marks[1:])]


def run_round(workload, inputs, model, seed, workdir):
    """Run every step once on a freshly initialized ``model``; returns a Round.

    ``Round.seconds[step]`` lists the step's samples, each a list of pieces
    (see ``step_seconds``).  The data steps are short, so each runs
    ``data_repeats`` times, every repetition one single-piece sample that
    rebuilds the same dataset.  The training phases and evaluation run once;
    their pieces end at each training batch and each evaluated video.
    """
    modalities, gen, _, cfg = inputs
    out = Round(model=model)
    out.data_path = os.path.join(workdir, "data.bin")
    out.checkpoint_path = os.path.join(workdir, "run.final")
    marks = []

    def generate():
        out.generated = datagen.generate(gen)

    def load():
        out.loaded = datagen.load_dataset(out.data_path)

    for step in ("generate", "save", "load"):
        out.seconds[step] = []
    for _ in range(workload.data_repeats):
        out.seconds["generate"].append(_pieces(generate, marks))
        out.seconds["save"].append(
            _pieces(lambda: datagen.save_dataset(out.generated, out.data_path), marks))
        out.seconds["load"].append(_pieces(load, marks))

    loaded = out.loaded
    n_train, n_eval = workload.n_train, workload.n_eval

    def part(videos):
        return datagen.Dataset(videos, loaded.n_classes, loaded.recog_dims,
                               loaded.policy_dims, loaded.segments)

    out.train_data = part(loaded.videos[:n_train])
    out.eval_data = part(loaded.videos[n_train:n_train + n_eval])

    # the optimizers and epoch offsets that training.train uses
    cost = training.default_cost(model, cfg)
    recog_opt = training.MomentumSGD(cfg.recog_lr, cfg.recog_momentum, cfg.recog_weight_decay)
    policy_opt = training.Adam(cfg.policy_lr, cfg.policy_betas)
    phases = (
        ("warmup", lambda: training.warmup(
            model, out.train_data, cfg, opt=recog_opt, rows=out.rows, epoch_offset=0)),
        ("alternate", lambda: training.alternate(
            model, out.train_data, cfg, cost=cost, policy_opt=policy_opt,
            recog_opt=recog_opt, rows=out.rows, epoch_offset=cfg.warmup_epochs)),
        ("finetune", lambda: training.finetune(
            model, out.train_data, cfg, opt=recog_opt, rows=out.rows,
            epoch_offset=cfg.warmup_epochs + cfg.alternate_epochs)),
    )

    def evaluate():
        out.eval_model = model_mod.model_from_checkpoint(
            out.checkpoint_path, modalities=modalities)
        out.report = evaluation.evaluate_with_audit(
            out.eval_model, out.eval_data, eval_segments=cfg.eval_segments,
            mode=EVAL_DETERMINISTIC, seed=seed,
        )

    with _boundaries(marks):
        for phase, run in phases:
            out.policy_before[phase] = _policy_state(model)
            before = model.recog.executions
            out.seconds[phase] = [_pieces(run, marks)]
            out.executions[phase] = model.recog.executions - before
            out.policy_after[phase] = _policy_state(model)
        out.seconds["checkpoint_save"] = [
            _pieces(lambda: model.save(out.checkpoint_path), marks)]
        out.seconds["eval"] = [_pieces(evaluate, marks)]
    out.executions["eval"] = out.eval_model.recog.executions
    return out


def program_decisions(rnd, inputs):
    """The program's own ``(U, probabilities)`` for every evaluated clip,
    from ``forward_video`` on the round's evaluation model, outside timing."""
    cfg = inputs[3]
    out = []
    for video in rnd.eval_data.videos:
        clip = datagen.subsample(
            video, evaluation.uniform_segment_indices(video.n_segments, cfg.eval_segments))
        fw = model_mod.forward_video(rnd.eval_model, clip)
        out.append((fw.decisions.U, fw.prediction.values))
    return out


UNITS = {
    "data.generate_mb_per_s": "MB/s",
    "data.save_mb_per_s": "MB/s",
    "data.load_mb_per_s": "MB/s",
    "train.warmup_videos_per_s": "videos/s",
    "train.alternate_videos_per_s": "videos/s",
    "train.finetune_videos_per_s": "videos/s",
    "eval.videos_per_s": "videos/s",
}


def step_seconds(rounds, step):
    """A step's seconds at the host's best observed speed.

    Every sample of a step does the same work, piece for piece, in every
    round, so the estimate sums over pieces each piece's minimum over all
    samples.  The host alternates between a fast and a slow speed for
    seconds at a time; a median would mix in the share of time the run
    happened to spend slow, while the minimum over identical short pieces
    measures the program.
    """
    samples = [sample for seconds in rounds for sample in seconds[step]]
    if len({len(sample) for sample in samples}) != 1:
        raise ValueError(f"{step}: rounds split into different numbers of pieces")
    return float(sum(min(piece) for piece in zip(*samples)))


def median_seconds(rounds, step):
    """Median over samples of a step's total seconds (for diagnostics)."""
    return median([sum(sample) for seconds in rounds for sample in seconds[step]])


def rates(workload, inputs, rounds, data_bytes):
    """The end-to-end rates (all but set-up time and memory) of a run.

    ``rounds`` holds each round's ``Round.seconds``.  Each rate divides the
    work of one sample of its step by ``step_seconds``.
    """
    _, _, _, cfg = inputs
    mb = data_bytes / 1e6

    def seconds(step):
        return step_seconds(rounds, step)

    return {
        "data.generate_mb_per_s": mb / seconds("generate"),
        "data.save_mb_per_s": mb / seconds("save"),
        "data.load_mb_per_s": mb / seconds("load"),
        "train.warmup_videos_per_s": workload.n_train * cfg.warmup_epochs / seconds("warmup"),
        "train.alternate_videos_per_s":
            workload.n_train * cfg.alternate_epochs / seconds("alternate"),
        "train.finetune_videos_per_s":
            workload.n_train * cfg.finetune_epochs / seconds("finetune"),
        "eval.videos_per_s": workload.n_eval / seconds("eval"),
    }


def median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))
