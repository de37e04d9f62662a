"""Spans around modgate's public functions, recorded from outside the program.

``Tracer.install`` swaps each traced function or method for a wrapper that
records a span (name, phase, start, end, parent) and restores the originals on
exit.  A module-level function is replaced in every loaded ``modgate`` module
that bound it, because ``training`` and ``evaluation`` hold their own
``forward_video``, ``policy`` its own ``straight_through``, and so on.  Spans
stay in memory; ``write_chrome_trace`` writes them out when the run ends.

The phase of a span is that of the innermost enclosing phase function: the
three training phases, and ``model_from_checkpoint`` plus
``evaluate_with_audit`` for ``eval``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

PHASES = ("warmup", "alternate", "finetune", "eval")
TRAIN_PHASES = PHASES[:3]
OP_KINDS = ("matmul", "add", "slice", "tanh", "multiply", "softmax", "sigmoid", "concatenate")

# (module, owner, attribute) -> span name.  An owner of None means the
# module-level function; otherwise a class in that module.
SPANS = {
    ("datagen", None, "generate"): "datagen.generate",
    ("datagen", None, "save_dataset"): "datagen.save",
    ("datagen", None, "load_dataset"): "datagen.load",
    ("datagen", None, "subsample"): "datagen.subsample",
    ("checkpoint", None, "save_checkpoint"): "checkpoint.save",
    ("checkpoint", None, "load_checkpoint"): "checkpoint.load",
    ("policy", "PolicyNet", "rollout"): "policy.rollout",
    ("policy", "PolicyNet", "extract_joint_feature"): "policy.extract",
    ("policy", "PolicyNet", "lstm_step"): "policy.lstm",
    ("policy", "PolicyNet", "decision_heads"): "policy.heads",
    ("gumbel", None, "straight_through"): "gumbel.straight_through",
    ("recognition", "RecognitionNet", "subnetwork_forward"): "recognition.subnetwork",
    ("recognition", "RecognitionNet", "fuse_segment"): "recognition.fuse",
    ("recognition", "RecognitionNet", "video_predict"): "recognition.predict",
    ("objective", None, "cross_entropy"): "objective.loss",
    ("objective", None, "total_loss"): "objective.loss",
    ("autodiff", None, "backward"): "autodiff.backward",
    ("training", "MomentumSGD", "step"): "training.optimizer_step",
    ("training", "Adam", "step"): "training.optimizer_step",
    ("model", None, "forward_video"): "model.forward_video",
    ("evaluation", None, "evaluate"): "evaluation.evaluate",
    ("evaluation", None, "audit_policy"): "evaluation.audit",
}

# functions that open a phase: (module, attribute) -> (span name, phase)
PHASE_SPANS = {
    ("training", "warmup"): ("training.warmup", "warmup"),
    ("training", "alternate"): ("training.alternate", "alternate"),
    ("training", "finetune"): ("training.finetune", "finetune"),
    ("model", "model_from_checkpoint"): ("model.from_checkpoint", "eval"),
    ("evaluation", "evaluate_with_audit"): ("evaluation.evaluate_with_audit", "eval"),
}


def _names(module, phases):
    return [f"{module}.{phase}" for phase in phases]


def layer_metrics():
    """Every per-layer metric as (name, unit), in report order."""
    timed = [("datagen.generate_s", "s"), ("datagen.save_s", "s"), ("datagen.load_s", "s"),
             ("datagen.file_bytes", "bytes")]
    timed += [(n, "s") for n in _names("datagen.subsample_s", PHASES)]
    timed += [("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"),
              ("checkpoint.file_bytes", "bytes")]
    policy_phases = PHASES[1:]  # warm-up forces every gate on and never runs the policy
    for measure in ("rollout_s", "extract_s", "lstm_s", "heads_s"):
        timed += [(n, "s") for n in _names(f"policy.{measure}", policy_phases)]
    timed += [(n, "count") for n in _names("policy.segments", policy_phases)]
    timed += [("gumbel.straight_through_s.alternate", "s"), ("gumbel.calls.alternate", "count")]
    for measure in ("subnetwork_s", "fuse_s", "predict_s"):
        timed += [(n, "s") for n in _names(f"recognition.{measure}", PHASES)]
    timed += [(n, "count") for n in _names("recognition.executions", PHASES)]
    timed += [(n, "ratio") for n in _names("recognition.executed_share", PHASES)]
    timed += [(n, "s") for n in _names("objective.loss_s", TRAIN_PHASES)]
    timed += [(n, "s") for n in _names("autodiff.backward_s", TRAIN_PHASES)]
    timed += [(n, "count") for n in _names("autodiff.records", TRAIN_PHASES)]
    timed += [(n, "count") for n in _names("autodiff.records_unused", TRAIN_PHASES)]
    timed += [(f"autodiff.ops.{kind}.alternate", "count") for kind in OP_KINDS]
    timed += [(n, "s") for n in _names("training.optimizer_step_s", TRAIN_PHASES)]
    timed += [(n, "count") for n in _names("training.optimizer_steps", TRAIN_PHASES)]
    timed += [(n, "s") for n in _names("model.forward_video_s", PHASES)]
    timed += [(n, "count") for n in _names("model.forward_video_calls", PHASES)]
    timed += [("evaluation.evaluate_s", "s"), ("evaluation.audit_s", "s")]
    return timed


# metric prefix -> span name whose count it is
SPAN_COUNTS = {
    "gumbel.calls": "gumbel.straight_through",
    "recognition.executions": "recognition.subnetwork",
    "training.optimizer_steps": "training.optimizer_step",
    "model.forward_video_calls": "model.forward_video",
}


def self_times(spans):
    """Self time per span index: its duration minus its direct children's."""
    own = [end - start for _, _, start, end, _ in spans]
    for name, phase, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Records spans and counts; install() patches modgate while active."""

    def __init__(self):
        self.spans = []  # [name, phase, start, end, parent index or -1]
        self.counts = Counter()  # (measure, phase) -> count
        self._stack = []
        self.phase = None

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name, phase=None, after=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            outer_phase = tracer.phase
            if phase is not None:
                tracer.phase = phase
            span = [name, tracer.phase, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                tracer.phase = outer_phase
            if after is not None:
                after(tracer, span[1], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Context manager that patches modgate for as long as it is open."""
        return _Installed(self)

    # -- aggregation -----------------------------------------------------

    def metrics(self):
        """Per-layer metrics over every span recorded so far."""
        seconds = Counter()
        calls = Counter()
        for (name, phase, _, _, _), own in zip(self.spans, self_times(self.spans)):
            seconds[(name, phase)] += own
            calls[(name, phase)] += 1

        def total(name, phase=None):
            return sum(v for (n, p), v in seconds.items()
                       if n == name and (phase is None or p == phase))

        out = {}
        for metric, unit in layer_metrics():
            module, measure, *rest = metric.split(".")
            phase = rest[-1] if rest and rest[-1] in PHASES else None
            if metric in ("datagen.file_bytes", "checkpoint.file_bytes"):
                value = self.counts[(metric, None)]
            elif measure == "ops":
                value = self.counts[(f"autodiff.ops.{rest[0]}", phase)]
            elif measure == "executed_share":
                cells = self.counts[("model.cells", phase)]
                execs = calls[("recognition.subnetwork", phase)]
                value = execs / cells if cells else 0.0
            elif measure.endswith("_s"):
                value = total(f"{module}.{measure[:-2]}", phase)
            elif f"{module}.{measure}" in SPAN_COUNTS:
                value = calls[(SPAN_COUNTS[f"{module}.{measure}"], phase)]
            else:
                value = self.counts[(f"{module}.{measure}", phase)]
            out[metric] = (value, unit)
        return out


def write_chrome_trace(rounds, path):
    """Chrome trace-event JSON of every round's spans; each event names its parent."""
    events = []
    for r, spans in enumerate(rounds):
        origin = spans[0][2] if spans else 0.0
        events += [
            {"name": name, "ph": "X", "pid": r, "tid": 0,
             "ts": round((start - origin) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
             "args": {"id": i, "parent": parent, "phase": phase}}
            for i, (name, phase, start, end, parent) in enumerate(spans)
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events}, fh, separators=(",", ":"))


# -- counts taken at span boundaries ----------------------------------------

def _after_save_file(metric):
    def after(tracer, phase, args, result):
        tracer.counts[(metric, None)] = os.path.getsize(args[1])

    return after


def _after_rollout(tracer, phase, args, result):
    tracer.counts[("policy.segments", phase)] += args[1].n_segments


def _after_forward_video(tracer, phase, args, result):
    model, video = args[0], args[1]
    tracer.counts[("model.cells", phase)] += video.n_segments * len(model.modalities)


def _after_backward(tracer, phase, args, result):
    records = args[0].tape.records
    tracer.counts[("autodiff.records", phase)] += len(records)
    tracer.counts[("autodiff.records_unused", phase)] += sum(
        1 for rec in records if rec.output.grad is None
    )
    for rec in records:
        tracer.counts[(f"autodiff.ops.{rec.kind}", phase)] += 1


AFTER = {
    "datagen.save": _after_save_file("datagen.file_bytes"),
    "checkpoint.save": _after_save_file("checkpoint.file_bytes"),
    "policy.rollout": _after_rollout,
    "model.forward_video": _after_forward_video,
    "autodiff.backward": _after_backward,
}


class _Installed:
    def __init__(self, tracer):
        self.tracer = tracer
        self.patched = []  # (owner, attribute, original)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "modgate" or mod_name.startswith("modgate.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        import importlib

        tracer = self.tracer
        for (module, owner, attr), name in SPANS.items():
            mod = importlib.import_module(f"modgate.{module}")
            if owner is None:
                original = getattr(mod, attr)
                self._replace_everywhere(
                    original, tracer._wrap(original, name, after=AFTER.get(name)))
            else:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self.patched.append((cls, attr, original))
                setattr(cls, attr, tracer._wrap(original, name, after=AFTER.get(name)))
        for (module, attr), (name, phase) in PHASE_SPANS.items():
            mod = importlib.import_module(f"modgate.{module}")
            original = getattr(mod, attr)
            self._replace_everywhere(original, tracer._wrap(original, name, phase=phase))
        return tracer

    def __exit__(self, exc_type, exc, tb):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
        return False
