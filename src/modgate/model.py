"""The full model: selection policy plus recognition networks, wired together."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ContractError, MismatchError
from .modality import ModalitySpec
from .policy import EVAL_DETERMINISTIC, DecisionMatrix, PolicyNet, forced_decisions
from .recognition import RecognitionNet


@dataclass
class ModelConfig:
    """Architecture widths and ablation flags."""

    extractor_hidden: int = 64
    feature_width: int = 128
    lstm_hidden: int = 64
    recog_hidden: int = 128
    no_lstm: bool = False
    joint_skip: bool = False


@dataclass
class VideoForward:
    """Result of running one video end to end."""

    prediction: ad.Tensor  # class probability vector: softmax of ``logits``
    logits: ad.Tensor  # mean logits of the active segments; the loss reads these
    decisions: DecisionMatrix
    executions: int


class Model:
    """Policy and recognition networks over a shared modality list."""

    def __init__(self, modalities, n_classes, config=None, seed=0):
        config = config or ModelConfig()
        self.modalities = list(modalities)
        self.n_classes = int(n_classes)
        self.config = config
        rng = np.random.default_rng([seed, 100])
        self.policy = PolicyNet(
            self.modalities,
            n_feature=config.feature_width,
            n_hidden=config.lstm_hidden,
            n_extract=config.extractor_hidden,
            no_lstm=config.no_lstm,
            joint_skip=config.joint_skip,
            rng=rng,
        )
        self.recog = RecognitionNet(
            self.modalities, self.n_classes, n_hidden=config.recog_hidden, rng=rng
        )

    def parameters(self):
        merged = self.policy.parameters()
        merged.update(self.recog.parameters())
        return merged

    def policy_parameters(self):
        return self.policy.parameters()

    def recog_parameters(self):
        return self.recog.parameters()

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad = None

    def state(self):
        return {name: p.values.copy() for name, p in self.parameters().items()}

    def load_state(self, state):
        params = self.parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise MismatchError(
                f"checkpoint/model parameter sets differ (missing {missing}, extra {extra})"
            )
        for name, p in params.items():
            incoming = np.asarray(state[name], dtype=np.float64)
            if incoming.shape != p.values.shape:
                raise MismatchError(
                    f"parameter {name}: checkpoint shape {incoming.shape} != "
                    f"model shape {p.values.shape}"
                )
        for name, p in params.items():
            p.values = np.ascontiguousarray(state[name], dtype=np.float64)
            p.grad = None

    def save(self, path):
        save_checkpoint(self.state(), path)


def infer_architecture(state):
    """Reconstruct modality widths, class count, and config from parameter shapes."""
    sub_ids = sorted(
        int(m.group(1)) for m in (re.match(r"recog\.sub(\d+)\.W1$", n) for n in state) if m
    )
    if not sub_ids or sub_ids != list(range(len(sub_ids))):
        raise MismatchError("checkpoint does not contain a contiguous set of sub-networks")
    K = len(sub_ids)

    def shape(name):  # every parameter read here is a non-empty weight matrix
        if name not in state:
            raise MismatchError(f"checkpoint lacks parameter {name!r}")
        if state[name].ndim != 2 or 0 in state[name].shape:
            raise MismatchError(f"checkpoint parameter {name!r} has shape {state[name].shape}, "
                                "expected a matrix with positive extents")
        return state[name].shape

    recog_dims = [shape(f"recog.sub{k}.W1")[1] for k in range(K)]
    policy_dims = [shape(f"policy.extractor.mod{k}.W")[1] for k in range(K)]
    n_classes = shape("recog.sub0.W2")[0]
    head_ids = [int(m.group(1)) for m in (re.match(r"policy\.head(\d+)\.W$", n) for n in state) if m]
    no_lstm = "policy.lstm.Wx" not in state
    config = ModelConfig(
        extractor_hidden=shape("policy.extractor.mod0.W")[0],
        feature_width=shape("policy.extractor.fc1.W")[0],
        lstm_hidden=ModelConfig.lstm_hidden if no_lstm else shape("policy.lstm.Wh")[1],
        recog_hidden=shape("recog.sub0.W1")[0],
        no_lstm=no_lstm,
        joint_skip=len(head_ids) == 1 and K > 1,
    )
    return K, recog_dims, policy_dims, int(n_classes), config


def model_from_checkpoint(path, modalities=None):
    """Build a model shaped like the checkpoint and load its weights.

    When ``modalities`` is given (for cost accounting), its view widths must
    agree with the checkpoint: ``load_state`` rejects any parameter whose
    shape differs.
    """
    state = load_checkpoint(path)
    K, recog_dims, policy_dims, n_classes, config = infer_architecture(state)
    if modalities is None:
        modalities = [
            ModalitySpec(f"mod{k}", recog_dim=recog_dims[k], policy_dim=policy_dims[k])
            for k in range(K)
        ]
    model = Model(modalities, n_classes, config)
    model.load_state(state)
    return model


def check_compatible(modalities, dataset, n_classes=None):
    """The dataset must hold these modalities' view widths (and ``n_classes``)."""
    if dataset.n_modalities != len(modalities):
        raise MismatchError(
            f"dataset has {dataset.n_modalities} modalities, expected {len(modalities)}"
        )
    for k, spec in enumerate(modalities):
        if dataset.recog_dims[k] != spec.recog_dim or dataset.policy_dims[k] != spec.policy_dim:
            raise MismatchError(
                f"modality {k} ({spec.name!r}): dataset widths ({dataset.recog_dims[k]}, "
                f"{dataset.policy_dims[k]}) != expected widths "
                f"({spec.recog_dim}, {spec.policy_dim})"
            )
    if n_classes is not None and dataset.n_classes != n_classes:
        raise MismatchError(f"dataset has {dataset.n_classes} classes, expected {n_classes}")


def forward_video(model, video, mode=EVAL_DETERMINISTIC, tau=1.0, rng=None, noise=None,
                  forced_gates=None, soft_gates=False):
    """Run one video end to end: decide, recognize selected cells, fuse, predict.

    ``forced_gates`` bypasses the policy entirely with an externally supplied
    (T, K) 0/1 matrix (warm-up and baselines).  Sub-networks execute only for
    cells whose hard gate is 1; the straight-through carriers multiply the
    fused terms during training so the policy receives recognition gradient.
    """
    if video.n_modalities != len(model.modalities):
        raise MismatchError(
            f"video has {video.n_modalities} modalities, model has {len(model.modalities)}"
        )
    if forced_gates is not None:
        if np.asarray(forced_gates).shape != (video.n_segments, len(model.modalities)):
            raise ContractError("forced gates must be shaped (segments, modalities)")
        decisions = forced_decisions(forced_gates)
    else:
        decisions = model.policy.rollout(
            video, tau=tau, mode=mode, rng=rng, noise=noise, soft_gates=soft_gates
        )

    executed_before = model.recog.executions
    # one (1, C) logits row per executed cell, None where the cell is skipped
    rows = [[None] * video.n_segments for _ in model.modalities]
    for t, k in zip(*np.nonzero(decisions.U)):
        rows[k][t] = model.recog.subnetwork_forward(k, video.recog_views[k][t:t + 1])
    video_logits = model.recog.fuse_segment(rows, decisions.U, decisions.carriers)
    return VideoForward(
        prediction=ad.softmax(video_logits),
        logits=video_logits,
        decisions=decisions,
        executions=model.recog.executions - executed_before,
    )
