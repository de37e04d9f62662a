"""The selection policy: decides per segment which modalities to process.

Each segment's cheap policy views pass through per-modality extractors into a
joint feature, an LSTM carries history across segments, and per-modality
2-way heads score skip (index 0) versus select (index 1).  A rollout runs each
stage once per video, on matrices with one row per segment.  During training
the discrete decisions ride a Gumbel-Softmax straight-through carrier so
gradients reach every policy parameter; at evaluation the argmax is taken
directly (or sampled, for stochastic inference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DomainError
from .gumbel import gumbel_max, gumbel_softmax, sample_gumbel, straight_through

TRAIN_STOCHASTIC = "train-stochastic"
EVAL_DETERMINISTIC = "eval-deterministic"
EVAL_STOCHASTIC = "eval-stochastic"
ROLLOUT_MODES = (TRAIN_STOCHASTIC, EVAL_DETERMINISTIC, EVAL_STOCHASTIC)


@dataclass
class DecisionMatrix:
    """Per-video selection decisions and their relaxed companions.

    ``U`` holds the hard 0/1 decisions and ``P`` the relaxed probability
    rows that produced them.  ``carriers`` (training only) hold one (T, 2)
    straight-through tensor per modality; its select column (index 1) gates
    that modality's recognition path.  Under joint skip every modality holds
    the same tensor.
    """

    U: np.ndarray  # (T, K) int8
    P: np.ndarray  # (T, K, 2)
    carriers: list | None = None  # [k] -> Tensor(T, 2)

    @property
    def n_segments(self):
        return self.U.shape[0]

    @property
    def n_modalities(self):
        return self.U.shape[1]


def forced_decisions(U):
    """A DecisionMatrix for externally imposed gates (warm-up, baselines)."""
    U = np.asarray(U)
    T, K = U.shape
    P = np.zeros((T, K, 2))
    P[..., 1] = U
    P[..., 0] = 1.0 - U
    return DecisionMatrix(U=U.astype(np.int8), P=P)


def _np_softmax_pair(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class PolicyNet:
    """Joint-feature extractor, LSTM aggregator, and per-modality gates."""

    def __init__(
        self,
        modalities,
        n_feature=128,
        n_hidden=64,
        n_extract=64,
        no_lstm=False,
        joint_skip=False,
        rng=None,
    ):
        if rng is None:
            rng = np.random.default_rng(0)
        if not modalities:
            raise ConfigError("policy needs at least one modality")
        self.modalities = list(modalities)
        self.n_feature = int(n_feature)
        self.n_hidden = int(n_hidden)
        self.n_extract = int(n_extract)
        self.no_lstm = bool(no_lstm)
        self.joint_skip = bool(joint_skip)
        if min(self.n_feature, self.n_hidden, self.n_extract) < 1:
            raise ConfigError("policy widths must be positive")

        K = len(self.modalities)
        self.params = {}

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

        for k, spec in enumerate(self.modalities):
            self.params[f"policy.extractor.mod{k}.W"] = uniform(
                (self.n_extract, spec.policy_dim), spec.policy_dim
            )
            self.params[f"policy.extractor.mod{k}.b"] = Tensor(
                np.zeros(self.n_extract), requires_grad=True
            )
        self.params["policy.extractor.fc1.W"] = uniform(
            (self.n_feature, K * self.n_extract), K * self.n_extract
        )
        self.params["policy.extractor.fc1.b"] = Tensor(np.zeros(self.n_feature), requires_grad=True)
        self.params["policy.extractor.fc2.W"] = uniform(
            (self.n_feature, self.n_feature), self.n_feature
        )
        self.params["policy.extractor.fc2.b"] = Tensor(np.zeros(self.n_feature), requires_grad=True)

        if not self.no_lstm:
            H, F = self.n_hidden, self.n_feature
            self.params["policy.lstm.Wx"] = uniform((4 * H, F), F)
            self.params["policy.lstm.Wh"] = uniform((4 * H, H), H)
            self.params["policy.lstm.b"] = Tensor(np.zeros(4 * H), requires_grad=True)

        # Heads start with tiny weights and zero bias: initial gates near 50/50.
        head_width = self.n_feature if self.no_lstm else self.n_hidden
        self.n_heads = 1 if self.joint_skip else K
        for k in range(self.n_heads):
            self.params[f"policy.head{k}.W"] = Tensor(
                rng.uniform(-0.01, 0.01, size=(2, head_width)), requires_grad=True
            )
            self.params[f"policy.head{k}.b"] = Tensor(np.zeros(2), requires_grad=True)

    def parameters(self):
        return dict(self.params)

    def _affine(self, prefix, x):
        return ad.affine(x, self.params[prefix + ".W"], self.params[prefix + ".b"])

    def extract_joint_feature(self, policy_views):
        """Per-modality tanh extractors, concatenated, through two tanh layers.

        Each view is a (T, width) matrix with one row per segment; the
        feature has one row per segment too.
        """
        if len(policy_views) != len(self.modalities):
            raise ContractError(
                f"expected {len(self.modalities)} policy views, got {len(policy_views)}"
            )
        parts = [
            ad.tanh(self._affine(f"policy.extractor.mod{k}", view))
            for k, view in enumerate(policy_views)
        ]
        joint = ad.concatenate(parts, axis=-1)
        joint = ad.tanh(self._affine("policy.extractor.fc1", joint))
        return ad.tanh(self._affine("policy.extractor.fc2", joint))

    def lstm_step(self, feature):
        """The LSTM over the (T, F) rows of ``feature``, from zero state, as one ``lstm`` op.

        Gate order i, f, g, o.  Returns the (T, H) hidden rows, the hidden
        state after each step.
        """
        H = self.n_hidden
        pre = ad.affine(feature, self.params["policy.lstm.Wx"], self.params["policy.lstm.b"])
        zeros = ad.constant(np.zeros(H))
        return ad.lstm(pre, self.params["policy.lstm.Wh"], zeros, zeros)[:, :H]

    def decision_heads(self, summary):
        """Skip/select scores per head, (T, 2) rows for the (T, width) ``summary``."""
        return [self._affine(f"policy.head{k}", summary) for k in range(self.n_heads)]

    def rollout(self, video, tau=1.0, mode=EVAL_DETERMINISTIC, rng=None, noise=None,
                soft_gates=False):
        """Decide per segment and modality, over all of a video's segments at once.

        ``mode`` is one of ``train-stochastic`` (Gumbel sampling with
        straight-through carriers), ``eval-deterministic`` (argmax, ties skip)
        or ``eval-stochastic`` (Gumbel sampling, no carriers).  ``noise`` may
        supply frozen Gumbel draws of shape (T, n_heads, 2); otherwise the
        stochastic modes draw them from ``rng``.  ``soft_gates`` swaps the
        straight-through carriers for the relaxed samples themselves, which
        makes the whole loss finite-difference checkable.

        The extractor and the heads run once on (T, width) matrices and the
        LSTM as one op.  Decisions for segment t depend only on segments 1..t.
        """
        if mode not in ROLLOUT_MODES:
            raise ContractError(f"unknown rollout mode {mode!r}")
        stochastic = mode in (TRAIN_STOCHASTIC, EVAL_STOCHASTIC)
        if stochastic:
            if not tau > 0.0:
                raise DomainError(f"stochastic rollout needs tau > 0, got {tau}")
            if noise is None and rng is None:
                raise ContractError("stochastic rollout needs an rng or frozen noise")
        train = mode == TRAIN_STOCHASTIC

        T = video.n_segments
        K = len(self.modalities)
        if video.n_modalities != K:
            raise ContractError(f"video has {video.n_modalities} modalities, policy has {K}")
        if not stochastic:
            noise = None
        elif noise is None:
            noise = sample_gumbel((T, self.n_heads, 2), rng)
        else:
            noise = np.asarray(noise, dtype=np.float64)
            if noise.shape != (T, self.n_heads, 2):
                raise ContractError(f"noise shape {noise.shape} != {(T, self.n_heads, 2)}")
        U = np.zeros((T, K), dtype=np.int8)
        P = np.zeros((T, K, 2))
        carriers = [None] * K if train else None

        summary = self.extract_joint_feature(video.policy_views)
        if not self.no_lstm:
            summary = self.lstm_step(summary)
        for j, z in enumerate(self.decision_heads(summary)):
            g = None if noise is None else noise[:, j]
            if train and soft_gates:
                carrier = gumbel_softmax(z, g, tau)
                u = gumbel_max(z.values, g)
            elif train:
                hard, carrier = straight_through(z, g, tau)
                u = hard[:, 1]
            elif mode == EVAL_STOCHASTIC:
                u = gumbel_max(z.values, g)
            else:
                u = z.values[:, 1] > z.values[:, 0]
            p = _np_softmax_pair(z.values if g is None else (z.values + g) / tau)
            for k in range(K) if self.joint_skip else (j,):
                U[:, k] = u
                P[:, k] = p
                if train:
                    carriers[k] = carrier
        return DecisionMatrix(U=U, P=P, carriers=carriers)
