"""Training objective: cross-entropy plus a per-modality usage penalty.

For a correctly classified video, each modality pays lam_k times the squared
fraction of segments it was selected on; an incorrect prediction pays a flat
penalty gamma instead.  The correctness test is detached: which branch
applies is decided from forward values and contributes no gradient.  The
usage fraction is built from the straight-through select components, so its
value equals the hard count exactly while its gradient follows the relaxed
samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .modality import default_modalities

@dataclass
class CostModel:
    """Penalty weights and the segment budget C used as the fraction denominator."""

    lams: list = field(default_factory=lambda: [m.lam for m in default_modalities()])
    gamma: float = 10.0
    train_segments: int = 5

    def __post_init__(self):
        for lam in self.lams:
            if lam < 0.0 or not np.isfinite(lam):
                raise ConfigError(f"lam must be finite and non-negative, got {lam}")
        if self.gamma < 0.0 or not np.isfinite(self.gamma):
            raise ConfigError(f"gamma must be finite and non-negative, got {self.gamma}")
        if self.train_segments < 1:
            raise ConfigError("train_segments must be positive")


def cross_entropy(logits, label):
    """-log softmax(logits)[label], from ``log_softmax``: no probability is ever logged.

    A confidently wrong video, whose p[label] underflows, keeps its full
    gradient.
    """
    return ad.scale(ad.log_softmax(logits)[int(label)], -1.0)


def total_loss(logits, label, decisions, cost):
    """Cross-entropy plus the summed per-modality usage penalties.

    ``logits`` are the video's class logits (``VideoForward.logits``, a graph
    tensor), ``decisions`` a train-stochastic DecisionMatrix.  With every lam
    at zero the result is exactly the cross-entropy graph, bit for bit.
    """
    K = decisions.n_modalities
    if len(cost.lams) != K:
        raise ConfigError(f"{len(cost.lams)} lam values for {K} modalities")
    loss = cross_entropy(logits, label)
    correct = int(np.argmax(logits.values)) == int(label)
    for k in range(K):
        lam = cost.lams[k]
        if lam == 0.0:
            continue
        if not correct:
            loss = ad.add(loss, ad.constant(lam * cost.gamma))
            continue
        if decisions.carriers is not None:
            picks = decisions.carriers[k][:, 1]
            frac = ad.scale(ad.reduce_sum(picks), 1.0 / cost.train_segments)
        else:
            frac = ad.constant(np.sum(decisions.U[:, k]) / cost.train_segments)
        loss = ad.add(loss, ad.scale(ad.multiply(frac, frac), lam))
    return loss


def batch_mean(losses):
    """Mean over per-example losses (tensors or plain floats)."""
    tensors = [x if isinstance(x, Tensor) else ad.constant(float(x)) for x in losses]
    return ad.scale(ad.add_n(tensors), 1.0 / len(tensors))


def simulated_compute(U, modalities):
    """Compute units for one video: policy floor plus selected recognition work.

    The policy looks at every segment of every modality, so its cost is
    unconditional: segments * sum of per-modality policy costs.  Recognition
    cost accrues only where U selects.
    """
    U = np.asarray(U)
    T, K = U.shape
    if K != len(modalities):
        raise ConfigError(f"U has {K} modalities, specs have {len(modalities)}")
    total = float(T) * sum(m.policy_cost for m in modalities)
    for k, m in enumerate(modalities):
        total += float(np.sum(U[:, k])) * m.recog_cost
    return total


def full_compute(T, modalities):
    """Compute units when every cell is selected (the no-skipping ceiling)."""
    return simulated_compute(np.ones((T, len(modalities)), dtype=int), modalities)
