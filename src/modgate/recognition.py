"""Per-modality recognition sub-networks and learned late fusion.

Sub-networks only run for selected (segment, modality) cells; an execution
counter backs that claim.  Fusion weights are global learnable scalars,
softmax-renormalized over whichever subset of modalities was selected, so a
segment's fused logits are always a convex combination of the logits that
were actually computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError

FUSION_NAME = "recog.fusion"


@dataclass
class SegmentPrediction:
    """Fused logits for one segment; ``active`` is False when all were skipped."""

    logits: Tensor
    active: bool


class RecognitionNet:
    """K two-layer tanh MLP classifiers plus softmax-renormalized fusion."""

    def __init__(self, modalities, n_classes, n_hidden=128, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        if n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {n_classes}")
        if n_hidden < 1:
            raise ConfigError("recognition hidden width must be positive")
        self.modalities = list(modalities)
        self.n_classes = int(n_classes)
        self.n_hidden = int(n_hidden)
        self.executions = 0

        self.params = {}

        def uniform(shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

        for k, spec in enumerate(self.modalities):
            self.params[f"recog.sub{k}.W1"] = uniform((n_hidden, spec.recog_dim), spec.recog_dim)
            self.params[f"recog.sub{k}.b1"] = Tensor(np.zeros(n_hidden), requires_grad=True)
            self.params[f"recog.sub{k}.W2"] = uniform((n_classes, n_hidden), n_hidden)
            self.params[f"recog.sub{k}.b2"] = Tensor(np.zeros(n_classes), requires_grad=True)
        # Zero fusion weights: every selected subset starts uniformly weighted.
        self.params[FUSION_NAME] = Tensor(np.zeros(len(self.modalities)), requires_grad=True)

    def parameters(self):
        return dict(self.params)

    def reset_executions(self):
        self.executions = 0

    def subnetwork_forward(self, k, x):
        """Class logits for one modality's segment view; counts as one execution."""
        if not 0 <= k < len(self.modalities):
            raise ContractError(f"no sub-network {k}")
        p = self.params
        hidden = ad.tanh(ad.affine(x, p[f"recog.sub{k}.W1"], p[f"recog.sub{k}.b1"]))
        logits = ad.affine(hidden, p[f"recog.sub{k}.W2"], p[f"recog.sub{k}.b2"])
        self.executions += 1
        return logits

    def fusion_coefficients(self, selected):
        """Softmax of the fusion weights restricted to the selected modalities."""
        if not selected:
            raise ContractError("fusion over an empty selection")
        w = self.params[FUSION_NAME]
        picked = ad.concatenate([w[k : k + 1] for k in selected])
        return ad.softmax(picked)

    def fuse_segment(self, per_modality_logits, u_row, gates=None):
        """Weighted sum of the selected modalities' logits for one segment.

        ``per_modality_logits`` has an entry per modality, None where skipped.
        ``u_row`` holds the hard decisions.  ``gates`` (training) supplies the
        straight-through select components that multiply each term, carrying
        gradient back to the policy.
        """
        selected = [k for k in range(len(u_row)) if u_row[k] == 1]
        if not selected:
            return SegmentPrediction(
                logits=ad.constant(np.zeros(self.n_classes)), active=False
            )
        alphas = self.fusion_coefficients(selected)
        total = None
        for i, k in enumerate(selected):
            logits = per_modality_logits[k]
            if logits is None:
                raise ContractError(f"modality {k} selected but its logits are missing")
            term = ad.multiply(alphas[i : i + 1], logits)
            if gates is not None and gates[k] is not None:
                term = ad.multiply(gates[k], term)
            total = term if total is None else ad.add(total, term)
        return SegmentPrediction(logits=total, active=True)

    def video_logits(self, segment_predictions):
        """Video-level class logits: the mean of the active segments' logits.

        With every segment skipped there is nothing to average; the logits are
        zero, so the prediction falls back to the uniform distribution.
        """
        active = [sp.logits for sp in segment_predictions if sp.active]
        if not active:
            return ad.constant(np.zeros(self.n_classes))
        return ad.scale(ad.add_n(active), 1.0 / len(active))

    def video_predict(self, segment_predictions):
        """Video-level class probabilities: softmax of ``video_logits``."""
        return ad.softmax(self.video_logits(segment_predictions))
