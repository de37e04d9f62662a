"""Per-modality recognition sub-networks and learned late fusion.

Sub-networks only run for selected (segment, modality) cells; an execution
counter backs that claim.  Fusion weights are global learnable scalars,
softmax-renormalized over whichever subset of modalities was selected, so a
segment's fused logits are always a convex combination of the logits that
were actually computed.  A video is fused in one pass: its segments are
grouped by the subset they selected (at most 2^K - 1 groups), each group
takes one softmax, and each of its modalities one weighted sum of its
logits rows, as in the combine step of sparsely-gated mixture-of-experts.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError

FUSION_NAME = "recog.fusion"


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

    def subnetwork_forward(self, k, x):
        """Class logits, (1, C), for one cell's (1, D) view row; counts as one execution."""
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
        return ad.softmax(self.params[FUSION_NAME][np.array(selected)])

    def fuse_segment(self, rows, U, carriers=None):
        """Video-level class logits, fusing every segment of the video at once.

        Segment t's fused logits are ``sum_k g[t, k] softmax(w[S_t])_k l[t, k]``
        over the subset ``S_t`` of modalities it selected; the video's logits
        are their mean over the segments that selected anything, or zero (a
        uniform prediction) when none did.  ``rows[k][t]`` is the (1, C)
        logits row ``l[t, k]`` of an executed cell, None where skipped, and
        ``U`` holds the (T, K) hard decisions.  ``carriers`` (training) are
        the (T, 2) straight-through tensors whose select column is ``g``; at
        evaluation ``g`` is 1.

        Segments are grouped by the subset they selected, so there is one
        softmax per subset and one weighted row sum per (subset, modality).
        """
        K = U.shape[1]
        codes = U @ (1 << np.arange(K))  # the selected subset as a K-bit code
        n_active = np.count_nonzero(codes)
        if not n_active:
            return ad.constant(np.zeros(self.n_classes))
        terms = []
        for code in sorted(set(codes.tolist()) - {0}):  # np.unique would load numpy.ma
            segs = np.flatnonzero(codes == code)
            selected = [k for k in range(K) if code >> k & 1]
            alphas = self.fusion_coefficients(selected)
            for i, k in enumerate(selected):
                group = [rows[k][t] for t in segs]
                if None in group:
                    raise ContractError(f"modality {k} selected but its logits are missing")
                block = group[0] if len(group) == 1 else ad.concatenate(group)
                if carriers is None:
                    weights = ad.constant(np.ones(len(segs)))
                else:
                    weights = carriers[k][segs, 1]
                terms.append(ad.multiply(alphas[i:i + 1], ad.matmul(weights, block)))
        return ad.scale(ad.add_n(terms), 1.0 / n_active)

    def video_predict(self, rows, U, carriers=None):
        """Video-level class probabilities: softmax of ``fuse_segment``."""
        return ad.softmax(self.fuse_segment(rows, U, carriers))
