"""Gumbel-Max sampling, its temperature-controlled softmax relaxation, and the
straight-through carrier that glues discrete decisions into the autodiff graph.

The relaxation machinery works on 2-way (skip/select) score vectors, or on
(T, 2) matrices of them, one row per segment, but is written for any
category count.  Index 1 is "select", index 0 is "skip", and
exact ties resolve to skip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DomainError

# Uniform draws are clamped away from {0, 1} so the double log stays finite.
UNIFORM_EPS = 1e-12


def gumbel_from_uniform(u):
    """Map uniform(0,1) draws through the double-log transform G = -log(-log u)."""
    u = np.clip(np.asarray(u, dtype=np.float64), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    return -np.log(-np.log(u))


def sample_gumbel(shape, rng):
    """Standard Gumbel(0, 1) noise of the given shape, driven by ``rng``."""
    return gumbel_from_uniform(rng.random(shape))


def gumbel_max(log_scores, noise):
    """Exact categorical sample: argmax of perturbed log-scores; ties pick 0.

    Works on the last axis, so a (T, n) matrix gives one index per row.
    """
    s = np.asarray(log_scores, dtype=np.float64) + np.asarray(noise, dtype=np.float64)
    return np.argmax(s, axis=-1)  # the first of equal maxima


def gumbel_softmax(log_scores, noise, tau):
    """Differentiable relaxation softmax((log_scores + noise) / tau).

    ``log_scores`` may be a Tensor (gradients flow into it) or a plain array.
    ``noise`` is a constant.  ``tau`` must be positive.
    """
    if not tau > 0.0:
        raise DomainError(f"gumbel_softmax: tau must be positive, got {tau}")
    scores = log_scores if isinstance(log_scores, Tensor) else ad.constant(log_scores)
    perturbed = ad.add(scores, ad.constant(np.asarray(noise, dtype=np.float64)))
    return ad.softmax(ad.scale(perturbed, 1.0 / tau))


def straight_through(log_scores, noise, tau):
    """Hard decision forward, relaxed gradient backward.

    Returns ``(hard, carrier)`` where ``hard`` is the one-hot Gumbel-Max
    sample (a plain array; one one-hot row per row of a (T, n) input) and
    ``carrier`` is the Tensor hard + (soft - detach(soft)): its forward
    values equal ``hard`` bitwise (soft - detach(soft) is exactly zero
    elementwise) while its gradient is bitwise identical to the relaxed
    sample's.
    """
    soft = gumbel_softmax(log_scores, noise, tau)
    raw = log_scores.values if isinstance(log_scores, Tensor) else np.asarray(log_scores)
    picked = np.expand_dims(gumbel_max(raw, noise), -1)
    hard = (picked == np.arange(soft.values.shape[-1])).astype(np.float64)
    carrier = ad.add(ad.constant(hard), ad.subtract(soft, ad.constant(soft.values)))
    return hard, carrier


@dataclass
class TemperatureSchedule:
    """Exponential decay with a floor: tau(e) = max(tau_min, tau0 * factor**e)."""

    tau0: float = 5.0
    anneal_factor: float = 0.965
    tau_min: float = 0.05

    def __post_init__(self):
        if not self.tau0 > 0.0:
            raise DomainError(f"tau0 must be positive, got {self.tau0}")
        if not 0.0 < self.anneal_factor <= 1.0:
            raise DomainError(f"anneal_factor must be in (0, 1], got {self.anneal_factor}")
        if not 0.0 < self.tau_min <= self.tau0:
            raise DomainError(f"tau_min must be in (0, tau0], got {self.tau_min}")

    def tau_at(self, epoch):
        if epoch < 0:
            raise DomainError(f"epoch must be non-negative, got {epoch}")
        return max(self.tau_min, self.tau0 * self.anneal_factor**epoch)
