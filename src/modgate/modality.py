"""Per-modality descriptors: view widths, cost accounting, loss weighting."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class ModalitySpec:
    """One input stream and its bookkeeping.

    ``recog_dim`` is the width of the full recognition view, ``policy_dim``
    the width of the cheap view the selection policy sees.  ``recog_cost``
    and ``policy_cost`` are simulated compute units per segment.  ``lam``
    weights this modality's usage penalty in the training objective.
    """

    name: str
    recog_dim: int
    policy_dim: int
    lam: float = 1.0
    recog_cost: float = 1.0
    policy_cost: float = 0.076

    def __post_init__(self):
        if self.recog_dim < 1 or self.policy_dim < 1:
            raise ConfigError(f"modality {self.name!r}: view widths must be positive")
        if self.policy_dim > self.recog_dim:
            raise ConfigError(
                f"modality {self.name!r}: policy view wider than recognition view "
                f"({self.policy_dim} > {self.recog_dim})"
            )
        if self.lam < 0.0:
            raise ConfigError(f"modality {self.name!r}: lam must be non-negative")
        if not self.recog_cost > 0.0 or not self.policy_cost > 0.0:
            raise ConfigError(f"modality {self.name!r}: costs must be positive")
        if self.policy_cost >= self.recog_cost:
            raise ConfigError(
                f"modality {self.name!r}: policy_cost must be below recog_cost, "
                "otherwise skipping can never save compute"
            )


def default_modalities():
    """The stock two-stream setup: an expensive stream and a cheap one.

    The cost ratio 20:9 mirrors the relative per-segment load of the two
    streams; the lam defaults keep the usage penalty in the same ratio, small
    enough that dropping a genuinely useful cell is never worth the saving.
    """
    return [
        ModalitySpec("hi", recog_dim=24, policy_dim=8, lam=0.04,
                     recog_cost=1.0, policy_cost=0.076),
        ModalitySpec("lo", recog_dim=16, policy_dim=6, lam=0.018,
                     recog_cost=0.45, policy_cost=0.076),
    ]
