"""The benchmark's workloads: input shapes, training schedule and quality bars.

Every workload trains a short schedule with ``POLICY_LR`` and ``TAU0``,
which leaves a policy that skips a real share of the
expensive stream's cells.  Where the cheap stream carries no signal
(probability 0), the policy learns to drop it and its selection rate sits
near 0 on every seed; the expensive stream's rate then tracks its planted
density.  With both streams dense the policy keeps every expensive cell
(rate exactly 1) on some seeds and drops them all on others, which the
selection check rejects and which makes the work per seed differ.  The
dataset that the data rates are timed on is larger than the part that is
trained and evaluated on, so that the byte rates rest on enough bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

N_CLASSES = 4
EXPENSIVE = 0  # index of the expensive modality ("hi") in every workload
RECOG_COSTS = (1.0, 0.45)  # hi, lo
POLICY_COST = 0.076
POLICY_LR = 1e-2
TAU0 = 1.0
# evaluation top-1 must beat chance (1 / N_CLASSES) by at least this much
TOP1_MARGIN = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    segments: int  # segments per generated video
    n_data: int  # videos generated, saved and loaded
    data_repeats: int  # times a round generates, saves and loads them
    n_train: int  # the first n_train loaded videos are trained on
    n_eval: int  # the next n_eval are held out for evaluation
    informative_probs: tuple  # planted mask density per modality
    signal_margin: float
    recog_dims: tuple
    policy_dims: tuple
    lams: tuple
    recog_hidden: int
    train_segments: int
    eval_segments: int
    epochs: tuple = (2, 4, 2)  # warm-up, alternation, fine-tune


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short-clips",
            why="10-segment clips, default widths: tiny tensors, so per-op Python cost, tape recording and backward dominate",
            segments=10,
            n_data=2000,
            data_repeats=3,
            n_train=200,
            n_eval=150,
            informative_probs=(0.4, 0.1),
            signal_margin=2.0,
            recog_dims=(24, 16),
            policy_dims=(8, 6),
            lams=(0.2, 0.1),
            recog_hidden=128,
            train_segments=5,
            eval_segments=10,
        ),
        Workload(
            name="long-videos",
            why="120-segment untrimmed videos, sparse signal: the policy LSTM walks every segment, so rollout and evaluation dominate",
            segments=120,
            n_data=200,
            data_repeats=4,
            n_train=40,
            n_eval=20,
            informative_probs=(0.3, 0.0),
            signal_margin=6.0,
            recog_dims=(24, 16),
            policy_dims=(8, 6),
            lams=(0.05, 0.1),
            recog_hidden=128,
            train_segments=20,
            eval_segments=120,
            epochs=(4, 4, 2),
        ),
        Workload(
            name="wide-streams",
            why="4 segments, views 512/256 wide, hidden 512, dense expensive stream: recognition matrix arithmetic dominates",
            segments=4,
            n_data=400,
            data_repeats=10,
            n_train=100,
            n_eval=150,
            informative_probs=(0.8, 0.0),
            signal_margin=6.0,
            recog_dims=(512, 256),
            policy_dims=(32, 16),
            lams=(0.2, 0.1),
            recog_hidden=512,
            train_segments=4,
            eval_segments=4,
        ),
    )
}


def build(workload, seed):
    """The program's inputs for one workload and seed.

    Returns ``(modalities, gen_spec, model_config, train_config)``.  The seed
    drives the generator, the weight initialization and the training noise.
    """
    from modgate.datagen import GenSpec
    from modgate.gumbel import TemperatureSchedule
    from modgate.modality import ModalitySpec
    from modgate.model import ModelConfig
    from modgate.training import TrainConfig

    modalities = [
        ModalitySpec(name, recog_dim=rd, policy_dim=pd, lam=lam,
                     recog_cost=cost, policy_cost=POLICY_COST)
        for name, rd, pd, lam, cost in zip(
            ("hi", "lo"), workload.recog_dims, workload.policy_dims, workload.lams, RECOG_COSTS,
        )
    ]
    gen = GenSpec(
        modalities=modalities,
        informative_probs=list(workload.informative_probs),
        n_classes=N_CLASSES,
        n_videos=workload.n_data,
        segments=workload.segments,
        signal_margin=workload.signal_margin,
        seed=seed,
    )
    model_config = ModelConfig(recog_hidden=workload.recog_hidden)
    warm, alt, fine = workload.epochs
    train_config = TrainConfig(
        warmup_epochs=warm,
        alternate_epochs=alt,
        finetune_epochs=fine,
        train_segments=workload.train_segments,
        eval_segments=workload.eval_segments,
        policy_lr=POLICY_LR,
        schedule=TemperatureSchedule(tau0=TAU0),
        seed=seed,
    )
    return modalities, gen, model_config, train_config
