"""Self-contained property suites behind the ``verify`` command.

Each suite returns (passed, detail).  They re-derive the load-bearing claims
of the package from first principles — finite differences against the live
backward rules, Monte Carlo against closed-form sampling laws — so a build
whose gradients or samplers have been broken fails here by name.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .datagen import GenSpec, generate
from .gumbel import gumbel_max, gumbel_softmax, sample_gumbel, straight_through
from .modality import ModalitySpec
from .model import Model, ModelConfig, forward_video
from .objective import CostModel, total_loss
from .policy import TRAIN_STOCHASTIC


# The decisions of the full-loss check: every non-empty subset of two
# modalities and a segment that selects nothing, so the fusion weights get
# gradient across subsets and the mean leaves a segment out.
PLANTED = np.array([[1, 0], [1, 1], [0, 0], [0, 1]])


def planted_noise(U):
    """Frozen (T, K, 2) noise adding 1 to the skip or select score that ``U`` holds.

    Fresh heads have weights within 0.01 of zero, so their scores differ by
    far less than 1 and a rollout with this noise decides ``U``, with relaxed
    gates well inside (0, 1).
    """
    return (np.asarray(U)[..., None] == np.arange(2)).astype(float)


def full_loss_case(seed=0):
    """Model, video, frozen noise and cost of the full-loss check; it decides ``PLANTED``."""
    mods = [
        ModalitySpec("a", recog_dim=6, policy_dim=4, recog_cost=1.0, policy_cost=0.076),
        ModalitySpec("b", recog_dim=5, policy_dim=3, recog_cost=0.45, policy_cost=0.076),
    ]
    T = len(PLANTED)
    spec = GenSpec(modalities=mods, informative_probs=[0.5, 0.5], n_classes=3,
                   n_videos=1, segments=T, seed=seed)
    video = generate(spec).videos[0]
    small = ModelConfig(extractor_hidden=6, feature_width=8, lstm_hidden=5, recog_hidden=7)
    model = Model(mods, 3, config=small, seed=seed)
    return model, video, planted_noise(PLANTED), CostModel(lams=[0.3, 0.2], train_segments=T)


def check_grad_rules(seed=0):
    """Every backward rule against central differences, plus the full loss."""
    rng = np.random.default_rng([seed, 10])
    failures = []

    def check(kind, build, x):
        rep = ad.grad_check(build, x, tol=1e-5)
        if not rep.passed:
            failures.append(f"{kind} (rel err {rep.max_rel_error:.1e})")

    def scalarized(make, out_shape):
        # freeze the reduction weights so the probed function is deterministic
        weights = ad.constant(rng.normal(size=out_shape))
        return lambda t: ad.reduce_sum(ad.multiply(make(t), weights))

    for kind in ("add", "subtract", "multiply"):
        other = ad.constant(rng.normal(size=5))
        check(kind, scalarized(lambda t, k=kind, o=other: ad.forward_op(k, (t, o)), (5,)),
              ad.Tensor(rng.normal(size=5)))
    check("scale", scalarized(lambda t: ad.scale(t, -1.7), (5,)), ad.Tensor(rng.normal(size=5)))
    b = ad.constant(rng.normal(size=(4, 3)))
    check("matmul", scalarized(lambda t: ad.matmul(t, b), (2, 3)),
          ad.Tensor(rng.normal(size=(2, 4))))
    tail = ad.constant(rng.normal(size=3))
    check("concatenate", scalarized(lambda t: ad.concatenate([t, tail]), (7,)),
          ad.Tensor(rng.normal(size=4)))
    check("slice", scalarized(lambda t: t[1:3], (2,)), ad.Tensor(rng.normal(size=5)))
    check("slice/index-array", scalarized(lambda t: t[np.array([0, 2, 3]), 1], (3,)),
          ad.Tensor(rng.normal(size=(5, 2))))
    for kind in ("tanh", "softmax", "log_softmax"):
        check(kind, scalarized(lambda t, k=kind: ad.forward_op(k, (t,)), (5,)),
              ad.Tensor(rng.normal(size=5)))
    check("sum", ad.reduce_sum, ad.Tensor(rng.normal(size=5)))

    # affine on (T, D) rows, into all three inputs
    x, W, b = (ad.Tensor(rng.normal(size=s)) for s in ((5, 4), (3, 4), (3,)))
    for name, t in (("x", x), ("W", W), ("b", b)):
        check(f"affine/{name}", scalarized(lambda _: ad.affine(x, W, b), (5, 3)), t)
    # lstm over T = 4 steps from a non-zero state, into all four inputs
    H = 3
    pre, Wh, h0, c0 = (ad.Tensor(rng.normal(size=s)) for s in ((4, 4 * H), (4 * H, H), H, H))
    run = scalarized(lambda _: ad.lstm(pre, Wh, h0, c0), (4, 2 * H))
    for name, t in (("pre", pre), ("Wh", Wh), ("h0", h0), ("c0", c0)):
        check(f"lstm/{name}", run, t)

    # the whole objective on a toy rollout with frozen noise and relaxed gates
    model, video, noise, cost = full_loss_case(seed)

    def full_loss(_):
        fw = forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0, noise=noise,
                           soft_gates=True)
        return total_loss(fw.logits, video.label, fw.decisions, cost)

    for name in ("policy.lstm.Wx", "policy.lstm.Wh", "policy.head0.W", "recog.sub0.W1",
                 "recog.fusion"):
        rep = ad.grad_check(full_loss, model.parameters()[name], tol=1e-4)
        if not rep.passed:
            failures.append(f"full-loss/{name} (rel err {rep.max_rel_error:.1e})")

    if failures:
        return False, "mismatched rules: " + ", ".join(failures)
    return True, "all backward rules and the full loss match finite differences"


def check_gumbel_max_marginal(seed=0, draws=100_000):
    """Noisy-argmax frequencies against the softmax law, two score vectors."""
    rng = np.random.default_rng([seed, 20])
    worst = 0.0
    for scores in (np.log([2.0, 1.0]), np.array([0.0, 1.0])):
        counts = np.zeros(len(scores))
        for _ in range(draws):
            counts[gumbel_max(scores, sample_gumbel(scores.shape, rng))] += 1
        target = np.exp(scores - scores.max())
        target = target / target.sum()
        tv = 0.5 * np.abs(counts / draws - target).sum()
        worst = max(worst, tv)
    passed = worst <= 0.01
    return passed, f"worst total-variation distance {worst:.4f} over {draws} draws"


def check_straight_through(seed=0, draws=100):
    """Hard forward equality and relaxed backward equality, draw by draw."""
    rng = np.random.default_rng([seed, 30])
    for i in range(draws):
        scores = rng.normal(size=3)
        noise = sample_gumbel((3,), rng)
        upstream = rng.normal(size=3)

        x1 = ad.Tensor(scores.copy(), requires_grad=True)
        with ad.Tape():
            hard, carrier = straight_through(x1, noise, tau=0.7)
            out = ad.reduce_sum(ad.multiply(carrier, ad.constant(upstream)))
            ad.backward(out)
        expected_hard = np.zeros(3)
        expected_hard[gumbel_max(scores, noise)] = 1.0
        if not np.array_equal(carrier.values, expected_hard):
            return False, f"draw {i}: forward is not the hard sample"

        x2 = ad.Tensor(scores.copy(), requires_grad=True)
        with ad.Tape():
            soft = gumbel_softmax(x2, noise, tau=0.7)
            out2 = ad.reduce_sum(ad.multiply(soft, ad.constant(upstream)))
            ad.backward(out2)
        if not np.array_equal(x1.grad, x2.grad):
            return False, f"draw {i}: backward differs from the relaxed gradient"
    return True, f"forward hard and backward relaxed on {draws} draws"


def check_temperature_limits(seed=0, draws=10_000):
    """Mean max-component across temperatures under common random numbers."""
    scores = np.array([2.0, 0.0])
    rng = np.random.default_rng([seed, 40])
    noises = [sample_gumbel((2,), rng) for _ in range(draws)]
    taus = (0.05, 0.1, 1.0, 5.0, 10.0)
    means = {}
    for tau in taus:
        acc = 0.0
        for noise in noises:
            acc += float(np.max(gumbel_softmax(scores, noise, tau).values))
        means[tau] = acc / draws
    if means[10.0] > 0.6:
        return False, f"tau=10 mean max component {means[10.0]:.3f} > 0.6"
    if means[0.05] < 0.99:
        return False, f"tau=0.05 mean max component {means[0.05]:.3f} < 0.99"
    ordered = [means[t] for t in taus]
    if any(ordered[i] < ordered[i + 1] - 1e-12 for i in range(len(taus) - 1)):
        return False, f"mean max component not non-increasing in tau: {ordered}"
    return True, (
        f"mean max component {means[0.05]:.3f} at tau=0.05, {means[10.0]:.3f} at tau=10"
    )


def check_simplex(seed=0, draws=200):
    """Relaxed samples live on the probability simplex at every temperature."""
    rng = np.random.default_rng([seed, 50])
    for tau in (0.05, 0.3, 1.0, 5.0, 20.0):
        for _ in range(draws):
            scores = rng.normal(size=4) * 3.0
            sample = gumbel_softmax(scores, sample_gumbel((4,), rng), tau).values
            if np.any(sample < 0.0) or abs(float(sample.sum()) - 1.0) > 1e-12:
                return False, f"sample off the simplex at tau={tau}"
    return True, "samples non-negative and sum to one across temperatures"


SUITES = (
    ("grad_check", check_grad_rules),
    ("gumbel_max_marginal", check_gumbel_max_marginal),
    ("straight_through", check_straight_through),
    ("temperature_limits", check_temperature_limits),
    ("simplex", check_simplex),
)


def run_all(seed=0):
    """Run every suite; returns [(name, passed, detail)]."""
    results = []
    for name, fn in SUITES:
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
