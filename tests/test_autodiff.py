"""Tests for the float64 reverse-mode autodiff core."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modgate import autodiff as ad
from modgate import verify
from modgate.autodiff import Tape, Tensor, backward, grad_check
from modgate.errors import ContractError, DimensionError, DomainError
from modgate.model import forward_video
from modgate.objective import cross_entropy, total_loss
from modgate.policy import TRAIN_STOCHASTIC
from modgate.verify import PLANTED

rng = np.random.default_rng(42)


def scalar_through(op, *tensors, **kwargs):
    """Reduce an op's output to a scalar via a fixed random projection."""
    out = op(*tensors, **kwargs)
    w = ad.constant(np.linspace(0.3, 1.1, out.values.size).reshape(out.values.shape))
    return ad.reduce_sum(ad.multiply(out, w))


class TestForwardValues:
    def test_softmax_two_zero_matches_extended_precision_oracle(self):
        """softmax([2, 0]) against a 50-digit mpmath evaluation."""
        import mpmath

        mpmath.mp.dps = 50
        e2 = mpmath.e ** 2
        oracle = [float(e2 / (e2 + 1)), float(1 / (e2 + 1))]
        got = ad.softmax(Tensor([2.0, 0.0])).values
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-15)
        # six-decimal reference values, frozen
        np.testing.assert_allclose(got, [0.880797, 0.119203], atol=5e-7)

    def test_softmax_uniform_on_equal_scores(self):
        got = ad.softmax(Tensor([0.0, 0.0])).values
        np.testing.assert_array_equal(got, [0.5, 0.5])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rng.normal(size=(3, 5)))
        fused = ad.log_softmax(x).values
        composed = np.log(ad.softmax(x).values)
        np.testing.assert_allclose(fused, composed, atol=1e-12)

    def test_log_softmax_survives_large_scores(self):
        """Max subtraction keeps huge logits finite where naive exp overflows."""
        x = Tensor([1000.0, 999.0])
        out = ad.log_softmax(x).values
        np.testing.assert_allclose(out, [-0.31326168751822286, -1.3132616875182228], atol=1e-12)

    def test_matmul_identity(self):
        a = rng.normal(size=(4, 4))
        out = ad.matmul(Tensor(a), Tensor(np.eye(4))).values
        np.testing.assert_array_equal(out, a)

    def test_scalar_broadcast_both_orders(self):
        v = Tensor([1.0, 2.0, 3.0])
        s = Tensor(2.0)
        np.testing.assert_array_equal(ad.add(v, s).values, [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(ad.multiply(s, v).values, [2.0, 4.0, 6.0])

    def test_concatenate_and_slice_roundtrip(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0])
        cat = ad.concatenate([a, b])
        np.testing.assert_array_equal(cat.values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(cat[0:2].values, [1.0, 2.0])
        assert cat[2].values.shape == ()

    def test_determinism_bitwise(self):
        x = rng.normal(size=(6,))

        def run():
            t = Tensor(x, requires_grad=True)
            with Tape():
                y = ad.reduce_sum(ad.softmax(ad.tanh(t)))
                backward(y)
            return y.values.copy(), t.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(g1, g2)


class TestErrors:
    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_matmul_inner_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_overflow_is_an_error_not_inf(self):
        with pytest.raises(DomainError), np.errstate(over="ignore"):
            ad.multiply(Tensor([1e200]), Tensor([2e200]))

    def test_backward_from_nonscalar_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with Tape():
            y = ad.tanh(t)
        with pytest.raises(ContractError):
            backward(y)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        t = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        with Tape():
            backward(ad.reduce_sum(t))
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_fanout_gradients_accumulate(self):
        """y = x*x via two uses of x must match the closed form 2x."""
        t = Tensor([1.5, -2.0], requires_grad=True)
        with Tape():
            backward(ad.reduce_sum(ad.multiply(t, t)))
        np.testing.assert_allclose(t.grad, 2.0 * t.values, atol=1e-12)

    def test_unused_branch_gets_no_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        u = Tensor([3.0, 4.0], requires_grad=True)
        with Tape():
            ad.tanh(u)  # recorded but unreachable from the root
            backward(ad.reduce_sum(t))
        assert u.grad is None

    def test_slice_gradient_scatters(self):
        t = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        with Tape():
            y = ad.add(ad.reduce_sum(t[1:3]), ad.reduce_sum(t[2]))
            backward(y)
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 2.0, 0.0])

    @pytest.mark.parametrize("kind", ["affine", "matmul"])
    def test_constant_operand_takes_no_gradient_product(self, kind):
        """A constant input view or row-weight vector gets None, not a product nobody reads."""
        W = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        with Tape() as tape:
            if kind == "affine":
                out = ad.affine(ad.constant(rng.normal(size=(3, 4))), W, ad.constant(np.zeros(2)))
            else:
                out = ad.matmul(ad.constant(np.ones(2)), W)
        (rec,) = tape.records
        grads = ad.BACKWARD_RULES[rec.kind](rec, np.ones(out.shape))
        assert grads[0] is None and grads[1] is not None


class TestFiniteDifferences:
    """Analytic gradients against central differences for every op kind."""

    @pytest.mark.parametrize("kind", ["add", "subtract", "multiply"])
    def test_binary_elementwise(self, kind):
        op = getattr(ad, kind)
        for _ in range(10):
            a = Tensor(rng.normal(size=(5,)))
            b = Tensor(rng.normal(size=(5,)))
            for target, other, f in (
                (a, b, lambda t, o=b: scalar_through(op, t, o)),
                (b, a, lambda t, o=a: scalar_through(op, o, t)),
            ):
                rep = grad_check(f, target, tol=1e-5)
                assert rep.passed, f"{kind}: rel err {rep.max_rel_error:.2e}"

    @pytest.mark.parametrize(
        "ashape,bshape",
        [((3, 4), (4, 2)), ((3, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))],
    )
    def test_matmul_all_rank_pairs(self, ashape, bshape):
        for _ in range(10):
            a = Tensor(rng.normal(size=ashape))
            b = Tensor(rng.normal(size=bshape))
            ra = grad_check(lambda t: scalar_through(ad.matmul, t, b), a, tol=1e-5)
            rb = grad_check(lambda t: scalar_through(ad.matmul, a, t), b, tol=1e-5)
            assert ra.passed and rb.passed

    @pytest.mark.parametrize("kind", ["tanh", "softmax", "log_softmax"])
    def test_unary_smooth(self, kind):
        op = getattr(ad, kind)
        for _ in range(10):
            x = Tensor(rng.normal(size=(6,)))
            rep = grad_check(lambda t: scalar_through(op, t), x, tol=1e-5)
            assert rep.passed, f"{kind}: rel err {rep.max_rel_error:.2e}"

    def test_reductions_and_scale(self):
        for _ in range(10):
            x = Tensor(rng.normal(size=(3, 3)))
            assert grad_check(ad.reduce_sum, x, tol=1e-5).passed
            assert grad_check(lambda t: ad.reduce_sum(ad.scale(t, -1.7)), x, tol=1e-5).passed

    def test_concatenate_and_slice(self):
        for _ in range(10):
            a = Tensor(rng.normal(size=(3,)))
            b = Tensor(rng.normal(size=(4,)))
            f = lambda t: scalar_through(lambda u: ad.concatenate([u, b]), t)
            assert grad_check(f, a, tol=1e-5).passed
            g = lambda t: scalar_through(lambda u: u[1:3], t)
            assert grad_check(g, b, tol=1e-5).passed

    def test_cross_entropy_composite(self):
        """-log_softmax picked at a label index, an exact-gradient classic."""
        for _ in range(10):
            x = Tensor(rng.normal(size=(5,)))
            rep = grad_check(lambda t: ad.scale(ad.log_softmax(t)[2], -1.0), x, tol=1e-6)
            assert rep.passed

    def test_grad_check_reports_linear_exactly(self):
        x = Tensor(rng.normal(size=(4,)))
        rep = grad_check(ad.reduce_sum, x)
        assert rep.max_rel_error <= 1e-9


class TestForwardOpDispatch:
    def test_every_kind_is_callable_by_name(self):
        samples = {
            "add": ([Tensor([1.0]), Tensor([2.0])], {}),
            "subtract": ([Tensor([1.0]), Tensor([2.0])], {}),
            "multiply": ([Tensor([1.0]), Tensor([2.0])], {}),
            "scale": ([Tensor([1.0]), 2.0], {}),
            "matmul": ([Tensor(np.ones((2, 2))), Tensor(np.ones(2))], {}),
            "concatenate": ([Tensor([1.0]), Tensor([2.0])], {}),
            "slice": ([Tensor([1.0, 2.0]), slice(0, 1)], {}),
            "affine": ([Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))), Tensor(np.ones(4))], {}),
            "lstm": ([Tensor(np.ones((3, 8))), Tensor(np.ones((8, 2))), Tensor(np.zeros(2)),
                      Tensor(np.zeros(2))], {}),
            "tanh": ([Tensor([0.0])], {}),
            "softmax": ([Tensor([0.0, 1.0])], {}),
            "log_softmax": ([Tensor([0.0, 1.0])], {}),
            "sum": ([Tensor([1.0, 2.0])], {}),
        }
        assert set(samples) == set(ad.OP_KINDS)
        for kind, (inputs, kwargs) in samples.items():
            out = ad.forward_op(kind, inputs, **kwargs)
            assert isinstance(out, Tensor)

    def test_every_kind_is_recorded_by_production_code(self):
        """A warm-up forward with cross-entropy plus a training forward with the full
        loss, relabelled to its own prediction so the usage penalty runs, record
        every kind the engine offers."""
        model, video, noise, cost = verify.full_loss_case(0)
        kinds = set()
        with Tape() as tape:
            fw = forward_video(model, video, forced_gates=np.ones(PLANTED.shape, dtype=int))
            cross_entropy(fw.logits, video.label)
        kinds.update(rec.kind for rec in tape.records)

        def train_forward():
            return forward_video(model, video, mode=TRAIN_STOCHASTIC, tau=1.0, noise=noise)

        own = replace(video, label=int(np.argmax(train_forward().logits.values)))
        with Tape() as tape:
            fw = train_forward()
            total_loss(fw.logits, own.label, fw.decisions, cost)
        kinds.update(rec.kind for rec in tape.records)
        assert kinds == set(ad.OP_KINDS)

    def test_unknown_kind_raises(self):
        with pytest.raises(ContractError):
            ad.forward_op("convolve", [Tensor([1.0])])


def _lstm_reference(pre, Wh, h0, c0):
    """The recurrence in plain numpy, one cell per step: (T, 2H) rows ``[h_t | c_t]``."""
    H = h0.shape[0]
    h, c, rows = h0, c0, []
    for z in pre:
        z = z + Wh @ h
        i, f, o = (1.0 / (1.0 + np.exp(-z[s:s + H])) for s in (0, H, 3 * H))
        c = f * c + i * np.tanh(z[2 * H:3 * H])
        h = o * np.tanh(c)
        rows.append(np.concatenate([h, c]))
    return np.array(rows)


def _sigmoid(z):
    """sigmoid(z) = (1 + tanh(z / 2)) / 2, from the engine's own ops."""
    return ad.add(ad.scale(ad.tanh(ad.scale(z, 0.5)), 0.5), ad.constant(0.5))


def _lstm_by_steps(pre, Wh, h0, c0):
    """The recurrence as one cell per step, from the elementwise ops."""
    H = h0.values.shape[0]
    h, c, rows = h0, c0, []
    for t in range(pre.values.shape[0]):
        z = ad.add(pre[t], ad.matmul(Wh, h))
        i, f = _sigmoid(z[0:H]), _sigmoid(z[H:2 * H])
        g, o = ad.tanh(z[2 * H:3 * H]), _sigmoid(z[3 * H:])
        c = ad.add(ad.multiply(f, c), ad.multiply(i, g))
        h = ad.multiply(o, ad.tanh(c))
        rows.append(ad.concatenate([h, c]))
    return rows


class TestSequenceOps:
    def test_affine_rows_match_numpy(self):
        X, W, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 3)), rng.normal(size=5)
        rows = ad.affine(X, W, b).values
        for t in range(4):
            np.testing.assert_allclose(rows[t], W @ X[t] + b, rtol=1e-14)

    def test_affine_shape_errors(self):
        with pytest.raises(DimensionError):
            ad.affine(np.ones((2, 4)), np.ones((5, 3)), np.ones(5))
        with pytest.raises(DimensionError):
            ad.affine(np.ones((2, 3)), np.ones((5, 3)), np.ones(4))
        with pytest.raises(DimensionError):  # rows only: a vector is not a (1, D) matrix
            ad.affine(np.ones(3), np.ones((5, 3)), np.ones(5))

    def test_lstm_matches_the_step_by_step_cell(self):
        H, T = 3, 5
        pre, Wh = Tensor(rng.normal(size=(T, 4 * H))), Tensor(rng.normal(size=(4 * H, H)))
        h0, c0 = Tensor(rng.normal(size=H)), Tensor(rng.normal(size=H))
        fused = ad.lstm(pre, Wh, h0, c0).values
        for t, row in enumerate(_lstm_reference(pre.values, Wh.values, h0.values, c0.values)):
            np.testing.assert_allclose(fused[t], row, rtol=1e-13, atol=1e-15)

    def test_lstm_gradient_matches_the_step_by_step_cell(self):
        H, T = 2, 4
        tensors = [Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((T, 4 * H), (4 * H, H), H, H)]
        w = ad.constant(rng.normal(size=(T, 2 * H)))
        grads = []
        for build in (lambda: ad.lstm(*tensors), lambda: ad.concatenate(
                [ad.narrow(r, (None, slice(None))) for r in _lstm_by_steps(*tensors)])):
            for x in tensors:
                x.grad = None
            with Tape():
                backward(ad.reduce_sum(ad.multiply(build(), w)))
            grads.append([x.grad for x in tensors])
        for fused, stepped in zip(*grads):
            np.testing.assert_allclose(fused, stepped, rtol=1e-12, atol=1e-14)

    def test_lstm_shape_errors(self):
        with pytest.raises(DimensionError):
            ad.lstm(np.ones((3, 8)), np.ones((8, 3)), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):
            ad.lstm(np.ones((3, 7)), np.ones((8, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(DimensionError):  # rows only: one step is a (1, 4H) matrix
            ad.lstm(np.ones(8), np.ones((8, 2)), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("kind", ad.OP_KINDS)
    def test_verify_notices_a_broken_rule(self, kind, monkeypatch):
        rule = ad.BACKWARD_RULES[kind]

        def crooked(rec, g):
            return tuple(None if gi is None else gi * 1.01 for gi in rule(rec, g))

        monkeypatch.setitem(ad.BACKWARD_RULES, kind, crooked)
        passed, detail = verify.check_grad_rules(seed=0)
        failed = {entry.split(" ")[0].split("/")[0]
                  for entry in detail.removeprefix("mismatched rules: ").split(", ")}
        assert not passed and kind in failed


def _scalarized(make, shape, seed):
    w = ad.constant(np.random.default_rng(seed).normal(size=shape))
    return lambda _: ad.reduce_sum(ad.multiply(make(), w))


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 4), d=st.integers(1, 4), e=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_affine_backward_matches_finite_differences(rows, d, e, seed):
    gen = np.random.default_rng(seed)
    x, W, b = (Tensor(gen.normal(size=s)) for s in ((rows, d), (e, d), (e,)))
    f = _scalarized(lambda: ad.affine(x, W, b), (rows, e), seed)
    for t in (x, W, b):
        rep = grad_check(f, t, tol=1e-6)
        assert rep.passed, rep.max_rel_error


@settings(max_examples=25, deadline=None)
@given(T=st.integers(1, 5), H=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_lstm_backward_matches_finite_differences(T, H, seed):
    gen = np.random.default_rng(seed)
    pre, Wh, h0, c0 = (Tensor(gen.normal(size=s)) for s in ((T, 4 * H), (4 * H, H), H, H))
    f = _scalarized(lambda: ad.lstm(pre, Wh, h0, c0), (T, 2 * H), seed)
    for t in (pre, Wh, h0, c0):
        rep = grad_check(f, t, tol=1e-5)
        assert rep.passed, rep.max_rel_error


@settings(max_examples=25, deadline=None)
@given(T=st.integers(1, 6), col=st.sampled_from([None, 0, 1]), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_index_array_slice_backward_matches_finite_differences(T, col, data, seed):
    """Sorted unique rows of a (T, 2) tensor, alone or paired with a column."""
    rows = np.array(sorted(data.draw(st.sets(st.integers(0, T - 1), min_size=1))))
    key = rows if col is None else (rows, col)
    x = Tensor(np.random.default_rng(seed).normal(size=(T, 2)))
    f = _scalarized(lambda: ad.narrow(x, key), x.values[key].shape, seed)
    rep = grad_check(f, x, tol=1e-6)
    assert rep.passed, rep.max_rel_error
