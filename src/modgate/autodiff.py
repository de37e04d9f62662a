"""Reverse-mode automatic differentiation over dense float64 arrays.

Everything is 64-bit and row-major.  Operations record onto an explicit
``Tape`` (a Wengert list, one record per op in execution order) while one is
active; ``backward`` replays the tape once in reverse and accumulates
gradients additively across fan-out.  Broadcasting is deliberately limited to
scalar-with-tensor so every backward rule stays small enough to audit by hand;
anything else raises ``DimensionError``.  The one exception is ``affine``,
whose bias is a single row added to every row of its ``(T, D)`` input; that
broadcast lives inside the op and its own backward rule.  ``lstm`` is a
sequence op: it runs a whole recurrence over ``(T, 4H)`` rows forward as one
record, and its rule back-propagates through time.

A forward pass that produces NaN or Inf from finite inputs raises
``DomainError`` immediately: overflow is an error, not a silent state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, DomainError

_TAPES = []  # active tapes, innermost last


class Record:
    """One executed operation: kind, input tensors, output tensor, context."""

    __slots__ = ("kind", "inputs", "output", "ctx")

    def __init__(self, kind, inputs, output, ctx):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.ctx = ctx


class Tape:
    """Ordered list of operation records; execution order is a topological order."""

    def __init__(self):
        self.records = []

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        return False


class Tensor:
    """A dense float64 array plus gradient bookkeeping."""

    __slots__ = ("values", "requires_grad", "grad", "tape")

    def __init__(self, values, requires_grad=False):
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags.c_contiguous:  # keep rank-0 shapes as-is
            arr = np.ascontiguousarray(arr)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.tape = None

    @property
    def shape(self):
        return self.values.shape

    def __getitem__(self, key):
        return narrow(self, key)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.values.shape)}{flag})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(values):
    """A tensor that never requires gradient."""
    return Tensor(values, requires_grad=False)


def _emit(kind, inputs, out_values, ctx=None):
    if not np.isfinite(out_values).all():
        raise DomainError(f"{kind}: non-finite result (overflow or invalid operand)")
    out = Tensor.__new__(Tensor)
    out.values = out_values
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.tape = None
    if out.requires_grad and _TAPES:
        tape = _TAPES[-1]
        out.tape = tape
        tape.records.append(Record(kind, inputs, out, ctx))
    return out


def _check_binary(a, b, kind):
    """Shapes must match exactly, or one operand must have exactly one element."""
    if a.values.shape == b.values.shape:
        return
    if a.values.size == 1 or b.values.size == 1:
        return
    raise DimensionError(
        f"{kind}: shapes {a.values.shape} and {b.values.shape} differ and neither is scalar"
    )


def _reduce_to(grad, shape):
    """Collapse a gradient onto a (possibly scalar) operand shape."""
    if grad.shape == shape:
        return grad
    return np.asarray(grad.sum(), dtype=np.float64).reshape(shape)


# ---------------------------------------------------------------------------
# forward ops


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary(a, b, "add")
    return _emit("add", (a, b), a.values + b.values)


def subtract(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary(a, b, "subtract")
    return _emit("subtract", (a, b), a.values - b.values)


def multiply(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary(a, b, "multiply")
    return _emit("multiply", (a, b), a.values * b.values)


def scale(t, c):
    """Multiply by a python float constant (no gradient flows into c)."""
    t = _as_tensor(t)
    return _emit("scale", (t,), t.values * float(c), ctx=float(c))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim not in (1, 2) or b.values.ndim not in (1, 2):
        raise DimensionError(
            f"matmul: only rank-1/2 operands supported, got {a.values.ndim} and {b.values.ndim}"
        )
    inner_a = a.values.shape[-1]
    inner_b = b.values.shape[0]
    if inner_a != inner_b:
        raise DimensionError(
            f"matmul: inner dimensions disagree ({a.values.shape} @ {b.values.shape})"
        )
    return _emit("matmul", (a, b), a.values @ b.values)


def concatenate(tensors, axis=0):
    tensors = tuple(_as_tensor(t) for t in tensors)
    if not tensors:
        raise DimensionError("concatenate: need at least one tensor")
    ndim = tensors[0].values.ndim
    for t in tensors:
        if t.values.ndim != ndim:
            raise DimensionError("concatenate: rank mismatch")
    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError(f"concatenate: {exc}") from None
    sizes = tuple(t.values.shape[axis] for t in tensors)
    return _emit("concatenate", tensors, out, ctx=(axis, sizes))


def narrow(t, key):
    """Pick part of ``t``; the gradient lands where the values came from.

    ``key`` is basic indexing (ints, slices, ``None``, ``...``), or a 1-D
    integer array without repeats, alone or paired with an int
    (``t[rows, 1]``), so that no element is picked twice.
    """
    t = _as_tensor(t)
    picked = np.array(t.values[key], dtype=np.float64)
    return _emit("slice", (t,), picked, ctx=key)


def affine(x, W, b):
    """``x @ W.T + b`` for each row of a (T, D) ``x``."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if (W.values.ndim != 2 or b.values.shape != W.values.shape[:1]
            or x.values.ndim != 2 or x.values.shape[1] != W.values.shape[1]):
        raise DimensionError(
            f"affine: x {x.values.shape}, W {W.values.shape}, b {b.values.shape} do not fit"
        )
    return _emit("affine", (x, W, b), x.values @ W.values.T + b.values)


def lstm(pre, Wh, h0, c0):
    """An LSTM recurrence over the rows of ``pre``, as one op; gate order i, f, g, o.

    ``pre`` holds each step's input pre-activations, (T, 4H); step t adds
    ``Wh @ h_{t-1}`` to row t, starting from ``h0`` and ``c0``.  Returns one
    row ``[h_t | c_t]`` per step, (T, 2H).
    """
    pre, Wh, h0, c0 = (_as_tensor(t) for t in (pre, Wh, h0, c0))
    H = h0.values.shape[0] if h0.values.ndim == 1 else -1
    if (H < 1 or c0.values.shape != (H,) or Wh.values.shape != (4 * H, H)
            or pre.values.ndim != 2 or pre.values.shape[1] != 4 * H):
        raise DimensionError(
            f"lstm: pre {pre.values.shape}, Wh {Wh.values.shape}, h0 {h0.values.shape}, "
            f"c0 {c0.values.shape} do not fit"
        )
    steps = pre.values.reshape(-1, 4, H)
    T = steps.shape[0]
    gates = np.empty((T, 4, H))  # activated i, f, g, o per step
    hidden = np.empty((T + 1, H))  # h_{t-1} at row t
    cells = np.empty((T + 1, H))  # c_{t-1} at row t
    hidden[0], cells[0] = h0.values, c0.values
    W = Wh.values
    with np.errstate(over="ignore"):  # exp(-z) -> inf gives the exact limit 0
        for t in range(T):
            z = steps[t] + (W @ hidden[t]).reshape(4, H)
            a = gates[t]
            np.divide(1.0, 1.0 + np.exp(-z), out=a)
            a[2] = np.tanh(z[2])
            cells[t + 1] = a[1] * cells[t] + a[0] * a[2]
            hidden[t + 1] = a[3] * np.tanh(cells[t + 1])
    out = np.concatenate([hidden[1:], cells[1:]], axis=1)
    return _emit("lstm", (pre, Wh, h0, c0), out, ctx=(gates, hidden, cells))


def tanh(t):
    t = _as_tensor(t)
    out = np.tanh(t.values)
    return _emit("tanh", (t,), out, ctx=out)


def softmax(t):
    """Softmax over the last axis, with max subtraction for stability."""
    t = _as_tensor(t)
    if t.values.ndim < 1 or t.values.shape[-1] < 1:
        raise DimensionError("softmax: need at least one element on the last axis")
    shifted = t.values - t.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    return _emit("softmax", (t,), out, ctx=out)


def log_softmax(t):
    """Fused log(softmax(x)) over the last axis; never materializes the ratio."""
    t = _as_tensor(t)
    if t.values.ndim < 1 or t.values.shape[-1] < 1:
        raise DimensionError("log_softmax: need at least one element on the last axis")
    shifted = t.values - t.values.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return _emit("log_softmax", (t,), out, ctx=out)


def reduce_sum(t):
    t = _as_tensor(t)
    return _emit("sum", (t,), np.asarray(t.values.sum(), dtype=np.float64))


def add_n(tensors):
    """Sum a non-empty sequence of same-shaped tensors."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("add_n: need at least one tensor")
    total = _as_tensor(tensors[0])
    for t in tensors[1:]:
        total = add(total, t)
    return total


# ---------------------------------------------------------------------------
# backward rules


def _bk_add(rec, g):
    a, b = rec.inputs
    return (_reduce_to(g, a.values.shape), _reduce_to(g, b.values.shape))


def _bk_subtract(rec, g):
    a, b = rec.inputs
    return (_reduce_to(g, a.values.shape), _reduce_to(-g, b.values.shape))


def _bk_multiply(rec, g):
    a, b = rec.inputs
    return (_reduce_to(g * b.values, a.values.shape), _reduce_to(g * a.values, b.values.shape))


def _bk_scale(rec, g):
    return (g * rec.ctx,)


def _bk_matmul(rec, g):
    a, b = rec.inputs
    av, bv = a.values, b.values
    ga = gb = None  # a constant operand, such as all-ones row weights, takes no gradient
    if a.requires_grad:
        if av.ndim == 2:
            ga = g @ bv.T if bv.ndim == 2 else np.outer(g, bv)
        else:
            ga = bv @ g if bv.ndim == 2 else g * bv  # g is scalar for a dot product
    if b.requires_grad:
        if av.ndim == 2:
            gb = av.T @ g
        else:
            gb = np.outer(av, g) if bv.ndim == 2 else g * av
    return (ga, gb)


def _bk_concatenate(rec, g):
    axis, sizes = rec.ctx
    splits = np.cumsum(sizes[:-1])
    return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))


def _bk_slice(rec, g):
    (a,) = rec.inputs
    out = np.zeros_like(a.values)
    out[rec.ctx] = g  # basic indexing, or an index array without repeats, picks no element twice
    return (out,)


def _bk_affine(rec, g):
    x, W, _ = rec.inputs
    # x is usually a constant input view, which takes no gradient
    return (g @ W.values if x.requires_grad else None, g.T @ x.values, g.sum(axis=0))


def _bk_lstm(rec, g):
    """Back-propagation through time, last step first."""
    Wh = rec.inputs[1]
    gates, hidden, cells = rec.ctx
    T, _, H = gates.shape
    i, f, c, o = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
    tanh_c = np.tanh(cells[1:])
    # d pre / d c_t for the i, f, g gates, and d pre / d h_t for the o gate
    by_cell = np.stack([c * i * (1.0 - i), cells[:-1] * f * (1.0 - f), i * (1.0 - c * c)], axis=1)
    by_hidden = tanh_c * o * (1.0 - o)
    h_to_c = o * (1.0 - tanh_c * tanh_c)
    up = g.reshape(T, 2, H)
    W = Wh.values
    d_pre = np.empty((T, 4, H))
    d_h = np.zeros(H)
    d_c = np.zeros(H)
    for t in range(T - 1, -1, -1):
        d_h = up[t, 0] + d_h
        d_c = up[t, 1] + d_c + d_h * h_to_c[t]
        d = d_pre[t]
        np.multiply(by_cell[t], d_c, out=d[:3])
        np.multiply(by_hidden[t], d_h, out=d[3])
        d_c = d_c * f[t]
        d_h = d.reshape(4 * H) @ W
    d_pre = d_pre.reshape(T, 4 * H)
    return (d_pre, d_pre.T @ hidden[:-1], d_h, d_c)


def _bk_tanh(rec, g):
    y = rec.ctx
    return (g * (1.0 - y * y),)


def _bk_softmax(rec, g):
    s = rec.ctx
    return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)


def _bk_log_softmax(rec, g):
    y = rec.ctx
    return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)


def _bk_sum(rec, g):
    (a,) = rec.inputs
    return (np.full(a.values.shape, float(g)),)


# Dispatch table; tests corrupt entries on purpose to prove the verifier notices.
BACKWARD_RULES = {
    "add": _bk_add,
    "subtract": _bk_subtract,
    "multiply": _bk_multiply,
    "scale": _bk_scale,
    "matmul": _bk_matmul,
    "concatenate": _bk_concatenate,
    "slice": _bk_slice,
    "affine": _bk_affine,
    "lstm": _bk_lstm,
    "tanh": _bk_tanh,
    "softmax": _bk_softmax,
    "log_softmax": _bk_log_softmax,
    "sum": _bk_sum,
}

_FORWARD = {
    "add": add,
    "subtract": subtract,
    "multiply": multiply,
    "scale": scale,
    "matmul": matmul,
    "concatenate": lambda *ts, axis=0: concatenate(ts, axis=axis),
    "slice": narrow,
    "affine": affine,
    "lstm": lstm,
    "tanh": tanh,
    "softmax": softmax,
    "log_softmax": log_softmax,
    "sum": reduce_sum,
}

OP_KINDS = tuple(sorted(_FORWARD))


def forward_op(kind, inputs, **kwargs):
    """Apply an operation by kind name; used by generic per-op property checks."""
    try:
        fn = _FORWARD[kind]
    except KeyError:
        raise ContractError(f"unknown operation kind {kind!r}") from None
    return fn(*inputs, **kwargs)


def backward(root):
    """Accumulate d(root)/d(x) into ``x.grad`` for every reachable tensor.

    ``root`` must be a scalar.  Each tape record is visited exactly once, in
    reverse execution order; records whose outputs received no gradient are
    skipped.  Gradients are accumulated out-of-place, so fan-out adds up and
    no rule may mutate its incoming gradient.
    """
    if root.values.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.values.shape}")
    if not root.requires_grad:
        raise ContractError("backward: root does not require grad")
    root.grad = np.ones_like(root.values)
    tape = root.tape
    if tape is None:
        return  # leaf scalar: gradient w.r.t. itself is 1
    for rec in reversed(tape.records):
        g = rec.output.grad
        if g is None:
            continue
        grads = BACKWARD_RULES[rec.kind](rec, g)
        for inp, gi in zip(rec.inputs, grads):
            if gi is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = gi
            else:
                inp.grad = inp.grad + gi


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic and central-difference gradients."""

    max_rel_error: float
    worst_index: tuple
    analytic: np.ndarray
    numeric: np.ndarray
    passed: bool


def grad_check(f, x, step=2e-3, tol=1e-5):
    """Compare analytic and numeric gradients of scalar-valued ``f`` at ``x``.

    ``f`` takes the tensor ``x`` and returns a scalar Tensor; it must be
    deterministic (freeze any sampling).  The numeric side is a Richardson
    extrapolation of central differences at ``step`` and ``step/2``, which
    cancels the quadratic truncation term and resolves coordinates whose
    gradients sit many orders below the loss scale.  Relative error uses the
    denominator max(|analytic|, |numeric|, 1e-8) per coordinate.  Other
    parameters captured by ``f`` may be left with stale ``grad`` fields;
    callers that care should zero them afterwards.
    """
    was_required = x.requires_grad
    x.requires_grad = True
    x.grad = None
    with Tape():
        y = f(x)
        if not isinstance(y, Tensor) or y.values.size != 1:
            x.requires_grad = was_required
            raise ContractError("grad_check: f must return a scalar Tensor")
        backward(y)
    if x.grad is None:
        analytic = np.zeros_like(x.values)
    else:
        analytic = np.array(x.grad, dtype=np.float64).reshape(x.values.shape)
    x.grad = None

    numeric = np.empty_like(x.values)
    flat = x.values.reshape(-1)
    nflat = numeric.reshape(-1)
    half = 0.5 * step
    for i in range(flat.size):
        orig = flat[i]

        def probe(offset):
            flat[i] = orig + offset
            return float(f(x).values)

        coarse = (probe(step) - probe(-step)) / (2.0 * step)
        fine = (probe(half) - probe(-half)) / step
        flat[i] = orig
        nflat[i] = (4.0 * fine - coarse) / 3.0
    x.requires_grad = was_required

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    if rel.size == 0:
        return GradCheckReport(0.0, (), analytic, numeric, True)
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.ndim else ()
    max_rel = float(rel.max())
    return GradCheckReport(max_rel, worst, analytic, numeric, max_rel <= tol)
