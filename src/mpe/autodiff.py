"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tape records every op executed while it is the active context;
`tape.backward(loss)` walks the recording in exact reverse order,
accumulating gradients into leaf tensors. Gradients accumulate across
backward calls until `zero_grad` sets them to zero arrays, so training steps
zero between batches and a parameter no op reached keeps an exactly-zero
gradient. `dropout` is the identity without a random stream. Ops run outside
any tape compute values only, which is how evaluation avoids bookkeeping. A
tape holds its outputs and a tensor holds no reference back, so a tape is
freed by reference count as soon as its last name goes away.

Besides elementwise and matrix ops, `lstm_sequence` reads a batch of padded
sequences through one LSTM layer as a single op (the fused-gate layout of
Appleyard, Kočiský & Blunsom 2016): the four gates' weights are concatenated
at call time, the input projection X@Wx + b is one product for all rows and
steps, and each step costs one h@Wh over the whole batch. A row's state is
frozen once its sequence ends. Its forward is plain numpy; on a tape it
records one entry with two outputs (hidden rows and final cell states) and a
hand-written backward through time, so a read costs one tape entry whatever
its length or batch size. `matmul` and `transpose` also take a leading batch
axis, `pick` takes one step per batch row along the time axis, and
`cross_entropy` scores a batch of logit rows.

Everything is float64 on purpose: the models here are desk-scale, and exact
finite-difference agreement is worth more than speed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .text import _atomic_write_bytes, _quote


class ShapeError(ValueError):
    """Incompatible operand shapes; the message names both."""


class Tensor:
    """A dense float64 array plus its accumulated gradient.

    grad is None until `zero_grad` sets it to zeros or backward first reaches
    the tensor; backward resets the grads of a tape's own outputs to None.
    """

    __slots__ = ("values", "grad", "name")

    def __init__(self, values, name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.values.shape})"


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Recording of ops in execution order; a context manager.

    Entering makes this tape the active recorder (the previous one is
    restored on exit, so tapes nest). backward may be called after exit.
    """

    def __init__(self):
        self._entries: list[tuple[tuple[Tensor, ...], Callable[[], None]]] = []
        self._prev: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        self._prev = None

    def record(
        self, out: "Tensor | tuple[Tensor, ...]", backward_thunk: Callable[[], None]
    ) -> None:
        """Record an op's output, or the tuple of its outputs; the thunk runs
        in backward when any of them has a gradient."""
        self._entries.append((out if isinstance(out, tuple) else (out,), backward_thunk))

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Populate grads of everything that fed the scalar loss.

        Intermediate grads are reset first, so repeated calls accumulate only
        into leaves (parameters and inputs), never double-count internals.
        """
        if loss.values.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.values.shape}")
        recorded = False
        for outs, _ in self._entries:
            for out in outs:
                out.grad = None
                recorded = recorded or out is loss
        if not recorded:
            raise ValueError("loss was not recorded on this tape")
        loss.grad = np.ones_like(loss.values)
        for outs, thunk in reversed(self._entries):
            if any(out.grad is not None for out in outs):
                thunk()


def active_tape() -> "Tape | None":
    """The tape currently recording, if any (custom ops hook in here)."""
    return _ACTIVE_TAPE


def zero_grad(tensors: Sequence[Tensor]) -> None:
    """Set each tensor's gradient to an array of zeros."""
    for t in tensors:
        t.grad = np.zeros_like(t.values)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _record(out: "Tensor | tuple[Tensor, ...]", thunk: Callable[[], None]):
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(out, thunk)
    return out


def _broadcast(ufunc: np.ufunc, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """`ufunc` on the two operands; numpy's broadcast failure becomes a ShapeError."""
    try:
        return ufunc(a.values, b.values)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.values.shape} and {b.values.shape} do not broadcast"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcast(np.add, a, b, "add"))

    def thunk():
        _accumulate(a, _unbroadcast(out.grad, a.values.shape))
        _accumulate(b, _unbroadcast(out.grad, b.values.shape))

    return _record(out, thunk)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(_broadcast(np.multiply, a, b, "mul"))

    def thunk():
        _accumulate(a, _unbroadcast(out.grad * b.values, a.values.shape))
        _accumulate(b, _unbroadcast(out.grad * a.values, b.values.shape))

    return _record(out, thunk)


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = Tensor(a.values * factor)

    def thunk():
        _accumulate(a, out.grad * factor)

    return _record(out, thunk)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. a may carry leading axes against a matrix b (they are
    folded into rows, so the product is one (rows, n) @ (n, p) call), or a and
    b may be two (B, m, n) and (B, n, p) batches multiplied pairwise."""
    x, w = a.values, b.values
    shared = w.ndim == 2 and x.ndim >= 2
    paired = w.ndim == 3 and x.ndim == 3 and x.shape[0] == w.shape[0]
    if not (shared or paired) or x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"matmul: cannot multiply {x.shape} by {w.shape}")
    if paired:
        out = Tensor(np.matmul(x, w))

        def thunk():
            _accumulate(a, np.matmul(out.grad, w.swapaxes(1, 2)))
            _accumulate(b, np.matmul(x.swapaxes(1, 2), out.grad))

        return _record(out, thunk)
    rows = x.reshape(-1, x.shape[-1])
    out = Tensor((rows @ w).reshape(x.shape[:-1] + w.shape[1:]))

    def thunk():
        g = out.grad.reshape(-1, w.shape[1])
        _accumulate(a, (g @ w.T).reshape(x.shape))
        _accumulate(b, rows.T @ g)

    return _record(out, thunk)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: a matrix, or each matrix of a batch."""
    if a.values.ndim not in (2, 3):
        raise ShapeError(
            f"transpose: need a matrix or a batch of them, got shape {a.values.shape}"
        )
    out = Tensor(a.values.swapaxes(-1, -2).copy())

    def thunk():
        _accumulate(a, out.grad.swapaxes(-1, -2))

    return _record(out, thunk)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in row-major order under another shape."""
    try:
        out = Tensor(a.values.reshape(shape).copy())
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.values.shape} as {shape}") from None

    def thunk():
        _accumulate(a, out.grad.reshape(a.values.shape))

    return _record(out, thunk)


def pick(a: Tensor, steps) -> Tensor:
    """Row steps[i] of each a[i] along the time axis of a (B, T, ...) batch,
    giving (B, ...); an int picks the same step from every row."""
    v = a.values
    if v.ndim < 2:
        raise ShapeError(f"pick: need a (B, T, ...) batch, got shape {v.shape}")
    batch, span = v.shape[:2]
    idx = np.asarray(steps, dtype=np.intp)
    if idx.ndim == 0:
        idx = np.full(batch, idx)
    if idx.shape != (batch,):
        raise ShapeError(f"pick: need one step per row of {v.shape}, got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= span:
        raise ValueError(f"pick: step out of range for {span} steps")
    rows = np.arange(batch)
    out = Tensor(v[rows, idx])

    def thunk():
        if a.grad is None:
            a.grad = np.zeros_like(v)
        a.grad[rows, idx] += out.grad

    return _record(out, thunk)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along `axis`, negative axes counting from the end as in numpy;
    numpy's refusal of the operands becomes a ShapeError."""
    try:
        out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    except ValueError:
        shapes = ", ".join(str(t.values.shape) for t in tensors)
        raise ShapeError(f"concat: shapes [{shapes}] do not join on axis {axis}") from None
    offsets = np.cumsum([0] + [t.values.shape[axis] for t in tensors])

    def thunk():
        index = [slice(None)] * out.values.ndim
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
            index[axis] = slice(start, stop)
            _accumulate(t, out.grad[tuple(index)])

    return _record(out, thunk)


def flatten(a: Tensor) -> Tensor:
    """Row-major view of any tensor as a vector."""
    out = Tensor(a.values.reshape(-1).copy())

    def thunk():
        _accumulate(a, out.grad.reshape(a.values.shape))

    return _record(out, thunk)


def tensor_sum(a: Tensor) -> Tensor:
    out = Tensor(a.values.sum())

    def thunk():
        _accumulate(a, np.broadcast_to(out.grad, a.values.shape).copy())

    return _record(out, thunk)


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.values))

    def thunk():
        _accumulate(a, out.grad * (1.0 - out.values**2))

    return _record(out, thunk)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+z) for x >= 0 and z/(1+z) below, with z = exp(-|x|): finite for
    # arbitrarily large |x|.
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(_sigmoid(a.values))

    def thunk():
        _accumulate(a, out.grad * out.values * (1.0 - out.values))

    return _record(out, thunk)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    ndim = a.values.ndim
    if not -ndim <= axis < ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.values.shape}")
    if a.values.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {a.values.shape}")
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = Tensor(exp / exp.sum(axis=axis, keepdims=True))

    def thunk():
        y, dy = out.values, out.grad
        inner = (dy * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (dy - inner))

    return _record(out, thunk)


def dropout(a: Tensor, keep_prob: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: retained activations are scaled by 1/keep_prob. The
    identity when rng is None, so no stream means no dropout."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must lie in (0, 1], got {keep_prob}")
    if rng is None:
        return a
    mask = (rng.random(a.values.shape) < keep_prob) / keep_prob
    out = Tensor(a.values * mask)

    def thunk():
        _accumulate(a, out.grad * mask)

    return _record(out, thunk)


def lookup(table: Tensor, indices) -> Tensor:
    """Gather rows of an embedding matrix by an index array of any shape S,
    giving S + (d,); backward scatters into the rows."""
    if table.values.ndim != 2:
        raise ShapeError(f"lookup: table must be a matrix, got {table.values.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim == 0 or idx.size == 0:
        raise ShapeError(f"lookup: need a non-empty index array, got shape {idx.shape}")
    rows = table.values.shape[0]
    if idx.min() < 0 or idx.max() >= rows:
        raise ValueError(f"lookup: index out of range for {rows} rows")
    out = Tensor(table.values[idx])

    def thunk():
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        np.add.at(table.grad, idx, out.grad)

    return _record(out, thunk)


def cross_entropy(logits: Tensor, class_index) -> Tensor:
    """Fused stable softmax + negative log-likelihood of the true class.

    A logit vector with an int class gives a scalar; a (B, C) batch of logit
    rows with one class per row gives the B row losses. The gradient of a row
    is exactly softmax(row) minus the one-hot target.
    """
    values = logits.values
    classes = np.asarray(class_index, dtype=np.intp)
    if values.ndim not in (1, 2) or classes.shape != values.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: logits {values.shape} need a vector and a class, "
            f"or (B, C) rows and B classes; got classes of shape {classes.shape}"
        )
    n = values.shape[-1]
    if classes.min() < 0 or classes.max() >= n:
        raise ValueError(f"cross_entropy: class {class_index} out of range for {n} logits")
    rows = values.reshape(-1, n)
    picked = np.arange(len(rows)), classes.reshape(-1)
    shifted = rows - rows.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    out = Tensor((lse - shifted[picked]).reshape(classes.shape))
    probs = np.exp(shifted - lse[:, None])

    def thunk():
        g = probs.copy()
        g[picked] -= 1.0
        _accumulate(logits, (g * out.grad.reshape(-1, 1)).reshape(values.shape))

    return _record(out, thunk)


def _fused(gates: Sequence[Tensor]) -> np.ndarray:
    """Per-gate weight matrices side by side, in gate order."""
    return np.concatenate([w.values for w in gates], axis=1)


def lstm_sequence(
    X: Tensor,
    lengths: Sequence[int] | None,
    h0: Tensor,
    c0: Tensor,
    Wx: Sequence[Tensor],
    Wh: Sequence[Tensor],
    b: Sequence[Tensor],
) -> tuple[Tensor, Tensor]:
    """One LSTM layer read over a batch X (B, T, d) of sequences padded to T
    steps, from the states h0, c0 (B, k). Row i is read for lengths[i] steps
    (all T when lengths is None); after that its state is frozen, so its
    hidden rows past its end repeat its last one.

    Wx, Wh and b are the per-gate (d, k), (k, k) and (k,) tensors in the order
    input, forget, output, candidate. They are concatenated here, so each
    step's gates come from one (B, 4k) block: the forward computes X@Wx + b
    for all rows and steps at once, then per step one h@Wh, one sigmoid over
    the first 3k columns and one tanh over the last k. Returns the hidden rows
    (B, T, k) and the cell states after each row's last step (B, k). On a tape
    the whole read is one entry, with a hand-written backpropagation through
    time in which a frozen step passes dh and dc through unchanged and has a
    zero dz, so padding reaches no weight and no input row.
    """
    wx, wh = _fused(Wx), _fused(Wh)
    bias = np.concatenate([v.values for v in b])
    x = X.values
    k = wh.shape[0]
    if x.ndim != 3 or 0 in x.shape:
        raise ShapeError(f"lstm_sequence: need a non-empty (B, T, d) input, got {x.shape}")
    batch, steps, d = x.shape
    if (
        wx.shape != (d, 4 * k)
        or wh.shape != (k, 4 * k)
        or bias.shape != (4 * k,)
        or h0.values.shape != (batch, k)
        or c0.values.shape != (batch, k)
    ):
        raise ShapeError(
            f"lstm_sequence: input {x.shape}, state {h0.values.shape} and "
            f"{c0.values.shape} do not fit gates {wx.shape}, {wh.shape}, {bias.shape}"
        )
    span = np.full(batch, steps) if lengths is None else np.asarray(lengths, dtype=np.intp)
    if span.shape != (batch,) or span.min() < 1 or span.max() > steps:
        raise ShapeError(f"lstm_sequence: lengths {span.tolist()} do not fit {x.shape}")
    # frozen[t, i]: row i has ended before step t.
    frozen = np.arange(steps)[:, None] >= span
    ragged = frozen.any(axis=1).tolist()
    s = 3 * k
    # Time-major: gates[t] holds step t's pre-activations for every row, then
    # its activations i, f, o, g.
    rows = x.transpose(1, 0, 2).reshape(steps * batch, d)
    gates = (rows @ wx + bias).reshape(steps, batch, 4 * k)
    h = np.empty((steps + 1, batch, k))
    c = np.empty((steps + 1, batch, k))
    tanh_c = np.empty((steps, batch, k))
    h[0] = h0.values
    c[0] = c0.values
    for t in range(steps):
        z = gates[t]
        z += h[t] @ wh
        z[:, :s] = _sigmoid(z[:, :s])
        np.tanh(z[:, s:], out=z[:, s:])
        c[t + 1] = z[:, k : 2 * k] * c[t] + z[:, :k] * z[:, s:]
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(z[:, 2 * k : s], tanh_c[t], out=h[t + 1])
        if ragged[t]:
            done = frozen[t]
            h[t + 1, done] = h[t, done]
            c[t + 1, done] = c[t, done]
    hidden = Tensor(np.ascontiguousarray(h[1:].transpose(1, 0, 2)))
    cell = Tensor(c[steps])

    def thunk():
        # Fused again rather than kept from the forward: a recorded tape then
        # holds per-step arrays only, not a copy of the weights per read.
        wx, wh = _fused(Wx), _fused(Wh)
        dh_rows = (
            hidden.grad.transpose(1, 0, 2)
            if hidden.grad is not None
            else np.zeros((steps, batch, k))
        )
        dc = cell.grad if cell.grad is not None else np.zeros((batch, k))
        # Derivative of each activation with respect to its pre-activation.
        slope = gates * (1.0 - gates)
        slope[..., s:] = 1.0 - gates[..., s:] ** 2
        tanh_slope = 1.0 - tanh_c**2
        dz = np.empty_like(gates)
        dh = np.zeros((batch, k))
        for t in range(steps - 1, -1, -1):
            i, f, o, g = (gates[t, :, j * k : (j + 1) * k] for j in range(4))
            dh = dh_in = dh + dh_rows[t]
            dc_in = dc
            dc = dc + dh * o * tanh_slope[t]
            dz[t, :, :k] = dc * g
            dz[t, :, k : 2 * k] = dc * c[t]
            dz[t, :, 2 * k : s] = dh * tanh_c[t]
            dz[t, :, s:] = dc * i
            dz[t] *= slope[t]
            dc = dc * f
            dh = dz[t] @ wh.T
            if ragged[t]:
                # A frozen step is the identity on (h, c).
                done = frozen[t]
                dz[t, done] = 0.0
                dh[done] = dh_in[done]
                dc[done] = dc_in[done]
        flat = dz.reshape(steps * batch, 4 * k)
        _accumulate(X, (flat @ wx.T).reshape(steps, batch, d).transpose(1, 0, 2))
        _accumulate(h0, dh)
        _accumulate(c0, dc)
        previous = h[:-1].reshape(steps * batch, k)
        weight_grads = (rows.T @ flat, Wx), (previous.T @ flat, Wh), (flat.sum(axis=0), b)
        for grad, tensors in weight_grads:
            for gate, w in enumerate(tensors):
                _accumulate(w, grad[..., gate * k : (gate + 1) * k])

    return _record((hidden, cell), thunk)


# --- optimizer ---------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam over named tensors, with the moment decays
    `ADAM_BETA1` and `ADAM_BETA2` and the denominator floor `ADAM_EPS`."""

    def __init__(self, params: Sequence[Tensor], lr: float = 0.001):
        names = [p.name for p in params]
        if any(name is None for name in names):
            raise ValueError("every Adam parameter needs a name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {sorted(names)}")
        self.params = list(params)
        self.lr = lr
        self.step_count = 0
        self._m = {p.name: np.zeros_like(p.values) for p in params}
        self._v = {p.name: np.zeros_like(p.values) for p in params}

    def step(self) -> None:
        missing = [p.name for p in self.params if p.grad is None]
        if missing:
            raise ValueError(f"parameters without gradients: {missing}")
        self.step_count += 1
        correction1 = 1.0 - ADAM_BETA1**self.step_count
        correction2 = 1.0 - ADAM_BETA2**self.step_count
        for p in self.params:
            g = p.grad
            m = self._m[p.name]
            v = self._v[p.name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# --- gradient checking -------------------------------------------------------

GRADCHECK_EPS = 1e-5  # central-difference step
GRADCHECK_TOLERANCE = 1e-4  # largest relative error that passes


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative finite-difference error per parameter. The check's
    error is the largest of them (0.0 with no parameters), and it passes
    below GRADCHECK_TOLERANCE."""

    worst_by_param: dict[str, float]

    @property
    def max_rel_err(self) -> float:
        return max(self.worst_by_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRADCHECK_TOLERANCE


def grad_check(
    forward_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    rng: np.random.Generator,
    samples: int = 5,
) -> GradCheckReport:
    """Compare analytic gradients with central differences.

    forward_fn must be deterministic (no dropout stream) and return a scalar
    loss. For each parameter a random coordinate subset is perturbed; the
    relative error denominator is floored at 1e-4 so near-zero coordinates do
    not explode the ratio.
    """
    zero_grad(params)
    with Tape() as tape:
        loss = forward_fn()
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    def loss_value() -> float:
        out = forward_fn()
        if out.values.size != 1:
            raise ValueError("forward_fn must return a scalar loss")
        return float(out.values)

    worst: dict[str, float] = {}
    for p in params:
        flat = p.values.reshape(-1)
        count = min(samples, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        err = 0.0
        for i in coords:
            original = flat[i]
            flat[i] = original + GRADCHECK_EPS
            plus = loss_value()
            flat[i] = original - GRADCHECK_EPS
            minus = loss_value()
            flat[i] = original
            numeric = (plus - minus) / (2.0 * GRADCHECK_EPS)
            exact = float(analytic[p.name].reshape(-1)[i])
            err = max(
                err, abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-4)
            )
        worst[p.name] = err
    return GradCheckReport(worst)


# --- checkpoints -------------------------------------------------------------

CHECKPOINT_MAGIC = b"MPECKPT1"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    tensors: Mapping[str, np.ndarray],
    meta: Mapping | None = None,
) -> None:
    """Binary layout: magic, u32 version, JSON meta, then named f64 tensors.

    Per tensor: u32 name length + UTF-8 name, u32 ndim, u64 dims, row-major
    little-endian float64 payload. Names are written sorted so identical
    contents produce identical bytes.
    """
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    meta_bytes = json.dumps(dict(meta or {}), sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    blob += struct.pack("<I", len(tensors))
    for name in sorted(tensors):
        array = np.asarray(tensors[name], dtype=np.float64)
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<I", array.ndim)
        blob += struct.pack(f"<{array.ndim}Q", *array.shape)
        blob += array.astype("<f8", copy=False).tobytes(order="C")
    _atomic_write_bytes(path, bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    blob = path.read_bytes()
    view = memoryview(blob)
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(blob):
            raise ValueError(f"{path}: truncated checkpoint at byte {offset}")
        piece = view[offset : offset + count]
        offset += count
        return piece

    if bytes(take(len(CHECKPOINT_MAGIC))) != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: also an int too long to convert
        raise ValueError(f"{path}: bad checkpoint meta: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint meta must be a JSON object")
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: bad tensor name: {exc}") from None
        if name in tensors:
            raise ValueError(f"{path}: duplicate tensor name {_quote(name)}")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            data = data.reshape(shape)
        except ValueError as exc:
            raise ValueError(f"{path}: tensor {_quote(name)} has bad shape: {exc}") from None
        tensors[name] = data.astype(np.float64)
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return tensors, meta
