"""Minimal reverse-mode automatic differentiation on numpy arrays.

The engine is deliberately small: a Tensor wrapping an ndarray, a Tape
recording executed primitives in order, and exactly the operations the
embedding network needs: dilated 1-d convolution and dense layers, both
with an optional built-in relu; batch normalization over [N, F] or
[N, T, F]; the two losses; and a handful of glue ops. Statistics pooling
lives in stats.py. Backward runs the tape once in reverse; every op's
backward closure accumulates into the gradients of its inputs, and the
first write to a gradient stores a copy, never the caller's array.

Ops are pure functions of their explicit inputs plus the tape. Passing
tape=None runs forward only, which is the inference path.

Tests run everything in float64; training builds use float32. Gradient
checks are always float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BatchTooSmallError,
    ConfigurationError,
    DataError,
    InputTooShortError,
    TrainingDivergedError,
    UsageError,
)

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "conv1d_dilated",
    "dense",
    "relu",
    "reshape",
    "add",
    "scale",
    "BatchNormState",
    "batchnorm1d",
    "softmax_cross_entropy",
    "mse_loss",
    "OptimizerState",
    "optimizer_step",
    "GradCheckReport",
    "grad_check",
]


class Tensor:
    """An ndarray plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        self.data = np.asarray(data, dtype=dtype)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._tape: "Tape | None" = None  # tape that produced this tensor, if any

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


class Tape:
    """Ordered record of executed ops for one forward pass.

    A tape is single-use: backward() consumes it, and a second backward
    over the same tape is an error. Replaying backward visits each
    recorded op exactly once, so gradients of fan-out nodes accumulate
    by summation.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.consumed = False

    def record(self, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        output._tape = self
        self._entries.append((output, backward_fn))

    def __len__(self) -> int:
        return len(self._entries)


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or t._tape is not None


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into t.grad.

    The first write stores a copy of g, not g itself: one array may be
    handed to several inputs (add does), and a later in-place += on one
    gradient must not leak into another. fresh=True promises that g is a
    new array no one else holds, so the first write keeps it as it is.
    """
    if not _wants_grad(t):
        return
    if t.grad is None:
        if fresh and g.shape == t.data.shape and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse-accumulate d(loss)/d(x) for every tensor touched by the tape.

    Seeds d(loss)/d(loss) = 1 and walks the tape in reverse. Tensors on
    the tape that do not feed the loss receive zero gradients. Raises
    UsageError for a non-scalar loss, a loss foreign to this tape, or a
    tape that was already consumed.
    """
    if loss.data.shape != ():
        raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if tape.consumed:
        raise UsageError("tape already consumed; build a fresh tape for another backward pass")
    if loss._tape is not tape:
        raise UsageError("loss was not produced by an op recorded on this tape")
    tape.consumed = True
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for out, backward_fn in reversed(tape._entries):
        if out.grad is None:
            out.grad = np.zeros_like(out.data)
        backward_fn(out.grad)
    # Break the tensor <-> tape reference cycles so the graph's arrays are
    # freed by refcount right away; cyclic garbage holding tens of MB per
    # step otherwise outruns the collector on long training runs.
    for out, _ in tape._entries:
        out._tape = None
    tape._entries.clear()


def conv1d_dilated(inp: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1,
                   tape: Tape | None = None, activation: str = "none") -> Tensor:
    """Valid cross-correlation along time with a dilated kernel, with an
    optional built-in relu.

    inp is [T, C_in] or batched [N, T, C_in]; weight is [C_out, C_in, k];
    bias is [C_out]. No padding: the output keeps T - (k-1)*dilation
    frames. Kernel taps are applied in index order (no flip). The relu
    runs in place on the matmul output, and its backward masks the
    incoming gradient by the positive outputs.
    """
    if not isinstance(dilation, int) or dilation < 1:
        raise ConfigurationError(f"dilation must be a positive integer, got {dilation!r}")
    if activation not in ("none", "relu"):
        raise ConfigurationError(f"unknown activation {activation!r}")
    if weight.data.ndim != 3:
        raise ConfigurationError(f"conv weight must be [C_out, C_in, k], got shape {weight.data.shape}")
    batched = inp.data.ndim == 3
    if not batched and inp.data.ndim != 2:
        raise ConfigurationError(f"conv input must be 2-d or 3-d, got shape {inp.data.shape}")
    x = inp.data if batched else inp.data[None]
    n, t, c_in = x.shape
    c_out, w_cin, k = weight.data.shape
    if w_cin != c_in:
        raise ConfigurationError(f"conv input has {c_in} channels but weight expects {w_cin}")
    if bias.data.shape != (c_out,):
        raise ConfigurationError(f"conv bias must have shape ({c_out},), got {bias.data.shape}")
    span = (k - 1) * dilation + 1
    if t < span:
        raise InputTooShortError(f"conv needs at least {span} frames for k={k}, dilation={dilation}; got {t}")
    t_out = t - (k - 1) * dilation

    # im2col: one contiguous time slice per kernel tap, then a single
    # matmul. A one-tap kernel needs no copy: the input is its own im2col.
    if k == 1:
        cols_flat = x.reshape(n * t_out, c_in)
    else:
        cols_flat = np.stack([x[:, j * dilation: j * dilation + t_out, :] for j in range(k)],
                             axis=2).reshape(n * t_out, k * c_in)
    w_flat = weight.data.transpose(0, 2, 1).reshape(c_out, k * c_in)
    y = cols_flat @ w_flat.T
    y += bias.data
    if activation == "relu":
        np.maximum(y, 0, out=y)
    out = Tensor(y.reshape(n, t_out, c_out) if batched else y)

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            g_flat = g.reshape(n * t_out, c_out)
            if activation == "relu":
                g_flat = g_flat * (y > 0)
            _accumulate(bias, g_flat.sum(axis=0))
            if _wants_grad(weight):
                gw = (g_flat.T @ cols_flat).reshape(c_out, k, c_in).transpose(0, 2, 1)
                _accumulate(weight, gw)
            if _wants_grad(inp):
                g_cols = (g_flat @ w_flat).reshape(n, t_out, k, c_in)
                if k == 1:
                    gx = g_cols.reshape(n, t, c_in)
                else:
                    gx = np.zeros_like(x)
                    for j in range(k):
                        gx[:, j * dilation: j * dilation + t_out, :] += g_cols[:, :, j, :]
                _accumulate(inp, gx if batched else gx[0], fresh=True)
        tape.record(out, bwd)
    return out


def dense(inp: Tensor, weight: Tensor, bias: Tensor, activation: str = "none",
          tape: Tape | None = None) -> Tensor:
    """Affine map y = x W^T + b over rows, with an optional built-in relu."""
    if activation not in ("none", "relu"):
        raise ConfigurationError(f"unknown activation {activation!r}")
    if inp.data.ndim != 2:
        raise ConfigurationError(f"dense input must be [N, F_in], got shape {inp.data.shape}")
    x = inp.data
    if weight.data.ndim != 2 or weight.data.shape[1] != x.shape[1]:
        raise ConfigurationError(
            f"dense weight must be [F_out, {x.shape[1]}], got shape {weight.data.shape}")
    f_out = weight.data.shape[0]
    if bias.data.shape != (f_out,):
        raise ConfigurationError(f"dense bias must have shape ({f_out},), got {bias.data.shape}")
    y = x @ weight.data.T + bias.data
    if activation == "relu":
        y = np.maximum(y, 0)
    out = Tensor(y)

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            gp = g * (out.data > 0) if activation == "relu" else g
            _accumulate(bias, gp.sum(axis=0))
            if _wants_grad(weight):
                _accumulate(weight, gp.T @ x)
            if _wants_grad(inp):
                _accumulate(inp, gp @ weight.data)
        tape.record(out, bwd)
    return out


def relu(inp: Tensor, tape: Tape | None = None) -> Tensor:
    out = Tensor(np.maximum(inp.data, 0))
    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if _wants_grad(inp):
                _accumulate(inp, g * (out.data > 0))
        tape.record(out, bwd)
    return out


def reshape(inp: Tensor, shape: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    out = Tensor(inp.data.reshape(shape))
    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if _wants_grad(inp):
                _accumulate(inp, g.reshape(inp.data.shape))
        tape.record(out, bwd)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None,
        weights: tuple[float, float] = (1.0, 1.0)) -> Tensor:
    """Elementwise weights[0] * a + weights[1] * b; a plain sum by default."""
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"add needs matching shapes, got {a.data.shape} and {b.data.shape}")
    wa, wb = weights
    out = Tensor(a.data * wa + b.data * wb)
    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if _wants_grad(a):
                _accumulate(a, g * wa)
            if _wants_grad(b):
                _accumulate(b, g * wb)
        tape.record(out, bwd)
    return out


def scale(inp: Tensor, factor: float, tape: Tape | None = None) -> Tensor:
    out = Tensor(inp.data * factor)
    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if _wants_grad(inp):
                _accumulate(inp, g * factor)
        tape.record(out, bwd)
    return out


@dataclass
class BatchNormState:
    """Running mean/variance used by inference-mode normalization."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.95
    eps: float = 1e-5

    @classmethod
    def create(cls, num_features: int, momentum: float = 0.95, eps: float = 1e-5,
               dtype=np.float32) -> "BatchNormState":
        return cls(mean=np.zeros(num_features, dtype=dtype),
                   var=np.ones(num_features, dtype=dtype),
                   momentum=momentum, eps=eps)


def batchnorm1d(inp: Tensor, gamma: Tensor, beta: Tensor, mode: str,
                running: BatchNormState, tape: Tape | None = None) -> Tensor:
    """Per-feature normalization of an [N, F] or [N, T, F] input.

    Statistics run over every leading axis, so a frame-layer output
    [N, T, F] is normalized over its N * T frames without a reshape op.
    Train mode normalizes by batch statistics (two-pass, biased variance)
    and folds them into the running averages; infer mode normalizes by
    the running statistics and mutates nothing.
    """
    if mode not in ("train", "infer"):
        raise ConfigurationError(f"unknown batchnorm mode {mode!r}")
    if inp.data.ndim not in (2, 3):
        raise ConfigurationError(f"batchnorm input must be [N, F] or [N, T, F], got shape {inp.data.shape}")
    f = inp.data.shape[-1]
    x = inp.data.reshape(-1, f)
    rows = x.shape[0]
    if gamma.data.shape != (f,) or beta.data.shape != (f,):
        raise ConfigurationError(f"gamma/beta must have shape ({f},)")
    if running.mean.shape != (f,):
        raise ConfigurationError(f"running stats sized {running.mean.shape} do not match {f} features")

    if mode == "train":
        if rows < 2:
            raise BatchTooSmallError(f"batchnorm in train mode needs >= 2 rows, got {rows}")
        # Two passes: the variance of the centred array, never
        # E[x^2] - mean^2, which cancels in float32. einsum sums the
        # squares without a full-size temporary.
        mu = x.mean(axis=0)
        xc = x - mu
        var = np.einsum("ij,ij->j", xc, xc) / rows
        m = running.momentum
        running.mean = m * running.mean + (1.0 - m) * mu
        running.var = m * running.var + (1.0 - m) * var
    else:
        mu, var = running.mean, running.var
        xc = x - mu
    inv = 1.0 / np.sqrt(var + running.eps)
    y = xc * (gamma.data * inv)
    y += beta.data
    out = Tensor(y.reshape(inp.data.shape))

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            g2 = g.reshape(-1, f)
            g_sum = g2.sum(axis=0)
            gxc_sum = np.einsum("ij,ij->j", g2, xc)
            _accumulate(beta, g_sum)
            _accumulate(gamma, gxc_sum * inv)
            if not _wants_grad(inp):
                return
            a = gamma.data * inv
            if mode == "train":
                # d/dx of gamma * (x - mean) * inv + beta with batch
                # statistics, folded to a * g + b * xc + c per feature
                # (Ioffe & Szegedy 2015).
                b = -a * inv * inv * (gxc_sum / rows)
                c = -a * (g_sum / rows)
                gx = xc * b
                gx += c
                gx += g2 * a
            else:
                gx = g2 * a
            _accumulate(inp, gx.reshape(inp.data.shape), fresh=True)
        tape.record(out, bwd)
    return out


def softmax_cross_entropy(logits: Tensor, labels, tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy of softmax(logits) against integer labels.

    Stabilized by per-row max subtraction. The backward pass is the
    closed form (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise ConfigurationError(f"logits must be [N, C], got shape {logits.data.shape}")
    x = logits.data
    n, c = x.shape
    if n < 1:
        raise DataError("cross-entropy needs at least one row")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DataError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"labels must lie in [0, {c}), got range [{labels.min()}, {labels.max()}]")

    shifted = x - x.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(n)
    out = Tensor(np.asarray(-log_probs[rows, labels].mean(), dtype=x.dtype))

    if tape is not None:
        probs = np.exp(log_probs)
        def bwd(g: np.ndarray) -> None:
            if _wants_grad(logits):
                gl = probs.copy()
                gl[rows, labels] -= 1.0
                _accumulate(logits, gl * (g / n))
        tape.record(out, bwd)
    return out


def mse_loss(pred: Tensor, target: Tensor, tape: Tape | None = None) -> Tensor:
    """Squared error summed over feature dims, averaged over the N rows."""
    if pred.data.ndim != 2:
        raise ConfigurationError(f"mse prediction must be [N, M], got shape {pred.data.shape}")
    if pred.data.shape != target.data.shape:
        raise ConfigurationError(
            f"mse shapes differ: {pred.data.shape} vs {target.data.shape}")
    n = pred.data.shape[0]
    if n < 1:
        raise DataError("mse needs at least one row")
    diff = pred.data - target.data
    out = Tensor(np.asarray((diff * diff).sum() / n, dtype=pred.data.dtype))

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if _wants_grad(pred):
                _accumulate(pred, diff * (2.0 * g / n))
            if _wants_grad(target):
                _accumulate(target, diff * (-2.0 * g / n))
        tape.record(out, bwd)
    return out


class OptimizerState:
    """Adaptive-moment state: per-parameter first/second moments plus a step count.

    Bias-corrected moments, elementwise step size, and decoupled L2 decay
    (decay acts on the parameter directly, not through the gradient).
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if learning_rate <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {learning_rate}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigurationError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        if eps <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {eps}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.first_moment = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.second_moment = {k: np.zeros_like(p.data) for k, p in params.items()}


def optimizer_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                   state: OptimizerState, weight_decay: float = 0.0) -> None:
    """One in-place adaptive-moment update of every parameter.

    grads maps parameter name to its gradient array; a missing or None
    entry counts as a zero gradient. Non-finite gradients abort with a
    TrainingDivergedError naming the parameter. The update is a pure
    function of (params, grads, state), so replaying a recorded
    trajectory reproduces it bitwise.
    """
    if weight_decay < 0:
        raise ConfigurationError(f"weight decay must be non-negative, got {weight_decay}")
    for name in params:
        if name not in state.first_moment:
            raise ConfigurationError(f"optimizer state has no slot for parameter '{name}'")
        if state.first_moment[name].shape != params[name].data.shape:
            raise ConfigurationError(f"optimizer state shape mismatch for parameter '{name}'")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for parameter '{name}'")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data -= state.learning_rate * update


@dataclass
class GradCheckReport:
    max_relative_error: float
    passed: bool
    tolerance: float
    per_tensor: dict[str, float] = field(default_factory=dict)


def grad_check(fn: Callable[[], tuple[Tensor, Tape]], wrt: dict[str, Tensor],
               tolerance: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    fn must rebuild the computation from scratch on every call and
    return (scalar loss, its tape); it may close over the tensors in
    wrt, whose data is perturbed elementwise. The reported error is
    |analytic - numeric| / max(1, |analytic|, |numeric|), maximized over
    elements. Run this on float64 tensors only; float32 cannot resolve
    a 1e-5 step.
    """
    for t in wrt.values():
        if t.data.dtype != np.float64:
            raise ConfigurationError("grad_check requires float64 tensors")
        t.grad = None
    loss, tape = fn()
    backward(loss, tape)
    analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for k, t in wrt.items()}
    for t in wrt.values():
        t.grad = None

    per: dict[str, float] = {}
    max_err = 0.0
    for name, t in wrt.items():
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(fn()[0].data)
            flat[i] = orig - step
            f_minus = float(fn()[0].data)
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * step)
        a = analytic[name].reshape(-1)
        if flat.size:
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
            err = float(np.max(np.abs(a - numeric) / denom))
        else:
            err = 0.0
        per[name] = err
        max_err = max(max_err, err)
    return GradCheckReport(max_relative_error=max_err, passed=max_err < tolerance,
                           tolerance=tolerance, per_tensor=per)
