"""Minimal reverse-mode automatic differentiation on numpy arrays.

The engine is deliberately small: a Tensor wrapping an ndarray, a Tape
recording executed primitives in order, and exactly the operations the
embedding network needs: dilated 1-d convolution over [N, T, C] frames
and dense layers over [N, F] rows, each with an optional built-in relu
and batch norm (a dense layer is a one-tap convolution over frames of
length one, so both run one body); batch normalization on its own over
[N, F] or [N, T, F]; mean + stddev pooling of [N, T, F] frames; the two
losses; and a handful of glue ops. Backward runs the tape once in
reverse; every op's backward closure accumulates into the gradients of
its inputs.

Ownership: a tape is single-use, so a backward closure may overwrite
two kinds of array and no others. One is the gradient it is handed,
which belongs to its output tensor alone (see _accumulate). The other
is any array it saved during forward that no caller can see, such as
an im2col buffer or a centred copy of the input. A convolution or dense
layer with a built-in batch norm owns its matmul output, so it centres
that in place as its saved copy. Inputs, forward outputs and parameters
are never written. Backward releases each tape entry, its closure and
the saved arrays with it, as soon as the closure has run, and drops the
output's spent gradient. So after backward a leaf's .grad is its
gradient, while an intermediate tensor holds no .grad. In a two-thread
frame layer (below) the side thread reads the layer's output gradient,
after batch norm and mask, and its im2col buffer, and adds into the
bias's and weight's .grad; so there the im2col buffer is no col2im
scratch and the input gradient gets its own buffer. The closure joins
that work before it returns, so backward returns or raises only once
all of its tape's side work is done.

Two threads: inside side_thread(), which model.train holds for a whole
run, the module keeps one side thread, a single fixed worker, when the
process may run on more than one CPU (os.sched_getaffinity). That
thread has exited once the block is left, so what follows training in
the same process (extraction, scoring) runs beside no idle worker.
Each row-wise step of a frame layer is written once, as a body over a
range of rows: the im2col copy, matmul, bias, relu and mask, the
batch-norm centring, and its scale and shift. _halves runs a body over
all rows on the calling thread or, for a frame layer on a tape (a
dilated convolution over [N, T, C] frames with N >= 2) inside the
block, over the first half here and the second on the side thread,
joining after each step. The batch-norm mean and variance stay
whole-array reductions here, between those steps. That layer's backward
forms the bias and weight gradients on the side thread while this one
forms the input gradient (otherwise it forms them first), and joins
before the next closure runs, so every sum runs in tape order and the
thread count changes no bit. Dense layers and every tape-less call run
on the calling thread alone.

Ops are pure functions of their explicit inputs plus the tape. Passing
tape=None runs forward only, which is the inference path.

A Tensor keeps the dtype of its data (float32 or float64; anything else
becomes float64). Tests run everything in float64; training builds use
float32. Gradient checks are always float64, by central differences of a
fixed 1e-5 step.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BatchTooSmallError,
    ConfigurationError,
    DataError,
    InputTooShortError,
    PoolingError,
    TrainingDivergedError,
    UsageError,
)

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "side_thread",
    "conv1d_dilated",
    "dense",
    "relu",
    "reshape",
    "add",
    "scale",
    "BN_MOMENTUM",
    "BN_EPS",
    "BatchNormState",
    "batchnorm1d",
    "POOL_EPS",
    "stats_pool",
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

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
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
    gradient must not leak into another. fresh=True promises that no one
    else will read or write g (a new array, or one the calling closure
    owns: its own gradient or a buffer it saved), so the first write
    keeps it as it is. Either way t.grad belongs to t alone, which is
    what lets the backward closure of t's producer overwrite it.
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
    the tape that do not feed the loss receive zero gradients. Each entry
    leaves the tape as soon as its closure has run, and its output drops
    the spent gradient, so an op's saved buffers are freed before the ops
    below it allocate theirs. Afterwards the tape is empty and no
    intermediate tensor holds a .grad; leaves keep theirs. Raises
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
    entries = tape._entries
    while entries:
        # Rebinding out and backward_fn drops the previous entry, the last
        # reference to its closure and the arrays that closure saved.
        out, backward_fn = entries.pop()
        if out.grad is None:
            out.grad = np.zeros_like(out.data)
        backward_fn(out.grad)
        out.grad = None
        # Break the tensor <-> tape reference cycle so the graph's arrays
        # are freed by refcount right away; cyclic garbage holding tens of
        # MB per step otherwise outruns the collector on long runs.
        out._tape = None


_SIDE: ThreadPoolExecutor | None = None  # set inside side_thread() alone


@contextmanager
def side_thread():
    """Let frame layers on a tape use the side thread in the with-block.

    The worker's thread starts at the first hand-off and has exited when
    the block is left, so no thread outlives the training run that used
    it. When the process may run on one CPU only (os.sched_getaffinity),
    or inside an enclosing block, this adds nothing.
    """
    global _SIDE
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if _SIDE is not None or (cpus or 1) < 2:
        yield
        return
    _SIDE = ThreadPoolExecutor(1, "autodiff-side")
    try:
        yield
    finally:
        side, _SIDE = _SIDE, None
        side.shutdown()


def _side_thread_in_child() -> None:
    # A forked child inherits no threads: inside side_thread() it needs a
    # worker of its own.
    global _SIDE
    if _SIDE is not None:
        _SIDE = ThreadPoolExecutor(1, "autodiff-side")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_side_thread_in_child)


def _run_job(job: list) -> None:
    fn, args = job
    job.clear()
    fn(*args)


@contextmanager
def _beside(split: bool, fn: Callable[..., None], *args):
    """With split, run fn(*args) on the side thread while the with-block
    runs here; leave once both are done, raising the block's error or
    else fn's. The worker lets go of fn and args before it completes, so
    what they held is freed once the block is left. Without split, run
    fn(*args) here before the block."""
    if not split:
        fn(*args)
        yield
        return
    side = _SIDE.submit(_run_job, [fn, args])
    try:
        yield
    finally:
        error = side.exception()
    if error is not None:
        raise error


def _halves(split: bool, rows: Callable[[int, int], None], n: int) -> None:
    """Run rows(first, stop) over [0, n): as rows(0, n) here, or with
    split as rows(0, n // 2) here beside rows(n // 2, n) on the side
    thread."""
    if split:
        with _beside(True, rows, n // 2, n):
            rows(0, n // 2)
    else:
        rows(0, n)


def _param_grads(g_flat: np.ndarray, cols_flat: np.ndarray, bias: Tensor, weight: Tensor,
                 k: int) -> None:
    """Add a convolution's bias and weight gradients; g_flat is its
    [rows, C_out] output gradient and cols_flat its im2col buffer, both
    only read."""
    _accumulate(bias, g_flat.sum(axis=0))
    if _wants_grad(weight):
        c_out = g_flat.shape[1]
        gw = (g_flat.T @ cols_flat).reshape(c_out, k, -1).transpose(0, 2, 1)
        _accumulate(weight, gw.reshape(weight.data.shape))


def conv1d_dilated(inp: Tensor, weight: Tensor, bias: Tensor, dilation: int = 1,
                   tape: Tape | None = None, activation: str = "none",
                   norm: tuple[Tensor, Tensor, str, BatchNormState] | None = None) -> Tensor:
    """Valid cross-correlation along time with a dilated kernel, with an
    optional built-in relu and batch norm.

    inp is [N, T, C_in]; weight is [C_out, C_in, k]; bias is [C_out]. No
    padding: the output keeps T - (k-1)*dilation frames. Kernel taps are
    applied in index order (no flip). An [N, F_in] input with an
    [F_out, F_in] weight is N frames of length one under a one-tap kernel,
    which is dense; its output and gradients keep those 2-d layouts. The
    relu runs in place on the matmul output; with a tape, its mask is
    taken there too, and backward masks the incoming gradient in place by it.

    norm=(gamma, beta, mode, running) then normalizes the output over its
    N * T_out frames with batchnorm1d's arithmetic. The op owns its matmul
    output, so normalization centres it in place: with a tape that is the
    centred copy backward needs, and only the output is a new array;
    without one the output is the matmul buffer itself.
    """
    if not isinstance(dilation, int) or dilation < 1:
        raise ConfigurationError(f"dilation must be a positive integer, got {dilation!r}")
    if activation not in ("none", "relu"):
        raise ConfigurationError(f"unknown activation {activation!r}")
    x, w = inp.data, weight.data
    if x.ndim == 2 and w.ndim == 2:
        x, w = x[:, None, :], w[:, :, None]
    if w.ndim != 3:
        raise ConfigurationError(f"conv weight must be [C_out, C_in, k], got shape {w.shape}")
    if x.ndim != 3:
        raise ConfigurationError(f"conv input must be [N, T, C_in], got shape {x.shape}")
    n, t, c_in = x.shape
    c_out, w_cin, k = w.shape
    if w_cin != c_in:
        raise ConfigurationError(f"conv input has {c_in} channels but weight expects {w_cin}")
    if bias.data.shape != (c_out,):
        raise ConfigurationError(f"conv bias must have shape ({c_out},), got {bias.data.shape}")
    span = (k - 1) * dilation + 1
    if t < span:
        raise InputTooShortError(f"conv needs at least {span} frames for k={k}, dilation={dilation}; got {t}")
    t_out = t - (k - 1) * dilation

    w_flat = w.transpose(0, 2, 1).reshape(c_out, k * c_in)
    split = tape is not None and _SIDE is not None and inp.data.ndim == 3 and n > 1
    # im2col: one contiguous time slice per kernel tap, then a single
    # matmul. A one-tap kernel needs no copy: the input is its own im2col.
    cols_flat = x.reshape(n * t_out, c_in) if k == 1 else np.empty((n * t_out, k * c_in), x.dtype)
    y = np.empty((n * t_out, c_out), np.result_type(x, w_flat))
    mask = np.empty(y.shape, bool) if activation == "relu" and tape is not None else None

    def rows(first: int, stop: int) -> None:
        r = slice(first * t_out, stop * t_out)
        cols, part = cols_flat[r], y[r]
        if k > 1:
            np.stack([x[first:stop, j * dilation: j * dilation + t_out, :] for j in range(k)],
                     axis=2, out=cols.reshape(stop - first, t_out, k, c_in))
        np.matmul(cols, w_flat.T, out=part)
        part += bias.data
        if activation == "relu":
            np.maximum(part, 0, out=part)
        if mask is not None:
            np.greater(part, 0, out=mask[r])

    _halves(split, rows, n)
    if norm is not None:
        gamma, beta, mode, running = norm
        y, xc, inv = _bn_forward(y, gamma, beta, mode, running, tape is not None, split)
    out = Tensor(y.reshape(n, t_out, c_out) if inp.data.ndim == 3 else y)

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            g_flat = g.reshape(n * t_out, c_out)
            if norm is not None:
                g_flat = _bn_backward(g_flat, xc, inv, gamma, beta, mode)
            if mask is not None:
                np.multiply(g_flat, mask, out=g_flat)
            # With split the side thread forms the bias and weight gradients
            # while this one forms the input gradient, joining before return.
            with _beside(split, _param_grads, g_flat, cols_flat, bias, weight, k):
                if _wants_grad(inp):
                    if k == 1:
                        # cols_flat is the caller's input here: never write it.
                        gx = (g_flat @ w_flat).reshape(inp.data.shape)
                    else:
                        # The im2col buffer is spent once gw is formed, unless
                        # the side thread still reads it. col2im: the first
                        # tap fills its frames, the tail is zeroed, and the
                        # other taps add in index order.
                        g_cols = np.matmul(g_flat, w_flat, out=None if split else cols_flat)
                        g_cols = g_cols.reshape(n, t_out, k, c_in)
                        gx = np.empty_like(x)
                        gx[:, :t_out, :] = g_cols[:, :, 0, :]
                        gx[:, t_out:, :] = 0
                        for j in range(1, k):
                            gx[:, j * dilation: j * dilation + t_out, :] += g_cols[:, :, j, :]
                    _accumulate(inp, gx, fresh=True)
        tape.record(out, bwd)
    return out


def dense(inp: Tensor, weight: Tensor, bias: Tensor, activation: str = "none",
          tape: Tape | None = None,
          norm: tuple[Tensor, Tensor, str, BatchNormState] | None = None) -> Tensor:
    """Affine map y = x W^T + b over the rows of an [N, F_in] input, with
    an optional built-in relu and batch norm over the N rows: the one-tap
    conv1d_dilated on N frames of length one, with the same x @ W^T, so
    conv's checks name a width or bias mismatch."""
    if inp.data.ndim != 2 or weight.data.ndim != 2:
        raise ConfigurationError(f"dense needs an [N, F_in] input and an [F_out, F_in] weight, "
                                 f"got shapes {inp.data.shape} and {weight.data.shape}")
    return conv1d_dilated(inp, weight, bias, 1, tape, activation, norm)


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


# Weight of the old running statistics in a train-mode update, and the
# variance floor under the square root; checkpoints do not store them.
BN_MOMENTUM = 0.95
BN_EPS = 1e-5


@dataclass
class BatchNormState:
    """Running mean/variance used by inference-mode normalization."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, num_features: int, dtype=np.float32) -> "BatchNormState":
        return cls(mean=np.zeros(num_features, dtype=dtype),
                   var=np.ones(num_features, dtype=dtype))


def _bn_forward(x: np.ndarray, gamma: Tensor, beta: Tensor, mode: str, running: BatchNormState,
                keep: bool, split: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize the [rows, F] array x per feature; returns (y, xc, inv).

    x belongs to the caller's op alone, so it is centred in place as xc.
    keep: backward will read xc, so y is a new array; otherwise y is xc,
    scaled and shifted in place. split (a two-thread frame layer, so keep
    too) cuts the centring and the scale and shift in row halves (see
    _halves); the mean and variance stay whole-array reductions here.
    """
    rows, f = x.shape
    if mode not in ("train", "infer"):
        raise ConfigurationError(f"unknown batchnorm mode {mode!r}")
    if gamma.data.shape != (f,) or beta.data.shape != (f,):
        raise ConfigurationError(f"gamma/beta must have shape ({f},)")
    if running.mean.shape != (f,):
        raise ConfigurationError(f"running stats sized {running.mean.shape} do not match {f} features")
    if mode == "train":
        if rows < 2:
            raise BatchTooSmallError(f"batchnorm in train mode needs >= 2 rows, got {rows}")
        mu = x.mean(axis=0)
    else:
        mu = running.mean

    def centre(first: int, stop: int) -> None:
        part = x[first:stop]
        np.subtract(part, mu, out=part)

    _halves(split, centre, rows)
    xc = x
    if mode == "train":
        # Two passes: the variance of the centred array, never
        # E[x^2] - mean^2, which cancels in float32. einsum sums the
        # squares without a full-size temporary.
        var = np.einsum("ij,ij->j", xc, xc) / rows
        m = BN_MOMENTUM
        running.mean = m * running.mean + (1.0 - m) * mu
        running.var = m * running.var + (1.0 - m) * var
    else:
        var = running.var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    a = gamma.data * inv
    y = np.empty(xc.shape, np.result_type(xc, a)) if keep else xc

    def scale_shift(first: int, stop: int) -> None:
        part = y[first:stop]
        np.multiply(xc[first:stop], a, out=part)
        part += beta.data

    _halves(split, scale_shift, rows)
    return y, xc, inv


def _bn_backward(g2: np.ndarray, xc: np.ndarray, inv: np.ndarray, gamma: Tensor,
                 beta: Tensor, mode: str) -> np.ndarray:
    """Accumulate the gamma and beta gradients of the [rows, F] output
    gradient g2, and return the input gradient, formed in place in g2
    and, in train mode, in the saved centred copy xc."""
    rows = g2.shape[0]
    g_sum = g2.sum(axis=0)
    gxc_sum = np.einsum("ij,ij->j", g2, xc)
    _accumulate(beta, g_sum)
    _accumulate(gamma, gxc_sum * inv)
    a = gamma.data * inv
    g2 *= a
    if mode == "infer":
        return g2
    # d/dx of gamma * (x - mean) * inv + beta with batch statistics,
    # folded to b * xc + c + a * g per feature (Ioffe & Szegedy 2015),
    # summed in that order in the saved centred copy.
    b = -a * inv * inv * (gxc_sum / rows)
    c = -a * (g_sum / rows)
    gx = xc
    gx *= b
    gx += c
    gx += g2
    return gx


def batchnorm1d(inp: Tensor, gamma: Tensor, beta: Tensor, mode: str,
                running: BatchNormState, tape: Tape | None = None) -> Tensor:
    """Per-feature normalization of an [N, F] or [N, T, F] input.

    Statistics run over every leading axis, so a frame-layer output
    [N, T, F] is normalized over its N * T frames without a reshape op.
    Train mode normalizes by batch statistics (two-pass, biased variance)
    and folds them into the running averages; infer mode normalizes by
    the running statistics and mutates nothing. It works on a copy of its
    input, and it is the reference for the batch norm built into
    conv1d_dilated and dense.
    """
    if inp.data.ndim not in (2, 3):
        raise ConfigurationError(f"batchnorm input must be [N, F] or [N, T, F], got shape {inp.data.shape}")
    f = inp.data.shape[-1]
    y, xc, inv = _bn_forward(inp.data.reshape(-1, f).copy(), gamma, beta, mode, running,
                             tape is not None, False)
    out = Tensor(y.reshape(inp.data.shape))

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            gx = _bn_backward(g.reshape(-1, f), xc, inv, gamma, beta, mode)
            _accumulate(inp, gx.reshape(inp.data.shape), fresh=True)
        tape.record(out, bwd)
    return out


# Variance floor inside the pooling square root; keeps the gradient
# finite when a channel is constant over the pooled frames.
POOL_EPS = 1e-8


def stats_pool(frames: Tensor, tape: Tape | None = None) -> Tensor:
    """Pool [N, T', F] frame activations to [N, 2F]: mean, then stddev,
    per channel. The stddev is sqrt(population variance + POOL_EPS).
    """
    x = frames.data
    if x.ndim != 3:
        raise ConfigurationError(f"stats_pool input must be [N, T, F], got shape {x.shape}")
    _, t, f = x.shape
    if t < 2:
        raise PoolingError(f"stats_pool needs at least 2 frames, got {t}")
    mu = x.mean(axis=1)
    centered = x - mu[:, None, :]
    # einsum sums the squares without a full-size temporary.
    var = np.einsum("ntf,ntf->nf", centered, centered) / t
    std = np.sqrt(var + POOL_EPS)
    out = Tensor(np.concatenate([mu, std], axis=1))

    if tape is not None:
        def bwd(g: np.ndarray) -> None:
            if not _wants_grad(frames):
                return
            gx = centered
            gx *= g[:, None, f:] / (t * std[:, None, :])
            gx += g[:, None, :f] / t
            _accumulate(frames, gx, fresh=True)
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
    """Adaptive-moment state: per-parameter first/second moments plus a step
    count. The hyperparameters are optimizer_step's arguments."""

    def __init__(self, params: dict[str, Tensor]):
        self.step_count = 0
        self.first_moment = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.second_moment = {k: np.zeros_like(p.data) for k, p in params.items()}


def optimizer_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
                   state: OptimizerState, *, learning_rate: float, beta1: float,
                   beta2: float, eps: float, weight_decay: float = 0.0) -> None:
    """One in-place adaptive-moment update of every parameter.

    Bias-corrected moments, elementwise step size, and decoupled L2 decay
    (decay acts on the parameter directly, not through the gradient).
    grads maps parameter name to its gradient array; a missing or None
    entry counts as a zero gradient. A non-finite gradient aborts with a
    TrainingDivergedError naming the parameter, before any parameter,
    moment or the step count moves. The update is a pure function of
    (params, grads, state, hyperparameters), so replaying a recorded
    trajectory reproduces it bitwise.
    """
    if weight_decay < 0:
        raise ConfigurationError(f"weight decay must be non-negative, got {weight_decay}")
    for name in params:
        if name not in state.first_moment:
            raise ConfigurationError(f"optimizer state has no slot for parameter '{name}'")
        if state.first_moment[name].shape != params[name].data.shape:
            raise ConfigurationError(f"optimizer state shape mismatch for parameter '{name}'")
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite gradient for parameter '{name}'")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay:
            update = update + weight_decay * p.data
        p.data -= learning_rate * update


@dataclass
class GradCheckReport:
    max_relative_error: float
    passed: bool
    tolerance: float
    per_tensor: dict[str, float] = field(default_factory=dict)


# Central-difference step of grad_check, in float64.
_FD_STEP = 1e-5


def grad_check(fn: Callable[[], tuple[Tensor, Tape]], wrt: dict[str, Tensor],
               tolerance: float = 1e-4) -> GradCheckReport:
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
            flat[i] = orig + _FD_STEP
            f_plus = float(fn()[0].data)
            flat[i] = orig - _FD_STEP
            f_minus = float(fn()[0].data)
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * _FD_STEP)
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
