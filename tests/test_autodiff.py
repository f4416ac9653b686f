"""Tape, primitives, finite-difference checks, and the optimizer."""

import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from xveckit import autodiff
from xveckit.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    OptimizerState,
    Tape,
    Tensor,
    add,
    backward,
    batchnorm1d,
    conv1d_dilated,
    dense,
    grad_check,
    mse_loss,
    optimizer_step,
    relu,
    reshape,
    scale,
    softmax_cross_entropy,
    stats_pool,
)
from xveckit.errors import ConfigurationError, TrainingDivergedError, UsageError
from xveckit.model import ModelConfig


def t64(arr, requires_grad=True) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# frozen worked examples
# ---------------------------------------------------------------------------

def test_conv_difference_kernel():
    # taps applied in index order: out[t] = x[t] - x[t+2]
    x = t64(np.arange(1.0, 6.0)[None, :, None])
    w = t64([[[1.0, 0.0, -1.0]]])
    b = t64([0.0])
    out = conv1d_dilated(x, w, b)
    np.testing.assert_array_equal(out.data, [[[-2.0], [-2.0], [-2.0]]])


def test_conv_output_length_with_dilation():
    # 7 frames, kernel 3, dilation 2 spans (3-1)*2 = 4 frames, leaving 3
    x = t64(np.random.default_rng(0).normal(size=(1, 7, 2)))
    w = t64(np.random.default_rng(1).normal(size=(4, 2, 3)))
    out = conv1d_dilated(x, w, t64(np.zeros(4)), dilation=2)
    assert out.shape == (1, 3, 4)


def test_conv_identity_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 6, 3))
    w = np.eye(3)[:, :, None]  # k=1, each channel copied through
    out = conv1d_dilated(t64(x), t64(w), t64(np.zeros(3)))
    np.testing.assert_allclose(out.data, x, rtol=0, atol=0)


def test_conv_batched_matches_loop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 9, 2))
    w = t64(rng.normal(size=(5, 2, 3)))
    b = t64(rng.normal(size=5))
    batched = conv1d_dilated(t64(x), w, b, dilation=2)
    for n in range(4):
        single = conv1d_dilated(t64(x[n:n + 1]), w, b, dilation=2)
        np.testing.assert_allclose(batched.data[n:n + 1], single.data, atol=1e-14)


def test_dense_relu_worked_example():
    out = dense(t64([[1.0, -2.0]]), t64([[2.0, 0.0], [0.0, 2.0]]),
                t64([0.0, 1.0]), activation="relu")
    np.testing.assert_array_equal(out.data, [[2.0, 0.0]])


def test_cross_entropy_two_way():
    out = softmax_cross_entropy(t64([[1.0, 0.0]]), np.array([0]))
    assert out.data == pytest.approx(0.31326168751822286, abs=1e-12)


def test_cross_entropy_uniform_logits():
    for c in (2, 5, 31):
        out = softmax_cross_entropy(t64(np.zeros((3, c))), np.zeros(3, dtype=np.int64))
        assert out.data == pytest.approx(np.log(c), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.full((1, 4), -50.0)
    logits[0, 1] = 50.0
    out = softmax_cross_entropy(t64(logits), np.array([1]))
    assert 0.0 <= float(out.data) < 1e-9


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    a = softmax_cross_entropy(t64(logits), labels)
    b = softmax_cross_entropy(t64(logits + 123.0), labels)
    assert a.data == pytest.approx(float(b.data), rel=1e-12)


def test_mse_worked_example():
    pred = t64([[1.0, 0.0], [0.0, 2.0]])
    out = mse_loss(pred, t64(np.zeros((2, 2))))
    assert float(out.data) == 2.5


def test_mse_zero_at_target():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 4))
    assert float(mse_loss(t64(x), t64(x.copy())).data) == 0.0


# ---------------------------------------------------------------------------
# gradients: every primitive against central differences
# ---------------------------------------------------------------------------

def assert_gradcheck(fn, wrt, tol=1e-4):
    report = grad_check(fn, wrt, tolerance=tol)
    assert report.passed, f"max rel err {report.max_relative_error:.3e}: {report.per_tensor}"


@pytest.mark.parametrize("trial", range(6))
def test_grad_conv(trial):
    rng = np.random.default_rng(100 + trial)
    k = int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    t_in = (k - 1) * d + int(rng.integers(1, 5))
    c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    x = t64(rng.normal(size=(1, t_in, c_in)))
    w = t64(rng.normal(size=(c_out, c_in, k)))
    b = t64(rng.normal(size=c_out))

    def fn():
        tape = Tape()
        out = conv1d_dilated(x, w, b, dilation=d, tape=tape)
        rows = reshape(out, out.shape[1:], tape)
        return mse_loss(rows, Tensor(np.zeros(rows.shape)), tape), tape

    assert_gradcheck(fn, {"x": x, "w": w, "b": b})


@pytest.mark.parametrize("trial", range(4))
def test_grad_conv_batched(trial):
    rng = np.random.default_rng(200 + trial)
    x = t64(rng.normal(size=(3, 8, 2)))
    w = t64(rng.normal(size=(3, 2, 3)))
    b = t64(rng.normal(size=3))

    def fn():
        tape = Tape()
        out = conv1d_dilated(x, w, b, dilation=2, tape=tape)
        n, t, c = out.shape
        flat = reshape(out, (n, t * c), tape)
        return mse_loss(flat, Tensor(np.zeros(flat.shape)), tape), tape

    assert_gradcheck(fn, {"x": x, "w": w, "b": b})


@pytest.mark.parametrize("trial", range(4))
def test_grad_dense(trial):
    rng = np.random.default_rng(300 + trial)
    n, d_in, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
    x = t64(rng.normal(size=(n, d_in)))
    w = t64(rng.normal(size=(d_out, d_in)))
    b = t64(rng.normal(size=d_out))

    def fn():
        tape = Tape()
        out = dense(x, w, b, tape=tape)
        return mse_loss(out, Tensor(np.zeros(out.shape)), tape), tape

    assert_gradcheck(fn, {"x": x, "w": w, "b": b})


@pytest.mark.parametrize("trial", range(4))
def test_grad_relu_away_from_kink(trial):
    rng = np.random.default_rng(400 + trial)
    raw = rng.normal(size=(4, 5))
    raw = np.where(np.abs(raw) < 0.1, 0.5, raw)  # keep the FD step off the kink
    x = t64(raw)

    def fn():
        tape = Tape()
        return mse_loss(relu(x, tape), Tensor(np.ones(x.shape)), tape), tape

    assert_gradcheck(fn, {"x": x})


@pytest.mark.parametrize("trial", range(4))
def test_grad_batchnorm_train_mode(trial):
    rng = np.random.default_rng(500 + trial)
    n, c = int(rng.integers(4, 8)), int(rng.integers(1, 4))
    x = t64(rng.normal(size=(n, c)) * 2.0)
    gamma = t64(rng.uniform(0.5, 1.5, size=c))
    beta = t64(rng.normal(size=c))

    def fn():
        tape = Tape()
        state = BatchNormState.create(c, dtype=np.float64)
        out = batchnorm1d(x, gamma, beta, "train", state, tape=tape)
        return mse_loss(out, Tensor(np.ones(out.shape)), tape), tape

    assert_gradcheck(fn, {"x": x, "gamma": gamma, "beta": beta})


@pytest.mark.parametrize("trial", range(4))
def test_grad_cross_entropy(trial):
    rng = np.random.default_rng(600 + trial)
    n, c = int(rng.integers(1, 5)), int(rng.integers(2, 6))
    logits = t64(rng.normal(size=(n, c)))
    labels = rng.integers(0, c, size=n)

    def fn():
        tape = Tape()
        return softmax_cross_entropy(logits, labels, tape), tape

    assert_gradcheck(fn, {"logits": logits})


@pytest.mark.parametrize("trial", range(4))
def test_grad_mse(trial):
    rng = np.random.default_rng(700 + trial)
    pred = t64(rng.normal(size=(3, 4)))
    target = t64(rng.normal(size=(3, 4)))

    def fn():
        tape = Tape()
        return mse_loss(pred, target, tape), tape

    assert_gradcheck(fn, {"pred": pred, "target": target})


def test_grad_fanout_accumulates():
    # x feeds the loss twice; gradient must be the sum of both paths
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    w = t64([[1.0, 0.5], [-0.5, 1.0]])
    b = t64([0.1, -0.1])

    def fn():
        tape = Tape()
        h1 = dense(x, w, b, tape=tape)
        h2 = dense(x, w, b, tape=tape)
        from xveckit.autodiff import add
        return mse_loss(add(h1, h2, tape), Tensor(np.zeros((2, 2))), tape), tape

    assert_gradcheck(fn, {"x": x, "w": w, "b": b})


def test_gradcheck_catches_corrupted_backward():
    # negative control: a deliberately wrong gradient must not pass
    x = t64(np.random.default_rng(8).normal(size=(3, 3)))

    def fn():
        tape = Tape()
        out = Tensor(x.data * 2.0)

        def bwd(g):
            x.grad = (x.grad if x.grad is not None else 0) + 2.02 * g  # 1% off

        tape.record(out, bwd)
        loss = Tensor(np.asarray(np.sum(out.data)))

        def bwd_sum(g):
            out.grad = (out.grad if out.grad is not None else 0) + g * np.ones_like(out.data)

        tape.record(loss, bwd_sum)
        return loss, tape

    report = grad_check(fn, {"x": x})
    assert not report.passed
    assert report.max_relative_error > 1e-3


def test_gradcheck_rejects_float32():
    x = Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ConfigurationError):
        grad_check(lambda: (None, None), {"x": x})


# ---------------------------------------------------------------------------
# tape discipline
# ---------------------------------------------------------------------------

def test_tape_is_single_use():
    x = t64([[1.0, 2.0]])
    tape = Tape()
    loss = mse_loss(x, Tensor(np.zeros((1, 2))), tape)
    backward(loss, tape)
    with pytest.raises(UsageError):
        backward(loss, tape)


def test_backward_requires_scalar():
    x = t64([[1.0, 2.0]])
    tape = Tape()
    out = relu(x, tape)
    with pytest.raises(UsageError):
        backward(out, tape)


def test_backward_rejects_foreign_loss():
    x = t64([[1.0, 2.0]])
    tape_a, tape_b = Tape(), Tape()
    loss = mse_loss(x, Tensor(np.zeros((1, 2))), tape_a)
    mse_loss(x, Tensor(np.zeros((1, 2))), tape_b)
    with pytest.raises(UsageError):
        backward(loss, tape_b)


def test_no_tape_means_no_recording():
    x = t64([[1.0, -1.0]])
    out = relu(x)
    assert out._tape is None
    assert x.grad is None


def test_constant_tensors_get_no_grad():
    x = t64([[1.0, 2.0]])
    const = Tensor(np.ones((1, 2)))  # requires_grad defaults off
    tape = Tape()
    loss = mse_loss(x, const, tape)
    backward(loss, tape)
    assert x.grad is not None
    assert const.grad is None


# ---------------------------------------------------------------------------
# backward ownership: a closure writes only its own gradient and the
# buffers it saved, never an input, a forward output or a parameter
# ---------------------------------------------------------------------------

def copies(*tensors):
    return [Tensor(t.data.copy()) for t in tensors]


def backward_through(out, tape):
    flat = reshape(out, (out.shape[0], -1), tape)
    backward(mse_loss(flat, Tensor(np.ones(flat.shape)), tape), tape)


def _conv(tape, x, w, b):
    return conv1d_dilated(x, w, b, dilation=2, tape=tape, activation="relu")


def _bn(mode):
    def op(tape, x, gamma, beta):
        state = BatchNormState(mean=np.full(3, 0.2), var=np.full(3, 1.5))
        return batchnorm1d(x, gamma, beta, mode, state, tape=tape)
    return op


def _conv_bn(mode):
    def op(tape, x, w, b, gamma, beta):
        state = BatchNormState(mean=np.full(4, 0.2), var=np.full(4, 1.5))
        return conv1d_dilated(x, w, b, dilation=2, tape=tape, activation="relu",
                              norm=(gamma, beta, mode, state))
    return op


def _dense(tape, x, w, b):
    return dense(x, w, b, "relu", tape)


def _dense_bn(mode):
    def op(tape, x, w, b, gamma, beta):
        state = BatchNormState(mean=np.full(4, 0.2), var=np.full(4, 1.5))
        return dense(x, w, b, "relu", tape, norm=(gamma, beta, mode, state))
    return op


def _pool(tape, x):
    return stats_pool(x, tape)


# A one-tap kernel's im2col is its input, so its backward must not reuse
# that as scratch the way it reuses a multi-tap im2col.
@pytest.mark.parametrize("op, shapes", [
    (_conv, [(2, 6, 3), (4, 3, 1), (4,)]),
    (_conv, [(2, 9, 3), (4, 3, 3), (4,)]),
    (_bn("train"), [(2, 5, 3), (3,), (3,)]),
    (_bn("infer"), [(2, 5, 3), (3,), (3,)]),
    (_conv_bn("train"), [(2, 9, 3), (4, 3, 3), (4,), (4,), (4,)]),
    (_conv_bn("infer"), [(2, 9, 3), (4, 3, 3), (4,), (4,), (4,)]),
    (_dense, [(6, 3), (4, 3), (4,)]),
    (_dense_bn("train"), [(6, 3), (4, 3), (4,), (4,), (4,)]),
    (_dense_bn("infer"), [(6, 3), (4, 3), (4,), (4,), (4,)]),
    (_pool, [(2, 5, 3)]),
], ids=["conv-one-tap", "conv", "batchnorm-train", "batchnorm-infer", "conv-batchnorm-train",
        "conv-batchnorm-infer", "dense", "dense-batchnorm-train", "dense-batchnorm-infer",
        "stats_pool"])
def test_backward_keeps_inputs_and_outputs(op, shapes):
    rng = np.random.default_rng(42)
    inputs = [t64(rng.normal(size=s)) for s in shapes]
    expected = op(None, *copies(*inputs)).data
    before = copies(*inputs)
    tape = Tape()
    out = op(tape, *inputs)
    backward_through(out, tape)
    assert inputs[0].grad is not None
    assert out.data.tobytes() == expected.tobytes()
    for t, ref in zip(inputs, before):
        assert t.data.tobytes() == ref.data.tobytes()


def _conv_relu(x, w, b, tape, norm=None):
    return conv1d_dilated(x, w, b, 2, tape, "relu", norm=norm)


def _dense_relu(x, w, b, tape, norm=None):
    return dense(x, w, b, "relu", tape, norm=norm)


@pytest.mark.parametrize("mode", ["train", "infer"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_batchnorm_equals_conv_then_batchnorm(dtype, mode):
    # The built-in batch norm of conv1d_dilated, and so of dense, runs
    # batchnorm1d's arithmetic in the same order, so every output, gradient
    # and running statistic is bitwise that of the two-op composition.
    rng = np.random.default_rng(46)
    for x_shape, w_shape, layer in [((3, 12, 4), (5, 4, 3), _conv_relu),
                                    ((24, 4), (5, 4), _dense_relu)]:
        shapes = [x_shape, w_shape, (5,), (5,), (5,)]
        arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
        arrays[3] = rng.uniform(0.5, 1.5, size=5).astype(dtype)
        target = Tensor(rng.normal(size=(3, 40)).astype(dtype))
        results = []
        for fused in (True, False):
            x, w, b, gamma, beta = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            state = BatchNormState(mean=np.full(5, 0.2, dtype=dtype),
                                   var=np.full(5, 1.5, dtype=dtype))
            tape = Tape()
            if fused:
                out = layer(x, w, b, tape, norm=(gamma, beta, mode, state))
            else:
                h = layer(x, w, b, tape)
                assert (h.data == 0).any() and (h.data > 0).any()
                out = batchnorm1d(h, gamma, beta, mode, state, tape)
            backward(mse_loss(reshape(out, target.shape, tape), target, tape), tape)
            results.append([out.data, x.grad, w.grad, b.grad, gamma.grad, beta.grad,
                            state.mean, state.var])
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("activation", ["none", "relu"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_is_bitwise_the_matmul_formula(dtype, activation):
    # dense runs the one-tap convolution's body, yet its output and its
    # gradients are bitwise those of the plain row-wise formula.
    rng = np.random.default_rng(47)
    x, w, b = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
               for s in [(16, 6), (5, 6), (5,)]]
    g = rng.normal(size=(16, 5)).astype(dtype)
    tape = Tape()
    out = dense(x, w, b, activation, tape)
    want = x.data @ w.data.T + b.data
    gp = g
    if activation == "relu":
        want = np.maximum(want, 0)
        assert (want == 0).any() and (want > 0).any()
        gp = g * (want > 0)
    (_, bwd), = tape._entries
    bwd(g.copy())
    pairs = [(out.data, want), (b.grad, gp.sum(axis=0)), (w.grad, gp.T @ x.data),
             (x.grad, gp @ w.data)]
    for got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_backward_frees_each_entry_as_it_goes():
    rng = np.random.default_rng(45)
    x = t64(rng.normal(size=(2, 9, 3)))
    w, b = t64(rng.normal(size=(4, 3, 3))), t64(rng.normal(size=4))
    gamma, beta = t64(rng.uniform(0.5, 1.5, size=4)), t64(rng.normal(size=4))
    tape = Tape()
    h = scale(x, 1.0, tape)
    out = conv1d_dilated(h, w, b, 2, tape, "relu",
                         norm=(gamma, beta, "train", BatchNormState.create(4, dtype=np.float64)))
    # The conv's own saved arrays: im2col, the centred matmul output, the relu mask.
    conv_bwd = tape._entries[1][1]
    cells = dict(zip(conv_bwd.__code__.co_freevars, conv_bwd.__closure__))
    saved = [weakref.ref(cells[name].cell_contents) for name in ("cols_flat", "xc", "mask")]
    del conv_bwd, cells
    loss = mse_loss(reshape(out, (2, 20), tape), Tensor(np.ones((2, 20))), tape)

    dead_when_first_ran = []
    first_out, first_bwd = tape._entries[0]

    def probe(g):
        dead_when_first_ran.append([ref() is None for ref in saved])
        first_bwd(g)

    tape._entries[0] = (first_out, probe)
    del first_out
    backward(loss, tape)
    assert dead_when_first_ran == [[True, True, True]]
    assert len(tape) == 0
    assert h.grad is None and out.grad is None and loss.grad is None
    for leaf in (x, w, b, gamma, beta):
        assert leaf.grad is not None


# ---------------------------------------------------------------------------
# two threads: a frame layer on a tape splits its forward in row halves
# and forms its parameter gradients on the side thread
# ---------------------------------------------------------------------------

@pytest.fixture
def side_submits(monkeypatch):
    """(name, future) of every function handed to the side thread, in
    order; a side thread exists for the test wherever it runs."""
    own = ThreadPoolExecutor(1) if autodiff._SIDE is None else None
    if own is not None:
        monkeypatch.setattr(autodiff, "_SIDE", own)
    submitted = []
    submit = autodiff._SIDE.submit

    def recording(fn, job):
        submitted.append((job[0].__name__, submit(fn, job)))
        return submitted[-1][1]

    monkeypatch.setattr(autodiff._SIDE, "submit", recording)
    yield submitted
    if own is not None:
        own.shutdown()


def _names(submitted):
    return [name for name, _ in submitted]


def _frame_layer(dtype, shape=(16, 200, 64)):
    """A frame layer at a shape that takes the two-thread path: x, w, b,
    gamma, beta, running stats and an output gradient."""
    rng = np.random.default_rng(48)
    n, t, c = shape
    x, w, b, beta = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                     for s in [(n, t, c), (c, c, 3), (c,), (c,)]]
    gamma = Tensor(rng.uniform(0.5, 1.5, size=c).astype(dtype), requires_grad=True)
    state = BatchNormState(mean=np.full(c, 0.2, dtype=dtype), var=np.full(c, 1.5, dtype=dtype))
    g = rng.normal(size=(n, t - 4, c)).astype(dtype)
    return x, w, b, gamma, beta, state, g


def _backward_from(out, g, tape):
    """backward on a loss whose gradient with respect to out is g."""
    loss = Tensor(np.zeros((), dtype=g.dtype))
    tape.record(loss, lambda _: setattr(out, "grad", g.copy()))
    backward(loss, tape)


@pytest.mark.parametrize("dtype, taped", [(np.float32, True), (np.float64, True),
                                          (np.float32, False)],
                         ids=["float32", "float64", "tape-less"])
def test_two_thread_frame_layer_is_bitwise_the_serial_formula(dtype, taped, side_submits):
    # One np.stack im2col, one matmul over all N * T rows and batchnorm1d's
    # arithmetic in its order: each half of the rows, from either thread,
    # must give exactly these bits. Without a tape (extraction: infer mode,
    # batch norm in place) the same bodies run whole on this thread, at
    # k = 3, at k = 1 and on a 2-d dense input.
    x, w, b, gamma, beta, state, g = _frame_layer(dtype)
    old_mean, old_var = state.mean.copy(), state.var.copy()
    if not taped:
        x_before = x.data.tobytes()
        for xd, wd, dilation in [(x.data, w.data, 2), (x.data, w.data[..., :1], 1),
                                 (x.data[:, 0], w.data[..., 0], 1)]:
            out = conv1d_dilated(Tensor(xd), Tensor(wd), b, dilation, None, "relu",
                                 norm=(gamma, beta, "infer", state))
            x3, w3 = (xd, wd) if xd.ndim == 3 else (xd[:, None], wd[..., None])
            c, k = w3.shape[1:]
            t_out = x3.shape[1] - (k - 1) * dilation
            cols = np.stack([x3[:, dilation * j: dilation * j + t_out] for j in range(k)],
                            axis=2).reshape(-1, k * c)
            h = np.maximum(cols @ w3.transpose(0, 2, 1).reshape(-1, k * c).T + b.data, 0)
            a = gamma.data * (1.0 / np.sqrt(old_var + BN_EPS))
            want = ((h - old_mean) * a + beta.data).reshape(out.shape)
            assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        assert side_submits == [] and x.data.tobytes() == x_before
        assert state.mean.tobytes() == old_mean.tobytes()
        assert state.var.tobytes() == old_var.tobytes()
        return
    tape = Tape()
    out = conv1d_dilated(x, w, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
    _backward_from(out, g, tape)
    # im2col to mask, centring, scale and shift; parameter gradients
    assert _names(side_submits) == ["rows", "centre", "scale_shift", "_param_grads"]

    n, t, c = x.shape
    t_out, rows = t - 4, n * (t - 4)
    cols = np.stack([x.data[:, 2 * j: 2 * j + t_out, :] for j in range(3)],
                    axis=2).reshape(rows, 3 * c)
    w_flat = w.data.transpose(0, 2, 1).reshape(c, 3 * c)
    h = np.maximum(cols @ w_flat.T + b.data, 0)
    mask = h > 0
    assert mask.any() and not mask.all()
    mu = h.mean(axis=0)
    xc = h - mu
    var = np.einsum("ij,ij->j", xc, xc) / rows
    inv = 1.0 / np.sqrt(var + BN_EPS)
    a = gamma.data * inv
    want = xc * a + beta.data
    g2 = g.reshape(rows, c)
    g_sum, gxc_sum = g2.sum(axis=0), np.einsum("ij,ij->j", g2, xc)
    gh = (xc * (-a * inv * inv * (gxc_sum / rows)) + -a * (g_sum / rows) + g2 * a) * mask
    g_cols = (gh @ w_flat).reshape(n, t_out, 3, c)
    gx = np.zeros_like(x.data)
    gx[:, :t_out] = g_cols[:, :, 0]
    for j in (1, 2):
        gx[:, 2 * j: 2 * j + t_out] += g_cols[:, :, j]
    pairs = [(out.data, want.reshape(n, t_out, c)),
             (state.mean, BN_MOMENTUM * old_mean + (1.0 - BN_MOMENTUM) * mu),
             (state.var, BN_MOMENTUM * old_var + (1.0 - BN_MOMENTUM) * var),
             (x.grad, gx), (w.grad, (gh.T @ cols).reshape(c, 3, c).transpose(0, 2, 1)),
             (b.grad, gh.sum(axis=0)), (gamma.grad, gxc_sum * inv), (beta.grad, g_sum)]
    for got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_side_error_comes_out_of_backward_after_all_side_work(side_submits, monkeypatch):
    # The top layer's side work fails after this thread has formed its
    # input gradient; backward raises that error, no side work is still
    # running, and no layer below has run.
    x, w, b, gamma, beta, state, _ = _frame_layer(np.float32, shape=(16, 200, 8))
    ran = []

    def failing(*args):
        ran.append(True)
        time.sleep(0.05)
        raise RuntimeError("side work failed")

    tape = Tape()
    h = x
    for _ in range(3):
        h = conv1d_dilated(h, w, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
    h = reshape(h, (16, -1), tape)
    loss = mse_loss(h, Tensor(np.zeros(h.shape, np.float32)), tape)
    monkeypatch.setattr(autodiff, "_param_grads", failing)
    with pytest.raises(RuntimeError, match="side work failed"):
        backward(loss, tape)
    assert ran == [True] and _names(side_submits).count("failing") == 1
    assert all(future.done() for _, future in side_submits)
    assert w.grad is None and x.grad is None


def test_two_thread_layer_frees_its_buffers_and_fills_every_leaf(side_submits):
    x, w, b, gamma, beta, state, g = _frame_layer(np.float32)
    tape = Tape()
    out = conv1d_dilated(x, w, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
    (_, conv_bwd), = tape._entries
    cells = dict(zip(conv_bwd.__code__.co_freevars, conv_bwd.__closure__))
    saved = [weakref.ref(cells[name].cell_contents) for name in ("cols_flat", "xc", "mask")]
    del conv_bwd, cells
    _backward_from(out, g, tape)
    assert "_param_grads" in _names(side_submits)
    assert [ref() is None for ref in saved] == [True, True, True]
    assert len(tape) == 0 and out.grad is None
    for leaf in (x, w, b, gamma, beta):
        assert leaf.grad is not None


@pytest.mark.parametrize("grad_param", [False, True])
def test_two_thread_layer_keeps_inputs_outputs_and_a_computed_weight(side_submits, monkeypatch,
                                                                      grad_param):
    # Inputs, output and parameters are only read, and the gradients equal
    # the serial path's, also where the weight is made by an op on the
    # tape and the side thread writes that op's gradient buffer.
    grads = []
    for side in (autodiff._SIDE, None):
        monkeypatch.setattr(autodiff, "_SIDE", side)
        x, w, b, gamma, beta, state, g = _frame_layer(np.float64, shape=(16, 200, 8))
        before = [t.data.copy() for t in (x, w, b, gamma, beta)]
        tape = Tape()
        weight = scale(w, 1.0, tape) if grad_param else w
        out = conv1d_dilated(x, weight, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
        expected = out.data.copy()
        _backward_from(out, g, tape)
        assert out.data.tobytes() == expected.tobytes()
        for t, ref in zip((x, w, b, gamma, beta), before):
            assert t.data.tobytes() == ref.tobytes()
        grads.append([t.grad.tobytes() for t in (x, w, b, gamma, beta)])
    assert _names(side_submits).count("_param_grads") == 1
    assert grads[0] == grads[1]


def _split_layer_in_child(queue):
    x, w, b, gamma, beta, state, g = _frame_layer(np.float32)
    tape = Tape()
    out = conv1d_dilated(x, w, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
    _backward_from(out, g, tape)
    queue.put(w.grad.tobytes())


def _side_threads():
    return [t for t in threading.enumerate() if t.name.startswith("autodiff-side")]


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_side_thread_exists_on_more_than_one_cpu(monkeypatch, cpus):
    # ... and only inside side_thread(): its thread has exited once the
    # block is left, so no worker outlives the run that used it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert autodiff._SIDE is None and _side_threads() == []
    with autodiff.side_thread():
        assert (autodiff._SIDE is not None) is (cpus > 1)
        x, w, b, gamma, beta, state, g = _frame_layer(np.float32, shape=(4, 20, 8))
        tape = Tape()
        out = conv1d_dilated(x, w, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
        _backward_from(out, g, tape)
        assert len(_side_threads()) == (cpus > 1)
    assert autodiff._SIDE is None and _side_threads() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_runs_two_thread_layers_on_its_own_side_thread(monkeypatch):
    # The parent's side thread has run work, so its worker is idle; a
    # child forked inside side_thread() inherits no thread and must start
    # its own.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with autodiff.side_thread():
        x, w, b, gamma, beta, state, g = _frame_layer(np.float32)
        tape = Tape()
        out = conv1d_dilated(x, w, b, 2, tape, "relu", norm=(gamma, beta, "train", state))
        _backward_from(out, g, tape)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_split_layer_in_child, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
    assert child.exitcode == 0
    assert got == w.grad.tobytes()


@pytest.mark.parametrize("pool_first", [False, True])
def test_grad_conv_output_feeds_batchnorm_and_pooling(pool_first):
    rng = np.random.default_rng(43)
    x = t64(rng.normal(size=(2, 9, 2)))
    w = t64(rng.normal(size=(3, 2, 3)))
    b = t64(rng.normal(size=3))
    gamma = t64(rng.uniform(0.5, 1.5, size=3))
    beta = t64(rng.normal(size=3))

    def fn():
        tape = Tape()
        h = conv1d_dilated(x, w, b, dilation=2, tape=tape, activation="relu")
        state = BatchNormState.create(3, dtype=np.float64)
        if pool_first:
            direct = stats_pool(h, tape)
            normed = stats_pool(batchnorm1d(h, gamma, beta, "train", state, tape), tape)
        else:
            normed = stats_pool(batchnorm1d(h, gamma, beta, "train", state, tape), tape)
            direct = stats_pool(h, tape)
        both = add(direct, normed, tape)
        return mse_loss(both, Tensor(np.ones(both.shape)), tape), tape

    assert_gradcheck(fn, {"x": x, "w": w, "b": b, "gamma": gamma, "beta": beta})


def test_grad_leaf_feeds_two_batchnorms():
    rng = np.random.default_rng(44)
    x = t64(rng.normal(size=(2, 4, 3)) * 2.0)
    g1, b1 = t64(rng.uniform(0.5, 1.5, size=3)), t64(rng.normal(size=3))
    g2, b2 = t64(rng.uniform(0.5, 1.5, size=3)), t64(rng.normal(size=3))

    def fn():
        tape = Tape()
        trained = batchnorm1d(x, g1, b1, "train", BatchNormState.create(3, dtype=np.float64), tape)
        running = BatchNormState(mean=np.full(3, 0.3), var=np.full(3, 2.0))
        inferred = batchnorm1d(x, g2, b2, "infer", running, tape)
        both = reshape(add(trained, inferred, tape), (2, 12), tape)
        return mse_loss(both, Tensor(np.ones((2, 12))), tape), tape

    assert_gradcheck(fn, {"x": x, "g1": g1, "b1": b1, "g2": g2, "b2": b2})


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def make_param(value=1.0):
    return {"w": Tensor(np.full((3,), value), requires_grad=True)}


def adam(params, grads, state, learning_rate=1e-3, weight_decay=0.0):
    optimizer_step(params, grads, state, learning_rate=learning_rate, beta1=0.9,
                   beta2=0.999, eps=1e-8, weight_decay=weight_decay)


def test_optimizer_zero_grad_zero_decay_is_fixed_point():
    params = make_param()
    state = OptimizerState(params)
    before = params["w"].data.copy()
    for _ in range(5):
        adam(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"].data, before)


def test_optimizer_descends_quadratic():
    params = {"w": Tensor(np.array([5.0, -3.0]), requires_grad=True)}
    state = OptimizerState(params)
    for _ in range(200):
        adam(params, {"w": params["w"].data.copy()}, state, learning_rate=0.1)  # grad of w^2/2
    assert np.all(np.abs(params["w"].data) < 0.5)


def test_optimizer_first_step_is_signed_unit_step():
    # bias correction makes |update| ~ lr regardless of gradient scale
    params = make_param(0.0)
    state = OptimizerState(params)
    adam(params, {"w": np.array([1e-4, 42.0, -7.0])}, state, learning_rate=1e-3)
    np.testing.assert_allclose(params["w"].data, [-1e-3, -1e-3, 1e-3], rtol=1e-3)


def test_optimizer_decoupled_decay_acts_without_gradient():
    params = make_param(2.0)
    state = OptimizerState(params)
    adam(params, {"w": np.zeros(3)}, state, learning_rate=0.01, weight_decay=0.1)
    np.testing.assert_allclose(params["w"].data, 2.0 * (1 - 0.01 * 0.1), rtol=1e-12)


def test_optimizer_missing_grad_counts_as_zero():
    params = make_param()
    state = OptimizerState(params)
    before = params["w"].data.copy()
    adam(params, {}, state)
    np.testing.assert_array_equal(params["w"].data, before)


def test_optimizer_bitwise_determinism():
    def run():
        rng = np.random.default_rng(11)
        params = {"w": Tensor(rng.normal(size=(4, 3)), requires_grad=True)}
        state = OptimizerState(params)
        for _ in range(100):
            adam(params, {"w": rng.normal(size=(4, 3))}, state, learning_rate=3e-3,
                 weight_decay=1e-4)
        return params["w"].data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_optimizer_rejects_non_finite_gradient():
    params = make_param()
    state = OptimizerState(params)
    g = np.array([1.0, np.nan, 0.0])
    with pytest.raises(TrainingDivergedError):
        adam(params, {"w": g}, state)


def test_optimizer_non_finite_gradient_moves_nothing():
    # every gradient is checked before any parameter, moment or the step count moves
    params = {"a": Tensor(np.full(3, 1.0), requires_grad=True),
              "b": Tensor(np.full(2, -2.0), requires_grad=True)}
    state = OptimizerState(params)
    adam(params, {"a": np.ones(3), "b": np.ones(2)}, state)
    before = {name: (p.data.tobytes(), state.first_moment[name].tobytes(),
                     state.second_moment[name].tobytes()) for name, p in params.items()}
    with pytest.raises(TrainingDivergedError, match="parameter 'b'"):
        adam(params, {"a": np.ones(3), "b": np.array([0.5, np.inf])}, state, weight_decay=0.1)
    after = {name: (p.data.tobytes(), state.first_moment[name].tobytes(),
                    state.second_moment[name].tobytes()) for name, p in params.items()}
    assert after == before
    assert state.step_count == 1


def test_optimizer_rejects_unknown_parameter():
    params = make_param()
    state = OptimizerState(params)
    params["extra"] = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ConfigurationError):
        adam(params, {}, state)


def test_optimizer_validates_hyperparameters():
    # learning rate, betas and eps live in ModelConfig and are checked there
    for bad in ({"learning_rate": 0.0}, {"beta1": 1.0}, {"adam_eps": 0.0}):
        with pytest.raises(ConfigurationError):
            ModelConfig(feature_dim=3, num_speakers=2, **bad).validate()
    params = make_param()
    state = OptimizerState(params)
    with pytest.raises(ConfigurationError):
        adam(params, {}, state, weight_decay=-1.0)
