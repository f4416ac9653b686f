"""Network assembly, training loop, embeddings, and checkpoints."""

import os
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from xveckit import autodiff, binio
from xveckit import model as model_module
from xveckit.autodiff import (
    BN_EPS,
    BN_MOMENTUM,
    Tape,
    Tensor,
    _accumulate,
    add,
    backward,
    conv1d_dilated,
    dense,
    mse_loss,
    optimizer_step,
    relu,
    reshape,
    scale,
    softmax_cross_entropy,
    stats_pool,
)
from xveckit.data import MIN_CROP, CorpusSpec, FeatureMatrix, generate_corpus
from xveckit.errors import (
    BadMagicError,
    ConfigurationError,
    DataError,
    InputTooShortError,
    ParseError,
    TrainingDivergedError,
    TruncatedFileError,
)
from xveckit.model import (
    MINIATURE_CONFIG,
    Model,
    ModelConfig,
    build_model,
    extract_embedding,
    forward,
    load_checkpoint,
    min_input_frames,
    multitask_loss,
    parameter_overhead,
    receptive_field,
    save_checkpoint,
    step_time_overhead,
    train,
)
from xveckit.stats import hos_vector

FULL = ModelConfig(feature_dim=30, num_speakers=7001)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    spec = CorpusSpec(num_speakers=5, utterances_per_speaker=4, feature_dim=6,
                      min_frames=24, max_frames=30, spread=3.0, seed=77)
    out = tmp_path_factory.mktemp("model_corpus")
    return generate_corpus(spec, out)


def params_bytes(model: Model) -> dict[str, bytes]:
    return {k: p.data.tobytes() for k, p in model.params.items()}


# ---------------------------------------------------------------------------
# sizes and shapes
# ---------------------------------------------------------------------------

def test_receptive_field_is_fifteen():
    assert receptive_field(FULL) == 15
    assert receptive_field(MINIATURE_CONFIG) == 15  # same kernel/dilation stack


def test_shortest_input_is_the_receptive_field_plus_one():
    # pooling needs two output frames; make_batches' floor is the default net's need
    assert min_input_frames(FULL) == receptive_field(FULL) + 1 == MIN_CROP


def test_a_crop_of_the_receptive_field_is_rejected_at_validation():
    with pytest.raises(ConfigurationError, match="crop_length 15 < 16"):
        replace(MINIATURE_CONFIG, crop_length=15).validate()
    replace(MINIATURE_CONFIG, crop_length=16).validate()


def test_an_utterance_of_the_receptive_field_is_rejected_and_one_more_frame_embeds():
    model = build_model(MINIATURE_CONFIG)
    frames = np.random.default_rng(0).normal(size=(16, 6)).astype(np.float32)
    with pytest.raises(InputTooShortError, match="utterance 'u' of 15 frames, fewer than the 16"):
        extract_embedding(model, FeatureMatrix("u", "s", frames[:15]))
    assert np.isfinite(extract_embedding(model, FeatureMatrix("u", "s", frames)).vector).all()


def test_full_size_first_segment_layer():
    model = build_model(FULL)
    assert model.params["l6.weight"].shape == (512, 3072)
    assert model.params["softmax.weight"].shape == (7001, 512)
    assert model.params["mtl.weight"].shape == (120, 512)


def test_auxiliary_head_cost_at_full_size():
    report = parameter_overhead(FULL)
    assert report.added_params == 61_560
    assert report.ratio < 0.02


def test_auxiliary_head_cost_alternate_dim():
    report = parameter_overhead(replace(FULL, feature_dim=23))
    assert report.added_params == 47_196


def test_forward_output_shapes():
    model = build_model(MINIATURE_CONFIG)
    x = np.random.default_rng(0).normal(size=(4, 20, 6)).astype(np.float32)
    r = forward(model, x, "infer")
    assert r.logits.shape == (4, 5)
    assert r.reconstruction.shape == (4, 24)
    baseline = build_model(replace(MINIATURE_CONFIG, mtl_order=0, task_weight=0.0))
    assert forward(baseline, x, "infer").reconstruction is None


def test_forward_rejects_short_input():
    model = build_model(MINIATURE_CONFIG)
    x = np.zeros((2, 14, 6), dtype=np.float32)  # receptive field is 15
    with pytest.raises(InputTooShortError):
        forward(model, x, "infer")


def test_forward_rejects_wrong_feature_dim():
    model = build_model(MINIATURE_CONFIG)
    with pytest.raises(ConfigurationError):
        forward(model, np.zeros((2, 20, 7), dtype=np.float32), "infer")


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_build_is_deterministic():
    a, b = build_model(MINIATURE_CONFIG), build_model(MINIATURE_CONFIG)
    assert params_bytes(a) == params_bytes(b)


def test_auxiliary_head_is_drawn_last():
    # a baseline and an MTL model share every non-head parameter bitwise
    with_head = build_model(MINIATURE_CONFIG)
    baseline = build_model(replace(MINIATURE_CONFIG, mtl_order=0, task_weight=0.0))
    assert "mtl.weight" not in baseline.params
    for name, raw in params_bytes(baseline).items():
        assert params_bytes(with_head)[name] == raw


def test_initial_loss_is_near_chance():
    model = build_model(MINIATURE_CONFIG)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 20, 6)).astype(np.float32)
    labels = rng.integers(0, 5, size=8)
    r = forward(model, x, "train")
    parts = multitask_loss(r.logits, labels, r.reconstruction,
                           Tensor(rng.normal(size=r.reconstruction.shape).astype(np.float32)),
                           0.3)
    # untrained logits sit at unit scale around chance, far from collapse
    # (ce ~ 0) and far from saturation (ce >> ln C)
    assert 1.0 < float(parts.ce.data) < 3.2


# ---------------------------------------------------------------------------
# loss weighting
# ---------------------------------------------------------------------------

def endpoint_grads(task_weight):
    model = build_model(MINIATURE_CONFIG)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 20, 6)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    tape = Tape()
    r = forward(model, x, "train", tape)
    targets = Tensor(rng.normal(size=r.reconstruction.shape).astype(np.float32))
    parts = multitask_loss(r.logits, labels, r.reconstruction, targets, task_weight, tape)
    backward(parts.total, tape)
    return model


def test_pure_reconstruction_ignores_softmax_head():
    model = endpoint_grads(1.0)
    assert not np.any(model.params["softmax.weight"].grad)
    assert np.any(model.params["mtl.weight"].grad)


def test_pure_classification_ignores_auxiliary_head():
    model = endpoint_grads(0.0)
    assert not np.any(model.params["mtl.weight"].grad)
    assert np.any(model.params["softmax.weight"].grad)


def test_loss_weighting_validation():
    model = build_model(replace(MINIATURE_CONFIG, mtl_order=0, task_weight=0.0))
    x = np.zeros((2, 20, 6), dtype=np.float32)
    r = forward(model, x, "infer")
    with pytest.raises(ConfigurationError):
        multitask_loss(r.logits, np.array([0, 1]), None, None, 0.5)
    with pytest.raises(ConfigurationError):
        multitask_loss(r.logits, np.array([0, 1]), None, None, 1.5)
    mtl = build_model(MINIATURE_CONFIG)
    r2 = forward(mtl, x, "infer")
    with pytest.raises(ConfigurationError):
        multitask_loss(r2.logits, np.array([0, 1]), r2.reconstruction, None, 0.3)


# ---------------------------------------------------------------------------
# frame layers: one tape op each must equal the five-op composition
# ---------------------------------------------------------------------------

def reference_batchnorm(inp, gamma, beta, running, tape):
    """Train-mode batch norm of an [N, F] input in its textbook form:
    xhat = (x - mean) / sqrt(var + eps), and the backward as means of
    products over the rows."""
    x = inp.data
    mu, var = x.mean(axis=0), x.var(axis=0)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mu) * inv
    m = BN_MOMENTUM
    running.mean = m * running.mean + (1.0 - m) * mu
    running.var = m * running.var + (1.0 - m) * var
    out = Tensor(gamma.data * xhat + beta.data)

    def bwd(g):
        _accumulate(beta, g.sum(axis=0))
        _accumulate(gamma, (g * xhat).sum(axis=0))
        gxh = g * gamma.data
        _accumulate(inp, inv * (gxh - gxh.mean(axis=0) - xhat * (gxh * xhat).mean(axis=0)))

    tape.record(out, bwd)
    return out


def five_op_step(model, x, labels, targets, tape):
    """Forward + loss with each frame layer as conv -> relu -> reshape ->
    [N*T, F] batch norm -> reshape, every batch norm in its textbook form,
    and the loss as add(scale, scale)."""
    p, cfg = model.params, model.config
    h = Tensor(x)
    n = x.shape[0]
    for i, dilation in enumerate(cfg.dilations, start=1):
        name = f"l{i}"
        h = relu(conv1d_dilated(h, p[f"{name}.weight"], p[f"{name}.bias"], dilation, tape), tape)
        t_i, width = h.shape[1], h.shape[2]
        h = reshape(h, (n * t_i, width), tape)
        h = reference_batchnorm(h, p[f"{name}.gamma"], p[f"{name}.beta"],
                                model.bn_states[name], tape)
        h = reshape(h, (n, t_i, width), tape)
    h = stats_pool(h, tape)
    for name in ("l6", "l7"):
        h = dense(h, p[f"{name}.weight"], p[f"{name}.bias"], "relu", tape)
        h = reference_batchnorm(h, p[f"{name}.gamma"], p[f"{name}.beta"],
                                model.bn_states[name], tape)
    ce = softmax_cross_entropy(dense(h, p["softmax.weight"], p["softmax.bias"], "none", tape),
                               labels, tape)
    mse = mse_loss(dense(h, p["mtl.weight"], p["mtl.bias"], "none", tape), targets, tape)
    w = cfg.task_weight
    return add(scale(mse, w, tape), scale(ce, 1.0 - w, tape), tape)


def max_rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def test_lean_frame_layers_match_five_op_composition():
    # Both models start every step from the same parameters: the optimizer
    # normalizes each gradient by its own magnitude, so letting it step both
    # models would amplify rounding differences in near-zero gradients
    # instead of measuring them. Batch-norm running stats are left to
    # accumulate separately over the three steps.
    lean = build_model(MINIATURE_CONFIG, dtype=np.float64)
    ref = build_model(MINIATURE_CONFIG, dtype=np.float64)
    rng = np.random.default_rng(21)
    for _ in range(3):
        x = rng.normal(size=(4, 20, 6))
        labels = rng.integers(0, 5, size=4)
        targets = Tensor(hos_vector(x, 4))

        tape = Tape()
        r = forward(lean, x, "train", tape)
        total = multitask_loss(r.logits, labels, r.reconstruction, targets,
                               MINIATURE_CONFIG.task_weight, tape).total
        assert len(tape) == 13
        backward(total, tape)

        ref_tape = Tape()
        ref_total = five_op_step(ref, x, labels, targets, ref_tape)
        assert len(ref_tape) == 37
        backward(ref_total, ref_tape)

        assert max_rel(total.data, ref_total.data) < 1e-10
        for name, param in lean.params.items():
            assert max_rel(param.grad, ref.params[name].grad) < 1e-10, name
        for name, state in lean.bn_states.items():
            assert max_rel(state.mean, ref.bn_states[name].mean) < 1e-10, name
            assert max_rel(state.var, ref.bn_states[name].var) < 1e-10, name
        cfg = MINIATURE_CONFIG
        optimizer_step(lean.params, {k: p.grad for k, p in lean.params.items()},
                       lean.opt_state, learning_rate=cfg.learning_rate, beta1=cfg.beta1,
                       beta2=cfg.beta2, eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
        for name, param in lean.params.items():
            param.grad = None
            ref.params[name].data = param.data.copy()
            ref.params[name].grad = None


def test_backward_scratch_memory_stays_small():
    # Backward writes into arrays its ops already own (the gradient each is
    # handed, the im2col and centred copies forward saved), so its peak
    # above the forward's live set is a small share of that set. Readings
    # at this shape: 0.58 with a fresh full-size temporary per product,
    # 0.19 with the buffers reused (desk shapes: 0.56 and 0.16).
    model = build_model(MINIATURE_CONFIG)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 100, 6)).astype(np.float32)
    labels = rng.integers(0, 5, size=16)
    targets = Tensor(hos_vector(x, 4).astype(np.float32))
    tracemalloc.start()
    try:
        tape = Tape()
        r = forward(model, x, "train", tape)
        total = multitask_loss(r.logits, labels, r.reconstruction, targets,
                               MINIATURE_CONFIG.task_weight, tape).total
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(total, tape)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * live, f"backward peaked {peak} B above a forward live set of {live} B"


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_embedding_shape_and_id(corpus):
    model = build_model(MINIATURE_CONFIG)
    fm = corpus.load_features(corpus.entries[0])
    emb = extract_embedding(model, fm)
    assert emb.vector.shape == (12,)
    assert emb.utt_id == fm.utt_id
    assert np.all(np.isfinite(emb.vector))


def test_embedding_ignores_layers_past_the_bottleneck(corpus):
    model = build_model(MINIATURE_CONFIG)
    train(model, corpus, epochs=1)  # give batch-norm stats a real state
    fm = corpus.load_features(corpus.entries[0])
    before = extract_embedding(model, fm).vector
    rng = np.random.default_rng(0)
    for name in ("l6.gamma", "l6.beta", "l7.weight", "l7.bias", "l7.gamma",
                 "l7.beta", "softmax.weight", "softmax.bias", "mtl.weight", "mtl.bias"):
        model.params[name].data[:] = rng.normal(size=model.params[name].shape)
    model.bn_states["l6"].mean[:] = 5.0
    model.bn_states["l7"].var[:] = 9.0
    after = extract_embedding(model, fm).vector
    assert before.tobytes() == after.tobytes()


def test_embedding_depends_on_frame_layers(corpus):
    model = build_model(MINIATURE_CONFIG)
    fm = corpus.load_features(corpus.entries[0])
    before = extract_embedding(model, fm).vector
    model.params["l1.weight"].data *= 1.5
    after = extract_embedding(model, fm).vector
    assert not np.array_equal(before, after)


def test_embedding_rejects_short_utterance():
    model = build_model(MINIATURE_CONFIG)
    short = FeatureMatrix("spk0_utt3", "spk0", np.zeros((14, 6), dtype=np.float32))
    with pytest.raises(InputTooShortError, match="utterance 'spk0_utt3' of 14 frames"):
        extract_embedding(model, short)


def test_tape_less_calls_never_use_the_side_thread(monkeypatch):
    # Extraction and tape-less forwards stay on the calling thread, at a
    # batch where a forward on a tape splits its frame layers.
    class NoSide:
        def submit(self, *args):
            raise AssertionError("handed work to the side thread")

    monkeypatch.setattr(autodiff, "_SIDE", NoSide())
    model = build_model(ModelConfig(feature_dim=10, num_speakers=5,
                                    frame_widths=(64, 64, 64, 64, 128), segment_width=64,
                                    batch_size=16, crop_length=200))
    rng = np.random.default_rng(12)
    frames = rng.normal(size=(3000, 10)).astype(np.float32)
    assert np.isfinite(extract_embedding(model, FeatureMatrix("u", "s", frames)).vector).all()
    batch = rng.normal(size=(16, 200, 10)).astype(np.float32)
    for mode in ("train", "infer"):
        forward(model, batch, mode)
    with pytest.raises(AssertionError, match="side thread"):
        forward(model, batch, "train", Tape())


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_training_reduces_loss(corpus):
    model = build_model(MINIATURE_CONFIG)
    stats = train(model, corpus, epochs=8)
    assert len(stats) == 8
    assert stats[-1].loss < stats[0].loss
    assert model.trained_epochs == 8
    assert model.step == 8 * (20 // 4)


def test_training_uses_the_side_thread_and_leaves_none_behind(corpus, monkeypatch):
    # Each step hands four row-wise steps of each of the five frame layers
    # to the side thread. The single-threaded work that follows training in
    # one process (extraction, scoring) must not run beside an idle worker.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    handed = []

    class Counting(ThreadPoolExecutor):
        def submit(self, fn, job):
            handed.append(job[0].__name__)
            return super().submit(fn, job)

    monkeypatch.setattr(autodiff, "ThreadPoolExecutor", Counting)
    train(build_model(MINIATURE_CONFIG), corpus, epochs=1)
    steps, layers = 20 // 4, len(MINIATURE_CONFIG.frame_widths)
    assert Counter(handed) == {name: steps * layers
                               for name in ("rows", "centre", "scale_shift", "_param_grads")}
    assert autodiff._SIDE is None
    assert not [t for t in threading.enumerate() if t.name.startswith("autodiff-side")]


def test_training_writes_the_same_bytes_on_one_thread_and_two(corpus, tmp_path, monkeypatch):
    # The thread count only decides how a frame layer's rows are cut.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with ThreadPoolExecutor(1, "autodiff-side") as worker:
        for side, out in ((worker, "two"), (None, "one")):
            monkeypatch.setattr(autodiff, "_SIDE", side)
            train(build_model(MINIATURE_CONFIG), corpus, epochs=1, out_dir=tmp_path / out)
    for name in ("model.ckpt", "train_log.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_training_writes_log_and_checkpoint(corpus, tmp_path):
    model = build_model(MINIATURE_CONFIG)
    train(model, corpus, epochs=2, out_dir=tmp_path)
    lines = (tmp_path / "train_log.csv").read_text().splitlines()
    assert lines[0] == "epoch,step,loss,ce,mse"
    assert len(lines) == 1 + 2 * 5
    assert (tmp_path / "model.ckpt").exists()


def test_training_validates_manifest(corpus):
    with pytest.raises(ConfigurationError):
        train(build_model(replace(MINIATURE_CONFIG, num_speakers=9)), corpus, epochs=1)
    with pytest.raises(ConfigurationError):
        train(build_model(MINIATURE_CONFIG), corpus, epochs=0)


def test_resume_matches_uninterrupted_run(corpus, tmp_path):
    straight = build_model(MINIATURE_CONFIG)
    train(straight, corpus, epochs=2, out_dir=tmp_path / "straight")

    part = build_model(MINIATURE_CONFIG)
    train(part, corpus, epochs=1, out_dir=tmp_path / "part1")
    resumed = load_checkpoint(tmp_path / "part1" / "model.ckpt")
    train(resumed, corpus, epochs=1, out_dir=tmp_path / "part2")

    a = (tmp_path / "straight" / "model.ckpt").read_bytes()
    b = (tmp_path / "part2" / "model.ckpt").read_bytes()
    assert a == b
    straight_rows = (tmp_path / "straight" / "train_log.csv").read_text().splitlines()
    part2_rows = (tmp_path / "part2" / "train_log.csv").read_text().splitlines()
    assert straight_rows[1 + 5:] == part2_rows[1:]  # epoch-2 rows agree exactly


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_restores_last_good_state(corpus, tmp_path):
    model = build_model(MINIATURE_CONFIG)
    entry = params_bytes(model)
    # absurd step size: the first update flings weights to +-1e20 and the
    # second forward pass overflows float32 inside batch norm
    model.config = replace(model.config, learning_rate=1e20)
    with pytest.raises(TrainingDivergedError):
        train(model, corpus, epochs=1, out_dir=tmp_path)
    assert params_bytes(model) == entry
    assert model.step == 0 and model.trained_epochs == 0
    saved = load_checkpoint(tmp_path / "model.ckpt")
    assert params_bytes(saved) == entry
    assert (tmp_path / "train_log.csv").read_text().splitlines() == ["epoch,step,loss,ce,mse"]


def state_bytes(model: Model) -> dict[str, bytes]:
    state = {f"param.{k}": b for k, b in params_bytes(model).items()}
    for name, st in model.bn_states.items():
        state[f"bn.{name}.mean"] = st.mean.tobytes()
        state[f"bn.{name}.var"] = st.var.tobytes()
    for name in model.params:
        state[f"adam.{name}.m"] = model.opt_state.first_moment[name].tobytes()
        state[f"adam.{name}.v"] = model.opt_state.second_moment[name].tobytes()
    return state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_restores_last_completed_epoch(corpus, tmp_path):
    model = build_model(MINIATURE_CONFIG)
    train(model, corpus, epochs=1)
    epoch_one = state_bytes(model)
    counters = (model.step, model.trained_epochs, model.opt_state.step_count)
    assert counters == (5, 1, 5)
    # the first update of epoch 2 flings weights to +-1e20, and a later
    # forward pass overflows: the rollback must undo that update, the
    # batch-norm stats of every epoch-2 forward and the moments
    model.config = replace(model.config, learning_rate=1e20)
    with pytest.raises(TrainingDivergedError):
        train(model, corpus, epochs=1, out_dir=tmp_path)
    assert state_bytes(model) == epoch_one
    assert (model.step, model.trained_epochs, model.opt_state.step_count) == counters
    saved = load_checkpoint(tmp_path / "model.ckpt")
    assert state_bytes(saved) == epoch_one
    assert (saved.step, saved.trained_epochs, saved.opt_state.step_count) == counters
    # the learning rate the model trained with is the one its checkpoint keeps
    assert saved.config.learning_rate == 1e20


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_is_bitwise(corpus, tmp_path):
    model = build_model(MINIATURE_CONFIG)
    train(model, corpus, epochs=1)
    save_checkpoint(model, tmp_path / "a.ckpt")
    back = load_checkpoint(tmp_path / "a.ckpt")
    assert back.config == model.config
    assert back.step == model.step and back.trained_epochs == model.trained_epochs
    assert params_bytes(back) == params_bytes(model)
    for name, st in model.bn_states.items():
        assert back.bn_states[name].mean.tobytes() == st.mean.tobytes()
        assert back.bn_states[name].var.tobytes() == st.var.tobytes()
    for name in model.params:
        assert back.opt_state.first_moment[name].tobytes() \
            == model.opt_state.first_moment[name].tobytes()
    save_checkpoint(back, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_checkpoint_rejects_non_finite_tensor(tmp_path, value):
    model = build_model(MINIATURE_CONFIG)
    model.params["l6.bias"].data[3] = value
    save_checkpoint(model, tmp_path / "x.ckpt")
    with pytest.raises(ParseError, match=r"x\.ckpt: non-finite value in the tensor before byte"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(BadMagicError):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path):
    model = build_model(MINIATURE_CONFIG)
    save_checkpoint(model, tmp_path / "x.ckpt")
    raw = (tmp_path / "x.ckpt").read_bytes()
    (tmp_path / "x.ckpt").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(tmp_path / "x.ckpt")


def test_checkpoint_missing_optimizer_key(tmp_path):
    # `step` is the optimizer's step count, the one counter a checkpoint keeps
    save_checkpoint(build_model(MINIATURE_CONFIG), tmp_path / "x.ckpt")
    raw = (tmp_path / "x.ckpt").read_bytes()
    assert raw.count(b"step=") == 1
    (tmp_path / "x.ckpt").write_bytes(raw.replace(b"step=", b"stxp=", 1))
    with pytest.raises(ParseError, match="missing metadata key 'step'"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_fresh_model_carries_its_optimizer():
    model = build_model(MINIATURE_CONFIG)
    opt = model.opt_state
    assert model.step == opt.step_count == 0 and model.trained_epochs == 0
    # the hyperparameters live in model.config alone
    assert vars(opt).keys() == {"step_count", "first_moment", "second_moment"}
    assert opt.first_moment.keys() == opt.second_moment.keys() == model.params.keys()


def test_checkpoint_metadata_is_config_and_counters(corpus, tmp_path):
    model = build_model(MINIATURE_CONFIG)
    train(model, corpus, epochs=1)
    save_checkpoint(model, tmp_path / "x.ckpt")
    meta, _ = binio.read_container(tmp_path / "x.ckpt", model_module.CHECKPOINT_MAGIC,
                                   model_module.CHECKPOINT_VERSION, "a model checkpoint")
    assert list(meta) == [f.name for f in fields(ModelConfig)] + ["step", "trained_epochs"]
    assert (meta["step"], meta["trained_epochs"]) == ("5", "1")


def test_checkpoint_with_restated_keys_still_loads(corpus, tmp_path):
    # a checkpoint of the earlier format also restated the optimizer's
    # settings and step count, a has-optimizer flag and the corpus seed
    model = build_model(MINIATURE_CONFIG)
    train(model, corpus, epochs=1)
    save_checkpoint(model, tmp_path / "new.ckpt")
    magic, version = model_module.CHECKPOINT_MAGIC, model_module.CHECKPOINT_VERSION
    meta, arrays = binio.read_container(tmp_path / "new.ckpt", magic, version, "a checkpoint")
    cfg = model.config
    meta.update(corpus_seed=cfg.seed, has_opt=1, opt_step_count=model.step,
                opt_learning_rate=repr(cfg.learning_rate), opt_beta1=repr(cfg.beta1),
                opt_beta2=repr(cfg.beta2), opt_eps=repr(cfg.adam_eps))
    binio.write_container(tmp_path / "old.ckpt", magic, version, meta, arrays)
    old = load_checkpoint(tmp_path / "old.ckpt")
    assert state_bytes(old) == state_bytes(model)
    assert (old.step, old.trained_epochs) == (model.step, model.trained_epochs) == (5, 1)
    save_checkpoint(old, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "new.ckpt").read_bytes()


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(MINIATURE_CONFIG), path)
    previous = path.read_bytes()
    write_array = binio.write_array
    calls = []

    def failing_write_array(fh, arr):
        calls.append(arr.shape)
        if len(calls) == 3:
            raise OSError("no space left on device")
        write_array(fh, arr)

    monkeypatch.setattr(binio, "write_array", failing_write_array)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(build_model(replace(MINIATURE_CONFIG, seed=8)), path)
    assert len(calls) == 3
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# ---------------------------------------------------------------------------
# step-time harness
# ---------------------------------------------------------------------------

def test_step_time_warms_up_with_full_length_runs(monkeypatch):
    steps = []
    real_step = model_module._train_step

    def counting_step(mdl, batch):
        steps.append(mdl.config.mtl_order)
        return real_step(mdl, batch)

    monkeypatch.setattr(model_module, "_train_step", counting_step)
    step_time_overhead(MINIATURE_CONFIG, num_steps=3, repeats=2)
    # one untimed round, then `repeats` timed rounds, of num_steps steps per
    # system, with the two systems' steps alternating
    assert steps == [0, 4] * 3 * 3


def test_step_time_report_structure():
    report = step_time_overhead(MINIATURE_CONFIG, num_steps=2, repeats=1)
    assert report.baseline_seconds > 0
    assert report.mtl_seconds > 0
    assert report.overhead == pytest.approx(
        report.mtl_seconds / report.baseline_seconds - 1.0)
