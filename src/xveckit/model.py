"""The speaker embedding network and its training loop.

Architecture: five dilated 1-d convolution layers over frames (kernel
sizes 5,3,3,1,1 with dilations 1,2,3,1,1), each followed by relu then
batch normalization; statistics pooling to [mean, stddev]; two dense
segment layers; a softmax classification head over training speakers;
and, when mtl_order > 0, a linear head that reconstructs the first
mtl_order per-dimension statistics of the input crop. The embedding is
the affine output of the first segment layer, taken before its relu and
batch norm, so it is untouched by anything downstream of that layer.

Each frame layer is two tape ops: a convolution with its relu built in,
and a batch norm over the [N, T, F] output's N * T frames. Training and
extraction run the same frame stack (_frame_stack), in train and infer
mode respectively.

The joint objective is task_weight * reconstruction_mse +
(1 - task_weight) * cross_entropy, recorded as one weighted add.
task_weight 0 with mtl_order 0 is the plain classification baseline.

Checkpoints are little-endian binary: magic "XVCK", u32 format version,
the key=value metadata blob that binio writes and parses (every
ModelConfig field through binio's field codec, step counter, corpus
seed, optimizer hyperparameters), then u32 tensor count and each tensor
as u32 rank, u32 dims, float32 data. Tensors appear in declaration
order: trainable parameters, batch-norm running stats, then optimizer
moments (_state_arrays); the rollback after a divergence copies and
restores the same list. Models train in float32; save -> load is
bitwise exact and resuming reproduces the uninterrupted loss trajectory.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import binio
from .autodiff import (
    BatchNormState,
    GradCheckReport,
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
)
from .data import Batch, FeatureMatrix, Manifest, make_batches
from .errors import (
    BadMagicError,
    ConfigurationError,
    DataError,
    DimMismatchError,
    InputTooShortError,
    ParseError,
    TrainingDivergedError,
)
from .stats import stats_pool

__all__ = [
    "ModelConfig",
    "Model",
    "Embedding",
    "ForwardResult",
    "LossParts",
    "EpochStats",
    "OverheadReport",
    "StepTimeReport",
    "receptive_field",
    "build_model",
    "forward",
    "multitask_loss",
    "train",
    "extract_embedding",
    "parameter_count",
    "parameter_overhead",
    "step_time_overhead",
    "save_checkpoint",
    "load_checkpoint",
    "gradient_suite",
    "MINIATURE_CONFIG",
]

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"XVCK"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    """Network and training hyperparameters. Defaults are the full-size net."""

    feature_dim: int
    num_speakers: int
    frame_widths: tuple[int, ...] = (512, 512, 512, 512, 1536)
    kernel_sizes: tuple[int, ...] = (5, 3, 3, 1, 1)
    dilations: tuple[int, ...] = (1, 2, 3, 1, 1)
    segment_width: int = 512
    mtl_order: int = 4
    task_weight: float = 0.3
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 20
    crop_length: int = 200
    seed: int = 0

    def __post_init__(self):
        self.frame_widths = tuple(int(w) for w in self.frame_widths)
        self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
        self.dilations = tuple(int(d) for d in self.dilations)

    def validate(self) -> None:
        problems = []
        if self.feature_dim < 1:
            problems.append(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.num_speakers < 2:
            problems.append(f"num_speakers must be >= 2, got {self.num_speakers}")
        if not (len(self.frame_widths) == len(self.kernel_sizes) == len(self.dilations) == 5):
            problems.append("frame_widths, kernel_sizes, and dilations must each have 5 entries")
        if any(w < 1 for w in self.frame_widths):
            problems.append(f"frame widths must be positive, got {self.frame_widths}")
        if any(k < 1 for k in self.kernel_sizes):
            problems.append(f"kernel sizes must be positive, got {self.kernel_sizes}")
        if any(d < 1 for d in self.dilations):
            problems.append(f"dilations must be positive, got {self.dilations}")
        if self.segment_width < 1:
            problems.append(f"segment_width must be >= 1, got {self.segment_width}")
        if self.mtl_order not in (0, 1, 2, 3, 4):
            problems.append(f"mtl_order must be in 0..4, got {self.mtl_order}")
        if not 0.0 <= self.task_weight <= 1.0:
            problems.append(f"task_weight must lie in [0, 1], got {self.task_weight}")
        if self.task_weight > 0.0 and self.mtl_order == 0:
            problems.append("task_weight > 0 requires mtl_order >= 1")
        if self.learning_rate <= 0:
            problems.append(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            problems.append(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            problems.append(f"betas must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.adam_eps <= 0:
            problems.append(f"adam_eps must be positive, got {self.adam_eps}")
        if self.batch_size < 2:
            problems.append(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if len(self.kernel_sizes) == len(self.dilations) == 5:
            rf = receptive_field(self)
            if self.crop_length < rf:
                problems.append(f"crop_length {self.crop_length} < receptive field {rf}")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        if problems:
            raise ConfigurationError("; ".join(problems))


def receptive_field(config: ModelConfig) -> int:
    """Frames of context one output frame sees after the conv stack."""
    return 1 + sum((k - 1) * d for k, d in zip(config.kernel_sizes, config.dilations))


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]
    bn_states: dict[str, BatchNormState]
    dtype: np.dtype
    step: int = 0
    trained_epochs: int = 0
    corpus_seed: int = 0
    opt_state: OptimizerState | None = None


@dataclass
class Embedding:
    utt_id: str
    vector: np.ndarray


@dataclass
class ForwardResult:
    logits: Tensor
    reconstruction: Tensor | None


@dataclass
class LossParts:
    total: Tensor
    ce: Tensor
    mse: Tensor


@dataclass
class EpochStats:
    epoch: int
    loss: float
    ce: float
    mse: float


@dataclass
class OverheadReport:
    baseline_params: int
    mtl_params: int
    added_params: int
    ratio: float


@dataclass
class StepTimeReport:
    baseline_seconds: float
    mtl_seconds: float
    overhead: float


def _init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def build_model(config: ModelConfig, dtype=np.float32) -> Model:
    """Seeded construction; the auxiliary head is drawn last, so a model
    with and without it shares every other initial parameter."""
    config.validate()
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ConfigurationError(f"model dtype must be float32 or float64, got {dtype}")
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}
    bn_states: dict[str, BatchNormState] = {}

    def param(name: str, arr: np.ndarray) -> None:
        params[name] = Tensor(arr, requires_grad=True, name=name)

    def norm_layer(name: str, width: int) -> None:
        param(f"{name}.gamma", np.ones(width, dtype=dtype))
        param(f"{name}.beta", np.zeros(width, dtype=dtype))
        bn_states[name] = BatchNormState.create(width, dtype=dtype)

    in_ch = config.feature_dim
    for i, (width, k, _) in enumerate(zip(config.frame_widths, config.kernel_sizes,
                                          config.dilations), start=1):
        name = f"l{i}"
        param(f"{name}.weight", _init_uniform(rng, (width, in_ch, k), in_ch * k, dtype))
        param(f"{name}.bias", np.zeros(width, dtype=dtype))
        norm_layer(name, width)
        in_ch = width

    pooled_dim = 2 * config.frame_widths[-1]
    seg = config.segment_width
    param("l6.weight", _init_uniform(rng, (seg, pooled_dim), pooled_dim, dtype))
    param("l6.bias", np.zeros(seg, dtype=dtype))
    norm_layer("l6", seg)
    param("l7.weight", _init_uniform(rng, (seg, seg), seg, dtype))
    param("l7.bias", np.zeros(seg, dtype=dtype))
    norm_layer("l7", seg)
    param("softmax.weight", _init_uniform(rng, (config.num_speakers, seg), seg, dtype))
    param("softmax.bias", np.zeros(config.num_speakers, dtype=dtype))
    if config.mtl_order:
        out_dim = config.mtl_order * config.feature_dim
        param("mtl.weight", _init_uniform(rng, (out_dim, seg), seg, dtype))
        param("mtl.bias", np.zeros(out_dim, dtype=dtype))
    return Model(config=config, params=params, bn_states=bn_states, dtype=dtype)


def _frame_stack(model: Model, x: Tensor, mode: str, tape: Tape | None = None) -> Tensor:
    """Layers l1..l5 on [N, T, D] frames: conv with a built-in relu, then
    batch norm over all N * T frames; two tape entries per layer."""
    p = model.params
    h = x
    for i, dilation in enumerate(model.config.dilations, start=1):
        name = f"l{i}"
        h = conv1d_dilated(h, p[f"{name}.weight"], p[f"{name}.bias"], dilation, tape,
                           activation="relu")
        h = batchnorm1d(h, p[f"{name}.gamma"], p[f"{name}.beta"], mode, model.bn_states[name], tape)
    return h


def forward(model: Model, batch, mode: str = "train", tape: Tape | None = None) -> ForwardResult:
    """Run a [N, L, D] batch through the network.

    Returns speaker logits and, when the model has an auxiliary head,
    the reconstructed statistics vector. Frame-level batch norm is
    applied across all N * T frames of the batch.
    """
    cfg = model.config
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=model.dtype))
    if x.ndim != 3:
        raise ConfigurationError(f"batch must be [N, L, D], got shape {x.shape}")
    length, d = x.shape[1], x.shape[2]
    if d != cfg.feature_dim:
        raise ConfigurationError(f"batch feature dim {d} != model feature dim {cfg.feature_dim}")
    rf = receptive_field(cfg)
    if length < rf:
        raise InputTooShortError(f"input of {length} frames shorter than receptive field {rf}")

    p = model.params
    pooled = stats_pool(_frame_stack(model, x, mode, tape), tape)
    h6 = dense(pooled, p["l6.weight"], p["l6.bias"], "relu", tape)
    h6 = batchnorm1d(h6, p["l6.gamma"], p["l6.beta"], mode, model.bn_states["l6"], tape)
    h7 = dense(h6, p["l7.weight"], p["l7.bias"], "relu", tape)
    h7 = batchnorm1d(h7, p["l7.gamma"], p["l7.beta"], mode, model.bn_states["l7"], tape)
    logits = dense(h7, p["softmax.weight"], p["softmax.bias"], "none", tape)
    recon = None
    if cfg.mtl_order:
        recon = dense(h7, p["mtl.weight"], p["mtl.bias"], "none", tape)
    return ForwardResult(logits=logits, reconstruction=recon)


def multitask_loss(logits: Tensor, labels, reconstruction: Tensor | None,
                   targets: Tensor | None, task_weight: float,
                   tape: Tape | None = None) -> LossParts:
    """task_weight * mse + (1 - task_weight) * ce, with both parts exposed."""
    if not 0.0 <= task_weight <= 1.0:
        raise ConfigurationError(f"task_weight must lie in [0, 1], got {task_weight}")
    ce = softmax_cross_entropy(logits, labels, tape)
    if reconstruction is None:
        if task_weight != 0.0:
            raise ConfigurationError("task_weight > 0 but the model has no reconstruction head")
        return LossParts(total=ce, ce=ce, mse=Tensor(np.zeros((), dtype=ce.dtype)))
    if targets is None:
        raise ConfigurationError("reconstruction present but targets missing")
    mse = mse_loss(reconstruction, targets, tape)
    total = add(mse, ce, tape, weights=(task_weight, 1.0 - task_weight))
    return LossParts(total=total, ce=ce, mse=mse)


def _snapshot(model: Model) -> tuple:
    """Copies of the checkpoint's tensors, plus the step counters."""
    opt_count = model.opt_state.step_count if model.opt_state is not None else None
    return ([a.copy() for a in _state_arrays(model)], model.step, model.trained_epochs,
            opt_count)


def _restore(model: Model, state: tuple) -> None:
    """Write a _snapshot back into the model's arrays in place."""
    arrays, model.step, model.trained_epochs, opt_count = state
    for dest, saved in zip(_state_arrays(model), arrays, strict=True):
        dest[...] = saved
    if opt_count is not None:
        model.opt_state.step_count = opt_count


def _write_log(path: Path, rows: list[tuple]) -> None:
    with binio.atomic_write(path, "w") as fh:
        fh.write("epoch,step,loss,ce,mse\n")
        for epoch, step_i, lv, cv, mv in rows:
            fh.write(f"{epoch},{step_i},{lv!r},{cv!r},{mv!r}\n")


def _train_step(model: Model, batch: Batch) -> tuple[float, float, float]:
    """One optimizer update on one batch; returns the (total, ce, mse) loss.

    A non-finite loss raises TrainingDivergedError before any gradient is
    applied.
    """
    cfg = model.config
    tape = Tape()
    result = forward(model, batch.features, "train", tape)
    targets = Tensor(batch.targets) if batch.targets is not None else None
    parts = multitask_loss(result.logits, batch.labels, result.reconstruction,
                           targets, cfg.task_weight, tape)
    losses = float(parts.total.data), float(parts.ce.data), float(parts.mse.data)
    if not math.isfinite(losses[0]):
        raise TrainingDivergedError(f"non-finite loss at epoch {model.trained_epochs + 1}, "
                                    f"step {model.step + 1}")
    for p in model.params.values():
        p.grad = None
    backward(parts.total, tape)
    optimizer_step(model.params, {k: p.grad for k, p in model.params.items()},
                   model.opt_state, cfg.weight_decay)
    model.step += 1
    return losses


def train(model: Model, manifest: Manifest, epochs: int | None = None,
          out_dir: Path | str | None = None) -> list[EpochStats]:
    """Train for `epochs` further epochs (default config.epochs).

    Epoch numbering continues from model.trained_epochs, and batch
    shuffling is a pure function of (config.seed, epoch), so training
    resumed from a checkpoint follows the exact trajectory of an
    uninterrupted run. With out_dir set, writes train_log.csv (one row
    per step: epoch,step,loss,ce,mse) and model.ckpt. A non-finite loss
    aborts before its update is applied, restores the last epoch-end
    state, saves it as the checkpoint, and raises TrainingDivergedError.
    """
    cfg = model.config
    speakers = manifest.speakers
    if len(speakers) < 2:
        raise DataError(f"training needs >= 2 speakers, manifest has {len(speakers)}")
    if len(speakers) != cfg.num_speakers:
        raise ConfigurationError(
            f"model was built for {cfg.num_speakers} speakers, manifest has {len(speakers)}")
    if model.opt_state is None:
        model.opt_state = OptimizerState(model.params, cfg.learning_rate, cfg.beta1,
                                         cfg.beta2, cfg.adam_eps)
    num_epochs = cfg.epochs if epochs is None else epochs
    if num_epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {num_epochs}")
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    rows: list[tuple] = []
    epoch_stats: list[EpochStats] = []
    last_good = _snapshot(model)
    first = model.trained_epochs + 1
    try:
        for epoch in range(first, first + num_epochs):
            sums = np.zeros(3)
            count = 0
            for batch in make_batches(manifest, cfg.crop_length, cfg.batch_size,
                                      cfg.seed, epoch, cfg.mtl_order):
                lv, cv, mv = _train_step(model, batch)
                rows.append((epoch, model.step, lv, cv, mv))
                sums += (lv, cv, mv)
                count += 1
            if count == 0:
                raise DataError("no full batch available; shrink batch_size or add utterances")
            model.trained_epochs = epoch
            epoch_stats.append(EpochStats(epoch, *(sums / count)))
            last_good = _snapshot(model)
            log.info("epoch %d: loss=%.6f ce=%.6f mse=%.6f", epoch, *(sums / count))
    except TrainingDivergedError as err:
        _restore(model, last_good)
        rows = [r for r in rows if r[0] <= model.trained_epochs]
        if out is not None:
            ckpt = out / "model.ckpt"
            save_checkpoint(model, ckpt)
            _write_log(out / "train_log.csv", rows)
            raise TrainingDivergedError(f"{err}; last good state saved to {ckpt}") from None
        raise

    if out is not None:
        save_checkpoint(model, out / "model.ckpt")
        _write_log(out / "train_log.csv", rows)
    return epoch_stats


def extract_embedding(model: Model, utterance: FeatureMatrix | np.ndarray) -> Embedding:
    """Embed one full utterance: inference-mode frame layers, pooling,
    then the affine output of the first segment layer."""
    if isinstance(utterance, FeatureMatrix):
        utt_id, frames = utterance.utt_id, utterance.frames
    else:
        utt_id, frames = "", np.asarray(utterance)
    cfg = model.config
    frames = np.asarray(frames, dtype=model.dtype)
    if frames.ndim != 2 or frames.shape[1] != cfg.feature_dim:
        raise ConfigurationError(
            f"utterance must be [T, {cfg.feature_dim}], got shape {frames.shape}")
    rf = receptive_field(cfg)
    if frames.shape[0] < rf:
        raise InputTooShortError(
            f"utterance '{utt_id}' has {frames.shape[0]} frames, needs >= {rf}")

    pooled = stats_pool(_frame_stack(model, Tensor(frames[None]), "infer"))
    p = model.params
    vec = pooled.data @ p["l6.weight"].data.T + p["l6.bias"].data
    return Embedding(utt_id=utt_id, vector=vec[0].copy())


def parameter_count(config: ModelConfig) -> int:
    """Trainable parameters (weights, biases, batch-norm gamma/beta)."""
    total = 0
    in_ch = config.feature_dim
    for width, k in zip(config.frame_widths, config.kernel_sizes):
        total += width * in_ch * k + width      # conv weight + bias
        total += 2 * width                      # gamma + beta
        in_ch = width
    seg = config.segment_width
    total += seg * (2 * config.frame_widths[-1]) + seg + 2 * seg
    total += seg * seg + seg + 2 * seg
    total += config.num_speakers * seg + config.num_speakers
    if config.mtl_order:
        out_dim = config.mtl_order * config.feature_dim
        total += out_dim * seg + out_dim
    return total


def parameter_overhead(config: ModelConfig) -> OverheadReport:
    """Exact parameter cost of the auxiliary head relative to the baseline."""
    baseline = parameter_count(replace(config, mtl_order=0, task_weight=0.0))
    with_head = parameter_count(config)
    return OverheadReport(baseline_params=baseline, mtl_params=with_head,
                          added_params=with_head - baseline,
                          ratio=(with_head - baseline) / baseline)


def step_time_overhead(config: ModelConfig | None = None, num_steps: int = 200,
                       repeats: int = 3) -> StepTimeReport:
    """Wall-clock cost of a training step with the auxiliary head versus
    without, on one fixed random batch.

    Defaults to the miniature network sized up to batch 16 / crop 64 so
    the measurement reflects arithmetic, not per-op dispatch. After one
    untimed num_steps run of each system (a short warmup left the first
    timed run up to 2x slower), the timed runs alternate between the two
    systems, so that a change in machine speed falls on both; each
    system's fastest run wins, which filters scheduling noise.
    """
    from .stats import hos_vector

    if config is None:
        config = replace(MINIATURE_CONFIG, batch_size=16, crop_length=64)
    if config.mtl_order == 0:
        raise ConfigurationError("overhead timing needs a config with an auxiliary head")
    rng = np.random.default_rng(config.seed)
    batch = rng.normal(size=(config.batch_size, config.crop_length,
                             config.feature_dim)).astype(np.float32)
    labels = rng.integers(0, config.num_speakers, size=config.batch_size)
    targets = hos_vector(batch, config.mtl_order).astype(np.float32)
    systems = {"base": (replace(config, mtl_order=0, task_weight=0.0), Batch(batch, labels, None)),
               "mtl": (config, Batch(batch, labels, targets))}

    def timed_run(key: str, steps: int) -> float:
        start = time.perf_counter()
        cfg, fixed_batch = systems[key]
        mdl = build_model(cfg)
        mdl.opt_state = OptimizerState(mdl.params, cfg.learning_rate, cfg.beta1,
                                       cfg.beta2, cfg.adam_eps)
        for _ in range(steps):
            _train_step(mdl, fixed_batch)
        return time.perf_counter() - start

    for key in systems:
        timed_run(key, num_steps)  # warmup
    times: dict[str, list[float]] = {key: [] for key in systems}
    for _ in range(repeats):
        for key in systems:
            times[key].append(timed_run(key, num_steps))
    best = {key: min(t) for key, t in times.items()}
    return StepTimeReport(baseline_seconds=best["base"], mtl_seconds=best["mtl"],
                          overhead=(best["mtl"] - best["base"]) / best["base"])


# --- checkpoint serialization ---

# metadata besides the config: Model counters, then OptimizerState
# hyperparameters under an "opt_" prefix
_COUNTERS = ("step", "trained_epochs", "corpus_seed")
_OPT_FLOATS = ("learning_rate", "beta1", "beta2", "eps")


def _state_arrays(model: Model) -> list[np.ndarray]:
    arrays = [p.data for p in model.params.values()]
    for state in model.bn_states.values():
        arrays.append(state.mean)
        arrays.append(state.var)
    if model.opt_state is not None:
        arrays.extend(model.opt_state.first_moment[k] for k in model.params)
        arrays.extend(model.opt_state.second_moment[k] for k in model.params)
    return arrays


def save_checkpoint(model: Model, path: Path | str) -> None:
    meta: dict[str, object] = {f.name: binio.format_field(f.type, getattr(model.config, f.name))
                               for f in dataclasses.fields(ModelConfig)}
    meta.update({key: getattr(model, key) for key in _COUNTERS})
    o = model.opt_state
    meta["has_opt"] = int(o is not None)
    if o is not None:
        meta["opt_step_count"] = o.step_count
        meta.update({f"opt_{key}": repr(getattr(o, key)) for key in _OPT_FLOATS})

    arrays = _state_arrays(model)
    with binio.atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        binio.write_u32(fh, CHECKPOINT_VERSION)
        binio.write_meta(fh, meta)
        binio.write_u32(fh, len(arrays))
        for arr in arrays:
            binio.write_array(fh, arr)


def load_checkpoint(path: Path | str) -> Model:
    path = Path(path)
    reader = binio.Reader(path.read_bytes(), str(path))
    if reader.take(4) != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a model checkpoint (bad magic)")
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    meta = reader.meta()

    try:
        model = build_model(ModelConfig(**{f.name: binio.parse_field(f.type, meta[f.name])
                                           for f in dataclasses.fields(ModelConfig)}))
        for key in _COUNTERS:
            setattr(model, key, int(meta[key]))
        if int(meta["has_opt"]):
            model.opt_state = OptimizerState(
                model.params, **{key: float(meta[f"opt_{key}"]) for key in _OPT_FLOATS})
            model.opt_state.step_count = int(meta["opt_step_count"])
    except KeyError as err:
        raise ParseError(f"{path}: missing metadata key {err}") from None
    except ValueError as err:
        raise ParseError(f"{path}: bad metadata value ({err})") from None

    targets = _state_arrays(model)
    count = reader.u32()
    if count != len(targets):
        raise DimMismatchError(f"{path}: expected {len(targets)} tensors, file has {count}")
    for dest in targets:
        arr = binio.read_array(reader)
        if arr.shape != dest.shape:
            raise DimMismatchError(f"{path}: tensor shaped {arr.shape} where {dest.shape} expected")
        dest[...] = arr
    reader.expect_exhausted()
    return model


# --- gradient verification suite ---

# Batch 4 matters for verification: with only 2 segment-level rows,
# batch-norm curvature is violent enough that finite differences at
# step 1e-5 carry ~5e-4 truncation error and the check cannot pass.
MINIATURE_CONFIG = ModelConfig(
    feature_dim=6, num_speakers=5,
    frame_widths=(16, 16, 16, 16, 32), kernel_sizes=(5, 3, 3, 1, 1), dilations=(1, 2, 3, 1, 1),
    segment_width=12, mtl_order=4, task_weight=0.3,
    batch_size=4, epochs=1, crop_length=20, seed=7,
)


def _away_from_zero(rng: np.random.Generator, shape) -> np.ndarray:
    # Magnitudes in [0.2, 1.2]: keeps relu inputs clear of the kink so
    # the finite-difference step never crosses it.
    return rng.uniform(0.2, 1.2, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def gradient_suite(tolerance: float = 1e-4, step: float = 1e-5) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference checks of every primitive and of the miniature
    network at task weights 0, 0.3, and 1. All in float64."""
    checks: list[tuple[str, GradCheckReport]] = []
    rng = np.random.default_rng(1234)

    def check(name: str, fn, wrt) -> None:
        checks.append((name, grad_check(fn, wrt, tolerance=tolerance, step=step)))

    # conv: T=9, k=3, dilation=2 -> 5 output frames
    x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    w = Tensor(0.5 * rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(0.1 * rng.normal(size=4), requires_grad=True)
    tgt = Tensor(rng.normal(size=(1, 20)))

    def fn_conv():
        tape = Tape()
        y = conv1d_dilated(x, w, b, dilation=2, tape=tape)
        return mse_loss(reshape(y, (1, 20), tape), tgt, tape), tape

    check("conv1d_dilated", fn_conv, {"input": x, "weight": w, "bias": b})

    xb = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
    tgt_b = Tensor(rng.normal(size=(2, 20)))

    def fn_conv_batched():
        tape = Tape()
        y = conv1d_dilated(xb, w, b, dilation=2, tape=tape)
        return mse_loss(reshape(y, (2, 20), tape), tgt_b, tape), tape

    check("conv1d_dilated.batched", fn_conv_batched, {"input": xb, "weight": w, "bias": b})

    # conv with its built-in relu, batched; inputs are redrawn until every
    # pre-activation sits 0.02 or more from the kink, so no finite
    # difference step crosses it, and some of them are clamped
    while True:
        xc = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
        pre = conv1d_dilated(xc, w, b, dilation=2).data
        if np.abs(pre).min() > 0.02 and (pre < 0).any():
            break

    def fn_conv_relu():
        tape = Tape()
        y = conv1d_dilated(xc, w, b, dilation=2, tape=tape, activation="relu")
        return mse_loss(reshape(y, (2, 20), tape), tgt_b, tape), tape

    check("conv1d_dilated.relu", fn_conv_relu, {"input": xc, "weight": w, "bias": b})

    # dense, both activations
    xd = Tensor(_away_from_zero(rng, (4, 5)), requires_grad=True)
    wd = Tensor(_away_from_zero(rng, (3, 5)), requires_grad=True)
    bd = Tensor(0.1 * rng.normal(size=3), requires_grad=True)
    tgt_d = Tensor(rng.normal(size=(4, 3)))
    for activation in ("none", "relu"):
        def fn_dense(act=activation):
            tape = Tape()
            y = dense(xd, wd, bd, act, tape)
            return mse_loss(y, tgt_d, tape), tape
        check(f"dense.{activation}", fn_dense, {"input": xd, "weight": wd, "bias": bd})

    # relu
    xr = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    tgt_r = Tensor(rng.normal(size=(3, 4)))

    def fn_relu():
        tape = Tape()
        return mse_loss(relu(xr, tape), tgt_r, tape), tape

    check("relu", fn_relu, {"input": xr})

    # batchnorm, train mode
    xn = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    gn = Tensor(1.0 + 0.1 * rng.normal(size=4), requires_grad=True)
    bn = Tensor(0.1 * rng.normal(size=4), requires_grad=True)
    bn_state = BatchNormState.create(4, dtype=np.float64)
    tgt_n = Tensor(rng.normal(size=(6, 4)))

    def fn_bn():
        tape = Tape()
        y = batchnorm1d(xn, gn, bn, "train", bn_state, tape)
        return mse_loss(y, tgt_n, tape), tape

    check("batchnorm1d.train", fn_bn, {"input": xn, "gamma": gn, "beta": bn})

    # batchnorm, train mode, over the N * T rows of an [N, T, F] input
    xn3 = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    tgt_n3 = Tensor(rng.normal(size=(3, 16)))

    def fn_bn3():
        tape = Tape()
        y = batchnorm1d(xn3, gn, bn, "train", bn_state, tape)
        return mse_loss(reshape(y, (3, 16), tape), tgt_n3, tape), tape

    check("batchnorm1d.train.3d", fn_bn3, {"input": xn3, "gamma": gn, "beta": bn})

    # stats pooling
    xp = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
    tgt_p = Tensor(rng.normal(size=(1, 10)))

    def fn_pool():
        tape = Tape()
        y = stats_pool(xp, tape)
        return mse_loss(reshape(y, (1, 10), tape), tgt_p, tape), tape

    check("stats_pool", fn_pool, {"frames": xp})

    # cross entropy straight off a leaf
    xl = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = np.array([0, 3, 1, 2, 3])

    def fn_ce():
        tape = Tape()
        return softmax_cross_entropy(xl, labels, tape), tape

    check("softmax_cross_entropy", fn_ce, {"logits": xl})

    # mse on a leaf
    xm = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    tgt_m = Tensor(rng.normal(size=(3, 6)))

    def fn_mse():
        tape = Tape()
        return mse_loss(xm, tgt_m, tape), tape

    check("mse_loss", fn_mse, {"pred": xm})

    # reshape + scale + add glue
    xg = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    tgt_g1 = Tensor(rng.normal(size=(3, 4)))
    tgt_g2 = Tensor(rng.normal(size=(2, 6)))

    def fn_glue():
        tape = Tape()
        a = mse_loss(reshape(xg, (3, 4), tape), tgt_g1, tape)
        c = mse_loss(xg, tgt_g2, tape)
        return add(scale(a, 0.3, tape), scale(c, 0.7, tape), tape), tape

    check("reshape+scale+add", fn_glue, {"input": xg})

    # full miniature network at three task weights
    from .stats import hos_vector  # local import avoids a cycle at module load

    net_rng = np.random.default_rng(99)
    mini_batch = np.asarray(net_rng.normal(size=(4, 20, 6)), dtype=np.float64)
    mini_labels = np.array([0, 2, 4, 1])
    mini_targets = hos_vector(mini_batch, 4)
    for alpha in (0.0, 0.3, 1.0):
        mini = build_model(replace(MINIATURE_CONFIG, task_weight=alpha), dtype=np.float64)
        batch_t = Tensor(mini_batch)
        targets_t = Tensor(mini_targets)

        def fn_net(m=mini, a=alpha):
            tape = Tape()
            result = forward(m, batch_t, "train", tape)
            parts = multitask_loss(result.logits, mini_labels, result.reconstruction,
                                   targets_t, a, tape)
            return parts.total, tape

        check(f"network.alpha={alpha:g}", fn_net, mini.params)
    return checks
