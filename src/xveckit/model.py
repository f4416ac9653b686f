"""The speaker embedding network and its training loop.

Architecture: five dilated 1-d convolution layers over frames (kernel
sizes 5,3,3,1,1 with dilations 1,2,3,1,1), each followed by relu then
batch normalization; statistics pooling to [mean, stddev]; two dense
segment layers; a softmax classification head over training speakers;
and, when mtl_order > 0, a linear head that reconstructs the first
mtl_order per-dimension statistics of the input crop. The embedding is
the affine output of the first segment layer, taken before its relu and
batch norm, so it is untouched by anything downstream of that layer.

Each hidden layer is one tape op: an affine map with its relu and its
batch norm built in, over the N * T frames of a frame layer (a dilated
convolution) or the N rows of a segment layer (a dense layer, run by the
same op body as a one-tap convolution). Training and extraction (a batch
of one) run the same checked frame stack and pooling.

The joint objective is task_weight * reconstruction_mse +
(1 - task_weight) * cross_entropy, recorded as one weighted add.
task_weight 0 with mtl_order 0 is the plain classification baseline.

Checkpoints are tensor containers under the magic "XVCK", framed by
binio.write_container and binio.read_container. The metadata holds every
ModelConfig field through binio's field codec, plus the step and
trained-epoch counters; the optimizer's hyperparameters are the config's.
Tensors appear in declaration order: trainable parameters, batch-norm
running stats, then optimizer moments (_state_arrays); the rollback
after a divergence copies and restores the same list. Models train in
float32; save -> load is bitwise exact and resuming reproduces the
uninterrupted loss trajectory.
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
    side_thread,
    softmax_cross_entropy,
    stats_pool,
)
from .data import Batch, FeatureMatrix, Manifest, make_batches
from .errors import (
    ConfigurationError,
    DataError,
    DimMismatchError,
    InputTooShortError,
    ParseError,
    TrainingDivergedError,
)
from .stats import hos_vector

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
    "min_input_frames",
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
            need = min_input_frames(self)
            if self.crop_length < need:
                problems.append(f"crop_length {self.crop_length} < {need}, the network's shortest input")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        problems += binio.non_finite_fields(self)
        if problems:
            raise ConfigurationError("; ".join(problems))


def receptive_field(config: ModelConfig) -> int:
    """Frames of context one output frame sees after the conv stack."""
    return 1 + sum((k - 1) * d for k, d in zip(config.kernel_sizes, config.dilations))


def min_input_frames(config: ModelConfig) -> int:
    """Frames of the shortest input: the receptive field, plus one for pooling's second frame."""
    return receptive_field(config) + 1


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]
    bn_states: dict[str, BatchNormState]
    dtype: np.dtype
    opt_state: OptimizerState
    trained_epochs: int = 0

    @property
    def step(self) -> int:
        """Optimizer updates applied so far."""
        return self.opt_state.step_count


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
    return Model(config=config, params=params, bn_states=bn_states, dtype=dtype,
                 opt_state=OptimizerState(params))


def _pooled(model: Model, x: np.ndarray, mode: str, tape: Tape | None = None,
            what: str = "input") -> Tensor:
    """Check an [N, L, D] array (named `what` in errors) against the model,
    then run layers l1..l5, each a conv with a built-in relu and batch norm
    over all N * T frames (one tape entry), and statistics pooling."""
    cfg = model.config
    h = Tensor(np.asarray(x, dtype=model.dtype))
    if h.ndim != 3:
        raise ConfigurationError(f"{what} must be [N, L, D], got shape {h.shape}")
    length, d = h.shape[1], h.shape[2]
    if d != cfg.feature_dim:
        raise ConfigurationError(f"{what} feature dim {d} != model feature dim {cfg.feature_dim}")
    need = min_input_frames(cfg)
    if length < need:
        raise InputTooShortError(f"{what} of {length} frames, fewer than the {need} it needs")
    p = model.params
    for i, dilation in enumerate(cfg.dilations, start=1):
        name = f"l{i}"
        h = conv1d_dilated(h, p[f"{name}.weight"], p[f"{name}.bias"], dilation, tape,
                           activation="relu", norm=(p[f"{name}.gamma"], p[f"{name}.beta"],
                                                    mode, model.bn_states[name]))
    return stats_pool(h, tape)


def forward(model: Model, batch: np.ndarray, mode: str = "train",
            tape: Tape | None = None) -> ForwardResult:
    """Run a [N, L, D] batch array through the network.

    Returns speaker logits and, when the model has an auxiliary head,
    the reconstructed statistics vector. Each hidden layer is one op with
    its relu and batch norm built in; frame-level batch norm is applied
    across all N * T frames of the batch, segment-level across its N rows.
    """
    p = model.params
    h = _pooled(model, batch, mode, tape)
    for name in ("l6", "l7"):
        h = dense(h, p[f"{name}.weight"], p[f"{name}.bias"], "relu", tape,
                  norm=(p[f"{name}.gamma"], p[f"{name}.beta"], mode, model.bn_states[name]))
    logits = dense(h, p["softmax.weight"], p["softmax.bias"], "none", tape)
    recon = None
    if model.config.mtl_order:
        recon = dense(h, p["mtl.weight"], p["mtl.bias"], "none", tape)
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
    """Copies of the checkpoint's tensors, plus the step and epoch counters."""
    return [a.copy() for a in _state_arrays(model)], model.step, model.trained_epochs


def _restore(model: Model, state: tuple) -> None:
    """Write a _snapshot back into the model's arrays in place."""
    arrays, model.opt_state.step_count, model.trained_epochs = state
    for dest, saved in zip(_state_arrays(model), arrays, strict=True):
        dest[...] = saved


def _write_log(path: Path, rows: list[tuple]) -> None:
    with binio.atomic_write(path, "w") as fh:
        fh.write("epoch,step,loss,ce,mse\n")
        for epoch, step_i, lv, cv, mv in rows:
            fh.write(f"{epoch},{step_i},{lv!r},{cv!r},{mv!r}\n")


def _loss(model: Model, batch: Batch, tape: Tape) -> LossParts:
    """The training objective of one batch, recorded on `tape`."""
    result = forward(model, batch.features, "train", tape)
    targets = Tensor(batch.targets) if batch.targets is not None else None
    return multitask_loss(result.logits, batch.labels, result.reconstruction,
                          targets, model.config.task_weight, tape)


def _train_step(model: Model, batch: Batch) -> tuple[float, float, float]:
    """One optimizer update on one batch; returns the (total, ce, mse) loss.

    A non-finite loss raises TrainingDivergedError before any gradient is
    applied.
    """
    cfg = model.config
    tape = Tape()
    parts = _loss(model, batch, tape)
    losses = float(parts.total.data), float(parts.ce.data), float(parts.mse.data)
    if not math.isfinite(losses[0]):
        raise TrainingDivergedError(f"non-finite loss at epoch {model.trained_epochs + 1}, "
                                    f"step {model.step + 1}")
    for p in model.params.values():
        p.grad = None
    backward(parts.total, tape)
    optimizer_step(model.params, {k: p.grad for k, p in model.params.items()},
                   model.opt_state, learning_rate=cfg.learning_rate, beta1=cfg.beta1,
                   beta2=cfg.beta2, eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
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
        with side_thread():
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


def extract_embedding(model: Model, utterance: FeatureMatrix) -> Embedding:
    """Embed one full utterance: infer-mode frame stack and pooling on it as
    a batch of one, then the affine output of the first segment layer."""
    pooled = _pooled(model, utterance.frames[None], "infer",
                     what=f"utterance '{utterance.utt_id}'")
    p = model.params
    return Embedding(utt_id=utterance.utt_id,
                     vector=dense(pooled, p["l6.weight"], p["l6.bias"]).data[0])


def parameter_count(config: ModelConfig) -> int:
    """Trainable parameters (weights, biases, batch-norm gamma/beta) of the
    model build_model makes from `config`."""
    return sum(p.data.size for p in build_model(config).params.values())


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
    the measurement reflects arithmetic, not per-op dispatch. Both models
    are built first, then their steps alternate one by one, so that a
    change in machine speed falls on both systems alike: num_steps untimed
    steps each (a short warmup left the first timed run up to 2x slower),
    then `repeats` rounds of num_steps steps each, where every step is
    timed on its own and summed per system. Each system's fastest round
    wins, which filters scheduling noise.
    """
    if config is None:
        config = replace(MINIATURE_CONFIG, batch_size=16, crop_length=64)
    if config.mtl_order == 0:
        raise ConfigurationError("overhead timing needs a config with an auxiliary head")
    rng = np.random.default_rng(config.seed)
    batch = rng.normal(size=(config.batch_size, config.crop_length,
                             config.feature_dim)).astype(np.float32)
    labels = rng.integers(0, config.num_speakers, size=config.batch_size)
    targets = hos_vector(batch, config.mtl_order).astype(np.float32)

    systems = {"base": (build_model(replace(config, mtl_order=0, task_weight=0.0)),
                        Batch(batch, labels, None)),
               "mtl": (build_model(config), Batch(batch, labels, targets))}

    def timed_round() -> dict[str, float]:
        spent = dict.fromkeys(systems, 0.0)
        for _ in range(num_steps):
            for key, (mdl, fixed_batch) in systems.items():
                start = time.perf_counter()
                _train_step(mdl, fixed_batch)
                spent[key] += time.perf_counter() - start
        return spent

    with side_thread():
        timed_round()  # warmup
        rounds = [timed_round() for _ in range(repeats)]
    best = {key: min(r[key] for r in rounds) for key in systems}
    return StepTimeReport(baseline_seconds=best["base"], mtl_seconds=best["mtl"],
                          overhead=(best["mtl"] - best["base"]) / best["base"])


# --- checkpoint serialization ---

def _state_arrays(model: Model) -> list[np.ndarray]:
    arrays = [p.data for p in model.params.values()]
    for state in model.bn_states.values():
        arrays.append(state.mean)
        arrays.append(state.var)
    arrays.extend(model.opt_state.first_moment[k] for k in model.params)
    arrays.extend(model.opt_state.second_moment[k] for k in model.params)
    return arrays


def save_checkpoint(model: Model, path: Path | str) -> None:
    meta: dict[str, object] = {f.name: binio.format_field(f.type, getattr(model.config, f.name))
                               for f in dataclasses.fields(ModelConfig)}
    meta.update(step=model.step, trained_epochs=model.trained_epochs)
    binio.write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, _state_arrays(model))


def load_checkpoint(path: Path | str) -> Model:
    meta, arrays = binio.read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                        "a model checkpoint")
    try:
        model = build_model(ModelConfig(**{f.name: binio.parse_field(f.type, meta[f.name])
                                           for f in dataclasses.fields(ModelConfig)}))
        model.opt_state.step_count = int(meta["step"])
        model.trained_epochs = int(meta["trained_epochs"])
        for key in ("step", "trained_epochs"):  # Adam divides by 1 - beta^step
            if int(meta[key]) < 0:
                raise ValueError(f"{key} must be >= 0, got {meta[key]}")
    except KeyError as err:
        raise ParseError(f"{path}: missing metadata key {err}") from None
    except ValueError as err:
        raise ParseError(f"{path}: bad metadata value ({err})") from None

    targets = _state_arrays(model)
    if len(arrays) != len(targets):
        raise DimMismatchError(f"{path}: expected {len(targets)} tensors, file has {len(arrays)}")
    for dest, arr in zip(targets, arrays):
        if arr.shape != dest.shape:
            raise DimMismatchError(f"{path}: tensor shaped {arr.shape} where {dest.shape} expected")
        dest[...] = arr
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


def gradient_suite(tolerance: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """Finite-difference checks of every primitive and of the miniature
    network at task weights 0, 0.3, and 1. All in float64."""
    checks: list[tuple[str, GradCheckReport]] = []
    rng = np.random.default_rng(1234)

    def check(name: str, loss_of_tape, wrt) -> None:
        """Check the gradient of the scalar loss that loss_of_tape records on a tape."""
        def fn():
            tape = Tape()
            return loss_of_tape(tape), tape

        checks.append((name, grad_check(fn, wrt, tolerance=tolerance)))

    def check_op(name: str, op, wrt: dict[str, Tensor], target: np.ndarray) -> None:
        """Check the MSE of op(tape), reshaped to target's shape, against target."""
        tgt = Tensor(target)
        check(name, lambda tape: mse_loss(reshape(op(tape), tgt.shape, tape), tgt, tape), wrt)

    # Each check's inputs and target are drawn in one fixed order, which
    # pins the printed errors; draw new inputs after the existing ones.
    # conv: T=9, k=3, dilation=2 -> 5 output frames
    x = Tensor(rng.normal(size=(1, 9, 3)), requires_grad=True)
    w = Tensor(0.5 * rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(0.1 * rng.normal(size=4), requires_grad=True)
    check_op("conv1d_dilated", lambda tape: conv1d_dilated(x, w, b, 2, tape),
             {"input": x, "weight": w, "bias": b}, rng.normal(size=(1, 20)))

    xb = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
    tgt_b = rng.normal(size=(2, 20))
    check_op("conv1d_dilated.batched", lambda tape: conv1d_dilated(xb, w, b, 2, tape),
             {"input": xb, "weight": w, "bias": b}, tgt_b)

    def off_kink() -> Tensor:
        """A batched conv input, redrawn until every pre-activation sits 0.02
        or more from the relu kink, so no finite difference step crosses it,
        and some of them are clamped."""
        while True:
            drawn = Tensor(rng.normal(size=(2, 9, 3)), requires_grad=True)
            pre = conv1d_dilated(drawn, w, b, dilation=2).data
            if np.abs(pre).min() > 0.02 and (pre < 0).any():
                return drawn

    # conv with its built-in relu, batched
    xc = off_kink()
    check_op("conv1d_dilated.relu",
             lambda tape: conv1d_dilated(xc, w, b, 2, tape, activation="relu"),
             {"input": xc, "weight": w, "bias": b}, tgt_b)

    # dense, both activations
    xd = Tensor(_away_from_zero(rng, (4, 5)), requires_grad=True)
    wd = Tensor(_away_from_zero(rng, (3, 5)), requires_grad=True)
    bd = Tensor(0.1 * rng.normal(size=3), requires_grad=True)
    tgt_d = rng.normal(size=(4, 3))
    for activation in ("none", "relu"):
        check_op(f"dense.{activation}", lambda tape: dense(xd, wd, bd, activation, tape),
                 {"input": xd, "weight": wd, "bias": bd}, tgt_d)

    xr = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
    check_op("relu", lambda tape: relu(xr, tape), {"input": xr}, rng.normal(size=(3, 4)))

    # batchnorm, train mode, on [N, F] and over the N * T rows of [N, T, F]
    xn = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    gn = Tensor(1.0 + 0.1 * rng.normal(size=4), requires_grad=True)
    bn = Tensor(0.1 * rng.normal(size=4), requires_grad=True)
    bn_state = BatchNormState.create(4, dtype=np.float64)
    check_op("batchnorm1d.train", lambda tape: batchnorm1d(xn, gn, bn, "train", bn_state, tape),
             {"input": xn, "gamma": gn, "beta": bn}, rng.normal(size=(6, 4)))
    xn3 = Tensor(rng.normal(size=(3, 4, 4)), requires_grad=True)
    check_op("batchnorm1d.train.3d",
             lambda tape: batchnorm1d(xn3, gn, bn, "train", bn_state, tape),
             {"input": xn3, "gamma": gn, "beta": bn}, rng.normal(size=(3, 16)))

    xp = Tensor(rng.normal(size=(1, 7, 5)), requires_grad=True)
    check_op("stats_pool", lambda tape: stats_pool(xp, tape), {"frames": xp},
             rng.normal(size=(1, 10)))

    # cross entropy straight off a leaf
    xl = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = np.array([0, 3, 1, 2, 3])
    check("softmax_cross_entropy", lambda tape: softmax_cross_entropy(xl, labels, tape),
          {"logits": xl})

    # mse on a leaf
    xm = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    tgt_m = Tensor(rng.normal(size=(3, 6)))
    check("mse_loss", lambda tape: mse_loss(xm, tgt_m, tape), {"pred": xm})

    # reshape + scale + add glue
    xg = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    tgt_g1 = Tensor(rng.normal(size=(3, 4)))
    tgt_g2 = Tensor(rng.normal(size=(2, 6)))
    check("reshape+scale+add",
          lambda tape: add(scale(mse_loss(reshape(xg, (3, 4), tape), tgt_g1, tape), 0.3, tape),
                           scale(mse_loss(xg, tgt_g2, tape), 0.7, tape), tape),
          {"input": xg})

    # conv with its built-in relu and batch norm, train mode, batched
    gf = Tensor(1.0 + 0.1 * rng.normal(size=4), requires_grad=True)
    bf = Tensor(0.1 * rng.normal(size=4), requires_grad=True)
    xf = off_kink()
    bf_state = BatchNormState.create(4, dtype=np.float64)
    check_op("conv1d_dilated.relu.batchnorm",
             lambda tape: conv1d_dilated(xf, w, b, 2, tape, activation="relu",
                                         norm=(gf, bf, "train", bf_state)),
             {"input": xf, "weight": w, "bias": b, "gamma": gf, "beta": bf},
             rng.normal(size=(2, 20)))

    # full miniature network at three task weights, on the loss training minimizes
    net_rng = np.random.default_rng(99)
    mini_features = np.asarray(net_rng.normal(size=(4, 20, 6)), dtype=np.float64)
    mini_batch = Batch(features=mini_features, labels=np.array([0, 2, 4, 1]),
                       targets=hos_vector(mini_features, 4))
    for alpha in (0.0, 0.3, 1.0):
        mini = build_model(replace(MINIATURE_CONFIG, task_weight=alpha), dtype=np.float64)
        check(f"network.alpha={alpha:g}", lambda tape, m=mini: _loss(m, mini_batch, tape).total,
              mini.params)
    return checks
