"""Span tracing of xveckit from outside the package.

``Tracer.install`` wraps public functions at the names their callers
resolve (the ops ``xveckit.model`` imports, ``make_batches``,
``data.hos_vector``, ``Manifest.load_features``, the ``backend`` and
``metrics`` functions ``cli`` calls, ...) and every backward closure
through ``Tape.record``. No file of the package changes, and the wrapped
functions compute exactly what they computed before.

Each span is ``[name, layer, start, end, parent, unit]``, kept in memory
and written out when the run ends. Ops are attributed to network layers
through the ``Tensor.name`` of their parameters; relu and reshape inherit
the layer of the parametrised op before them, so per-layer numbers keep
their meaning when a later change fuses ops. A *unit* is a training step
(``model.train_step``, from its forward to its optimizer step) or one
``model.extract_embedding`` call; each span belongs to the innermost unit
that encloses it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from pathlib import Path

from xveckit import autodiff, backend, cli, data, model

NAME, LAYER, START, END, PARENT, UNIT = range(6)

UNIT_SPANS = ("model.train_step", "model.extract_embedding")

# Network ops as xveckit.model resolves them: span name, and where the
# layer comes from (index of the named parameter argument, a fixed layer,
# or None to inherit the current one).
_OPS = {
    "conv1d_dilated": ("autodiff.conv1d_dilated", 1),
    "batchnorm1d": ("autodiff.batchnorm1d", 1),
    "dense": ("autodiff.dense", 1),
    "relu": ("autodiff.relu", None),
    "reshape": ("autodiff.reshape", None),
    "stats_pool": ("stats.stats_pool", "pool"),
    "softmax_cross_entropy": ("autodiff.softmax_cross_entropy", "softmax"),
    "mse_loss": ("autodiff.mse_loss", "mtl"),
    "scale": ("autodiff.scale", "mtl"),
    "add": ("autodiff.add", "mtl"),
}
OP_NAMES = [span for span, _ in _OPS.values()]
LAYERS = ["l1", "l2", "l3", "l4", "l5", "pool", "l6", "l7", "softmax", "mtl"]
FRAME_LAYERS = LAYERS[:6]

# Plain call boundaries: (owner, attribute, span name).
_CALLS = [
    (model, "multitask_loss", "model.multitask_loss"),
    (model, "backward", "autodiff.backward"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model, "extract_embedding", "model.extract_embedding"),
    (cli, "train", "model.train"),
    (cli, "extract_embedding", "model.extract_embedding"),
    (cli, "load_checkpoint", "model.load_checkpoint"),
    (cli, "detection_metrics", "metrics.detection_metrics"),
    (data, "generate_corpus", "data.generate_corpus"),
    (data, "write_features", "data.write_features"),
    (data, "hos_vector", "stats.hos_vector"),
] + [(backend, name, f"backend.{name}") for name in (
    "read_embeddings", "write_embeddings", "fit_preprocessor", "save_backend",
    "load_backend", "score_trials", "read_trials", "write_trials", "write_scores",
    "read_scores", "all_pairs_trials", "length_normalize")]


class NullTracer:
    """Untraced runs: spans cost one context-manager call and record nothing."""

    def span(self, name: str):
        del name
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.layer: str | None = None
        self.tape_entries: dict[int, int] = {}
        self.bytes_read: list[tuple[int, int]] = []  # (span, bytes)
        self.em_iterations: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---

    def open(self, name: str, layer: str | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        unit = index if name in UNIT_SPANS else (self.spans[parent][UNIT] if parent >= 0 else -1)
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, unit])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None = None):
        index = self.open(name, layer)
        try:
            yield
        finally:
            self.close(index)

    def _top_name(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    # --- wrappers ---

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _call(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def _op(self, name: str, layer_from):
        def make(original):
            def wrapper(*args, **kwargs):
                if isinstance(layer_from, int):
                    self.layer = args[layer_from].name.split(".")[0]
                elif layer_from is not None:
                    self.layer = layer_from
                with self.span(name, self.layer):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def _forward(self, original):
        def wrapper(*args, **kwargs):
            # A training step runs from its forward to its optimizer step;
            # model.train has no step function, so the span is opened here.
            if self._top_name() == "model.train":
                self.open("model.train_step")
            with self.span("model.forward"):
                return original(*args, **kwargs)
        return wrapper

    def _optimizer_step(self, original):
        def wrapper(*args, **kwargs):
            with self.span("autodiff.optimizer_step"):
                result = original(*args, **kwargs)
            if self._top_name() == "model.train_step":
                self.close(self.stack[-1])
            return result
        return wrapper

    def _make_batches(self, original):
        def wrapper(*args, **kwargs):
            batches = original(*args, **kwargs)
            while True:
                index = self.open("data.make_batches")
                try:
                    batch = next(batches)
                except StopIteration:
                    self.spans[index][NAME] = "data.make_batches.end"
                    return
                finally:
                    self.close(index)
                yield batch
        return wrapper

    def _load_features(self, original):
        def wrapper(manifest, entry):
            with self.span("data.load_features"):
                fm = original(manifest, entry)
            index = len(self.spans) - 1  # the span just closed
            self.bytes_read.append((index, (manifest.base_dir / entry.path).stat().st_size))
            return fm
        return wrapper

    def _fit_plda(self, original):
        def wrapper(*args, **kwargs):
            with self.span("backend.fit_plda"):
                plda = original(*args, **kwargs)
            self.em_iterations.append(len(plda.log_likelihoods) - 1)
            return plda
        return wrapper

    def _record(self, original):
        def wrapper(tape, output, backward_fn):
            top = self.spans[self.stack[-1]] if self.stack else None
            op = top[NAME] if top is not None else "autodiff.unknown"
            layer = top[LAYER] if top is not None else None
            unit = top[UNIT] if top is not None else -1
            self.tape_entries[unit] = self.tape_entries.get(unit, 0) + 1

            def traced_backward(g):
                with self.span(op + ".bwd", layer):
                    backward_fn(g)
            return original(tape, output, traced_backward)
        return wrapper

    def install(self) -> None:
        for attr, (name, layer_from) in _OPS.items():
            self._patch(model, attr, self._op(name, layer_from))
        for owner, attr, name in _CALLS:
            self._patch(owner, attr, self._call(name))
        self._patch(model, "forward", self._forward)
        self._patch(model, "optimizer_step", self._optimizer_step)
        self._patch(model, "make_batches", self._make_batches)
        self._patch(data.Manifest, "load_features", self._load_features)
        self._patch(backend, "fit_plda", self._fit_plda)
        self._patch(autodiff.Tape, "record", self._record)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- reports ---

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _contexts(spans: list[list]) -> tuple[list[bool], list[str | None]]:
    """Per span: whether the benchmark made the call, and its ``cli.*`` command.

    A span under ``bench.setup`` or a ``bench.check.*`` span is the
    benchmark's own call, not the program's work. A parent always precedes
    its children, so one forward pass suffices.
    """
    own: list[bool] = []
    command: list[str | None] = []
    for s in spans:
        name, parent = s[NAME], s[PARENT]
        inherited = own[parent] if parent >= 0 else False
        own.append(inherited or name == "bench.setup" or name.startswith("bench.check."))
        command.append(name if name.startswith("cli.")
                       else command[parent] if parent >= 0 else None)
    return own, command


def per_layer_metrics(tracer: Tracer, step_gflop: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Network op and layer times are medians over training steps of the
    per-step sum of self time; ``*.infer_ms`` are medians over the
    utterances of the extract stage; the remaining timings are medians per
    call. Calls the benchmark itself makes (set-up, checks) are left out,
    except for the set-up metrics, which time exactly those.
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_bench, command = _contexts(spans)
    steps = [i for i, s in enumerate(spans) if s[NAME] == "model.train_step"]
    utts = [i for i, s in enumerate(spans) if s[NAME] == "model.extract_embedding"
            and command[i] is None and not by_bench[i]]
    if not steps or not utts:
        raise RuntimeError("traced iteration ran no training step or no extraction")
    per_unit: dict[int, dict[str, float]] = {i: {} for i in steps + utts}
    hos_per_batch: dict[int, float] = {}
    for i, s in enumerate(spans):
        name, layer, unit = s[NAME], s[LAYER], s[UNIT]
        ms = 1e3 * own[i]
        bucket = per_unit.get(unit) if unit != i else None
        if bucket is not None:
            keys = [name]
            if layer is not None:
                keys.append(f"model.{layer}." + ("bwd" if name.endswith(".bwd") else "fwd"))
            for key in keys:
                bucket[key] = bucket.get(key, 0.0) + ms
        if name == "stats.hos_vector" and spans[s[PARENT]][NAME] == "data.make_batches":
            hos_per_batch[s[PARENT]] = hos_per_batch.get(s[PARENT], 0.0) + ms

    def step_median(key: str) -> float:
        return statistics.median(per_unit[i].get(key, 0.0) for i in steps)

    def utt_median(key: str) -> float:
        return statistics.median(per_unit[i].get(key, 0.0) for i in utts)

    def durations_ms(name: str, indices: list[int]) -> list[float]:
        """Durations of ``name`` spans that are, or are children of, ``indices``."""
        wanted = set(indices)
        return [1e3 * (s[END] - s[START]) for i, s in enumerate(spans)
                if s[NAME] == name and (i in wanted or s[PARENT] in wanted)]

    def call_median(name: str, scale: float = 1.0, within: str | None = None,
                    setup: bool = False) -> float:
        """Median duration of ``name`` calls, in ms times ``scale``.

        ``within`` keeps the calls made under that ``cli.*`` command only;
        ``setup`` keeps the benchmark's own set-up and check calls too.
        """
        values = [1e3 * (s[END] - s[START]) for i, s in enumerate(spans)
                  if s[NAME] == name and (setup or not by_bench[i])
                  and (within is None or command[i] == within)]
        if not values:
            raise RuntimeError(f"traced iteration has no {name} span"
                               + (f" inside {within}" if within else ""))
        return scale * statistics.median(values)

    step_ms = call_median("model.train_step")
    out = {
        "model.train_step_ms": step_ms,
        "model.forward_ms": statistics.median(durations_ms("model.forward", steps)),
        "model.multitask_loss_ms": call_median("model.multitask_loss"),
        "autodiff.backward_ms": call_median("autodiff.backward"),
        "autodiff.optimizer_step_ms": call_median("autodiff.optimizer_step"),
        "autodiff.tape_entries": statistics.median(tracer.tape_entries.get(i, 0) for i in steps),
        "model.step_gflop": step_gflop,
        "model.step_gflop_per_s": step_gflop / (step_ms / 1e3),
        "data.batch_wait_ms": call_median("data.make_batches"),
        "stats.hos_vector_ms": statistics.median(hos_per_batch.values()),
        "data.load_features_ms": call_median("data.load_features"),
        "data.bytes_read": statistics.median(n for i, n in tracer.bytes_read if not by_bench[i]),
        "model.save_checkpoint_ms": call_median("model.save_checkpoint", within="cli.sweep"),
        "model.extract_embedding_ms": statistics.median(durations_ms("model.extract_embedding", utts)),
        "backend.score_trials_ms": call_median("backend.score_trials", within="cli.sweep"),
        "metrics.detection_metrics_ms": call_median("metrics.detection_metrics",
                                                    within="cli.sweep"),
        "data.generate_corpus_s": call_median("data.generate_corpus", 1e-3, setup=True),
        "data.write_features_ms": call_median("data.write_features", setup=True),
        "model.load_checkpoint_ms": call_median("model.load_checkpoint"),
        "backend.read_embeddings_s": call_median("backend.read_embeddings", 1e-3,
                                                 within="cli.train-backend"),
        "backend.fit_preprocessor_s": call_median("backend.fit_preprocessor", 1e-3),
        "backend.fit_plda_s": call_median("backend.fit_plda", 1e-3),
        "backend.plda_em_iterations": statistics.median(tracer.em_iterations),
        "backend.save_backend_ms": call_median("backend.save_backend"),
        "backend.read_trials_s": call_median("backend.read_trials", 1e-3, within="cli.score"),
        "backend.load_backend_ms": call_median("backend.load_backend"),
        "backend.score_trials_s": call_median("backend.score_trials", 1e-3, within="cli.score"),
        "backend.write_scores_s": call_median("backend.write_scores", 1e-3, within="cli.score"),
        "backend.read_scores_s": call_median("backend.read_scores", 1e-3, within="cli.evaluate"),
        "metrics.detection_metrics_s": call_median("metrics.detection_metrics", 1e-3,
                                                   within="cli.evaluate"),
    }
    for layer in LAYERS:
        out[f"model.{layer}.fwd_ms"] = step_median(f"model.{layer}.fwd")
        out[f"model.{layer}.bwd_ms"] = step_median(f"model.{layer}.bwd")
    for op in OP_NAMES:
        out[f"{op}.fwd_ms"] = step_median(op)
        out[f"{op}.bwd_ms"] = step_median(op + ".bwd")
    for layer in FRAME_LAYERS:
        out[f"model.{layer}.infer_ms"] = utt_median(f"model.{layer}.fwd")
    return out


def self_time_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Total self time and call count per span name."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(tracer.spans, tracer.self_times()):
        row = table.setdefault(s[NAME], {"self_s": 0.0, "calls": 0})
        row["self_s"] += own
        row["calls"] += 1
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))
