"""The three stages of one benchmark iteration and their correctness checks.

Every stage calls xveckit in-process, as a user would: the sweep and the
backend stages through ``cli.main``, extraction through the public
functions ``load_checkpoint``, ``Manifest.load_features``,
``extract_embedding`` and ``write_embeddings``. Each failed check counts as
one failed operation in the ledger.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xveckit import backend, cli, data, metrics, model

SWEEP_SYSTEM = "MT-o4-a3"  # the one system of `sweep --alphas 0.3 --orders 4`


class StageError(RuntimeError):
    """A stage could not produce the outputs its metrics are read from."""


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def call_cli(tracer, ledger: Ledger, argv: list[str]) -> float:
    """Run one ``xveckit`` command in-process; return its wall time."""
    with tracer.span("cli." + argv[0]), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if not ledger.check(code == 0, f"xveckit {argv[0]} exited {code}"):
        raise StageError(f"xveckit {' '.join(argv)} exited {code}")
    return seconds


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


# --- sweep (train) ---

@dataclass
class SweepResult:
    seconds: float
    eer: float
    min_dcf: float
    out_dir: Path


def run_sweep(tracer, ledger: Ledger, corpus: Path, config: Path, holdout: int,
              out_dir: Path, pick: np.random.Generator) -> SweepResult:
    out_dir = _fresh(out_dir)
    seconds = call_cli(tracer, ledger, ["sweep", "--data", str(corpus), "--alphas", "0.3",
                                        "--orders", "4", "--config", str(config),
                                        "--out", str(out_dir)])
    with tracer.span("bench.check.sweep"):
        with (out_dir / "sweep.csv").open(newline="") as fh:
            rows = {row["system"]: row for row in csv.DictReader(fh)}
        if SWEEP_SYSTEM not in rows:
            raise StageError(f"sweep.csv has no row for {SWEEP_SYSTEM}")
        system = out_dir / SWEEP_SYSTEM
        with (system / "train_log.csv").open(newline="") as fh:
            losses = [float(row[k]) for row in csv.DictReader(fh) for k in ("loss", "ce", "mse")]
        ledger.check(bool(losses) and all(math.isfinite(v) for v in losses),
                     "train_log.csv has a non-finite loss")

        # The reloaded checkpoint re-embeds one held-out utterance bitwise
        # equal to the entry the sweep archived.
        manifest = data.Manifest.load(corpus / "manifest.csv")
        held = manifest.split(holdout)[1].entries
        entry = held[int(pick.integers(len(held)))]
        archived, _ = backend.read_embeddings(system / "embeddings.xveb")
        reloaded = model.load_checkpoint(system / "model.ckpt")
        vector = model.extract_embedding(reloaded, manifest.load_features(entry)).vector
        ledger.check(np.array_equal(vector.astype("<f4"), archived[entry.utt_id].astype("<f4")),
                     f"re-embedding {entry.utt_id} from model.ckpt differs from embeddings.xveb")
    row = rows[SWEEP_SYSTEM]
    return SweepResult(seconds, float(row["eer"]), float(row["min_dcf"]), out_dir)


SWEEP_OUTPUTS = ("sweep.csv", f"{SWEEP_SYSTEM}/train_log.csv", f"{SWEEP_SYSTEM}/model.ckpt")


def same_sweep_outputs(a: Path, b: Path) -> bool:
    return all((a / rel).read_bytes() == (b / rel).read_bytes() for rel in SWEEP_OUTPUTS)


# --- extraction ---

@dataclass
class ExtractResult:
    utt_seconds: list[float]
    utt_frames: list[int]


def _float64_copy(net: model.Model) -> model.Model:
    copy = model.build_model(net.config, dtype=np.float64)
    for name, param in net.params.items():
        copy.params[name].data = param.data.astype(np.float64)
    for name, state in net.bn_states.items():
        copy.bn_states[name].mean = state.mean.astype(np.float64)
        copy.bn_states[name].var = state.var.astype(np.float64)
    return copy


FLOAT64_TOLERANCE = 1e-4  # max |float32 - float64| relative to max |float64|


def run_extract(tracer, ledger: Ledger, inputs: Path, passes: int, out: Path,
                reference: dict[str, bytes], pick: np.random.Generator) -> ExtractResult:
    """Embed every utterance ``passes`` times; time load + embed per utterance.

    Every pass must reproduce ``reference`` bitwise (filled on first use).
    """
    manifest = data.Manifest.load(inputs / "manifest.csv")
    net = model.load_checkpoint(inputs / "model.ckpt")
    utt_seconds: list[float] = []
    utt_frames: list[int] = []
    for _ in range(passes):
        vectors: dict[str, np.ndarray] = {}
        speakers: dict[str, str] = {}
        for entry in manifest:
            start = time.perf_counter()
            fm = manifest.load_features(entry)
            vector = model.extract_embedding(net, fm).vector
            utt_seconds.append(time.perf_counter() - start)
            utt_frames.append(fm.num_frames)
            vectors[entry.utt_id] = vector
            speakers[entry.utt_id] = entry.speaker_id
        backend.write_embeddings(out, vectors, speakers)
        with tracer.span("bench.check.extract"):
            for utt, vector in vectors.items():
                ledger.check(bool(np.isfinite(vector).all()), f"embedding of {utt} is not finite")
                ledger.check(reference.setdefault(utt, vector.tobytes()) == vector.tobytes(),
                             f"repeat extraction of {utt} is not bitwise equal")

    with tracer.span("bench.check.extract"):
        net64 = _float64_copy(net)
        for i in pick.choice(len(manifest), size=min(3, len(manifest)), replace=False):
            fm = manifest.load_features(manifest.entries[int(i)])
            v32 = model.extract_embedding(net, fm).vector
            v64 = model.extract_embedding(net64, fm).vector
            err = float(np.max(np.abs(v32 - v64)) / max(1e-12, float(np.max(np.abs(v64)))))
            ledger.check(err <= FLOAT64_TOLERANCE,
                         f"{fm.utt_id}: float32 embedding off the float64 model by {err:.2e}")
    return ExtractResult(utt_seconds, utt_frames)


# --- backend ---

@dataclass
class BackendResult:
    fit_seconds: float
    score_seconds: float
    trials: int
    eer: float
    min_dcf: float
    act_dcf: float


def run_backend(tracer, ledger: Ledger, inputs: Path, out_dir: Path) -> BackendResult:
    """train-backend, score --scorer plda (reloading the .xvbk), evaluate."""
    out_dir = _fresh(out_dir)
    out_dir.mkdir(parents=True)
    config = str(inputs / "backend.cfg")
    trials_path = str(inputs / "trials.txt")
    fit = call_cli(tracer, ledger, ["train-backend", "--embeddings", str(inputs / "train.xveb"),
                                    "--config", config, "--out", str(out_dir / "backend.xvbk")])
    score = call_cli(tracer, ledger, ["score", "--trials", trials_path,
                                      "--embeddings", str(inputs / "eval.xveb"),
                                      "--backend", str(out_dir / "backend.xvbk"),
                                      "--scorer", "plda", "--config", config,
                                      "--out", str(out_dir / "scores.txt")])
    score += call_cli(tracer, ledger, ["evaluate", "--scores", str(out_dir / "scores.txt"),
                                       "--trials", trials_path, "--config", config,
                                       "--out", str(out_dir / "metrics.csv")])
    with tracer.span("bench.check.backend"):
        trials = backend.read_trials(trials_path)
        scores = backend.read_scores(out_dir / "scores.txt")
        keys = [(t.enroll_id, t.test_id) for t in trials]
        ledger.check(len(scores) == len(trials) and all(k in scores for k in keys)
                     and all(math.isfinite(v) for v in scores.values()),
                     "scores.txt does not hold one finite score per trial")
        values = np.array([scores[k] for k in keys])
        target = np.array([t.target for t in trials])
        expected = metrics.detection_metrics(values[target], values[~target])
        with (out_dir / "metrics.csv").open(newline="") as fh:
            written = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
        ledger.check(all(written[k] == getattr(expected, k) for k in ("eer", "min_dcf", "act_dcf")),
                     "evaluate CSV disagrees with detection_metrics on the written scores")
    return BackendResult(fit, score, len(trials), written["eer"], written["min_dcf"],
                         written["act_dcf"])
