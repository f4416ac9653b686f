"""Workloads, set-up, iterations and the metrics of a measured or traced run."""

from __future__ import annotations

import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import spans
import stages

SETUP_REPEATS = 3
MIN_EXTRACT_SAMPLES = 1000


@dataclass(frozen=True)
class SweepSpec:
    corpus: inputs.HardCorpus
    holdout: int
    epochs: int


@dataclass(frozen=True)
class ExtractSpec:
    bands: dict[int, int]     # inputs.EXTRACT_BANDS index -> utterances per speaker
    passes: int


@dataclass(frozen=True)
class BackendSpec:
    embeddings: inputs.TwoCovariance
    lda_dim: int
    chains: int               # backend chains a round


# Full-size stages. The hard corpus and the two-covariance embeddings are
# calibrated so that the EERs sit well inside (0, 50%) and can move either
# way; README.md records the measured values.
SWEEP_FULL = SweepSpec(inputs.HardCorpus(num_speakers=30, utterances_per_speaker=24,
                                         spread=0.2, scale_halfwidth=0.2),
                       holdout=8, epochs=5)
# Utterances per speaker fall with length. The mix is not taken from real
# traffic: it was chosen so that p99 falls inside the longest bands (1.5% of
# samples) and reads their typical time, not the one or two samples a busy
# moment slowed down. The measured mix is in the report line.
EXTRACT_FULL = ExtractSpec(bands=dict(enumerate((9, 8, 8, 7, 6, 6, 5, 4, 4, 3, 3, 2, 1, 1))),
                           passes=3)
BACKEND_FULL = BackendSpec(inputs.TwoCovariance(dim=128, train_speakers=200, train_per_speaker=10,
                                                eval_speakers=60, eval_per_speaker=10,
                                                between_scale=0.25),
                           lda_dim=64, chains=1)

# Companion stages: small, so that a workload spends its time in its own
# stage, yet every workload measures every metric. Their inputs use a fixed
# seed, so their numbers vary only with the machine. Companion extraction
# is 60 utterances of 200..400 frames and 2 of 2800..3000 (3% of samples),
# chosen, like the full mix, for steady percentiles; 9 passes give 558
# samples a round. A companion backend chain takes about 0.5 s, and the
# speed of a shared machine jumps up to 2x over seconds, so the companion
# backend stage runs 4 chains in turn, 8 or more a run.
SWEEP_SMALL = SweepSpec(inputs.HardCorpus(num_speakers=10, utterances_per_speaker=27,
                                          spread=0.2, scale_halfwidth=0.2),
                        holdout=20, epochs=3)
EXTRACT_SMALL = ExtractSpec(bands={0: 30, 13: 1}, passes=9)
BACKEND_SMALL = BackendSpec(inputs.TwoCovariance(dim=32, train_speakers=60, train_per_speaker=8,
                                                 eval_speakers=24, eval_per_speaker=8,
                                                 between_scale=1.0),
                            lda_dim=16, chains=4)
COMPANION_SEED = 0

# Spans with self time that no layer function accounts for (see traced_run).
UNCOVERED = ("model.train", "model.train_step")

STAGES = ("sweep", "extract", "backend")
OWN_STAGE = {"train": "sweep", "extract": "extract", "backend": "backend"}
WORKLOADS = {
    "train": (SWEEP_FULL, EXTRACT_SMALL, BACKEND_SMALL),
    "extract": (SWEEP_SMALL, EXTRACT_FULL, BACKEND_SMALL),
    "backend": (SWEEP_SMALL, EXTRACT_SMALL, BACKEND_FULL),
}


def setup(workload: str, seed: int, into: Path) -> None:
    sweep, extract, back = WORKLOADS[workload]
    sweep_seed, extract_seed, backend_seed = (
        seed if name == workload else COMPANION_SEED for name in ("train", "extract", "backend"))
    into.mkdir(parents=True)
    inputs.write_hard_corpus(sweep.corpus, into / "sweep_corpus", order_seed=sweep_seed)
    inputs.write_sweep_config(into / "sweep.cfg", holdout=sweep.holdout, epochs=sweep.epochs)
    inputs.write_extract_inputs(into / "extract", extract.bands, extract_seed)
    inputs.write_backend_inputs(back.embeddings, into / "backend", order_seed=backend_seed)
    (into / "backend" / "backend.cfg").write_text(f"lda_dim = {back.lda_dim}\n")


def step_gflop(spec: SweepSpec) -> float:
    """Multiply-add work of conv and dense layers in one training step, x2.

    Forward plus backward (the input gradient of the first layer is not
    needed, so its backward is one product, the others two). Elementwise
    ops are left out.
    """
    desk = inputs.desk_model_config(spec.corpus.num_speakers, 0)
    n, t, c_in = desk.batch_size, desk.crop_length, desk.feature_dim
    flops = 0.0
    for i, (c_out, k, d) in enumerate(zip(desk.frame_widths, desk.kernel_sizes, desk.dilations)):
        t -= (k - 1) * d
        flops += 2.0 * n * t * c_out * c_in * k * (2 if i == 0 else 3)
        c_in = c_out
    seg = desk.segment_width
    for f_in, f_out in ((2 * c_in, seg), (seg, seg), (seg, desk.num_speakers),
                        (seg, desk.mtl_order * desk.feature_dim)):
        flops += 3 * 2.0 * n * f_in * f_out
    return flops / 1e9


class Iterations:
    """State shared by the iterations of one run."""

    def __init__(self, workload: str, seed: int, files: Path):
        self.workload = workload
        self.specs = WORKLOADS[workload]
        self.files = files
        self.inputs = files / "inputs"
        self.pick = np.random.default_rng([seed, 1])
        self.reference: dict[str, bytes] = {}
        self.ledger = stages.Ledger()
        self.sweeps: list[stages.SweepResult] = []
        self.extracts: list[stages.ExtractResult] = []
        self.backends: list[stages.BackendResult] = []
        self.companions = tuple(s for s in STAGES if s != OWN_STAGE[workload])

    def run(self, tracer, tag: str, own: bool = True) -> float:
        """One iteration: the companion stages, then the workload's own stage.

        With ``own`` false, only the companion stages run.
        """
        start = time.perf_counter()
        for stage in self.companions + ((OWN_STAGE[self.workload],) if own else ()):
            with tracer.span("bench.stage." + stage):
                getattr(self, stage)(tracer, tag)
        return time.perf_counter() - start

    def sweep(self, tracer, tag: str) -> None:
        """The first sweep of the run keeps its outputs; later ones write to
        ``sweep-<tag>`` and must reproduce them byte for byte."""
        spec = self.specs[0]
        out_dir = self.files / ("sweep-first" if not self.sweeps else f"sweep-{tag}")
        result = stages.run_sweep(tracer, self.ledger, self.inputs / "sweep_corpus",
                                  self.inputs / "sweep.cfg", spec.holdout, out_dir, self.pick)
        if self.sweeps:
            self.ledger.check(
                stages.same_sweep_outputs(self.sweeps[0].out_dir, result.out_dir),
                f"sweep {tag} outputs differ from the first sweep of the run")
        self.sweeps.append(result)

    def extract(self, tracer, tag: str) -> None:
        self.extracts.append(stages.run_extract(
            tracer, self.ledger, self.inputs / "extract", self.specs[1].passes,
            self.files / "extract.xveb", self.reference, self.pick))

    def backend(self, tracer, tag: str) -> None:
        for _ in range(self.specs[2].chains):
            self.backends.append(stages.run_backend(
                tracer, self.ledger, self.inputs / "backend", self.files / "backend"))


def length_mix(frames: np.ndarray) -> dict[str, float]:
    """Share of extraction samples that are short, middle and long."""
    return {"200-399": float(np.mean(frames < 400)),
            "400-1999": float(np.mean((frames >= 400) & (frames < 2000))),
            "2000-3000": float(np.mean(frames >= 2000))}


def measured_run(workload: str, seed: int, seconds: float, files: Path) -> dict:
    """Set up, then iterate; ``files`` holds every input and output."""
    null = spans.NullTracer()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(files / "inputs", ignore_errors=True)
        start = time.perf_counter()
        setup(workload, seed, files / "inputs")
        setup_s.append(time.perf_counter() - start)

    it = Iterations(workload, seed, files)
    start = time.perf_counter()
    iteration_s = []
    utt_ms = np.empty(0)
    # p99 needs at least ten samples beyond it, so at least 1000 samples.
    # A last round of the companion stages follows the last own stage, so
    # that they run at two or more moments of the run, at its start, between
    # own stages and at its end, and so sample more of the speed states a
    # shared machine switches between.
    while time.perf_counter() - start < seconds or utt_ms.size < MIN_EXTRACT_SAMPLES:
        iteration_s.append(it.run(null, "again"))
        utt_ms = 1e3 * np.array([s for e in it.extracts for s in e.utt_seconds])
    last_round_s = it.run(null, "again", own=False)
    utt_ms = 1e3 * np.array([s for e in it.extracts for s in e.utt_seconds])
    utt_frames = np.array([n for e in it.extracts for n in e.utt_frames])
    sweep, back = it.sweeps[0], it.backends[0]
    # Stage timings are means over the run: the speed of a shared machine
    # jumps between states up to 2x apart that last seconds, and the median
    # of samples jumps with it from one state to the other between runs,
    # while the mean moves with the share of time spent in each.
    metrics = {
        "setup_s": statistics.median(setup_s),
        "sweep_s": statistics.fmean(s.seconds for s in it.sweeps),
        "eer_pct": 100.0 * sweep.eer,
        "min_dcf": sweep.min_dcf,
        "extract_utt_ms.p50": float(np.percentile(utt_ms, 50)),
        "extract_utt_ms.p99": float(np.percentile(utt_ms, 99)),
        "extract_frames_per_s": float(utt_frames.sum()) / (1e-3 * float(utt_ms.sum())),
        "backend_fit_s": statistics.fmean(b.fit_seconds for b in it.backends),
        "score_trials_per_s": (sum(b.trials for b in it.backends)
                               / sum(b.score_seconds for b in it.backends)),
        "plda_eer_pct": 100.0 * back.eer,
        "plda_min_dcf": back.min_dcf,
        "plda_act_dcf": back.act_dcf,
    }
    for b in it.backends[1:]:
        it.ledger.check((b.eer, b.min_dcf, b.act_dcf) == (back.eer, back.min_dcf, back.act_dcf),
                        "a repeated backend chain gave other quality numbers")
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "iterations": len(iteration_s), "iteration_s": iteration_s,
        "last_round_s": last_round_s, "setup_runs_s": setup_s,
        "extract_samples": int(utt_ms.size), "extract_mix": length_mix(utt_frames),
        "backend_trials": back.trials,
        "backend_fit_runs_s": [b.fit_seconds for b in it.backends],
        "metrics": metrics, "ledger": it.ledger,
    }


def traced_run(workload: str, seed: int, files: Path, work: Path) -> dict:
    """Set up traced, then one untraced and one traced iteration.

    End-to-end metrics never come from here. The traced iteration's sweep
    must write the same bytes as the untraced one. The spans and the self
    time per span name are written to ``work``.
    """
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            setup(workload, seed, files / "inputs")
        traced_setup_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    it = Iterations(workload, seed, files)
    untraced_s = it.run(spans.NullTracer(), "untraced")
    tracer.install()
    try:
        traced_s = it.run(tracer, "traced")
    finally:
        tracer.uninstall()

    tracer.write(work / "spans.jsonl")
    table = spans.self_time_table(tracer)
    (work / "self_times.json").write_text(json.dumps(table, indent=1) + "\n")
    # Coverage counts the program's layer functions only: the self time of
    # the benchmark's spans, of the cli.<command> boundaries and of the
    # training loop around its steps is work no layer accounts for.
    covered = sum(v["self_s"] for k, v in table.items()
                  if not k.startswith(("bench.", "cli.")) and k not in UNCOVERED)
    metrics = spans.per_layer_metrics(tracer, step_gflop(WORKLOADS[workload][0]))
    metrics["trace.coverage_pct"] = 100.0 * covered / (traced_setup_s + traced_s)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "untraced_iteration_s": untraced_s, "traced_iteration_s": traced_s,
        "spans": len(tracer.spans),
        "metrics": metrics, "ledger": it.ledger,
    }
