"""Acceptance suite: the eight shipping gates, one test per gate.

Numeric gates are checked against references coded independently inside
this file, so the library and the test can only agree by both being
right. The toy-corpus experiments drive the command-line interface end
to end, exactly as a user would. Each test finishes by printing one
`[gate N] PASS` line with the measured numbers (visible under -s or on
failure).
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from xveckit.backend import fit_plda
from xveckit.cli import main
from xveckit.metrics import detection_metrics
from xveckit.model import (ModelConfig, gradient_suite, parameter_overhead,
                           step_time_overhead)
from xveckit.stats import hos_vector, moments

from metrics_oracle import metrics_oracle


def _pass(gate: int, message: str) -> None:
    print(f"[gate {gate}] PASS {message}")


# --- gate 1: every gradient in the engine ---

def test_01_gradient_integrity():
    start = time.perf_counter()
    checks = gradient_suite(tolerance=1e-4)
    elapsed = time.perf_counter() - start

    failed = [name for name, report in checks if not report.passed]
    assert failed == [], f"finite-difference mismatch in: {failed}"
    worst = max(report.max_relative_error for _, report in checks)
    assert worst < 1e-4

    names = [name for name, _ in checks]
    for required in ("conv1d_dilated", "conv1d_dilated.batched", "conv1d_dilated.relu",
                     "dense.none", "dense.relu", "relu", "batchnorm1d.train",
                     "batchnorm1d.train.3d", "stats_pool",
                     "softmax_cross_entropy", "mse_loss", "network.alpha=0",
                     "network.alpha=0.3", "network.alpha=1"):
        assert required in names, f"missing check {required}"

    assert elapsed < 60.0
    _pass(1, f"{len(checks)} gradient checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


# --- gate 2: higher-order statistics against a fresh two-pass reference ---

def _reference_stats(frames: np.ndarray) -> np.ndarray:
    """Textbook two-pass population moments, reimplemented from scratch."""
    x = np.asarray(frames, dtype=np.float64)
    mu = x.mean(axis=0)
    centered = x - mu
    sigma = np.sqrt((centered ** 2).mean(axis=0))
    skew = (centered ** 3).mean(axis=0) / sigma ** 3
    kurt = (centered ** 4).mean(axis=0) / sigma ** 4
    return np.concatenate([mu, sigma, skew, kurt])


def test_02_statistics_match_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        frames = rng.normal(loc=rng.uniform(-5, 5), scale=rng.uniform(0.5, 3.0),
                            size=(int(rng.integers(30, 400)), int(rng.integers(1, 16))))
        expected = _reference_stats(frames)
        worst = max(worst,
                    float(np.max(np.abs(hos_vector(frames, 4) - expected))),
                    float(np.max(np.abs(moments(frames).concat(4) - expected))))
    assert worst < 1e-10

    # hand-checkable utterance: one 1 among three 0s in a single dimension
    spike = moments(np.array([[0.0], [0.0], [0.0], [1.0]]))
    assert abs(spike.skew[0] - 2.0 / np.sqrt(3.0)) < 1e-9  # 1.154701
    assert abs(spike.kurt[0] - 7.0 / 3.0) < 1e-9

    # large-sample Gaussian: skewness near 0, non-excess kurtosis near 3
    gauss = moments(np.random.default_rng(99).normal(size=(100_000, 4)))
    assert np.all(np.abs(gauss.skew) < 0.05)
    assert np.all(np.abs(gauss.kurt - 3.0) < 0.1)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(2, f"largest deviation {worst:.2e} over 100 utterances, {elapsed:.1f}s")


# --- gates 3, 4, 8: the toy-corpus experiments, driven through the CLI ---

SWEEP_ARGS = ("--alphas", "0,0.3,1.0", "--orders", "4")
SYSTEMS = ("baseline", "MT-o4-a3", "MT-o4-a10")


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """One corpus at the default experiment scale, swept twice with
    identical arguments. The repeat run exists for the determinism gate."""
    root = tmp_path_factory.mktemp("toy")
    corpus = root / "corpus"
    assert main(["gen-data", "--out", str(corpus)]) == 0

    elapsed = {}
    for run in ("first", "repeat"):
        start = time.perf_counter()
        rc = main(["sweep", "--data", str(corpus), *SWEEP_ARGS,
                   "--out", str(root / run)])
        elapsed[run] = time.perf_counter() - start
        assert rc == 0
    return {"root": root, "elapsed": elapsed}


def _sweep_rows(path: Path) -> dict[str, dict[str, float]]:
    with open(path, newline="") as handle:
        return {row["system"]: {key: float(value) for key, value in row.items()
                                if key != "system"}
                for row in csv.DictReader(handle)}


def test_03_multitask_and_baseline_both_learn(toy_runs):
    rows = _sweep_rows(toy_runs["root"] / "first" / "sweep.csv")
    base_eer = rows["baseline"]["eer"]
    mtl_eer = rows["MT-o4-a3"]["eer"]
    assert base_eer <= 0.10
    assert mtl_eer <= 0.10
    assert mtl_eer <= base_eer + 0.02

    log_path = toy_runs["root"] / "first" / "MT-o4-a3" / "train_log.csv"
    with open(log_path, newline="") as handle:
        log = list(csv.DictReader(handle))
    first_mse = float(log[0]["mse"])
    last_epoch = max(int(row["epoch"]) for row in log)
    final_mse = float(np.mean([float(row["mse"]) for row in log
                               if int(row["epoch"]) == last_epoch]))
    assert final_mse <= 0.5 * first_mse

    # the whole three-system sweep fitting one system's budget implies
    # each system did
    assert toy_runs["elapsed"]["first"] < 900.0
    _pass(3, f"EER baseline {100 * base_eer:.2f}% / multitask {100 * mtl_eer:.2f}%, "
             f"reconstruction error {first_mse:.1f} -> {final_mse:.2f}, "
             f"sweep {toy_runs['elapsed']['first']:.0f}s")


def test_04_reconstruction_only_training_still_separates(toy_runs):
    rows = _sweep_rows(toy_runs["root"] / "first" / "sweep.csv")
    eer = rows["MT-o4-a10"]["eer"]
    assert eer < 0.40  # well away from the 0.5 of uninformative scores
    assert toy_runs["elapsed"]["first"] < 900.0
    _pass(4, f"task weight 1.0 reaches {100 * eer:.2f}% EER with no speaker loss")


# --- gate 5: the auxiliary head is cheap ---

def test_05_auxiliary_head_cost():
    report = parameter_overhead(ModelConfig(feature_dim=30, num_speakers=7001))
    assert report.added_params == 512 * 120 + 120 == 61_560
    assert report.ratio < 0.02

    start = time.perf_counter()
    timing = step_time_overhead()  # 200 steps each way, best of 3
    elapsed = time.perf_counter() - start
    assert timing.overhead < 0.10
    _pass(5, f"{report.added_params} extra parameters ({100 * report.ratio:.2f}%), "
             f"step time +{100 * timing.overhead:.1f}% ({elapsed:.0f}s to measure)")


# --- gate 6: fast metrics equal the exhaustive threshold sweep ---

def test_06_metrics_match_exhaustive_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for index in range(1000):
        tar = rng.normal(1.0, 1.5, size=int(rng.integers(2, 300)))
        non = rng.normal(-1.0, 1.5, size=int(rng.integers(2, 300)))
        if index % 3 == 1:  # heavy ties
            tar, non = np.round(tar), np.round(non)
        elif index % 3 == 2:  # disjoint supports
            non = non - 10.0
        fast = detection_metrics(tar, non)
        slow = metrics_oracle(tar, non)
        worst = max(worst, abs(fast.eer - slow.eer),
                    abs(fast.min_dcf - slow.min_dcf),
                    abs(fast.act_dcf - slow.act_dcf))
    assert worst < 1e-12

    separated = detection_metrics([1.0, 1.1, 1.2], [-1.0, 0.0, 0.5])
    assert separated.eer == 0.0

    same = np.random.default_rng(31).normal(size=(2, 5000))
    overlap = detection_metrics(same[0], same[1])
    assert abs(overlap.eer - 0.5) <= 0.02

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(6, f"fast path within {worst:.1e} of the sweep on 1000 score sets, "
             f"{elapsed:.1f}s")


# --- gate 7: PLDA recovers a known two-covariance model ---

def test_07_plda_recovers_known_covariances():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    dim, speakers, per_speaker = 10, 200, 20

    # Speaker variability concentrates along one dominant direction, as it
    # does in practice. The structure matters: 200 speakers carry too few
    # degrees of freedom to pin a generically conditioned 10x10 covariance
    # to 10%, and the EM under test is identical either way.
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    between_true = 6.0 * np.outer(u, u) + 0.3 * np.eye(dim)
    c = rng.normal(size=dim)
    within_true = 0.5 * np.outer(c, c) / dim + 0.25 * np.eye(dim)
    mean_true = rng.normal(size=dim)

    lb = np.linalg.cholesky(between_true)
    lw = np.linalg.cholesky(within_true)
    speaker_means = mean_true + rng.normal(size=(speakers, dim)) @ lb.T
    x = (np.repeat(speaker_means, per_speaker, axis=0)
         + rng.normal(size=(speakers * per_speaker, dim)) @ lw.T)
    labels = [f"spk{s:03d}" for s in range(speakers) for _ in range(per_speaker)]

    model = fit_plda(x, labels, num_iterations=20)

    b_err = (np.linalg.norm(model.between - between_true)
             / np.linalg.norm(between_true))
    w_err = (np.linalg.norm(model.within - within_true)
             / np.linalg.norm(within_true))
    assert b_err < 0.10
    assert w_err < 0.10

    ll = np.asarray(model.log_likelihoods)
    assert ll.shape[0] == 21  # initial value plus one per iteration
    assert np.all(np.diff(ll) >= -1e-8)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(7, f"between {100 * b_err:.1f}% / within {100 * w_err:.1f}% relative "
             f"error, log-likelihood {ll[0]:.1f} -> {ll[-1]:.1f}, {elapsed:.1f}s")


# --- gate 8: repeated runs are bitwise identical ---

def test_08_training_is_bitwise_reproducible(toy_runs):
    root = toy_runs["root"]
    compared = ["sweep.csv"]
    for system in SYSTEMS:
        compared += [f"{system}/{name}" for name in
                     ("train_log.csv", "model.ckpt", "scores.txt", "metrics.csv",
                      "trials.txt", "embeddings.xveb")]
    for rel in compared:
        first = (root / "first" / rel).read_bytes()
        repeat = (root / "repeat" / rel).read_bytes()
        assert first == repeat, f"{rel} differs between identical runs"
    _pass(8, f"{len(compared)} artifacts byte-identical across repeated runs")
