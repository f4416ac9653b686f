"""Seeded inputs of the benchmark, written as files the program reads.

Three kinds of input, one per stage:

* a "hard" corpus for the sweep: the generator of ``xveckit.data`` with a
  narrower mean spread and a narrower per-speaker scale range, so that
  skewness and kurtosis carry identity and the EER lands in a band that
  can move;
* ``generate_corpus`` corpora with utterance lengths spread over
  ~200..3000 frames plus a desk checkpoint, for extraction;
* embeddings drawn from a two-covariance model plus a trial list, for the
  backend.

Inputs that feed a quality readout (the hard corpus and the backend
embeddings) come from fixed calibration seeds, so the quality metrics are
identical across runs of one commit and move only when the arithmetic
changes. The run seed varies everything else: the manifest row order of the
hard corpus, the order of the trial list, the utterances each check picks,
and the whole extraction corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xveckit import backend, data, model


@dataclass(frozen=True)
class HardCorpus:
    """A corpus whose speakers differ mostly in shape, not location.

    Frames are 10-dim, 200..400 per utterance, AR(1) with coefficient 0.5,
    as in ``generate_corpus``'s defaults.
    """

    num_speakers: int
    utterances_per_speaker: int
    spread: float             # stddev of the per-speaker mean (xveckit: 3.0)
    scale_halfwidth: float    # scales ~ U[1 - h, 1 + h] (xveckit: h = 0.5)
    seed: int = 7


@dataclass(frozen=True)
class TwoCovariance:
    """Embeddings y_s ~ N(0, B), x ~ N(y_s, W) with random eigenbases."""

    dim: int
    train_speakers: int
    train_per_speaker: int
    eval_speakers: int
    eval_per_speaker: int
    between_scale: float      # B's spectrum is between_scale * the within one
    seed: int = 11


def _ar1(innov: np.ndarray, ar: float) -> np.ndarray:
    """AR(1) filter along axis 1 of [U, T, D], as ``generate_corpus`` applies."""
    gain = float(np.sqrt(1.0 - ar * ar))
    out = np.empty_like(innov)
    prev = innov[:, 0]
    out[:, 0] = prev
    for i in range(1, innov.shape[1]):
        prev = ar * prev + gain * innov[:, i]
        out[:, i] = prev
    return out


def write_hard_corpus(spec: HardCorpus, out_dir: Path, order_seed: int) -> data.Manifest:
    """Write the corpus through ``data.write_features`` and ``Manifest.save``.

    The bytes of every feature file depend on ``spec`` alone; ``order_seed``
    only permutes the manifest rows, which the sweep must not depend on.
    """
    rng = np.random.default_rng(spec.seed)
    d = 10
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    entries = []
    for s in range(spec.num_speakers):
        spk = f"spk{s:04d}"
        mean = rng.normal(0.0, spec.spread, size=d)
        scales = rng.uniform(1.0 - spec.scale_halfwidth, 1.0 + spec.scale_halfwidth, size=d)
        # The same asymmetric two-component innovation mixture as
        # generate_corpus: weight w at -m1, the rest at +m2.
        w = rng.uniform(0.25, 0.75)
        m1 = rng.uniform(0.5, 1.5)
        m2 = w * m1 / (1.0 - w)
        s1, s2 = rng.uniform(0.6, 1.4, size=2)
        u = spec.utterances_per_speaker
        lengths = rng.integers(200, 401, size=u)
        t_max = int(lengths.max())
        pick = rng.random((u, t_max, d)) < w
        gauss = rng.standard_normal((u, t_max, d))
        frames = _ar1(np.where(pick, -m1 + s1 * gauss, m2 + s2 * gauss), 0.5)
        for i, t in enumerate(lengths):
            utt = f"{spk}_utt{i:04d}"
            rel = f"features/{utt}.xvf"
            feats = (mean + scales * frames[i, :t]).astype(np.float32)
            data.write_features(out_dir / rel, data.FeatureMatrix(utt, spk, feats))
            entries.append(data.ManifestEntry(utt, spk, rel, int(t)))
    order = np.random.default_rng(order_seed).permutation(len(entries))
    manifest = data.Manifest([entries[i] for i in order], base_dir=out_dir)
    manifest.save(out_dir / "manifest.csv")
    return manifest


def desk_model_config(num_speakers: int, seed: int) -> model.ModelConfig:
    """The desk network: widths 64..128, D 10, batch 64, crop 200."""
    return model.ModelConfig(feature_dim=10, num_speakers=num_speakers,
                             frame_widths=(64, 64, 64, 64, 128), segment_width=64,
                             batch_size=64, crop_length=200, seed=seed)


def write_sweep_config(path: Path, holdout: int, epochs: int) -> None:
    """A ``sweep`` config that trains the desk network."""
    desk = desk_model_config(2, 0)
    path.write_text("\n".join([
        f"feature_dim = {desk.feature_dim}",
        "frame_widths = " + ",".join(map(str, desk.frame_widths)),
        "kernel_sizes = " + ",".join(map(str, desk.kernel_sizes)),
        "dilations = " + ",".join(map(str, desk.dilations)),
        f"segment_width = {desk.segment_width}",
        f"batch_size = {desk.batch_size}",
        f"crop_length = {desk.crop_length}",
        f"epochs = {epochs}",
        f"holdout_per_speaker = {holdout}",
        "scorer = cosine",
    ]) + "\n")


EXTRACT_BANDS = [(lo, lo + 199) for lo in range(200, 3000, 200)]


def write_extract_inputs(out_dir: Path, bands: dict[int, int], seed: int) -> data.Manifest:
    """A variable-length corpus plus a desk checkpoint.

    ``bands`` maps an index into ``EXTRACT_BANDS`` (200-frame bands over
    ~200..3000 frames) to utterances per speaker. Each band is a
    ``generate_corpus`` corpus of two speakers, so the length distribution
    (and with it the latency percentiles) is the same for every seed while
    the frames differ. The checkpoint's batch-norm running statistics are
    warmed on a few train-mode forward passes, so inference normalizes
    activations as a trained model would.
    """
    entries = []
    for band, per_speaker in bands.items():
        lo, hi = EXTRACT_BANDS[band]
        spec = data.CorpusSpec(num_speakers=2, utterances_per_speaker=per_speaker,
                               feature_dim=10, min_frames=lo, max_frames=hi,
                               seed=seed * len(EXTRACT_BANDS) + band)
        for e in data.generate_corpus(spec, out_dir / f"band{band:02d}"):
            entries.append(data.ManifestEntry(f"b{band:02d}{e.utt_id}", f"b{band:02d}{e.speaker_id}",
                                              f"band{band:02d}/{e.path}", e.num_frames))
    manifest = data.Manifest(entries, base_dir=out_dir)
    manifest.save(out_dir / "manifest.csv")
    net = model.build_model(desk_model_config(len(manifest.speakers), seed))
    batch_size = min(64, len(manifest))
    for i, batch in enumerate(data.make_batches(manifest, 200, batch_size, seed, 1, 0)):
        if i == 4:
            break
        model.forward(net, batch.features, "train")
    model.save_checkpoint(net, out_dir / "model.ckpt")
    return manifest


def _random_spd(rng: np.random.Generator, dim: int, spectrum: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return (q * spectrum) @ q.T


def write_backend_inputs(spec: TwoCovariance, out_dir: Path, order_seed: int) -> None:
    """Write train/eval embedding archives and an all-pairs eval trial list.

    The embeddings depend on ``spec`` alone; ``order_seed`` only permutes the
    trial lines.
    """
    rng = np.random.default_rng(spec.seed)
    spectrum = np.geomspace(1.0, 0.1, spec.dim)
    between = _random_spd(rng, spec.dim, spec.between_scale * spectrum)
    within = _random_spd(rng, spec.dim, spectrum[::-1])
    chol_b = np.linalg.cholesky(between)
    chol_w = np.linalg.cholesky(within)
    out_dir.mkdir(parents=True, exist_ok=True)

    def draw(prefix: str, speakers: int, per_speaker: int) -> tuple[dict, dict]:
        vectors, labels = {}, {}
        for s in range(speakers):
            spk = f"{prefix}{s:04d}"
            centre = chol_b @ rng.standard_normal(spec.dim)
            for u in range(per_speaker):
                utt = f"{spk}_utt{u:03d}"
                vectors[utt] = (centre + chol_w @ rng.standard_normal(spec.dim)).astype(np.float32)
                labels[utt] = spk
        return vectors, labels

    backend.write_embeddings(out_dir / "train.xveb",
                             *draw("trn", spec.train_speakers, spec.train_per_speaker))
    eval_vecs, eval_spk = draw("evl", spec.eval_speakers, spec.eval_per_speaker)
    backend.write_embeddings(out_dir / "eval.xveb", eval_vecs, eval_spk)
    trials = backend.all_pairs_trials(eval_spk)
    order = np.random.default_rng(order_seed).permutation(len(trials))
    backend.write_trials(out_dir / "trials.txt", [trials[i] for i in order])
