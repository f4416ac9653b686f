"""Synthetic corpus generation, feature file I/O, manifests, VAD, batching.

Feature files are little-endian binary: magic "XVF1", then u32 feature
dim D, u32 frame count T, then T*D float32 values row-major. A corpus
directory holds one file per utterance plus manifest.csv with columns
utt_id,speaker_id,path,num_frames; paths are relative to the manifest.
Manifest.split holds out the last k utterances of each speaker, within
the one bound check_holdout states.

The generator produces speakers that differ in location (mean), scale,
and shape: per speaker a mean drawn from N(0, spread^2 I), per-dimension
scales from U[0.5, 1.5], and a two-component asymmetric Gaussian mixture
for the frame innovations, so third and fourth order statistics carry
speaker identity. Frames are AR(1)-correlated in time. Everything is
driven by one seeded generator: same spec, same bytes. The draw order is
part of that contract: per speaker the mean, the scales, the mixture
weight and first mean, then the two widths; per utterance the length, the
component picks and the Gaussian draws. The AR(1) filter runs over a
block of utterances at a time (READ_BLOCK innovation values), one time
step for the whole block, with the per-frame recurrence's float64
arithmetic, so the bytes do not depend on how the corpus is cut.
"""

from __future__ import annotations

import csv
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import binio
from .errors import (
    BadMagicError,
    ConfigurationError,
    DataError,
    DimMismatchError,
    EmptyAfterVadError,
    ParseError,
    TruncatedFileError,
)
from .stats import hos_vector

__all__ = [
    "FEATURE_MAGIC",
    "FeatureMatrix",
    "CorpusSpec",
    "ManifestEntry",
    "Manifest",
    "check_holdout",
    "generate_corpus",
    "write_features",
    "read_features",
    "energy_vad",
    "Batch",
    "make_batches",
]

log = logging.getLogger(__name__)

FEATURE_MAGIC = b"XVF1"
_HEADER = struct.Struct("<4sII")

# Minimum crop length accepted by make_batches: the default network's
# shortest input, model.min_input_frames (receptive field 15, plus one).
MIN_CROP = 16

# Innovation values (utterances x max_frames x feature_dim, padded) that
# generate_corpus filters as one block, so its memory does not grow with
# the corpus. A block holds at least one utterance.
READ_BLOCK = 1 << 20


@dataclass
class FeatureMatrix:
    """One utterance: id, speaker, and a [T, D] float32 frame matrix."""

    utt_id: str
    speaker_id: str
    frames: np.ndarray

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class CorpusSpec:
    """Parameters of the synthetic corpus generator."""

    num_speakers: int = 30
    utterances_per_speaker: int = 40
    feature_dim: int = 10
    min_frames: int = 200
    max_frames: int = 400
    ar_coeff: float = 0.5
    spread: float = 3.0
    seed: int = 0

    def validate(self) -> None:
        problems = []
        if self.num_speakers < 2:
            problems.append(f"num_speakers must be >= 2, got {self.num_speakers}")
        if self.utterances_per_speaker < 1:
            problems.append(f"utterances_per_speaker must be >= 1, got {self.utterances_per_speaker}")
        if self.feature_dim < 1:
            problems.append(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.min_frames < MIN_CROP:
            problems.append(f"min_frames must be >= {MIN_CROP}, got {self.min_frames}")
        if self.max_frames < self.min_frames:
            problems.append(f"max_frames {self.max_frames} < min_frames {self.min_frames}")
        if not 0.0 <= self.ar_coeff < 1.0:
            problems.append(f"ar_coeff must lie in [0, 1), got {self.ar_coeff}")
        if self.spread <= 0:
            problems.append(f"spread must be positive, got {self.spread}")
        if self.seed < 0:
            problems.append(f"seed must be non-negative, got {self.seed}")
        problems += binio.non_finite_fields(self)
        if problems:
            raise ConfigurationError("; ".join(problems))


@dataclass
class ManifestEntry:
    utt_id: str
    speaker_id: str
    path: str
    num_frames: int


class Manifest:
    """Utterance index of a corpus directory; entry paths are relative."""

    def __init__(self, entries: list[ManifestEntry], base_dir: Path | str):
        ids = [e.utt_id for e in entries]
        if len(set(ids)) != len(ids):
            raise DataError("manifest has duplicate utterance ids")
        self.entries = entries
        self.base_dir = Path(base_dir)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[ManifestEntry]:
        return iter(self.entries)

    @property
    def speakers(self) -> list[str]:
        return sorted({e.speaker_id for e in self.entries})

    def speaker_index(self) -> dict[str, int]:
        """Stable mapping speaker_id -> label in [0, S), sorted by id."""
        return {spk: i for i, spk in enumerate(self.speakers)}

    def load_features(self, entry: ManifestEntry) -> FeatureMatrix:
        fm = read_features(self.base_dir / entry.path,
                           utt_id=entry.utt_id, speaker_id=entry.speaker_id)
        if fm.num_frames != entry.num_frames:
            raise DimMismatchError(
                f"{entry.path}: file holds {fm.num_frames} frames, manifest says {entry.num_frames}")
        return fm

    def by_speaker(self) -> dict[str, list[ManifestEntry]]:
        """Each speaker's entries, in row order."""
        by_spk: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            by_spk.setdefault(e.speaker_id, []).append(e)
        return by_spk

    def split(self, k: int, least: int = 0) -> tuple["Manifest", "Manifest"]:
        """Per speaker, hold out the last k utterances (by id) for
        evaluation, within check_holdout's bound. k = 0 keeps the manifest
        whole, in its own row order, and holds out nothing."""
        by_spk = self.by_speaker()
        check_holdout([len(utts) for utts in by_spk.values()], k, least)
        if k == 0:
            return self, Manifest([], self.base_dir)
        train: list[ManifestEntry] = []
        held: list[ManifestEntry] = []
        for spk in sorted(by_spk):
            utts = sorted(by_spk[spk], key=lambda e: e.utt_id)
            train.extend(utts[:-k])
            held.extend(utts[-k:])
        return Manifest(train, self.base_dir), Manifest(held, self.base_dir)

    def save(self, path: Path | str) -> None:
        with binio.atomic_write(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["utt_id", "speaker_id", "path", "num_frames"])
            for e in self.entries:
                writer.writerow([e.utt_id, e.speaker_id, e.path, e.num_frames])

    @classmethod
    def load(cls, path: Path | str) -> "Manifest":
        path = Path(path)
        entries = []
        with binio.open_text(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["utt_id", "speaker_id", "path", "num_frames"]:
                raise DataError(f"{path}: unexpected manifest header {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise DataError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
                try:
                    n = int(row[3])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: num_frames {row[3]!r} is not an integer")
                entries.append(ManifestEntry(row[0], row[1], row[2], n))
        return cls(entries, base_dir=path.parent)


def check_holdout(counts: list[int], k: int, least: int) -> list[int]:
    """The held-out bound: every speaker, of `counts` utterances each, holds
    out at least `least` and keeps at least one to train on. With no
    speaker there is no upper bound. Returns what each speaker keeps."""
    most = min(counts, default=k + 1) - 1
    if not least <= k <= most:
        raise ConfigurationError(f"holdout_per_speaker must lie in [{least}, {most}], got {k}")
    return [n - k for n in counts]


def write_features(path: Path | str, fm: FeatureMatrix) -> None:
    frames = np.ascontiguousarray(fm.frames, dtype="<f4")
    t, d = frames.shape
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, d, t))
        fh.write(frames.tobytes())


def read_features(path: Path | str, utt_id: str = "", speaker_id: str = "") -> FeatureMatrix:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size or raw[:4] != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: not a feature file (bad magic)")
    _, d, t = _HEADER.unpack_from(raw)
    if d < 1 or t < 1:
        raise DimMismatchError(f"{path}: non-positive dimensions in header (D={d}, T={t})")
    expected = _HEADER.size + 4 * d * t
    if len(raw) != expected:
        raise TruncatedFileError(f"{path}: header promises {expected} bytes, file has {len(raw)}")
    frames = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(t, d)
    if not np.isfinite(frames).all():
        row = np.flatnonzero(~np.isfinite(frames).all(axis=1))[0]
        raise ParseError(f"{path}: non-finite value in utterance '{utt_id}', frame {row}")
    return FeatureMatrix(utt_id=utt_id, speaker_id=speaker_id, frames=frames.copy())


def _utterances(spec: CorpusSpec) -> Iterator[tuple[ManifestEntry, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (entry, mean, scales, innovations [T, D]) per utterance, drawing
    from one generator seeded with spec.seed in the contract's order."""
    rng = np.random.default_rng(spec.seed)
    d = spec.feature_dim
    for s in range(spec.num_speakers):
        spk = f"spk{s:04d}"
        mean = rng.normal(0.0, spec.spread, size=d)
        scales = rng.uniform(0.5, 1.5, size=d)
        # Two-component mixture centered at zero: weight w at -m1, the
        # rest at +m2. Asymmetry plus unequal widths give each speaker
        # its own skewness and kurtosis signature.
        w = rng.uniform(0.25, 0.75)
        m1 = rng.uniform(0.5, 1.5)
        m2 = w * m1 / (1.0 - w)
        s1, s2 = rng.uniform(0.6, 1.4, size=2)
        for u in range(spec.utterances_per_speaker):
            t = int(rng.integers(spec.min_frames, spec.max_frames + 1))
            pick = rng.random((t, d)) < w
            gauss = rng.standard_normal((t, d))
            utt = f"{spk}_utt{u:04d}"
            yield (ManifestEntry(utt, spk, f"features/{utt}.xvf", t), mean, scales,
                   np.where(pick, -m1 + s1 * gauss, m2 + s2 * gauss))


def _write_block(out: Path, block: np.ndarray, rows: list, ar: float) -> None:
    """AR(1)-filter the first len(rows) utterances of a [T, U, D] innovation
    block in place, one time step for all of them, then scale and write
    each. Per value this is the per-frame recurrence frame[0] = innov[0],
    frame[i] = ar * frame[i - 1] + sqrt(1 - ar^2) * innov[i], in float64;
    frames past an utterance's length are padding and never written."""
    x = block[:max(entry.num_frames for entry, _, _ in rows), :len(rows)]
    x[1:] *= float(np.sqrt(1.0 - ar * ar))
    # the two rounded products are added as in the recurrence; IEEE
    # addition commutes, so adding the carried term second gives the same bits
    carried = np.empty(x.shape[1:])
    for i in range(1, x.shape[0]):
        np.multiply(x[i - 1], ar, out=carried)
        x[i] += carried
    for j, (entry, mean, scales) in enumerate(rows):
        frames = (mean + scales * x[:entry.num_frames, j]).astype(np.float32)
        write_features(out / entry.path, FeatureMatrix(entry.utt_id, entry.speaker_id, frames))


def generate_corpus(spec: CorpusSpec, out_dir: Path | str) -> Manifest:
    """Synthesize a corpus under out_dir and return its saved manifest.

    Draws come in the order the module docstring states, and the filter
    runs a block of READ_BLOCK values at a time with the per-frame
    recurrence's arithmetic: the bytes depend on the spec alone, whatever
    the block, and memory on the block, not on the corpus."""
    spec.validate()
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    per_block = min(max(1, READ_BLOCK // (spec.max_frames * spec.feature_dim)),
                    spec.num_speakers * spec.utterances_per_speaker)
    # zeros, not empty: padding is filtered too and must stay finite
    block = np.zeros((spec.max_frames, per_block, spec.feature_dim))
    entries: list[ManifestEntry] = []
    rows: list[tuple[ManifestEntry, np.ndarray, np.ndarray]] = []
    for entry, mean, scales, innov in _utterances(spec):
        block[:entry.num_frames, len(rows)] = innov
        rows.append((entry, mean, scales))
        entries.append(entry)
        if len(rows) == per_block:
            _write_block(out, block, rows, spec.ar_coeff)
            rows = []
    if rows:
        _write_block(out, block, rows, spec.ar_coeff)
    manifest = Manifest(entries, base_dir=out)
    manifest.save(out / "manifest.csv")
    return manifest


def energy_vad(fm: FeatureMatrix, threshold_offset: float) -> FeatureMatrix:
    """Keep frames whose coefficient 0 is >= mean(coefficient 0) - offset.

    Coefficient 0 is the energy-like term by corpus convention. An
    infinite offset keeps everything; removing every frame raises
    EmptyAfterVadError naming the utterance.
    """
    if fm.frames.ndim != 2 or fm.frames.shape[1] < 1:
        raise ConfigurationError(f"{fm.utt_id}: frames must be [T, D] with D >= 1")
    energy = fm.frames[:, 0].astype(np.float64)
    keep = energy >= energy.mean() - threshold_offset
    if not keep.any():
        raise EmptyAfterVadError(f"VAD removed every frame of utterance '{fm.utt_id}'")
    return FeatureMatrix(fm.utt_id, fm.speaker_id, fm.frames[keep])


@dataclass
class Batch:
    """Fixed-length crops plus labels and per-crop reconstruction targets."""

    features: np.ndarray            # [N, L, D] float32
    labels: np.ndarray              # [N] int64, indices into the speaker table
    targets: np.ndarray | None      # [N, order * D] float32, None when order == 0
    utt_ids: list[str] = field(default_factory=list)


def make_batches(manifest: Manifest, crop_length: int, batch_size: int,
                 seed: int, epoch: int, order: int = 4) -> Iterator[Batch]:
    """One epoch of shuffled fixed-length crops, one crop per utterance.

    Deterministic in (seed, epoch): the same pair yields the same batch
    stream. Utterances shorter than crop_length are skipped with a
    warning; a trailing group smaller than batch_size is dropped.
    Reconstruction targets are computed on exactly the cropped frames,
    for the whole batch in one call.
    """
    if crop_length < MIN_CROP:
        raise ConfigurationError(f"crop_length must be >= {MIN_CROP}, got {crop_length}")
    if batch_size < 2:
        raise ConfigurationError(f"batch_size must be >= 2, got {batch_size}")
    if order not in (0, 1, 2, 3, 4):
        raise ConfigurationError(f"moment order must be in 0..4, got {order}")
    if epoch < 0 or seed < 0:
        raise ConfigurationError("seed and epoch must be non-negative")

    eligible = [e for e in manifest if e.num_frames >= crop_length]
    skipped = len(manifest) - len(eligible)
    if skipped:
        log.warning("skipping %d utterance(s) shorter than %d frames", skipped, crop_length)
    if not eligible:
        raise DataError(f"no utterance has at least {crop_length} frames")

    spk_index = manifest.speaker_index()
    rng = np.random.default_rng([seed, epoch])
    perm = rng.permutation(len(eligible))

    for lo in range(0, len(perm) - batch_size + 1, batch_size):
        group = [eligible[i] for i in perm[lo: lo + batch_size]]
        feats = None
        labels = np.empty(batch_size, dtype=np.int64)
        ids = []
        for row, entry in enumerate(group):
            fm = manifest.load_features(entry)
            if feats is None:
                feats = np.empty((batch_size, crop_length, fm.feature_dim), dtype=np.float32)
            elif fm.feature_dim != feats.shape[2]:
                raise DimMismatchError(
                    f"{entry.utt_id}: feature dim {fm.feature_dim} != corpus dim {feats.shape[2]}")
            start = int(rng.integers(0, fm.num_frames - crop_length + 1))
            feats[row] = fm.frames[start: start + crop_length]
            labels[row] = spk_index[entry.speaker_id]
            ids.append(entry.utt_id)
        targets = hos_vector(feats, order).astype(np.float32) if order else None
        yield Batch(features=feats, labels=labels, targets=targets, utt_ids=ids)
