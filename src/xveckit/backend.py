"""Embedding post-processing and trial scoring.

Pipeline: center + LDA-project (Preprocessor), length-normalize, then
score with either cosine similarity or a two-covariance PLDA model
(speaker means drawn from N(m, B), observations from N(y, W)). PLDA is
fit by EM; scoring is the closed-form log-likelihood ratio of the
same-speaker against the different-speaker hypothesis.

LDA solves the generalized between/within eigenproblem by whitening the
within-class scatter and taking the symmetric eigendecomposition
(numpy.linalg.eigh, LAPACK); rows of the projection are sign-normalized
so the largest-magnitude entry is positive.

Backends persist in the same binary framing as model checkpoints under
the magic "XVBK", with the key=value metadata blob that binio writes and
parses; embedding archives under "XVEB". Trial files are text lines
"enroll_id test_id target|nontarget"; score files are
"enroll_id test_id score" with six decimal places.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import binio
from .errors import (
    BadMagicError,
    ConfigurationError,
    DataError,
    DimMismatchError,
    ParseError,
)

__all__ = [
    "Preprocessor",
    "fit_preprocessor",
    "length_normalize",
    "PldaModel",
    "fit_plda",
    "Trial",
    "ScoreSet",
    "score_trials",
    "all_pairs_trials",
    "read_trials",
    "write_trials",
    "read_scores",
    "write_scores",
    "save_backend",
    "load_backend",
    "write_embeddings",
    "read_embeddings",
]

log = logging.getLogger(__name__)

BACKEND_MAGIC = b"XVBK"
BACKEND_VERSION = 1
EMBEDDINGS_MAGIC = b"XVEB"
EMBEDDINGS_VERSION = 1


def _inv(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise DataError(f"{what} is singular; not enough independent data") from None


@dataclass
class Preprocessor:
    """Centering followed by an LDA projection to lda_dim rows."""

    mean: np.ndarray
    projection: np.ndarray  # [lda_dim, emb_dim]

    @property
    def lda_dim(self) -> int:
        return self.projection.shape[0]

    def apply(self, embeddings: np.ndarray) -> np.ndarray:
        x = np.asarray(embeddings, dtype=np.float64)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.mean.shape[0]:
            raise ConfigurationError(
                f"embeddings have dim {x.shape[1]}, preprocessor expects {self.mean.shape[0]}")
        y = (x - self.mean) @ self.projection.T
        return y[0] if single else y


@dataclass
class _ClassStats:
    """Per-speaker summary of labeled embeddings, over the retained rows
    (speakers with two or more embeddings), in first-appearance order."""

    x: np.ndarray                # all rows, float64
    counts: np.ndarray           # [C] retained rows per speaker
    class_means: np.ndarray      # [C, D]
    scatter_within: np.ndarray   # [D, D] summed, not normalized
    retained_mean: np.ndarray    # [D] mean of the retained rows


def _class_stats(embeddings: np.ndarray, labels, who: str) -> _ClassStats:
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigurationError(f"embeddings must be [N, D], got shape {x.shape}")
    if len(labels) != x.shape[0]:
        raise ConfigurationError(f"{x.shape[0]} embeddings but {len(labels)} labels")
    by: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by.setdefault(str(lab), []).append(i)
    retained = [np.array(idx) for idx in by.values() if len(idx) >= 2]
    dropped = sorted(lab for lab, idx in by.items() if len(idx) < 2)
    if dropped:
        log.warning("%s: excluding %d speaker(s) with a single embedding: %s", who, len(dropped),
                    ", ".join(dropped[:5]) + ("..." if len(dropped) > 5 else ""))
    if len(retained) < 2:
        raise DataError(f"{who} needs >= 2 speakers with >= 2 embeddings, have {len(retained)}")

    d = x.shape[1]
    class_means = np.stack([x[idx].mean(axis=0) for idx in retained])
    scatter_within = np.zeros((d, d))
    for idx, cls_mean in zip(retained, class_means):
        dev = x[idx] - cls_mean
        scatter_within += dev.T @ dev
    return _ClassStats(x=x, counts=np.array([idx.size for idx in retained]),
                       class_means=class_means, scatter_within=scatter_within,
                       retained_mean=x[np.concatenate(retained)].mean(axis=0))


def fit_preprocessor(embeddings: np.ndarray, labels, lda_dim: int) -> Preprocessor:
    """Fit centering and LDA on labeled embeddings.

    Speakers with fewer than two embeddings are dropped from the
    scatter estimates with a warning. Scatters are population-normalized
    over the retained rows. The within-class scatter is probed with a
    Cholesky factorization; if that fails, a ridge of
    1e-4 * trace/dim is added once and the fit retried.
    """
    stats = _class_stats(embeddings, labels, "LDA")
    x = stats.x
    d = x.shape[1]
    n_classes = stats.counts.size
    max_dim = min(d, n_classes - 1)
    if not 1 <= lda_dim <= max_dim:
        raise ConfigurationError(
            f"lda_dim must lie in [1, {max_dim}] for {n_classes} speakers of dim {d}, got {lda_dim}")

    n_retained = stats.counts.sum()
    s_within = stats.scatter_within / n_retained
    s_between = np.zeros((d, d))
    for n, cls_mean in zip(stats.counts, stats.class_means):
        offset = cls_mean - stats.retained_mean
        s_between += n * np.outer(offset, offset)
    s_between /= n_retained

    try:
        np.linalg.cholesky(s_within)
    except np.linalg.LinAlgError:
        ridge = 1e-4 * np.trace(s_within) / d
        log.warning("LDA: within-class scatter not positive definite, adding ridge %.3e", ridge)
        s_within = s_within + ridge * np.eye(d)
        try:
            np.linalg.cholesky(s_within)
        except np.linalg.LinAlgError:
            raise DataError("within-class scatter is singular even after regularization") from None

    w_evals, w_evecs = np.linalg.eigh(s_within)
    if w_evals.min() <= 0:
        raise DataError("within-class scatter has a non-positive eigenvalue")
    w_inv_half = (w_evecs * (1.0 / np.sqrt(w_evals))) @ w_evecs.T
    m = w_inv_half @ s_between @ w_inv_half
    m = 0.5 * (m + m.T)
    m_evals, m_evecs = np.linalg.eigh(m)
    order = np.argsort(m_evals)[::-1][:lda_dim]
    projection = (w_inv_half @ m_evecs[:, order]).T
    # one deterministic sign per row: largest-magnitude entry positive
    for row in projection:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    return Preprocessor(mean=x.mean(axis=0), projection=projection)


def length_normalize(embeddings: np.ndarray) -> np.ndarray:
    """Scale vectors (or rows) to unit Euclidean norm."""
    x = np.asarray(embeddings, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError("cannot length-normalize a zero embedding")
    y = x / norms[:, None]
    return y[0] if single else y


@dataclass
class PldaModel:
    """Two-covariance model: y ~ N(mean, between), x | y ~ N(y, within)."""

    mean: np.ndarray
    between: np.ndarray
    within: np.ndarray
    log_likelihoods: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _marginal_log_likelihood(m: np.ndarray, between: np.ndarray, within: np.ndarray,
                             counts: np.ndarray, class_means: np.ndarray,
                             s_within_total: np.ndarray, n_total: int) -> float:
    d = m.shape[0]
    n_classes = counts.shape[0]
    w_inv = _inv(within, "within-speaker covariance")
    sign, logdet_w = np.linalg.slogdet(within)
    if sign <= 0:
        raise DataError("within-speaker covariance is not positive definite")
    ll = -0.5 * (n_total * d * np.log(2.0 * np.pi)
                 + (n_total - n_classes) * logdet_w
                 + np.trace(w_inv @ s_within_total))
    for n in np.unique(counts):
        sel = counts == n
        cov_n = within + n * between
        sign, logdet_n = np.linalg.slogdet(cov_n)
        if sign <= 0:
            raise DataError("speaker-mean covariance is not positive definite")
        dev = class_means[sel] - m
        quad = np.einsum("id,de,ie->i", dev, _inv(cov_n, "speaker-mean covariance"), dev)
        ll += -0.5 * (sel.sum() * logdet_n + n * quad.sum())
    return float(ll)


def fit_plda(embeddings: np.ndarray, labels, num_iterations: int = 20,
             init: PldaModel | None = None) -> PldaModel:
    """Fit the two-covariance model by EM.

    Speakers with a single embedding are excluded with a warning. By
    default the model is initialized from the data scatters (which makes
    the whole fit equivariant under invertible affine maps of the
    input); pass init to start elsewhere. The marginal log-likelihood is
    recorded before training and after every iteration in
    model.log_likelihoods; EM guarantees the sequence is non-decreasing.
    """
    if num_iterations < 1:
        raise ConfigurationError(f"num_iterations must be >= 1, got {num_iterations}")
    stats = _class_stats(embeddings, labels, "PLDA")
    counts, class_means, s_within_total = stats.counts, stats.class_means, stats.scatter_within
    n_classes = counts.size
    n_total = int(counts.sum())

    if init is not None:
        m = np.array(init.mean, dtype=np.float64)
        between = np.array(init.between, dtype=np.float64)
        within = np.array(init.within, dtype=np.float64)
    else:
        m = stats.retained_mean
        dev = class_means - m
        between = dev.T @ dev / n_classes
        within = s_within_total / n_total

    lls = [_marginal_log_likelihood(m, between, within, counts, class_means,
                                    s_within_total, n_total)]
    for _ in range(num_iterations):
        b_inv = _inv(between, "between-speaker covariance")
        w_inv = _inv(within, "within-speaker covariance")
        post_means = np.empty_like(class_means)
        post_covs: dict[int, np.ndarray] = {}
        for n in np.unique(counts):
            post_covs[int(n)] = _inv(b_inv + n * w_inv, "posterior precision")
        base = b_inv @ m
        for i, n in enumerate(counts):
            post_means[i] = post_covs[int(n)] @ (base + w_inv @ (n * class_means[i]))

        m = post_means.mean(axis=0)
        dev = post_means - m
        between = dev.T @ dev
        for n, cov in post_covs.items():
            between += (counts == n).sum() * cov
        between /= n_classes
        between = 0.5 * (between + between.T)

        within = s_within_total.copy()
        resid = class_means - post_means
        within += (resid * counts[:, None]).T @ resid
        for n, cov in post_covs.items():
            within += counts[counts == n].sum() * cov
        within /= n_total
        within = 0.5 * (within + within.T)
        lls.append(_marginal_log_likelihood(m, between, within, counts, class_means,
                                            s_within_total, n_total))
    return PldaModel(mean=m, between=between, within=within, log_likelihoods=lls)


@dataclass
class Trial:
    enroll_id: str
    test_id: str
    target: bool


@dataclass
class ScoreSet:
    trials: list[Trial]
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.trials)

    def target_scores(self) -> np.ndarray:
        mask = np.array([t.target for t in self.trials], dtype=bool)
        return self.scores[mask]

    def nontarget_scores(self) -> np.ndarray:
        mask = np.array([not t.target for t in self.trials], dtype=bool)
        return self.scores[mask]


class _PldaScorer:
    """Closed-form same/different log-likelihood ratio, vectorized."""

    def __init__(self, model: PldaModel):
        d = model.dim
        total = model.between + model.within
        lam = _inv(total, "total covariance")
        joint = np.block([[total, model.between], [model.between, total]])
        j_inv = _inv(joint, "joint covariance")
        sign_t, logdet_t = np.linalg.slogdet(total)
        sign_j, logdet_j = np.linalg.slogdet(joint)
        if sign_t <= 0 or sign_j <= 0:
            raise DataError("PLDA covariances are not positive definite")
        self.mean = model.mean
        self.quad = j_inv[:d, :d] - lam
        self.cross = j_inv[:d, d:]
        self.const = -0.5 * (logdet_j - 2.0 * logdet_t)

    def score(self, enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
        e = enroll - self.mean
        t = test - self.mean
        return (self.const
                - 0.5 * np.sum((e @ self.quad) * e, axis=1)
                - 0.5 * np.sum((t @ self.quad) * t, axis=1)
                - np.sum((e @ self.cross) * t, axis=1))


def score_trials(trials: list[Trial], embeddings: dict[str, np.ndarray],
                 preprocessor: Preprocessor | None = None,
                 scorer: "str | PldaModel" = "cosine",
                 length_norm: bool = True) -> ScoreSet:
    """Score trials against an id -> vector table.

    The chain is preprocessor (if given), then length normalization,
    then the scorer. Cosine scoring always normalizes, so its scores
    are inner products of unit vectors; for PLDA the length_norm flag
    controls the normalization stage. Unknown trial ids raise DataError
    naming the trial.
    """
    if not trials:
        raise DataError("empty trial list")
    if not (scorer == "cosine" or isinstance(scorer, PldaModel)):
        raise ConfigurationError(f"scorer must be 'cosine' or a PldaModel, got {scorer!r}")
    for i, trial in enumerate(trials, start=1):
        for utt in (trial.enroll_id, trial.test_id):
            if utt not in embeddings:
                raise DataError(f"trial {i}: no embedding for utterance '{utt}'")

    ids = sorted({t.enroll_id for t in trials} | {t.test_id for t in trials})
    x = np.stack([np.asarray(embeddings[u], dtype=np.float64) for u in ids])
    if preprocessor is not None:
        x = preprocessor.apply(x)
    if scorer == "cosine" or length_norm:
        x = length_normalize(x)
    row = {u: i for i, u in enumerate(ids)}
    enroll = x[[row[t.enroll_id] for t in trials]]
    test = x[[row[t.test_id] for t in trials]]
    if scorer == "cosine":
        scores = np.sum(enroll * test, axis=1)
    else:
        scores = _PldaScorer(scorer).score(enroll, test)
    return ScoreSet(trials=list(trials), scores=scores)


def all_pairs_trials(speaker_of: dict[str, str]) -> list[Trial]:
    """Every unordered pair of distinct utterances, labeled by speaker match."""
    ids = sorted(speaker_of)
    if len(ids) < 2:
        raise DataError("need at least 2 utterances to form trials")
    return [Trial(a, b, speaker_of[a] == speaker_of[b])
            for i, a in enumerate(ids) for b in ids[i + 1:]]


def read_trials(path: Path | str) -> list[Trial]:
    path = Path(path)
    trials = []
    with binio.open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'enroll test label', got {line!r}")
            if parts[2] not in ("target", "nontarget"):
                raise DataError(f"{path}:{lineno}: label must be target|nontarget, got {parts[2]!r}")
            trials.append(Trial(parts[0], parts[1], parts[2] == "target"))
    if not trials:
        raise DataError(f"{path}: no trials")
    return trials


def write_trials(path: Path | str, trials: list[Trial]) -> None:
    with binio.atomic_write(path, "w") as fh:
        for t in trials:
            fh.write(f"{t.enroll_id} {t.test_id} {'target' if t.target else 'nontarget'}\n")


def write_scores(path: Path | str, score_set: ScoreSet) -> None:
    with binio.atomic_write(path, "w") as fh:
        for trial, score in zip(score_set.trials, score_set.scores):
            fh.write(f"{trial.enroll_id} {trial.test_id} {score:.6f}\n")


def read_scores(path: Path | str) -> dict[tuple[str, str], float]:
    path = Path(path)
    scores: dict[tuple[str, str], float] = {}
    with binio.open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'enroll test score', got {line!r}")
            try:
                value = float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {parts[2]!r}") from None
            scores[(parts[0], parts[1])] = value
    if not scores:
        raise DataError(f"{path}: no scores")
    return scores


def save_backend(path: Path | str, preprocessor: Preprocessor,
                 plda: PldaModel | None = None, length_norm: bool = True) -> None:
    meta = {"emb_dim": preprocessor.mean.shape[0], "lda_dim": preprocessor.lda_dim,
            "length_norm": int(length_norm), "has_plda": int(plda is not None)}
    with binio.atomic_write(path) as fh:
        fh.write(BACKEND_MAGIC)
        binio.write_u32(fh, BACKEND_VERSION)
        binio.write_meta(fh, meta)
        arrays = [preprocessor.mean, preprocessor.projection]
        if plda is not None:
            arrays += [plda.mean, plda.between, plda.within]
        binio.write_u32(fh, len(arrays))
        for arr in arrays:
            binio.write_array(fh, arr)


def load_backend(path: Path | str) -> tuple[Preprocessor, PldaModel | None, bool]:
    path = Path(path)
    reader = binio.Reader(path.read_bytes(), str(path))
    if reader.take(4) != BACKEND_MAGIC:
        raise BadMagicError(f"{path}: not a backend file (bad magic)")
    version = reader.u32()
    if version != BACKEND_VERSION:
        raise ParseError(f"{path}: unsupported backend version {version}")
    meta = reader.meta()
    try:
        emb_dim = int(meta["emb_dim"])
        lda_dim = int(meta["lda_dim"])
        length_norm = bool(int(meta["length_norm"]))
        has_plda = bool(int(meta["has_plda"]))
    except (KeyError, ValueError) as err:
        raise ParseError(f"{path}: bad backend metadata ({err})") from None
    count = reader.u32()
    expected = 5 if has_plda else 2
    if count != expected:
        raise DimMismatchError(f"{path}: expected {expected} tensors, file has {count}")
    arrays = [np.asarray(binio.read_array(reader), dtype=np.float64) for _ in range(count)]
    reader.expect_exhausted()
    mean, projection = arrays[0], arrays[1]
    if mean.shape != (emb_dim,) or projection.shape != (lda_dim, emb_dim):
        raise DimMismatchError(f"{path}: tensor shapes disagree with metadata")
    pre = Preprocessor(mean=mean, projection=projection)
    plda = None
    if has_plda:
        p_mean, between, within = arrays[2], arrays[3], arrays[4]
        if p_mean.shape != (lda_dim,) or between.shape != (lda_dim, lda_dim) \
                or within.shape != (lda_dim, lda_dim):
            raise DimMismatchError(f"{path}: PLDA tensor shapes disagree with metadata")
        plda = PldaModel(mean=p_mean, between=between, within=within)
    return pre, plda, length_norm


def write_embeddings(path: Path | str, vectors: dict[str, np.ndarray],
                     speakers: dict[str, str]) -> None:
    """Archive utterance embeddings plus their speaker labels."""
    if not vectors:
        raise DataError("no embeddings to write")
    dims = {np.asarray(v).shape for v in vectors.values()}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise ConfigurationError(f"embeddings must share one 1-d shape, got {sorted(dims)}")
    dim = next(iter(dims))[0]
    with binio.atomic_write(path) as fh:
        fh.write(EMBEDDINGS_MAGIC)
        binio.write_u32(fh, EMBEDDINGS_VERSION)
        binio.write_u32(fh, len(vectors))
        binio.write_u32(fh, dim)
        for utt, vec in vectors.items():
            binio.write_blob(fh, utt.encode("utf-8"))
            binio.write_blob(fh, speakers.get(utt, "").encode("utf-8"))
            fh.write(np.ascontiguousarray(vec, dtype="<f4").tobytes())


def read_embeddings(path: Path | str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    path = Path(path)
    reader = binio.Reader(path.read_bytes(), str(path))
    if reader.take(4) != EMBEDDINGS_MAGIC:
        raise BadMagicError(f"{path}: not an embedding archive (bad magic)")
    version = reader.u32()
    if version != EMBEDDINGS_VERSION:
        raise ParseError(f"{path}: unsupported embedding archive version {version}")
    count = reader.u32()
    dim = reader.u32()
    vectors: dict[str, np.ndarray] = {}
    speakers: dict[str, str] = {}
    for _ in range(count):
        utt = reader.text()
        spk = reader.text()
        vec = np.frombuffer(reader.take(4 * dim), dtype="<f4").astype(np.float64)
        if utt in vectors:
            raise DataError(f"{path}: duplicate utterance id '{utt}'")
        vectors[utt] = vec
        speakers[utt] = spk
    reader.expect_exhausted()
    if vectors:  # one check over all rows: a per-vector one costs more than the read
        finite = np.isfinite(np.stack(list(vectors.values()))).all(axis=1)
        if not finite.all():
            utt = list(vectors)[int(np.argmin(finite))]
            raise ParseError(f"{path}: non-finite value in the embedding of utterance '{utt}'")
    return vectors, speakers
