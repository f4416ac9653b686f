"""Embedding post-processing and trial scoring.

Pipeline: center + LDA-project (Preprocessor), length-normalize, then
score with either cosine similarity or a two-covariance PLDA model
(speaker means drawn from N(m, B), observations from N(y, W)). PLDA is
fit by EM; scoring is the closed-form log-likelihood ratio of the
same-speaker against the different-speaker hypothesis.

score_trials returns one float64 score per trial, in trial order: a PLDA
log-likelihood ratio when given a PldaModel, a cosine similarity
otherwise. It works per utterance, then per block of trials. Each
utterance a trial list names is preprocessed and normalized once, and
PLDA computes its quadratic form and its product with the cross matrix
once; the trials are then scored SCORE_BLOCK at a time, each a gather of
its two rows and one dot product. So the cost is O(U d^2 + T d) time and
O(U d + SCORE_BLOCK d) memory for U utterances and T trials, beside a
few int and float columns of length T. A trial list that names one
(enroll, test) pair twice is rejected by _check_unique, for score_trials
and for trial_scores alike.

Trial lists and score files are columns, not one object per trial.
Trials holds the enroll and test ids and a bool target array, and reads
as a sequence of Trial rows; Scores holds the ids and a float64 value
array, and reads as a mapping (enroll, test) -> score. Either file is
read once, the field count of every line is checked on the whole text,
and the columns are slices of one split of it; only a malformed file is
read again, line by line, to name its first bad line. trial_scores joins
a score file to a trial list by integer pair codes, in any line order.

LDA solves the generalized between/within eigenproblem by whitening the
within-class scatter and taking the symmetric eigendecomposition
(numpy.linalg.eigh, LAPACK); rows of the projection are sign-normalized
so the largest-magnitude entry is positive.

Backends are tensor containers under the magic "XVBK", the framing of
model checkpoints, owned by binio.write_container/read_container. Their
metadata holds length_norm alone; the tensors are the centering mean and
the LDA projection, then the PLDA mean, between and within covariances
when PLDA was fit, and the dimensions are read off their shapes.
Embedding archives ("XVEB") are framed here and check their magic and
version through binio.Reader.header. Trial files are text lines
"enroll_id test_id target|nontarget"; score files are
"enroll_id test_id score" with six decimal places, one line per trial.
"""

from __future__ import annotations

import logging
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import binio
from .errors import ConfigurationError, DataError, DimMismatchError, ParseError

__all__ = [
    "Preprocessor",
    "fit_preprocessor",
    "length_normalize",
    "PldaModel",
    "fit_plda",
    "Trial",
    "Trials",
    "Scores",
    "SCORE_BLOCK",
    "score_trials",
    "trial_scores",
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
# Trials gathered and reduced at once when scoring, and lines formatted at
# once when writing: the temporaries of score_trials are O(SCORE_BLOCK x d).
SCORE_BLOCK = 1024


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


def check_lda_dim(lda_dim: int, counts, dim: int) -> None:
    """LDA on speakers of `counts` embeddings each, of dimension dim, finds
    at most min(dim, C - 1) directions, C the speakers with two or more."""
    n_classes = sum(n >= 2 for n in counts)
    max_dim = min(dim, n_classes - 1)
    if not 1 <= lda_dim <= max_dim:
        raise ConfigurationError(
            f"lda_dim must lie in [1, {max_dim}] for {n_classes} speakers of dim {dim}, got {lda_dim}")


def fit_preprocessor(embeddings: np.ndarray, labels, lda_dim: int) -> Preprocessor:
    """Fit centering and LDA on labeled embeddings.

    Speakers with fewer than two embeddings are dropped from the
    scatter estimates with a warning. Scatters are population-normalized
    over the retained rows. The within-class scatter is probed with a
    Cholesky factorization; if that fails, a ridge of
    1e-4 * trace/dim is added once and the fit retried. A scatter whose
    trace is at most float64 epsilon times the total scatter's (every
    speaker's embeddings identical, up to rounding) raises at once.
    """
    stats = _class_stats(embeddings, labels, "LDA")
    x = stats.x
    d = x.shape[1]
    check_lda_dim(lda_dim, stats.counts, d)

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
        trace = np.trace(s_within)
        # a scatter at the rounding noise of the total one has no scale to
        # take a ridge from
        if trace > np.finfo(np.float64).eps * (trace + np.trace(s_between)):
            ridge = 1e-4 * trace / d
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


class Trials(Sequence):
    """A trial list as columns: enroll ids, test ids and a bool target
    array, in trial order. It reads as a sequence of Trial rows, each made
    when it is asked for: len, an int index (a slice gives a Trials) and
    iteration."""

    def __init__(self, enroll: list[str], test: list[str], target: np.ndarray):
        if not len(enroll) == len(test) == len(target):
            raise ValueError(f"trial columns of lengths {len(enroll)}, {len(test)}, {len(target)}")
        self.enroll, self.test, self.target = enroll, test, np.asarray(target, dtype=bool)

    @classmethod
    def of(cls, rows) -> Trials:
        """`rows` as columns: a Trials as it is, other Trial rows copied."""
        if isinstance(rows, Trials):
            return rows
        return cls([t.enroll_id for t in rows], [t.test_id for t in rows],
                   np.array([t.target for t in rows], dtype=bool))

    def __len__(self) -> int:
        return len(self.enroll)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trials(self.enroll[i], self.test[i], self.target[i])
        return Trial(self.enroll[i], self.test[i], bool(self.target[i]))

    def __iter__(self):
        return map(Trial, self.enroll, self.test, self.target.tolist())


class Scores(Mapping):
    """A score file as columns: enroll ids, test ids and a float64 value
    array, one entry per line, in file order. It reads as a Mapping
    (enroll, test) -> float, whose key index is built on the first key
    lookup; the columns themselves need none."""

    def __init__(self, enroll: list[str], test: list[str], value: np.ndarray):
        self.enroll, self.test, self.value = enroll, test, value
        self._index: dict[tuple[str, str], int] | None = None

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return zip(self.enroll, self.test)

    def __getitem__(self, key: tuple[str, str]) -> float:
        if self._index is None:
            self._index = dict(zip(zip(self.enroll, self.test), range(len(self.value))))
        return float(self.value[self._index[key]])


def _id_rows(ids: list[str], *columns: list[str]) -> list[np.ndarray]:
    """Each column's ids as rows of `ids`, which must hold them all."""
    row = {u: i for i, u in enumerate(ids)}
    return [np.fromiter(map(row.__getitem__, col), np.intp, len(col)) for col in columns]


def _pair_codes(*columns: list[str]) -> list[np.ndarray]:
    """One int code per (columns[2k][i], columns[2k + 1][i]) id pair, for
    each column pair given: two pairs share a code iff their ids match."""
    ids = sorted(set().union(*columns))
    rows = _id_rows(ids, *columns)
    return [first * len(ids) + second for first, second in zip(rows[0::2], rows[1::2])]


def _first_repeat(codes: np.ndarray) -> tuple[int, int] | None:
    """(i, j) for the first position i whose code an earlier position
    holds, j the first such position; None if the codes are distinct."""
    ranked = np.sort(codes)
    if not (ranked[1:] == ranked[:-1]).any():
        return None
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    i = int(order[1:][ranked[1:] == ranked[:-1]].min())
    return i, int(order[np.searchsorted(ranked, codes[i])])


def _check_unique(trials: Trials, codes: np.ndarray) -> None:
    """Raise DataError naming the first trial that repeats an earlier
    (enroll, test) pair, whatever the labels, from the trials' pair codes
    (or those of the first trials)."""
    repeat = _first_repeat(codes)
    if repeat is not None:
        i, j = repeat
        raise DataError(f"trial {i + 1}: repeats trial {j + 1} ({trials.enroll[i]} {trials.test[i]})")


def score_trials(trials: Trials | list[Trial], embeddings: dict[str, np.ndarray],
                 preprocessor: Preprocessor | None = None, plda: PldaModel | None = None,
                 length_norm: bool = True) -> np.ndarray:
    """Score trials against an id -> vector table; float64, in trial order.

    Each utterance the trials name is processed once: the chain is
    preprocessor (if given), then length normalization, then the
    scorer's per-utterance terms. The trials are then scored SCORE_BLOCK
    at a time, each a gather of its two rows and one dot product. Without
    `plda` the scores are cosine similarities, which always normalize;
    with it they are PLDA log-likelihood ratios, and the length_norm flag
    controls the normalization stage. Unknown trial ids, and a trial list
    naming one (enroll, test) pair twice, raise DataError naming the first
    trial at fault.
    """
    trials = Trials.of(trials)
    if not len(trials):
        raise DataError("empty trial list")
    ids = sorted(set(trials.enroll).union(trials.test))
    enroll, test = _id_rows(ids, trials.enroll, trials.test)
    known = np.array([u in embeddings for u in ids])
    if not known.all():
        i = int(np.argmax(~known[enroll] | ~known[test]))
        utt = trials.enroll[i] if not known[enroll[i]] else trials.test[i]
        raise DataError(f"trial {i + 1}: no embedding for utterance '{utt}'")
    _check_unique(trials, enroll * len(ids) + test)

    x = np.stack([np.asarray(embeddings[u], dtype=np.float64) for u in ids])
    if preprocessor is not None:
        x = preprocessor.apply(x)
    if plda is None or length_norm:
        x = length_normalize(x)
    if plda is None:
        left, right = x, x
    else:
        enroll_term, test_term, left, right = _plda_terms(plda, x)
    scores = np.empty(len(trials))
    for lo in range(0, len(trials), SCORE_BLOCK):
        e, t = enroll[lo:lo + SCORE_BLOCK], test[lo:lo + SCORE_BLOCK]
        products = left[e]
        products *= right[t]
        dots = np.sum(products, axis=1)
        scores[lo:lo + SCORE_BLOCK] = dots if plda is None else enroll_term[e] - test_term[t] - dots
    return scores


def _plda_terms(model: PldaModel, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-row terms of the closed-form same/different log-likelihood ratio
    of rows e and t of x, const - q[e]/2 - q[t]/2 - a[e] . xc[t]: the enroll
    term const - q/2, the test term q/2, then a and xc."""
    d = model.dim
    total = model.between + model.within
    lam = _inv(total, "total covariance")
    joint = np.block([[total, model.between], [model.between, total]])
    j_inv = _inv(joint, "joint covariance")
    sign_t, logdet_t = np.linalg.slogdet(total)
    sign_j, logdet_j = np.linalg.slogdet(joint)
    if sign_t <= 0 or sign_j <= 0:
        raise DataError("PLDA covariances are not positive definite")
    const = -0.5 * (logdet_j - 2.0 * logdet_t)
    xc = x - model.mean
    half_q = 0.5 * np.sum((xc @ (j_inv[:d, :d] - lam)) * xc, axis=1)
    return const - half_q, half_q, xc @ j_inv[:d, d:], xc


def trial_scores(trials: Trials, scores: Scores, source: Path | str) -> np.ndarray:
    """Each trial's score, matched by its (enroll, test) pair; scores of
    pairs the trial list does not hold are ignored. Raises DataError
    naming the first trial that repeats an earlier one or has no score in
    `source`, whichever comes first."""
    want, have = _pair_codes(trials.enroll, trials.test, scores.enroll, scores.test)
    by_want, by_have = np.argsort(want), np.argsort(have)
    at = np.empty_like(by_want)  # searched in sorted order, which keeps the search in cache
    at[by_want] = by_have[np.minimum(np.searchsorted(have[by_have], want[by_want]), len(have) - 1)]
    missing = have[at] != want
    first_missing = int(np.argmax(missing)) if missing.any() else len(want)
    _check_unique(trials, want[:first_missing])
    if first_missing < len(want):
        i = first_missing
        raise DataError(f"trial {i + 1} ({trials.enroll[i]} {trials.test[i]}) "
                        f"has no score in {source}")
    return scores.value[at]


def all_pairs_trials(speaker_of: dict[str, str]) -> Trials:
    """Every unordered pair of distinct utterances, labeled by speaker match."""
    ids = sorted(speaker_of)
    if len(ids) < 2:
        raise DataError("need at least 2 utterances to form trials")
    codes: dict[str, int] = {}
    speaker = np.array([codes.setdefault(speaker_of[u], len(codes)) for u in ids])
    first, second = np.triu_indices(len(ids), k=1)
    names = np.array(ids, dtype=object)
    return Trials(names[first].tolist(), names[second].tolist(),
                  speaker[first] == speaker[second])


_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])


def _three_fields_a_line(text: str) -> bool:
    """Whether each line of `text` holds three fields or none, fields being
    str.split's, without splitting a line."""
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), np.uint8)
        space = _ASCII_SPACE[chars]
    else:
        chars = np.frombuffer(text.encode("utf-32-le"), "<u4")
        space = np.isin(chars, [c for c in np.unique(chars).tolist() if chr(c).isspace()])
    newline = chars == ord("\n")
    start = ~space
    start[1:] &= space[:-1]
    # in text order, a 0 byte per field start and a 1 per line end: every
    # line reads 0001 or 1, so dropping each 0001 leaves no 0
    events = newline[start | newline].tobytes() + b"\1"
    return b"\0" not in events.replace(b"\0\0\0\1", b"\1")


def _read_columns(path: Path) -> tuple[list[str], list[str], list[str]] | None:
    """The three columns of a file of three-field lines, blank lines
    skipped, from one read; None if some line holds another count."""
    with binio.open_text(path) as fh:
        text = fh.read()
    if not _three_fields_a_line(text):
        return None
    fields = text.split()
    del text
    return fields[0::3], fields[1::3], fields[2::3]


def _lines(path: Path, third: str):
    """(line number, fields) of each non-blank line, read one at a time; a
    line of other than three fields raises DataError naming it."""
    with binio.open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) == 3:
                yield lineno, parts
            elif parts:
                raise DataError(f"{path}:{lineno}: expected 'enroll test {third}', "
                                f"got {line.strip()!r}")


def _interned(ids: list[str]) -> list[str]:
    """One string object per distinct id, not one per line."""
    return list(map(sys.intern, ids))


_LABELS = ("nontarget", "target")


def read_trials(path: Path | str) -> Trials:
    """A trial file as columns. The file is read once and checked as a
    whole; only a malformed one is read again, line by line, to name its
    first bad line."""
    path = Path(path)
    columns = _read_columns(path)
    if columns is None or not set(columns[2]) <= set(_LABELS):
        columns = [], [], []
        for lineno, (enroll, test, label) in _lines(path, "label"):
            if label not in _LABELS:
                raise DataError(f"{path}:{lineno}: label must be target|nontarget, got {label!r}")
            for column, field in zip(columns, (enroll, test, label)):
                column.append(field)
    enroll, test, labels = columns
    if not labels:
        raise DataError(f"{path}: no trials")
    return Trials(_interned(enroll), _interned(test),
                  np.fromiter(map("target".__eq__, labels), bool, len(labels)))


def write_trials(path: Path | str, trials: Trials | list[Trial]) -> None:
    trials = Trials.of(trials)
    with binio.atomic_write(path, "w") as fh:
        for lo in range(0, len(trials), SCORE_BLOCK):
            hi = lo + SCORE_BLOCK
            fh.write("".join([f"{e} {t} {_LABELS[target]}\n" for e, t, target in zip(
                trials.enroll[lo:hi], trials.test[lo:hi], trials.target[lo:hi].tolist())]))


def write_scores(path: Path | str, trials: Trials | list[Trial], scores: np.ndarray) -> None:
    trials = Trials.of(trials)
    if len(scores) != len(trials):
        raise ValueError(f"{len(scores)} scores for {len(trials)} trials")
    with binio.atomic_write(path, "w") as fh:
        for lo in range(0, len(trials), SCORE_BLOCK):
            hi = lo + SCORE_BLOCK
            fh.write("".join([f"{e} {t} {score:.6f}\n" for e, t, score in zip(
                trials.enroll[lo:hi], trials.test[lo:hi], scores[lo:hi].tolist())]))


def read_scores(path: Path | str) -> Scores:
    """A score file as columns. A trial scored on two lines raises
    DataError naming the second. The file is read once and checked as a
    whole; only a malformed one is read again, line by line, to name its
    first bad line."""
    path = Path(path)
    columns = _read_columns(path)
    if columns is not None:
        try:
            value = np.fromiter(map(float, columns[2]), np.float64, len(columns[2]))
        except ValueError:
            columns = None
    if columns is None or _first_repeat(*_pair_codes(columns[0], columns[1])) is not None:
        columns, seen = ([], [], []), set()
        for lineno, (enroll, test, text) in _lines(path, "score"):
            try:
                score = float(text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {text!r}") from None
            if (enroll, test) in seen:
                raise DataError(f"{path}:{lineno}: a second score for trial {enroll} {test}")
            seen.add((enroll, test))
            for column, field in zip(columns, (enroll, test, score)):
                column.append(field)
        value = np.array(columns[2], dtype=np.float64)
    if not len(value):
        raise DataError(f"{path}: no scores")
    return Scores(_interned(columns[0]), _interned(columns[1]), value)


def save_backend(path: Path | str, preprocessor: Preprocessor,
                 plda: PldaModel | None = None, length_norm: bool = True) -> None:
    arrays = [preprocessor.mean, preprocessor.projection]
    if plda is not None:
        arrays += [plda.mean, plda.between, plda.within]
    binio.write_container(path, BACKEND_MAGIC, BACKEND_VERSION,
                          {"length_norm": int(length_norm)}, arrays)


def load_backend(path: Path | str) -> tuple[Preprocessor, PldaModel | None, bool]:
    meta, arrays = binio.read_container(path, BACKEND_MAGIC, BACKEND_VERSION, "a backend file")
    try:
        length_norm = bool(int(meta["length_norm"]))
    except (KeyError, ValueError) as err:
        raise ParseError(f"{path}: bad backend metadata ({err})") from None
    if len(arrays) not in (2, 5):
        raise DimMismatchError(f"{path}: expected 2 or 5 tensors, file has {len(arrays)}")
    mean, projection, *plda_arrays = [np.asarray(arr, dtype=np.float64) for arr in arrays]
    if projection.ndim != 2 or mean.shape != projection.shape[1:]:
        raise DimMismatchError(f"{path}: mean shaped {mean.shape} does not fit "
                               f"projection shaped {projection.shape}")
    plda = None
    if plda_arrays:
        p_mean, between, within = plda_arrays
        k = projection.shape[0]
        if p_mean.shape != (k,) or between.shape != (k, k) or within.shape != (k, k):
            raise DimMismatchError(f"{path}: PLDA tensor shapes do not fit LDA dim {k}")
        plda = PldaModel(mean=p_mean, between=between, within=within)
    return Preprocessor(mean=mean, projection=projection), plda, length_norm


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
    reader.header(EMBEDDINGS_MAGIC, EMBEDDINGS_VERSION, "an embedding archive")
    count = reader.u32()
    dim = reader.u32()
    if count == 0:
        raise ParseError(f"{path}: the archive holds no embeddings")
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
    finite = np.isfinite(np.stack(list(vectors.values()))).all(axis=1)
    if not finite.all():  # one check over all rows: a per-vector one costs more than the read
        utt = list(vectors)[int(np.argmin(finite))]
        raise ParseError(f"{path}: non-finite value in the embedding of utterance '{utt}'")
    return vectors, speakers
