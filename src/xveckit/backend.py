"""Embedding post-processing and trial scoring.

Pipeline: center + LDA-project (Preprocessor), length-normalize, then
score with either cosine similarity or a two-covariance PLDA model
(speaker means drawn from N(m, B), observations from N(y, W)). PLDA is
fit by EM from the data scatters; scoring is the closed-form
log-likelihood ratio of the same-speaker against the different-speaker
hypothesis. Preprocessor.apply and length_normalize map [N, D] rows and
raise ConfigurationError on any other shape.

score_trials takes a Trials (as read_trials and all_pairs_trials return)
and returns one float64 score per trial, in trial order. It works per
utterance, then per block of trials (its docstring says how), so the
cost is O(U d^2 + T d) time and O(U d + SCORE_BLOCK d) memory for U
utterances and T trials, beside a few int and float columns of length
T. Both scorers are symmetric, so a
trial list that names one pair twice, as (a, b) or (b, a), is rejected by
_check_unique, for score_trials and for trial_scores alike, and a score
file that scores one pair twice by read_scores.

Trial lists and score files are id rows, not one object per trial: a
table of the distinct ids and, per trial, the rows of its enroll and
test ids in it. Trials adds a bool target array and reads as a sequence
of Trial rows; Scores adds a float64 value array and reads as a mapping
(enroll, test) -> score. Either file is read READ_BLOCK characters at a
time, cut back to whole lines: the field count of each line of a block is
checked with numpy on its character codes, and its fields become rows of
the file's one id table and its third column. Only a malformed file is
read again, line by line, to name its first bad line. trial_scores maps
a score file's table into the trial list's and joins the two on the
unordered pair (_pair_codes, the key of the repeat checks too), in any
line order: trial (b, a) takes the score of line "a b".

LDA and PLDA code the speaker labels once as integers, in sorted label
order, and sum over the row groups of one stable sort of the codes; an
empty label raises DataError. The PLDA E-step makes one posterior
covariance per distinct embedding count. LDA whitens the within-class
scatter and takes the symmetric eigendecomposition (numpy.linalg.eigh)
of the between one; rows of the projection are sign-normalized so the
largest-magnitude entry is positive.

Backends are tensor containers under the magic "XVBK", the framing of
model checkpoints, owned by binio.write_container/read_container, and
hold the whole chain fit_backend fits: metadata length_norm alone, then
the centering mean, the LDA projection and the PLDA mean, between and
within covariances, whose shapes give the dimensions.
Embedding archives ("XVEB") are framed here and check their magic and
version through binio.Reader.header; write_embeddings requires a speaker
label for every vector. Trial files are text lines
"enroll_id test_id target|nontarget"; score files are
"enroll_id test_id score" with six decimal places, one line per trial.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import binio
from .errors import ConfigurationError, DataError, DimMismatchError, ParseError

__all__ = [
    "Preprocessor",
    "fit_preprocessor",
    "length_normalize",
    "PldaModel",
    "fit_plda",
    "fit_backend",
    "Trial",
    "Trials",
    "Scores",
    "SCORE_BLOCK",
    "READ_BLOCK",
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
# Characters of a trial or score file read at once, cut back to the last whole
# line: a read holds O(READ_BLOCK) text and fields at a time, beside its
# id table and a few int and float columns of length T.
READ_BLOCK = 1 << 16


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
        """Rows of an [N, D] array, centred and projected to [N, lda_dim]."""
        x = _matrix(embeddings)
        if x.shape[1] != self.mean.shape[0]:
            raise ConfigurationError(
                f"embeddings have dim {x.shape[1]}, preprocessor expects {self.mean.shape[0]}")
        return (x - self.mean) @ self.projection.T


def _matrix(embeddings: np.ndarray) -> np.ndarray:
    """`embeddings` as a float64 [N, D] array; any other rank raises."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigurationError(f"embeddings must be [N, D], got shape {x.shape}")
    return x


@dataclass
class _ClassStats:
    """Per-speaker summary of labeled embeddings, over the retained rows
    (speakers with two or more embeddings). Speakers are integer codes of
    their labels, so they come in sorted label order."""

    x: np.ndarray                # all rows, float64
    counts: np.ndarray           # [C] retained rows per speaker
    class_means: np.ndarray      # [C, D]
    scatter_within: np.ndarray   # [D, D] summed, not normalized
    retained_mean: np.ndarray    # [D] mean of the retained rows


def _class_stats(embeddings: np.ndarray, labels, who: str) -> _ClassStats:
    """Code the labels once and group the retained rows by a stable sort."""
    x = _matrix(embeddings)
    if len(labels) != x.shape[0]:
        raise ConfigurationError(f"{x.shape[0]} embeddings but {len(labels)} labels")
    # an object array: a fixed-width str one strips trailing NULs, which
    # would merge the speakers "a" and "a\x00"
    names = np.array([str(lab) for lab in labels], dtype=object)
    empty = names == ""
    if empty.any():
        raise DataError(f"{who}: embedding row {int(np.argmax(empty))} has an empty speaker label")
    speakers, codes, sizes = np.unique(names, return_inverse=True, return_counts=True)
    dropped = speakers[sizes < 2].tolist()
    if dropped:
        log.warning("%s: excluding %d speaker(s) with a single embedding: %s", who, len(dropped),
                    ", ".join(dropped[:5]) + ("..." if len(dropped) > 5 else ""))
    counts = sizes[sizes >= 2]
    if counts.size < 2:
        raise DataError(f"{who} needs >= 2 speakers with >= 2 embeddings, have {counts.size}")

    order = np.argsort(codes, kind="stable")
    rows = x[order[sizes[codes[order]] >= 2]]
    starts = np.cumsum(counts) - counts
    class_means = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
    dev = rows - np.repeat(class_means, counts, axis=0)
    return _ClassStats(x=x, counts=counts, class_means=class_means,
                       scatter_within=dev.T @ dev, retained_mean=rows.mean(axis=0))


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
    offset = stats.class_means - stats.retained_mean
    s_between = (offset * stats.counts[:, None]).T @ offset / n_retained

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
    peaks = projection[np.arange(lda_dim), np.argmax(np.abs(projection), axis=1)]
    projection *= np.where(peaks < 0, -1.0, 1.0)[:, None]
    return Preprocessor(mean=x.mean(axis=0), projection=projection)


def length_normalize(embeddings: np.ndarray) -> np.ndarray:
    """Scale the rows of an [N, D] array to unit Euclidean norm."""
    x = _matrix(embeddings)
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError("cannot length-normalize a zero embedding")
    return x / norms[:, None]


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
        quad = np.sum((dev @ _inv(cov_n, "speaker-mean covariance")) * dev, axis=1)
        ll += -0.5 * (sel.sum() * logdet_n + n * quad.sum())
    return float(ll)


def fit_plda(embeddings: np.ndarray, labels, num_iterations: int = 20) -> PldaModel:
    """Fit the two-covariance model by EM.

    Speakers with a single embedding are excluded with a warning. The
    model starts from the data scatters of the retained rows: their mean,
    between = class-mean scatter / C and within = within-class scatter /
    N, for C speakers and N rows (which makes the whole fit equivariant
    under invertible affine maps of the input). The marginal
    log-likelihood is recorded before training and after every iteration
    in model.log_likelihoods; EM guarantees the sequence is
    non-decreasing.
    """
    if num_iterations < 1:
        raise ConfigurationError(f"num_iterations must be >= 1, got {num_iterations}")
    stats = _class_stats(embeddings, labels, "PLDA")
    counts, class_means, s_within_total = stats.counts, stats.class_means, stats.scatter_within
    n_classes = counts.size
    n_total = int(counts.sum())

    m = stats.retained_mean
    dev = class_means - m
    between = dev.T @ dev / n_classes
    within = s_within_total / n_total

    lls = [_marginal_log_likelihood(m, between, within, counts, class_means,
                                    s_within_total, n_total)]
    for _ in range(num_iterations):
        b_inv = _inv(between, "between-speaker covariance")
        w_inv = _inv(within, "within-speaker covariance")
        # E-step: speakers of one count share a posterior covariance, so
        # each distinct count makes one inverse and one product; the M-step's
        # sums of posterior covariances, plain and count-weighted, come along
        rhs = b_inv @ m + (class_means * counts[:, None]) @ w_inv.T
        post_means = np.empty_like(class_means)
        cov_sum, n_cov_sum = np.zeros_like(between), np.zeros_like(within)
        for n in np.unique(counts):
            sel = counts == n
            post_cov = _inv(b_inv + n * w_inv, "posterior precision")
            post_means[sel] = rhs[sel] @ post_cov.T
            cov_sum += sel.sum() * post_cov
            n_cov_sum += n * sel.sum() * post_cov

        m = post_means.mean(axis=0)
        dev = post_means - m
        between = (dev.T @ dev + cov_sum) / n_classes
        between = 0.5 * (between + between.T)
        resid = class_means - post_means
        within = (s_within_total + (resid * counts[:, None]).T @ resid + n_cov_sum) / n_total
        within = 0.5 * (within + within.T)
        lls.append(_marginal_log_likelihood(m, between, within, counts, class_means,
                                            s_within_total, n_total))
    return PldaModel(mean=m, between=between, within=within, log_likelihoods=lls)


def fit_backend(embeddings: dict[str, np.ndarray], speakers: dict[str, str], lda_dim: int,
                length_norm: bool) -> tuple[Preprocessor, PldaModel]:
    """Fit the chain score_trials applies, on the rows in sorted id order:
    centering + LDA, length normalization if `length_norm`, then PLDA. An
    empty speaker label raises DataError naming the utterance."""
    ids = sorted(embeddings)
    labels = [speakers[u] for u in ids]
    if "" in labels:
        raise DataError(f"embedding of utterance '{ids[labels.index('')]}' has an empty speaker label")
    x = np.stack([embeddings[u] for u in ids])
    pre = fit_preprocessor(x, labels, lda_dim)
    projected = pre.apply(x)
    if length_norm:
        projected = length_normalize(projected)
    return pre, fit_plda(projected, labels)


@dataclass
class Trial:
    enroll_id: str
    test_id: str
    target: bool


class Trials(Sequence):
    """A trial list as id rows: a table of ids, the rows of each trial's
    enroll and test ids in it (int arrays) and a bool target array, in
    trial order. It reads as a sequence of Trial rows, each made when it is
    asked for: len, an int index (a slice gives a Trials on the same table)
    and iteration."""

    def __init__(self, ids: list[str], enroll: np.ndarray, test: np.ndarray, target: np.ndarray):
        if not len(enroll) == len(test) == len(target):
            raise ValueError(f"trial columns of lengths {len(enroll)}, {len(test)}, {len(target)}")
        self.ids = ids
        self.enroll, self.test = np.asarray(enroll, dtype=np.intp), np.asarray(test, dtype=np.intp)
        self.target = np.asarray(target, dtype=bool)
        self._by_index: tuple[list, list, list] | None = None

    def __len__(self) -> int:
        return len(self.target)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trials(self.ids, self.enroll[i], self.test[i], self.target[i])
        if self._by_index is None:  # rows asked for one by one are named all at once
            self._by_index = (*_named(self.ids, self.enroll, self.test), self.target.tolist())
        enroll, test, target = self._by_index
        return Trial(enroll[i], test[i], target[i])

    def __iter__(self):
        return map(Trial, *_named(self.ids, self.enroll, self.test), self.target.tolist())


class Scores(Mapping):
    """A score file as id rows: a table of ids, the rows of each line's
    enroll and test ids in it and a float64 value array, in file order. It
    reads as a Mapping (enroll, test) -> float, whose key index is built on
    the first key lookup; the rows themselves need none. The index maps an
    enroll id to a dict of its test ids' scores: no tuple per key."""

    def __init__(self, ids: list[str], enroll: np.ndarray, test: np.ndarray, value: np.ndarray):
        self.ids, self.enroll, self.test, self.value = ids, enroll, test, value
        self._index: dict[str, dict[str, float]] | None = None

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return zip(*_named(self.ids, self.enroll, self.test))

    def __getitem__(self, key: tuple[str, str]) -> float:
        if self._index is None:
            self._index = {}
            for enroll, test, value in zip(*_named(self.ids, self.enroll, self.test),
                                           self.value.tolist()):
                self._index.setdefault(enroll, {})[test] = value
        enroll, test = key
        return self._index[enroll][test]


def _rows(table: dict[str, int], column: list[str]) -> np.ndarray:
    """The row of each id of `column` in `table`, which takes the ids it
    lacks as new rows, in sorted order."""
    try:
        return np.fromiter(map(table.__getitem__, column), np.intp, len(column))
    except KeyError:  # only a column with new ids pays for a set of its ids
        table.update(zip(sorted(set(column).difference(table)), itertools.count(len(table))))
        return _rows(table, column)


def _named(ids: list[str], *rows: np.ndarray) -> list[list[str]]:
    """Each array of rows as the ids it names."""
    names = np.array(ids, dtype=object)
    return [names[r].tolist() for r in rows]


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


def _pair_codes(enroll: np.ndarray, test: np.ndarray, n: int) -> np.ndarray:
    """One code per pair of rows (< n), the same in either order."""
    return np.minimum(enroll, test) * n + np.maximum(enroll, test)


def _check_unique(trials: Trials, codes: np.ndarray) -> None:
    """Raise DataError naming the first trial whose pair code (_pair_codes:
    either order, whatever the labels) an earlier trial holds."""
    repeat = _first_repeat(codes)
    if repeat is not None:
        i, j = repeat
        t = trials[j]
        raise DataError(f"trial {i + 1}: repeats trial {j + 1} ({t.enroll_id} {t.test_id})")


def score_trials(trials: Trials, embeddings: dict[str, np.ndarray],
                 preprocessor: Preprocessor | None = None, plda: PldaModel | None = None,
                 length_norm: bool = True) -> np.ndarray:
    """Score trials against an id -> vector table; float64, in trial order.

    Each utterance the trials name is processed once, in sorted id order:
    the chain is preprocessor (if given), then length normalization, then
    the scorer's per-utterance terms. The trials are then scored
    SCORE_BLOCK at a time, each a gather of its two rows and one dot
    product. Without `plda` the scores are cosine similarities, which
    always normalize; with it they are PLDA log-likelihood ratios, and the
    length_norm flag controls the normalization stage. Unknown trial ids,
    and a trial list naming one pair twice, as (a, b) or as (b, a), raise
    DataError naming the first trial at fault.
    """
    if not len(trials):
        raise DataError("empty trial list")
    used = np.zeros(len(trials.ids), dtype=bool)
    used[trials.enroll] = used[trials.test] = True
    rows = sorted(np.flatnonzero(used).tolist(), key=trials.ids.__getitem__)
    ids = [trials.ids[r] for r in rows]
    rank = np.empty(len(trials.ids), dtype=np.intp)
    rank[rows] = np.arange(len(rows))
    enroll, test = rank[trials.enroll], rank[trials.test]
    known = np.array([u in embeddings for u in ids])
    if not known.all():
        i = int(np.argmax(~known[enroll] | ~known[test]))
        utt = ids[enroll[i]] if not known[enroll[i]] else ids[test[i]]
        raise DataError(f"trial {i + 1}: no embedding for utterance '{utt}'")
    _check_unique(trials, _pair_codes(enroll, test, len(ids)))

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
    """Each trial's score, matched by its unordered pair (_pair_codes), as
    both scorers are symmetric; scores of pairs the trial list does not
    hold are ignored. Raises DataError naming the first trial that
    repeats an earlier one (in either order) or has no score in `source`,
    whichever comes first."""
    n = len(trials.ids)
    row = {u: i for i, u in enumerate(trials.ids)}
    # the score file's rows in the trial list's table; n, a row no trial
    # names, for an id it lacks
    remap = np.fromiter((row.get(u, n) for u in scores.ids), np.intp, len(scores.ids))
    want = _pair_codes(trials.enroll, trials.test, n + 1)
    have = _pair_codes(remap[scores.enroll], remap[scores.test], n + 1)
    by_want, by_have = np.argsort(want), np.argsort(have)
    at = np.empty_like(by_want)  # searched in sorted order, which keeps the search in cache
    at[by_want] = by_have[np.minimum(np.searchsorted(have[by_have], want[by_want]), len(have) - 1)]
    missing = have[at] != want
    first_missing = int(np.argmax(missing)) if missing.any() else len(want)
    _check_unique(trials, want[:first_missing])
    if first_missing < len(want):
        t = trials[first_missing]
        raise DataError(f"trial {first_missing + 1} ({t.enroll_id} {t.test_id}) "
                        f"has no score in {source}")
    return scores.value[at]


def all_pairs_trials(speaker_of: dict[str, str]) -> Trials:
    """Every unordered pair of distinct utterances, labeled by speaker match,
    each once: (a, b) with a before b in sorted id order."""
    ids = sorted(speaker_of)
    if len(ids) < 2:
        raise DataError("need at least 2 utterances to form trials")
    codes: dict[str, int] = {}
    speaker = np.array([codes.setdefault(speaker_of[u], len(codes)) for u in ids])
    first, second = np.triu_indices(len(ids), k=1)
    return Trials(ids, first, second, speaker[first] == speaker[second])


def _is_space(chars: np.ndarray) -> np.ndarray:
    """Whether each ASCII code of an unsigned array is a str.split space:
    9-13 (\\t \\n \\v \\f \\r) or 28-32 (\\x1c-\\x1f, ' '). Unsigned
    wrap-around puts every code below a range's start above its end."""
    return ((chars - 9) <= 4) | ((chars - 28) <= 4)


def _three_fields_a_line(text: str) -> bool:
    """Whether each line of `text` holds three fields or none, fields being
    str.split's, without splitting a line."""
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), np.uint8)
        space = _is_space(chars)
    else:
        chars = np.frombuffer(text.encode("utf-32-le"), "<u4")
        wide = [c for c in np.unique(chars[chars >= 128]).tolist() if chr(c).isspace()]
        space = _is_space(chars) | np.isin(chars, wide)
    newline = chars == ord("\n")
    start = ~space
    start[1:] &= space[:-1]
    # in text order, a 0 byte per field start and a 1 per line end: every
    # line reads 0001 or 1, so dropping each 0001 leaves no 0
    events = newline[start | newline].tobytes() + b"\1"
    return b"\0" not in events.replace(b"\0\0\0\1", b"\1")


def _read_rows(path: Path, parse) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray] | None:
    """A file of three-field lines (blank lines skipped) as an id table,
    the enroll and test rows of each line in it and the column `parse`
    makes of the third fields, READ_BLOCK characters at a time; None if a line
    holds another field count or `parse` returns None for some block."""
    table: dict[str, int] = {}
    blocks = []
    faulty = False
    # a block at fault stops the parsing, not the reading: a file that is
    # not utf-8 raises that first, wherever its bad bytes are
    for text in binio.text_blocks(path, READ_BLOCK):
        if not faulty and _three_fields_a_line(text):
            fields = text.split()
            column = parse(fields[2::3])
            if column is not None:
                blocks.append((_rows(table, fields[0::3]), _rows(table, fields[1::3]), column))
                continue
        faulty = True
    if faulty:
        return None
    enroll, test, column = ([np.concatenate(c) for c in zip(*blocks)] if blocks
                            else [np.empty(0, dtype=np.intp)] * 3)
    return list(table), enroll, test, column


_LABELS = ("nontarget", "target")


def _targets(labels: list[str]) -> np.ndarray | None:
    target = np.fromiter(map("target".__eq__, labels), bool, len(labels))
    return target if target.sum() + labels.count("nontarget") == len(labels) else None


def _scores(fields: list[str]) -> np.ndarray | None:
    try:
        return np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        return None


def _raise_first_fault(path: Path, third: str) -> NoReturn:
    """Read `path` again line by line and raise DataError naming its first
    bad line: another field count than three, a bad label or score, or a
    second score for one trial, in either order (see _pair_codes)."""
    seen = set()
    with binio.open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 'enroll test {third}', "
                                f"got {line.strip()!r}")
            enroll, test, field = parts
            if third == "label" and field not in _LABELS:
                raise DataError(f"{path}:{lineno}: label must be target|nontarget, got {field!r}")
            if third == "score":
                try:
                    float(field)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad score {field!r}") from None
                pair = min(enroll, test), max(enroll, test)
                if pair in seen:
                    raise DataError(f"{path}:{lineno}: a second score for trial {enroll} {test}")
                seen.add(pair)
    raise AssertionError(f"{path}: the block read found a fault no line holds")


def read_trials(path: Path | str) -> Trials:
    """A trial file as id rows, read READ_BLOCK characters at a time; only a
    malformed file is read again, line by line, to name its first bad
    line."""
    path = Path(path)
    rows = _read_rows(path, _targets)
    if rows is None:
        _raise_first_fault(path, "label")
    trials = Trials(*rows)
    if not len(trials):
        raise DataError(f"{path}: no trials")
    return trials


def _id_blocks(trials: Trials | list[Trial]):
    """The enroll ids, test ids and targets of SCORE_BLOCK trials at a time:
    a Trials' rows named through its table, other Trial rows as they are."""
    names = np.array(trials.ids, dtype=object) if isinstance(trials, Trials) else None
    for lo in range(0, len(trials), SCORE_BLOCK):
        block = trials[lo:lo + SCORE_BLOCK]
        if names is None:
            yield ([t.enroll_id for t in block], [t.test_id for t in block],
                   [bool(t.target) for t in block])
        else:
            yield names[block.enroll].tolist(), names[block.test].tolist(), block.target.tolist()


def write_trials(path: Path | str, trials: Trials | list[Trial]) -> None:
    with binio.atomic_write(path, "w") as fh:
        for enroll, test, target in _id_blocks(trials):
            fh.write("".join([f"{e} {t} {_LABELS[g]}\n" for e, t, g in zip(enroll, test, target)]))


def write_scores(path: Path | str, trials: Trials | list[Trial], scores: np.ndarray) -> None:
    if len(scores) != len(trials):
        raise ValueError(f"{len(scores)} scores for {len(trials)} trials")
    with binio.atomic_write(path, "w") as fh:
        for lo, (enroll, test, _) in zip(range(0, len(trials), SCORE_BLOCK), _id_blocks(trials)):
            # one % formats the block in C, without a Python frame per line
            fh.write("%s %s %.6f\n" * len(enroll) % tuple(itertools.chain.from_iterable(
                zip(enroll, test, scores[lo:lo + SCORE_BLOCK].tolist()))))


def read_scores(path: Path | str) -> Scores:
    """A score file as id rows, read READ_BLOCK characters at a time. A trial
    scored on two lines, in either order, raises DataError naming the
    second. Only a malformed file is read again, line by line, to name
    its first bad line."""
    path = Path(path)
    rows = _read_rows(path, _scores)
    if rows is None or _first_repeat(_pair_codes(rows[1], rows[2], len(rows[0]))) is not None:
        _raise_first_fault(path, "score")
    scores = Scores(*rows)
    if not len(scores):
        raise DataError(f"{path}: no scores")
    return scores


def save_backend(path: Path | str, preprocessor: Preprocessor, plda: PldaModel,
                 length_norm: bool) -> None:
    arrays = [preprocessor.mean, preprocessor.projection, plda.mean, plda.between, plda.within]
    binio.write_container(path, BACKEND_MAGIC, BACKEND_VERSION,
                          {"length_norm": int(length_norm)}, arrays)


def load_backend(path: Path | str) -> tuple[Preprocessor, PldaModel, bool]:
    meta, arrays = binio.read_container(path, BACKEND_MAGIC, BACKEND_VERSION, "a backend file")
    try:
        length_norm = bool(int(meta["length_norm"]))
    except (KeyError, ValueError) as err:
        raise ParseError(f"{path}: bad backend metadata ({err})") from None
    if len(arrays) != 5:
        raise DimMismatchError(f"{path}: expected 5 tensors, file has {len(arrays)}")
    mean, projection, p_mean, between, within = [np.asarray(a, dtype=np.float64) for a in arrays]
    if projection.ndim != 2 or mean.shape != projection.shape[1:]:
        raise DimMismatchError(f"{path}: mean shaped {mean.shape} does not fit "
                               f"projection shaped {projection.shape}")
    k = projection.shape[0]
    if p_mean.shape != (k,) or between.shape != (k, k) or within.shape != (k, k):
        raise DimMismatchError(f"{path}: PLDA tensor shapes do not fit LDA dim {k}")
    return (Preprocessor(mean=mean, projection=projection),
            PldaModel(mean=p_mean, between=between, within=within), length_norm)


def write_embeddings(path: Path | str, vectors: dict[str, np.ndarray],
                     speakers: dict[str, str]) -> None:
    """Archive utterance embeddings plus their speaker labels; every
    utterance needs a label."""
    if not vectors:
        raise DataError("no embeddings to write")
    unlabeled = next((utt for utt in vectors if not speakers.get(utt)), None)
    if unlabeled is not None:
        raise DataError(f"no speaker label for utterance '{unlabeled}'")
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
            binio.write_blob(fh, speakers[utt].encode("utf-8"))
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
