"""LDA preprocessing, PLDA, trial scoring, and the backend file formats."""

import tracemalloc

import numpy as np
import pytest

from xveckit import backend, binio
from xveckit.backend import (
    PldaModel,
    Preprocessor,
    Trial,
    all_pairs_trials,
    fit_backend,
    fit_plda,
    fit_preprocessor,
    length_normalize,
    load_backend,
    read_embeddings,
    read_scores,
    read_trials,
    save_backend,
    score_trials,
    write_embeddings,
    write_scores,
    write_trials,
)
from xveckit.errors import (
    BadMagicError,
    ConfigurationError,
    DataError,
    DimMismatchError,
    ParseError,
    TruncatedFileError,
)


def trials_of(rows):
    """Trial rows as a Trials, ids in order of first appearance."""
    ids = list(dict.fromkeys(u for t in rows for u in (t.enroll_id, t.test_id)))
    row = {u: i for i, u in enumerate(ids)}
    return backend.Trials(ids, [row[t.enroll_id] for t in rows], [row[t.test_id] for t in rows],
                          [t.target for t in rows])


def gaussian_logpdf(x, mu, cov):
    dev = x - mu
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (x.size * np.log(2 * np.pi) + logdet + dev @ np.linalg.solve(cov, dev))


def sample_classes(rng, m, between, within, num_classes, per_class):
    chol_b = np.linalg.cholesky(between)
    chol_w = np.linalg.cholesky(within)
    d = m.shape[0]
    xs, labs = [], []
    for s in range(num_classes):
        y = m + chol_b @ rng.normal(size=d)
        for _ in range(per_class):
            xs.append(y + chol_w @ rng.normal(size=d))
            labs.append(f"spk{s:03d}")
    return np.array(xs), labs


# ---------------------------------------------------------------------------
# LDA eigenproblem: the projection P must satisfy P S_w P^T = I, make
# P S_b P^T diagonal with a descending diagonal, and carry the sign rule
# ---------------------------------------------------------------------------

def class_scatters(x, labs):
    """Population-normalized within- and between-class scatter."""
    labs = np.array(labs)
    mu = x.mean(axis=0)
    d = x.shape[1]
    s_w, s_b = np.zeros((d, d)), np.zeros((d, d))
    for c in np.unique(labs):
        rows = x[labs == c]
        dev = rows - rows.mean(axis=0)
        s_w += dev.T @ dev
        off = rows.mean(axis=0) - mu
        s_b += len(rows) * np.outer(off, off)
    return s_w / len(x), s_b / len(x)


def assert_lda_properties(pre, x, labs):
    s_w, s_b = class_scatters(x, labs)
    p = pre.projection
    np.testing.assert_allclose(p @ s_w @ p.T, np.eye(len(p)), atol=1e-8)
    b = p @ s_b @ p.T
    scale = max(1.0, float(np.abs(b).max()))
    np.testing.assert_allclose(b - np.diag(np.diag(b)), 0.0, atol=1e-8 * scale)
    assert np.all(np.diff(np.diag(b)) <= 1e-8 * scale), np.diag(b)
    for row in p:
        assert row[np.argmax(np.abs(row))] > 0


def axis_classes(means, spreads):
    """Two classes per axis i, centered at +-means[i] e_i; each class holds
    its center +- spreads[j] e_j for every axis j. Both scatters are then
    diagonal: S_w = diag(spreads^2) / 3 and S_b = diag(means^2) / 3."""
    d = len(means)
    xs, labs = [], []
    for i in range(d):
        for sign in (1.0, -1.0):
            center = sign * means[i] * np.eye(d)[i]
            for j in range(d):
                for step in (1.0, -1.0):
                    xs.append(center + step * spreads[j] * np.eye(d)[j])
                    labs.append(f"c{i}{sign:+.0f}")
    return np.array(xs), labs


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_lda_diagonalizes_scatters(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d))
    b = rng.normal(size=(d, d))
    x, labs = sample_classes(rng, rng.normal(size=d), a @ a.T + 0.5 * np.eye(d),
                             b @ b.T + 0.1 * np.eye(d), d + 3, 6)
    assert_lda_properties(fit_preprocessor(x, labs, lda_dim=d), x, labs)


def test_lda_axis_aligned_scatters():
    # S_b / S_w = diag(1, 9, 4) in whitened units: rows e_1, e_2, e_0
    spread = 0.5
    x, labs = axis_classes([0.5, 1.5, 1.0], [spread] * 3)
    pre = fit_preprocessor(x, labs, lda_dim=3)
    expected = np.sqrt(3.0) / spread * np.eye(3)[[1, 2, 0]]
    np.testing.assert_allclose(pre.projection, expected, atol=1e-12)
    assert_lda_properties(pre, x, labs)


def test_lda_repeated_between_eigenvalues():
    # two equal between-class eigenvalues, rotated off the axes: any basis
    # of that eigenspace is a valid answer, the properties must still hold
    x, labs = axis_classes([2.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))
    x = x @ q.T
    pre = fit_preprocessor(x, labs, lda_dim=3)
    assert_lda_properties(pre, x, labs)
    s_w, s_b = class_scatters(x, labs)
    np.testing.assert_allclose(np.diag(pre.projection @ s_b @ pre.projection.T),
                               [4.0, 4.0, 1.0], atol=1e-10)


def test_lda_wide_scatter_range():
    # within-class spreads 1e-4 .. 1e4 must not break the whitening
    spreads = [1e-4, 1.0, 1e4]
    x, labs = axis_classes([3e-4, 2.0, 5e3], spreads)
    pre = fit_preprocessor(x, labs, lda_dim=3)
    assert_lda_properties(pre, x, labs)
    assert [int(np.argmax(np.abs(row))) for row in pre.projection] == [0, 1, 2]


# ---------------------------------------------------------------------------
# preprocessor
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lda_data():
    rng = np.random.default_rng(31)
    d = 8
    between = 4.0 * np.eye(d)
    within = 0.25 * np.eye(d)
    x, labs = sample_classes(rng, np.zeros(d), between, within, 12, 10)
    return x, labs


def test_lda_whitens_within_class_scatter(lda_data):
    x, labs = lda_data
    pre = fit_preprocessor(x, labs, lda_dim=5)
    z = pre.apply(x)
    classes = sorted(set(labs))
    scatter = np.zeros((5, 5))
    for c in classes:
        rows = z[np.array(labs) == c]
        dev = rows - rows.mean(axis=0)
        scatter += dev.T @ dev
    scatter /= len(labs)
    np.testing.assert_allclose(scatter, np.eye(5), atol=1e-6)


def test_lda_centers_training_data(lda_data):
    x, labs = lda_data
    pre = fit_preprocessor(x, labs, lda_dim=4)
    assert np.all(np.abs(pre.apply(x).mean(axis=0)) < 1e-8)


def test_lda_separates_far_classes():
    rng = np.random.default_rng(8)
    d = 6
    x0 = rng.normal(size=(40, d))
    x1 = rng.normal(size=(40, d)) + 10.0  # ten sigma apart
    x = np.vstack([x0, x1])
    labs = ["a"] * 40 + ["b"] * 40
    pre = fit_preprocessor(x, labs, lda_dim=1)
    z = pre.apply(x).ravel()
    za, zb = z[:40], z[40:]
    pooled = np.sqrt(0.5 * (za.var() + zb.var()))
    assert abs(za.mean() - zb.mean()) > 5.0 * pooled


def test_lda_geometry_is_rotation_invariant(lda_data):
    x, labs = lda_data
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.normal(size=(x.shape[1], x.shape[1])))

    def mean_distances(z):
        classes = sorted(set(labs))
        mus = np.stack([z[np.array(labs) == c].mean(axis=0) for c in classes])
        return np.linalg.norm(mus[:, None] - mus[None, :], axis=2)

    plain = mean_distances(fit_preprocessor(x, labs, 4).apply(x))
    rotated = mean_distances(fit_preprocessor(x @ q.T, labs, 4).apply(x @ q.T))
    np.testing.assert_allclose(rotated, plain, atol=1e-8)


def test_lda_drops_singleton_speakers(lda_data, caplog):
    x, labs = lda_data
    x2 = np.vstack([x, np.full((1, x.shape[1]), 40.0)])
    labs2 = list(labs) + ["loner"]
    with caplog.at_level("WARNING"):
        pre = fit_preprocessor(x2, labs2, lda_dim=4)
    assert any("1 speaker" in r.message for r in caplog.records)
    # the singleton still shifts the centering mean, by 40/N per coordinate
    pre_without = fit_preprocessor(x, labs, lda_dim=4)
    assert not np.allclose(pre.mean, pre_without.mean)


def test_lda_dim_bounds(lda_data):
    x, labs = lda_data  # 12 classes, 8 dims: cap is min(8, 11)
    fit_preprocessor(x, labs, lda_dim=8)
    for bad in (0, 9, -3):
        with pytest.raises(ConfigurationError):
            fit_preprocessor(x, labs, lda_dim=bad)


def test_lda_ridge_rescues_a_constant_dimension(lda_data, caplog):
    # a constant coordinate leaves the within-class scatter singular, not zero
    x, labs = lda_data
    x = x.copy()
    x[:, 2] = 3.0
    with caplog.at_level("WARNING"):
        pre = fit_preprocessor(x, labs, lda_dim=4)
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "adding ridge" in warnings[0]
    assert np.isfinite(pre.projection).all() and pre.projection.shape == (4, x.shape[1])


def test_lda_zero_within_scatter_raises_without_a_ridge(caplog):
    # every speaker's embeddings identical (integers, so each class mean is
    # exact): the scatter is 0, and so is any ridge of its scale
    centers = np.random.default_rng(3).integers(-9, 10, size=(4, 5)).astype(float)
    x = np.repeat(centers, 3, axis=0)
    labs = [f"s{i // 3}" for i in range(12)]
    with caplog.at_level("WARNING"), pytest.raises(
            DataError, match="singular even after regularization"):
        fit_preprocessor(x, labs, lda_dim=2)
    assert not any("ridge" in r.getMessage() for r in caplog.records)


def test_lda_within_scatter_at_rounding_noise_raises_without_a_ridge(caplog):
    # every speaker's embeddings identical, in float64: the class means differ
    # from their rows in the last bit, so the scatter's trace is about 1e-33,
    # not 0, and a ridge of its scale whitens rounding noise
    x = np.repeat(np.random.default_rng(3).normal(size=(4, 5)), 3, axis=0)
    labs = [f"s{i // 3}" for i in range(12)]
    with caplog.at_level("WARNING"), pytest.raises(
            DataError, match="singular even after regularization"):
        fit_preprocessor(x, labs, lda_dim=2)
    assert not any("ridge" in r.getMessage() for r in caplog.records)


def test_preprocessor_checks_input_dim(lda_data):
    x, labs = lda_data
    pre = fit_preprocessor(x, labs, lda_dim=3)
    with pytest.raises(ConfigurationError, match="dim 5"):
        pre.apply(np.zeros((1, 5)))


@pytest.mark.parametrize("row_map", ["apply", "length_normalize"])
def test_row_maps_reject_a_single_vector(lda_data, row_map):
    # a 1-d vector is a fault of the caller, named as one, not a row
    x, labs = lda_data
    fn = fit_preprocessor(x, labs, lda_dim=3).apply if row_map == "apply" else length_normalize
    with pytest.raises(ConfigurationError, match=r"must be \[N, D\], got shape \(8,\)"):
        fn(x[0])


# ---------------------------------------------------------------------------
# length normalization
# ---------------------------------------------------------------------------

def test_length_normalize_properties():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(20, 6)) * rng.uniform(0.1, 50.0, size=(20, 1))
    y = length_normalize(x)
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)
    cos = np.sum(y * x, axis=1) / np.linalg.norm(x, axis=1)
    np.testing.assert_allclose(cos, 1.0, atol=1e-12)  # direction preserved


def test_length_normalize_rejects_zero():
    with pytest.raises(DataError):
        length_normalize(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# PLDA
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def plda_truth():
    rng = np.random.default_rng(17)
    d = 3
    a = rng.normal(size=(d, d))
    between = a @ a.T / d + 0.5 * np.eye(d)
    c = rng.normal(size=(d, d))
    within = 0.05 * (c @ c.T / d) + 0.05 * np.eye(d)
    mean = rng.normal(size=d)
    x, labs = sample_classes(rng, mean, between, within, 80, 15)
    return mean, between, within, x, labs


def data_scatter_start(x, labs):
    """The fit's start, speaker by speaker: the rows' mean, the class means'
    scatter over C speakers and the within-class scatter over N rows."""
    labs = np.array(labs)
    speakers = sorted(set(labs))
    class_means = np.array([x[labs == s].mean(axis=0) for s in speakers])
    mean = x.mean(axis=0)
    between = (class_means - mean).T @ (class_means - mean) / len(speakers)
    within = sum((x[labs == s] - mu).T @ (x[labs == s] - mu)
                 for s, mu in zip(speakers, class_means)) / len(x)
    return mean, between, within


def brute_force_log_likelihood(x, labs, mean, between, within):
    """The marginal log-likelihood as one joint Gaussian per speaker."""
    labs = np.array(labs)
    ll = 0.0
    for s in sorted(set(labs)):
        rows = x[labs == s]
        n = rows.shape[0]
        cov = np.kron(np.eye(n), within) + np.kron(np.ones((n, n)), between)
        ll += gaussian_logpdf(rows.reshape(-1), np.tile(mean, n), cov)
    return ll


def test_plda_initial_likelihood_matches_brute_force(plda_truth):
    _, _, _, x, labs = plda_truth
    sub, sublabs = x[: 5 * 15], labs[: 5 * 15]
    model = fit_plda(sub, sublabs, num_iterations=1)
    ll_brute = brute_force_log_likelihood(sub, sublabs, *data_scatter_start(sub, sublabs))
    assert model.log_likelihoods[0] == pytest.approx(ll_brute, abs=1e-6)


def test_plda_likelihood_never_decreases(plda_truth):
    _, _, _, x, labs = plda_truth
    model = fit_plda(x, labs, num_iterations=25)
    lls = np.array(model.log_likelihoods)
    assert lls.shape == (26,)
    assert np.all(np.diff(lls) >= -1e-8)


def test_plda_recovers_generating_covariances(plda_truth):
    mean, between, within, x, labs = plda_truth
    model = fit_plda(x, labs, num_iterations=40)
    b_err = np.linalg.norm(model.between - between) / np.linalg.norm(between)
    w_err = np.linalg.norm(model.within - within) / np.linalg.norm(within)
    assert b_err < 0.30  # 80 speakers bound the between-class estimate
    assert w_err < 0.15
    np.testing.assert_allclose(model.mean, mean, atol=0.5)


def test_plda_llr_matches_brute_force(plda_truth):
    mean, between, within, _, _ = plda_truth
    model = PldaModel(mean=mean, between=between, within=within)
    total = between + within
    joint = np.block([[total, between], [between, total]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        e, t = rng.normal(size=3) * 2.0, rng.normal(size=3) * 2.0
        ll_same = gaussian_logpdf(np.concatenate([e, t]), np.tile(mean, 2), joint)
        ll_diff = gaussian_logpdf(e, mean, total) + gaussian_logpdf(t, mean, total)
        got = score_trials(trials_of([Trial("e", "t", True)]), {"e": e, "t": t},
                           plda=model, length_norm=False)[0]
        assert got == pytest.approx(ll_same - ll_diff, abs=1e-10)


def test_plda_llr_is_symmetric(plda_truth):
    mean, between, within, x, labs = plda_truth
    model = fit_plda(x, labs, num_iterations=5)
    rng = np.random.default_rng(4)
    e, t = rng.normal(size=3), rng.normal(size=3)
    ab = score_trials(trials_of([Trial("a", "b", False)]), {"a": e, "b": t},
                      plda=model, length_norm=False)[0]
    ba = score_trials(trials_of([Trial("b", "a", False)]), {"a": e, "b": t},
                      plda=model, length_norm=False)[0]
    assert ab == pytest.approx(ba, abs=1e-10)


def test_plda_fit_is_affine_equivariant(plda_truth):
    # scatter-based init makes scores invariant under invertible affine
    # maps of the embedding space (length norm off, of course)
    _, _, _, x, labs = plda_truth
    sub, sublabs = x[: 20 * 15], labs[: 20 * 15]
    rng = np.random.default_rng(5)
    amat = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    shift = rng.normal(size=3) * 3.0
    mapped = sub @ amat.T + shift

    trials = all_pairs_trials({f"u{i}": sublabs[i] for i in range(3)})
    plain = score_trials(trials, {f"u{i}": sub[i] for i in range(3)},
                         plda=fit_plda(sub, sublabs, 10), length_norm=False)
    moved = score_trials(trials, {f"u{i}": mapped[i] for i in range(3)},
                         plda=fit_plda(mapped, sublabs, 10), length_norm=False)
    np.testing.assert_allclose(moved, plain, atol=1e-6)


def test_plda_separates_speakers(plda_truth):
    mean, between, within, x, labs = plda_truth
    model = fit_plda(x, labs, num_iterations=20)
    rng = np.random.default_rng(6)
    fresh, fresh_labs = sample_classes(rng, mean, between, within, 30, 2)
    table = {f"u{i}": fresh[i] for i in range(len(fresh))}
    speaker_of = {f"u{i}": fresh_labs[i] for i in range(len(fresh))}
    trials = all_pairs_trials(speaker_of)
    scores = score_trials(trials, table, plda=model, length_norm=False)
    target = np.array([t.target for t in trials])
    tg, nt = scores[target], scores[~target]
    auc = (np.mean(tg[:, None] > nt[None, :])
           + 0.5 * np.mean(tg[:, None] == nt[None, :]))
    assert auc > 0.95


def test_plda_excludes_singletons(plda_truth, caplog):
    _, _, _, x, labs = plda_truth
    x2 = np.vstack([x[: 4 * 15], x[-1]])
    labs2 = labs[: 4 * 15] + ["loner"]
    with caplog.at_level("WARNING"):
        fit_plda(x2, labs2, num_iterations=2)
    assert any("excluding 1 speaker" in r.message for r in caplog.records)


@pytest.mark.parametrize("fit", [fit_preprocessor, fit_plda], ids=["lda", "plda"])
def test_fits_reject_an_empty_speaker_label(fit):
    # an archive written before labels were required reads back '' for an
    # unlabeled vector; pooling every such row as one speaker '' is wrong
    x = np.random.default_rng(0).normal(size=(6, 4))
    with pytest.raises(DataError, match="embedding row 4 has an empty speaker label"):
        fit(x, ["a", "a", "b", "b", "", ""], 2)


def test_fits_keep_labels_apart_that_differ_in_a_trailing_nul():
    # a fixed-width numpy str array strips trailing NULs: "a" and "a\x00"
    # would be one speaker there
    x = np.random.default_rng(0).normal(size=(12, 3))

    def projection(second):
        return fit_preprocessor(x, [s for s in ("a", second, "b") for _ in range(4)], 2).projection

    np.testing.assert_array_equal(projection("a\x00"), projection("a0"))


def test_plda_needs_two_speakers():
    x = np.random.default_rng(0).normal(size=(6, 2))
    with pytest.raises(DataError):
        fit_plda(x, ["a"] * 5 + ["b"], num_iterations=1)


# ---------------------------------------------------------------------------
# speakers of unequal sizes: LDA and PLDA against per-speaker references
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def unequal_speakers(plda_truth):
    """20 speakers of 2 to 6 embeddings each (five distinct counts), drawn
    from plda_truth's model, their rows interleaved."""
    mean, between, within, _, _ = plda_truth
    rng = np.random.default_rng(19)
    chol_b, chol_w = np.linalg.cholesky(between), np.linalg.cholesky(within)
    xs, labs = [], []
    for s, n in enumerate([2, 3, 4, 5, 6] * 4):
        y = mean + chol_b @ rng.normal(size=3)
        xs += [y + chol_w @ rng.normal(size=3) for _ in range(n)]
        labs += [f"spk{s:02d}"] * n
    order = rng.permutation(len(labs))
    return np.array(xs)[order], [labs[i] for i in order]


def test_lda_scatters_of_unequal_speakers_match_a_per_speaker_reference(unequal_speakers):
    # P S_w P^T = I and P S_b P^T diagonal hold for the per-speaker scatters
    # only if the fit weighted each speaker's mean by its count
    x, labs = unequal_speakers
    s_w, s_b = class_scatters(x, labs)
    p = fit_preprocessor(x, labs, lda_dim=3).projection
    np.testing.assert_allclose(p @ s_w @ p.T, np.eye(3), rtol=0, atol=1e-10)
    b = p @ s_b @ p.T
    np.testing.assert_allclose(b - np.diag(np.diag(b)), 0.0, rtol=0, atol=1e-10)


def test_plda_initial_likelihood_of_unequal_speakers_matches_brute_force(unequal_speakers):
    x, labs = unequal_speakers
    model = fit_plda(x, labs, num_iterations=1)
    ll_brute = brute_force_log_likelihood(x, labs, *data_scatter_start(x, labs))
    assert model.log_likelihoods[0] == pytest.approx(ll_brute, abs=1e-6)


def test_plda_likelihood_of_unequal_speakers_never_decreases(unequal_speakers):
    x, labs = unequal_speakers
    lls = np.array(fit_plda(x, labs, num_iterations=25).log_likelihoods)
    assert lls.shape == (26,)
    assert np.all(np.diff(lls) >= -1e-8)


def test_plda_em_iteration_of_unequal_speakers_matches_a_per_speaker_reference(unequal_speakers):
    # one EM iteration from the data-scatter start, speaker by speaker: each
    # speaker's posterior N(mu, C) with C = (B^-1 + n W^-1)^-1 and
    # mu = C (B^-1 m + W^-1 sum(rows)); B and W are the expected scatters
    x, labs = unequal_speakers
    mean, between, within = data_scatter_start(x, labs)
    b_inv, w_inv = np.linalg.inv(between), np.linalg.inv(within)
    post = []
    for s in sorted(set(labs)):
        rows = x[np.array(labs) == s]
        cov = np.linalg.inv(b_inv + len(rows) * w_inv)
        post.append((rows, cov @ (b_inv @ mean + w_inv @ rows.sum(axis=0)), cov))
    want_mean = np.mean([mu for _, mu, _ in post], axis=0)
    want_between = sum(np.outer(mu - want_mean, mu - want_mean) + cov
                       for _, mu, cov in post) / len(post)
    want_within = sum((rows - mu).T @ (rows - mu) + len(rows) * cov
                      for rows, mu, cov in post) / len(x)

    model = fit_plda(x, labs, num_iterations=1)
    np.testing.assert_allclose(model.mean, want_mean, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.between, want_between, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.within, want_within, rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# trial scoring
# ---------------------------------------------------------------------------

def test_cosine_scores_are_inner_products_of_unit_vectors():
    table = {"a": np.array([2.0, 0.0]), "b": np.array([5.0, 0.0]),
             "c": np.array([0.0, 0.1])}
    trials = trials_of([Trial("a", "b", True), Trial("a", "c", False)])
    np.testing.assert_allclose(score_trials(trials, table), [1.0, 0.0], atol=1e-12)


def test_score_trials_applies_preprocessor():
    pre = Preprocessor(mean=np.array([1.0, 1.0]),
                       projection=np.array([[1.0, 0.0]]))  # keep coordinate 0
    table = {"a": np.array([3.0, 9.0]), "b": np.array([2.0, -4.0]),
             "c": np.array([0.0, 7.0])}
    scores = score_trials(trials_of([Trial("a", "b", True), Trial("a", "c", False)]),
                          table, preprocessor=pre)
    np.testing.assert_allclose(scores, [1.0, -1.0], atol=1e-12)  # signs of coord 0


@pytest.mark.parametrize("length_norm", [False, True])
def test_fit_backend_runs_the_chain_on_rows_in_sorted_id_order(length_norm):
    rng = np.random.default_rng(21)
    ids = [f"u{i:02d}" for i in rng.permutation(24)]  # a table in no id order
    vectors = {u: rng.standard_normal(5) + int(u[1:]) % 4 for u in ids}
    speakers = {u: f"s{int(u[1:]) % 4}" for u in ids}
    pre, plda = fit_backend(vectors, speakers, 3, length_norm)
    x = np.stack([vectors[u] for u in sorted(ids)])
    labels = [speakers[u] for u in sorted(ids)]
    want_pre = fit_preprocessor(x, labels, 3)
    projected = want_pre.apply(x)
    want = fit_plda(length_normalize(projected) if length_norm else projected, labels)
    got = [pre.mean, pre.projection, plda.mean, plda.between, plda.within]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in (
        want_pre.mean, want_pre.projection, want.mean, want.between, want.within)]
    with pytest.raises(DataError, match="utterance 'u07' has an empty speaker label"):
        fit_backend(vectors, {**speakers, "u07": ""}, 3, length_norm)


def test_score_trials_unknown_id():
    with pytest.raises(DataError, match="trial 2.*ghost"):
        score_trials(trials_of([Trial("a", "b", True), Trial("a", "ghost", False)]),
                     {"a": np.ones(2), "b": np.ones(2)})


def test_score_trials_rejects_a_repeated_trial():
    # the same pair of utterances twice, the second time in the other order
    # and with the other label: both scorers are symmetric, so (u1, u0) is
    # the comparison (u0, u1) again
    table = {f"u{i}": np.eye(4)[i] + 0.1 for i in range(4)}
    trials = trials_of([Trial("u0", "u1", True), Trial("u0", "u2", False), Trial("u1", "u0", False),
                        Trial("u2", "u3", True), Trial("u0", "u1", False)])
    with pytest.raises(DataError, match=r"trial 3: repeats trial 1 \(u0 u1\)"):
        score_trials(trials, table)
    assert score_trials(trials[:2], table).shape == (2,)


def _random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def _distinct_pairs(rng, n, size):
    """Rows (enroll, test) of `size` distinct pairs of n utterances, one
    utterance with itself included, each drawn in a random order: both
    scorers are symmetric, so (a, b) and (b, a) would be one trial twice."""
    first, second = np.triu_indices(n)
    pick = rng.choice(first.size, size=size, replace=False)
    flip = rng.integers(2, size=size).astype(bool)
    return (np.where(flip, second[pick], first[pick]), np.where(flip, first[pick], second[pick]))


def _reference_score(trial, table, pre, plda, length_norm):
    """One trial at a time, in the closed form: cosine (plda None) is the
    inner product of unit vectors; PLDA is const - e'Qe/2 - t'Qt/2 - e'Ct with
    Q = J^-1[:d, :d] - T^-1, C = J^-1[:d, d:] and const = -(log|J| - 2 log|T|)/2,
    T the total and J the joint same-speaker covariance."""
    e, t = (np.asarray(table[u], dtype=np.float64) for u in (trial.enroll_id, trial.test_id))
    if pre is not None:
        e, t = pre.apply(e[None])[0], pre.apply(t[None])[0]
    if plda is None or length_norm:
        e, t = e / np.linalg.norm(e), t / np.linalg.norm(t)
    if plda is None:
        return float(e @ t)
    d = plda.dim
    total = plda.between + plda.within
    joint = np.block([[total, plda.between], [plda.between, total]])
    j_inv = np.linalg.inv(joint)
    quad = j_inv[:d, :d] - np.linalg.inv(total)
    cross = j_inv[:d, d:]
    const = -0.5 * (np.linalg.slogdet(joint)[1] - 2.0 * np.linalg.slogdet(total)[1])
    e, t = e - plda.mean, t - plda.mean
    return float(const - 0.5 * e @ quad @ e - 0.5 * t @ quad @ t - e @ cross @ t)


@pytest.mark.parametrize("use_pre", [False, True], ids=["raw", "lda"])
@pytest.mark.parametrize("length_norm", [True, False], ids=["norm", "no-norm"])
@pytest.mark.parametrize("kind", ["cosine", "plda"])
def test_scoring_per_utterance_matches_per_trial_reference(kind, length_norm, use_pre):
    # 20 utterances, 200 of their 210 distinct pairs drawn in no order, so
    # each utterance is in many trials; per-row terms computed once per
    # utterance must give each trial the score it gets alone. The two differ
    # only in summation order (the largest absolute difference seen is
    # 1.3e-15 on scores up to 4.7), so the bound is 1e-10, relative and absolute.
    rng = np.random.default_rng(7)
    emb_dim, dim = 6, (4 if use_pre else 6)
    table = {f"u{i:02d}": rng.standard_normal(emb_dim) * 2.0 + 0.5 for i in range(20)}
    ids = list(table)
    trials = backend.Trials(ids, *_distinct_pairs(rng, 20, 200), rng.integers(2, size=200))
    pre = (Preprocessor(mean=rng.standard_normal(emb_dim),
                        projection=rng.standard_normal((dim, emb_dim))) if use_pre else None)
    plda = (None if kind == "cosine" else
            PldaModel(mean=rng.standard_normal(dim) * 0.1, between=_random_spd(rng, dim),
                      within=_random_spd(rng, dim)))
    scores = score_trials(trials, table, preprocessor=pre, plda=plda, length_norm=length_norm)
    assert scores.dtype == np.float64 and scores.shape == (len(trials),)
    want = [_reference_score(t, table, pre, plda, length_norm) for t in trials]
    np.testing.assert_allclose(scores, want, rtol=1e-10, atol=1e-10)


def test_plda_scoring_memory_is_a_few_trial_matrices():
    # Peak memory of score_trials above its inputs, in units of one
    # float64 [trials, dim] matrix (T*d*8 bytes; here T = 20,000, d = 32,
    # from 400 utterances). Gathering SCORE_BLOCK trials at a time reads
    # 0.263: the per-trial index and score vectors plus one block's two
    # [SCORE_BLOCK, d] gathers. One gather over all T trials reads 2.16.
    rng = np.random.default_rng(3)
    dim, n_trials = 32, 20_000
    table = {f"u{i:03d}": rng.standard_normal(dim) for i in range(400)}
    ids = list(table)
    trials = backend.Trials(ids, *_distinct_pairs(rng, 400, n_trials), np.zeros(n_trials, dtype=bool))
    plda = PldaModel(mean=np.zeros(dim), between=_random_spd(rng, dim),
                     within=_random_spd(rng, dim))
    tracemalloc.start()
    try:
        score_trials(trials, table, plda=plda)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n_trials * dim * 8


def _unblocked_scores(trials, table, plda):
    """score_trials' per-utterance formula over every trial at once: the
    same rows (sorted ids, length-normalized), gathered as [T, d] matrices."""
    ids = sorted(table)
    row = {u: i for i, u in enumerate(ids)}
    e = np.array([row[trial.enroll_id] for trial in trials])
    t = np.array([row[trial.test_id] for trial in trials])
    x = length_normalize(np.stack([table[u] for u in ids]))
    if plda is None:
        return np.sum(x[e] * x[t], axis=1)
    d = plda.dim
    total = plda.between + plda.within
    joint = np.block([[total, plda.between], [plda.between, total]])
    j_inv = np.linalg.inv(joint)
    const = -0.5 * (np.linalg.slogdet(joint)[1] - 2.0 * np.linalg.slogdet(total)[1])
    xc = x - plda.mean
    q = np.sum((xc @ (j_inv[:d, :d] - np.linalg.inv(total))) * xc, axis=1)
    a = xc @ j_inv[:d, d:]
    return const - 0.5 * q[e] - 0.5 * q[t] - np.sum(a[e] * xc[t], axis=1)


@pytest.mark.parametrize("kind", ["cosine", "plda"])
def test_blocked_scores_are_bitwise_the_unblocked_formula(kind):
    # more than 2.5 blocks, so there are full blocks and a partial last one
    rng = np.random.default_rng(11)
    dim, n_utts = 7, 120
    n_trials = int(2.5 * backend.SCORE_BLOCK) + 13
    table = {f"u{i:03d}": rng.standard_normal(dim) for i in range(n_utts)}
    ids = list(table)
    trials = backend.Trials(ids, *_distinct_pairs(rng, n_utts, n_trials),
                            rng.integers(2, size=n_trials).astype(bool))
    plda = (None if kind == "cosine" else
            PldaModel(mean=rng.standard_normal(dim) * 0.1, between=_random_spd(rng, dim),
                      within=_random_spd(rng, dim)))
    scores = score_trials(trials, table, plda=plda)
    want = _unblocked_scores(trials, table, plda)
    assert scores.tobytes() == want.tobytes()


def test_plda_scoring_memory_does_not_grow_with_trials_times_dim():
    # Peak memory of score_trials above its inputs at T = 20,000 and 80,000
    # trials of d = 64. Gathers in blocks of SCORE_BLOCK trials do not grow
    # with T; what does is a few int and float columns of length T (trial
    # rows, pair codes, the scores). Gathering [T, d] matrices would add
    # d * 8 = 512 bytes per trial for each matrix.
    rng = np.random.default_rng(5)
    dim = 64
    table = {f"u{i:03d}": rng.standard_normal(dim) for i in range(400)}
    ids = list(table)
    plda = PldaModel(mean=np.zeros(dim), between=_random_spd(rng, dim),
                     within=_random_spd(rng, dim))
    peaks = {}
    for n_trials in (20_000, 80_000):
        trials = backend.Trials(ids, *_distinct_pairs(rng, 400, n_trials),
                                np.zeros(n_trials, dtype=bool))
        tracemalloc.start()
        try:
            score_trials(trials, table, plda=plda)
            _, peaks[n_trials] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    per_trial = (peaks[80_000] - peaks[20_000]) / 60_000
    assert per_trial < 8 * 8  # under eight 8-byte columns, not d-wide rows


def test_trials_read_as_a_sequence_of_rows():
    trials = backend.Trials(["a", "b", "c"], [0, 0, 1], [1, 2, 2], np.array([True, False, False]))
    assert len(trials) == 3
    assert trials[0] == Trial("a", "b", True)
    assert trials[np.int64(1)] == Trial("a", "c", False) and trials[-1] == Trial("b", "c", False)
    assert type(trials[0].target) is bool
    assert list(trials) == [Trial("a", "b", True), Trial("a", "c", False), Trial("b", "c", False)]
    assert list(trials[1:]) == list(trials)[1:]
    with pytest.raises(IndexError):
        trials[3]


def test_scores_read_as_a_mapping(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("a b 0.5\nb c -1.25\n")
    scores = read_scores(p)
    assert scores.ids == ["a", "b", "c"]
    assert scores.enroll.tolist() == [0, 1] and scores.test.tolist() == [1, 2]
    assert scores.value.dtype == np.float64 and scores.value.tolist() == [0.5, -1.25]
    assert len(scores) == 2 and list(scores) == [("a", "b"), ("b", "c")]
    assert scores[("b", "c")] == -1.25 and ("a", "a") not in scores
    assert dict(scores) == {("a", "b"): 0.5, ("b", "c"): -1.25}


def test_all_pairs_trials():
    trials = all_pairs_trials({"u2": "s1", "u1": "s1", "u3": "s2"})
    assert [(t.enroll_id, t.test_id, t.target) for t in trials] == [
        ("u1", "u2", True), ("u1", "u3", False), ("u2", "u3", False)]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_trials_roundtrip(tmp_path):
    trials = [Trial("u1", "u2", True), Trial("u1", "u3", False)]
    write_trials(tmp_path / "t.txt", trials)
    assert list(read_trials(tmp_path / "t.txt")) == trials


def test_trials_reject_malformed(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("u1 u2 target\nu1 u3\n")
    with pytest.raises(DataError, match="2"):
        read_trials(p)
    p.write_text("u1 u2 maybe\n")
    with pytest.raises(DataError):
        read_trials(p)


def test_scores_roundtrip(tmp_path):
    trials = [Trial("a", "b", True), Trial("c", "d", False)]
    write_scores(tmp_path / "s.txt", trials, np.array([0.123456789, -2.5]))
    back = read_scores(tmp_path / "s.txt")
    assert back[("a", "b")] == pytest.approx(0.123457, abs=1e-9)  # six decimals kept
    assert back[("c", "d")] == -2.5


def test_scores_reject_a_trial_scored_twice(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("a b 0.9\n\na c 0.1\na b -5.0\n")
    with pytest.raises(DataError, match=r"s\.txt:4: a second score for trial a b"):
        read_scores(p)


def test_scores_reject_a_trial_scored_in_both_orders(tmp_path):
    # both scorers are symmetric, so (b, a) is trial (a, b) again, as a
    # trial list counts it
    p = tmp_path / "s.txt"
    p.write_text("a b 0.9\na c 0.1\nb a 0.9\n")
    with pytest.raises(DataError, match=r"s\.txt:3: a second score for trial b a"):
        read_scores(p)


def test_scores_and_trials_skip_blank_lines(tmp_path):
    (tmp_path / "t.txt").write_text("\nu1 u2 target\n  \t\nu1 u3 nontarget\n\n")
    assert list(read_trials(tmp_path / "t.txt")) == [Trial("u1", "u2", True),
                                                    Trial("u1", "u3", False)]
    (tmp_path / "s.txt").write_text("\nu1 u2 0.5\n \nu1 u3 -1.25\n")
    assert read_scores(tmp_path / "s.txt") == {("u1", "u2"): 0.5, ("u1", "u3"): -1.25}


def test_crlf_files_read_as_lf_files(tmp_path):
    for name, text in (("t", "u1 u2 target\nu1 u3 nontarget\n"), ("s", "u1 u2 0.5\nu1 u3 -1.25\n")):
        (tmp_path / f"{name}-lf.txt").write_bytes(text.encode())
        (tmp_path / f"{name}-crlf.txt").write_bytes(text.replace("\n", "\r\n").encode())
    assert list(read_trials(tmp_path / "t-crlf.txt")) == list(read_trials(tmp_path / "t-lf.txt"))
    assert read_scores(tmp_path / "s-crlf.txt") == read_scores(tmp_path / "s-lf.txt")


def test_a_bad_line_after_blank_lines_is_named_by_its_line_number(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("\n\nu1 u2 target\n \n\nu1 u3\nu2 u3 target\n")
    with pytest.raises(DataError, match=r"t\.txt:6: expected 'enroll test label'"):
        read_trials(p)
    p.write_text("\nu1 u2 target\n\nu1 u3 maybe\n")
    with pytest.raises(DataError, match=r"t\.txt:4: label must be target\|nontarget"):
        read_trials(p)
    p = tmp_path / "s.txt"
    p.write_text("\n\na b 0.5\n\na c 0.1 extra\n")
    with pytest.raises(DataError, match=r"s\.txt:5: expected 'enroll test score'"):
        read_scores(p)
    p.write_text("\na b 0.5\n\t\na c zero\n")
    with pytest.raises(DataError, match=r"s\.txt:4: bad score 'zero'"):
        read_scores(p)


def test_files_with_other_whitespace_read_as_line_splits_do(tmp_path):
    # str.split separates fields at any Unicode whitespace; lines end at \n,
    # \r\n or \r only, so \x1c or U+2028 inside a line separates fields
    p = tmp_path / "t.txt"
    p.write_text("\u00fc1\u3000u2 target\nu1\x1cu3\tnontarget\nu2 u3\u2028target\n",
                 encoding="utf-8")
    assert list(read_trials(p)) == [Trial("\u00fc1", "u2", True), Trial("u1", "u3", False),
                                    Trial("u2", "u3", True)]
    p.write_text("u1 u2 target\nu1\u00a0u3 x nontarget\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"t\.txt:2: expected"):
        read_trials(p)


def test_field_count_check_matches_a_split_of_every_line():
    # the whole-text check against the per-line rule it stands for, on
    # random texts of fields, spaces of several kinds and line ends
    rng = np.random.default_rng(2)
    pieces = ["a", "bb", "\u00e9", " ", " ", "\t", "\x0b", "\x1c", "\u00a0", "\u3000",
              "\u2028", "\r", "\n", "\n"]
    verdicts = set()
    for _ in range(3000):
        text = "".join(rng.choice(pieces, size=int(rng.integers(0, 16))))
        want = all(len(line.split()) in (0, 3) for line in text.split("\n"))
        assert backend._three_fields_a_line(text) == want, repr(text)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_space_test_matches_str_isspace_on_every_ascii_code():
    codes = np.arange(128, dtype=np.uint8)
    assert backend._is_space(codes).tolist() == [chr(c).isspace() for c in range(128)]
    assert backend._is_space(codes.astype(np.uint32)).tolist() == [chr(c).isspace()
                                                                  for c in range(128)]


# A trial file whose lines cross block boundaries at every small block size:
# blank lines, a line longer than the blocks, \r\n line ends, non-ASCII ids
# and no final newline.
LONG_ID = "spk_" + "x" * 40
TRIAL_TEXT = ("u1 u2 target\n\n  \t\n\u00fc1 \u00e9\u00e9 nontarget\r\nu2 u3 target\r\n"
              f"{LONG_ID} u3 nontarget\n\u3000\nu3 \u00fc1 target")
TRIAL_ROWS = [Trial("u1", "u2", True), Trial("\u00fc1", "\u00e9\u00e9", False),
              Trial("u2", "u3", True), Trial(LONG_ID, "u3", False), Trial("u3", "\u00fc1", True)]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13, 21, 34, 1 << 16])
def test_block_reads_match_the_lines(tmp_path, monkeypatch, block):
    monkeypatch.setattr(backend, "READ_BLOCK", block)
    assert block == 1 << 16 or block < len(LONG_ID)  # the long line spans blocks
    p = tmp_path / "t.txt"
    p.write_bytes(TRIAL_TEXT.encode("utf-8"))
    assert list(read_trials(p)) == TRIAL_ROWS
    scores = tmp_path / "s.txt"
    scores.write_bytes(TRIAL_TEXT.replace("nontarget", "-1.5").replace("target", "2.25")
                       .encode("utf-8"))
    assert dict(read_scores(scores)) == {(t.enroll_id, t.test_id): (2.25 if t.target else -1.5)
                                         for t in TRIAL_ROWS}


def test_a_crlf_split_by_a_block_read_is_one_line_end(tmp_path, monkeypatch):
    text = "u1 u2 target\r\nu1 u3 nontarget\r\nu2 u3\r\n"
    # the first read ends between the second line's \r and \n
    monkeypatch.setattr(backend, "READ_BLOCK", text.index("\r", 14) + 1)
    p = tmp_path / "t.txt"
    p.write_bytes(text[:-len("u2 u3\r\n")].encode())
    assert list(read_trials(p)) == [Trial("u1", "u2", True), Trial("u1", "u3", False)]
    p.write_bytes(text.encode())
    with pytest.raises(DataError, match=r"t\.txt:3: expected 'enroll test label', got 'u2 u3'"):
        read_trials(p)


def _padded(bad_line: str, third: str) -> tuple[str, int]:
    """Forty good lines and some blank ones, then `bad_line`, then more good
    lines; with the line number of `bad_line`."""
    good = [f"e{i} t{i} {third}" for i in range(40)]
    lines = good[:10] + ["", " "] + good[10:] + [""] + [bad_line] + good[:3] + ["x y"]
    return "\n".join(lines) + "\n", lines.index(bad_line) + 1


@pytest.mark.parametrize("name, bad_line, message", [
    ("t", "u1 u3", "expected 'enroll test label', got 'u1 u3'"),
    ("t", "u1 u3 maybe", "label must be target\\|nontarget, got 'maybe'"),
    ("s", "u1 u3 0.5 extra", "expected 'enroll test score', got 'u1 u3 0.5 extra'"),
    ("s", "u1 u3 zero", "bad score 'zero'"),
    ("s", "e5 t5 0.25", "a second score for trial e5 t5"),
])
def test_a_fault_in_a_later_block_names_its_line(tmp_path, monkeypatch, name, bad_line, message):
    monkeypatch.setattr(backend, "READ_BLOCK", 16)
    text, lineno = _padded(bad_line, "target" if name == "t" else "0.5")
    p = tmp_path / f"{name}.txt"
    p.write_text(text)
    with pytest.raises(DataError, match=rf"{name}\.txt:{lineno}: {message}"):
        (read_trials if name == "t" else read_scores)(p)


def test_the_first_fault_in_line_order_is_named(tmp_path, monkeypatch):
    # a second score before a bad field count in a later block; bytes that
    # are not utf-8 anywhere come first, as a whole-file read found them
    monkeypatch.setattr(backend, "READ_BLOCK", 16)
    text, lineno = _padded("e5 t5 0.25", "0.5")
    p = tmp_path / "s.txt"
    p.write_text(text + "a b\n")
    with pytest.raises(DataError, match=rf"s\.txt:{lineno}: a second score for trial e5 t5"):
        read_scores(p)
    p.write_bytes((text + "a b\n").encode() + b"c d \xff\n")
    with pytest.raises(ParseError, match="is not utf-8"):
        read_scores(p)


def test_reads_hold_a_few_columns_per_line_not_the_text(tmp_path):
    # Peak memory of read_trials and read_scores at 20,000 and 80,000 lines
    # over 500 ids of 30 characters, each unordered pair at most once: each
    # line adds its enroll and test rows (two int columns) and a bool or
    # float64 column, held twice while the blocks are joined, and
    # read_scores sorts one int column of pair codes: 29 and 46 bytes a
    # line. A whole-file read, which holds the text and one str per field
    # at once, took about 400.
    rng = np.random.default_rng(4)
    ids = [f"speaker{i:04d}_utterance{i:05d}_x" for i in range(500)]
    first, second = np.triu_indices(len(ids), k=1)
    peaks = {}
    for n_lines in (20_000, 80_000):
        pairs = rng.choice(len(first), size=n_lines, replace=False)
        trials = backend.Trials(ids, first[pairs], second[pairs], rng.integers(2, size=n_lines))
        write_trials(tmp_path / "t.txt", trials)
        write_scores(tmp_path / "s.txt", trials, rng.standard_normal(n_lines))
        for read, name in ((read_trials, "t.txt"), (read_scores, "s.txt")):
            tracemalloc.start()
            try:
                read(tmp_path / name)
                _, peaks[name, n_lines] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    for name in ("t.txt", "s.txt"):
        per_line = (peaks[name, 80_000] - peaks[name, 20_000]) / 60_000
        assert per_line < 8 * 8, (name, per_line)  # under eight 8-byte columns


def test_backend_roundtrip_with_plda(tmp_path, plda_truth):
    mean, between, within, x, labs = plda_truth
    pre = Preprocessor(mean=np.arange(3.0), projection=np.eye(3)[:2])
    plda = PldaModel(mean=mean[:2] * 0, between=np.eye(2), within=0.5 * np.eye(2))
    save_backend(tmp_path / "b.xvbk", pre, plda, length_norm=False)
    pre2, plda2, ln = load_backend(tmp_path / "b.xvbk")
    assert not ln
    np.testing.assert_array_equal(pre2.mean, pre.mean)
    np.testing.assert_array_equal(pre2.projection, pre.projection)
    np.testing.assert_array_equal(plda2.between, plda.between)
    np.testing.assert_array_equal(plda2.within, plda.within)


def read_backend_container(path):
    return binio.read_container(path, backend.BACKEND_MAGIC, backend.BACKEND_VERSION, "a backend")


def write_backend_container(path, meta, arrays):
    binio.write_container(path, backend.BACKEND_MAGIC, backend.BACKEND_VERSION, meta, arrays)


def _backend_parts():
    pre = Preprocessor(mean=np.arange(4.0), projection=np.arange(12.0).reshape(3, 4))
    return pre, PldaModel(mean=np.ones(3), between=2 * np.eye(3), within=np.eye(3))


@pytest.mark.parametrize("length_norm", [False, True])
def test_backend_metadata_is_length_norm_alone(tmp_path, length_norm):
    save_backend(tmp_path / "b.xvbk", *_backend_parts(), length_norm)
    meta, arrays = read_backend_container(tmp_path / "b.xvbk")
    assert meta == {"length_norm": str(int(length_norm))}
    assert len(arrays) == 5


@pytest.mark.parametrize("length_norm", [False, True])
def test_backend_with_restated_keys_still_loads(tmp_path, length_norm):
    # a backend of the earlier format also restated its dimensions and
    # whether it holds PLDA
    save_backend(tmp_path / "new.xvbk", *_backend_parts(), length_norm)
    meta, arrays = read_backend_container(tmp_path / "new.xvbk")
    old_meta = {"emb_dim": 4, "lda_dim": 3, **meta, "has_plda": 1}
    write_backend_container(tmp_path / "old.xvbk", old_meta, arrays)
    new, old = load_backend(tmp_path / "new.xvbk"), load_backend(tmp_path / "old.xvbk")
    assert old[2] == new[2] == length_norm
    tensors = [[r[0].mean, r[0].projection, r[1].mean, r[1].between, r[1].within]
               for r in (new, old)]
    assert [a.tobytes() for a in tensors[0]] == [a.tobytes() for a in tensors[1]]


@pytest.mark.parametrize("shapes, message", [
    ([(4,), (3, 4), (3,)], "expected 5 tensors, file has 3"),
    ([(3,), (3, 4), (3,), (3, 3), (3, 3)],
     r"mean shaped \(3,\) does not fit projection shaped \(3, 4\)"),
    ([(4,), (4,), (3,), (3, 3), (3, 3)], r"mean shaped \(4,\) does not fit projection shaped \(4,\)"),
    ([(4,), (3, 4), (2,), (3, 3), (3, 3)], "PLDA tensor shapes do not fit LDA dim 3"),
    ([(4,), (3, 4), (3,), (3, 3), (2, 2)], "PLDA tensor shapes do not fit LDA dim 3"),
    ([(4,), (3, 4)], "expected 5 tensors, file has 2"),  # the centring + LDA form is gone
])
def test_backend_tensor_shapes_must_fit(tmp_path, shapes, message):
    write_backend_container(tmp_path / "b.xvbk", {"length_norm": 1},
                            [np.zeros(shape) for shape in shapes])
    with pytest.raises(DimMismatchError, match=message):
        load_backend(tmp_path / "b.xvbk")


def test_backend_bad_magic(tmp_path):
    (tmp_path / "b.xvbk").write_bytes(b"NOTABACKEND!")
    with pytest.raises(BadMagicError):
        load_backend(tmp_path / "b.xvbk")


def test_backend_truncated(tmp_path):
    save_backend(tmp_path / "b.xvbk", *_backend_parts(), True)
    raw = (tmp_path / "b.xvbk").read_bytes()
    (tmp_path / "b.xvbk").write_bytes(raw[:-5])
    with pytest.raises(TruncatedFileError):
        load_backend(tmp_path / "b.xvbk")


def test_backend_rejects_metadata_line_without_equals(tmp_path):
    save_backend(tmp_path / "b.xvbk", *_backend_parts(), True)
    raw = (tmp_path / "b.xvbk").read_bytes()
    size = int.from_bytes(raw[8:12], "little")
    blob = raw[12:12 + size] + b"\nstray"
    (tmp_path / "b.xvbk").write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                                      + raw[12 + size:])
    with pytest.raises(ParseError, match="stray"):
        load_backend(tmp_path / "b.xvbk")


def test_embeddings_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    vecs = {f"u{i}": rng.normal(size=6).astype(np.float32).astype(np.float64)
            for i in range(5)}
    spk = {f"u{i}": f"s{i % 2}" for i in range(5)}
    write_embeddings(tmp_path / "e.xveb", vecs, spk)
    back_vecs, back_spk = read_embeddings(tmp_path / "e.xveb")
    assert back_spk == spk
    assert list(back_vecs) == list(vecs)
    for u in vecs:
        np.testing.assert_array_equal(back_vecs[u], vecs[u].astype(np.float32))


@pytest.mark.parametrize("label", [None, ""], ids=["missing", "empty"])
def test_embeddings_need_a_speaker_label_for_every_vector(tmp_path, label):
    # an unlabeled vector would be pooled with every other as one speaker ""
    vecs = {f"u{i}": np.ones(3) for i in range(3)}
    spk = {"u0": "s0", "u2": "s1"} | ({} if label is None else {"u1": label})
    with pytest.raises(DataError, match="no speaker label for utterance 'u1'"):
        write_embeddings(tmp_path / "e.xveb", vecs, spk)
    assert list(tmp_path.iterdir()) == []


def test_embeddings_reject_an_empty_archive(tmp_path):
    # write_embeddings refuses to write one; a header counting 0 is malformed
    (tmp_path / "e.xveb").write_bytes(b"XVEB" + (1).to_bytes(4, "little")
                                      + (0).to_bytes(4, "little") + (4).to_bytes(4, "little"))
    with pytest.raises(ParseError, match="e.xveb: the archive holds no embeddings"):
        read_embeddings(tmp_path / "e.xveb")


def test_embeddings_bad_magic(tmp_path):
    (tmp_path / "e.xveb").write_bytes(b"XXXX" + b"\x00" * 10)
    with pytest.raises(BadMagicError):
        read_embeddings(tmp_path / "e.xveb")
