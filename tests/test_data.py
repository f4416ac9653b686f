"""Corpus generation, feature files, manifests, VAD, and batching."""

import csv

import numpy as np
import pytest

from xveckit import data
from xveckit.data import (
    MIN_CROP,
    CorpusSpec,
    FeatureMatrix,
    Manifest,
    ManifestEntry,
    energy_vad,
    generate_corpus,
    make_batches,
    read_features,
    write_features,
)
from xveckit.errors import (
    BadMagicError,
    ConfigurationError,
    DataError,
    DimMismatchError,
    EmptyAfterVadError,
    ParseError,
    TruncatedFileError,
)
from xveckit.stats import hos_vector, moments

SPEC = CorpusSpec(num_speakers=6, utterances_per_speaker=6, feature_dim=4,
                  min_frames=40, max_frames=60, ar_coeff=0.5, spread=3.0, seed=123)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return generate_corpus(SPEC, out), out


# ---------------------------------------------------------------------------
# corpus generator
# ---------------------------------------------------------------------------

def test_generation_is_bit_identical(corpus, tmp_path):
    manifest, out = corpus
    again = generate_corpus(SPEC, tmp_path)
    assert (tmp_path / "manifest.csv").read_bytes() == (out / "manifest.csv").read_bytes()
    for e in manifest:
        assert (tmp_path / e.path).read_bytes() == (out / e.path).read_bytes()
    assert [e.utt_id for e in again] == [e.utt_id for e in manifest]


def test_corpus_shape_contract(corpus):
    manifest, _ = corpus
    assert len(manifest) == 36
    assert len(manifest.speakers) == 6
    for e in manifest:
        fm = manifest.load_features(e)
        assert SPEC.min_frames <= fm.num_frames <= SPEC.max_frames
        assert fm.feature_dim == SPEC.feature_dim
        assert fm.frames.dtype == np.float32


def test_speakers_are_separable(corpus):
    # nearest centroid over utterance statistics: the corpus is easy by
    # construction, anything below ~1.0 accuracy means broken generation
    manifest, _ = corpus
    vecs, spks = [], []
    for e in manifest:
        vecs.append(hos_vector(manifest.load_features(e).frames))
        spks.append(e.speaker_id)
    vecs = np.array(vecs)
    speakers = sorted(set(spks))
    train = {s: np.mean([v for v, k in zip(vecs, spks) if k == s][:3], axis=0)
             for s in speakers}
    correct = total = 0
    for v, k in zip(vecs, spks):
        guess = min(speakers, key=lambda s: np.linalg.norm(v - train[s]))
        correct += guess == k
        total += 1
    assert correct / total > 0.95


def test_speaker_moment_signatures_differ(corpus):
    # the mixture innovations give speakers distinct skewness, not just
    # distinct means
    manifest, _ = corpus
    by_spk = {}
    for e in manifest:
        m = moments(manifest.load_features(e).frames)
        by_spk.setdefault(e.speaker_id, []).append(np.mean(m.skew))
    means = [np.mean(v) for v in by_spk.values()]
    assert max(means) - min(means) > 0.2


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        CorpusSpec(num_speakers=1).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(min_frames=5).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(min_frames=50, max_frames=40).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(ar_coeff=1.0).validate()
    with pytest.raises(ConfigurationError):
        CorpusSpec(spread=0.0).validate()


# ---------------------------------------------------------------------------
# feature file format
# ---------------------------------------------------------------------------

def test_feature_roundtrip(tmp_path):
    frames = np.random.default_rng(0).normal(size=(17, 5)).astype(np.float32)
    path = tmp_path / "u.xvf"
    write_features(path, FeatureMatrix("u", "s", frames))
    back = read_features(path, utt_id="u", speaker_id="s")
    assert back.frames.tobytes() == frames.tobytes()
    assert (back.utt_id, back.speaker_id) == ("u", "s")


def test_feature_bad_magic(tmp_path):
    path = tmp_path / "bad.xvf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_features(path)


def test_feature_truncated(tmp_path):
    frames = np.zeros((10, 3), dtype=np.float32)
    path = tmp_path / "t.xvf"
    write_features(path, FeatureMatrix("t", "s", frames))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedFileError):
        read_features(path)


def test_feature_bad_header_dims(tmp_path):
    import struct
    path = tmp_path / "z.xvf"
    path.write_bytes(struct.pack("<4sII", b"XVF1", 0, 10))
    with pytest.raises(DimMismatchError):
        read_features(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_feature_rejects_non_finite(tmp_path, value):
    frames = np.zeros((10, 3), dtype=np.float32)
    frames[6, 1] = value
    path = tmp_path / "n.xvf"
    write_features(path, FeatureMatrix("n", "s", frames))
    with pytest.raises(ParseError, match=r"n\.xvf: non-finite value in utterance 'u7', frame 6"):
        read_features(path, utt_id="u7")


def test_manifest_frame_count_mismatch(tmp_path):
    frames = np.zeros((10, 3), dtype=np.float32)
    write_features(tmp_path / "u.xvf", FeatureMatrix("u", "s", frames))
    man = Manifest([ManifestEntry("u", "s", "u.xvf", 11)], tmp_path)
    with pytest.raises(DimMismatchError):
        man.load_features(man.entries[0])


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(corpus, tmp_path):
    manifest, _ = corpus
    manifest.save(tmp_path / "m.csv")
    back = Manifest.load(tmp_path / "m.csv")
    assert [(e.utt_id, e.speaker_id, e.path, e.num_frames) for e in back] \
        == [(e.utt_id, e.speaker_id, e.path, e.num_frames) for e in manifest]


def test_manifest_rejects_bad_header(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(DataError):
        Manifest.load(p)


def test_manifest_rejects_bad_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("utt_id,speaker_id,path,num_frames\nu,s,u.xvf,many\n")
    with pytest.raises(DataError, match="2"):
        Manifest.load(p)


def test_manifest_rejects_non_utf8(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"utt_id,speaker_id,path,num_frames\nu\xff,s,u.xvf,10\n")
    with pytest.raises(ParseError, match="is not utf-8"):
        Manifest.load(p)


def test_manifest_save_failure_keeps_previous_file(corpus, tmp_path, monkeypatch):
    manifest, _ = corpus
    path = tmp_path / "manifest.csv"
    manifest.save(path)
    previous = path.read_bytes()
    assert previous.count(b"\r\n") == len(manifest) + 1  # csv line ends survive
    rows = []
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh):
            self.inner = real_writer(fh)

        def writerow(self, row):
            rows.append(row)
            if len(rows) == 3:
                raise OSError("no space left on device")
            self.inner.writerow(row)

    monkeypatch.setattr(data.csv, "writer", FailingWriter)
    with pytest.raises(OSError, match="no space"):
        Manifest(manifest.entries[::-1], manifest.base_dir).save(path)
    assert len(rows) == 3
    assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]


def test_speaker_index_is_sorted_and_stable(corpus):
    manifest, _ = corpus
    idx = manifest.speaker_index()
    assert list(idx) == sorted(idx)
    assert sorted(idx.values()) == list(range(6))


def test_split_takes_last_utterances(corpus):
    manifest, _ = corpus
    train, held = manifest.split(2)
    assert len(train) == 24 and len(held) == 36 - 24
    for spk in manifest.speakers:
        held_ids = sorted(e.utt_id for e in held if e.speaker_id == spk)
        all_ids = sorted(e.utt_id for e in manifest if e.speaker_id == spk)
        assert held_ids == all_ids[-2:]
    assert train.speakers == manifest.speakers


def test_split_rejects_exhausting_a_speaker(corpus):
    manifest, _ = corpus
    with pytest.raises(ConfigurationError):
        manifest.split(6)
    with pytest.raises(ConfigurationError):
        manifest.split(-1)


def test_split_zero_keeps_everything(corpus):
    manifest, _ = corpus
    train, held = manifest.split(0)
    assert len(train) == len(manifest) and len(held) == 0


# ---------------------------------------------------------------------------
# energy VAD
# ---------------------------------------------------------------------------

def test_vad_worked_example():
    fm = FeatureMatrix("u", "s", np.array([[0.0], [0.0], [10.0], [10.0]], dtype=np.float32))
    kept = energy_vad(fm, 2.0)  # mean 5, threshold 3: the two loud frames stay
    np.testing.assert_array_equal(kept.frames, [[10.0], [10.0]])


def test_vad_infinite_offset_keeps_all():
    fm = FeatureMatrix("u", "s", np.random.default_rng(0).normal(size=(9, 2)).astype(np.float32))
    kept = energy_vad(fm, np.inf)
    assert kept.num_frames == 9


def test_vad_can_empty_an_utterance():
    fm = FeatureMatrix("quiet", "s", np.zeros((4, 1), dtype=np.float32) + 1.0)
    with pytest.raises(EmptyAfterVadError, match="quiet"):
        energy_vad(fm, -0.5)  # threshold above every frame


def test_vad_only_looks_at_coefficient_zero():
    frames = np.zeros((4, 2), dtype=np.float32)
    frames[:, 0] = [0.0, 0.0, 10.0, 10.0]
    frames[:, 1] = [99.0, 99.0, 0.0, 0.0]  # loud second coeff must not matter
    kept = energy_vad(FeatureMatrix("u", "s", frames), 2.0)
    assert kept.num_frames == 2
    np.testing.assert_array_equal(kept.frames[:, 0], [10.0, 10.0])


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def collect(manifest, **kw):
    return list(make_batches(manifest, **kw))


def test_batches_deterministic_in_seed_and_epoch(corpus):
    manifest, _ = corpus
    kw = dict(crop_length=30, batch_size=4, seed=5, epoch=2)
    a, b = collect(manifest, **kw), collect(manifest, **kw)
    assert len(a) == len(b) == 36 // 4
    for x, y in zip(a, b):
        assert x.features.tobytes() == y.features.tobytes()
        assert x.labels.tobytes() == y.labels.tobytes()
        assert x.targets.tobytes() == y.targets.tobytes()
        assert x.utt_ids == y.utt_ids


def test_batches_differ_across_epochs(corpus):
    manifest, _ = corpus
    a = collect(manifest, crop_length=30, batch_size=4, seed=5, epoch=0)
    b = collect(manifest, crop_length=30, batch_size=4, seed=5, epoch=1)
    assert any(x.utt_ids != y.utt_ids for x, y in zip(a, b))


def test_batch_targets_match_crop_statistics(corpus):
    manifest, _ = corpus
    for batch in collect(manifest, crop_length=30, batch_size=4, seed=1, epoch=0):
        for row in range(4):
            want = hos_vector(batch.features[row].astype(np.float64), order=4)
            np.testing.assert_allclose(batch.targets[row], want, atol=1e-5)
        break


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_batch_targets_equal_per_crop_targets_bitwise(order, tmp_path):
    # targets are computed for the whole batch at once; each row must be
    # the very bytes a per-crop hos_vector gives, a constant dimension too
    rng = np.random.default_rng(order)
    entries = []
    for u in range(6):
        frames = rng.normal(size=(int(rng.integers(40, 60)), 3)).astype(np.float32)
        if u == 2:
            frames[:, 1] = 0.75
        write_features(tmp_path / f"u{u}.xvf", FeatureMatrix(f"u{u}", f"s{u % 3}", frames))
        entries.append(ManifestEntry(f"u{u}", f"s{u % 3}", f"u{u}.xvf", len(frames)))
    manifest = Manifest(entries, tmp_path)
    batches = list(make_batches(manifest, crop_length=30, batch_size=3, seed=4, epoch=0,
                                order=order))
    assert len(batches) == 2
    assert any("u2" in b.utt_ids for b in batches)
    for batch in batches:
        assert batch.targets.dtype == np.float32
        for row in range(3):
            want = hos_vector(batch.features[row], order).astype(np.float32)
            assert batch.targets[row].tobytes() == want.tobytes()


def test_batch_labels_match_speaker_index(corpus):
    manifest, _ = corpus
    idx = manifest.speaker_index()
    spk_of = {e.utt_id: e.speaker_id for e in manifest}
    for batch in collect(manifest, crop_length=30, batch_size=4, seed=2, epoch=0):
        for utt, lab in zip(batch.utt_ids, batch.labels):
            assert idx[spk_of[utt]] == lab


def test_short_utterances_skipped_and_tail_dropped(corpus, caplog):
    manifest, _ = corpus
    lengths = sorted(e.num_frames for e in manifest)
    crop = lengths[3] + 1  # drops at least 4 utterances
    eligible = sum(1 for e in manifest if e.num_frames >= crop)
    with caplog.at_level("WARNING"):
        batches = collect(manifest, crop_length=crop, batch_size=4, seed=0, epoch=0)
    assert len(batches) == eligible // 4
    assert any("skipping" in r.message for r in caplog.records)


def test_order_zero_has_no_targets(corpus):
    manifest, _ = corpus
    batch = next(make_batches(manifest, crop_length=30, batch_size=4,
                              seed=0, epoch=0, order=0))
    assert batch.targets is None


def test_batch_validation(corpus):
    manifest, _ = corpus
    with pytest.raises(ConfigurationError):
        collect(manifest, crop_length=MIN_CROP - 1, batch_size=4, seed=0, epoch=0)
    with pytest.raises(ConfigurationError):
        collect(manifest, crop_length=30, batch_size=1, seed=0, epoch=0)
    with pytest.raises(ConfigurationError):
        next(make_batches(manifest, crop_length=30, batch_size=4, seed=0, epoch=0, order=9))
    with pytest.raises(DataError):
        collect(manifest, crop_length=10_000, batch_size=4, seed=0, epoch=0)
