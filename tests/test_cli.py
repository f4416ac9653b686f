"""Command-line surface: config files, subcommands, and the sweep driver."""

import dataclasses
import shutil

import numpy as np
import pytest

from xveckit.backend import read_embeddings, write_embeddings
from xveckit.cli import RunConfig, main, parse_config, serialize_config, system_name
from xveckit.data import CorpusSpec
from xveckit.errors import ConfigurationError
from xveckit.metrics import DcfParams
from xveckit.model import ModelConfig

MICRO = """
num_speakers = 4
utterances_per_speaker = 8
feature_dim = 6
min_frames = 40
max_frames = 60
frame_widths = 8,8,8,8,16
segment_width = 8
batch_size = 4
epochs = 2
crop_length = 20
holdout_per_speaker = 3
lda_dim = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated corpus + trained system shared by the cheap tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.txt"
    cfg.write_text(MICRO)
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "corpus")]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(root / "corpus"),
                 "--out", str(root / "sys")]) == 0
    assert main(["extract", "--config", str(cfg), "--model", str(root / "sys" / "model.ckpt"),
                 "--data", str(root / "corpus"), "--split", "heldout",
                 "--out", str(root / "held.xveb")]) == 0
    return root, cfg


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_roundtrip_is_a_fixed_point():
    cfg = parse_config(MICRO)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_config_defaults_roundtrip():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_parses_types():
    cfg = parse_config(MICRO)
    assert cfg.frame_widths == (8, 8, 8, 8, 16)
    assert cfg.num_speakers == 4
    assert cfg.length_norm is True
    assert cfg.vad_offset is None
    assert isinstance(cfg.task_weight, float)


def test_config_numpy_floats_roundtrip():
    cfg = RunConfig(task_weight=np.float64(0.3), spread=np.float32(0.25),
                    vad_offset=np.float64(1.5))
    text = serialize_config(cfg)
    assert "task_weight = 0.3\n" in text and "vad_offset = 1.5\n" in text
    assert parse_config(text) == cfg


@pytest.mark.parametrize("cls", [CorpusSpec, ModelConfig, DcfParams], ids=lambda c: c.__name__)
def test_projected_fields_exist_in_run_config(cls):
    run_fields = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    for f in dataclasses.fields(cls):
        assert run_fields.get(f.name) == f.type, f.name


def test_config_skips_comments_and_blanks():
    cfg = parse_config("# a comment\n\nseed = 9\n")
    assert cfg.seed == 9


def test_config_unknown_key_names_the_line():
    with pytest.raises(ConfigurationError, match="3"):
        parse_config("seed = 1\n\nnot_a_key = 2\n")


def test_config_bad_value():
    with pytest.raises(ConfigurationError):
        parse_config("epochs = soon\n")
    with pytest.raises(ConfigurationError):
        parse_config("length_norm = maybe\n")


def test_config_validation():
    with pytest.raises(ConfigurationError):
        parse_config("scorer = euclid\n")
    with pytest.raises(ConfigurationError):
        parse_config("holdout_per_speaker = -1\n")


def test_system_name_convention():
    assert system_name(4, 0.0) == "baseline"
    assert system_name(0, 0.0) == "baseline"
    assert system_name(4, 0.3) == "MT-o4-a3"
    assert system_name(2, 1.0) == "MT-o2-a10"
    assert system_name(3, 0.5) == "MT-o3-a5"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_gen_data_is_deterministic(workspace, tmp_path):
    root, cfg = workspace
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
    a = (root / "corpus" / "manifest.csv").read_bytes()
    b = (tmp_path / "again" / "manifest.csv").read_bytes()
    assert a == b


def test_pipeline_through_evaluate(workspace, tmp_path):
    root, cfg = workspace
    from xveckit.backend import all_pairs_trials, read_embeddings, write_trials
    vecs, spk = read_embeddings(root / "held.xveb")
    assert len(vecs) == 4 * 3  # heldout split: 3 utterances per speaker
    write_trials(tmp_path / "trials.txt", all_pairs_trials(spk))

    scores = tmp_path / "scores.txt"
    assert main(["score", "--config", str(cfg), "--trials", str(tmp_path / "trials.txt"),
                 "--embeddings", str(root / "held.xveb"), "--out", str(scores)]) == 0
    lines = scores.read_text().splitlines()
    assert len(lines) == 12 * 11 // 2
    assert all(len(line.split()) == 3 for line in lines)

    out_csv = tmp_path / "metrics.csv"
    assert main(["evaluate", "--config", str(cfg), "--scores", str(scores),
                 "--trials", str(tmp_path / "trials.txt"), "--out", str(out_csv)]) == 0
    parsed = dict(line.split(",") for line in out_csv.read_text().splitlines()[1:])
    assert 0.0 <= float(parsed["eer"]) <= 1.0
    assert int(parsed["num_target"]) == 4 * 3  # C(3,2) same-speaker pairs per speaker


def test_plda_backend_chain(workspace, tmp_path):
    root, cfg = workspace
    train_emb = tmp_path / "train.xveb"
    assert main(["extract", "--config", str(cfg), "--model", str(root / "sys" / "model.ckpt"),
                 "--data", str(root / "corpus"), "--split", "train",
                 "--out", str(train_emb)]) == 0
    backend = tmp_path / "backend.xvbk"
    assert main(["train-backend", "--config", str(cfg), "--embeddings", str(train_emb),
                 "--out", str(backend)]) == 0

    from xveckit.backend import all_pairs_trials, read_embeddings, write_trials
    _, spk = read_embeddings(root / "held.xveb")
    write_trials(tmp_path / "trials.txt", all_pairs_trials(spk))
    assert main(["score", "--config", str(cfg), "--trials", str(tmp_path / "trials.txt"),
                 "--embeddings", str(root / "held.xveb"), "--backend", str(backend),
                 "--scorer", "plda", "--out", str(tmp_path / "plda.txt")]) == 0


def test_plda_scoring_requires_backend(workspace, tmp_path):
    root, cfg = workspace
    from xveckit.backend import all_pairs_trials, read_embeddings, write_trials
    _, spk = read_embeddings(root / "held.xveb")
    write_trials(tmp_path / "trials.txt", all_pairs_trials(spk))
    rc = main(["score", "--config", str(cfg), "--trials", str(tmp_path / "trials.txt"),
               "--embeddings", str(root / "held.xveb"), "--scorer", "plda",
               "--out", str(tmp_path / "p.txt")])
    assert rc == 1


def test_evaluate_rejects_missing_scores(workspace, tmp_path):
    root, cfg = workspace
    (tmp_path / "trials.txt").write_text("u1 u2 target\n")
    (tmp_path / "scores.txt").write_text("u9 u8 0.5\n")
    rc = main(["evaluate", "--config", str(cfg), "--scores", str(tmp_path / "scores.txt"),
               "--trials", str(tmp_path / "trials.txt")])
    assert rc == 1


def test_unknown_flag_exits_with_usage_error(workspace):
    _, cfg = workspace
    assert main(["gen-data", "--config", str(cfg), "--frobnicate"]) == 1


def test_unknown_subcommand():
    assert main(["transmogrify"]) == 1


def test_help_exits_clean():
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0


def test_bad_config_file_exits_one(workspace, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("nonsense_key = 1\n")
    assert main(["gen-data", "--config", str(p), "--out", str(tmp_path / "x")]) == 1


def test_missing_config_file_exits_one(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_names_rows_and_dedups(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "sweep"
    # alpha 0 twice: the duplicate baseline must collapse to one system
    rc = main(["sweep", "--config", str(cfg), "--data", str(root / "corpus"),
               "--alphas", "0,0,0.3", "--orders", "4", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "system,eer,min_dcf,act_dcf"
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["baseline", "MT-o4-a3"]
    for name in names:
        for artifact in ("config.txt", "model.ckpt", "train_log.csv",
                         "embeddings.xveb", "trials.txt", "scores.txt", "metrics.csv"):
            assert (out / name / artifact).exists()
    for line in lines[1:]:
        for field in line.split(",")[1:]:
            assert np.isfinite(float(field))


def test_sweep_rejects_empty_grid(workspace, tmp_path):
    root, cfg = workspace
    rc = main(["sweep", "--config", str(cfg), "--data", str(root / "corpus"),
               "--alphas", "", "--orders", "4", "--out", str(tmp_path / "s")])
    assert rc == 1


def test_sweep_plda_scores_match_score_command(workspace, tmp_path):
    root, cfg = workspace
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--data", str(root / "corpus"),
                 "--alphas", "0.3", "--orders", "4", "--scorer", "plda", "--out", str(out)]) == 0
    system = out / "MT-o4-a3"
    rescored = tmp_path / "rescored.txt"
    assert main(["score", "--config", str(cfg), "--trials", str(system / "trials.txt"),
                 "--embeddings", str(system / "embeddings.xveb"),
                 "--backend", str(system / "backend.xvbk"), "--scorer", "plda",
                 "--out", str(rescored)]) == 0
    assert rescored.read_bytes() == (system / "scores.txt").read_bytes()


# ---------------------------------------------------------------------------
# malformed artifacts
# ---------------------------------------------------------------------------

# offset: the first byte of the metadata blob (checkpoint, backend) or of
# the first utterance id (embedding archive)
@pytest.mark.parametrize("artifact, offset",
                         [("model.ckpt", 12), ("backend.xvbk", 12), ("held.xveb", 20)])
def test_non_utf8_artifact_exits_one(workspace, tmp_path, caplog, artifact, offset):
    root, cfg = workspace
    from xveckit.backend import all_pairs_trials, read_embeddings, write_trials
    files = {"model.ckpt": root / "sys" / "model.ckpt", "held.xveb": root / "held.xveb",
             "backend.xvbk": tmp_path / "backend.xvbk"}
    assert main(["train-backend", "--config", str(cfg), "--embeddings", str(files["held.xveb"]),
                 "--out", str(files["backend.xvbk"])]) == 0
    raw = bytearray(files[artifact].read_bytes())
    raw[offset] = 0xFF
    files[artifact] = tmp_path / f"bad-{artifact}"
    files[artifact].write_bytes(raw)
    if artifact == "model.ckpt":
        argv = ["extract", "--model", str(files["model.ckpt"]), "--data", str(root / "corpus"),
                "--out", str(tmp_path / "e.xveb")]
    else:
        _, spk = read_embeddings(root / "held.xveb")
        write_trials(tmp_path / "trials.txt", all_pairs_trials(spk))
        argv = ["score", "--trials", str(tmp_path / "trials.txt"),
                "--embeddings", str(files["held.xveb"]), "--backend", str(files["backend.xvbk"]),
                "--scorer", "plda", "--out", str(tmp_path / "s.txt")]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "is not utf-8" in caplog.text


@pytest.mark.parametrize("command", ["train", "extract"])
def test_non_finite_feature_exits_one(workspace, tmp_path, caplog, command):
    root, cfg = workspace
    corpus = tmp_path / "corpus"
    shutil.copytree(root / "corpus", corpus)
    feature = corpus / "features" / "spk0001_utt0002.xvf"  # in the train split
    raw = bytearray(feature.read_bytes())
    raw[12 + 4 * 7: 12 + 4 * 8] = np.float32(np.nan).tobytes()  # frame 1, dim 1
    feature.write_bytes(raw)
    if command == "train":
        argv = ["train", "--data", str(corpus), "--out", str(tmp_path / "sys")]
    else:
        argv = ["extract", "--model", str(root / "sys" / "model.ckpt"), "--data", str(corpus),
                "--split", "train", "--out", str(tmp_path / "e.xveb")]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "non-finite value in utterance 'spk0001_utt0002', frame 1" in caplog.text


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["train-backend", "score"])
def test_non_finite_embedding_exits_one(workspace, tmp_path, caplog, command, value):
    root, cfg = workspace
    from xveckit.backend import all_pairs_trials, write_trials
    vectors, speakers = read_embeddings(root / "held.xveb")
    bad_utt = sorted(vectors)[4]
    vectors[bad_utt][2] = value
    embeddings = tmp_path / "bad.xveb"
    write_embeddings(embeddings, vectors, speakers)
    if command == "train-backend":
        argv = ["train-backend", "--embeddings", str(embeddings), "--out", str(tmp_path / "b")]
    else:
        write_trials(tmp_path / "trials.txt", all_pairs_trials(speakers))
        argv = ["score", "--trials", str(tmp_path / "trials.txt"),
                "--embeddings", str(embeddings), "--out", str(tmp_path / "s.txt")]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert f"non-finite value in the embedding of utterance '{bad_utt}'" in caplog.text
