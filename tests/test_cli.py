"""Command-line surface: config files, subcommands, and the sweep driver."""

import dataclasses
import math
import shutil
from collections import Counter

import numpy as np
import pytest

from xveckit import backend, binio, model
from xveckit.backend import read_embeddings, write_embeddings
from xveckit.cli import RunConfig, main, parse_config, serialize_config, system_name
from xveckit.data import CorpusSpec, Manifest
from xveckit.errors import ConfigurationError, ParseError
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


FLOAT_FIELDS = [(cls, f.name) for cls in (CorpusSpec, ModelConfig, DcfParams)
                for f in dataclasses.fields(cls) if f.type == "float"]
REQUIRED = {ModelConfig: {"feature_dim": 4, "num_speakers": 3}}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_float_fields_must_be_finite(cls, name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite, got {value}"):
        record = cls(**REQUIRED.get(cls, {}), **{name: value})  # DcfParams checks here
        record.validate()


def test_vad_offset_may_be_infinite():
    assert parse_config("vad_offset = inf\n").vad_offset == math.inf


def test_gen_data_rejects_nan_spread(tmp_path, caplog):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("spread = nan\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 1
    assert "spread must be finite, got nan" in caplog.text
    assert not (tmp_path / "corpus").exists()


def test_gen_data_validates_every_projected_field(tmp_path, caplog):
    # the model and detection-cost fields are checked at load, even by a
    # command that uses neither
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("learning_rate = -1\np_target = 2\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 1
    assert "learning_rate must be positive, got -1.0" in caplog.text
    assert "p_target must lie in (0, 1), got 2.0" in caplog.text
    assert not (tmp_path / "corpus").exists()


def test_vad_offset_must_not_be_nan(tmp_path, caplog):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("vad_offset = nan\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 1
    assert "vad_offset must not be nan" in caplog.text
    assert not (tmp_path / "corpus").exists()


def test_config_without_head_has_no_task_weight():
    # a config file may say mtl_order = 0 alone, as --order 0 may
    assert parse_config("mtl_order = 0\n").task_weight == 0.0


def test_config_skips_comments_and_blanks():
    cfg = parse_config("# a comment\n\nseed = 9\n")
    assert cfg.seed == 9


def test_config_unknown_key_names_the_line():
    with pytest.raises(ConfigurationError, match="3"):
        parse_config("seed = 1\n\nnot_a_key = 2\n")


def test_config_rejects_plda_iterations_as_an_unknown_key():
    # the PLDA fit always runs fit_plda's 20 EM iterations
    with pytest.raises(ConfigurationError, match="unknown key 'plda_iterations'"):
        parse_config("plda_iterations = 20\n")


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


def test_evaluate_rejects_a_trial_scored_twice(workspace, tmp_path, caplog):
    _, cfg = workspace
    (tmp_path / "trials.txt").write_text("a b target\na c nontarget\n")
    (tmp_path / "scores.txt").write_text("a b 0.9\na c 0.1\na b -5.0\n")
    rc = main(["evaluate", "--config", str(cfg), "--scores", str(tmp_path / "scores.txt"),
               "--trials", str(tmp_path / "trials.txt")])
    assert rc == 1
    assert "scores.txt:3: a second score for trial a b" in caplog.text


REPEATED_TRIAL = "u0 u1 target\nu0 u2 nontarget\nu0 u1 {label}\nu2 u3 target\nu1 u3 nontarget\n"


@pytest.mark.parametrize("label", ["target", "nontarget"])
def test_score_rejects_a_trial_list_that_repeats_a_trial(workspace, tmp_path, caplog, label):
    _, cfg = workspace
    rng = np.random.default_rng(0)
    write_embeddings(tmp_path / "e.xveb", {f"u{i}": rng.standard_normal(4) for i in range(4)},
                     {f"u{i}": f"s{i // 2}" for i in range(4)})
    (tmp_path / "trials.txt").write_text(REPEATED_TRIAL.format(label=label))
    rc = main(["score", "--config", str(cfg), "--trials", str(tmp_path / "trials.txt"),
               "--embeddings", str(tmp_path / "e.xveb"), "--out", str(tmp_path / "s.txt")])
    assert rc == 1
    assert "trial 3: repeats trial 1 (u0 u1)" in caplog.text
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize("label", ["target", "nontarget"])
def test_evaluate_rejects_a_trial_list_that_repeats_a_trial(workspace, tmp_path, caplog, label):
    # the score file holds each pair once, so only the trial list is at fault
    _, cfg = workspace
    (tmp_path / "trials.txt").write_text(REPEATED_TRIAL.format(label=label))
    (tmp_path / "s.txt").write_text("u0 u1 0.9\nu0 u2 0.1\nu2 u3 0.8\nu1 u3 0.2\n")
    rc = main(["evaluate", "--config", str(cfg), "--scores", str(tmp_path / "s.txt"),
               "--trials", str(tmp_path / "trials.txt")])
    assert rc == 1
    assert "trial 3: repeats trial 1 (u0 u1)" in caplog.text


REVERSED_TRIAL = "u0 u1 target\nu0 u2 nontarget\nu1 u0 target\nu2 u3 target\n"


def test_score_and_evaluate_reject_a_trial_list_that_holds_a_pair_both_ways(
        workspace, tmp_path, caplog):
    # both scorers give (u1, u0) the score of (u0, u1), so the list would
    # count one comparison twice in EER and DCF
    _, cfg = workspace
    rng = np.random.default_rng(0)
    write_embeddings(tmp_path / "e.xveb", {f"u{i}": rng.standard_normal(4) for i in range(4)},
                     {f"u{i}": f"s{i // 2}" for i in range(4)})
    (tmp_path / "trials.txt").write_text(REVERSED_TRIAL)
    assert main(["score", "--config", str(cfg), "--trials", str(tmp_path / "trials.txt"),
                 "--embeddings", str(tmp_path / "e.xveb"), "--out", str(tmp_path / "s.txt")]) == 1
    assert not (tmp_path / "s.txt").exists()
    assert "trial 3: repeats trial 1 (u0 u1)" in caplog.text
    # a score file that holds both orders, as a line-per-trial scorer
    # writes it, scores that pair twice by the same rule
    (tmp_path / "s.txt").write_text("u0 u1 0.9\nu0 u2 0.1\nu1 u0 0.9\nu2 u3 0.8\n")
    assert main(["evaluate", "--config", str(cfg), "--scores", str(tmp_path / "s.txt"),
                 "--trials", str(tmp_path / "trials.txt")]) == 1
    assert "s.txt:3: a second score for trial u1 u0" in caplog.text


def test_evaluate_names_the_first_trial_without_a_score(workspace, tmp_path, caplog):
    _, cfg = workspace
    (tmp_path / "trials.txt").write_text("u0 u1 target\nu0 u2 nontarget\nu0 u3 target\n")
    (tmp_path / "s.txt").write_text("u0 u2 0.1\nu0 u1 0.9\n")
    rc = main(["evaluate", "--config", str(cfg), "--scores", str(tmp_path / "s.txt"),
               "--trials", str(tmp_path / "trials.txt")])
    assert rc == 1
    assert "trial 3 (u0 u3) has no score in" in caplog.text


def test_evaluate_joins_scores_by_pair_not_by_line(workspace, tmp_path):
    # a score file in another order than the trial list, holding scores of
    # pairs the list does not name, evaluates to the same bytes
    _, cfg = workspace
    rng = np.random.default_rng(8)
    trials = backend.all_pairs_trials({f"u{i}": f"s{i // 3}" for i in range(9)})
    backend.write_trials(tmp_path / "trials.txt", trials)
    lines = [f"{t.enroll_id} {t.test_id} {v:.6f}\n"
             for t, v in zip(trials, rng.standard_normal(len(trials)))]
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    (tmp_path / "in_order.txt").write_text("".join(lines))
    (tmp_path / "shuffled.txt").write_text(
        "".join(shuffled[:5] + ["u1 ghost 9.5\n", "u0 ghost -3.0\n"] + shuffled[5:]))
    for name in ("in_order", "shuffled"):
        assert main(["evaluate", "--config", str(cfg), "--scores", str(tmp_path / f"{name}.txt"),
                     "--trials", str(tmp_path / "trials.txt"),
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "shuffled.csv").read_bytes() == (tmp_path / "in_order.csv").read_bytes()


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


def test_swept_system_does_not_depend_on_its_neighbours(workspace, tmp_path):
    # every system trains from the base seed, so MT-o4-a3 swept beside the
    # baseline holds the same bytes as MT-o4-a3 swept alone
    root, cfg = workspace
    for alphas in ("0.3", "0,0.3"):
        assert main(["sweep", "--config", str(cfg), "--data", str(root / "corpus"),
                     "--alphas", alphas, "--orders", "4", "--out", str(tmp_path / alphas)]) == 0
    alone, beside = tmp_path / "0.3" / "MT-o4-a3", tmp_path / "0,0.3" / "MT-o4-a3"
    names = sorted(p.name for p in alone.iterdir())
    assert names == sorted(p.name for p in beside.iterdir())
    for name in names:
        assert (alone / name).read_bytes() == (beside / name).read_bytes(), name


def test_sweep_rejects_empty_grid(workspace, tmp_path):
    root, cfg = workspace
    rc = main(["sweep", "--config", str(cfg), "--data", str(root / "corpus"),
               "--alphas", "", "--orders", "4", "--out", str(tmp_path / "s")])
    assert rc == 1


def test_sweep_rejects_two_grid_points_of_one_name(workspace, tmp_path, caplog):
    # 0.3 and 0.30000001 both name MT-o4-a3: training one of them alone
    # would drop a grid point. The baseline every order shares stays one.
    root, cfg = workspace
    sweep = ["sweep", "--config", str(cfg), "--data", str(root / "corpus"), "--orders", "4,2"]
    assert main(sweep + ["--alphas", "0,0.3,0.30000001", "--out", str(tmp_path / "s")]) == 1
    assert "task weights 0.3 and 0.30000001 both name system MT-o4-a3" in caplog.text
    assert not (tmp_path / "s").exists()
    assert main(sweep + ["--alphas", "0", "--out", str(tmp_path / "b")]) == 0
    rows = (tmp_path / "b" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["baseline"]


def test_sweep_validates_config_before_generating_corpus(tmp_path, caplog):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "p_target = 2\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--alphas", "0,0.3", "--orders", "4",
                 "--out", str(out)]) == 1
    assert "p_target must lie in (0, 1), got 2.0" in caplog.text
    assert not out.exists()


def test_sweep_validates_every_system_before_training(tmp_path, caplog):
    # order 0 has no head, so MT-o0-a3 cannot be built; the baseline
    # before it must not be trained first
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO)
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--alphas", "0,0.3", "--orders", "0",
                 "--out", str(out)]) == 1
    assert "task_weight > 0 requires mtl_order >= 1" in caplog.text
    assert not out.exists()


def test_sweep_rejects_vad_offset_minus_infinity(tmp_path, caplog):
    # -inf would make energy_vad drop every frame, which shows only at
    # extraction, after the corpus and a system were written
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "vad_offset = -inf\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--alphas", "0.3", "--orders", "4",
                 "--out", str(out)]) == 1
    assert "vad_offset must not be nan or -inf, got -inf" in caplog.text
    assert not out.exists()


def test_sweep_needs_a_heldout_split(tmp_path, caplog):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "holdout_per_speaker = 0\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--alphas", "0,0.3", "--orders", "4",
                 "--out", str(out)]) == 1
    assert "holdout_per_speaker must lie in [1, 7], got 0" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("given_data", [False, True], ids=["generated", "data"])
def test_sweep_holdout_must_leave_training_utterances(workspace, tmp_path, caplog, given_data):
    # 8 utterances per speaker: holding out 8 leaves none to train on
    root, _ = workspace
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "holdout_per_speaker = 8\n")
    out = tmp_path / "s"
    data = ["--data", str(root / "corpus")] if given_data else []
    assert main(["sweep", "--config", str(cfg), *data, "--alphas", "0,0.3", "--orders", "4",
                 "--out", str(out)]) == 1
    assert "holdout_per_speaker must lie in [1, 7], got 8" in caplog.text
    assert not out.exists()


def test_sweep_checks_the_model_of_its_training_split(workspace, tmp_path, caplog):
    # a corpus of one speaker splits fine, but no softmax has one class
    root, cfg = workspace
    corpus = tmp_path / "one"
    shutil.copytree(root / "corpus", corpus)
    rows = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
    (corpus / "manifest.csv").write_text("".join(
        row for row in rows if not row.startswith("spk") or row.startswith("spk0000_")))
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--data", str(corpus), "--alphas", "0.3",
                 "--orders", "4", "--out", str(out)]) == 1
    assert "num_speakers must be >= 2, got 1" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("given_data", [False, True], ids=["generated", "data"])
def test_sweep_splits_once_and_lists_trials_once(workspace, tmp_path, monkeypatch, given_data):
    root, cfg = workspace
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Manifest, "split", counted("split", Manifest.split))
    monkeypatch.setattr(backend, "all_pairs_trials",
                        counted("all_pairs_trials", backend.all_pairs_trials))
    data = ["--data", str(root / "corpus")] if given_data else []
    assert main(["sweep", "--config", str(cfg), *data, "--alphas", "0,0.3,1", "--orders", "4",
                 "--out", str(tmp_path / "s")]) == 0
    assert calls == {"split": 1, "all_pairs_trials": 1}
    assert all((tmp_path / "s" / name / "trials.txt").read_bytes()
               == (tmp_path / "s" / "baseline" / "trials.txt").read_bytes()
               for name in ("MT-o4-a3", "MT-o4-a10"))


def test_sweep_checks_lda_dim_before_training(tmp_path, caplog):
    # the PLDA backend is fit on 4 training speakers: LDA finds at most 3 directions
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "lda_dim = 4\nscorer = plda\n")
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(cfg), "--alphas", "0,0.3", "--orders", "4",
                 "--out", str(out)]) == 1
    assert "lda_dim must lie in [1, 3] for 4 speakers of dim 8, got 4" in caplog.text
    assert not out.exists()


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


@pytest.mark.parametrize("scorer", ["cosine", "plda"])
def test_sweep_metrics_match_evaluate_on_its_files(workspace, tmp_path, scorer):
    # the sweep's metrics come from the scores as written (six decimals),
    # so evaluate on the system's own files writes the same metrics.csv
    root, cfg = workspace
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--data", str(root / "corpus"),
                 "--alphas", "0.3", "--orders", "4", "--scorer", scorer, "--out", str(out)]) == 0
    system = out / "MT-o4-a3"
    evaluated = tmp_path / "metrics.csv"
    assert main(["evaluate", "--config", str(cfg), "--scores", str(system / "scores.txt"),
                 "--trials", str(system / "trials.txt"), "--out", str(evaluated)]) == 0
    assert evaluated.read_bytes() == (system / "metrics.csv").read_bytes()
    metrics = dict(line.split(",") for line in evaluated.read_text().splitlines()[1:])
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[1:] == [metrics["eer"], metrics["min_dcf"], metrics["act_dcf"]]


# ---------------------------------------------------------------------------
# malformed artifacts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", ["step", "trained_epochs"])
def test_a_negative_checkpoint_counter_exits_one(workspace, tmp_path, caplog, key):
    # Adam divides by 1 - beta^step, which a step count <= 0 breaks
    root, cfg = workspace
    magic, version = model.CHECKPOINT_MAGIC, model.CHECKPOINT_VERSION
    meta, arrays = binio.read_container(root / "sys" / "model.ckpt", magic, version, "a checkpoint")
    meta[key] = "-3"
    binio.write_container(tmp_path / "bad.ckpt", magic, version, meta, arrays)
    with pytest.raises(ParseError, match=rf"bad\.ckpt: bad metadata value \({key} must be >= 0"):
        model.load_checkpoint(tmp_path / "bad.ckpt")
    assert main(["extract", "--config", str(cfg), "--model", str(tmp_path / "bad.ckpt"),
                 "--data", str(root / "corpus"), "--out", str(tmp_path / "e.xveb")]) == 1
    assert f"{key} must be >= 0, got -3" in caplog.text
    assert not (tmp_path / "e.xveb").exists()


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


def test_train_backend_rejects_an_empty_archive(workspace, tmp_path, caplog):
    _, cfg = workspace
    empty = tmp_path / "empty.xveb"
    empty.write_bytes(b"XVEB" + (1).to_bytes(4, "little") + (0).to_bytes(4, "little")
                      + (4).to_bytes(4, "little"))
    assert main(["train-backend", "--config", str(cfg), "--embeddings", str(empty),
                 "--out", str(tmp_path / "b.xvbk")]) == 1
    assert "empty.xveb: the archive holds no embeddings" in caplog.text


def test_an_unlabeled_embedding_stops_train_backend_not_score(workspace, tmp_path, caplog):
    # an archive as write_embeddings framed it before it required a label:
    # fitting on it would pool u4 and u5 as one speaker ''
    _, cfg = workspace
    speakers = {"u0": "a", "u1": "a", "u2": "b", "u3": "b", "u4": "", "u5": ""}
    archive = tmp_path / "e.xveb"
    with open(archive, "wb") as fh:
        fh.write(b"XVEB")
        for value in (1, len(speakers), 4):
            binio.write_u32(fh, value)
        for i, (utt, spk) in enumerate(speakers.items()):
            binio.write_blob(fh, utt.encode())
            binio.write_blob(fh, spk.encode())
            fh.write(np.random.default_rng(i).normal(size=4).astype("<f4").tobytes())
    assert main(["train-backend", "--config", str(cfg), "--embeddings", str(archive),
                 "--lda-dim", "2", "--out", str(tmp_path / "b.xvbk")]) == 1
    # named by utterance id, not by its row in the stacked matrix
    assert "embedding of utterance 'u4' has an empty speaker label" in caplog.text
    assert not (tmp_path / "b.xvbk").exists()
    backend.write_trials(tmp_path / "trials.txt", backend.all_pairs_trials(speakers))
    assert main(["score", "--config", str(cfg), "--trials", str(tmp_path / "trials.txt"),
                 "--embeddings", str(archive), "--out", str(tmp_path / "s.txt")]) == 0
    assert len(backend.read_scores(tmp_path / "s.txt")) == 15


def test_train_backend_rejects_a_zero_within_speaker_scatter(workspace, tmp_path, caplog):
    # each speaker's embeddings identical: no ridge can make LDA's scatter invertible
    _, cfg = workspace
    vectors = {f"u{i}": np.arange(8.0) ** (1 + i // 3) for i in range(12)}
    write_embeddings(tmp_path / "e.xveb", vectors, {f"u{i}": f"s{i // 3}" for i in range(12)})
    assert main(["train-backend", "--config", str(cfg), "--embeddings", str(tmp_path / "e.xveb"),
                 "--out", str(tmp_path / "b.xvbk")]) == 1
    assert "within-class scatter is singular even after regularization" in caplog.text
    assert "ridge" not in caplog.text
    assert not (tmp_path / "b.xvbk").exists()


def test_extract_heldout_needs_a_holdout(workspace, tmp_path, caplog):
    root, _ = workspace
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "holdout_per_speaker = 0\n")
    argv = ["extract", "--config", str(cfg), "--model", str(root / "sys" / "model.ckpt"),
            "--data", str(root / "corpus")]
    assert main(argv + ["--split", "heldout", "--out", str(tmp_path / "h.xveb")]) == 1
    assert "holdout_per_speaker must lie in [1, 7], got 0" in caplog.text
    assert main(argv + ["--split", "train", "--out", str(tmp_path / "t.xveb")]) == 0
    assert len(read_embeddings(tmp_path / "t.xveb")[0]) == 4 * 8


def test_oversize_holdout_fails_every_split_but_all(workspace, tmp_path, caplog):
    root, _ = workspace
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(MICRO + "holdout_per_speaker = 8\n")
    extract = ["extract", "--config", str(cfg), "--model", str(root / "sys" / "model.ckpt"),
               "--data", str(root / "corpus")]
    assert main(extract + ["--split", "all", "--out", str(tmp_path / "a.xveb")]) == 0
    assert len(read_embeddings(tmp_path / "a.xveb")[0]) == 4 * 8
    assert main(extract + ["--split", "train", "--out", str(tmp_path / "t.xveb")]) == 1
    assert main(["train", "--config", str(cfg), "--data", str(root / "corpus"),
                 "--out", str(tmp_path / "sys")]) == 1
    assert caplog.text.count("holdout_per_speaker must lie in [0, 7], got 8") == 2
