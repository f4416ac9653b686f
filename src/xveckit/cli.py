"""Command-line front end.

Subcommands cover the whole workflow: gen-data, train, extract,
train-backend, score, evaluate, gradcheck, and sweep (train several
systems over a task-weight/order grid and print one comparison table).

Configuration is a flat key = value text file; every key has a default,
unknown keys are rejected, and the effective values are logged at
startup. --seed, --alpha, --order, --lda-dim, and --scorer override the
file from the command line. Values are written and parsed by binio's
field codec, the one checkpoint metadata uses, and the corpus, model and
detection-cost settings are RunConfig's fields of the same names.

Exit codes: 0 success, 1 for usage/validation/data problems, 2 for
internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import backend as bk
from . import binio
from .data import CorpusSpec, Manifest, energy_vad, generate_corpus
from .errors import ConfigurationError, DataError, ToolkitError, UsageError
from .metrics import DcfParams, MetricsReport, detection_metrics
from .model import (
    EpochStats,
    Model,
    ModelConfig,
    build_model,
    extract_embedding,
    gradient_suite,
    load_checkpoint,
    train,
)

__all__ = ["RunConfig", "parse_config", "serialize_config", "system_name", "main"]

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Every tunable of the pipeline, flat. Defaults are desk scale."""

    seed: int = 0
    # synthetic corpus
    num_speakers: int = 30
    utterances_per_speaker: int = 40
    feature_dim: int = 10
    min_frames: int = 200
    max_frames: int = 400
    ar_coeff: float = 0.5
    spread: float = 3.0
    # network
    frame_widths: tuple[int, ...] = (64, 64, 64, 64, 128)
    kernel_sizes: tuple[int, ...] = (5, 3, 3, 1, 1)
    dilations: tuple[int, ...] = (1, 2, 3, 1, 1)
    segment_width: int = 64
    mtl_order: int = 4
    task_weight: float = 0.3
    # optimization
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 20
    crop_length: int = 200
    # evaluation pipeline
    holdout_per_speaker: int = 8
    vad_offset: float | None = None
    lda_dim: int = 10
    plda_iterations: int = 20
    length_norm: bool = True
    scorer: str = "cosine"
    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def validate(self) -> None:
        problems = []
        if self.scorer not in ("cosine", "plda"):
            problems.append(f"scorer must be cosine or plda, got {self.scorer!r}")
        if self.holdout_per_speaker < 0:
            problems.append(f"holdout_per_speaker must be >= 0, got {self.holdout_per_speaker}")
        if self.lda_dim < 1:
            problems.append(f"lda_dim must be >= 1, got {self.lda_dim}")
        if self.plda_iterations < 1:
            problems.append(f"plda_iterations must be >= 1, got {self.plda_iterations}")
        if problems:
            raise ConfigurationError("; ".join(problems))


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# command-line flag -> the RunConfig field it overrides
_FLAG_FIELDS = {"seed": "seed", "lda_dim": "lda_dim", "alpha": "task_weight",
                "order": "mtl_order", "scorer": "scorer"}


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; blank lines and '#' comments allowed."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"config line {lineno}: unknown key '{key}'")
        try:
            values[key] = binio.parse_field(_FIELDS[key].type, raw)
        except ValueError as err:
            raise ConfigurationError(f"config line {lineno}: bad value for {key}: {err}") from None
    config = RunConfig(**values)
    config.validate()
    return config


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    return "".join(f"{key} = {binio.format_field(f.type, getattr(config, key))}\n"
                   for key, f in _FIELDS.items())


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        with binio.open_text(args.config) as fh:
            config = parse_config(fh.read())
    else:
        config = RunConfig()
    overrides = {key: getattr(args, flag) for flag, key in _FLAG_FIELDS.items()
                 if getattr(args, flag, None) is not None}
    config = replace(config, **overrides)
    if config.mtl_order == 0:
        config = replace(config, task_weight=0.0)
    config.validate()
    for line in serialize_config(config).splitlines():
        log.info("config: %s", line)
    return config


def _project(config: RunConfig, cls, **overrides):
    """An instance of dataclass `cls` with each field taken from `config`
    by name, except those given in `overrides`."""
    values = {f.name: getattr(config, f.name) for f in dataclasses.fields(cls)}
    return cls(**{**values, **overrides})


def system_name(order: int, alpha: float) -> str:
    """Row label of a swept system; task weight 0 is the plain baseline."""
    if alpha == 0.0:
        return "baseline"
    return f"MT-o{order}-a{alpha * 10:g}"


def _split_manifest(manifest: Manifest, config: RunConfig,
                    which: str) -> Manifest:
    if which == "all" or config.holdout_per_speaker == 0:
        if which == "heldout" and config.holdout_per_speaker == 0:
            raise ConfigurationError("holdout_per_speaker is 0; there is no heldout split")
        return manifest
    train_part, held_part = manifest.split(config.holdout_per_speaker)
    return {"train": train_part, "heldout": held_part}[which]


def _extract_all(model, manifest: Manifest,
                 config: RunConfig) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    vectors: dict[str, np.ndarray] = {}
    speakers: dict[str, str] = {}
    for entry in manifest:
        fm = manifest.load_features(entry)
        if config.vad_offset is not None:
            fm = energy_vad(fm, config.vad_offset)
        vectors[entry.utt_id] = extract_embedding(model, fm).vector
        speakers[entry.utt_id] = entry.speaker_id
    return vectors, speakers


def _write_text(path: Path | str, text: str) -> None:
    with binio.atomic_write(path, "w") as fh:
        fh.write(text)


# --- subcommands ---

def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    manifest = generate_corpus(_project(config, CorpusSpec), args.out)
    print(f"wrote {len(manifest)} utterances from {len(manifest.speakers)} speakers to {args.out}")
    return 0


def _train_system(config: RunConfig, train_part: Manifest,
                  out: Path) -> tuple[Model, list[EpochStats]]:
    """Build a model for `train_part`, train it, and write config.txt,
    model.ckpt and train_log.csv into `out`."""
    model = build_model(_project(config, ModelConfig,
                                 num_speakers=len(train_part.speakers)))
    model.corpus_seed = config.seed
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.txt", serialize_config(config))
    return model, train(model, train_part, out_dir=out)


def _fit_backend(config: RunConfig, vectors: dict[str, np.ndarray],
                 speakers: dict[str, str], out: Path | str) -> bk.PldaModel:
    """Fit centering + LDA, length normalization and PLDA; save to `out`."""
    ids = sorted(vectors)
    x = np.stack([vectors[u] for u in ids])
    labels = [speakers[u] for u in ids]
    pre = bk.fit_preprocessor(x, labels, config.lda_dim)
    projected = pre.apply(x)
    if config.length_norm:
        projected = bk.length_normalize(projected)
    plda = bk.fit_plda(projected, labels, config.plda_iterations)
    bk.save_backend(out, pre, plda, config.length_norm)
    return plda


def _score(config: RunConfig, trials: list[bk.Trial], vectors: dict[str, np.ndarray],
           backend: Path | str | None, out: Path | str) -> bk.ScoreSet:
    """Score trials with config.scorer, through `backend` if given; write `out`."""
    pre = None
    plda = None
    length_norm = config.length_norm
    if backend:
        pre, plda, length_norm = bk.load_backend(backend)
    if config.scorer == "plda" and plda is None:
        raise ConfigurationError("plda scoring needs --backend with a fitted model")
    score_set = bk.score_trials(trials, vectors, preprocessor=pre,
                                scorer=plda if config.scorer == "plda" else "cosine",
                                length_norm=length_norm)
    bk.write_scores(out, score_set)
    return score_set


def _cmd_train(args) -> int:
    config = _load_config(args)
    manifest = Manifest.load(Path(args.data) / "manifest.csv")
    out = Path(args.out)
    _, stats = _train_system(config, _split_manifest(manifest, config, "train"), out)
    last = stats[-1]
    print(f"trained {len(stats)} epoch(s); final loss {last.loss:.6f} "
          f"(ce {last.ce:.6f}, mse {last.mse:.6f}); checkpoint in {out}")
    return 0


def _cmd_extract(args) -> int:
    config = _load_config(args)
    model = load_checkpoint(args.model)
    manifest = Manifest.load(Path(args.data) / "manifest.csv")
    part = _split_manifest(manifest, config, args.split)
    vectors, speakers = _extract_all(model, part, config)
    bk.write_embeddings(args.out, vectors, speakers)
    print(f"wrote {len(vectors)} embeddings ({args.split} split) to {args.out}")
    return 0


def _cmd_train_backend(args) -> int:
    config = _load_config(args)
    vectors, speakers = bk.read_embeddings(args.embeddings)
    plda = _fit_backend(config, vectors, speakers, args.out)
    lls = plda.log_likelihoods
    print(f"backend fit on {len(vectors)} embeddings: lda_dim {config.lda_dim}, "
          f"plda log-likelihood {lls[0]:.3f} -> {lls[-1]:.3f} "
          f"over {len(lls) - 1} iterations; saved to {args.out}")
    return 0


def _cmd_score(args) -> int:
    config = _load_config(args)
    trials = bk.read_trials(args.trials)
    vectors, _ = bk.read_embeddings(args.embeddings)
    score_set = _score(config, trials, vectors, args.backend, args.out)
    print(f"scored {len(score_set)} trials ({config.scorer}) into {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    trials = bk.read_trials(args.trials)
    scores = bk.read_scores(args.scores)
    values = []
    for i, trial in enumerate(trials, start=1):
        key = (trial.enroll_id, trial.test_id)
        if key not in scores:
            raise DataError(f"trial {i} ({key[0]} {key[1]}) has no score in {args.scores}")
        values.append(scores[key])
    values = np.array(values)
    target_mask = np.array([t.target for t in trials], dtype=bool)
    report = detection_metrics(values[target_mask], values[~target_mask],
                               _project(config, DcfParams))
    print(report.format_table())
    if args.out:
        _write_text(args.out, report.to_csv())
    return 0


def _cmd_gradcheck(args) -> int:
    del args
    checks = gradient_suite()
    failures = 0
    for name, report in checks:
        status = "pass" if report.passed else "FAIL"
        print(f"{name:<28} max rel err {report.max_relative_error:.3e}  {status}")
        failures += 0 if report.passed else 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def _run_system(config: RunConfig, manifest: Manifest, out: Path) -> MetricsReport:
    """Train one system and evaluate it on held-out all-pairs trials."""
    train_part = _split_manifest(manifest, config, "train")
    held_part = _split_manifest(manifest, config, "heldout")
    model, _ = _train_system(config, train_part, out)

    held_vecs, held_spk = _extract_all(model, held_part, config)
    bk.write_embeddings(out / "embeddings.xveb", held_vecs, held_spk)
    trials = bk.all_pairs_trials(held_spk)
    bk.write_trials(out / "trials.txt", trials)
    backend = None
    if config.scorer == "plda":
        backend = out / "backend.xvbk"
        _fit_backend(config, *_extract_all(model, train_part, config), backend)
    score_set = _score(config, trials, held_vecs, backend, out / "scores.txt")
    report = detection_metrics(score_set, params=_project(config, DcfParams))
    _write_text(out / "metrics.csv", report.to_csv())
    return report


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
        orders = [int(o) for o in args.orders.split(",")]
    except ValueError as err:
        raise UsageError(f"bad sweep grid: {err}") from None

    if args.data:
        manifest = Manifest.load(Path(args.data) / "manifest.csv")
    else:
        corpus_dir = out / "corpus"
        log.info("no --data given; generating corpus into %s", corpus_dir)
        manifest = generate_corpus(_project(config, CorpusSpec), corpus_dir)

    systems: list[tuple[str, int, float]] = []
    for order in orders:
        for alpha in alphas:
            name = system_name(order, alpha)
            if name not in [s[0] for s in systems]:
                systems.append((name, 0 if alpha == 0.0 else order, alpha))

    results: list[tuple[str, MetricsReport]] = []
    for index, (name, order, alpha) in enumerate(systems):
        log.info("system %s (order %d, task weight %g, seed %d)",
                 name, order, alpha, config.seed + index)
        sys_config = replace(config, mtl_order=order, task_weight=alpha,
                             seed=config.seed + index)
        results.append((name, _run_system(sys_config, manifest, out / name)))

    width = max(len("system"), *(len(name) for name, _ in results))
    lines = [f"{'system':<{width}}  {'EER%':>7}  {'minDCF':>7}  {'actDCF':>7}"]
    for name, rep in results:
        lines.append(f"{name:<{width}}  {100 * rep.eer:7.2f}  "
                     f"{rep.min_dcf:7.4f}  {rep.act_dcf:7.4f}")
    table = "\n".join(lines)
    print(table)
    csv_lines = ["system,eer,min_dcf,act_dcf"]
    csv_lines += [f"{name},{rep.eer!r},{rep.min_dcf!r},{rep.act_dcf!r}"
                  for name, rep in results]
    _write_text(out / "sweep.csv", "\n".join(csv_lines) + "\n")
    return 0


# --- argument parsing and dispatch ---

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="xveckit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, **flag_specs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the base seed")
        for flag, spec in flag_specs.items():
            p.add_argument(flag, **spec)
        return p

    add("gen-data", "generate a synthetic corpus",
        **{"--out": dict(required=True, help="output corpus directory")})
    add("train", "train one system",
        **{"--data": dict(required=True, help="corpus directory (holds manifest.csv)"),
           "--out": dict(required=True, help="output directory for checkpoint and log"),
           "--alpha": dict(type=float, help="task weight override"),
           "--order": dict(type=int, help="statistics order override (0 = no head)")})
    add("extract", "extract embeddings with a trained model",
        **{"--model": dict(required=True, help="checkpoint path"),
           "--data": dict(required=True, help="corpus directory"),
           "--split": dict(choices=["train", "heldout", "all"], default="heldout"),
           "--out": dict(required=True, help="output embedding archive")})
    add("train-backend", "fit centering, LDA, and PLDA on embeddings",
        **{"--embeddings": dict(required=True, help="embedding archive"),
           "--lda-dim": dict(type=int, dest="lda_dim", help="LDA output dimension"),
           "--out": dict(required=True, help="output backend file")})
    add("score", "score a trial list",
        **{"--trials": dict(required=True, help="trial list file"),
           "--embeddings": dict(required=True, help="embedding archive"),
           "--backend": dict(help="backend file (enables LDA/PLDA chain)"),
           "--scorer": dict(choices=["cosine", "plda"], help="scoring rule"),
           "--out": dict(required=True, help="output score file")})
    add("evaluate", "compute EER / minDCF / actDCF from scores",
        **{"--scores": dict(required=True, help="score file"),
           "--trials": dict(required=True, help="trial list with labels"),
           "--out": dict(help="also write metric,value CSV here")})
    add("gradcheck", "run the finite-difference self-check suite")
    add("sweep", "train a grid of systems and print one comparison table",
        **{"--alphas": dict(default="0,0.3", help="comma list of task weights"),
           "--orders": dict(default="4", help="comma list of statistics orders"),
           "--data": dict(help="existing corpus directory (default: generate one)"),
           "--scorer": dict(choices=["cosine", "plda"], help="scoring rule"),
           "--out": dict(required=True, help="output directory")})
    return parser


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "extract": _cmd_extract,
    "train-backend": _cmd_train_backend,
    "score": _cmd_score,
    "evaluate": _cmd_evaluate,
    "gradcheck": _cmd_gradcheck,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(str(err), file=sys.stderr)
        return 1
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ToolkitError, OSError) as err:
        log.error("%s", err)
        return 1
    except Exception:
        log.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
