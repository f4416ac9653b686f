"""Command-line front end.

Subcommands cover the whole workflow: gen-data, train, extract,
train-backend, score, evaluate, gradcheck, and sweep (train several
systems over a task-weight/order grid and print one comparison table).
A sweep bounds its split by check_holdout and splits once, by
Manifest.split; every system trains, embeds and scores on that split and
one all-pairs trial list, and a PLDA one fits backend.fit_backend's chain.

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
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import backend as bk
from . import binio
from .data import CorpusSpec, Manifest, check_holdout, energy_vad, generate_corpus
from .errors import ConfigurationError, ToolkitError, UsageError
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
        if self.vad_offset is not None and not self.vad_offset > -math.inf:
            # -inf lifts energy_vad's threshold to +inf, which drops every frame
            problems.append(f"vad_offset must not be nan or -inf, got {self.vad_offset}")
        for cls in (CorpusSpec, ModelConfig, DcfParams):
            try:
                _project(self, cls).validate()
            except ConfigurationError as err:
                problems += str(err).split("; ")
        if problems:
            raise ConfigurationError("; ".join(dict.fromkeys(problems)))


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# command-line flag -> the RunConfig field it overrides
_FLAG_FIELDS = {"seed": "seed", "lda_dim": "lda_dim", "alpha": "task_weight",
                "order": "mtl_order", "scorer": "scorer"}


def parse_config(text: str, **overrides) -> RunConfig:
    """Parse key = value lines (blank lines and '#' comments allowed), apply
    `overrides`, and validate; mtl_order 0 (no head) sets task_weight 0."""
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
    config = RunConfig(**{**values, **overrides})
    if config.mtl_order == 0:
        config = replace(config, task_weight=0.0)
    config.validate()
    return config


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    return "".join(f"{key} = {binio.format_field(f.type, getattr(config, key))}\n"
                   for key, f in _FIELDS.items())


def _load_config(args) -> RunConfig:
    text = ""
    if getattr(args, "config", None):
        with binio.open_text(args.config) as fh:
            text = fh.read()
    config = parse_config(text, **{key: getattr(args, flag) for flag, key in _FLAG_FIELDS.items()
                                   if getattr(args, flag, None) is not None})
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
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "config.txt", serialize_config(config))
    return model, train(model, train_part, out_dir=out)


def _score(config: RunConfig, trials: bk.Trials, vectors: dict[str, np.ndarray],
           backend: Path | str | None, out: Path | str) -> None:
    """Score trials with config.scorer, through `backend` if given; write `out`."""
    if config.scorer == "plda" and not backend:
        raise ConfigurationError("plda scoring needs --backend")
    pre, plda, length_norm = bk.load_backend(backend) if backend else (None, None, True)
    scores = bk.score_trials(trials, vectors, preprocessor=pre,
                             plda=plda if config.scorer == "plda" else None,
                             length_norm=length_norm)
    bk.write_scores(out, trials, scores)


def _cmd_train(args) -> int:
    config = _load_config(args)
    manifest = Manifest.load(Path(args.data) / "manifest.csv")
    out = Path(args.out)
    _, stats = _train_system(config, manifest.split(config.holdout_per_speaker)[0], out)
    last = stats[-1]
    print(f"trained {len(stats)} epoch(s); final loss {last.loss:.6f} "
          f"(ce {last.ce:.6f}, mse {last.mse:.6f}); checkpoint in {out}")
    return 0


def _cmd_extract(args) -> int:
    config = _load_config(args)
    model = load_checkpoint(args.model)
    manifest = Manifest.load(Path(args.data) / "manifest.csv")
    if args.split != "all":  # a heldout extract holds out one utterance a speaker or more
        train_part, held_part = manifest.split(config.holdout_per_speaker,
                                               least=int(args.split == "heldout"))
        manifest = held_part if args.split == "heldout" else train_part
    vectors, speakers = _extract_all(model, manifest, config)
    bk.write_embeddings(args.out, vectors, speakers)
    print(f"wrote {len(vectors)} embeddings ({args.split} split) to {args.out}")
    return 0


def _cmd_train_backend(args) -> int:
    config = _load_config(args)
    vectors, speakers = bk.read_embeddings(args.embeddings)
    pre, plda = bk.fit_backend(vectors, speakers, config.lda_dim, config.length_norm)
    bk.save_backend(args.out, pre, plda, config.length_norm)
    lls = plda.log_likelihoods
    print(f"backend fit on {len(vectors)} embeddings: lda_dim {config.lda_dim}, "
          f"plda log-likelihood {lls[0]:.3f} -> {lls[-1]:.3f} "
          f"over {len(lls) - 1} iterations; saved to {args.out}")
    return 0


def _cmd_score(args) -> int:
    config = _load_config(args)
    trials = bk.read_trials(args.trials)
    vectors, _ = bk.read_embeddings(args.embeddings)
    _score(config, trials, vectors, args.backend, args.out)
    print(f"scored {len(trials)} trials ({config.scorer}) into {args.out}")
    return 0


def _evaluate(config: RunConfig, trials: bk.Trials, scores: Path | str) -> MetricsReport:
    """Detection metrics of `trials` over the scores as the score file holds them."""
    joined = bk.trial_scores(trials, bk.read_scores(scores), scores)
    return detection_metrics(joined[trials.target], joined[~trials.target],
                             _project(config, DcfParams))


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    report = _evaluate(config, bk.read_trials(args.trials), args.scores)
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


def _run_system(config: RunConfig, train_part: Manifest, held_part: Manifest,
                trials: bk.Trials, out: Path) -> MetricsReport:
    """Train one system and evaluate it on the held-out trials, from the
    scores as scores.txt holds them, so metrics.csv is what `evaluate
    --out` writes for the system's files."""
    model, _ = _train_system(config, train_part, out)

    held_vecs, held_spk = _extract_all(model, held_part, config)
    bk.write_embeddings(out / "embeddings.xveb", held_vecs, held_spk)
    bk.write_trials(out / "trials.txt", trials)
    backend = None
    if config.scorer == "plda":
        backend = out / "backend.xvbk"
        pre, plda = bk.fit_backend(*_extract_all(model, train_part, config), config.lda_dim,
                                   config.length_norm)
        bk.save_backend(backend, pre, plda, config.length_norm)
    _score(config, trials, held_vecs, backend, out / "scores.txt")
    report = _evaluate(config, trials, out / "scores.txt")
    _write_text(out / "metrics.csv", report.to_csv())
    return report


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
        orders = [int(o) for o in args.orders.split(",")]
    except ValueError as err:
        raise UsageError(f"bad sweep grid: {err}") from None
    # the split, and every system's config and model, are checked before
    # anything is written; without --data, on the corpus the config generates
    k = config.holdout_per_speaker
    manifest = Manifest.load(Path(args.data) / "manifest.csv") if args.data else None
    counts = ([config.utterances_per_speaker] * config.num_speakers if manifest is None
              else [len(utts) for utts in manifest.by_speaker().values()])
    train_counts = check_holdout(counts, k, least=1)
    systems: dict[str, RunConfig] = {}
    for order in orders:
        for alpha in alphas:
            sys_config = replace(config, mtl_order=0 if alpha == 0.0 else order,
                                 task_weight=alpha)
            _project(sys_config, ModelConfig, num_speakers=len(train_counts)).validate()
            name = system_name(order, alpha)
            if systems.setdefault(name, sys_config) != sys_config:
                raise UsageError(f"task weights {systems[name].task_weight!r} and {alpha!r} "
                                 f"both name system {name}")
    if config.scorer == "plda":
        bk.check_lda_dim(config.lda_dim, train_counts, config.segment_width)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if manifest is None:
        log.info("no --data given; generating corpus into %s", out / "corpus")
        manifest = generate_corpus(_project(config, CorpusSpec), out / "corpus")
    train_part, held_part = manifest.split(k, least=1)
    trials = bk.all_pairs_trials({e.utt_id: e.speaker_id for e in held_part})

    results: list[tuple[str, MetricsReport]] = []
    for name, sys_config in systems.items():
        log.info("system %s (order %d, task weight %g, seed %d)", name,
                 sys_config.mtl_order, sys_config.task_weight, config.seed)
        results.append((name, _run_system(sys_config, train_part, held_part, trials,
                                          out / name)))

    header = results[0][1].format_table().split("\n")[0]
    rows = [("system", header)] + [(name, rep.format_table().split("\n")[1])
                                   for name, rep in results]
    width = max(len(name) for name, _ in rows)
    print("\n".join(f"{name:<{width}}  {row}" for name, row in rows))
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

    def add(name: str, run, help_text: str, **flag_specs) -> None:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override the base seed")
        for flag, spec in flag_specs.items():
            p.add_argument(flag, **spec)

    add("gen-data", _cmd_gen_data, "generate a synthetic corpus",
        **{"--out": dict(required=True, help="output corpus directory")})
    add("train", _cmd_train, "train one system",
        **{"--data": dict(required=True, help="corpus directory (holds manifest.csv)"),
           "--out": dict(required=True, help="output directory for checkpoint and log"),
           "--alpha": dict(type=float, help="task weight override"),
           "--order": dict(type=int, help="statistics order override (0 = no head)")})
    add("extract", _cmd_extract, "extract embeddings with a trained model",
        **{"--model": dict(required=True, help="checkpoint path"),
           "--data": dict(required=True, help="corpus directory"),
           "--split": dict(choices=["train", "heldout", "all"], default="heldout"),
           "--out": dict(required=True, help="output embedding archive")})
    add("train-backend", _cmd_train_backend, "fit centering, LDA, and PLDA on embeddings",
        **{"--embeddings": dict(required=True, help="embedding archive"),
           "--lda-dim": dict(type=int, dest="lda_dim", help="LDA output dimension"),
           "--out": dict(required=True, help="output backend file")})
    add("score", _cmd_score, "score a trial list",
        **{"--trials": dict(required=True, help="trial list file"),
           "--embeddings": dict(required=True, help="embedding archive"),
           "--backend": dict(help="backend file (enables LDA/PLDA chain)"),
           "--scorer": dict(choices=["cosine", "plda"], help="scoring rule"),
           "--out": dict(required=True, help="output score file")})
    add("evaluate", _cmd_evaluate, "compute EER / minDCF / actDCF from scores",
        **{"--scores": dict(required=True, help="score file"),
           "--trials": dict(required=True, help="trial list with labels"),
           "--out": dict(help="also write metric,value CSV here")})
    add("gradcheck", _cmd_gradcheck, "run the finite-difference self-check suite")
    add("sweep", _cmd_sweep, "train a grid of systems and print one comparison table",
        **{"--alphas": dict(default="0,0.3", help="comma list of task weights"),
           "--orders": dict(default="4", help="comma list of statistics orders"),
           "--data": dict(help="existing corpus directory (default: generate one)"),
           "--scorer": dict(choices=["cosine", "plda"], help="scoring rule"),
           "--out": dict(required=True, help="output directory")})
    return parser


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
        return args.run(args)
    except (ToolkitError, OSError) as err:
        log.error("%s", err)
        return 1
    except Exception:
        log.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
