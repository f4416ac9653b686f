"""The names perfbench/spans.py wraps for `perfbench/run.py --trace 1`.

The tracer patches functions at the names their callers resolve (ops in
xveckit.model, train and friends in xveckit.cli, ...). A change that
drops one of those imports would break traced benchmark runs only, so
this guard loads the tracer by path, installs it and uninstalls it. A
change that calls other functions than those names inside a command would
break the per-layer metrics read from them, so a second guard runs
`score` and `evaluate` under the tracer and looks for each span by name.
"""

import importlib.util
from pathlib import Path

import numpy as np

from xveckit import cli, model
from xveckit.backend import all_pairs_trials, write_embeddings, write_trials

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_resolve_and_restore():
    spans = _load_spans()
    for attr in spans._OPS:
        assert hasattr(model, attr), f"xveckit.model.{attr}"
    for owner, attr, _ in spans._CALLS:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"

    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


# The spans per_layer_metrics reads by name inside a command, as
# (command span, span) pairs.
COMMAND_SPANS = [
    ("cli.score", "backend.read_trials"),
    ("cli.score", "backend.score_trials"),
    ("cli.score", "backend.write_scores"),
    ("cli.evaluate", "backend.read_scores"),
    ("cli.evaluate", "metrics.detection_metrics"),
]


def test_traced_score_and_evaluate_record_the_spans_per_layer_metrics_reads(tmp_path):
    rng = np.random.default_rng(0)
    speakers = {f"u{i}": f"s{i // 3}" for i in range(9)}
    write_embeddings(tmp_path / "e.xveb", {u: rng.standard_normal(4) for u in speakers}, speakers)
    write_trials(tmp_path / "trials.txt", all_pairs_trials(speakers))
    commands = {
        "score": ["--trials", str(tmp_path / "trials.txt"), "--embeddings", str(tmp_path / "e.xveb"),
                  "--out", str(tmp_path / "scores.txt")],
        "evaluate": ["--scores", str(tmp_path / "scores.txt"),
                     "--trials", str(tmp_path / "trials.txt")],
    }
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command, argv in commands.items():
            with tracer.span("cli." + command):
                assert cli.main([command] + argv) == 0
    finally:
        tracer.uninstall()
    _, command_of = spans._contexts(tracer.spans)
    seen = {(command_of[i], s[spans.NAME]) for i, s in enumerate(tracer.spans)}
    missing = [pair for pair in COMMAND_SPANS if pair not in seen]
    assert not missing, f"no span of {missing}"
