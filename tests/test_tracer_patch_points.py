"""The names perfbench/spans.py wraps for `perfbench/run.py --trace 1`.

The tracer patches functions at the names their callers resolve (ops in
xveckit.model, train and friends in xveckit.cli, ...). A change that
drops one of those imports would break traced benchmark runs only, so
this guard loads the tracer by path, installs it and uninstalls it.
"""

import importlib.util
from pathlib import Path

from xveckit import model

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
