#!/usr/bin/env python3
"""The xveckit benchmark: one command, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {train,extract,backend} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, so nothing needs installing. One iteration runs three
stages in one process, as one closed-loop caller: a ``sweep`` training run,
per-utterance embedding extraction, and the ``train-backend`` / ``score`` /
``evaluate`` chain. A workload runs its own stage at full size and the other
two at companion size, so that every workload reports every metric (see
README.md). Iterations repeat until ``--seconds`` have passed; timings are
means over the run's stage calls, or percentiles over utterances.

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
runs one iteration untraced and one traced (spans from ``spans.py``) and
prints the per-layer metrics, the share of wall time the spans cover, and
the tracing overhead; its sweep outputs must be byte-identical to the
untraced iteration's. The last line of standard output is the result JSON;
the line before it carries the machine block and sample counts, which are
also written with the spans to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "extract", "backend"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _import_package():
    """Import xveckit from this checkout's src/, or fail without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import xveckit
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import xveckit from {ROOT / 'src'}: {err}")
    if Path(xveckit.__file__).resolve().parent != (ROOT / "src" / "xveckit").resolve():
        raise SystemExit(f"perfbench: imported xveckit from {xveckit.__file__}, "
                         f"not from {ROOT / 'src'}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


PROBE = """
import statistics, time
def rate():
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return 0.2 / (time.perf_counter() - start)
print(statistics.median(rate() for _ in range(7)))
"""


def speed_probe() -> float:
    """A fixed single-thread Python loop: median rate of 7 tries, in Mloops/s.

    Read before and after a run, it shows whether the machine ran in a slow
    or a fast state, so that a set of runs made in a slow state can be
    spotted and repeated. It runs in a fresh interpreter, so that it reads
    the machine and not the state the run left in this process.
    """
    done = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE],
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def machine_block(probe_before: float) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
        "speed_probe_mloops_per_s": {"before": probe_before, "after": speed_probe()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    # One caller on one BLAS thread; an explicit setting wins. At these
    # matrix sizes a second thread gains little, and waiting on it when a
    # shared machine delays one core multiplies the slow extraction samples.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench  # noqa: E402  (needs the package on sys.path)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = work / "files"  # inputs and program outputs, removed at the end
    probe_before = speed_probe()
    try:
        if args.trace:
            report = bench.traced_run(args.workload, args.seed, files, work)
            kinds = declared["per_layer"]
        else:
            report = bench.measured_run(args.workload, args.seed, args.seconds, files)
            report["metrics"]["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            kinds = declared["end_to_end"]
    finally:
        shutil.rmtree(files, ignore_errors=True)
    values = report.pop("metrics")
    units = {m["name"]: m["unit"] for m in kinds}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} are not "
                         f"both measured and declared in BENCHMARK.json")
    ledger = report.pop("ledger")
    report["machine"] = machine_block(probe_before)
    report["failures"] = ledger.failures[:20]
    report["metrics"] = values
    (work / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
