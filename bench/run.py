"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload {derive,evolve,experiments} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  A run is a sequence of units; each
unit is a fresh interpreter (``bench/unit.py``) that imports the package from
``src/``, prepares its inputs from the seed, times the workload's operations
and checks their outputs.  Units run one at a time with one compute thread,
so no in-process cache survives from one unit to the next.  The number of
units is fixed by the workload and ``--seconds`` alone (``unit_count``), so
every run with the same ``--seconds`` runs the same units with the same hash
seeds, however fast the program is.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones (medians over units; the peak RSS is the largest), with
``--trace 1`` the per-layer ones from traced units.  The full record of the
run, with every unit and the environment, is written under
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# Nominal wall time of one unit, process start included, on a 2-core
# virtual machine; only used to turn --seconds into a fixed unit count.
UNIT_WALL_S = {"derive": 6.5, "evolve": 3.0, "experiments": 2.4}
MIN_UNITS = 3
UNIT_TIMEOUT_S = 150


def unit_count(workload: str, seconds: float) -> int:
    return max(MIN_UNITS, int(seconds / UNIT_WALL_S[workload]))


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def unit_env(index: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One compute thread; unit i always gets hash seed i + 1, so every run
    # samples the same string-hash layouts instead of fresh random ones.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = str(index + 1)
    return env


def run_unit(workload: str, seed: int, index: int, workdir: Path, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "unit.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=unit_env(index), capture_output=True,
                          text=True, timeout=UNIT_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"unit {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def summarize(units: list[dict], trace: bool) -> dict:
    if trace:
        from spans import metric_names

        return {name: {"value": statistics.median(u["layers"][name] for u in units), "unit": unit}
                for name, unit in metric_names()}
    return {
        "unit_s": {"value": statistics.median(u["unit_s"] for u in units), "unit": "s"},
        "setup_s": {"value": statistics.median(u["setup_s"] for u in units), "unit": "s"},
        "peak_rss_mb": {"value": max(u["peak_rss_mb"] for u in units), "unit": "MB"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(UNIT_WALL_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "dnls_hierarchy" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from a source checkout", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    trace_dir = RESULTS / "traces"
    if args.trace:
        trace_dir.mkdir(exist_ok=True)
    units: list[dict] = []
    start = time.perf_counter()
    try:
        for i in range(unit_count(args.workload, args.seconds)):
            trace_out = trace_dir / f"{args.workload}-unit{i}.json" if args.trace else None
            units.append(run_unit(args.workload, args.seed, i, workdir, trace_out))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    metrics = summarize(units, bool(args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - start,
        "env": {"python": platform.python_version(), "numpy": units[0]["numpy"],
                "nproc": os.cpu_count(), "git_sha": git_sha()},
        "metrics": metrics, "units": units,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    for u in units:
        for op in u["ops"]:
            if not op["ok"]:
                print(f"FAILED {args.workload}/{op['op']}: {op['detail']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
