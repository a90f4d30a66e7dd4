"""One unit of a benchmark run, in a fresh interpreter.

    python3 bench/unit.py --workload W --seed N --workdir DIR [--trace-out FILE]

Times the imports and preparation (``setup_s``) apart from the operations
(``unit_s``), records the peak RSS at the end of the timed part, then checks
every operation's output.  With ``--trace-out`` the package is traced from
the end of the imports to the end of the timed part, and the spans are
written to that file.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    start = time.perf_counter()
    import workloads  # numpy and the package: timed as set-up

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(workloads.dnls_hierarchy.__file__).resolve().is_relative_to(src):
        print(f"dnls_hierarchy was not imported from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    prepare, ops = workloads.WORKLOADS[args.workload]
    state = prepare(args.seed, Path(args.workdir))
    setup_s = time.perf_counter() - start
    if tracer is not None:
        for label, evaluator in state.get("ev", {}).items():
            tracer.labels[id(evaluator)] = label

    out: dict[str, object] = {}
    errors: dict[str, str] = {}
    start = time.perf_counter()
    for name, run, _check in ops:
        try:
            out[name] = run(state, out)
        except Exception:  # an operation that raises counts as failed
            errors[name] = traceback.format_exc()[-2000:]
    unit_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.active = False
        layers = tracer.layer_metrics()
        layers["trace.unit_s"] = unit_s
        layers["trace.spans"] = len(tracer.spans)
        tracer.write(args.trace_out)

    results = []
    for name, _run, check in ops:
        if name in errors:
            results.append({"op": name, "ok": False, "detail": errors[name]})
            continue
        try:
            ok, detail = check(state, out)
        except Exception:
            ok, detail = False, traceback.format_exc()[-2000:]
        results.append({"op": name, "ok": bool(ok), "detail": detail})

    print(json.dumps({
        "setup_s": setup_s,
        "unit_s": unit_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": workloads.np.__version__,
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "ops": results,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
