"""Steadiness check: repeated sets of benchmark runs on the same code.

    python3 bench/steady.py [--sets 2] [--runs 10] [--seconds 40] [--traced 2]

Every set makes ``--runs`` runs of each workload, each run with its own seed
(set k, run i, both counted from 0, uses seed 1 + k * runs + i), the
workloads taken in turn so that a slow spell of the machine falls on all of
them.  For each workload and end-to-end metric it prints every set's median
and quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the change of each set's median against the first
set.  ``--traced N`` then makes N back-to-back pairs of an untraced and a
traced run per workload (seeds 1..N) and prints the tracing overhead, the
traced unit time against the untraced one.  The bound a metric needs is at
least the largest spread or change shown.  Everything is also written to
``bench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("derive", "evolve", "experiments")
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--traced", type=int, default=2)
    args = ap.parse_args()
    if args.sets < 1 or args.runs < 2:
        ap.error("need at least one set of at least two runs")

    runs: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in WORKLOADS}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = FIRST_SEED + k * args.runs + i
            for w in WORKLOADS:
                res = one_run(w, seed, args.seconds, 0)
                res["seed"] = seed
                runs[w][k].append(res)
                values = " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items())
                print(f"set {k + 1} run {i + 1} {w} seed {seed}: {values} "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)

    summary: dict[str, dict] = {}
    print()
    print(f"{'workload':<12} {'metric':<12} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} "
          f"{'spread':>8} {'vs set 1':>9} {'failed':>7}")
    for w in WORKLOADS:
        summary[w] = {}
        for metric in runs[w][0][0]["metrics"]:
            rows = []
            for k in range(args.sets):
                q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in runs[w][k]])
                failed = sum(r["failed"] for r in runs[w][k]) / sum(r["attempted"] for r in runs[w][k])
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med,
                             "change": med / rows[0]["median"] - 1 if rows else 0.0,
                             "failed_share": failed})
                row = rows[-1]
                print(f"{w:<12} {metric:<12} {k + 1:>3} {q1:>10.4g} {med:>10.4g} {q3:>10.4g} "
                      f"{row['spread']:>8.2%} {row['change']:>+9.2%} {failed:>7.4f}")
            summary[w][metric] = rows
            need = max(max(r["spread"] for r in rows), max(abs(r["change"]) for r in rows))
            print(f"{'':<12} {metric:<12} bound needed >= {need:.3f}")

    # Tracing overhead from back-to-back pairs, so that both sides of a pair
    # see the same spell of the machine; the side that runs first alternates.
    traced: dict[str, list[dict]] = {}
    for w in WORKLOADS:
        traced[w] = []
        for i in range(args.traced):
            seed = FIRST_SEED + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = {t: one_run(w, seed, args.seconds, t) for t in order}
            traced[w].append({"seed": seed, "untraced": pair[0], "traced": pair[1]})
        if traced[w]:
            plain = statistics.median(p["untraced"]["metrics"]["unit_s"]["value"] for p in traced[w])
            t_unit = statistics.median(p["traced"]["metrics"]["trace.unit_s"]["value"]
                                       for p in traced[w])
            print(f"{w}: traced unit {t_unit:.4g} s vs untraced {plain:.4g} s over "
                  f"{args.traced} pairs, overhead {t_unit / plain - 1:+.1%}")

    out = BENCH / "results" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "summary": summary, "runs": runs,
                               "traced": traced}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
