"""Steadiness check: two sets of benchmark runs of the same code.

Usage (from the repository root):

    python3 bench/steady.py

Each set runs every workload of BENCHMARK.json once per seed 1-10, with its
command and run length.  The second set runs after the first, so they are
apart in time.  For every end-to-end metric on every workload the script
prints each set's median and quartiles, the spread (q3 - q1) / median
within each set, and the drift of the second set's median from the first
set's, in the metric's worse direction.  It says whether they stay within
the bounds of BENCHMARK.json: spread (except setup_s) and drift both at
most the bound, and the share of failed operations equal in both sets.
Raw values go to bench/out/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SEEDS = range(1, 11)
SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(spec: dict, runs: dict) -> list:
    """Rows of (workload, metric, per-set stats, drifts, verdict)."""
    rows = []
    for workload, sets in runs.items():
        shares = {round(sum(r["failed"] for r in s) / sum(r["attempted"] for r in s), 12) for s in sets}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            stats = [quartiles([r["metrics"][name]["value"] for r in s]) for s in sets]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            drifts = [sign * (st[1] - stats[0][1]) / stats[0][1] for st in stats[1:]]
            ok = (name == "setup_s" or max(spreads) <= bound) and max(drifts, default=0) <= bound
            rows.append({
                "workload": workload, "metric": name, "bound": bound,
                "sets": [{"q1": a, "median": b, "q3": c} for a, b, c in stats],
                "spreads": spreads, "worse_drifts": drifts,
                "failed_share_equal": len(shares) == 1, "ok": ok and len(shares) == 1,
            })
    return rows


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in names}
    for k in range(SETS):
        started = time.strftime("%Y-%m-%d %H:%M:%S")
        for w in names:
            runs[w].append([run_once(spec, w, seed) for seed in SEEDS])
            print(f"set {k + 1} (started {started}) {w}: done", file=sys.stderr, flush=True)
    rows = summarize(spec, runs)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(SEEDS), "runs": runs, "summary": rows}, fh, indent=1)
    print("| workload | metric | bound | " + " | ".join(
        f"set {k + 1} q1 / median / q3 (spread)" for k in range(SETS)) + " | worse drift | ok |")
    print("|---|---|---|" + "---|" * SETS + "---|---|")
    for r in rows:
        cells = [
            f"{s['q1']:.4g} / {s['median']:.4g} / {s['q3']:.4g} ({sp:.1%})"
            for s, sp in zip(r["sets"], r["spreads"])
        ]
        drift = ", ".join(f"{d:+.1%}" for d in r["worse_drifts"]) or "-"
        print(f"| {r['workload']} | {r['metric']} | {r['bound']} | " + " | ".join(cells)
              + f" | {drift} | {'yes' if r['ok'] else 'NO'} |")
    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
