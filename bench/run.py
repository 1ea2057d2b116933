"""Benchmark of the exacthom command line: two seeded, oracle-checked workloads.

Usage (from the repository root):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The inputs are generated from --seed, and the expected answers are
computed by bench/oracle.py, before any timing.  The workload's commands
then run as one round per fresh interpreter (bench/child.py), round after
round until --seconds have passed.  After each round every command's
output is checked.  Metrics are medians over the rounds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds: it prints the per-layer metrics of the traced rounds,
checks that their stdout equals the untraced rounds', and writes the spans
of the first traced round and a summary with the tracing overhead to
bench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

SRC = "src"
OUT = os.path.join(HERE, "out")
ROUND_TIMEOUT_S = 150

# Sizes of the sweeps; see README.md for why each was chosen.
SPHERE_COUNT, SPHERE_MAX_DIM = 1000, 4
TORUS_COUNT = 1500

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mib": "MiB"}


class Workload:
    """One round's commands, the JSON output each must print, and items of work.

    input_errors[i] lists faults the benchmark found in the program's
    sampled inputs to command i; each one fails that command.
    """

    def __init__(self, commands, expected, items, input_errors=None):
        self.commands = commands
        self.expected = expected
        self.items = items
        self.input_errors = input_errors or [[] for _ in commands]

    def __add__(self, other: "Workload") -> "Workload":
        return Workload(
            self.commands + other.commands,
            self.expected + other.expected,
            self.items + other.items,
            self.input_errors + other.input_errors,
        )


def _program():
    """exacthom from the checkout, for drawing the sweeps' samples outside timing."""
    if os.path.abspath(SRC) not in sys.path:
        sys.path.insert(0, os.path.abspath(SRC))
    from exacthom import classify, quiver

    return classify, quiver


def _verified(theorem: str, checked: int) -> dict:
    return {"theorem": theorem, "checked": checked, "violations": []}


def sphere_sweep(seed: int, workdir: str) -> Workload:
    classify, quiver = _program()
    # Two independent verify seeds, so the two sweeps do not share their
    # samples and the work per round varies less from seed to seed.
    sphere_seed, concentrated_seed = 2 * seed, 2 * seed + 1
    flags = ["--count", str(SPHERE_COUNT), "--max-dim", str(SPHERE_MAX_DIM), "--json"]
    cfg = classify.SampleConfig(seed=concentrated_seed, count=SPHERE_COUNT, max_total_dim=SPHERE_MAX_DIM)
    # concentrated checks exactly the samples spread over two or more degrees.
    spread = sum(
        len(classify.sample_representation_at(quiver.sphere_quiver(), cfg, index).space.degrees()) > 1
        for index in range(SPHERE_COUNT)
    )
    sphere_checked = oracle.sphere_exhaustive_count() + SPHERE_COUNT
    return Workload(
        [["verify", "sphere", "--seed", str(sphere_seed), *flags],
         ["verify", "concentrated", "--seed", str(concentrated_seed), *flags]],
        [_verified("sphere", sphere_checked), _verified("concentrated", spread)],
        sphere_checked + spread,
    )


def torus_sweep(seed: int, workdir: str) -> Workload:
    classify, quiver = _program()
    cfg = classify.SampleConfig(seed=seed, count=TORUS_COUNT)
    sample_errors = []
    for index in range(TORUS_COUNT):
        rep = classify.sample_representation_at(quiver.torus_quiver(), cfg, index)
        for i in rep.space.degrees():
            m, n = (rep.maps[g].block(i).to_lists() for g in ("m", "n"))
            sample_errors += [f"sample {index} degree {i}: {e}" for e in oracle.check_torus_block(m, n)]
    checked = oracle.torus_exhaustive_count() + TORUS_COUNT
    return Workload(
        [["verify", "torus", "--seed", str(seed), "--count", str(TORUS_COUNT), "--json"]],
        [_verified("torus", checked)],
        checked,
        [sample_errors],
    )


def floer_pairs(seed: int, workdir: str) -> Workload:
    reps = gen.floer_inputs(seed)
    paths = {}
    for name, rep in reps.items():
        paths[name] = os.path.join(workdir, f"rep_{name}.json")
        _write_json(paths[name], gen.representation_document(rep))
    return Workload(
        [["floer", paths[a], paths[b], "--json"] for a, b in gen.FLOER_PAIRS],
        [oracle.floer_answer(reps[a], reps[b]) for a, b in gen.FLOER_PAIRS],
        len(gen.FLOER_PAIRS),
    )


def cell_homology(seed: int, workdir: str) -> Workload:
    commands, expected = [], []
    inputs = gen.cell_inputs(seed)
    for k, (kind, doc, answer) in enumerate(inputs):
        path = os.path.join(workdir, f"{kind}_{k}.json")
        _write_json(path, doc)
        commands.append(["homology", path, "--json"])
        expected.append({"homology": answer["homology"], "euler": answer["euler"]})
        if kind == "surface":
            commands.append(["classify", path, "--json"])
            expected.append({"genus": answer["genus"], "euler": answer["euler"],
                             "connected": True, "orientable_assumed": True})
    return Workload(commands, expected, len(inputs))


# Each workload runs two groups of commands in one round: with fewer
# workloads, each run of a fixed total time budget measures for longer,
# which the machine's slow drift in CPU rate needs (see README.md).
WORKLOADS = {
    "sweeps": lambda seed, workdir: sphere_sweep(seed, workdir) + torus_sweep(seed, workdir),
    "files": lambda seed, workdir: floer_pairs(seed, workdir) + cell_homology(seed, workdir),
}


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def run_round(job_path: str) -> dict:
    start_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), str(start_ns), os.path.abspath(SRC), job_path],
        capture_output=True,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_round(workload: Workload, result: dict) -> list:
    """Error strings per command of one round; an empty list means it passed."""
    errors = []
    for want, found, cmd in zip(workload.expected, workload.input_errors, result["commands"]):
        if cmd["code"] != 0:
            errors.append([f"exit {cmd['code']}: {cmd['stderr'][-300:]}"])
            continue
        try:
            got = json.loads(cmd["stdout"].strip().splitlines()[-1])
        except (ValueError, IndexError):
            errors.append([f"unparsable output {cmd['stdout'][-300:]!r}"])
            continue
        mismatch = [] if got == want else [f"expected {want}, got {got}"]
        errors.append(found + mismatch)
    return errors


def median_metrics(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "exacthom", "cli.py")):
        print("error: run from the repository root; src/exacthom/cli.py not found", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: str) -> int:
    workload = WORKLOADS[args.workload](args.seed, workdir)
    spans_path = os.path.join(OUT, f"spans-{args.workload}.json")
    jobs = {}
    for trace in ((0, 1) if args.trace else (0,)):
        jobs[trace] = os.path.join(workdir, f"job{trace}.json")
        _write_json(jobs[trace], {
            "commands": workload.commands,
            "trace": trace,
            "spans_out": spans_path if trace else None,
        })

    rounds = {0: [], 1: []}
    attempted = failed = 0
    first_errors = None
    stdout_mismatch = False
    reference_stdout = None
    begin = time.monotonic()
    while True:
        pass_start = time.monotonic()
        for trace, job in jobs.items():
            result = run_round(job)
            errors = check_round(workload, result)
            attempted += len(errors)
            failed += sum(1 for e in errors if e)
            if first_errors is None and any(errors):
                first_errors = errors
            stdout = [c["stdout"] for c in result["commands"]]
            if reference_stdout is None:
                reference_stdout = stdout
            elif stdout != reference_stdout:
                stdout_mismatch = True
            wall = sum(c["wall_s"] for c in result["commands"])
            rounds[trace].append({
                "setup_s": result["setup_s"],
                "wall_s": wall,
                "items_per_s": workload.items / wall,
                "peak_rss_mib": result["peak_rss_mib"],
                "cpu_s": result["cpu_s"],
                "layers": result.get("layers"),
            })
            if trace and len(rounds[1]) == 1:  # spans of the first traced round only
                _write_json(jobs[1], {"commands": workload.commands, "trace": 1, "spans_out": None})
        # Start no round that the last one says would end after --seconds.
        now = time.monotonic()
        if now + (now - pass_start) - begin > args.seconds:
            break

    untraced = median_metrics([{k: v for k, v in r.items() if k != "layers"} for r in rounds[0]])
    if first_errors:
        for argv, errs in zip(workload.commands, first_errors):
            for e in errs:
                print(f"FAILED {' '.join(argv)}: {e}", file=sys.stderr)
    if stdout_mismatch:
        print("FAILED: stdout differs between rounds", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(rounds[0])} untraced rounds, "
          f"{attempted - failed}/{attempted} operations passed, items/round={workload.items}, "
          f"median wall_s={untraced['wall_s']:.4f} cpu_s={untraced['cpu_s']:.4f} "
          f"setup_s={untraced['setup_s']:.4f}")
    counts_repeat = True
    if args.trace:
        layer_rows = [r["layers"] for r in rounds[1]]
        layers = median_metrics(layer_rows)
        counts_repeat = all(
            row[k] == layer_rows[0][k] for row in layer_rows for k in row if not k.endswith("self_s")
        )
        traced_wall = statistics.median(r["wall_s"] for r in rounds[1])
        overhead = traced_wall / untraced["wall_s"] - 1
        shares = {k[:-len(".self_s")]: v / traced_wall for k, v in layers.items() if k.endswith(".self_s")}
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": {"untraced": len(rounds[0]), "traced": len(rounds[1])},
            "wall_s": {"untraced": untraced["wall_s"], "traced": traced_wall},
            "cpu_s": untraced["cpu_s"],
            "tracing_overhead": overhead,
            "counts_repeat": counts_repeat,
            "stdout_equal": not stdout_mismatch,
            "layers": layers,
            "self_share": shares,
            # Tracer bookkeeping and cli.main's argument parsing: in no layer's self time.
            "no_layer_share": 1 - sum(shares.values()),
        }
        _write_json(os.path.join(OUT, f"trace-{args.workload}.json"), summary)
        print(f"traced wall_s={traced_wall:.4f} overhead={overhead:+.1%} "
              f"counts_repeat={counts_repeat} stdout_equal={not stdout_mismatch}")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": untraced[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({
        "correct": failed == 0 and not stdout_mismatch and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_frac", "per_complex", "per_rep")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
