"""Write one workload's generated inputs, commands and expected outputs.

Usage (from the repository root):

    python3 bench/inputs.py --workload <name> --seed <n> --out <dir>

The input files go to <dir>; <dir>/commands.json lists the CLI commands of
one round, the JSON output the oracles expect from each, and the items of
work per round.  Nothing is timed.
"""

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    workload = run.WORKLOADS[args.workload](args.seed, args.out)
    with open(os.path.join(args.out, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "commands": workload.commands,
            "expected": workload.expected,
            "items": workload.items,
            "input_errors": workload.input_errors,
        }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
