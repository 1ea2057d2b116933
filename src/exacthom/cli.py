"""Command-line interface.

Subcommands: homology (cell complexes or raw cochain complexes), classify
(surface identification), floer (morphism-complex cohomology of two
representations), verify (theorem sweeps).  Exit codes: 0 success, 1
violation or classification failure, 2 input error, 141 (128 + SIGPIPE, as
a shell reports it) when the reader closes stdout before the output is
written, with nothing on stderr.  --json emits one machine-readable line;
identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional, Sequence, Union

from .cellular import CellComplex, builtin as builtin_cell
from .cellular import classify_surface, homology_of
from .classify import CHECKS, SampleConfig
from .complexes import CochainComplex
from .errors import ClassificationError, ExactHomError, FormatError
from .io import load_homology_input, load_cell_complex, load_representation
from .quiver import (
    Representation,
    hom_complex,
    torus_trivial_representation,
    zero_section_representation,
)

BUILTIN_PREFIX = "builtin:"

# homology and floer print one entry per degree from the lowest to the
# highest, so a file with two far-apart degrees could ask for any number of
# entries.  Apart from the tests of this limit, no test or benchmark input
# spans more than 8 degrees.
_MAX_DEGREE_SPAN = 1000

_BUILTIN_REPRESENTATIONS = {
    "zero_section": zero_section_representation,
    "torus_trivial": torus_trivial_representation,
}


def _resolve_homology_input(
    source: str, cells_only: bool = False
) -> Union[CellComplex, CochainComplex]:
    """A builtin cell complex, or a file; cells_only refuses cochain-complex files."""
    if source.startswith(BUILTIN_PREFIX):
        return builtin_cell(source[len(BUILTIN_PREFIX):])
    if cells_only:
        return load_cell_complex(source)
    return load_homology_input(source)


def _resolve_representation(source: str) -> Representation:
    if source.startswith(BUILTIN_PREFIX):
        name = source[len(BUILTIN_PREFIX):]
        if name not in _BUILTIN_REPRESENTATIONS:
            raise FormatError(f"unknown builtin representation {name!r}")
        return _BUILTIN_REPRESENTATIONS[name]()
    return load_representation(source)


def _degree_range(degrees: Sequence[int]) -> range:
    """lo..hi of degrees (0..0 if none), refused past _MAX_DEGREE_SPAN."""
    lo, hi = (min(degrees), max(degrees)) if degrees else (0, 0)
    if hi - lo > _MAX_DEGREE_SPAN:
        raise FormatError(
            f"degrees {lo}..{hi} span {hi - lo}, "
            f"more than the {_MAX_DEGREE_SPAN} a table may list"
        )
    return range(lo, hi + 1)


def _emit(args, text: str, payload) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def cmd_homology(args) -> int:
    target = _resolve_homology_input(args.source)
    if isinstance(target, CellComplex):
        degrees = _degree_range((0, target.max_dim()))
        h = homology_of(target)
    else:
        degrees = _degree_range(target.space.degrees())
        h = target.cohomology()
    chi = h.euler()
    table = {i: h.dim(i) for i in degrees}
    text = " ".join(f"H{i}={d}" for i, d in table.items()) + f" chi={chi}"
    _emit(args, text, {"homology": {str(i): d for i, d in table.items()}, "euler": chi})
    return 0


def cmd_classify(args) -> int:
    verdict = classify_surface(_resolve_homology_input(args.source, cells_only=True))
    _emit(
        args,
        f"genus={verdict.genus} euler={verdict.euler}",
        {
            "genus": verdict.genus,
            "euler": verdict.euler,
            "connected": verdict.connected,
            "orientable_assumed": verdict.orientable_assumed,
        },
    )
    return 0


def cmd_floer(args) -> int:
    rep_a = _resolve_representation(args.rep_a)
    rep_b = _resolve_representation(args.rep_b)
    result = hom_complex(rep_a, rep_b)
    chi = result.complex.space.euler()
    if not result.differential_defined:
        _emit(
            args,
            f"chi={chi} (differential not defined for this quiver presentation)",
            {"chi": chi, "differential_defined": False},
        )
        return 0
    degrees = _degree_range(result.complex.space.degrees())
    hf = result.complex.cohomology()
    table = {i: hf.dim(i) for i in degrees}
    text = " ".join(f"HF{i}={d}" for i, d in table.items()) + f" chi={chi}"
    _emit(
        args,
        text,
        {
            "hf": {str(i): d for i, d in table.items()},
            "chi": chi,
            "differential_defined": True,
        },
    )
    return 0


def cmd_verify(args) -> int:
    cfg = SampleConfig(seed=args.seed, count=args.count, max_total_dim=args.max_dim)
    report = CHECKS[args.theorem](cfg)
    lines = [
        f"theorem={report.theorem} checked={report.samples_checked} "
        f"violations={len(report.violations)}"
    ]
    for v in report.violations:
        lines.append(f"violation sample={v['sample']} detail={v['detail']}")
    _emit(args, "\n".join(lines), report.to_payload())
    return 0 if report.passed else 1


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use: every main() call in a
    process parses with it, and importing this module does not build it."""
    parser = argparse.ArgumentParser(
        prog="exacthom",
        description="Exact-arithmetic homology workbench: cellular homology, "
        "cochain-complex invariants, and morphism-complex cohomology of "
        "quiver representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a cell complex or cochain complex")
    p.add_argument("source", help="file path, or builtin:circle|sphere|torus|genus_g:<g>")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("classify", help="identify a closed orientable surface")
    p.add_argument("source", help="cell complex file path or builtin name")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("floer", help="morphism-complex cohomology of two representations")
    p.add_argument("rep_a", help="representation file, or builtin:zero_section|torus_trivial")
    p.add_argument("rep_b", help="representation file, or builtin name")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_floer)

    p = sub.add_parser("verify", help="run a classification sweep")
    p.add_argument("theorem", choices=CHECKS)
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument("--count", type=int, default=100, help="number of samples (default 100)")
    p.add_argument("--max-dim", dest="max_dim", type=int, default=3,
                   help="maximum total dimension of sampled spaces (default 3)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so the
        # interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ClassificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExactHomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
