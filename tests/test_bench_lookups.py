"""The benchmark's tracer must still find every name it patches.

bench/spans.py wraps exacthom functions by attribute name at install time,
so renaming or removing one of them breaks a traced benchmark run.  This
runs the tracer in a separate interpreter, so its patches stay there, and
changes nothing under bench/.
"""

import json
import os
import subprocess
import sys

import exacthom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(exacthom.__file__)))

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from exacthom import cli
tracer = spans.install()
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["floer", "builtin:zero_section", "builtin:zero_section"])
print(json.dumps({"code": code, "out": out.getvalue(), "metrics": tracer.metrics()}))
"""


def test_tracer_installs_and_counts_one_hom_complex():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "bench"), SRC],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["out"] == "HF0=1 HF1=0 HF2=1 chi=2\n"
    assert result["metrics"]["quiver.hom_complex.calls"] == 1
