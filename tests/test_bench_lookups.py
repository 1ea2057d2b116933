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
runs = []
for argv in (["floer", "builtin:zero_section", "builtin:zero_section"],
             ["verify", "torus", "--seed", "1", "--count", "5"]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append({"code": cli.main(argv), "out": out.getvalue()})
print(json.dumps({"runs": runs, "metrics": tracer.metrics()}))
"""


def test_tracer_installs_and_counts_one_hom_complex():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "bench"), SRC],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    floer, torus = result["runs"]
    assert floer == {"code": 0, "out": "HF0=1 HF1=0 HF2=1 chi=2\n"}
    assert torus["code"] == 0
    metrics = result["metrics"]
    assert metrics["quiver.hom_complex.calls"] == 1
    # The torus sweep validates, samples and takes Euler numbers through
    # the names the tracer patches.
    for name in ("quiver.first_violation.calls", "quiver.euler_of_hom.calls", "classify.sample.calls"):
        assert metrics[name] > 0, name
