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
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append({"code": cli.main(argv), "out": out.getvalue()})
print(json.dumps({"runs": runs, "metrics": tracer.metrics()}))
"""


def traced(commands):
    """Runs and per-layer metrics of the CLI commands, under spans.install()."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "bench"), SRC, json.dumps(commands)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_and_counts_one_hom_complex():
    result = traced([
        ["floer", "builtin:zero_section", "builtin:zero_section"],
        ["verify", "torus", "--seed", "1", "--count", "5"],
    ])
    floer, torus = result["runs"]
    assert floer == {"code": 0, "out": "HF0=1 HF1=0 HF2=1 chi=2\n"}
    assert torus["code"] == 0
    metrics = result["metrics"]
    assert metrics["quiver.hom_complex.calls"] == 1
    # The torus sweep validates, samples and takes Euler numbers through
    # the names the tracer patches.
    for name in ("quiver.first_violation.calls", "quiver.euler_of_hom.calls", "classify.sample.calls"):
        assert metrics[name] > 0, name


SURFACE = {
    "cells": [{"id": "v", "dim": 0}, {"id": "a", "dim": 1}, {"id": "b", "dim": "1"}, {"id": "f", "dim": 2}],
    "incidence": [{"from": "a", "to": "v", "coeff": 0}, {"from": "f", "to": "b", "coeff": "0"}],
}
REP = {"quiver": "sphere", "space": {"0": 1, "1": 1}, "maps": {"z": {"1": [["1/2"]]}}}


def test_tracer_counts_file_loads_and_chain_complexes(tmp_path):
    """homology, classify and floer on files load and build through the patched names."""
    surface, rep = tmp_path / "surface.json", tmp_path / "rep.json"
    surface.write_text(json.dumps(SURFACE))
    rep.write_text(json.dumps(REP))
    result = traced([
        ["homology", str(surface)], ["classify", str(surface)], ["floer", str(rep), str(rep)],
    ])
    homology, classify, floer = result["runs"]
    assert homology == {"code": 0, "out": "H0=1 H1=2 H2=1 chi=0\n"}
    assert classify == {"code": 0, "out": "genus=1 euler=0\n"}
    assert floer["code"] == 0
    metrics = result["metrics"]
    assert metrics["io.parse.calls"] == 4  # the surface twice, the representation twice
    assert metrics["cellular.chain_complex.calls"] == 2
    assert metrics["quiver.hom_complex.calls"] == 1


SWEEP = ["--seed", "1", "--count", "200", "--max-dim", "4"]


def test_sphere_sweep_builds_one_hom_complex_per_distinct_self_pair():
    from exacthom.classify import SampleConfig, enumerate_sphere_representations, sample_representation_at
    from exacthom.quiver import sphere_quiver

    cfg = SampleConfig(seed=1, count=200, max_total_dim=4)
    reps = [*enumerate_sphere_representations(),
            *(sample_representation_at(sphere_quiver(), cfg, i) for i in range(200))]
    distinct = {(rep.space, rep.maps["z"]) for rep in reps}
    assert len(reps) == 228 > len(distinct)
    result = traced([["verify", "sphere", *SWEEP]])
    assert result["runs"][0]["code"] == 0
    assert result["metrics"]["quiver.hom_complex.calls"] == len(distinct)

