"""Tests of the benchmark itself: generators, oracles and the runner.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

sympy = pytest.importorskip("sympy")


def sympy_rank(m, cols):
    return sympy.Matrix(len(m), cols, [x for row in m for x in row]).rank() if m and cols else 0


def is_zero_product(a, b, inner):
    return all(x == 0 for row in gen.matmul(a, b, inner) for x in row)


# -- generators agree with sympy on small sizes -----------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_surface_answer_matches_sympy_ranks(seed):
    rng = gen.rng_for(seed, "test")
    vertices, faces, genus = 4, 5, 2
    doc, answer = gen.surface_document(rng, vertices, faces, genus)
    edges = sum(1 for c in doc["cells"] if c["dim"] == 1)
    index = {c["id"]: int(c["id"][1:]) for c in doc["cells"]}
    d1 = [[Fraction(0)] * edges for _ in range(vertices)]
    d2 = [[Fraction(0)] * faces for _ in range(edges)]
    for e in doc["incidence"]:
        target = d1 if e["from"].startswith("e") else d2
        target[index[e["to"]]][index[e["from"]]] = Fraction(e["coeff"])
    assert is_zero_product(d1, d2, edges)
    r1, r2 = sympy_rank(d1, edges), sympy_rank(d2, faces)
    got = {"0": vertices - r1, "1": edges - r1 - r2, "2": faces - r2}
    assert got == answer["homology"]
    assert answer["euler"] == vertices - edges + faces == 2 - 2 * answer["genus"]


@pytest.mark.parametrize("seed", [1, 2])
def test_cochain_answer_matches_sympy_ranks(seed):
    rng = gen.rng_for(seed, "test")
    lo, dims, ranks = -1, (3, 5, 4, 2), (2, 2, 2)
    doc, answer = gen.cochain_document(rng, lo, dims, ranks)
    mats = [[[Fraction(x) for x in row] for row in doc["differential"][str(lo + i)]] for i in range(3)]
    assert any(x.denominator > 1 for m in mats for row in m for x in row)
    for i in range(2):
        assert is_zero_product(mats[i + 1], mats[i], dims[i + 1])
    r = [sympy_rank(m, dims[i]) for i, m in enumerate(mats)] + [0]
    want = {str(lo + i): dims[i] - r[i] - (r[i - 1] if i else 0) for i in range(4)}
    assert want == answer["homology"]


def test_generators_are_seeded():
    assert gen.floer_inputs(5) == gen.floer_inputs(5)
    assert gen.floer_inputs(5) != gen.floer_inputs(6)
    assert gen.cell_inputs(5) == gen.cell_inputs(5)


# -- the floer oracle --------------------------------------------------------

def rep(space, z):
    return {"space": space, "z": {i: [[Fraction(x) for x in row] for row in m] for i, m in z.items()}}


def test_floer_oracle_zero_section():
    zero_section = rep({0: 1}, {})
    assert oracle.floer_answer(zero_section, zero_section)["hf"] == {"0": 1, "1": 0, "2": 1}


def test_floer_oracle_is_additive_under_direct_sum():
    v = rep({0: 1, 1: 2}, {1: [[1, "1/2"]]})
    v2 = rep({-1: 1, 0: 1}, {0: [[2]]})
    w = rep({0: 2, 1: 1}, {1: [[1], [-1]]})
    # v + v2 with degree 0 ordered (v, v2).
    both = rep({-1: 1, 0: 2, 1: 2}, {0: [[0, 2]], 1: [[1, "1/2"], [0, 0]]})
    _, hf = oracle.floer_dims(both, w)
    _, a = oracle.floer_dims(v, w)
    _, b = oracle.floer_dims(v2, w)
    for q in set(hf) | set(a) | set(b):
        assert hf.get(q, 0) == a.get(q, 0) + b.get(q, 0)


@pytest.mark.parametrize("pair", gen.FLOER_PAIRS[:2])
def test_floer_oracle_matches_program_on_small_reps(pair):
    from exacthom.io import parse_representation
    from exacthom.quiver import floer_cohomology

    rng = gen.rng_for(1, "test")
    small = {"A": (2, 1), "B": (1, 1, 1), "C": (1, 2, 1, 1)}
    reps = {k: gen.sphere_representation(rng, s, 0) for k, s in small.items()}
    a, b = (reps[k] for k in pair)
    want = oracle.floer_answer(a, b)
    program = floer_cohomology(*(parse_representation(gen.representation_document(r)) for r in (a, b)))
    assert {k: v for k, v in want["hf"].items() if v} == {str(k): v for k, v in program.dims.items()}


# -- exhaustive counts, against the program's enumerations -------------------

def test_sweep_counts():
    from exacthom.classify import enumerate_sphere_representations, enumerate_torus_representations

    assert oracle.sphere_exhaustive_count() == 28 == sum(1 for _ in enumerate_sphere_representations())
    assert oracle.torus_exhaustive_count() == sum(1 for _ in enumerate_torus_representations())


# -- every oracle rejects a wrong answer -------------------------------------

def off_by_one_hf(out):
    out["hf"]["0"] += 1


def wrong_genus(out):
    out.update(genus=out["genus"] + 1, euler=out["euler"] - 2)


def wrong_count(out):
    out["checked"] += 1


def a_violation(out):
    out["violations"] = [{"sample": "sample:0", "detail": "injected"}]


@pytest.mark.parametrize("name, command, corrupt", [
    ("files", 0, off_by_one_hf),
    ("files", 5, wrong_genus),
    ("sweeps", 2, wrong_count),
    ("sweeps", 1, wrong_count),
    ("sweeps", 0, a_violation),
])
def test_check_round_rejects_a_wrong_answer(tmp_path, name, command, corrupt):
    workload = run.WORKLOADS[name](1, str(tmp_path))
    # files: 4 floer pairs, then homology/classify; sweeps: sphere, concentrated, torus.
    assert len(workload.commands) == {"files": 12, "sweeps": 3}[name]
    outputs = [json.loads(json.dumps(want)) for want in workload.expected]
    result = {"commands": [{"code": 0, "stdout": json.dumps(o) + "\n", "stderr": ""} for o in outputs]}
    assert not any(run.check_round(workload, result))
    corrupt(outputs[command])
    result["commands"][command]["stdout"] = json.dumps(outputs[command]) + "\n"
    errors = run.check_round(workload, result)
    assert [bool(e) for e in errors] == [k == command for k in range(len(errors))]


def test_check_round_counts_a_nonzero_exit_as_failed():
    workload = run.Workload([["verify"]], [{}], 1)
    failed = {"commands": [{"code": 2, "stdout": "", "stderr": "error: x"}]}
    assert run.check_round(workload, failed) == [["exit 2: error: x"]]


def test_torus_block_check_rejects_bad_pairs():
    one = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    a = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    singular = [[Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]]
    assert oracle.check_torus_block(a, one) == []
    assert oracle.check_torus_block(a, b)
    assert oracle.check_torus_block(singular, singular)


# -- the runner ---------------------------------------------------------------

def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "files", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2 * 12
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["cellular.chain_complex.calls"]["value"] == 3 * 4
    assert result["metrics"]["quiver.hom_complex.calls"]["value"] == len(gen.FLOER_PAIRS)
    assert "stdout_equal=True" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "files", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
