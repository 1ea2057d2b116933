"""Acceptance gate: one test per shipped guarantee.

Each test wraps its checks in the `criterion` context manager, which records
a pass/fail line that the conftest terminal-summary hook prints after the
run.  Tolerances are zero everywhere (all arithmetic is exact); the only
budgets are the wall-clock limits stated inline.
"""

import json
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from conftest import record_acceptance
from test_cellular import tetrahedron_boundary

from exacthom.cellular import (
    CellComplexError,
    builtin,
    chain_complex_of,
    classify_surface,
    homology_of,
    sphere,
)
from exacthom.classify import (
    SampleConfig,
    check_concentrated_lemma,
    check_sphere_theorem,
    check_torus_theorem,
    sample_representation_at,
)
from exacthom.cli import main
from exacthom.complexes import random_complex
from exacthom.quiver import (
    floer_cohomology,
    hom_complex,
    torus_quiver,
    torus_trivial_representation,
    zero_section_representation,
)

SEED = 20240819


@contextmanager
def criterion(number, description, time_limit=None):
    start = time.perf_counter()
    try:
        yield
        if time_limit is not None:
            elapsed = time.perf_counter() - start
            assert elapsed < time_limit, (
                f"criterion {number} took {elapsed:.2f}s, limit {time_limit}s"
            )
    except BaseException:
        record_acceptance(number, description, False)
        raise
    record_acceptance(number, description, True)


def _random_dims(rng):
    dims = {}
    for degree in range(-3, 4):
        d = rng.randint(0, 3)
        if d and rng.random() < 0.6:
            dims[degree] = d
    return dims


def test_criterion_1_golden_homology_tables():
    with criterion(1, "golden homology tables for circle, sphere, torus, genus <= 5", 1.0):
        assert homology_of(builtin("circle")).dims == {0: 1, 1: 1}
        assert homology_of(builtin("sphere")).dims == {0: 1, 2: 1}
        assert homology_of(builtin("torus")).dims == {0: 1, 1: 2, 2: 1}
        for g in range(6):
            h = homology_of(builtin(f"genus_g:{g}"))
            expected = {0: 1, 2: 1} if g == 0 else {0: 1, 1: 2 * g, 2: 1}
            assert h.dims == expected
            verdict = classify_surface(builtin(f"genus_g:{g}"))
            assert verdict.genus == g
            assert verdict.euler == 2 - 2 * g


def test_criterion_2_euler_identities():
    with criterion(2, "euler identities on 500 random complexes and 200 sum/shift samples", 5.0):
        rng = random.Random(SEED)
        complexes = []
        for i in range(500):
            cx = random_complex(_random_dims(rng), seed=SEED + i)
            assert cx.validate()
            assert cx.euler_from_dims() == cx.euler_from_cohomology()
            complexes.append(cx)
        for i in range(200):
            a, b = rng.choice(complexes), rng.choice(complexes)
            assert a.direct_sum(b).euler_from_dims() == (
                a.euler_from_dims() + b.euler_from_dims()
            )
            s = rng.randint(-3, 3)
            sign = -1 if s % 2 else 1
            shifted = a.shift(s)
            assert shifted.validate()
            assert shifted.euler_from_dims() == sign * a.euler_from_dims()


def test_criterion_3_zero_section_reproduction():
    with criterion(3, "zero-section self-cohomology is (1, 0, 1) in degrees 0..2"):
        zs = zero_section_representation()
        hf = floer_cohomology(zs, zs)
        assert hf.dims == {0: 1, 2: 1}
        assert tuple(hf.dim(i) for i in range(3)) == (1, 0, 1)


def test_criterion_4_sphere_theorem_sweep():
    with criterion(4, "sphere sweep: exhaustive (28 reps) plus 1000 samples, no violations", 30.0):
        report = check_sphere_theorem(SampleConfig(seed=SEED, count=1000))
        assert report.samples_checked == 28 + 1000
        assert report.passed, report.violations


def test_criterion_5_concentrated_lemma_sweep():
    with criterion(5, "spread-k reps have nonzero ends at -k and k+2, width >= 4", 30.0):
        report = check_concentrated_lemma(SampleConfig(seed=SEED, count=500))
        assert 0 < report.samples_checked <= 500
        assert report.passed, report.violations


def test_criterion_6_torus_theorem_sweep():
    with criterion(6, "torus sweep: euler of hom vanishes, exhaustive plus 1000 samples", 30.0):
        report = check_torus_theorem(SampleConfig(seed=SEED, count=1000))
        assert report.samples_checked == 1068 + 1000
        assert report.passed, report.violations


def test_criterion_7_decomposition_invariance():
    with criterion(7, "minimal and subdivided sphere have identical homology, chi = 2"):
        minimal = sphere()
        subdivided = tetrahedron_boundary()
        assert chain_complex_of(subdivided).space.total_dim() == 14
        h_min, h_sub = homology_of(minimal), homology_of(subdivided)
        assert h_min.dims == h_sub.dims == {0: 1, 2: 1}
        for cx in (minimal, subdivided):
            chain = chain_complex_of(cx)
            assert chain.euler_from_dims() == chain.euler_from_cohomology() == 2


def test_criterion_8_square_zero_enforcement(tmp_path):
    with criterion(8, "constructed complexes validate; inconsistent incidence exits 2"):
        for name in ("circle", "sphere", "torus", "genus_g:4"):
            assert chain_complex_of(builtin(name)).validate()
        zs = zero_section_representation()
        tt = torus_trivial_representation()
        assert hom_complex(zs, zs).complex.validate()
        assert hom_complex(tt, tt).complex.validate()
        for i in range(20):
            assert random_complex({-1: 2, 0: 3, 1: 2}, seed=i).validate()

        bad = {
            "cells": [
                {"id": "v", "dim": 0},
                {"id": "e", "dim": 1},
                {"id": "f", "dim": 2},
            ],
            "incidence": [
                {"from": "e", "to": "v", "coeff": 1},
                {"from": "f", "to": "e", "coeff": 1},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        from exacthom.io import load_cell_complex

        with pytest.raises(CellComplexError):
            chain_complex_of(load_cell_complex(path))
        assert main(["homology", str(path)]) == 2
        assert main(["classify", str(path)]) == 2


def test_criterion_9_determinism(capsys):
    with criterion(9, "verify torus --seed 42 --count 200 --json is byte-identical, also in parallel"):
        argv = ["verify", "torus", "--seed", "42", "--count", "200", "--json"]

        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["violations"] == []

        cmd = [sys.executable, "-m", "exacthom"] + argv
        runs = [
            subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)
        ]
        procs = [
            subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        concurrent = [p.communicate()[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)
        outputs = {r.stdout for r in runs} | set(concurrent)
        assert len(outputs) == 1
        assert outputs.pop().decode() == first

        cfg = SampleConfig(seed=42, count=200)
        serial = [sample_representation_at(torus_quiver(), cfg, i) for i in range(200)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(
                pool.map(
                    lambda i: sample_representation_at(torus_quiver(), cfg, i),
                    range(200),
                )
            )
        assert parallel == serial
        assert check_torus_theorem(cfg).to_payload() == json.loads(first)
