"""The morphism complex's mutation gate, run in-process.

Each gate mutant is quiver.hom_complex compiled from its own source with one
edit, put in the function's place for one test.  With either mutant,
verify sphere and verify concentrated at --seed 4 --count 1000 --max-dim 4
must report violations and exit 1, with the same bytes on one CPU and on
two (forked children inherit the mutant).
"""

import inspect
import json
import os

import pytest

from exacthom import quiver
from exacthom.cli import main

BLOCK_DONE = "        blocks[p] = RationalMatrix._canonical(rows_dim, cols_dim, tuple(out), den)\n"
ZERO_FIRST_COLUMN = "        out[0::cols_dim] = [0] * rows_dim\n"

# name: (text of hom_complex, its replacement, violations of sphere, of concentrated)
MUTANTS = {
    "t-f-term-dropped": ("if (f := v_blocks.get(i - e)) is not None:", "if False:", 249, 249),
    "first-column-dropped": (BLOCK_DONE, ZERO_FIRST_COLUMN + BLOCK_DONE, 316, 308),
}


def mutant(old, new):
    source = inspect.getsource(quiver.hom_complex)
    assert source.count(old) == 1, "the gate's edit no longer matches hom_complex"
    namespace = dict(vars(quiver))
    exec(compile(source.replace(old, new), quiver.__file__, "exec"), namespace)
    return namespace["hom_complex"]


@pytest.mark.parametrize("name", MUTANTS)
def test_gate_mutant_reported(name, capsys, cpus, monkeypatch):
    old, new, *expected = MUTANTS[name]
    monkeypatch.setattr(quiver, "hom_complex", mutant(old, new))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for theorem, violations in zip(("sphere", "concentrated"), expected):
        argv = ["verify", theorem, "--seed", "4", "--count", "1000", "--max-dim", "4", "--json"]
        runs = []
        for n in (1, 2):
            cpus(n)
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert (code, err) == (1, "")
        assert len(json.loads(out)["violations"]) == violations
    assert len(forks) == 4
