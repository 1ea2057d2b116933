"""Golden output: exact stdout and sample streams recorded from earlier code.

The floer and homology strings, for inputs with "p/q" entries, were
printed before matrices stored integer numerators over one denominator.
The two sweep outputs at benchmark sizes and the sample-stream digests
were recorded before the sampler drew from int pools instead of Fraction
pools.  The cell-complex outputs and error lines were recorded before
input files were parsed straight into integer storage.  A change of
storage, arithmetic, parsing or sampling must never change a printed
number, an error message or a sampled entry.
"""

import hashlib
import json

import pytest

from exacthom.classify import SampleConfig, sample_representation_at
from exacthom.cli import main
from exacthom.quiver import sphere_quiver, torus_quiver

REP_A = {
    "quiver": "sphere",
    "space": {"0": 2, "1": 2, "2": 1},
    "maps": {"z": {"1": [["1/2", "-3/4"], [0, "2/3"]], "2": [["5/7"], [0]]}},
}
REP_B = {
    "quiver": "sphere",
    "space": {"-1": 1, "0": 2, "1": 1},
    "maps": {"z": {"0": [["-1/3", "1/6"]], "1": [["4/9"], [0]]}},
}
COCHAIN = {
    "dims": {"0": 2, "1": 3, "2": 2},
    "differential": {
        "0": [["1/2", 0], ["1/3", 0], [0, 0]],
        "1": [["2/5", "-3/5", 0], ["-4/5", "6/5", 0]],
    },
}

GOLDEN = [
    (
        ["floer", "{a}", "{b}"],
        "HF-3=1 HF-2=3 HF-1=3 HF0=0 HF1=1 HF2=4 HF3=2 chi=0\n",
    ),
    (
        ["floer", "{a}", "{b}", "--json"],
        '{"chi": 0, "differential_defined": true, "hf": {"-1": 3, "-2": 3, "-3": 1, '
        '"0": 0, "1": 1, "2": 4, "3": 2}}\n',
    ),
    (
        ["floer", "{b}", "{a}"],
        "HF-1=2 HF0=4 HF1=1 HF2=0 HF3=3 HF4=3 HF5=1 chi=0\n",
    ),
    (
        ["floer", "{a}", "{a}"],
        "HF-2=2 HF-1=4 HF0=3 HF1=0 HF2=3 HF3=4 HF4=2 chi=2\n",
    ),
    (["homology", "{cochain}"], "H0=1 H1=1 H2=1 chi=1\n"),
    (["homology", "{cochain}", "--json"], '{"euler": 1, "homology": {"0": 1, "1": 1, "2": 1}}\n'),
    (
        ["verify", "sphere", "--seed", "1", "--count", "50", "--max-dim", "12", "--json"],
        '{"checked": 78, "theorem": "sphere", "violations": []}\n',
    ),
    (
        ["verify", "torus", "--seed", "11", "--count", "1500", "--json"],
        '{"checked": 2568, "theorem": "torus", "violations": []}\n',
    ),
    (
        ["verify", "concentrated", "--seed", "23", "--count", "1000", "--max-dim", "4", "--json"],
        '{"checked": 693, "theorem": "concentrated", "violations": []}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_unchanged(argv, expected, tmp_path, capsys):
    paths = {}
    for key, doc in (("a", REP_A), ("b", REP_B), ("cochain", COCHAIN)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        paths[key] = str(path)
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


SAMPLE_DIGESTS = {
    "sphere": "3f2ebc87739f22dae836463badda39f7041c3c7d099f50522e7501b0a92fce4c",
    "torus": "38c0e42e4a8fb98cb7e356c573567955082ef34d80c7e2001cdb792ef23b995f",
}


@pytest.mark.parametrize("name, quiver", [("sphere", sphere_quiver()), ("torus", torus_quiver())])
def test_sample_stream_unchanged(name, quiver):
    """sha256 over every space and block entry of seeds 1-3, indices 0-199, max-dim 4.

    Blocks are read through block(i) at every source degree whose target
    degree is nonzero, so a sampled block that happens to be zero is hashed
    although the map does not store it.
    """
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        cfg = SampleConfig(seed=seed, count=200, max_total_dim=4)
        for index in range(200):
            rep = sample_representation_at(quiver, cfg, index)
            space = rep.space
            h.update(repr(sorted(space.dims.items())).encode())
            for gen in sorted(rep.maps):
                f = rep.maps[gen]
                for i in space.degrees():
                    if space.dim(i + f.degree) == 0:
                        continue
                    b = f.block(i)
                    h.update(f"{gen}:{i}:{b.rows}x{b.cols}:".encode())
                    h.update(" ".join(str(x) for x in b.entries()).encode())
                    h.update(b";")
    assert h.hexdigest() == SAMPLE_DIGESTS[name]


def triangulated_torus():
    """3x3 grid torus: 9 vertices, 27 edges, 18 triangles, simplicial signs.

    Some dimensions and coefficients are integer strings ("0", "-1", "+1").
    """
    v = lambda i, j: f"v{i % 3}{j % 3}"
    cells = [{"id": v(i, j), "dim": "0"} for i in range(3) for j in range(3)]
    edges, incidence = {}, []
    for i in range(3):
        for j in range(3):
            for kind, (di, dj) in (("h", (1, 0)), ("u", (0, 1)), ("d", (1, 1))):
                e = f"{kind}{i}{j}"
                edges[(v(i, j), v(i + di, j + dj))] = e
                cells.append({"id": e, "dim": 1})
                incidence += [{"from": e, "to": v(i + di, j + dj), "coeff": 1},
                              {"from": e, "to": v(i, j), "coeff": "-1"}]
    for i in range(3):
        for j in range(3):
            for t, tri in enumerate(((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                                     (v(i, j), v(i + 1, j + 1), v(i, j + 1)))):
                f = f"t{t}{i}{j}"
                cells.append({"id": f, "dim": "2"})
                for p, q in zip(tri, tri[1:] + tri[:1]):
                    if (p, q) in edges:
                        incidence.append({"from": f, "to": edges[(p, q)], "coeff": "+1"})
                    else:
                        incidence.append({"from": f, "to": edges[(q, p)], "coeff": -1})
    return {"cells": cells, "incidence": incidence}


SURFACE_GOLDEN = [
    (["homology"], "H0=1 H1=2 H2=1 chi=0\n"),
    (["homology", "--json"], '{"euler": 0, "homology": {"0": 1, "1": 2, "2": 1}}\n'),
    (["classify"], "genus=1 euler=0\n"),
    (
        ["classify", "--json"],
        '{"connected": true, "euler": 0, "genus": 1, "orientable_assumed": true}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", SURFACE_GOLDEN, ids=[" ".join(a) for a, _ in SURFACE_GOLDEN])
def test_surface_stdout_unchanged(argv, expected, tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(triangulated_torus()))
    code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


EDGE = {"cells": [{"id": "a", "dim": 0}, {"id": "e", "dim": 1}]}
CELL_REFUSED = {
    "duplicate cell id": (
        {"cells": [{"id": i, "dim": 0} for i in ("b", "a", "c", "b", "a")]},
        "error: duplicate cell ids: ['a', 'b']",
    ),
    "dangling end": (
        dict(EDGE, incidence=[{"from": "e", "to": "ghost", "coeff": 1}]),
        "error: incidence references unknown cell 'ghost'",
    ),
    "dimension drop": (
        {"cells": [{"id": "a", "dim": 0}, {"id": "f", "dim": "2"}],
         "incidence": [{"from": "f", "to": "a", "coeff": 1}]},
        "error: incidence 'f'->'a' must drop dimension by exactly 1",
    ),
    "duplicate pair": (
        dict(EDGE, incidence=[{"from": "e", "to": "a", "coeff": 1},
                              {"from": "e", "to": "a", "coeff": "-1"}]),
        "error: duplicate incidence pair 'e'->'a'",
    ),
    "bool coeff": (
        dict(EDGE, incidence=[{"from": "e", "to": "a", "coeff": True}]),
        "error: coeff must be an integer, got True",
    ),
    "non-dict cell": ({"cells": [["a", 0]]}, "error: cell must be an object, got list"),
    "non-dict incidence": (
        dict(EDGE, incidence=[["e", "a", 1]]),
        "error: incidence entry must be an object, got list",
    ),
}
MATRIX_REFUSED = {
    "zero denominator": (
        {"dims": {"0": 1, "1": 1}, "differential": {"0": [["1/0"]]}},
        "error: bad rational literal '1/0'",
    ),
    "ragged rows": (
        {"dims": {"0": 2, "1": 2}, "differential": {"0": [[1, "1/2"], [3]]}},
        "error: ragged rows",
    ),
    "bad literal after ragged row": (
        {"dims": {"0": 2, "1": 3}, "differential": {"0": [[1, 2], [3], ["x", 0]]}},
        "error: bad rational literal 'x'",
    ),
}
REFUSED = (
    [(command, case, *CELL_REFUSED[case]) for command in ("homology", "classify")
     for case in CELL_REFUSED]
    + [("homology", case, *MATRIX_REFUSED[case]) for case in MATRIX_REFUSED]
)


@pytest.mark.parametrize(
    "command, case, doc, message", REFUSED, ids=[f"{c} {k}" for c, k, _, _ in REFUSED]
)
def test_refused_input_message_unchanged(command, case, doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message + "\n")
