"""Golden CLI output: the exact stdout recorded for inputs with "p/q" entries.

These strings were printed by the program before matrices stored integer
numerators over one denominator; a change of storage or arithmetic must
never change a printed number.
"""

import json

import pytest

from exacthom.cli import main

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
