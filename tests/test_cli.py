import json
import os
import subprocess
import sys

import pytest

import exacthom
from exacthom import cli
from exacthom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestHomology:
    def test_torus_line(self, capsys):
        code, out, _ = run(capsys, "homology", "builtin:torus")
        assert code == 0
        assert out == "H0=1 H1=2 H2=1 chi=0\n"

    def test_genus_three_line(self, capsys):
        code, out, _ = run(capsys, "homology", "builtin:genus_g:3")
        assert code == 0
        assert out == "H0=1 H1=6 H2=1 chi=-4\n"

    def test_circle(self, capsys):
        code, out, _ = run(capsys, "homology", "builtin:circle")
        assert code == 0
        assert out == "H0=1 H1=1 chi=0\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "homology", "builtin:sphere", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"homology": {"0": 1, "1": 0, "2": 1}, "euler": 2}
        # keys come out sorted, so output is canonical
        assert out == json.dumps(payload, sort_keys=True) + "\n"

    def test_complex_file_negative_degrees(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            {"dims": {"-1": 1, "0": 2, "1": 1}, "differential": {"0": [[1, 1]]}},
        )
        code, out, _ = run(capsys, "homology", path)
        assert code == 0
        assert out == "H-1=1 H0=1 H1=0 chi=0\n"

    def test_cell_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            {
                "cells": [{"id": "p", "dim": 0}, {"id": "q", "dim": 0}],
                "incidence": [],
            },
        )
        code, out, _ = run(capsys, "homology", path)
        assert code == 0
        assert out == "H0=2 chi=2\n"

    def test_cell_file_builds_one_complex(self, capsys, tmp_path, monkeypatch):
        import exacthom.cellular

        calls = []
        build = exacthom.cellular.chain_complex_of

        def counted(cc):
            calls.append(cc)
            return build(cc)

        monkeypatch.setattr(exacthom.cellular, "chain_complex_of", counted)
        path = write_json(
            tmp_path,
            {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}], "incidence": []},
        )
        code, out, _ = run(capsys, "homology", path)
        assert code == 0
        assert out == "H0=1 H1=1 chi=0\n"
        assert len(calls) == 1
        code, out, _ = run(capsys, "classify", "builtin:torus")
        assert code == 0
        assert len(calls) == 2

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "homology", "builtin:mobius")
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "homology", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error" in err

    def test_invalid_complex_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            {
                "dims": {"0": 1, "1": 1, "2": 1},
                "differential": {"0": [[1]], "1": [[1]]},
            },
        )
        code, _, err = run(capsys, "homology", path)
        assert code == 2
        assert "error" in err

    def test_exponent_literal_refused(self, capsys, tmp_path):
        path = write_json(tmp_path, {"dims": {"0": 1, "1": 1}, "differential": {"0": [["1e5"]]}})
        code, out, err = run(capsys, "homology", path)
        assert (code, out) == (2, "")
        assert "bad rational literal '1e5'" in err

    def test_overlong_integer_literal_refused(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"dims": {"0": 1}, "differential": {"0": [[' + "1" * 5000 + "]]}}")
        code, out, err = run(capsys, "homology", str(path))
        assert (code, out) == (2, "")
        assert "not valid JSON" in err

    def test_large_zero_differential(self, capsys, tmp_path):
        """A zero differential stores no block, so large dimensions cost nothing."""
        path = tmp_path / "big.json"
        path.write_text('{"dims": {"0": 2000, "1": 2000}}\n')
        assert path.stat().st_size == 33
        assert run(capsys, "homology", str(path))[:2] == (0, "H0=2000 H1=2000 chi=0\n")

    # Input files refuse exactly these integer literals; so do builtin names.
    @pytest.mark.parametrize("command", ["homology", "classify"])
    @pytest.mark.parametrize(
        "genus", ["1_0", " 2", "\u0661", ""], ids=["underscore", "space", "arabic-indic", "empty"]
    )
    def test_genus_literal_refused(self, capsys, command, genus):
        code, out, err = run(capsys, command, f"builtin:genus_g:{genus}")
        assert (code, out) == (2, "")
        assert f"genus in builtin name 'genus_g:{genus}' must be an integer" in err


class TestClassify:
    def test_sphere(self, capsys):
        code, out, _ = run(capsys, "classify", "builtin:sphere")
        assert code == 0
        assert out == "genus=0 euler=2\n"

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "classify", "builtin:torus")
        assert code == 0
        assert out == "genus=1 euler=0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", "builtin:genus_g:2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "genus": 2,
            "euler": -2,
            "connected": True,
            "orientable_assumed": True,
        }

    def test_disconnected_rejected(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            {"cells": [{"id": "p", "dim": 0}, {"id": "q", "dim": 0}]},
        )
        code, _, err = run(capsys, "classify", path)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"dims": {"0": 1, "1": 1}, "differential": {"0": [[1]]}},
            {"generators": []},
            [1, 2],
        ],
    )
    def test_not_a_cell_complex(self, capsys, tmp_path, payload):
        path = write_json(tmp_path, payload)
        code, out, err = run(capsys, "classify", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_inconsistent_incidence(self, capsys, tmp_path):
        # d^2 != 0: the face hits the vertex through a single edge with
        # coefficients that fail to cancel
        path = write_json(
            tmp_path,
            {
                "cells": [
                    {"id": "v", "dim": 0},
                    {"id": "e", "dim": 1},
                    {"id": "f", "dim": 2},
                ],
                "incidence": [
                    {"from": "e", "to": "v", "coeff": 1},
                    {"from": "f", "to": "e", "coeff": 1},
                ],
            },
        )
        code, _, err = run(capsys, "classify", path)
        assert code == 2
        assert "error" in err


class TestFloer:
    def test_zero_section_line(self, capsys):
        code, out, _ = run(capsys, "floer", "builtin:zero_section", "builtin:zero_section")
        assert code == 0
        assert out == "HF0=1 HF1=0 HF2=1 chi=2\n"

    def test_torus_trivial_notice(self, capsys):
        code, out, _ = run(capsys, "floer", "builtin:torus_trivial", "builtin:torus_trivial")
        assert code == 0
        assert out == "chi=0 (differential not defined for this quiver presentation)\n"

    def test_torus_trivial_json(self, capsys):
        code, out, _ = run(
            capsys, "floer", "builtin:torus_trivial", "builtin:torus_trivial", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"chi": 0, "differential_defined": False}

    def test_representation_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            {
                "quiver": "sphere",
                "space": {"0": 1, "1": 1},
                "maps": {"z": {"1": [[1]]}},
            },
        )
        code, out, _ = run(capsys, "floer", path, path)
        assert code == 0
        assert out == "HF-1=1 HF0=1 HF1=0 HF2=1 HF3=1 chi=0\n"

    def test_quiver_mismatch(self, capsys):
        code, _, err = run(capsys, "floer", "builtin:zero_section", "builtin:torus_trivial")
        assert code == 2
        assert "error" in err

    def test_unknown_builtin_rep(self, capsys):
        code, _, err = run(capsys, "floer", "builtin:cotangent_fiber", "builtin:zero_section")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_torus_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "torus", "--count", "10", "--max-dim", "2")
        assert code == 0
        assert out.startswith("theorem=torus checked=")
        assert "violations=0" in out

    def test_sphere_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "sphere", "--seed", "3", "--count", "15", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem"] == "sphere"
        assert payload["checked"] == 28 + 15
        assert payload["violations"] == []

    def test_json_deterministic(self, capsys):
        args = ("verify", "torus", "--seed", "42", "--count", "30", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_zero_count_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "sphere", "--count", "0")
        assert code == 2
        assert "error" in err

    def test_unknown_theorem_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "annulus")
        assert code == 2


class TestParser:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_unknown_flag(self, capsys):
        assert run(capsys, "homology", "builtin:torus", "--fast")[0] == 2


def _cell_doc():
    return {
        "cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}],
        "incidence": [{"from": "e", "to": "v", "coeff": 0}],
    }


def _representation_doc():
    return {
        "quiver": {
            "generators": [{"name": "z", "degree": -1}, {"name": "a", "degree": 0}],
            "relations": [{"generator": "z", "terms": [{"coeff": 1, "word": ["a"]}]}],
        },
        "space": {"0": 1},
    }


# (command, document, path to one name in the document, the name's description)
_NAME_FIELDS = [
    ("homology", _cell_doc, ("cells", 0, "id"), "cell id"),
    ("homology", _cell_doc, ("incidence", 0, "from"), "incidence 'from'"),
    ("homology", _cell_doc, ("incidence", 0, "to"), "incidence 'to'"),
    ("floer", _representation_doc, ("quiver", "generators", 0, "name"), "generator name"),
    ("floer", _representation_doc, ("quiver", "relations", 0, "generator"), "relation generator"),
    ("floer", _representation_doc, ("quiver", "relations", 0, "terms", 0, "word", 0), "word letter"),
]


def _run_doc(capsys, tmp_path, command, doc):
    path = write_json(tmp_path, doc)
    return run(capsys, command, *[path] * (2 if command == "floer" else 1))


class TestNames:
    @pytest.mark.parametrize("command, make", [("homology", _cell_doc), ("floer", _representation_doc)])
    def test_string_names_accepted(self, capsys, tmp_path, command, make):
        assert _run_doc(capsys, tmp_path, command, make())[0] == 0

    @pytest.mark.parametrize("value", [1, None, True, [1]])
    @pytest.mark.parametrize(
        "command, make, path, what", _NAME_FIELDS, ids=["/".join(map(str, p)) for _, _, p, _ in _NAME_FIELDS]
    )
    def test_non_string_name_refused(self, capsys, tmp_path, command, make, path, what, value):
        doc = make()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code, out, err = _run_doc(capsys, tmp_path, command, doc)
        assert code == 2
        assert out == ""
        assert err == f"error: {what} must be of type str, got {value!r}\n"

    def test_letter_of_zero_coefficient_term_refused(self, capsys, tmp_path):
        doc = _representation_doc()
        doc["quiver"]["relations"][0]["terms"].append({"coeff": 0, "word": [5]})
        assert _run_doc(capsys, tmp_path, "floer", doc) == (
            2, "", "error: word letter must be of type str, got 5\n"
        )


def _torus_doc(m, n):
    return {"quiver": "torus", "space": {"0": 2}, "maps": {"m": {"0": m}, "n": {"0": n}}}


class TestInvalidRepresentation:
    @pytest.mark.parametrize(
        "m, n, constraint",
        [
            ([[1, 1], [0, 1]], [[1, 0], [1, 1]], "relation:h"),
            ([[1, 2], [2, 4]], [[1, 0], [0, 1]], "invertibility:m"),
        ],
        ids=["noncommuting", "singular m"],
    )
    def test_floer_refuses(self, capsys, tmp_path, m, n, constraint):
        assert _run_doc(capsys, tmp_path, "floer", _torus_doc(m, n)) == (
            2, "", f"error: invalid representation: constraint {constraint}\n"
        )


class TestClosedStdout:
    def test_closed_pipe_exits_quietly(self):
        """A reader that is gone before any output gets exit 141 and no traceback."""
        src = os.path.dirname(os.path.dirname(exacthom.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "exacthom", "homology", "builtin:torus"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestRepeatedMain:
    # Each pair runs back to back in one process; the second call must not
    # see anything the first one parsed.
    SEQUENCE = [
        ("homology", "builtin:torus", "--json"),
        ("homology", "builtin:torus"),
        ("verify", "annulus"),
        ("classify", "builtin:genus_g:2"),
        ("verify", "concentrated", "--seed", "5", "--count", "20"),
        ("verify", "concentrated", "--count", "20"),
    ]

    def test_each_call_matches_a_fresh_process(self, capsys):
        in_process = [run(capsys, *argv)[:2] for argv in self.SEQUENCE]
        src = os.path.dirname(os.path.dirname(exacthom.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        alone = []
        for argv in self.SEQUENCE:
            proc = subprocess.run(
                [sys.executable, "-m", "exacthom", *argv], capture_output=True, text=True, env=env
            )
            alone.append((proc.returncode, proc.stdout))
        assert in_process == alone
        assert [code for code, _ in alone] == [0, 0, 2, 0, 0, 0]
        # The two seeds check different numbers of spread samples, so a
        # leaked --seed would show.
        assert alone[4][1] != alone[5][1]


class TestDegreeSpan:
    """A table row per degree is refused past cli._MAX_DEGREE_SPAN degrees."""

    def test_limit_is_1000(self):
        assert cli._MAX_DEGREE_SPAN == 1000

    def test_homology_at_limit_prints(self, capsys, tmp_path):
        span = cli._MAX_DEGREE_SPAN
        path = write_json(tmp_path, {"dims": {"0": 1, str(span): 1}})
        code, out, err = run(capsys, "homology", path)
        assert (code, err) == (0, "")
        assert out.startswith("H0=1 H1=0 ") and out.endswith(f" H{span}=1 chi=2\n")
        assert out.count("=") == span + 2

    def test_homology_over_limit_refused(self, capsys, tmp_path):
        span = cli._MAX_DEGREE_SPAN + 1
        path = write_json(tmp_path, {"dims": {"-1": 1, str(span - 1): 1}})
        code, out, err = run(capsys, "homology", path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: degrees -1..{span - 1} span {span}, "
            f"more than the {cli._MAX_DEGREE_SPAN} a table may list\n"
        )

    def test_cell_complex_over_limit_refused(self, capsys, tmp_path):
        top = cli._MAX_DEGREE_SPAN + 1
        path = write_json(tmp_path, {"cells": [{"id": "v", "dim": 0}, {"id": "c", "dim": top}]})
        code, out, err = run(capsys, "homology", path)
        assert (code, out) == (2, "")
        assert f"span {top}," in err

    @staticmethod
    def _floer_file(tmp_path, top):
        # HF of the sphere-quiver space {0: 1, top: 1} with itself lies in
        # degrees -top..top+2, a span of 2*top + 2.
        return write_json(tmp_path, {"quiver": "sphere", "space": {"0": 1, str(top): 1}})

    def test_floer_at_limit_prints(self, capsys, tmp_path):
        path = self._floer_file(tmp_path, cli._MAX_DEGREE_SPAN // 2 - 1)
        code, out, err = run(capsys, "floer", path, path, "--json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)["hf"]) == cli._MAX_DEGREE_SPAN + 1

    def test_floer_over_limit_refused(self, capsys, tmp_path):
        top = cli._MAX_DEGREE_SPAN // 2
        path = self._floer_file(tmp_path, top)
        code, out, err = run(capsys, "floer", path, path)
        assert (code, out) == (2, "")
        assert err == (
            f"error: degrees {-top}..{top + 2} span {2 * top + 2}, "
            f"more than the {cli._MAX_DEGREE_SPAN} a table may list\n"
        )


class TestStartup:
    def test_import_loads_no_code_introspection_modules(self):
        """Importing the CLI adds none of dataclasses, inspect, ast, dis or tokenize."""
        src = os.path.dirname(os.path.dirname(exacthom.__file__))
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import exacthom.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        added = set(proc.stdout.split())
        assert "exacthom.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
