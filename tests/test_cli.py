import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shellbound as sb
from shellbound.cli import CLAIM_TAGS, run

from corpus import bipyramid_facets, lune_sphere, rank_permutation, relabelled
from oracles import expand_certificate, nested_certificate


def write_lattice(path, L):
    path.write_text(json.dumps(sb.lattice_to_json_dict(L)) + "\n")
    return str(path)


@pytest.fixture
def square_json(tmp_path):
    return write_lattice(tmp_path / "square.json", sb.ngon(4))


@pytest.fixture
def oct_json(tmp_path):
    return write_lattice(tmp_path / "oct.json", sb.cross_polytope(2))


def read_envelope(path):
    return json.loads(path.read_text())


# -- gen -----------------------------------------------------------------


def test_gen_families_round_trip(tmp_path):
    cases = [
        (["gen", "simplex-boundary", "--d", "2"], (4, 6, 4)),
        (["gen", "cross-polytope", "--d", "2"], (6, 12, 8)),
        (["gen", "hypercube-boundary", "--d", "2"], (8, 12, 6)),
        (["gen", "ngon", "--n", "5"], (5, 5)),
        (["gen", "cyclic-boundary", "--d", "4", "--n", "6"], (6, 15, 18, 9)),
    ]
    for argv, fv in cases:
        out = tmp_path / "complex.json"
        assert run(argv + ["--out", str(out)]) == 0
        L = sb.lattice_from_json_dict(json.loads(out.read_text()))
        assert sb.f_vector(L).proper == fv, argv


def test_gen_writes_its_json_as_it_encodes_it(tmp_path, traced):
    path = tmp_path / "simplex.json"
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code, _, peak = traced(run, ["gen", "simplex-boundary", "--d", "10"])
    assert code == 0
    # 16.3 MiB when the whole text was encoded before it was written
    assert peak < 10 * 2 ** 20
    whole = json.dumps(sb.lattice_to_json_dict(sb.simplex_boundary(10)), sort_keys=True, indent=2)
    assert path.read_text() == whole + "\n"


def test_gen_punctured_via_file(tmp_path, oct_json):
    out = tmp_path / "ball.json"
    assert run(["gen", "punctured", "--input", oct_json, "--out", str(out)]) == 0
    B = sb.lattice_from_json_dict(json.loads(out.read_text()))
    assert sb.f_vector(B).proper == (6, 12, 7)
    out2 = tmp_path / "ball2.json"
    assert run(
        ["gen", "punctured", "--input", oct_json, "--facet", "456", "--out", str(out2)]
    ) == 0
    B2 = sb.lattice_from_json_dict(json.loads(out2.read_text()))
    assert "456" not in B2


def test_gen_text_format(tmp_path):
    out = tmp_path / "facets.txt"
    assert run(["gen", "simplex-boundary", "--d", "2", "--format", "text",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n")
    L = sb.from_facets(sb.parse_facet_text(text))
    assert sb.f_vector(L).proper == (4, 6, 4)


def test_gen_text_format_rejects_nonsimplicial(tmp_path):
    out = tmp_path / "facets.txt"
    code = run(["gen", "hypercube-boundary", "--d", "2", "--format", "text",
                "--out", str(out)])
    assert code == 2


def test_gen_text_format_on_the_lune_ball_is_usage_error(tmp_path):
    # its 3-cell has the ridge count of a tetrahedron but is no simplex
    src = write_lattice(tmp_path / "lunes.json", lune_sphere())
    proc = run_subprocess(["gen", "punctured", "--input", src, "--format", "text"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "shellbound: facet-list text output needs a simplicial complex\n"


def test_gen_missing_parameter():
    assert run(["gen", "ngon"]) == 2
    assert run(["gen", "punctured"]) == 2


def test_gen_size_guard_is_usage_error(capsys):
    # refused before anything is allocated, not killed for its memory
    assert run(["gen", "ngon", "--n", "100000000"]) == 2
    assert "8191" in capsys.readouterr().err


# -- check-shelling ------------------------------------------------------


def test_check_shelling_accepts(tmp_path, square_json):
    out = tmp_path / "report.json"
    code = run(["check-shelling", "--input", square_json,
                "--order", "e12,e23,e34,e41", "--out", str(out)])
    assert code == 0
    env = read_envelope(out)
    assert env["tool"] == "shellbound"
    assert env["command"] == "check-shelling"
    assert env["claim"] == "Def2.8"
    assert env["ok"] is True
    assert env["result"]["accepted"] is True
    assert env["result"]["certificate"]["order"] == ["e12", "e23", "e34", "e41"]
    assert len(env["input_sha256"]) == 64


def test_check_shelling_rejects(tmp_path, square_json):
    out = tmp_path / "report.json"
    code = run(["check-shelling", "--input", square_json,
                "--order", "e12,e34,e23,e41", "--out", str(out)])
    assert code == 1
    env = read_envelope(out)
    assert env["ok"] is False
    assert env["result"]["accepted"] is False
    assert env["result"]["failure"] == {"step": 2, "reason": "EmptyIntersection"}


def test_check_shelling_certificate_is_a_node_table(tmp_path, oct_json):
    L = sb.cross_polytope(2)
    order = sb.find_shelling(L).facets
    out = tmp_path / "report.json"
    code = run(["check-shelling", "--input", oct_json, "--order", ",".join(order),
                "--out", str(out)])
    assert code == 0
    env = read_envelope(out)
    assert env["version"] == "0.4.0"
    cert = env["result"]["certificate"]
    assert set(cert) == {"order", "steps", "nodes"}
    # every facet is a triangle, a simplex, so no step names a node
    assert all(s["sub_certificate"] is None for s in cert["steps"])
    assert cert["nodes"] == []
    assert expand_certificate(cert, L) == nested_certificate(sb.is_shelling(L, order))

    bad = ("123", "456", "126", "135", "156", "246", "234", "345")
    code = run(["check-shelling", "--input", oct_json, "--order", ",".join(bad),
                "--out", str(out)])
    assert code == 1
    env = read_envelope(out)
    assert env["version"] == "0.4.0"
    assert env["result"] == {
        "accepted": False,
        "failure": {"step": 2, "reason": "EmptyIntersection"},
    }


def test_check_shelling_names_a_node_for_each_non_simplex_facet(tmp_path):
    # the boundary of the 4-cube: its facets are 3-cubes, whose facets are
    # squares, 2-cells
    L = sb.hypercube_boundary(3)
    src = write_lattice(tmp_path / "cube.json", L)
    order = sb.find_shelling(L).facets
    out = tmp_path / "report.json"
    assert run(["check-shelling", "--input", src, "--order", ",".join(order),
                "--out", str(out)]) == 0
    cert = read_envelope(out)["result"]["certificate"]
    # a node per 3-cube, and none for a square or an edge
    assert [s["sub_certificate"] for s in cert["steps"]] == list(range(8))
    assert {n["cell"] for n in cert["nodes"]} == set(order)
    assert all(s["sub_certificate"] is None for n in cert["nodes"] for s in n["steps"])
    assert expand_certificate(cert, L) == nested_certificate(sb.is_shelling(L, order))


# the bytes of the report below at schema 0.3.0, which named a node for
# every square
CUBE_REPORT_BYTES_0_3_0 = 375_919


def test_check_shelling_on_a_cube_builds_no_2_cell_node(tmp_path, monkeypatch):
    from shellbound import shelling

    L = sb.hypercube_boundary(4)
    L = relabelled(L, rank_permutation(L, random.Random(11)))
    src = write_lattice(tmp_path / "cube.json", L)
    order = sb.find_shelling(L).facets
    out = tmp_path / "report.json"
    ranks = []
    verify = shelling._verify
    monkeypatch.setattr(
        shelling, "_verify", lambda L, x, *args: ranks.append(L.ranks[x]) or verify(L, x, *args)
    )
    assert run(["check-shelling", "--input", src, "--order", ",".join(order),
                "--out", str(out)]) == 0
    assert ranks and 3 not in ranks
    assert len(out.read_bytes()) <= 0.4 * CUBE_REPORT_BYTES_0_3_0


def test_check_shelling_facet_text_input(tmp_path):
    src = tmp_path / "square.txt"
    src.write_text("# a square\n1 2\n2 3\n3 4\n1 4\n")
    out = tmp_path / "report.json"
    code = run(["check-shelling", "--input", str(src),
                "--order", "12,23,34,14", "--out", str(out)])
    assert code == 0
    assert read_envelope(out)["ok"] is True


def test_check_shelling_unknown_facet_is_usage_error(square_json):
    assert run(["check-shelling", "--input", square_json, "--order", "e99"]) == 2


# -- find-shelling -------------------------------------------------------


def test_find_shelling_reports_order(tmp_path, oct_json):
    out = tmp_path / "report.json"
    assert run(["find-shelling", "--input", oct_json, "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["result"]["found"] is True
    assert sorted(env["result"]["order"]) == sorted(sb.cross_polytope(2).facets())


def test_find_shelling_prefix_failure(tmp_path, square_json):
    out = tmp_path / "report.json"
    code = run(["find-shelling", "--input", square_json,
                "--order", "e12,e34", "--out", str(out)])
    assert code == 1
    env = read_envelope(out)
    assert env["result"] == {"found": False, "order": None}
    assert env["params"]["prefix"] == ["e12", "e34"]


def test_find_shelling_on_the_empty_complex(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": -1, "faces": [], "covers": []}))
    out = tmp_path / "report.json"
    assert run(["find-shelling", "--input", str(path), "--out", str(out)]) == 0
    assert read_envelope(out)["result"] == {"found": True, "order": []}


@pytest.mark.parametrize("command", ["find-shelling", "bounds", "corollaries"])
def test_commands_on_more_facets_than_the_recursion_limit(tmp_path, command):
    # the bipyramid over a 600-gon has 1 200 triangles
    facets = bipyramid_facets(600)
    src = tmp_path / "bipyramid.txt"
    src.write_text("".join(" ".join(f) + "\n" for f in facets))
    proc = run_subprocess([command, "--input", str(src)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if command == "find-shelling":
        order = json.loads(proc.stdout)["result"]["order"]
        L = sb.from_facets(facets)
        assert isinstance(sb.is_shelling(L, order), sb.ShellingCertificate)


# -- bounds --------------------------------------------------------------


def test_bounds_single_k(tmp_path, oct_json):
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", oct_json, "--k", "1", "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["claim"] == "Thm3.4"
    rep = env["result"]["reports"][0]
    assert (rep["lhs"], rep["rhs_num"], rep["rhs_den"]) == (12, 12, 1)
    assert rep["equality"] is True
    assert len(rep["per_facet"]) == 8


def test_bounds_sweeps_k_range(tmp_path, oct_json):
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", oct_json, "--out", str(out)]) == 0
    env = read_envelope(out)
    assert [r["k"] for r in env["result"]["reports"]] == [0, 1, 2]
    assert env["ok"] is True


def test_bounds_on_punctured_ball(tmp_path, oct_json):
    ball = tmp_path / "ball.json"
    assert run(["gen", "punctured", "--input", oct_json, "--out", str(ball)]) == 0
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", str(ball), "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["ok"] is True
    ks = [r["k"] for r in env["result"]["reports"]]
    assert ks == [0, 1, 2]


def test_bounds_with_explicit_order(tmp_path, square_json):
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", square_json, "--order", "e12,e23,e34,e41",
                "--k", "1", "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["params"]["order"] == ["e12", "e23", "e34", "e41"]
    assert env["result"]["reports"][0]["equality"] is True


def test_bounds_bad_order_exits_one(tmp_path, square_json):
    out = tmp_path / "report.json"
    code = run(["bounds", "--input", square_json, "--order", "e12,e34,e23,e41",
                "--k", "1", "--out", str(out)])
    assert code == 1
    env = read_envelope(out)
    assert env["result"]["error"] == "NotAShelling"
    assert env["result"]["failure"]["step"] == 2


def test_bounds_unshellable_input(tmp_path):
    src = tmp_path / "circles.txt"
    src.write_text("1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n")
    out = tmp_path / "report.json"
    code = run(["bounds", "--input", str(src), "--out", str(out)])
    assert code == 1
    env = read_envelope(out)
    assert env["result"]["error"] == "NotShellable"


def test_bounds_on_a_non_sphere_facet_boundary_is_usage_error(tmp_path):
    # a loop edge: its one vertex is the whole boundary of the edge, which
    # is no sphere, so the input is no regular CW complex
    loop = {"dim": 1, "faces": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}],
            "covers": [["v", "e"]]}
    src = tmp_path / "loop.json"
    src.write_text(json.dumps(loop))
    out = tmp_path / "report.json"
    proc = run_subprocess(["bounds", "--input", str(src), "--out", str(out)])
    assert proc.returncode == 2
    assert not out.exists()
    assert "Traceback" not in proc.stderr
    assert "need a sphere" in proc.stderr


def test_bounds_on_the_lune_sphere_reports_no_contradiction(tmp_path):
    # equality at k = 2 is expected only on simplicial complexes, so the
    # report fails there until strong regularity is checked
    src = write_lattice(tmp_path / "lunes.json", lune_sphere())
    out = tmp_path / "report.json"
    assert run(["bounds", "--input", src, "--out", str(out)]) == 1
    env = read_envelope(out)
    assert "InternalContradiction" not in out.read_text()
    assert env["ok"] is False
    reports = env["result"]["reports"]
    assert [(r["k"], r["equality"], r["expected_equality"]) for r in reports] == [
        (1, False, False), (2, True, False), (3, True, True)
    ]


def test_bounds_on_the_zero_sphere_names_the_dimension_floor(tmp_path):
    src = write_lattice(tmp_path / "s0.json", sb.simplex_boundary(0))
    proc = run_subprocess(["bounds", "--input", src])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "shellbound: the bound needs dimension at least 1, got dimension 0\n"


def test_gen_ngon_with_colliding_plain_ids(capsys):
    assert run(["gen", "ngon", "--n", "101"]) == 0
    L = sb.lattice_from_json_dict(json.loads(capsys.readouterr().out))
    assert sb.f_vector(L).proper == (101, 101)


# -- witness -------------------------------------------------------------


def test_witness_square(tmp_path, square_json):
    out = tmp_path / "report.json"
    code = run(["witness", "--input", square_json, "--order", "e12,e23,e34,e41",
                "--split", "2", "--out", str(out)])
    assert code == 0
    env = read_envelope(out)
    assert env["claim"] == "Lem3.2"
    assert env["result"] == {
        "C": "v2", "D": "e34", "dim_C": 0, "dim_D": 1, "split": 2,
        "C_in_interior": True, "D_in_interior": True,
    }


# -- corollaries ---------------------------------------------------------


def test_corollaries_octahedron(tmp_path, oct_json):
    out = tmp_path / "report.json"
    assert run(["corollaries", "--input", oct_json, "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["claim"] == "Cor3.6"
    reports = env["result"]["reports"]
    assert [r["k"] for r in reports] == [0, 1, 2]
    assert reports[1]["facet_bound"] == {"num": 12, "den": 1}
    assert reports[1]["barany_bound"] == 6


def test_corollaries_single_k(tmp_path, oct_json):
    out = tmp_path / "report.json"
    assert run(["corollaries", "--input", oct_json, "--k", "2", "--out", str(out)]) == 0
    env = read_envelope(out)
    assert len(env["result"]["reports"]) == 1
    assert env["params"] == {"k": 2}


NOT_A_SHELLING = ("123", "456", "126", "135", "156", "246", "234", "345")


@pytest.mark.parametrize("k", [None, 1])
def test_an_error_report_gives_the_params_an_accepted_one_does(tmp_path, oct_json, k):
    out = tmp_path / "report.json"
    flags = [] if k is None else ["--k", str(k)]

    def bounds(order):
        return run(["bounds", "--input", oct_json, "--order", ",".join(order),
                    *flags, "--out", str(out)])

    assert bounds(sb.find_shelling(sb.cross_polytope(2)).facets) == 0
    accepted = read_envelope(out)["params"]
    assert bounds(NOT_A_SHELLING) == 1
    env = read_envelope(out)
    assert env["result"]["error"] == "NotAShelling"
    assert env["params"] == {"order": list(NOT_A_SHELLING), "k": k}
    assert set(env["params"]) == set(accepted)


def test_a_budget_report_names_the_prefix_as_a_find_does(tmp_path, oct_json):
    out = tmp_path / "report.json"
    code = run(["find-shelling", "--input", oct_json, "--order", "456",
                "--budget", "0", "--out", str(out)])
    assert code == 3
    env = read_envelope(out)
    assert env["result"]["error"] == "BudgetExceeded"
    assert env["params"] == {"prefix": ["456"]}


# -- gubt ----------------------------------------------------------------


def test_gubt_octahedron(tmp_path, oct_json):
    out = tmp_path / "report.json"
    assert run(["gubt", "--input", oct_json, "--d", "3", "--n", "5",
                "--out", str(out)]) == 0
    env = read_envelope(out)
    assert env["claim"] == "Thm4.1"
    assert env["result"]["all_ok"] is True
    assert env["result"]["rows"][1] == {"k": 1, "f_p": 12, "f_c": 9, "ok": True}


@pytest.mark.parametrize("argv", [["gubt", "--d", "3", "--n", "5"], ["gen", "punctured"]])
def test_sphere_commands_on_a_ball_are_usage_errors(tmp_path, argv):
    src = write_lattice(tmp_path / "ball.json", sb.punctured(sb.cross_polytope(2)))
    proc = run_subprocess(argv + ["--input", src])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "shellbound: the complex has nonempty boundary; need a sphere\n"


def test_gubt_hypothesis_not_met(tmp_path):
    src = write_lattice(tmp_path / "tet.json", sb.simplex_boundary(2))
    out = tmp_path / "report.json"
    code = run(["gubt", "--input", src, "--d", "3", "--n", "6", "--out", str(out)])
    assert code == 1
    env = read_envelope(out)
    assert env["result"]["error"] == "HypothesisNotMet"
    assert env["params"] == {"d": 3, "n": 6}


# -- formats, stability, exit codes --------------------------------------


def test_tsv_view(tmp_path, square_json):
    out = tmp_path / "report.tsv"
    code = run(["check-shelling", "--input", square_json,
                "--order", "e12,e23,e34,e41", "--format", "tsv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    table = dict(line.split("\t", 1) for line in lines)
    assert table["claim"] == '"Def2.8"'
    assert table["ok"] == "true"
    assert table["result.accepted"] == "true"


def test_reports_are_byte_stable(tmp_path, oct_json):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert run(["bounds", "--input", oct_json, "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


OCT_ORDER = "123,126,135,156,234,246,345,456"

# the sha256 of each report as written to stdout, on the octahedron
# (``cross_polytope(2)``) and the square (``ngon(4)``) as lattice JSON,
# at report schema 0.4.0
GOLDEN_REPORTS = {
    "find-shelling": (
        ["find-shelling", "--input", "oct"], 0,
        "be9fde675ec7fe05b79c80fc9e4f0943279e5020d464422ce934e33f1d7e8540"),
    "check-shelling accepted": (
        ["check-shelling", "--input", "oct", "--order", OCT_ORDER], 0,
        "ec35139b08a22ebc84e36897bbb18c68dc30bd6862d88a174a351f5d814a0d4a"),
    "check-shelling rejected": (
        ["check-shelling", "--input", "square", "--order", "e12,e34,e23,e41"], 1,
        "e4581aed8691c2370c13173863f55dee5c6c9c18e33f5ecac70f13142184bce6"),
    "bounds json": (
        ["bounds", "--input", "oct"], 0,
        "9f9b7ae6c9f7de447934e0c976e5cb128df686b635a61cf232beadc58cf60592"),
    "bounds tsv": (
        ["bounds", "--input", "oct", "--format", "tsv"], 0,
        "987ddf8154df2f78bea15f0e7d7dae54eaf72e132950448b1512b60116fd979f"),
    "witness": (
        ["witness", "--input", "oct", "--order", OCT_ORDER, "--split", "3"], 0,
        "1b51ef8f1c4a711e6ba4df91a6d7cff65d88cbdf63ec7b3765bb9978ff2ed201"),
    "corollaries": (
        ["corollaries", "--input", "oct"], 0,
        "b8718b599b90e91887a53a21ca861fb2f38a69c119d5663bff113ec0cc36aff2"),
    "gubt": (
        ["gubt", "--input", "oct", "--d", "3", "--n", "5"], 0,
        "2e9fa048decd8549d2fc2ffd4247827e60ad43cfd71ac241892442adcdd30ffe"),
    "gen ngon": (
        ["gen", "ngon", "--n", "5"], 0,
        "bc18cae228f6a3e730e2c1f822fb3bd4f022926b0106cc09f2303e4be89f0f4d"),
}


@pytest.mark.parametrize("case", GOLDEN_REPORTS)
def test_report_matches_its_golden_hash(capsys, oct_json, square_json, case):
    argv, code, digest = GOLDEN_REPORTS[case]
    inputs = {"oct": oct_json, "square": square_json}
    assert run([inputs.get(arg, arg) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_stdout_when_no_out_flag(capsys, square_json):
    code = run(["find-shelling", "--input", square_json])
    assert code == 0
    env = json.loads(capsys.readouterr().out)
    assert env["result"]["found"] is True


def test_missing_input_file(tmp_path):
    assert run(["find-shelling", "--input", str(tmp_path / "absent.json")]) == 2


def test_directory_as_input_is_usage_error(tmp_path):
    proc = run_subprocess(["find-shelling", "--input", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("shellbound: ")
    assert proc.stderr.count("\n") == 1


def test_non_utf8_input_is_usage_error(tmp_path):
    bad = tmp_path / "bytes.txt"
    bad.write_bytes(b"1 2\n2 \xff\n")
    proc = run_subprocess(["find-shelling", "--input", str(bad)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not text" in proc.stderr


def test_empty_order_entry_is_usage_error(oct_json):
    proc = run_subprocess(["check-shelling", "--input", oct_json, "--order", "a,,b"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "--order must be a comma-separated list of face ids" in proc.stderr


def test_malformed_json_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["find-shelling", "--input", str(bad)]) == 2


def test_malformed_lattice_data(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "faces": "nope", "covers": []}')
    assert run(["find-shelling", "--input", str(bad)]) == 2


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """A child interpreter given ARGV, with these sources on its path."""
    src = str(Path(sb.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


def run_subprocess(args: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a child interpreter, so that a traceback reaches stderr."""
    return run_python("-m", "shellbound.cli", *args)


def triangle_by_hand() -> dict:
    """Lattice JSON of a triangle whose face ids are single characters."""
    faces = [{"id": v, "dim": 0} for v in "abc"] + [{"id": e, "dim": 1} for e in "xyz"]
    covers = [list(c) for c in ("ax", "bx", "by", "cy", "cz", "az")]
    return {"dim": 1, "faces": faces, "covers": covers}


# the path of the value each case replaces in the triangle, and the raw
# JSON put there; JSON reads 1e400 as an infinite float, and int() would
# turn the fractions and true into the triangle's own dimensions
MALFORMED_VALUES = {
    "dim": (("dim",), "1e400"),
    "face dim": (("faces", 0, "dim"), "1e400"),
    "fractional dim": (("dim",), "1.9"),
    "fractional face dim": (("faces", 0, "dim"), "0.7"),
    "boolean face dim": (("faces", 3, "dim"), "true"),
    "string cover": (("covers", 0), '"ax"'),
}


@pytest.mark.parametrize("case", MALFORMED_VALUES)
def test_huge_float_in_lattice_json_is_usage_error(tmp_path, case):
    assert sb.find_shelling(sb.lattice_from_json_dict(triangle_by_hand())) is not None
    path, raw = MALFORMED_VALUES[case]
    data = triangle_by_hand()
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "RAW"
    text = json.dumps(data).replace('"RAW"', raw)
    with pytest.raises(sb.InvalidFace):
        sb.lattice_from_json_dict(json.loads(text))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    proc = run_subprocess(["find-shelling", "--input", str(bad)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "malformed lattice data" in proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": ' + "[" * 200000 + "]" * 200000 + "}",
        '{"dim": ' + "9" * 5000 + ', "faces": [], "covers": []}',
        '{"dim": 0, "faces": [' + "9" * 5000 + '], "covers": []}',
    ],
    ids=["deep", "huge-dim", "huge-face-id"],
)
def test_deeply_nested_json_is_usage_error(tmp_path, text):
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    proc = run_subprocess(["find-shelling", "--input", str(bad)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "invalid JSON" in proc.stderr


def test_budget_exhaustion_exit_code(tmp_path):
    src = write_lattice(tmp_path / "big.json", sb.cross_polytope(3))
    out = tmp_path / "report.json"
    code = run(["find-shelling", "--input", str(src), "--budget", "5",
                "--out", str(out)])
    assert code == 3
    env = read_envelope(out)
    assert env["result"]["error"] == "BudgetExceeded"
    assert env["ok"] is False


def test_negative_budget_is_usage_error(oct_json):
    proc = run_subprocess(["find-shelling", "--input", oct_json, "--budget", "-1"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "a search budget must be at least 0, got -1" in proc.stderr
    assert proc.stdout == ""


def test_usage_errors():
    assert run(["no-such-command"]) == 2
    assert run(["check-shelling"]) == 2
    assert run(["witness", "--input", "x.json", "--order", "a"]) == 2


def test_version_flag():
    assert run(["--version"]) == 0


# one line of ``python -X importtime`` output per module, named last
IMPORT_TIME_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s*(\S+)$", re.M)


def test_each_run_imports_only_the_modules_it_uses(oct_json):
    def loaded(*argv: str) -> set[str]:
        proc = run_python("-X", "importtime", *argv)
        assert proc.returncode == 0, proc.stderr
        return set(IMPORT_TIME_LINE.findall(proc.stderr))

    # what the interpreter loads at start-up is not the package's doing
    startup = loaded("-c", "pass")

    def imports(*argv: str) -> set[str]:
        return loaded(*argv) - startup

    cli = ("-m", "shellbound.cli")
    order = ",".join(sb.find_shelling(sb.cross_polytope(2)).facets)
    version = imports(*cli, "--version")
    gen = imports(*cli, "gen", "simplex-boundary", "--d", "3")
    find = imports(*cli, "find-shelling", "--input", oct_json)
    check = imports(*cli, "check-shelling", "--input", oct_json, "--order", order)
    witness = imports(*cli, "witness", "--input", oct_json, "--order", order, "--split", "2")
    gubt = imports(*cli, "gubt", "--input", oct_json, "--d", "3", "--n", "5")
    library = imports("-c", "import shellbound; shellbound.FaceLattice")

    every = version | gen | find | check | witness | gubt | library
    assert not {"dataclasses", "inspect"} & every
    # neither report builds a Fraction
    assert not {"fractions", "decimal", "_decimal"} & (witness | gubt)
    assert "shellbound.lattice" not in version
    assert not {"shellbound.shelling", "shellbound.bounds"} & gen
    assert not {"shellbound.bounds", "shellbound.generators"} & (find | check)
    modules = {f"shellbound.{m}" for m in ("errors", "lattice", "shelling", "bounds", "generators")}
    assert modules <= gubt and modules <= library


def test_package_and_report_schema_share_one_version():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no TOML reader
        match = re.search(r'^\[project\]$(?:\n(?!\[).*)*?\nversion = "([^"]+)"$', text, re.M)
        version = match.group(1)
    else:
        version = tomllib.loads(text)["project"]["version"]
    assert version == sb.__version__


def test_claim_tags_are_stable():
    assert CLAIM_TAGS == {
        "gen": "corpus",
        "check-shelling": "Def2.8",
        "find-shelling": "Def2.8",
        "bounds": "Thm3.4",
        "witness": "Lem3.2",
        "corollaries": "Cor3.6",
        "gubt": "Thm4.1",
    }
