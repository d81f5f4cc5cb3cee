import contextlib
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import shellbound as sb
from shellbound import cli
from shellbound.cli import CLAIM_TAGS, run

from corpus import bipyramid_facets, id_pair_json, lune_sphere, rank_permutation, relabelled
from oracles import expand_certificate, nested_certificate


def write_lattice(path, L):
    path.write_text(json.dumps(sb.lattice_to_json_dict(L)) + "\n")
    return str(path)


def write_id_pairs(path, L):
    """Writes ``L`` in the id-pair form that schema 0.4.0 wrote."""
    path.write_text(json.dumps(id_pair_json(L)) + "\n")
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


def test_gen_json_takes_bounded_memory(tmp_path, traced):
    path = tmp_path / "simplex.json"
    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code, _, peak = traced(run, ["gen", "simplex-boundary", "--d", "10"])
    assert code == 0
    # the compact text is encoded whole: about 6.2 MiB at the peak
    assert peak < 10 * 2 ** 20
    compact = json.dumps(sb.lattice_to_json_dict(sb.simplex_boundary(10)),
                         sort_keys=True, separators=(",", ":"))
    assert path.read_text() == compact + "\n"


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


def facet_lines(L) -> str:
    """The facet-list text of a simplicial ``L``, each facet's vertices
    found by testing every vertex against it."""
    return "".join(" ".join(v for v in L.faces(0) if L.leq(v, f)) + "\n" for f in L.facets())


# each simplicial family at small sizes, with its generator's arguments;
# ngon 11 puts v10 before v2, and ngon 101 writes its edges as e1-2
TEXT_FAMILIES = [
    *[("simplex-boundary", (d,)) for d in (0, 1, 2, 3)],
    *[("cross-polytope", (d,)) for d in (1, 2, 3)],
    ("hypercube-boundary", (1,)),
    *[("ngon", (n,)) for n in (3, 4, 5, 11, 101)],
    *[("cyclic-boundary", dn) for dn in ((3, 7), (4, 6), (5, 8))],
]


def test_gen_text_format(tmp_path, oct_json, monkeypatch):
    out = tmp_path / "facets.txt"
    assert run(["gen", "simplex-boundary", "--d", "2", "--format", "text",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n")
    L = sb.from_facets(sb.parse_facet_text(text))
    assert sb.f_vector(L).proper == (4, 6, 4)
    for family, values in TEXT_FAMILIES:
        name, flags = cli._GENERATORS[family]
        argv = ["gen", family, *[a for pair in zip(flags, map(str, values)) for a in pair]]
        assert run(argv + ["--format", "text", "--out", str(out)]) == 0, argv
        assert out.read_text() == facet_lines(getattr(sb, name)(*values)), argv
    cyclic = write_lattice(tmp_path / "cyclic.json", sb.cyclic_boundary(4, 7))
    for src, facet in [(oct_json, None), (oct_json, "456"), (cyclic, None)]:
        argv = ["gen", "punctured", "--input", src, *(["--facet", facet] if facet else [])]
        assert run(argv + ["--format", "text", "--out", str(out)]) == 0, argv
        base = sb.lattice_from_json_dict(json.loads(Path(src).read_text()))
        assert out.read_text() == facet_lines(sb.punctured(base, facet)), argv
    # the vertices come from the down-sets, not from a containment test per
    # vertex and facet, which would take seconds here
    L = sb.ngon(8191)
    expected = "".join(" ".join(L.lower_covers(e)) + "\n" for e in L.facets())

    def leq(self, a, b):
        raise AssertionError("gen --format text tests containment face by face")

    monkeypatch.setattr(sb.FaceLattice, "leq", leq)
    assert run(["gen", "ngon", "--n", "8191", "--format", "text", "--out", str(out)]) == 0
    assert out.read_text() == expected


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


def test_gen_missing_parameter(capsys):
    for family, flag in (("ngon", "--n"), ("punctured", "--input")):
        assert run(["gen", family]) == 2
        assert capsys.readouterr().err == f"shellbound: {family}: {flag} is required\n"


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
    assert env["version"] == "0.6.0"
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
    assert env["version"] == "0.6.0"
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
    # in the positional form and in the id-pair form
    for data in ({"dim": -1, "faces": []}, {"dim": -1, "faces": [], "covers": []}):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
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


def test_gen_punctured_on_the_empty_complex_is_usage_error(tmp_path):
    empty = {"dim": -1, "faces": []}
    with pytest.raises(sb.PreconditionViolated, match="no facet to remove"):
        sb.punctured(sb.lattice_from_json_dict(empty))
    src = tmp_path / "empty.json"
    src.write_text(json.dumps(empty))
    proc = run_subprocess(["gen", "punctured", "--input", str(src)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "shellbound: no facet to remove\n"


# the degenerate inputs of the sweep below, each with its facet text; the
# empty complex has none, and the non-pure one is given as lattice JSON
DEGENERATE_INPUTS = {
    "empty": (lambda: sb.lattice_from_json_dict({"dim": -1, "faces": []}), None),
    "point": (None, "1\n"),
    "0-sphere": (None, "1\n2\n"),
    "edge": (None, "1 2\n"),
    "path": (None, "1 2\n2 3\n"),
    "two-edges": (None, "1 2\n3 4\n"),
    "non-pure": (lambda: sb.lattice_from_json_dict(TRIANGLE_AND_EDGE), None),
}


@pytest.mark.parametrize("case", DEGENERATE_INPUTS)
def test_every_command_on_degenerate_input_exits_without_a_traceback(capsys, tmp_path, case):
    # the verdicts are not pinned: find-shelling accepts the non-pure
    # input, which is a known wrong answer
    make, text = DEGENERATE_INPUTS[case]
    L = make() if make else sb.from_facets(sb.parse_facet_text(text))
    files = {"positions.json": json.dumps(sb.lattice_to_json_dict(L)),
             "pairs.json": json.dumps(id_pair_json(L))}
    if text:
        files["facets.txt"] = text
    facets = L.facets()
    order = ",".join(facets) or "-"
    first = facets[0] if facets else "-"
    for name, content in files.items():
        src = tmp_path / name
        src.write_text(content)
        inp = ["--input", str(src)]
        for argv in (
            ["check-shelling", *inp, "--order", order],
            ["check-shelling", *inp, "--order", ",".join(reversed(facets)) or "-"],
            ["check-shelling", *inp, "--order", order, "--format", "tsv"],
            ["find-shelling", *inp],
            ["find-shelling", *inp, "--order", first],
            ["find-shelling", *inp, "--budget", "0"],
            ["bounds", *inp],
            ["bounds", *inp, "--k", "0"],
            ["bounds", *inp, "--order", order],
            ["witness", *inp, "--order", order, "--split", "1"],
            ["witness", *inp, "--order", order, "--split", "2"],
            ["corollaries", *inp],
            ["corollaries", *inp, "--k", "0"],
            ["gubt", *inp, "--d", "1", "--n", "2"],
            ["gubt", *inp, "--d", "2", "--n", "3"],
            ["gen", "punctured", *inp],
            ["gen", "punctured", *inp, "--facet", first],
            ["gen", "punctured", *inp, "--format", "text"],
        ):
            code = run(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), (name, argv)
            assert "Traceback" not in err, (name, argv)
            if "--format" not in argv:
                # every JSON output, error and budget reports included,
                # is in canonical compact form, and only a usage error
                # writes none
                assert bool(out) == (code != 2), (name, argv)
                if out:
                    canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
                    assert out == canonical + "\n", (name, argv)


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
# at report schema 0.6.0
GOLDEN_REPORTS = {
    "find-shelling": (
        ["find-shelling", "--input", "oct"], 0,
        "fff8b3e7c74745546cc686888d47fb3468899e669cd2ac48e052edfa346fa19a"),
    "check-shelling accepted": (
        ["check-shelling", "--input", "oct", "--order", OCT_ORDER], 0,
        "6ed058a88351c002a3ba63d830b22783b98f7d4efadc6c5767a424031c2d281c"),
    "check-shelling rejected": (
        ["check-shelling", "--input", "square", "--order", "e12,e34,e23,e41"], 1,
        "15f0d8a1ea5ad702497a4be7e71a5f102fe2589c337f9e285f0c751204b36ed2"),
    "bounds json": (
        ["bounds", "--input", "oct"], 0,
        "f648700ae504535aaebb7d1abe42e61d33d1479831f9fe98365efeeb319ef890"),
    "bounds tsv": (
        ["bounds", "--input", "oct", "--format", "tsv"], 0,
        "d694619f450c7452b1a5ddb2f1707f207a9dbc2e99488225c11f97d3267b84de"),
    "witness": (
        ["witness", "--input", "oct", "--order", OCT_ORDER, "--split", "3"], 0,
        "72c019413f5b8fcaf252b010478a8530336fa86240a885d5122d10f3ec3f5479"),
    "corollaries": (
        ["corollaries", "--input", "oct"], 0,
        "996d015f5305913f2187d51b3d12fa94a6e4551199a09651253b0c4f72f3c3df"),
    "gubt": (
        ["gubt", "--input", "oct", "--d", "3", "--n", "5"], 0,
        "d780f6cfc2faaba7347600ec88bd59377d3365f8bad219fe9c390b87eeda04d4"),
    "gen ngon": (
        ["gen", "ngon", "--n", "5"], 0,
        "d5b82104450362399eefc0daf9b4bb869b0cbc1d9abf57b230b7112416116aa6"),
}


@pytest.mark.parametrize("case", GOLDEN_REPORTS)
def test_report_matches_its_golden_hash(capsys, oct_json, square_json, case):
    argv, code, digest = GOLDEN_REPORTS[case]
    inputs = {"oct": oct_json, "square": square_json}
    assert run([inputs.get(arg, arg) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the input's digest, as the json and the tsv envelopes write it
INPUT_SHA256 = re.compile(r'("input_sha256":|input_sha256\t)"[0-9a-f]{64}"')


@pytest.mark.parametrize("case", [case for case in GOLDEN_REPORTS if case != "gen ngon"])
def test_either_lattice_form_gives_the_same_report(capsys, tmp_path, oct_json, square_json, case):
    argv, code, _ = GOLDEN_REPORTS[case]
    reports = []
    for inputs in (
        {"oct": oct_json, "square": square_json},
        {name: write_id_pairs(tmp_path / f"{name}-pairs.json", L)
         for name, L in (("oct", sb.cross_polytope(2)), ("square", sb.ngon(4)))},
    ):
        assert run([inputs.get(arg, arg) for arg in argv]) == code
        out = capsys.readouterr().out
        assert len(INPUT_SHA256.findall(out)) == 1
        reports.append(INPUT_SHA256.sub(r'\1"*"', out))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("form", ["positions", "pairs", "facets"])
def test_a_byte_order_mark_is_not_read_as_data(capsys, tmp_path, form):
    # the JSON is written a value to a line: read as facet text, one line
    # of many tokens would be one facet with exponentially many faces
    L = sb.cross_polytope(2)
    text = {
        "positions": json.dumps(sb.lattice_to_json_dict(L), indent=1),
        "pairs": json.dumps(id_pair_json(L), indent=1),
        "facets": "1 2 3\n2 3 4\n",
    }[form]
    reports = []
    for mark in ("", "\ufeff"):
        src = tmp_path / f"input{len(mark)}"
        src.write_text(mark + text, encoding="utf-8")
        for command in ("find-shelling", "bounds"):
            assert run([command, "--input", str(src)]) == 0, (mark, command)
            out = capsys.readouterr().out
            # the digest is still that of the bytes as given
            assert hashlib.sha256(src.read_bytes()).hexdigest() in out
            reports.append(INPUT_SHA256.sub(r'\1"*"', out))
    assert reports[:2] == reports[2:]
    assert "\ufeff" not in "".join(reports)


def test_a_lattice_file_read_as_one_huge_facet_is_refused(tmp_path):
    # JSON with the default separators behind a stray byte is read as
    # facet text: one facet of the 68 distinct tokens, which would make
    # 2^68 - 1 faces; the child's memory is capped, so that a missing
    # size guard fails here and does not fill the machine
    hostile = tmp_path / "hostile.txt"
    hostile.write_text("x" + json.dumps(sb.lattice_to_json_dict(sb.cross_polytope(2))))
    proc = run_subprocess(["find-shelling", "--input", str(hostile)], memory_cap=2 ** 29)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "shellbound: need facets of at most 13 vertices, got 68\n"


# a triangle with an edge hanging off it, written by hand in the id-pair
# form, as the benchmark's non-pure input is
TRIANGLE_AND_EDGE = {
    "dim": 2,
    "faces": [{"id": i, "dim": len(i) - 1}
              for i in ("1", "2", "3", "4", "12", "13", "23", "34", "123")],
    "covers": [["1", "12"], ["2", "12"], ["1", "13"], ["3", "13"], ["2", "23"],
               ["3", "23"], ["3", "34"], ["4", "34"], ["12", "123"], ["13", "123"],
               ["23", "123"]],
}


def test_a_non_pure_id_pair_file_reads_as_its_positional_twin(capsys, tmp_path):
    # its defects, if any, must not turn into format errors
    by_hand = TRIANGLE_AND_EDGE
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps(by_hand))
    twin = write_lattice(tmp_path / "positions.json", sb.lattice_from_json_dict(by_hand))
    assert "covers" not in json.loads(Path(twin).read_text())
    codes, reports = [], []
    for path in (str(pairs), twin):
        codes.append(run(["find-shelling", "--input", path]))
        reports.append(INPUT_SHA256.sub(r'\1"*"', capsys.readouterr().out))
    assert codes[0] == codes[1] != 2
    assert reports[0] == reports[1] != ""


def _triangle_positions() -> dict:
    """Lattice JSON of the hand-made triangle, with lower covers by
    position: faces a, b, c, x, y, z, and x over a and b."""
    data = sb.lattice_to_json_dict(sb.lattice_from_json_dict(triangle_by_hand()))
    assert [f["id"] for f in data["faces"]] == list("abcxyz")
    assert data["faces"][3]["lower"] == [0, 1]
    return data


def _set_lower_of_x(value):
    return lambda data: data["faces"][3].__setitem__("lower", value)


# each fault of a "lower" list, the edit that makes it, and the message
LOWER_FAULTS = {
    "negative": (_set_lower_of_x([-1, 1]),
                 "'lower' of face 'x' holds -1, outside positions [0, 6)"),
    "true": (_set_lower_of_x([True, 1]),
             "malformed lattice data: 'lower' of face 'x' holds true, not a position"),
    "float": (_set_lower_of_x([0, 1.0]),
              "malformed lattice data: 'lower' of face 'x' holds 1.0, not a position"),
    "string": (_set_lower_of_x(["a", 1]),
               "malformed lattice data: 'lower' of face 'x' holds \"a\", not a position"),
    "out of range": (_set_lower_of_x([0, 6]),
                     "'lower' of face 'x' holds 6, outside positions [0, 6)"),
    "not a list": (_set_lower_of_x("01"),
                   "malformed lattice data: 'lower' of face 'x' is not a list"),
    "null": (_set_lower_of_x(None), "malformed lattice data: 'lower' of face 'x' is not a list"),
    "missing": (lambda data: data["faces"][3].pop("lower"),
                "malformed lattice data: face 'x' has no 'lower' list"),
    "itself": (_set_lower_of_x([0, 3]), "face 'x' lists itself as a lower cover"),
    "covers too": (lambda data: data.__setitem__("covers", []),
                   "malformed lattice data: both 'covers' and a face's 'lower'"),
}


@pytest.mark.parametrize("case", LOWER_FAULTS)
def test_each_malformed_lower_list_is_a_named_usage_error(capsys, tmp_path, case):
    mutate, message = LOWER_FAULTS[case]
    data = _triangle_positions()
    mutate(data)
    with pytest.raises(sb.InvalidFace) as err:
        sb.lattice_from_json_dict(json.loads(json.dumps(data)))
    assert str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["find-shelling", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"shellbound: {message}\n")


def test_a_lower_fault_is_named_in_file_order():
    data = _triangle_positions()
    data["faces"][5]["lower"] = [0, 9]
    data["faces"][4]["lower"] = "12"
    with pytest.raises(sb.InvalidFace, match="'lower' of face 'y' is not a list"):
        sb.lattice_from_json_dict(data)


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


def test_non_utf8_input_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bytes.txt"
    bad.write_bytes(b"1 2\n2 \xff\n")
    argv = ["find-shelling", "--input", str(bad)]
    proc = run_subprocess(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not text" in proc.stderr
    # in-process too, where a line tracer sees it
    assert run(argv) == 2
    assert capsys.readouterr() == ("", proc.stderr)


@pytest.mark.parametrize("command, flags, present", [
    ("check-shelling", [], True),
    ("find-shelling", [], True),
    ("bounds", ["--k", "1"], True),
    ("witness", ["--split", "2"], True),
    # the parser refuses the flag before the input is opened, so a
    # missing input file gets the same message
    ("check-shelling", [], False),
], ids=["check-shelling", "find-shelling", "bounds", "witness", "absent-input"])
def test_empty_order_entry_is_usage_error(capsys, tmp_path, oct_json, command, flags, present):
    path = oct_json if present else str(tmp_path / "absent.json")
    argv = [command, "--input", path, "--order", "a,,b", *flags]
    proc = run_subprocess(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"usage: shellbound {command} ")
    assert "argument --order: --order must be a comma-separated list of face ids" in proc.stderr
    assert run(argv) == 2
    assert capsys.readouterr() == ("", proc.stderr)


OCT_ORDER = ["123", "126", "135", "156", "234", "246", "345", "456"]


@pytest.mark.parametrize("argv, params", [
    (["check-shelling", "--order", ",".join(OCT_ORDER)], {"order": OCT_ORDER}),
    (["find-shelling"], {"prefix": []}),
    (["bounds"], {"order": None, "k": None}),
    (["witness", "--order", ",".join(OCT_ORDER), "--split", "2"],
     {"order": OCT_ORDER, "split": 2}),
    (["corollaries"], {"k": None}),
    (["gubt", "--d", "3", "--n", "6"], {"d": 3, "n": 6}),
], ids=["check-shelling", "find-shelling", "bounds", "witness", "corollaries", "gubt"])
def test_a_report_gives_the_subcommands_own_flags_as_params(tmp_path, oct_json, argv, params):
    out = tmp_path / "report.json"
    assert run([*argv, "--input", oct_json, "--budget", "100000", "--out", str(out)]) == 0
    assert read_envelope(out)["params"] == params


def test_malformed_json_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["find-shelling", "--input", str(bad)]) == 2


def test_malformed_lattice_data(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "faces": "nope", "covers": []}')
    assert run(["find-shelling", "--input", str(bad)]) == 2


def run_python(*argv: str, memory_cap: int = 0) -> subprocess.CompletedProcess:
    """A child interpreter given ARGV, with these sources on its path, and
    its address space capped at ``memory_cap`` bytes when that is not 0."""
    src = str(Path(sb.__file__).resolve().parents[1])

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory_cap, memory_cap))

    return subprocess.run(
        [sys.executable, *argv], preexec_fn=cap if memory_cap else None,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


def run_subprocess(args: list[str], memory_cap: int = 0) -> subprocess.CompletedProcess:
    """The CLI in a child interpreter, so that a traceback reaches stderr."""
    return run_python("-m", "shellbound.cli", *args, memory_cap=memory_cap)


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
    assert "need budget >= 0, got budget=-1" in proc.stderr
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
    # the cyclic counts come from a closed form, so no generator is loaded
    assert "shellbound.generators" not in gubt
    modules = {f"shellbound.{m}" for m in ("errors", "lattice", "shelling", "bounds")}
    assert modules <= gubt and modules | {"shellbound.generators"} <= library


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
