"""Mutants of the JSON of small lattices, in the positional form and in
the id-pair form: ``lattice_from_json_dict``
either builds a well-formed lattice that round-trips, or raises a
``ShellboundError``; and ``find-shelling`` on such input exits with a
documented code and prints no traceback."""

import contextlib
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import shellbound as sb
from shellbound import BOTTOM_ID, TOP_ID
from shellbound.cli import run

from corpus import bowtie, id_pair_json, mixed_dims_by_hand

# a JSON value of every kind that a field may wrongly hold
WRONG_VALUES = [None, True, 1.5, "x", "1", [], [1, 2, 3], {}, {"id": "v"}]
# dimensions: not integers, booleans, out of range and near misses
BAD_DIMS = [1.5, "1", None, [1], True, False, -3, -2, -1, 0, 1, 2, 50]


@lru_cache(maxsize=None)
def _bases() -> tuple[str, ...]:
    """The JSON of small lattices, each in the positional form and in the
    id-pair form."""
    lattices = (
        sb.ngon(4),
        sb.simplex_boundary(2),
        sb.punctured(sb.simplex_boundary(2)),
        bowtie(),
        mixed_dims_by_hand(),
    )
    return tuple(json.dumps(write(L)) for L in lattices
                 for write in (sb.lattice_to_json_dict, id_pair_json))


def _mutate(data: dict, pick) -> None:
    """Apply one mutation to ``data`` in place, each choice made by
    ``pick(options)``.  A cover is an id pair in the id-pair form, and an
    entry of a face's ``lower`` list in the positional form."""
    faces, covers = data["faces"], data.get("covers")
    ids = [f.get("id") for f in faces]
    lowers = [f["lower"] for f in faces] if covers is None else []
    kind = pick(["dim", "face dim", "drop cover", "retarget cover", "duplicate id",
                 "reserved id", "number id", "wrong type"])
    if kind == "dim":
        data["dim"] = pick(BAD_DIMS)
    elif kind == "face dim" and faces:
        pick(faces)["dim"] = pick(BAD_DIMS)
    elif kind == "drop cover" and covers:
        covers.remove(pick(covers))
    elif kind == "drop cover" and any(lowers):
        below = pick([below for below in lowers if below])
        below.remove(pick(below))
    elif kind == "retarget cover" and covers:
        pick(covers)[pick([0, 1])] = pick(ids + ["v9", BOTTOM_ID, TOP_ID])
    elif kind == "retarget cover" and lowers:
        # any position, its own, one past the end, or -1
        below = pick(lowers)
        target = pick(list(range(-1, len(faces) + 1)))
        if below and pick([True, False]):
            below[pick(range(len(below)))] = target
        else:
            below.append(target)
    elif kind == "duplicate id" and faces:
        if pick([True, False]):
            faces.append(json.loads(json.dumps(pick(faces))))
        else:
            pick(faces)["id"] = pick(ids)
    elif kind == "reserved id" and faces:
        pick(faces)["id"] = pick([BOTTOM_ID, TOP_ID])
    elif kind == "number id" and faces:
        # 1 and "1" name the same face once ids are strings
        pick(faces)["id"] = pick([1, 12, 1.0])
    elif kind == "wrong type":
        place = pick(["dim", "faces", "covers", "face", "cover", "face id", "lower", "missing"])
        value = pick(WRONG_VALUES)
        if place in ("dim", "faces", "covers"):
            # "covers" in the positional form makes a file with both forms
            data[place] = value
        elif place == "face" and faces:
            faces[pick(range(len(faces)))] = value
        elif place == "cover" and covers:
            covers[pick(range(len(covers)))] = value
        elif place == "cover" and any(lowers):
            below = pick([below for below in lowers if below])
            below[pick(range(len(below)))] = value
        elif place == "face id" and faces:
            pick(faces)["id"] = value
        elif place == "lower" and faces:
            pick(faces)["lower"] = value
        elif place == "missing":
            key = pick(["dim", "faces", "covers", "lower"])
            if key == "lower":
                if faces:
                    pick(faces).pop("lower", None)
            else:
                data.pop(key, None)


def _well_shaped(data: dict) -> bool:
    """Whether ``data`` still has a list of face objects, and lists of id
    pairs or a ``lower`` list on every face, the shape ``_mutate`` works
    on."""
    faces, covers = data.get("faces"), data.get("covers")
    if not (isinstance(faces, list) and all(isinstance(f, dict) for f in faces)):
        return False
    if covers is None:
        return "covers" not in data and all(isinstance(f.get("lower"), list) for f in faces)
    return (
        isinstance(covers, list) and all(isinstance(c, list) and len(c) == 2 for c in covers)
        and not any("lower" in f for f in faces)
    )


@st.composite
def mutants(draw) -> dict:
    """The JSON of a base lattice with one to three mutations; a mutation
    that breaks the shape is the last."""
    data = json.loads(draw(st.sampled_from(_bases())))
    for _ in range(draw(st.integers(1, 3))):
        if _well_shaped(data):
            _mutate(data, lambda options: draw(st.sampled_from(options)))
    return json.loads(json.dumps(data))


@given(mutants())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_a_mutant_builds_a_sound_lattice_or_raises_a_library_error(data):
    try:
        L = sb.lattice_from_json_dict(data)
    except sb.ShellboundError:
        return
    assert len(set(L.ids)) == len(L.ids)
    assert type(L.dim) is int
    assert L.ranks.count(0) == 1 and L.ranks.count(L.dim + 2) == 1
    back = sb.lattice_from_json_dict(json.loads(json.dumps(sb.lattice_to_json_dict(L))))
    assert back.fingerprint() == L.fingerprint()


@given(mutants())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_find_shelling_on_a_mutant_exits_cleanly(data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["find-shelling", "--input", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
