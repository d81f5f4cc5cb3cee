import copy
import json
import random
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import shellbound as sb

from corpus import (
    PRODUCT_BASES,
    SUBDIVIDED,
    balls,
    barycentric_subdivision,
    bistellar_sphere,
    bowtie,
    doubled_triangle,
    fresh_copy,
    graded_bounded_poset_parts,
    graded_bounded_posets,
    lune_sphere,
    mixed_dims_by_hand,
    polygonal_ball,
    prism,
    pyramid,
    shelled_spheres_d_le_3,
    spheres_d_le_3,
    stacked_sphere,
)
from oracles import naive_is_boolean, naive_witness

SQUARE_ORDER = ("e12", "e23", "e34", "e41")


def ball2() -> sb.FaceLattice:
    return sb.from_facets([[1, 2, 3], [2, 3, 4]])


# -- coefficients --------------------------------------------------------


def test_rho_values():
    assert sb.rho(4, 1).value == 1
    assert sb.rho(3, 1).value == Fraction(3, 2)
    assert sb.rho(5, 2).value == 2
    assert sb.rho(3, 0).value == Fraction(1, 2)
    for d in range(0, 9):
        assert sb.rho(d + 1, d).value == 1


def test_rho_range():
    # d + 1 is checked first, so an empty k-range is never named
    for d_plus_1 in (0, -3):
        with pytest.raises(sb.RangeError) as err:
            sb.rho(d_plus_1, 0)
        assert str(err.value) == f"need d_plus_1 >= 1, got d_plus_1={d_plus_1}"
    # an int that is not a bool, refused as any k out of range is
    for k in (True, 1.0, -1, 4):
        with pytest.raises(sb.RangeError, match=f"^need 0 <= k <= 3, got k={k!r}$"):
            sb.rho(4, k)
    # so is a d + 1 that is not an int, shown by its repr
    for d_plus_1 in (True, 3.0):
        with pytest.raises(sb.RangeError) as err:
            sb.rho(d_plus_1, 0)
        assert str(err.value) == f"need d_plus_1 >= 1, got d_plus_1={d_plus_1!r}"
    # both ends of each range are admitted
    assert sb.rho(1, 0).value == 1
    assert sb.rho(4, 0).value == 0 and sb.rho(4, 3).value == 1


def test_rho_closed_form():
    for d in range(1, 13):
        hi, lo = (d + 2) // 2, (d + 1) // 2
        for k in range(d + 1):
            got = sb.rho(d + 1, k).value
            assert got == Fraction(comb(hi, d - k) + comb(lo, d - k), 2)
            assert got.denominator in (1, 2)


def test_binomial_split_lb_examples():
    assert sb.binomial_split_lb(3, 1, 3, 1)
    assert sb.binomial_split_lb(2, 2, 3, 2)
    assert sb.binomial_split_lb(4, 0, 3, 2)
    assert sb.binomial_split_lb(7, 3, 5, 3)


def test_binomial_split_lb_holds_for_all_small_splits():
    for d in range(1, 13):
        hi = (d + 2) // 2
        for total in range(d + 1, 2 * (d + 1) + 1):
            for a in range(total + 1):
                for m in range(1, hi + 1):
                    assert sb.binomial_split_lb(a, total - a, d, m), (a, total - a, d, m)


def test_binomial_split_lb_preconditions():
    with pytest.raises(sb.PreconditionViolated):
        sb.binomial_split_lb(-1, 5, 3, 1)
    with pytest.raises(sb.PreconditionViolated):
        sb.binomial_split_lb(1, 1, 3, 1)
    with pytest.raises(sb.PreconditionViolated):
        sb.binomial_split_lb(3, 1, 3, 0)
    with pytest.raises(sb.PreconditionViolated):
        sb.binomial_split_lb(3, 1, 3, 3)
    # a, b and d are ints >= 0, and 1 <= m <= ceil((d + 1) / 2), each a
    # bool not counting as an int; 1.0 raised a bare TypeError from comb,
    # and True passed for 1
    bad = [
        ((1.0, 1, 1, 1), "need a >= 0, got a=1.0"),
        ((True, 1, 1, 1), "need a >= 0, got a=True"),
        ((1, -1, 1, 1), "need b >= 0, got b=-1"),
        ((1, 1.0, 1, 1), "need b >= 0, got b=1.0"),
        ((2, 1, True, 1), "need d >= 0, got d=True"),
        ((2, 1, -1, 1), "need d >= 0, got d=-1"),
        ((2, 1, 1.0, 1), "need d >= 0, got d=1.0"),
        ((3, 1, 3, True), "need 1 <= m <= 2, got m=True"),
        ((3, 1, 3, 1.0), "need 1 <= m <= 2, got m=1.0"),
        ((3, 1, 3, 0), "need 1 <= m <= 2, got m=0"),
        ((3, 1, 3, 3), "need 1 <= m <= 2, got m=3"),
        ((1, 1, 3, 1), "need a+b >= 4, got a=1 b=1"),
    ]
    for args, message in bad:
        with pytest.raises(sb.PreconditionViolated) as err:
            sb.binomial_split_lb(*args)
        assert str(err.value) == message, args
    # both ends of each range are admitted
    assert sb.binomial_split_lb(0, 1, 0, 1)
    assert sb.binomial_split_lb(4, 0, 3, 1) and sb.binomial_split_lb(4, 0, 3, 2)


# -- split_complexes -----------------------------------------------------


def test_split_complexes_square():
    g = sb.ngon(4)
    pair = sb.split_complexes(g, SQUARE_ORDER, 2)
    assert pair.begin_interior.members == {"e12", "e23", "v2"}
    assert pair.end_interior.members == {"e34", "e41", "v4"}
    assert "v1" in pair.begin and "v1" in pair.end


def test_split_complexes_extreme_positions():
    g = sb.ngon(4)
    whole = sb.split_complexes(g, SQUARE_ORDER, 0)
    assert whole.begin.mask == 0
    assert len(whole.begin_interior) == 0
    assert whole.end_interior.members == set(g.face_ids())
    full = sb.split_complexes(g, SQUARE_ORDER, 4)
    assert full.begin_interior.members == set(g.face_ids())
    assert len(full.end_interior) == 0


def test_split_complexes_octahedron_first_cut():
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    pair = sb.split_complexes(oct_, order, 1)
    fv = sb.f_vector(pair.begin_interior)
    assert (fv[0], fv[1], fv[2]) == (0, 0, 1)


def test_split_interiors_partition_the_sphere():
    for name, L, order in shelled_spheres_d_le_3():
        if len(L.facets()) > 6:
            continue
        for j in range(len(order) + 1):
            pair = sb.split_complexes(L, order, j)
            shared = pair.begin.mask & pair.end.mask & L._real_mask
            pieces = (pair.begin_interior.mask, pair.end_interior.mask, shared)
            assert sum(p.bit_count() for p in pieces) == L._real_mask.bit_count(), (name, j)
            assert pieces[0] | pieces[1] | pieces[2] == L._real_mask, (name, j)


def test_split_complexes_rejects_bad_input():
    g = sb.ngon(4)
    for j in (True, 2.0, -1, 5):
        with pytest.raises(sb.InvalidSplit) as err:
            sb.split_complexes(g, SQUARE_ORDER, j)
        assert str(err.value) == f"need 0 <= j <= 4, got j={j!r}"
    # both ends are admitted: one side is then the whole complex
    assert sb.split_complexes(g, SQUARE_ORDER, 0).begin.mask == 0
    assert sb.split_complexes(g, SQUARE_ORDER, 4).end.mask == 0
    with pytest.raises(sb.NotAShelling):
        sb.split_complexes(g, ("e12", "e34", "e23", "e41"), 2)
    order = sb.find_shelling(ball2())
    with pytest.raises(sb.PreconditionViolated):
        sb.split_complexes(ball2(), order.facets, 1)


# -- check_split_count ---------------------------------------------------


def test_check_split_count_square():
    g = sb.ngon(4)
    res = sb.check_split_count(g, SQUARE_ORDER, 2, 1)
    assert (res.lhs, res.rhs, res.fk_begin, res.fk_end) == (4, 3, 2, 2)
    assert res.ok
    res0 = sb.check_split_count(g, SQUARE_ORDER, 0, 1)
    assert (res0.lhs, res0.rhs) == (4, 3)
    resk0 = sb.check_split_count(g, SQUARE_ORDER, 2, 0)
    assert (resk0.lhs, resk0.rhs) == (2, 1)


def test_check_split_count_octahedron():
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    res = sb.check_split_count(oct_, order, 4, 1)
    assert res.rhs == 2
    assert res.ok


def test_check_split_count_whole_corpus():
    for name, L, order in shelled_spheres_d_le_3():
        if len(L.facets()) > 8:
            continue
        delta = L.dim
        for j in range(len(order) + 1):
            for k in range(delta // 2, delta + 1):
                assert sb.check_split_count(L, order, j, k).ok, (name, j, k)


def test_check_split_count_range_errors():
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    for k in (True, 1.0, 0, 3):
        with pytest.raises(sb.RangeError) as err:
            sb.check_split_count(oct_, order, 2, k)
        assert str(err.value) == f"need 1 <= k <= 2, got k={k!r}"
    # a position out of range is refused where every split position is
    for j in (True, 2.0, -1, 9):
        with pytest.raises(sb.InvalidSplit) as err:
            sb.check_split_count(oct_, order, j, 1)
        assert str(err.value) == f"need 0 <= j <= 8, got j={j!r}"
    # both ends of each range are admitted
    for j, k in ((0, 1), (8, 2)):
        assert sb.check_split_count(oct_, order, j, k).ok
    # on the empty complex, k's range from floor(-1 / 2) is empty, and the
    # message names the range enforced, whose least k is a face dimension
    empty = sb.sub_lattice(sb.ngon(3), "v1")
    with pytest.raises(sb.RangeError) as err:
        sb.check_split_count(empty, (), 0, -1)
    assert str(err.value) == "need 0 <= k <= -1, got k=-1"


def test_the_proof_route_refuses_a_k_that_is_not_an_int():
    # True passed for 1 and 1.0 raised a bare TypeError; each entry now
    # refuses both with the message of a k out of range
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    calls = [
        (partial(sb.verify_lower_bound, oct_, order), 0),
        (partial(sb.check_split_count, oct_, order, 2), 1),
        (partial(sb.corollary_bounds, oct_), 0),
    ]
    for call, lo in calls:
        # an int out of range gets the same message
        for k in (True, 1.0, lo - 1, 3):
            with pytest.raises(sb.RangeError) as err:
                call(k)
            assert str(err.value) == f"need {lo} <= k <= 2, got k={k!r}"
        # both ends are admitted
        for k in (lo, 2):
            assert call(k).k == k


# -- witness pairs -------------------------------------------------------


def test_witness_square_positions():
    g = sb.ngon(4)
    w2 = sb.find_witness_pair(g, SQUARE_ORDER, 2)
    assert (w2.begin_face, w2.end_face) == ("v2", "e34")
    assert (w2.begin_dim, w2.end_dim) == (0, 1)
    assert w2.begin_in_interior and w2.end_in_interior
    w1 = sb.find_witness_pair(g, SQUARE_ORDER, 1)
    assert (w1.begin_face, w1.end_face) == ("e12", "v3")
    w3 = sb.find_witness_pair(g, SQUARE_ORDER, 3)
    assert (w3.begin_face, w3.end_face) == ("v3", "e41")


def test_witness_zero_sphere():
    L = sb.from_facets([[1], [2]])
    w = sb.find_witness_pair(L, ("1", "2"), 1)
    assert (w.begin_face, w.end_face) == ("1", "2")
    assert (w.begin_dim, w.end_dim) == (0, 0)


def test_witness_octahedron_first_cut():
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    w = sb.find_witness_pair(oct_, order, 1)
    assert w.begin_face == order.facets[0]
    assert (w.begin_dim, w.end_dim) == (2, 0)


def test_witness_json_shape():
    g = sb.ngon(4)
    w = sb.find_witness_pair(g, SQUARE_ORDER, 2)
    assert w.to_json_dict() == {
        "C": "v2",
        "D": "e34",
        "dim_C": 0,
        "dim_D": 1,
        "split": 2,
        "C_in_interior": True,
        "D_in_interior": True,
    }


def test_witness_sweep_small_spheres():
    for name, L, order in shelled_spheres_d_le_3():
        if len(L.facets()) > 6:
            continue
        for j in range(1, len(order)):
            w = sb.find_witness_pair(L, order, j)
            assert w.begin_dim + w.end_dim <= L.dim, (name, j)


def test_witness_pairs_match_the_naive_construction():
    # pins the exact faces chosen at every depth, not only their properties
    cases = [(name, L, order.facets) for name, L, order in shelled_spheres_d_le_3()]
    cube = sb.hypercube_boundary(3)
    cases.append(("hypercube-boundary-3", cube, sb.find_shelling(cube).facets))
    for name, L, seq in cases:
        for order in (seq, seq[::-1]):
            for j in range(1, len(order)):
                w = sb.find_witness_pair(L, order, j)
                assert (w.begin_face, w.end_face) == naive_witness(L, order, j), (name, order, j)


def test_witness_rejects_bad_input():
    g = sb.ngon(4)
    for j in (True, 2.0, 0, 4):
        with pytest.raises(sb.InvalidSplit) as err:
            sb.find_witness_pair(g, SQUARE_ORDER, j)
        assert str(err.value) == f"need 1 <= j <= 3, got j={j!r}"
    # both ends are admitted
    for j in (1, 3):
        assert sb.find_witness_pair(g, SQUARE_ORDER, j).split == j
    with pytest.raises(sb.NotAShelling) as exc:
        sb.find_witness_pair(g, ("e12", "e34", "e23", "e41"), 2)
    assert exc.value.failure.step == 2


# -- facet decomposition -------------------------------------------------


def test_facet_decomposition_two_triangle_ball():
    B = ball2()
    decomp = sb.facet_decomposition(B, ("123", "234"))
    first, second = decomp.splits
    assert first.facet == "123" and first.j == 1
    assert first.before.mask == 0
    assert sb.f_vector(first.after).proper == (3, 3)
    assert len(first.before_interior) == 0

    assert sb.f_vector(second.before).proper == (2, 1)
    assert second.before_interior.members == {"23"}
    assert sb.f_vector(second.after).proper == (3, 2)
    assert second.after_interior.members == {"24", "34", "4"}


def test_facet_decomposition_octahedron_ends():
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    decomp = sb.facet_decomposition(oct_, order)
    first, last = decomp.splits[0], decomp.splits[-1]
    boundary_of_first = sb.sub_lattice(oct_, first.facet)
    assert sb.f_vector(first.after).proper == tuple(
        sb.f_vector(boundary_of_first).proper
    )
    assert last.after.mask == 0
    assert sb.f_vector(last.before).proper == (3, 3)


def test_facet_decomposition_rejects_bad_input():
    with pytest.raises(sb.RangeError):
        sb.facet_decomposition(sb.from_facets([[1], [2]]), ("1", "2"))
    with pytest.raises(sb.NotAShelling):
        sb.facet_decomposition(sb.ngon(4), ("e12", "e34", "e23", "e41"))


def test_decomposition_checks_the_certificate_steps():
    from shellbound.bounds import _decomposition, _witness

    L = sb.cross_polytope(2)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    steps = list(cert.steps)
    relabelled = steps.copy()
    # one ridge more than the facet glues along
    relabelled[1] = sb.ShellingStep(
        steps[1].facet, steps[1].glued + 1, steps[1].sub_certificate
    )
    swapped = steps.copy()
    swapped[0] = sb.ShellingStep(steps[0].facet, 0, steps[1].sub_certificate)
    swapped[1] = sb.ShellingStep(steps[1].facet, steps[1].glued, steps[0].sub_certificate)
    for lying, guard in ((relabelled, "glued ridges"), (swapped, "split recount")):
        with pytest.raises(sb.InternalContradiction, match=guard):
            _decomposition(sb.ShellingCertificate(L, cert.cell, cert.facets, tuple(lying)))
    relabelled_certificate = sb.ShellingCertificate(L, cert.cell, cert.facets, tuple(relabelled))
    with pytest.raises(sb.InternalContradiction, match="a verified step glues along other ridges"):
        _witness(relabelled_certificate, 2)


def _by_hand(L: sb.FaceLattice, facets, steps=()) -> sb.ShellingCertificate:
    """A whole-complex certificate of ``facets`` and ``steps`` that no
    search made."""
    return sb.ShellingCertificate(L, L._top, tuple(facets), tuple(steps))


def _sub_certificates(L: sb.FaceLattice) -> dict:
    """Each facet's sub-certificate in the first shelling of ``L``."""
    cert = sb.is_shelling(L, sb.find_shelling(L))
    return {step.facet: step.sub_certificate for step in cert.steps}


def test_a_split_checks_its_sides():
    from shellbound.bounds import _split

    L = sb.ngon(4)
    # a vertex among the facets: the leading side is not pure
    with pytest.raises(sb.InternalContradiction,
                       match="a side of a verified sphere split is not a pseudomanifold"):
        _split(_by_hand(L, ("e12", "v3", "e34", "e41")), 2)
    # e41 left out: it and v1 lie on neither side, so the leading side's
    # interior is less than the complement of the trailing side
    with pytest.raises(sb.InternalContradiction,
                       match="split interiors do not complement each other"):
        _split(_by_hand(L, ("e12", "e23", "e34")), 1)


def test_ridge_sides_checks_each_ridge():
    from shellbound.bounds import _ridge_sides

    # the ridge 12 lies in three triangles
    fan = sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    with pytest.raises(sb.InternalContradiction, match="a ridge lies in more than two facets"):
        _ridge_sides(fan, fan.index("123"), fan._real_mask, 0, 0)
    # the ridge 12 of a ball lies in one triangle, and the boundary handed in is empty
    ball = sb.from_facets([[1, 2, 3], [2, 3, 4]])
    with pytest.raises(sb.InternalContradiction,
                       match="a ridge in a single facet is missing from the boundary"):
        _ridge_sides(ball, ball.index("123"), ball._real_mask, 0, 0)


def test_witness_checks_the_step_it_descends_into():
    from shellbound.bounds import _witness

    L = sb.ngon(4)
    subs = _sub_certificates(L)
    # e34 meets e12 in no vertex, so it glues along none
    apart = _by_hand(L, ("e12", "e34", "e23", "e41"),
                     (sb.ShellingStep("e12", 0, subs["e12"]), sb.ShellingStep("e34", 0, subs["e34"])))
    with pytest.raises(sb.InternalContradiction, match="facet boundary split is degenerate"):
        _witness(apart, 2)
    # a sub-certificate of e23 whose trailing facet is e23 itself, which
    # has no cover but the top
    lying = sb.ShellingCertificate(L, L.index("e23"), ("v2", "e23"), ())
    forged = _by_hand(L, ("e12", "e23", "e34", "e41"),
                      (sb.ShellingStep("e12", 0, subs["e12"]), sb.ShellingStep("e23", 1, lying)))
    with pytest.raises(sb.InternalContradiction,
                       match="every cover of the inner witness lies inside the closed facet"):
        _witness(forged, 2)


def test_witness_pair_checks_the_faces_it_is_handed(monkeypatch):
    from shellbound import bounds

    L = sb.ngon(4)
    order = sb.find_shelling(L).facets
    first, last = L.index(order[0]), L.index(order[-1])
    # the leading facet twice: it is not interior to the trailing side
    monkeypatch.setattr(bounds, "_witness", lambda cert, j: (first, first))
    with pytest.raises(sb.InternalContradiction,
                       match="witness faces are not interior to their sides"):
        sb.find_witness_pair(L, order, 1)
    # the leading and the last facet: each interior to its side, but 1 + 1 > 1
    monkeypatch.setattr(bounds, "_witness", lambda cert, j: (first, last))
    with pytest.raises(sb.InternalContradiction,
                       match="witness dimensions exceed the complex dimension"):
        sb.find_witness_pair(L, order, 1)


def test_decomposition_checks_the_step_intersection():
    from shellbound.bounds import _decomposition

    L = sb.ngon(4)
    subs = _sub_certificates(L)
    # e34 meets e12 in the empty face alone, so its earlier side is empty
    apart = _by_hand(L, ("e12", "e34", "e23", "e41"),
                     (sb.ShellingStep(f, 0, subs[f]) for f in ("e12", "e34", "e23", "e41")))
    with pytest.raises(sb.InternalContradiction,
                       match="the earlier side differs from the step intersection"):
        _decomposition(apart)


def test_decomposition_checks_the_ridge_sides(monkeypatch):
    from shellbound import bounds

    L = sb.ngon(4)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    ridge_sides = bounds._ridge_sides
    # each lie takes the true (before, after) ridge masks of a facet
    lies = {
        "a ridge landed on both sides of its facet": lambda b, a: (b | a, b | a),
        "the two sides do not cover the facet boundary": lambda b, a: (b, 0),
        "the first facet has no earlier side": lambda b, a: (a, b),
    }
    for guard, lie in lies.items():
        monkeypatch.setattr(bounds, "_ridge_sides", lambda *args, lie=lie: lie(*ridge_sides(*args)))
        with pytest.raises(sb.InternalContradiction, match=guard):
            bounds._decomposition(cert)


def test_decomposition_checks_how_the_sides_meet(monkeypatch):
    from shellbound import bounds

    L = sb.ngon(4)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    boundary = bounds.boundary_complex
    # each side of a facet taken to have no boundary, while the sides of
    # e23 meet in v2
    monkeypatch.setattr(bounds, "boundary_complex",
                        lambda x: boundary(x) if x is L else sb.Subcomplex(L, 0))
    with pytest.raises(sb.InternalContradiction,
                       match="the sides do not meet in their common boundary"):
        bounds._decomposition(cert)


@pytest.mark.parametrize("side", ["earlier", "later"])
def test_decomposition_checks_the_interiors_are_disjoint(monkeypatch, side):
    from shellbound import bounds

    L = sb.cross_polytope(2)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    split = bounds._split

    def closed_interior(sub, j):
        # one side's interior taken as the whole side, so that the
        # vertices of the facets' glued edges repeat
        pair = split(sub, j)
        if side == "earlier":
            whole = sb.FaceSet(L, pair.begin.mask & L._real_mask)
            return bounds.SplitPair(pair.begin, pair.end, whole, pair.end_interior)
        whole = sb.FaceSet(L, pair.end.mask & L._real_mask)
        return bounds.SplitPair(pair.begin, pair.end, pair.begin_interior, whole)

    monkeypatch.setattr(bounds, "_split", closed_interior)
    with pytest.raises(sb.InternalContradiction, match=f"a face is interior to two {side} sides"):
        bounds._decomposition(cert)


def whole_certificates(L: sb.FaceLattice) -> list:
    """The whole-complex certificates in the lattice's memo, looking into
    the proof slot and one level into tuples."""
    from shellbound.bounds import _Proof

    items = []
    for value in L._memo.values():
        if isinstance(value, _Proof):
            value = value.cert
        items += value if isinstance(value, tuple) else (value,)
    return [i for i in items if isinstance(i, sb.ShellingCertificate) and i.cell == L._top]


def test_proof_route_keeps_one_proof():
    L = sb.hypercube_boundary(3)
    seq = sb.find_shelling(L).facets
    d = L.dim
    for order in (seq, seq[::-1], seq):
        report = sb.verify_lower_bound(L, order, d - 1)
        assert report == sb.verify_lower_bound(fresh_copy(L), order, d - 1)
        proof = L._memo["proof"]
        assert proof.cert.facets == order and whole_certificates(L) == [proof.cert]
        assert proof.cuts == {}
    # is_shelling keeps no certificate of its own; its sub-certificates
    # are memoised, so a repeated call spends no node
    M = fresh_copy(L)
    budgets = [sb.SearchBudget(), sb.SearchBudget()]
    first, again = (sb.is_shelling(M, seq, budget=b) for b in budgets)
    assert again == first and budgets[0].spent > 0 and budgets[1].spent == 0
    assert whole_certificates(M) == []


def test_failed_verification_is_not_kept():
    oct_ = sb.cross_polytope(2)
    good = sb.find_shelling(oct_).facets
    # 123 and 345 share only the vertex 3
    bad = ("123", "345", "126", "135", "156", "234", "246", "456")
    sb.verify_lower_bound(oct_, good, 1)
    kept = oct_._memo["proof"]
    failure = sb.is_shelling(fresh_copy(oct_), bad)
    assert isinstance(failure, sb.ShellingFailure)
    for _ in range(2):
        with pytest.raises(sb.NotAShelling) as caught:
            sb.verify_lower_bound(oct_, bad, 1)
        assert caught.value.failure == failure
        assert oct_._memo["proof"] is kept
    assert not any(isinstance(v, sb.ShellingFailure) for v in oct_._memo.values())
    # a budget that runs out keeps nothing either
    cube = sb.hypercube_boundary(3)
    seq = sb.find_shelling(fresh_copy(cube)).facets
    sb.facet_decomposition(cube, seq)
    kept = cube._memo["proof"]
    with pytest.raises(sb.BudgetExceeded):
        sb.verify_lower_bound(cube, seq[::-1], 2, budget=0)
    assert cube._memo["proof"] is kept
    assert sb.verify_lower_bound(cube, seq[::-1], 2) == sb.verify_lower_bound(
        fresh_copy(cube), seq[::-1], 2
    )


def memo_state(L: sb.FaceLattice) -> tuple:
    """The memo's entries, and the proof slot's decomposition (None before
    it is read) and cuts, as they stand."""
    proof = L._memo.get("proof")
    if proof is None:
        return dict(L._memo), None, None
    return dict(L._memo), vars(proof).get("decomposition"), dict(proof.cuts)


def assert_memo_is(L: sb.FaceLattice, state: tuple) -> None:
    entries, decomposition, cuts = memo_state(L)
    assert entries.keys() == state[0].keys() and cuts == state[2]
    assert all(entries[key] is value for key, value in state[0].items())
    assert decomposition is state[1]


def test_bad_budget_is_rejected_when_the_order_is_kept():
    oct_ = sb.cross_polytope(2)
    seq = sb.find_shelling(oct_).facets
    report = sb.verify_lower_bound(oct_, seq, 1)
    kept = oct_._memo["proof"]
    for bad in (-1, "many"):
        with pytest.raises(sb.RangeError):
            sb.verify_lower_bound(oct_, seq, 1, budget=bad)
    assert oct_._memo["proof"] is kept
    assert sb.verify_lower_bound(oct_, seq, 1) == report
    # every other call of the proof route checks its budget on a warm
    # call too, and keeps nothing then
    calls = [
        (sb.corollary_bounds, 1),
        (sb.barany_check,),
        (sb.check_split_count, seq, 3, 1),
        (sb.find_witness_pair, seq, 3),
        (sb.split_complexes, seq, 3),
        (sb.facet_decomposition, seq),
    ]
    for fn, *args in calls:
        warm = fn(oct_, *args)
        state = memo_state(oct_)
        for bad in (-1, "many"):
            with pytest.raises(sb.RangeError):
                fn(oct_, *args, budget=bad)
            assert_memo_is(oct_, state)
        assert fn(oct_, *args) == warm


def test_a_run_out_of_budget_keeps_no_fact():
    # the search of the octahedron itself runs out, then that of its dual,
    # the cube, after the octahedron's own verdict is kept
    oct_ = sb.cross_polytope(2)
    dual_spent = sb.SearchBudget()
    assert sb.is_dual_cl_shellable(fresh_copy(oct_), budget=dual_spent)
    facts = {"dual CL-shellable", "CL-shellable", "f-vector", "proof"}
    for fn in (lambda b: sb.corollary_bounds(oct_, 1, budget=b),
               lambda b: sb.barany_check(oct_, budget=b)):
        with pytest.raises(sb.BudgetExceeded):
            fn(0)
        assert not facts & set(oct_._memo)
    with pytest.raises(sb.BudgetExceeded):
        sb.corollary_bounds(oct_, 1, budget=dual_spent.spent)
    assert oct_._memo["dual CL-shellable"] is True
    assert not {"CL-shellable", "f-vector"} & set(oct_._memo)
    assert sb.corollary_bounds(oct_, 1) == sb.corollary_bounds(fresh_copy(oct_), 1)
    assert oct_._memo["CL-shellable"] is True
    # a verification that runs out keeps neither an order nor its cuts
    cube = sb.hypercube_boundary(3)
    seq = sb.find_shelling(fresh_copy(cube)).facets
    for fn in (sb.split_complexes, sb.find_witness_pair):
        with pytest.raises(sb.BudgetExceeded):
            fn(cube, seq, 3, budget=0)
        assert "proof" not in cube._memo
    assert not any(isinstance(v, sb.ShellingFailure) for v in cube._memo.values())


def test_kept_decomposition_serves_only_its_certificate():
    from shellbound.bounds import _decomposition

    L = sb.cross_polytope(2)
    seq = sb.find_shelling(L).facets
    decomp = sb.facet_decomposition(L, seq)
    proof = L._memo["proof"]
    cert = proof.cert
    assert cert.facets == seq and proof.decomposition is decomp and proof.cuts == {}
    # the kept proof serves the decomposition; _decomposition itself
    # derives it afresh, equal to the kept one
    assert sb.facet_decomposition(L, seq) is decomp
    assert _decomposition(cert) == decomp and _decomposition(cert) is not decomp
    # an equal certificate that is another object is checked afresh
    equal = sb.is_shelling(L, seq)
    assert equal == cert and equal is not cert
    assert _decomposition(equal) == decomp and _decomposition(equal) is not decomp
    # so is one with the same facets and lying steps
    steps = list(cert.steps)
    steps[0] = sb.ShellingStep(steps[0].facet, 0, steps[1].sub_certificate)
    steps[1] = sb.ShellingStep(steps[1].facet, steps[1].glued, cert.steps[0].sub_certificate)
    lying = sb.ShellingCertificate(L, cert.cell, cert.facets, tuple(steps))
    with pytest.raises(sb.InternalContradiction, match="split recount"):
        _decomposition(lying)
    assert L._memo["proof"] is proof and proof.decomposition is decomp
    # verifying another order replaces the proof, decomposition and all,
    # and the old certificate's decomposition is no longer kept
    sb.verify_lower_bound(L, seq[::-1], 2)
    other = L._memo["proof"]
    assert other.cert.facets == seq[::-1] and other.cert is not cert
    assert "decomposition" not in vars(other) and other.cuts == {}
    assert _decomposition(cert) is not decomp
    assert "decomposition" not in vars(L._memo["proof"])
    assert sb.facet_decomposition(L, seq) is not decomp


def test_facet_decomposition_interiors_are_disjoint_families():
    for L in (sb.cross_polytope(2), ball2(), sb.ngon(5)):
        order = sb.find_shelling(L)
        decomp = sb.facet_decomposition(L, order)
        bd = sb.boundary_complex(L).mask
        ridge_and_below = L._real_mask & ~L._rank_masks[L.dim + 1]
        after_union = 0
        before_union = 0
        for split in decomp.splits:
            after_union |= split.after_interior.mask
            before_union |= split.before_interior.mask
        # pairwise disjointness: the union is exactly as big as the parts
        assert before_union.bit_count() == sum(
            len(s.before_interior) for s in decomp.splits
        )
        assert after_union.bit_count() == sum(
            len(s.after_interior) for s in decomp.splits
        )
        assert before_union & bd == 0
        assert (before_union | after_union) & ~ridge_and_below == 0


# -- the main inequality -------------------------------------------------


def test_bound_octahedron_equality():
    oct_ = sb.cross_polytope(2)
    report = sb.verify_lower_bound(oct_, sb.find_shelling(oct_), 1)
    assert (report.lhs, report.rhs) == (12, 12)
    assert report.equality and report.expected_equality
    assert report.ok
    assert len(report.per_facet) == 8
    assert all(p.bound == 3 for p in report.per_facet)


def test_bound_cube_slack():
    cube = sb.hypercube_boundary(2)
    report = sb.verify_lower_bound(cube, sb.find_shelling(cube), 1)
    assert (report.lhs, report.rhs, report.slack) == (12, 9, 3)
    assert not report.equality and not report.expected_equality
    assert report.ok


def test_bound_ball_with_boundary_term():
    B = ball2()
    r1 = sb.verify_lower_bound(B, ("123", "234"), 1)
    assert (r1.lhs, r1.rhs) == (5, 5)
    assert r1.equality and r1.expected_equality and r1.ok
    r0 = sb.verify_lower_bound(B, ("123", "234"), 0)
    assert (r0.lhs, r0.rhs, r0.slack) == (4, 3, 1)
    assert not r0.equality and not r0.expected_equality and r0.ok


def test_bound_square_top_dimension():
    g = sb.ngon(4)
    r = sb.verify_lower_bound(g, SQUARE_ORDER, 1)
    assert (r.lhs, r.rhs) == (4, 4)
    assert r.equality and r.expected_equality and r.ok
    assert r.per_facet == ()
    r0 = sb.verify_lower_bound(g, SQUARE_ORDER, 0)
    assert r0.equality and r0.expected_equality and r0.ok


def test_bound_four_sphere_equality():
    S = sb.simplex_boundary(3)
    r = sb.verify_lower_bound(S, sb.find_shelling(S), 2)
    assert (r.lhs, r.rhs) == (10, 10)
    assert r.equality and r.expected_equality and r.ok


def chain_counts(L: sb.FaceLattice) -> tuple[int, ...]:
    """The number of chains of k + 1 proper faces of ``L``, for each k,
    by a dynamic program over the strict down-sets."""
    ending = {}  # face -> counts of the chains it tops, by length - 1
    # faces come in rank order, so a face's down-set is counted before it
    for x in L.face_ids():
        counts = [1] + [0] * L.dim
        for y in L.down_set(x, strict=True) - {L.bottom}:
            for j, c in enumerate(ending[y][:-1]):
                counts[j + 1] += c
        ending[x] = counts
    return tuple(sum(column) for column in zip(*ending.values()))


@pytest.mark.parametrize("name", SUBDIVIDED)
def test_bound_on_barycentric_subdivisions(name):
    make, is_lattice = SUBDIVIDED[name]
    L = make()
    assert sb.is_lattice(L) == is_lattice
    S = barycentric_subdivision(L)
    assert sb.f_vector(S).proper == chain_counts(L)
    assert sb.is_lattice(S)
    order = sb.find_shelling(S)
    assert order is not None
    # a CL-shellable poset has a shellable order complex (Björner and
    # Wachs, Trans. AMS 1983), one way only; each diamond lattice here, a
    # polytope's or its dual, is CL-shellable, and its subdivision shelled
    if is_lattice and sb.is_diamond(L):
        assert sb.is_cl_shellable(L)
    d = S.dim
    for k in range((d - 1) // 2, d + 1):
        r = sb.verify_lower_bound(S, order, k)
        assert r.ok, k
        assert r.equality == (k >= d - 1), k


def test_bound_report_json_schema():
    oct_ = sb.cross_polytope(2)
    data = sb.verify_lower_bound(oct_, sb.find_shelling(oct_), 1).to_json_dict()
    assert sorted(data) == [
        "equality", "expected_equality", "k", "lhs", "per_facet",
        "rhs_den", "rhs_num", "slack_den", "slack_num",
    ]
    assert sorted(data["per_facet"][0]) == ["bound", "fk_int_C", "fk_int_D", "j"]
    assert (data["rhs_num"], data["rhs_den"]) == (12, 1)


def test_bound_interior_sum_ceiling():
    for name, L, order in shelled_spheres_d_le_3():
        if len(L.facets()) > 8:
            continue
        d = L.dim
        for k in range((d - 1) // 2, d + 1):
            rep = sb.verify_lower_bound(L, order, k)
            assert rep.ok, (name, k)
            f = sb.f_vector(L)
            assert rep.interior_sum <= 2 * f[k], (name, k)


def test_bound_rejects_bad_input():
    C46 = sb.cyclic_boundary(4, 6)
    order = sb.find_shelling(C46)
    with pytest.raises(sb.RangeError):
        sb.verify_lower_bound(C46, order, 0)
    with pytest.raises(sb.RangeError):
        sb.verify_lower_bound(C46, order, 4)
    with pytest.raises(sb.NotAShelling):
        sb.verify_lower_bound(sb.ngon(4), ("e12", "e34", "e23", "e41"), 1)


def test_bound_names_its_dimension_floor():
    # the 0-sphere: every k fails on the dimension, whatever the k-range says
    S0 = sb.simplex_boundary(0)
    order = sb.find_shelling(S0)
    for k in (-1, 0):
        with pytest.raises(sb.RangeError, match="^the bound needs dimension at least 1, got"):
            sb.verify_lower_bound(S0, order, k)


# -- simpliciality and identities ----------------------------------------


def test_is_simplicial():
    assert sb.is_simplicial(sb.cross_polytope(2))
    assert not sb.is_simplicial(sb.hypercube_boundary(2))
    assert sb.is_simplicial(sb.simplex_boundary(3))
    assert sb.is_simplicial(sb.ngon(7))
    # each 3-cell has four ridges, as a tetrahedron does, but its lower
    # interval is not Boolean
    assert not sb.is_simplicial(lune_sphere())
    assert not sb.is_simplicial(sb.punctured(lune_sphere()))
    with pytest.raises(sb.PreconditionViolated):
        sb.is_simplicial(
            sb.build_lattice(
                [("_bot", 0), ("_top", 4), ("v1", 1), ("v2", 1), ("v3", 1),
                 ("v4", 1), ("e12", 2), ("e13", 2), ("e23", 2), ("e34", 2), ("f", 3)],
                [("_bot", "v1"), ("_bot", "v2"), ("_bot", "v3"), ("_bot", "v4"),
                 ("v1", "e12"), ("v2", "e12"), ("v1", "e13"), ("v3", "e13"),
                 ("v2", "e23"), ("v3", "e23"), ("v3", "e34"), ("v4", "e34"),
                 ("e12", "f"), ("e13", "f"), ("e23", "f"), ("f", "_top")],
                2,
            )
        )


def _assert_simplicial_is_boolean_facets(L: sb.FaceLattice) -> None:
    assert sb.is_simplicial(L) == all(
        naive_is_boolean(L, L.index(f)) for f in L.facets()
    ), L


def test_is_simplicial_matches_the_naive_boolean_test():
    spheres = [L for _, L in spheres_d_le_3()]
    cases = spheres + [L for _, L in balls()] + [sb.dualize(L) for L in spheres]
    cases += [lune_sphere(), sb.punctured(lune_sphere())]
    for L in cases:
        _assert_simplicial_is_boolean_facets(fresh_copy(L))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts())
def test_is_simplicial_matches_the_naive_boolean_test_on_small_posets(parts):
    L = sb.build_lattice(*parts)
    if sb.is_pure(L):
        _assert_simplicial_is_boolean_facets(L)
    else:
        with pytest.raises(sb.PreconditionViolated):
            sb.is_simplicial(L)


def test_simplicial_equality_identity():
    assert sb.simplicial_equality_identity(sb.cross_polytope(2))
    assert sb.simplicial_equality_identity(ball2())
    assert sb.simplicial_equality_identity(sb.simplex_boundary(3))
    with pytest.raises(sb.NotSimplicial):
        sb.simplicial_equality_identity(sb.hypercube_boundary(2))
    # three triangles on one edge: simplicial, not a pseudomanifold
    with pytest.raises(sb.NotPseudomanifold):
        sb.simplicial_equality_identity(sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]]))


def test_vandermonde_check():
    assert sb.vandermonde_check(3, 2)
    assert not sb.vandermonde_check(3, 1)
    assert sb.vandermonde_check(5, 4)
    assert sb.vandermonde_check(2, 1)
    for d in range(1, 13):
        for k in range(d + 1):
            assert sb.vandermonde_check(d, k) == (k >= d - 1), (d, k)
    for k in (True, 1.0, -1, 4):
        with pytest.raises(sb.RangeError, match=f"^need 0 <= k <= 3, got k={k!r}$"):
            sb.vandermonde_check(3, k)
    # d is checked first, so a k is never measured against a d out of range
    for d in (True, 2.0, 0):
        for k in (0, 1):
            with pytest.raises(sb.RangeError) as err:
                sb.vandermonde_check(d, k)
            assert str(err.value) == f"need d >= 1, got d={d!r}"
    # both ends of each range are admitted
    assert sb.vandermonde_check(1, 0) and sb.vandermonde_check(1, 1)


def test_vandermonde_check_recomputes_the_identity(monkeypatch):
    from shellbound import bounds

    # C(4, m) off by one: the identity fails on the way to the verdict
    monkeypatch.setattr(bounds, "comb", lambda n, k: comb(n, k) + (n == 4))
    with pytest.raises(sb.InternalContradiction, match="binomial convolution identity failed"):
        sb.vandermonde_check(3, 1)


# -- corollaries ---------------------------------------------------------


def test_corollaries_octahedron():
    oct_ = sb.cross_polytope(2)
    r = sb.corollary_bounds(oct_, 1)
    assert r.dual_cl_shellable and r.cl_shellable
    assert r.facet_bound == 12 and r.facet_bound_ok
    assert r.vertex_bound == 9 and r.vertex_bound_ok
    assert r.barany_bound == 6 and r.barany_ok
    r0 = sb.corollary_bounds(oct_, 0)
    assert r0.facet_bound == 4 and r0.facet_bound_ok
    assert r0.vertex_bound == 6 and r0.vertex_bound_ok


def test_corollaries_cube():
    cube = sb.hypercube_boundary(2)
    r = sb.corollary_bounds(cube, 1)
    assert r.facet_bound == 9 and r.facet_bound_ok
    assert r.vertex_bound == 12 and r.vertex_bound_ok
    assert r.barany_bound == 6 and r.barany_ok


def test_corollaries_absent_when_hypothesis_fails():
    L = sb.from_facets([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    r = sb.corollary_bounds(L, 1)
    assert not r.dual_cl_shellable and not r.cl_shellable
    assert r.facet_bound is None and r.facet_bound_ok is None
    assert r.vertex_bound is None and r.vertex_bound_ok is None
    assert r.barany_bound is None and r.barany_ok is None
    data = r.to_json_dict()
    assert data["facet_bound"] is None and data["barany_bound"] is None


def test_corollaries_json_fractions():
    data = sb.corollary_bounds(sb.ngon(5), 0).to_json_dict()
    assert data["facet_bound"] == {"num": 5, "den": 1}
    assert data["vertex_bound"] == {"num": 5, "den": 1}


def test_corollaries_rejects_bad_input():
    with pytest.raises(sb.NotDiamond):
        sb.corollary_bounds(sb.from_facets([[1, 2], [2, 3]]), 0)
    with pytest.raises(sb.RangeError):
        sb.corollary_bounds(sb.ngon(4), 2)


def test_barany_check():
    assert sb.barany_check(sb.cross_polytope(2))
    assert sb.barany_check(sb.hypercube_boundary(2))
    assert sb.barany_check(sb.simplex_boundary(3))
    assert sb.barany_check(sb.cyclic_boundary(4, 7))
    with pytest.raises(sb.NotDiamond):
        sb.barany_check(sb.from_facets([[1, 2], [2, 3]]))
    with pytest.raises(sb.NotShellable):
        sb.barany_check(sb.from_facets([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]))


# -- each proof checked once ---------------------------------------------

CHECK_ONCE = {
    "cross-polytope-3": lambda: sb.cross_polytope(3),
    "hypercube-boundary-3": lambda: sb.hypercube_boundary(3),
    "punctured-simplex-boundary-4": lambda: sb.punctured(sb.simplex_boundary(4)),
}


def spent(fn, *args, budget=None, **kwargs) -> int:
    budget = budget or sb.SearchBudget()
    before = budget.spent
    fn(*args, budget=budget, **kwargs)
    return budget.spent - before


@pytest.mark.parametrize("name", sorted(CHECK_ONCE))
def test_bound_route_spends_only_the_verification(name, lattice_builds):
    make = CHECK_ONCE[name]
    seq = sb.find_shelling(make()).facets
    verification = spent(sb.is_shelling, make(), seq)
    # a simplex facet's sub-shellings are read off without a search; the
    # cube's square facets are searched
    if name == "hypercube-boundary-3":
        assert verification > 0
    else:
        assert verification == 0
    L, decomposed, witnessed, split = make(), make(), make(), make()
    # the route reads every cell on host masks and builds no cell lattice
    lattice_builds.count = 0
    d = L.dim
    ks = range((d - 1) // 2, d + 1)
    assert spent(sb.verify_lower_bound, L, seq, ks[0]) == verification
    for k in ks[1:]:
        assert spent(sb.verify_lower_bound, L, seq, k) == 0, k
    assert spent(sb.facet_decomposition, decomposed, seq) == verification
    if sb.boundary_complex(L).mask == 0:
        n = len(seq)
        assert spent(sb.find_witness_pair, witnessed, seq, n // 2) == verification
        assert spent(sb.check_split_count, split, seq, n // 2, d) == verification
        for j in range(1, n):
            sb.find_witness_pair(witnessed, seq, j)
        for j in range(n + 1):
            sb.split_complexes(split, seq, j)
    assert lattice_builds.count == 0


def test_bound_route_derives_the_whole_boundary_once(boundary_walks):
    X = sb.cross_polytope(4)
    seq = sb.find_shelling(X).facets
    d = X.dim
    for k in range((d - 1) // 2, d + 1):
        assert sb.verify_lower_bound(X, seq, k).ok, k
    sb.facet_decomposition(X, seq)
    n = len(seq)
    for j in range(n + 1):
        sb.split_complexes(X, seq, j)
        sb.check_split_count(X, seq, j, d)
    for j in range(1, n):
        sb.find_witness_pair(X, seq, j)
    whole = [sc for sc in boundary_walks if sc.lattice is X and sc.mask == X._real_mask | 1]
    assert len(whole) == 1


def test_bound_cuts_each_facet_boundary_once(boundary_walks):
    X = sb.cross_polytope(4)
    seq = sb.find_shelling(X).facets
    d = X.dim
    sb.is_pseudomanifold(X)
    boundary_walks.clear()
    for k in range((d - 1) // 2, d + 1):
        sb.verify_lower_bound(X, seq, k)
    sb.facet_decomposition(X, seq)
    # per facet: its boundary's sphere check and the two sides of its cut,
    # where the first facet's later side and the last facet's earlier side
    # are its whole boundary, derived once
    assert len(boundary_walks) == 3 * len(seq) - 2 == 94
    boundary_walks.clear()
    sb.verify_lower_bound(X, seq, 1)
    assert boundary_walks == []


def test_proof_route_verifies_each_order_once(verifications):
    X = sb.cross_polytope(4)
    seq = sb.find_shelling(X).facets
    d, n = X.dim, len(seq)
    for k in range((d - 1) // 2, d + 1):
        sb.verify_lower_bound(X, seq, k)
    sb.facet_decomposition(X, seq)
    for j in range(1, n):
        sb.find_witness_pair(X, seq, j)
    for k in range(d // 2, d + 1):
        sb.check_split_count(X, seq, n // 2, k)
    assert verifications == [X]


@pytest.mark.parametrize("name", sorted(CHECK_ONCE))
def test_per_facet_bounds_match_the_prefixed_search(name):
    # the prefixed sub-shelling read from the certificate counts the same
    # faces as a fresh search of the facet boundary with that prefix
    L = CHECK_ONCE[name]()
    seq = sb.find_shelling(L).facets
    d = L.dim
    splits = sb.facet_decomposition(L, seq).splits
    for k in range((d - 1) // 2, d):
        report = sb.verify_lower_bound(L, seq, k)
        expected = []
        for split in splits:
            sub = sb.sub_lattice(L, split.facet)
            prefix = [r for r in sub.facets() if r in split.before]
            counted = sb.check_split_count(
                sub, sb.find_shelling(sub, prefix), len(prefix), k
            )
            expected.append(sb.PerFacetBound(split.j, counted.fk_begin, counted.fk_end, counted.rhs))
        assert report.per_facet == tuple(expected), k


@pytest.mark.parametrize("name", ["cross-polytope-3", "hypercube-boundary-3"])
def test_corollaries_search_each_direction_once(name):
    L = CHECK_ONCE[name]()
    budget = sb.SearchBudget()
    assert spent(sb.corollary_bounds, L, 0, budget=budget) > 0
    for k in range(1, L.dim + 1):
        assert spent(sb.corollary_bounds, L, k, budget=budget) == 0, k
    assert spent(sb.barany_check, L) == 0
    assert spent(sb.is_cl_shellable, L) == 0
    assert spent(sb.is_dual_cl_shellable, L) == 0


# -- one kept certificate per lattice ------------------------------------


def plain(result):
    """A proof-route result as values that do not name its lattice: face
    sets as ids, certificates as their JSON, errors as type and message."""
    if isinstance(result, sb.FaceLattice):
        return None
    if isinstance(result, BaseException):
        return type(result).__name__, str(result)
    if isinstance(result, (sb.Subcomplex, sb.FaceSet)):
        return type(result).__name__, result.lattice._ids_of(result.mask)
    if isinstance(result, (sb.ShellingCertificate, sb.ShellingFailure)):
        return type(result).__name__, result.to_json_dict()
    if isinstance(result, tuple):
        return tuple(plain(item) for item in result)
    fields = type(result).__dict__.get("__annotations__")
    if fields:
        return type(result).__name__, tuple(plain(getattr(result, f)) for f in fields)
    return result


def proof_route_calls(L: sb.FaceLattice) -> list:
    """Every proof-route call on the lattice's first shelling (its sorted
    facets when it has none) and on the reverse of that order, and the
    corollaries at every k."""
    try:
        found = sb.find_shelling(fresh_copy(L))
    except sb.ShellboundError:
        found = None
    seq = found.facets if found else tuple(sorted(L.facets()))
    d, n = L.dim, len(seq)
    # split positions that every call refuses, warm or fresh
    bad = (-1, n + 1, 2.0, True)
    # and dimensions k that every call refuses, as any k out of range
    bad_k = (True, 1.0)
    calls = []
    for order in (seq, seq[::-1]):
        calls.append((sb.is_shelling, order))
        calls.append((sb.facet_decomposition, order))
        calls += [(sb.verify_lower_bound, order, k) for k in (*range(-1, d + 2), *bad_k)]
        calls += [(sb.find_witness_pair, order, j) for j in (*range(n + 1), *bad)]
        calls += [(sb.split_complexes, order, j) for j in (0, 1, n // 2, n, *bad)]
        calls += [(sb.check_split_count, order, j, k) for j in (0, n // 2, n) for k in range(d + 1)]
        calls += [(sb.check_split_count, order, j, d) for j in bad]
        calls += [(sb.check_split_count, order, n // 2, k) for k in bad_k]
    calls += [(sb.corollary_bounds, k) for k in (*range(-1, d + 2), *bad_k)]
    calls.append((sb.barany_check,))
    return calls


def run_call(L: sb.FaceLattice, call: tuple):
    fn, *args = call
    try:
        return plain(fn(L, *args))
    except sb.ShellboundError as exc:
        return plain(exc)


def assert_shared_lattice_answers_as_fresh(
    L: sb.FaceLattice, rng: random.Random, fresh=fresh_copy
) -> None:
    calls = proof_route_calls(L)
    rng.shuffle(calls)
    for call in calls:
        assert run_call(L, call) == run_call(fresh(L), call), call


def test_shared_lattice_answers_as_a_fresh_one_on_the_corpus():
    rng = random.Random(13)
    cases = [L for _, L in spheres_d_le_3()] + [L for _, L in balls()]
    cases += [doubled_triangle(), bowtie(), mixed_dims_by_hand()]
    for L in cases:
        assert_shared_lattice_answers_as_fresh(fresh_copy(L), rng)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graded_bounded_posets, st.randoms(use_true_random=False))
def test_shared_lattice_answers_as_a_fresh_one_on_posets(L, rng):
    assert_shared_lattice_answers_as_fresh(L, rng)


def test_shared_lattice_answers_as_a_fresh_one_on_subdivided_pyramids_and_prisms():
    rng = random.Random(41)
    cases = [(name, make()) for name, (make, _) in SUBDIVIDED.items()]
    cases += [(name, make(base())) for make in (pyramid, prism)
              for name, base in PRODUCT_BASES.items()]
    for name, L in cases:
        # a JSON round trip renames a dual's extremes, which keep the
        # host's ids, so a dual is compared with a copy, whose memo is
        # empty too
        fresh = copy.copy if name.startswith("dual-") else fresh_copy
        assert_shared_lattice_answers_as_fresh(L, rng, fresh)


def test_witnesses_before_bounds_answer_as_fresh():
    # the cuts a witness keeps serve the split counts and the bounds after it
    L = sb.hypercube_boundary(3)
    seq = sb.find_shelling(fresh_copy(L)).facets
    n, d = len(seq), L.dim
    calls = [(sb.find_witness_pair, seq, j) for j in range(1, n)]
    calls += [(sb.check_split_count, seq, j, k) for j in range(n + 1) for k in range(1, d + 1)]
    calls += [(sb.verify_lower_bound, seq, k) for k in range(d + 1)]
    calls += [(sb.split_complexes, seq, j) for j in range(n + 1)]
    for call in calls:
        assert run_call(L, call) == run_call(fresh_copy(L), call), call
    assert set(L._memo["proof"].cuts) == set(range(n + 1))


def distinct_orders(L: sb.FaceLattice, count: int) -> list:
    """``count`` shellings of ``L`` that differ in their first facet,
    found on a copy so that ``L``'s memo stays empty."""
    M = fresh_copy(L)
    return [sb.find_shelling(M, [f]).facets for f in sorted(M.facets())[:count]]


def test_one_proof_slot_holds_the_last_orders_cuts_alone():
    L = sb.cross_polytope(3)
    orders = distinct_orders(L, 4)
    assert len(set(orders)) == 4
    n = len(orders[0])
    for order in orders:
        pairs = [sb.split_complexes(L, order, j) for j in range(n + 1)]
        proof = L._memo["proof"]
        cuts = proof.cuts
        assert proof.cert.facets == order and whole_certificates(L) == [proof.cert]
        assert sorted(cuts) == list(range(n + 1))
        assert all(cuts[j] is pair for j, pair in enumerate(pairs))
        # a warm cut is the kept one, and equals a fresh lattice's
        assert sb.split_complexes(L, order, n // 2) is pairs[n // 2]
        assert plain(pairs[n // 2]) == plain(sb.split_complexes(fresh_copy(L), order, n // 2))
    assert [key for key in L._memo if key == "proof"] == ["proof"]


@pytest.mark.parametrize("make", [partial(sb.cross_polytope, 3),
                                  partial(sb.hypercube_boundary, 3),
                                  partial(sb.cross_polytope, 4)])
def test_cutting_many_orders_retains_the_memory_of_one(traced, make):
    from shellbound import lattice

    L = make()
    orders = distinct_orders(L, 6)
    n, d = len(orders[0]), L.dim

    def cut_all(orders):
        for order in orders:
            for j in range(n + 1):
                sb.check_split_count(L, order, j, d)

    # the lattice's own arrays are built first, and no order verified
    for build in (sb.is_pseudomanifold, lattice._down_sets, lattice._upper_covers,
                  lattice._boolean_cells):
        build(L)
    _, one, _ = traced(cut_all, orders[:1])
    _, many, _ = traced(cut_all, orders[1:])
    assert 0 < many <= 2 * one


def test_a_hand_built_certificate_is_cut_afresh():
    from shellbound.bounds import _split

    L = sb.cross_polytope(2)
    seq = sb.find_shelling(fresh_copy(L)).facets
    # with no proof kept, and beside a kept one, an equal certificate that
    # is another object is cut afresh and keeps no cut
    equal = sb.is_shelling(L, seq)
    first = _split(equal, 2)
    assert "proof" not in L._memo
    kept = sb.split_complexes(L, seq, 2)
    assert kept == first and kept is not first
    again = _split(equal, 2)
    assert again == kept and again is not kept and again is not first
    assert list(L._memo["proof"].cuts) == [2]
    # a position that is no int, a float or a bool, is refused as on a
    # fresh lattice, even where an equal int was cut, and keeps no cut
    for j in (2.0, True):
        for M in (L, fresh_copy(L)):
            with pytest.raises(sb.InvalidSplit, match=f"got j={j!r}"):
                sb.split_complexes(M, seq, j)
    assert list(L._memo["proof"].cuts) == [2]


def test_split_and_decomposition_leave_the_memo_as_it_stands():
    from shellbound.bounds import _decomposition, _split

    L = sb.cross_polytope(3)
    seq = sb.find_shelling(L).facets
    cert = sb.is_shelling(L, seq)
    hand = sb.ShellingCertificate(L, cert.cell, cert.facets, cert.steps)
    # the lattice's own set-once fact that both read is derived first
    sb.is_pseudomanifold(L)
    assert "proof" not in L._memo
    for keep_a_proof in (False, True):
        if keep_a_proof:
            sb.facet_decomposition(L, seq)
            sb.split_complexes(L, seq, 2)
        state = memo_state(L)
        for j in range(len(seq) + 1):
            _split(hand, j)
            assert_memo_is(L, state)
        _decomposition(hand)
        assert_memo_is(L, state)
    proof = L._memo["proof"]
    assert _split(hand, 2) == proof.cuts[2] and _split(hand, 2) is not proof.cuts[2]
    assert _decomposition(hand) == proof.decomposition
    assert _decomposition(hand) is not proof.decomposition


def test_a_decomposition_that_raises_is_not_kept(monkeypatch):
    from shellbound import bounds

    L = sb.cross_polytope(3)
    seq = sb.find_shelling(fresh_copy(L)).facets
    # the bound at k = d reads no decomposition
    sb.verify_lower_bound(L, seq, L.dim)
    proof = L._memo["proof"]
    assert "decomposition" not in vars(proof)
    derived = []
    decomposition = bounds._decomposition

    def fails_once(cert):
        derived.append(cert)
        if len(derived) == 1:
            raise sb.InternalContradiction("planted")
        return decomposition(cert)

    monkeypatch.setattr(bounds, "_decomposition", fails_once)
    with pytest.raises(sb.InternalContradiction, match="planted"):
        proof.decomposition
    assert L._memo["proof"] is proof and "decomposition" not in vars(proof)
    first = proof.decomposition
    assert proof.decomposition is first and derived == [proof.cert, proof.cert]
    assert plain(first) == plain(sb.facet_decomposition(fresh_copy(L), seq))


def test_the_memo_holds_the_keys_the_lattice_docstring_lists():
    import re

    from shellbound import lattice

    doc = lattice.__doc__
    listing = doc[doc.index("A lattice keeps one memo"):doc.index("A :class:`Subcomplex`")]
    listed = set(re.findall(r'``"([^"`]+)"``', listing))
    sphere = sb.cross_polytope(3)
    kept = []
    for L in (sphere, sb.punctured(sphere)):
        seq = sb.find_shelling(L).facets
        sb.is_shelling(L, seq)
        for call in proof_route_calls(L):
            run_call(L, call)
        sb.is_simplicial(L)
        sb.simplicial_equality_identity(L)
        kept.append({key for key in L._memo if isinstance(key, str)})
    # the ball passes no diamond test, so it keeps no dual and no verdict
    # of the corollaries
    assert kept[0] == listed
    assert kept[1] == listed - {"dual", "dual CL-shellable", "CL-shellable"}


def h_vector(L: sb.FaceLattice) -> list:
    """The h-vector of a pure simplicial complex with facets of d
    vertices: h_k = sum over i <= k of (-1)^(k-i) C(d-i, k-i) f_(i-1)."""
    counts, d = sb.f_vector(L).counts, L.dim + 1
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * counts[i] for i in range(k + 1))
            for k in range(d + 1)]


def assert_a_simplicial_three_sphere(L: sb.FaceLattice) -> None:
    """Euler and Dehn-Sommerville: the alternating sum of the f-vector
    vanishes, f_2 = 2 f_3 and the h-vector is symmetric."""
    f = sb.f_vector(L)
    assert f[0] - f[1] + f[2] - f[3] == 0 and f[2] == 2 * f[3]
    h = h_vector(L)
    assert h == h[::-1] and h[0] == 1
    assert sb.is_simplicial(L) and sb.boundary_complex(L).mask == 0


@pytest.mark.parametrize("n, seed", [
    *(pytest.param(6 + seed % 9, seed, id=str(seed)) for seed in range(20)),
    pytest.param(24, 0, id="n24-0"),
    pytest.param(30, 0, id="n30-0"),
])
def test_random_bistellar_three_spheres_take_the_proof_route(n, seed):
    L = bistellar_sphere(n, seed)
    assert_a_simplicial_three_sphere(L)
    assert sb.is_lattice(L) and sb.is_diamond(L) and sb.is_pseudomanifold(L)
    fingerprint = L.fingerprint()
    assert sb.dualize(sb.dualize(L)).fingerprint() == fingerprint
    text = json.dumps(sb.lattice_to_json_dict(L))
    assert sb.lattice_from_json_dict(json.loads(text)).fingerprint() == fingerprint
    order = sb.find_shelling(L)
    assert isinstance(sb.is_shelling(L, order), sb.ShellingCertificate)
    for k in (1, 2, 3):
        report = sb.verify_lower_bound(L, order, k)
        assert report.ok and report.equality == (k >= 2)
    for k in range(L.dim + 1):
        r = sb.corollary_bounds(L, k)
        assert r.dual_cl_shellable and r.cl_shellable, k
        assert r.barany_ok and False not in (r.facet_bound_ok, r.vertex_bound_ok), k
    # the whole proof route, on a lattice the calls above have warmed, on
    # every fourth sphere of the first twenty
    if n < 24 and seed % 4 == 0:
        assert_shared_lattice_answers_as_fresh(L, random.Random(seed))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_spheres_meet_the_bound_with_equality_at_the_top_two_dimensions(d):
    # each stacking adds a vertex and the cone over a facet's boundary
    for m in range(7):
        for seed in range(3):
            L = stacked_sphere(d, m, seed)
            f = sb.f_vector(L)
            assert [f[k] for k in range(d + 1)] == [
                *(comb(d + 2, k + 1) + m * comb(d + 1, k) for k in range(d)), d + 2 + m * d
            ], (m, seed)
            assert h_vector(L) == [1, *[m + 1] * d, 1], (m, seed)
            order = sb.find_shelling(L)
            assert isinstance(sb.is_shelling(L, order), sb.ShellingCertificate), (m, seed)
            for k in range((d - 1) // 2, d + 1):
                report = sb.verify_lower_bound(L, order, k)
                assert report.ok and report.equality == (k >= d - 1), (m, seed, k)
            for k in range(d + 1):
                r = sb.corollary_bounds(L, k)
                assert r.dual_cl_shellable and r.cl_shellable, (m, seed, k)
                assert False not in (r.facet_bound_ok, r.vertex_bound_ok, r.barany_ok), (m, seed, k)



def test_polygonal_balls_are_shellable_and_meet_the_bound():
    # non-simplicial CW 2-balls, the paper's generalisation: the gluing
    # order is a shelling, and equality holds at k = 1 exactly when every
    # polygon is a triangle
    for m in range(1, 9):
        for seed in range(5):
            B = polygonal_ball(m, seed)
            glued = tuple(f"p{t}" for t in range(1, m + 1))
            assert sb.is_lattice(B), (m, seed)
            assert isinstance(sb.is_shelling(B, glued), sb.ShellingCertificate), (m, seed)
            assert sb.find_shelling(B) is not None, (m, seed)
            triangles = all(len(B.lower_covers(p)) == 3 for p in glued)
            assert sb.is_simplicial(B) == triangles, (m, seed)
            for k in range(3):
                report = sb.verify_lower_bound(B, glued, k)
                assert report.ok, (m, seed, k)
                assert report.equality == (k == 2 or k == 1 and triangles), (m, seed, k)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed", [0, 5])
def test_hard_bistellar_three_spheres_run_out_and_never_answer_no(seed):
    # the facets of bistellar_sphere(120, seed), kept as data so that the
    # pin holds whatever the generator becomes; 0 and 5 are the seeds in
    # 0-5 whose sphere a cold find at 10**5 nodes does not finish: ran out
    # must never read as unshellable
    L = sb.from_facets(sb.parse_facet_text((DATA / f"bistellar-120-{seed}.txt").read_text()))
    assert sb.f_vector(L)[0] == 120
    assert_a_simplicial_three_sphere(L)
    budget = sb.SearchBudget(10**5)
    with pytest.raises(sb.BudgetExceeded):
        sb.find_shelling(L, budget=budget)
    assert budget.spent == 100_001
