import hashlib
import json
from itertools import permutations

import pytest

import shellbound as sb
from shellbound import BOTTOM_ID

from corpus import balls, shelled_spheres_d_le_3, spheres_d_le_3
from oracles import expand_certificate, naive_is_shelling, nested_certificate

SQUARE_ORDER = ("e12", "e23", "e34", "e41")


def two_circles() -> sb.FaceLattice:
    return sb.from_facets([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])


# -- boundary_intersection ----------------------------------------------


def test_boundary_intersection_square():
    g = sb.ngon(4)
    assert sb.boundary_intersection(g, SQUARE_ORDER, 2).members == {BOTTOM_ID, "v2"}
    assert sb.boundary_intersection(g, SQUARE_ORDER, 4).members == {BOTTOM_ID, "v1", "v4"}


def test_boundary_intersection_octahedron_adjacent():
    oct_ = sb.cross_polytope(2)
    inter = sb.boundary_intersection(oct_, ("123", "126"), 2)
    # the shared closed edge
    assert sb.f_vector(inter).proper == (2, 1)
    assert "12" in inter


def test_boundary_intersection_index_bounds():
    g = sb.ngon(4)
    with pytest.raises(sb.IndexOutOfRange):
        sb.boundary_intersection(g, SQUARE_ORDER, 1)
    with pytest.raises(sb.IndexOutOfRange):
        sb.boundary_intersection(g, SQUARE_ORDER, 5)


def test_boundary_intersection_accepts_partial_orders():
    oct_ = sb.cross_polytope(2)
    # only the first j entries matter, so a plain prefix sequence works
    inter = sb.boundary_intersection(oct_, ("123", "456"), 2)
    assert inter.members == {BOTTOM_ID}


# -- is_shelling ---------------------------------------------------------


def test_square_cyclic_order_accepted():
    g = sb.ngon(4)
    cert = sb.is_shelling(g, SQUARE_ORDER)
    assert isinstance(cert, sb.ShellingCertificate)
    assert [s.facet for s in cert.steps] == list(SQUARE_ORDER)
    assert cert.steps[0].intersection_facets == ()
    assert cert.steps[1].intersection_facets == ("v2",)
    assert cert.steps[3].intersection_facets == ("v1", "v4")


def test_square_disconnected_order_rejected():
    g = sb.ngon(4)
    failure = sb.is_shelling(g, ("e12", "e34", "e23", "e41"))
    assert failure == sb.ShellingFailure(2, "EmptyIntersection")
    assert failure.to_json_dict() == {"step": 2, "reason": "EmptyIntersection"}


def test_square_disconnected_order_tolerated_when_permissive():
    g = sb.ngon(4)
    cert = sb.is_shelling(g, ("e12", "e34", "e23", "e41"), allow_empty_intersection=True)
    assert isinstance(cert, sb.ShellingCertificate)
    assert cert.steps[1].intersection_facets == ()


def test_octahedron_antipodal_start_rejected():
    oct_ = sb.cross_polytope(2)
    order = ("123", "456", "126", "135", "156", "234", "246", "345")
    failure = sb.is_shelling(oct_, order)
    assert failure == sb.ShellingFailure(2, "EmptyIntersection")


def test_octahedron_vertex_touch_rejected_as_not_pure():
    oct_ = sb.cross_polytope(2)
    # 123 and 345 share only the vertex 3
    order = ("123", "345", "126", "135", "156", "234", "246", "456")
    failure = sb.is_shelling(oct_, order)
    assert failure == sb.ShellingFailure(2, "NotPure")


def test_is_shelling_validates_input():
    g = sb.ngon(4)
    with pytest.raises(sb.PreconditionViolated):
        sb.is_shelling(g, ("e12", "e23"))
    with pytest.raises(sb.PreconditionViolated):
        sb.is_shelling(g, ("e12", "e12", "e23", "e34"))
    other = sb.ngon(4)
    order = sb.ShellingOrder(other, other.facets())
    with pytest.raises(sb.PreconditionViolated):
        sb.is_shelling(g, order)


def test_is_shelling_needs_pure_input():
    L = sb.build_lattice(
        [(BOTTOM_ID, 0), ("_top", 4), ("v1", 1), ("v2", 1), ("v3", 1), ("v4", 1),
         ("e12", 2), ("e13", 2), ("e23", 2), ("e34", 2), ("f", 3)],
        [(BOTTOM_ID, "v1"), (BOTTOM_ID, "v2"), (BOTTOM_ID, "v3"), (BOTTOM_ID, "v4"),
         ("v1", "e12"), ("v2", "e12"), ("v1", "e13"), ("v3", "e13"),
         ("v2", "e23"), ("v3", "e23"), ("v3", "e34"), ("v4", "e34"),
         ("e12", "f"), ("e13", "f"), ("e23", "f"), ("f", "_top")],
        2,
    )
    with pytest.raises(sb.PreconditionViolated):
        sb.is_shelling(L, ("f",))


def test_certificate_steps_replay(lattice_builds):
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    lattice_builds.count = 0
    cert = sb.is_shelling(oct_, order)
    assert isinstance(cert, sb.ShellingCertificate)
    assert lattice_builds.count == 0
    for step in cert.steps[1:]:
        # reading a sub-certificate's order binds it to the cell's lattice
        sub = step.sub_certificate.order.lattice
        assert sub.fingerprint() == sb.sub_lattice(oct_, step.facet).fingerprint()
        got = step.sub_certificate.order.facets[: len(step.intersection_facets)]
        assert sorted(got) == sorted(step.intersection_facets)
        assert isinstance(sb.is_shelling(sub, step.sub_certificate.order), sb.ShellingCertificate)
        # depth-2 orders are shellings of the cell lattices
        for inner in step.sub_certificate.steps:
            cell = sb.sub_lattice(oct_, inner.facet)
            order = inner.sub_certificate.order.facets
            assert isinstance(sb.is_shelling(cell, order), sb.ShellingCertificate)


@pytest.mark.parametrize(
    "L", [sb.cross_polytope(3), sb.simplex_boundary(5)], ids=["cross-3", "simplex-5"]
)
def test_verification_builds_no_lattice(L, lattice_builds):
    cert = sb.is_shelling(L, sb.find_shelling(L))
    assert isinstance(cert, sb.ShellingCertificate)
    assert lattice_builds.count == 0
    # reading a sub-certificate's order builds its cell lattice, once
    step = cert.steps[-1]
    sub = step.sub_certificate
    assert sub.order is sub.order
    assert lattice_builds.count == 1
    assert sub.order.lattice.fingerprint() == sb.sub_lattice(L, step.facet).fingerprint()
    assert cert.order.lattice is L
    assert sb.classify(L, cert) is sb.Shape.SPHERE


def test_certificate_node_table_loses_nothing():
    cases = [(name, L) for name, L, _ in shelled_spheres_d_le_3()] + list(balls())
    for name, L in cases:
        cert = sb.is_shelling(L, sb.find_shelling(L))
        doc = cert.to_json_dict()
        assert expand_certificate(doc) == nested_certificate(cert), name

        # one node per distinct (cell, order) reachable, each referenced,
        # numbered in first-visit depth-first order
        pairs, stack = set(), [cert]
        while stack:
            for step in stack.pop().steps:
                sub = step.sub_certificate
                pairs.add((step.facet, tuple(sub.order.facets)))
                stack.append(sub)
        nodes = doc["nodes"]
        assert {(n["cell"], tuple(n["order"])) for n in nodes} == pairs, name
        assert len(nodes) == len(pairs), name

        first_seen: list[int] = []

        def visit(node):
            for step in node["steps"]:
                ref = step["sub_certificate"]
                if ref not in first_seen:
                    first_seen.append(ref)
                    visit(nodes[ref])

        visit(doc)
        assert first_seen == list(range(len(nodes))), name

        # the JSON depends on the certificate's value only
        copy = sb.lattice_from_json_dict(sb.lattice_to_json_dict(L))
        again = sb.is_shelling(copy, cert.order.facets)
        assert json.dumps(again.to_json_dict()) == json.dumps(doc), name


def test_zero_sphere_any_order_is_shelling():
    L = sb.from_facets([[1], [2]])
    cert = sb.is_shelling(L, ("2", "1"))
    assert isinstance(cert, sb.ShellingCertificate)
    assert cert.to_json_dict() == {"order": ["2", "1"], "steps": [], "nodes": []}


# sha256 of the certificate or failure JSON for the found order, its
# reverse, and its first facet followed by the rest reversed, strict and
# permissive, each mode on a fresh lattice: pins the certificate bytes of
# check-shelling reports
CERTIFICATE_SHA256 = {
    "simplex-boundary-1": "d9a8b338a8303165f2f958e9f8f0f036eae26a55f2c6e53f09d391e627c748f4",
    "punctured-simplex-boundary-1": "481c4330d1e7e8e3c91dd393b6206dba1418fbde0122b805ba2346b094e79f49",
    "simplex-boundary-2": "114783972454fc00e3f937b074e0bf1777dbb4e8d2137ef58a8b47f45b88b568",
    "punctured-simplex-boundary-2": "bc00707e86935ec32a995aebf3423f265c4e9c69deb8c459c2d09ffe3ead7fae",
    "simplex-boundary-3": "44c8296abadec4509be6b2d45f2d282b369c0faee18713918f0d977b7c9eebf1",
    "punctured-simplex-boundary-3": "346bf98dd5b56f1ce7981b8c974b92ac8b12ab1c2c2e9e31068afbf10dcaa5e5",
    "cross-polytope-1": "e3f87cbd6a08fc807ba72056da4980129b38f40343c7f024ac4904aa612bc255",
    "punctured-cross-polytope-1": "1c80a6dd8b80b94be28561fb7fcecf6711040befe72b8a79a7f8ccd895db45c1",
    "cross-polytope-2": "07c099145bf208be9bf12b94423e6f54e5966e582065cc02c71222ee968c4eaf",
    "punctured-cross-polytope-2": "c4b859aa1a5bff8b5c9c133a205a1cb15721dc1cba876fdb92aacece7a3de864",
    "cross-polytope-3": "e01a4fab639143944045a9d2c323c23ca5b5f311e8dd3422db860f54d72071eb",
    "punctured-cross-polytope-3": "b0f51ebe4a7ae466517bd4204069f6cc37534eca8b530809572f3178fa26cb6d",
    "ngon-3": "8ce21c74007d9b58f09dadd08cfcc94dd6e9f710985d71282300e42100f4f7aa",
    "punctured-ngon-3": "c2c58499a4073aa5e9a9456ae7dbb6d181d4421e7a5f1c8882b1f862952c675e",
    "ngon-4": "2db299030a98a72cffb407a74d00c6419ab5a6c5f6728bd9dabb61a422296fc6",
    "punctured-ngon-4": "880f40bd7a18284becc4b650cb290d34c3932b37ecbee747f5dd79b6765347dc",
    "ngon-5": "10dd9ef1a3e56a51fe026a5d7223ff4413f2d5d6a20595bec8144f002e1aaf18",
    "punctured-ngon-5": "ffce0c77eb03f54a8b1d21b09536b84fbb631c1bf0ab87fc33b41248f411593c",
    "ngon-6": "a3718fe4d88e8fa473e520e8ff250f5d44360f146082667ddab2a055b7f2561a",
    "punctured-ngon-6": "bc5cc4f532a9116a401555e5f99fffcdb82d03e489a8019dfd5e248a8d88bb55",
    "ngon-7": "137c030fa45fe20aa9ee61540a95677f7e7123c7587168f4bb7c13eef7162a0f",
    "punctured-ngon-7": "2a42baf0f931032363e6b57f56aabb8b3ad82b144928aa6c93498fa7c8e64da9",
    "ngon-8": "f0f98018f8b6d3b2a33bf1d48760750e73ebe6ed806bf35503705649bd666788",
    "punctured-ngon-8": "9d3aae4ef76abfdda7bd0b87c9068f113563a412fbe81a14254efa200509ee3e",
    "cyclic-4-5": "44c8296abadec4509be6b2d45f2d282b369c0faee18713918f0d977b7c9eebf1",
    "punctured-cyclic-4-5": "346bf98dd5b56f1ce7981b8c974b92ac8b12ab1c2c2e9e31068afbf10dcaa5e5",
    "cyclic-4-6": "8300e638f73ae78612f60c1e5878924c224b4a1e2a307e71df9bb718bbe115d1",
    "punctured-cyclic-4-6": "d085249b9e712946740b8d7b2490d78dd3ea6d05222ac504f935666618a93534",
    "cyclic-4-7": "06ccf886e1f1e0c4d88f45c9b65026862c16a80f9708d1b3fffc344d6c6d971d",
    "punctured-cyclic-4-7": "1e4b4da2428111a8d2b7d4bbe8e624bf368e098e0b26d42ff0d319ac194996da",
}

# the nodes spent by the same calls: the search, then the three
# verifications, strict and then permissive.  Verifying a simplicial
# complex searches nothing, since every facet is a simplex, and no
# 1-dimensional complex is searched, since its order is grown greedily.
CERTIFICATE_SPENT = {
    "simplex-boundary-1": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-simplex-boundary-1": (0, 0, 0, 0, 0, 0, 0, 0),
    "simplex-boundary-2": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-simplex-boundary-2": (3, 0, 0, 0, 3, 0, 0, 0),
    "simplex-boundary-3": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-simplex-boundary-3": (4, 0, 0, 0, 4, 0, 0, 0),
    "cross-polytope-1": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-cross-polytope-1": (0, 0, 0, 0, 0, 0, 0, 0),
    "cross-polytope-2": (8, 0, 0, 0, 8, 0, 0, 0),
    "punctured-cross-polytope-2": (12, 0, 0, 0, 12, 0, 0, 0),
    "cross-polytope-3": (16, 0, 0, 0, 16, 0, 0, 0),
    "punctured-cross-polytope-3": (32, 0, 0, 0, 32, 0, 0, 0),
    "ngon-3": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-ngon-3": (0, 0, 0, 0, 0, 0, 0, 0),
    "ngon-4": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-ngon-4": (0, 0, 0, 0, 0, 0, 0, 0),
    "ngon-5": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-ngon-5": (0, 0, 0, 0, 0, 0, 0, 0),
    "ngon-6": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-ngon-6": (0, 0, 0, 0, 0, 0, 0, 0),
    "ngon-7": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-ngon-7": (0, 0, 0, 0, 0, 0, 0, 0),
    "ngon-8": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-ngon-8": (0, 0, 0, 0, 0, 0, 0, 0),
    "cyclic-4-5": (0, 0, 0, 0, 0, 0, 0, 0),
    "punctured-cyclic-4-5": (4, 0, 0, 0, 4, 0, 0, 0),
    "cyclic-4-6": (9, 0, 0, 0, 9, 0, 0, 0),
    "punctured-cyclic-4-6": (12, 0, 0, 0, 12, 0, 0, 0),
    "cyclic-4-7": (14, 0, 0, 0, 14, 0, 0, 0),
    "punctured-cyclic-4-7": (27, 0, 0, 0, 27, 0, 0, 0),
}


def _certificate_record(L: sb.FaceLattice) -> tuple[str, tuple[int, ...]]:
    lines, spends = [], []
    for permissive in (False, True):
        fresh = sb.lattice_from_json_dict(sb.lattice_to_json_dict(L))
        bud = sb.SearchBudget()
        seq = sb.find_shelling(fresh, budget=bud, allow_empty_intersection=permissive).facets
        spends.append(bud.spent)
        for order in (seq, seq[::-1], seq[:1] + seq[:0:-1]):
            bud = sb.SearchBudget()
            res = sb.is_shelling(fresh, order, budget=bud, allow_empty_intersection=permissive)
            lines.append(json.dumps([type(res).__name__, res.to_json_dict()], sort_keys=True))
            spends.append(bud.spent)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), tuple(spends)


def test_certificate_bytes_and_spend_are_pinned():
    cases = []
    for name, L in spheres_d_le_3():
        cases += [(name, L), (f"punctured-{name}", sb.punctured(L))]
    records = {name: _certificate_record(L) for name, L in cases}
    assert {name: digest for name, (digest, _) in records.items()} == CERTIFICATE_SHA256
    assert {name: spends for name, (_, spends) in records.items()} == CERTIFICATE_SPENT


# -- find_shelling -------------------------------------------------------


def test_find_shelling_octahedron():
    oct_ = sb.cross_polytope(2)
    order = sb.find_shelling(oct_)
    assert order is not None
    assert order.facets[0] == "123"
    assert isinstance(sb.is_shelling(oct_, order), sb.ShellingCertificate)
    assert naive_is_shelling(oct_, order.facets)


def test_find_shelling_zero_sphere_and_prefix():
    L = sb.from_facets([[1], [2]])
    assert sb.find_shelling(L).facets == ("1", "2")
    assert sb.find_shelling(L, ("2",)).facets == ("2", "1")


def test_find_shelling_obeys_prefix():
    oct_ = sb.cross_polytope(2)
    prefix = {"456", "156"}
    order = sb.find_shelling(oct_, prefix)
    assert order is not None
    assert set(order.facets[:2]) == prefix
    assert isinstance(sb.is_shelling(oct_, order), sb.ShellingCertificate)


def test_find_shelling_impossible_prefix():
    g = sb.ngon(4)
    assert sb.find_shelling(g, ("e12", "e34")) is None


def test_find_shelling_rejects_foreign_prefix():
    with pytest.raises(sb.PreconditionViolated):
        sb.find_shelling(sb.ngon(4), ("e99",))


def test_find_shelling_deterministic():
    a = sb.find_shelling(sb.cross_polytope(2))
    b = sb.find_shelling(sb.cross_polytope(2))
    assert a.facets == b.facets


def _first_accepted(L, prefix=()):
    for perm in permutations(sorted(L.facets())):
        if perm[: len(prefix)] == prefix and naive_is_shelling(L, perm):
            return perm
    return None


def test_find_shelling_is_lexicographically_first():
    cases = [
        sb.ngon(5),
        sb.simplex_boundary(2),
        sb.hypercube_boundary(2),
        sb.cross_polytope(1),
        sb.punctured(sb.simplex_boundary(3)),
        sb.from_facets([[1, 2, 3], [4, 5, 6]]),
    ]
    for L in cases:
        for prefix in ((), (max(L.facets()),)):
            found = sb.find_shelling(L, prefix)
            got = None if found is None else found.facets
            assert got == _first_accepted(L, prefix), (L, prefix)


def test_find_shelling_unshellable_union():
    L = two_circles()
    assert sb.find_shelling(L) is None
    permissive = sb.find_shelling(L, allow_empty_intersection=True)
    assert permissive is not None
    cert = sb.is_shelling(L, permissive, allow_empty_intersection=True)
    assert isinstance(cert, sb.ShellingCertificate)


def test_square_orders_exhaustive_against_oracle():
    g = sb.ngon(4)
    for perm in permutations(g.facets()):
        verdict = isinstance(sb.is_shelling(g, perm), sb.ShellingCertificate)
        assert verdict == naive_is_shelling(g, perm), perm


def test_corpus_orders_verify_and_satisfy_oracle_on_small_cases():
    for name, L, order in shelled_spheres_d_le_3():
        assert order is not None, name
        assert isinstance(sb.is_shelling(L, order), sb.ShellingCertificate), name
        if len(L.facets()) <= 6 and L.dim <= 2:
            assert naive_is_shelling(L, order.facets), name


# -- budget --------------------------------------------------------------


def test_budget_exhaustion_raises():
    with pytest.raises(sb.BudgetExceeded):
        sb.find_shelling(sb.cross_polytope(2), budget=3)


def test_budget_never_false_negative():
    L = sb.ngon(6)
    try:
        got = sb.find_shelling(L, budget=2)
    except sb.BudgetExceeded:
        got = "exhausted"
    # None would claim "no shelling exists", which the budget may never do
    assert got is not None


def test_memo_hit_spends_nothing():
    oct_ = sb.cross_polytope(2)
    first = sb.find_shelling(oct_)
    warm = sb.find_shelling(oct_, budget=0)
    assert warm.facets == first.facets


def test_memo_is_keyed_by_the_permissive_flag():
    L = sb.from_facets([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    seq = sb.find_shelling(L, allow_empty_intersection=True).facets
    for _ in range(2):
        assert isinstance(sb.is_shelling(L, seq, allow_empty_intersection=True), sb.ShellingCertificate)
        strict = sb.is_shelling(L, seq)
        assert strict == sb.ShellingFailure(4, "EmptyIntersection")


def test_negative_budget_is_rejected():
    with pytest.raises(sb.RangeError):
        sb.find_shelling(sb.cross_polytope(2), budget=-1)


def test_budget_must_be_an_int():
    oct_ = sb.cross_polytope(2)
    for bad in (2.7, True, "5", "many", 2.5):
        with pytest.raises(sb.RangeError, match="must be an int"):
            sb.SearchBudget(bad)
        with pytest.raises(sb.RangeError, match="must be an int"):
            sb.find_shelling(oct_, budget=bad)
    assert sb.find_shelling(oct_, budget=10 ** 6) == sb.find_shelling(oct_)


def test_shared_budget_accumulates():
    bud = sb.SearchBudget(10 ** 6)
    sb.find_shelling(sb.cross_polytope(2), budget=bud)
    spent_once = bud.spent
    assert spent_once > 0
    sb.find_shelling(sb.cross_polytope(2), budget=bud)
    assert bud.spent == 2 * spent_once


# -- classify ------------------------------------------------------------


def test_classify_sphere_and_ball():
    oct_ = sb.cross_polytope(2)
    cert = sb.is_shelling(oct_, sb.find_shelling(oct_))
    assert sb.classify(oct_, cert) is sb.Shape.SPHERE

    ball = sb.from_facets([[1, 2, 3], [2, 3, 4]])
    cert_b = sb.is_shelling(ball, sb.find_shelling(ball))
    assert sb.classify(ball, cert_b) is sb.Shape.BALL


def test_classify_demands_matching_certificate():
    oct_ = sb.cross_polytope(2)
    cert = sb.is_shelling(oct_, sb.find_shelling(oct_))
    with pytest.raises(sb.PreconditionViolated):
        sb.classify(sb.ngon(4), cert)
    with pytest.raises(sb.PreconditionViolated):
        sb.classify(oct_, "not a certificate")


def test_classify_refuses_a_non_pseudomanifold():
    # three triangles on one edge: shellable, but not a pseudomanifold
    L = sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    cert = sb.is_shelling(L, ("123", "124", "125"))
    assert isinstance(cert, sb.ShellingCertificate)
    with pytest.raises(sb.NotPseudomanifold):
        sb.classify(L, cert)


def test_classify_refuses_a_sub_certificate(lattice_builds):
    L = sb.cross_polytope(3)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    lattice_builds.count = 0
    with pytest.raises(sb.PreconditionViolated, match="different lattice"):
        sb.classify(L, cert.steps[-1].sub_certificate)
    assert lattice_builds.count == 0


# -- lattice-level shellability views ------------------------------------


def test_cl_and_dual_cl_on_spheres():
    for L in (sb.cross_polytope(2), sb.hypercube_boundary(2), sb.ngon(4)):
        assert sb.is_dual_cl_shellable(L)
        assert sb.is_cl_shellable(L)


def test_cl_checks_need_diamond():
    path = sb.from_facets([[1, 2], [2, 3]])
    with pytest.raises(sb.NotDiamond):
        sb.is_dual_cl_shellable(path)
    with pytest.raises(sb.NotDiamond):
        sb.is_cl_shellable(path)


def test_cl_checks_fail_on_disjoint_union():
    L = two_circles()
    assert not sb.is_dual_cl_shellable(L)
    assert not sb.is_cl_shellable(L)


def test_shelling_order_validates_permutation():
    g = sb.ngon(4)
    with pytest.raises(sb.PreconditionViolated):
        sb.ShellingOrder(g, ("e12", "e23"))
    order = sb.ShellingOrder(g, SQUARE_ORDER)
    assert len(order) == 4
    assert tuple(order) == SQUARE_ORDER
