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


# sha256 of the certificate or failure JSON and the nodes spent, for the
# found order, its reverse, and its first facet followed by the rest
# reversed, strict and permissive, each mode on a fresh lattice: pins the
# certificate bytes of check-shelling reports and what verification spends
CERTIFICATE_SHA256 = {
    "simplex-boundary-1": "b1210a9834cba3695f8b6f1078a1819a369aa858f3e648eadf158df36c9828f4",
    "punctured-simplex-boundary-1": "631b8df20ad9c047b04b5f0d27b5aeedf53d38ac6c046002d38afe5705b6a040",
    "simplex-boundary-2": "3a66da816637087baeb074efd1947077fed5bc007275e9c23100d9b651e34ed8",
    "punctured-simplex-boundary-2": "6d10b618a4b0ef84bb1ad4220cc7dc37cf817be5bc00984d3a48bfe7f7985aa7",
    "simplex-boundary-3": "22cb362c74c16fd7cc572b3597cf8295c69cbcd4d719215e8132ea706dc76b83",
    "punctured-simplex-boundary-3": "f158b7edd37dd8f53ebd9e9e32a1e855db3528936c426951a248ff479f654ea5",
    "cross-polytope-1": "76a82571b99f2c6393e2531c1f19112ba7d965098c09fe6552fb51015f3f41c2",
    "punctured-cross-polytope-1": "19c2bbe250f7ac94097034f84b989a3dbd3d7bff6e2f66252cc550f9d3b4cb9e",
    "cross-polytope-2": "8c54ac6dbf1f5df8fa8d27547ab251dfb1dae98639fbd13ca40f1f76c75c796c",
    "punctured-cross-polytope-2": "93762dff6e58876fd8be84c634698f89ffbf6ce55d4c9a26c392e672d6ce8e7a",
    "cross-polytope-3": "f3b25994ed9ebcc63656666e1a6eb2004a1218ec108f227bbd0227ae1c709cbe",
    "punctured-cross-polytope-3": "ed2f5323de233f4e65b8029b97e99322cf521d1cea86ebf263f4a3552a61306b",
    "ngon-3": "a7f6890576c5eff0badb6f6a3db0a147b7dbda6326a20f4c18cfcb53963282c2",
    "punctured-ngon-3": "5ef1b94df866871e64791d14e1524a6cb59d4837befa5bed56b12a19f53428c7",
    "ngon-4": "0dcdee3dc909f5a02906ee8a74acdbf2550f5865388877fe8ee51309ddc98381",
    "punctured-ngon-4": "c8bfc16f80a9c0aafb43c3d0e086cf25686f3f0b7fce17109d85e3ea08ba6afc",
    "ngon-5": "adaebc47eb5b25af8e75d9373935888d8d3e9e7d9f6b284ba023a43ef7cec790",
    "punctured-ngon-5": "11141603610e36eeb48414e975127a71d84e9c70b972e6765613e268888ed805",
    "ngon-6": "39613ef397e7692bd88572ddb60c59b5b3d4d83db85425092319ac9e128e4dea",
    "punctured-ngon-6": "037ad41fd4995f0f4559cf86485c5bb84636c8c4a292ceb495542018eb3ecbe4",
    "ngon-7": "b8d216bb37024875f9695f60a4522bc99d7b5efce52fee0a5690dbc03ace6339",
    "punctured-ngon-7": "1019fbf549b02b926f757a32b54da6e6eab6f4076d704a80f4e5ea51f2b8a38a",
    "ngon-8": "566925dce599af396bb4bd724359392b1073a582429e7744915a71ea4c9a5198",
    "punctured-ngon-8": "aeea6c2e26d2669b1869dd216676d044027064afa72db296461c06d1bf6e1ddc",
    "cyclic-4-5": "22cb362c74c16fd7cc572b3597cf8295c69cbcd4d719215e8132ea706dc76b83",
    "punctured-cyclic-4-5": "f158b7edd37dd8f53ebd9e9e32a1e855db3528936c426951a248ff479f654ea5",
    "cyclic-4-6": "eb63f52d955c8b16e300e2577e8913b56e563129976e6e1dd4a6d39c87b61c89",
    "punctured-cyclic-4-6": "33197496315f0efc88f3e309080f9900199d67cfd238e0e28736690e612ef101",
    "cyclic-4-7": "213837d0b6a1104856a2da73c943f7725d6e5082d82ed40e00694d64980f93cd",
    "punctured-cyclic-4-7": "5e6761acec68c61963a42fe18f5a46f4ac1a5199e39b69152843f6af8edc3e24",
}


def _certificate_record(L: sb.FaceLattice) -> str:
    lines = []
    for permissive in (False, True):
        fresh = sb.lattice_from_json_dict(sb.lattice_to_json_dict(L))
        bud = sb.SearchBudget()
        seq = sb.find_shelling(fresh, budget=bud, allow_empty_intersection=permissive).facets
        lines.append(f"find {permissive} {bud.spent}")
        for order in (seq, seq[::-1], seq[:1] + seq[:0:-1]):
            bud = sb.SearchBudget()
            res = sb.is_shelling(fresh, order, budget=bud, allow_empty_intersection=permissive)
            record = [type(res).__name__, res.to_json_dict(), bud.spent]
            lines.append(json.dumps(record, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_certificate_bytes_and_spend_are_pinned():
    cases = []
    for name, L in spheres_d_le_3():
        cases += [(name, L), (f"punctured-{name}", sb.punctured(L))]
    digests = {name: _certificate_record(L) for name, L in cases}
    assert digests == CERTIFICATE_SHA256


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


def test_negative_budget_is_rejected():
    with pytest.raises(sb.RangeError):
        sb.find_shelling(sb.cross_polytope(2), budget=-1)


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
