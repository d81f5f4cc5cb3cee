import copy
import hashlib
import inspect
import json
import pickle
from itertools import permutations

import pytest

import shellbound as sb
from shellbound import BOTTOM_ID

from corpus import balls, fresh_copy, shelled_spheres_d_le_3, spheres_d_le_3
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


def test_square_disconnected_prefix_not_extended():
    # the search applies the same step rule: no order starts e12, e34
    g = sb.ngon(4)
    assert sb.find_shelling(g, ("e12", "e34")) is None
    assert sb.find_shelling(g, ("e12", "e23")).facets[:2] == ("e12", "e23")


def test_shelling_entry_points_take_only_a_budget_keyword():
    for fn in (sb.find_shelling, sb.is_shelling):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["budget"]


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


@pytest.mark.parametrize(
    "make, n",
    [(sb.simplex_boundary, 6), (sb.cross_polytope, 3), (sb.hypercube_boundary, 3)],
    ids=["simplex-6", "cross-3", "cube-3"],
)
def test_verification_and_proof_route_name_no_face_sets(make, n, monkeypatch):
    # a step holds its glued-ridge count, so neither the verifier, the
    # certificate's JSON nor the proof route turns a mask into ids
    order = sb.find_shelling(make(n)).facets
    L = make(n)
    calls = []
    ids_of = sb.FaceLattice._ids_of

    def counting_ids_of(self, mask):
        calls.append(mask)
        return ids_of(self, mask)

    monkeypatch.setattr(sb.FaceLattice, "_ids_of", counting_ids_of)
    cert = sb.is_shelling(L, order)
    assert isinstance(cert, sb.ShellingCertificate)
    cert.to_json_dict()
    for k in range((L.dim - 1) // 2, L.dim + 1):
        assert sb.verify_lower_bound(L, order, k).ok
    for j in range(1, len(order)):
        sb.find_witness_pair(L, order, j)
    assert calls == []


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
# reverse, and its first facet followed by the rest reversed, on a fresh
# lattice: pins the certificate bytes of check-shelling reports
CERTIFICATE_SHA256 = {
    "simplex-boundary-1": "c2c23231d4c8cbdac446f3ecf5d5f803037213ae0af01b4ca7c7437eb3cceac5",
    "punctured-simplex-boundary-1": "5d19f602224496be7f0d119e5538da1214ca6f07e2e83e87e8b46e022dc5459d",
    "simplex-boundary-2": "6ec62fddc053dfc70e8086277081e94c4ee3e925427136a44730957adea6999d",
    "punctured-simplex-boundary-2": "cd90941c49775ae5a94d8b59ccafc33b1190c20927684d22766acefde1ce75d6",
    "simplex-boundary-3": "96b99b745713c610100ee3310a6198e45f8e2c3a37dc54f81df84b3ddfb4f690",
    "punctured-simplex-boundary-3": "3bcc94ebe6f2bbcc9f7352e06515a79716ca948845d2429d494515469efc257a",
    "cross-polytope-1": "c69c60dc5fd8e5c26021e712ba524471a5f220dd9f977d3ded4be94acbf4b236",
    "punctured-cross-polytope-1": "385ddc175dca0a545186f21a7dcc3676c7f77a75e3ff6db4f570217ed1af017d",
    "cross-polytope-2": "21a42574801a67a2b07308ee462c1eb46db7d4171c4943cbb8ec59d1a5610e63",
    "punctured-cross-polytope-2": "d07155973bbb03173db26feafc84f6ff4e099e30845aed0e62c64b57134c23f2",
    "cross-polytope-3": "8d1c961e9f60f46ce893e9ca55c2bb3fb1ff75031c7c67bf66614d1345961375",
    "punctured-cross-polytope-3": "5891310a114c7c98972fc6785f4eb013759aa7089b13c85b8efda0804dea95e5",
    "ngon-3": "cc2aa5a6a2dff6eb7cdf2873b442f4bd8e2d7f851d30cc4ed00e8e2e6ec63121",
    "punctured-ngon-3": "891ff01604a6234e98b07569c9dc5a27d469b9d097095969506640f014b1aded",
    "ngon-4": "1207217f67e0e3db27222560d25a4635dd92659f12474ea214895d0de942feac",
    "punctured-ngon-4": "52f2035a7ad015c3c41117bf1cf4ad2739ddeb9ca5861019bf80e2c464f358d0",
    "ngon-5": "144e770cc649efaf3f543fffe11fe6934ec024e6957c3307e1d28617c086aa8b",
    "punctured-ngon-5": "251741b480cf8dfc570505e88e7270bddbcf3e30124c0103a6b0ae8a618abfd8",
    "ngon-6": "4aa6b07adcdfa95f7c9b35e3b2251636ef0167201c29e7abff93bafca3e18ce1",
    "punctured-ngon-6": "54d87d1715d5f67b4a6603fd5f7416fae8d2208328cdd2a3e13a02704add8dc0",
    "ngon-7": "a882091de1e6c8609fcfe8cda23dff5934ca25b466960a290d73e8d2cadc3c6f",
    "punctured-ngon-7": "fa8cb37cadf14df83660776d3083f1e32fb59d031c71f8e4ddaf6f99a8d355ef",
    "ngon-8": "0cf4a5bf2ebff465e7a5262ed3ee181db7b2803c257f495d1b1fd0e8b5da63ef",
    "punctured-ngon-8": "39d3cc22e33b41d39d73128b42816edd225292bdd089b43b70ecb1b02c05c5c7",
    "cyclic-4-5": "96b99b745713c610100ee3310a6198e45f8e2c3a37dc54f81df84b3ddfb4f690",
    "punctured-cyclic-4-5": "3bcc94ebe6f2bbcc9f7352e06515a79716ca948845d2429d494515469efc257a",
    "cyclic-4-6": "2013efd6c0ffb5de986431581570d125a73a117d5ada74873678597eabd1199e",
    "punctured-cyclic-4-6": "30d632a8f0fa7542bc98eca4a709402d9e9184bad36cc1e68d3efe68cba13907",
    "cyclic-4-7": "1ad95fece662c044be9fe1ac505b8fae360f92112350b095ff79f7e48b4faaad",
    "punctured-cyclic-4-7": "e32e84dbd92903a6beacf9880a5b8b886e415bd930821212fbbf89efed0ba11b",
}

# the nodes spent by the same calls: the search, then the three
# verifications.  Verifying a simplicial complex searches nothing, since
# every facet is a simplex, and no 1-dimensional complex is searched,
# since its order is grown greedily.
CERTIFICATE_SPENT = {
    "simplex-boundary-1": (0, 0, 0, 0),
    "punctured-simplex-boundary-1": (0, 0, 0, 0),
    "simplex-boundary-2": (0, 0, 0, 0),
    "punctured-simplex-boundary-2": (3, 0, 0, 0),
    "simplex-boundary-3": (0, 0, 0, 0),
    "punctured-simplex-boundary-3": (4, 0, 0, 0),
    "cross-polytope-1": (0, 0, 0, 0),
    "punctured-cross-polytope-1": (0, 0, 0, 0),
    "cross-polytope-2": (8, 0, 0, 0),
    "punctured-cross-polytope-2": (12, 0, 0, 0),
    "cross-polytope-3": (16, 0, 0, 0),
    "punctured-cross-polytope-3": (32, 0, 0, 0),
    "ngon-3": (0, 0, 0, 0),
    "punctured-ngon-3": (0, 0, 0, 0),
    "ngon-4": (0, 0, 0, 0),
    "punctured-ngon-4": (0, 0, 0, 0),
    "ngon-5": (0, 0, 0, 0),
    "punctured-ngon-5": (0, 0, 0, 0),
    "ngon-6": (0, 0, 0, 0),
    "punctured-ngon-6": (0, 0, 0, 0),
    "ngon-7": (0, 0, 0, 0),
    "punctured-ngon-7": (0, 0, 0, 0),
    "ngon-8": (0, 0, 0, 0),
    "punctured-ngon-8": (0, 0, 0, 0),
    "cyclic-4-5": (0, 0, 0, 0),
    "punctured-cyclic-4-5": (4, 0, 0, 0),
    "cyclic-4-6": (9, 0, 0, 0),
    "punctured-cyclic-4-6": (12, 0, 0, 0),
    "cyclic-4-7": (14, 0, 0, 0),
    "punctured-cyclic-4-7": (27, 0, 0, 0),
}


def _certificate_record(L: sb.FaceLattice) -> tuple[str, tuple[int, ...]]:
    lines, spends = [], []
    fresh = sb.lattice_from_json_dict(sb.lattice_to_json_dict(L))
    bud = sb.SearchBudget()
    seq = sb.find_shelling(fresh, budget=bud).facets
    spends.append(bud.spent)
    for order in (seq, seq[::-1], seq[:1] + seq[:0:-1]):
        bud = sb.SearchBudget()
        res = sb.is_shelling(fresh, order, budget=bud)
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


# -- a simplex cell's steps, built on first read -------------------------


def _built(cert: sb.ShellingCertificate) -> bool:
    """Whether a certificate holds its steps, asked of the slot itself so
    that asking builds nothing."""
    try:
        sb.ShellingCertificate.steps.__get__(cert)
    except AttributeError:
        return False
    return True


def _read_all(cert: sb.ShellingCertificate) -> None:
    """Read the steps of every node, the last step's sub-certificate first,
    so not in the order ``to_json_dict`` reads them."""
    stack = [cert]
    while stack:
        stack.extend(step.sub_certificate for step in stack.pop().steps)


def _lazy_cases():
    for name, L in spheres_d_le_3():
        yield pytest.param(L, id=name)
        yield pytest.param(sb.punctured(L), id=f"punctured-{name}")
    yield pytest.param(sb.cross_polytope(4), id="cross-polytope-4")


@pytest.mark.parametrize("L", _lazy_cases())
def test_reading_every_node_first_leaves_the_certificate_json_as_it_is(L):
    order = sb.find_shelling(L).facets
    fresh = sb.is_shelling(fresh_copy(L), order)
    read = sb.is_shelling(fresh_copy(L), order)
    _read_all(read)
    assert fresh.to_json_dict() == read.to_json_dict()


def _unbuilt_sub_certificate(L: sb.FaceLattice, order, j: int) -> sb.ShellingCertificate:
    """The sub-certificate of step j of a certificate made afresh: the
    memo is emptied first, so the node is new."""
    L._memo.clear()
    sub = sb.is_shelling(L, order).steps[j].sub_certificate
    assert not _built(sub)
    return sub


def test_an_unbuilt_node_behaves_as_a_read_one():
    L = sb.cross_polytope(4)
    order = sb.find_shelling(L).facets
    j = len(order) - 1
    read = sb.is_shelling(L, order).steps[j].sub_certificate
    _read_all(read)

    def unbuilt():
        return _unbuilt_sub_certificate(L, order, j)

    lazy = unbuilt()
    assert lazy is not read and lazy == read and read == unbuilt()
    assert hash(unbuilt()) == hash(read)
    assert repr(unbuilt()) == repr(read)
    # a copy or a pickle is made unbuilt too, and reads as the original
    copied = copy.copy(unbuilt())
    assert type(copied) is sb.ShellingCertificate and not _built(copied)
    assert copied == read and copied.steps is not read.steps
    for rebuilt in (copy.deepcopy(unbuilt()), pickle.loads(pickle.dumps(unbuilt()))):
        assert type(rebuilt) is sb.ShellingCertificate and not _built(rebuilt)
        assert rebuilt.lattice is not L
        assert repr(rebuilt) == repr(read)
        assert rebuilt.to_json_dict() == read.to_json_dict()


def test_a_lattice_holding_unbuilt_nodes_copies_and_pickles():
    # copying or pickling the lattice walks its memo; building a node's
    # steps there would add memo entries during the walk
    L = sb.cross_polytope(3)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    assert not any(_built(step.sub_certificate) for step in cert.steps)
    for rebuilt in (copy.deepcopy(cert), pickle.loads(pickle.dumps(cert))):
        assert rebuilt.to_json_dict() == cert.to_json_dict()
    assert len(pickle.loads(pickle.dumps(L))._memo) == len(L._memo)


@pytest.mark.parametrize(
    "make, limit",
    # a simplex's top is checked in closed form, so its whole certificate
    # fits a budget of 0
    [(lambda: sb.simplex_boundary(6), 0), (lambda: sb.cross_polytope(4), sb.DEFAULT_BUDGET)],
    ids=["simplex-boundary-6", "cross-polytope-4"],
)
def test_a_full_read_spends_nothing(make, limit):
    order = sb.find_shelling(make()).facets
    L = make()
    bud = sb.SearchBudget(limit)
    cert = sb.is_shelling(L, order, budget=bud)
    spent = bud.spent
    # reads take a budget of 0 of their own, so a node spent would raise
    _read_all(cert)
    cert.to_json_dict()
    assert bud.spent == spent


def test_a_cold_simplex_certificate_builds_steps_on_first_read(monkeypatch):
    from shellbound import shelling

    L = sb.simplex_boundary(8)
    order = sb.find_shelling(L).facets
    built, rules, masks = [], [], []
    verify, rule, boolean_cells = shelling._verify, shelling._step, shelling._boolean_cells
    monkeypatch.setattr(
        shelling, "_verify", lambda L, x, *args: built.append(x) or verify(L, x, *args)
    )
    monkeypatch.setattr(shelling, "_step", lambda *args: rules.append(1) or rule(*args))
    monkeypatch.setattr(
        shelling, "_boolean_cells", lambda L: masks.append(1) or boolean_cells(L)
    )
    cert = sb.is_shelling(L, order)
    assert built == [L._top]
    assert not any(_built(step.sub_certificate) for step in cert.steps)
    sub = cert.steps[3].sub_certificate
    assert len(sub.steps) == len(sub.facets) and built == [L._top, sub.cell]
    assert sub.steps is sub.steps and len(built) == 2
    # a full read builds every node once, and a second one builds nothing
    nodes = cert.to_json_dict()["nodes"]
    assert len(built) == 1 + len(nodes)
    cert.to_json_dict()
    assert len(built) == 1 + len(nodes)
    # in closed form: the top's bit is the only mask read, and no step
    # rule is applied
    assert (len(rules), len(masks)) == (0, 1)


def test_the_proof_route_leaves_simplex_facets_unbuilt(monkeypatch):
    # the proof route reads each facet boundary's sub-shelling through
    # its facets and the cut at the glued count, never its steps
    from shellbound import shelling

    L = sb.cross_polytope(4)
    order = sb.find_shelling(L).facets
    built = []
    verify = shelling._verify
    monkeypatch.setattr(
        shelling, "_verify", lambda L, x, *args: built.append(x) or verify(L, x, *args)
    )
    for k in range((L.dim - 1) // 2, L.dim + 1):
        assert sb.verify_lower_bound(L, order, k).ok
    sb.facet_decomposition(L, order)
    assert built == [L._top]
    cert = L._memo["proof"][1]
    assert not any(_built(step.sub_certificate) for step in cert.steps)


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
    assert sb.find_shelling(two_circles()) is None


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


def test_a_repeated_verification_answers_as_on_a_fresh_lattice():
    L = two_circles()
    order = ("12", "13", "23", "45", "46", "56")
    for _ in range(2):
        failure = sb.is_shelling(L, order)
        assert failure == sb.ShellingFailure(4, "EmptyIntersection")
        assert failure == sb.is_shelling(two_circles(), order)


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
