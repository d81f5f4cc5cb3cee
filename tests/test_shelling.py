import copy
import hashlib
import inspect
import json
import pickle
import random
import re
from itertools import permutations

import pytest

import shellbound as sb
from shellbound import BOTTOM_ID, TOP_ID, lattice

from corpus import (
    balls,
    fresh_copy,
    rank_permutation,
    relabelled,
    shelled_spheres_d_le_3,
    spheres_d_le_3,
)
from oracles import expand_certificate, naive_is_boolean, naive_is_shelling, nested_certificate

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
    # 2.0 ended in a bare TypeError from slicing; both ends, 2 and 4, are
    # admitted in test_boundary_intersection_square
    for j in (True, 2.0, 1, 5):
        with pytest.raises(sb.IndexOutOfRange) as err:
            sb.boundary_intersection(g, SQUARE_ORDER, j)
        assert str(err.value) == f"need 2 <= j <= 4, got j={j!r}"


def test_boundary_intersection_takes_facets_only():
    g = sb.ngon(4)
    # a vertex standing as a facet, or a facet twice, among the first j
    # entries is refused; each returned a Subcomplex
    for order in (("e12", "v1"), ("e12", "e12"), ("v1", "e12"), ("e12", "e23", "e12")):
        with pytest.raises(sb.PreconditionViolated, match="non-facets or repeats"):
            sb.boundary_intersection(g, order, len(order))
    # entries past the j-th are not read
    inter = sb.boundary_intersection(g, ("e12", "e23", "v1", "e23"), 2)
    assert inter.members == {BOTTOM_ID, "v2"}
    with pytest.raises(sb.InvalidFace):
        sb.boundary_intersection(g, ("e12", "nope"), 2)


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
        assert expand_certificate(doc, L) == nested_certificate(cert), name

        # one node per distinct (cell, order) reachable through steps whose
        # facet is not a simplex, each referenced, numbered in first-visit
        # depth-first order; below a simplex every face is one
        pairs, stack = set(), [cert]
        while stack:
            for step in stack.pop().steps:
                sub = step.sub_certificate
                if not naive_is_boolean(L, sub.cell):
                    pairs.add((step.facet, tuple(sub.order.facets)))
                    stack.append(sub)
        nodes = doc["nodes"]
        assert {(n["cell"], tuple(n["order"])) for n in nodes} == pairs, name
        assert len(nodes) == len(pairs), name

        first_seen: list[int] = []

        def visit(node):
            for step in node["steps"]:
                ref = step["sub_certificate"]
                if ref is not None and ref not in first_seen:
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
# lattice: pins the certificate bytes of check-shelling reports (schema
# 0.4.0, where a step on a simplex facet or a 2-cell names no node; no
# facet here is a 2-cell that is not a simplex, so the bytes are those of
# 0.3.0)
CERTIFICATE_SHA256 = {
    "simplex-boundary-1": "f1f9ed65af61d1d28e9091b3436ec5fc713825516a09ddf238360b8d8bfd1012",
    "punctured-simplex-boundary-1": "d111889899f80307dc3394631165d59feabee53634ce5b051e793abef3077e16",
    "simplex-boundary-2": "5aab5094a09ac43fb77a53a548314b402e23c9f322a5354f8b5d44e97718da05",
    "punctured-simplex-boundary-2": "9ab0f1207d97d3155889519f299e3c7cd6764229d4f5b97f74ffc6075d06278d",
    "simplex-boundary-3": "4807e9b1813c594dfaf1094b8434663e5bef7b8ad816825d3bf9076b42c59741",
    "punctured-simplex-boundary-3": "2ca46b691d59ac3c3cc526705dddafdf5e66a3a5248515d05fa6c0a00e456e75",
    "cross-polytope-1": "8b463e46fce9ec0487f2c5955a75725890390a75d285c591245aac068634e564",
    "punctured-cross-polytope-1": "6d8f89ad6fa41d550f795fe1b227a8ab6bcbeb75e9e212fcad8404ade739cbbc",
    "cross-polytope-2": "62911b60155d8eb3a8680e0793f293a646f59196944e12ca8075e10bfb4f2510",
    "punctured-cross-polytope-2": "aa5f0b453f3336d5d3188fd82df049f33461551801b777e38489fea0b11e9422",
    "cross-polytope-3": "7cfbf0680e83323ede843284439bd9c6574623c66a1ddc97dd71371853644432",
    "punctured-cross-polytope-3": "fa33f53c7abd1d85047c852c84a6c057e3e4c82a9494f3acd02a58b312dccb25",
    "ngon-3": "e905c02732fbce541f7a36fab4ad6bd9d029d1f9ca178585f39ffeecaece16f1",
    "punctured-ngon-3": "12322ae59e8e17441abce301166cef46e3d33c37b24e7dfa26e3f3a69d47189e",
    "ngon-4": "17849d6972a33354aaa7f6c823336e78ccb26fa03175b53b010f5091fb10ae06",
    "punctured-ngon-4": "4accce05f9a67f449bf373f49a49194ab902d433b3f0494a040c474e78219fbe",
    "ngon-5": "0e11b6ee3eebbf5dc56b43faa24c48deb67056d5800e75167dfd2b6bc6f8b278",
    "punctured-ngon-5": "4ac801efac8a003b2a3e754322aaf06d1187849d35f03d9675e96ae9e959962d",
    "ngon-6": "0a12d69cf65b7e8296c30c19c1b53d5f04beb09d048c7c60a756a6fa4459145e",
    "punctured-ngon-6": "2dd01f719c77bd477975e71c7a7f0e12a96400c686facb8b5c060b84d3640421",
    "ngon-7": "5abb813e9be1a9cdce0145f181ced12cbbefae972f7110f0166af797749a2c38",
    "punctured-ngon-7": "3ee6dfdeb9766245a665a826fbedc26ad46dd5914971f13cb2166817e5611af6",
    "ngon-8": "380756195eb6a1b16dc6733c5b44ce7f747c208b6227e0e514c28797f0970df8",
    "punctured-ngon-8": "0169f902a20ba50756ceb4e37116ffa219f47ade2b56d98a3244261b06242e02",
    "cyclic-4-5": "4807e9b1813c594dfaf1094b8434663e5bef7b8ad816825d3bf9076b42c59741",
    "punctured-cyclic-4-5": "2ca46b691d59ac3c3cc526705dddafdf5e66a3a5248515d05fa6c0a00e456e75",
    "cyclic-4-6": "030b31aea68f973101cd48e0808d7c5cb847b7937fc8b173da75b2eb7a6e9c3c",
    "punctured-cyclic-4-6": "c1592edff86a10ce8d34afe277c839beed6dfd5b60ee27fe52ff269cc9e01f82",
    "cyclic-4-7": "7298d08b43f45fb29f48c7d257f54a3790d7faeae1eceb3948861216d03fc0ee",
    "punctured-cyclic-4-7": "26aec839dcee6e738c1462ac3e786fdc9cece58a16041584b95dab11d2266a52",
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
    """Whether a certificate holds its steps, asked of its instance dict,
    where a closed-form node keeps them once read, so that asking builds
    nothing."""
    from shellbound import shelling

    return type(cert) is not shelling._ClosedCertificate or "steps" in cert.__dict__


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
    _assert_an_unbuilt_node_reads_alike(sb.cross_polytope(4))


def test_an_unbuilt_2_cell_node_behaves_as_a_read_one():
    # the last step's facet is a square
    _assert_an_unbuilt_node_reads_alike(sb.hypercube_boundary(2))


def _assert_an_unbuilt_node_reads_alike(L: sb.FaceLattice) -> None:
    from shellbound import shelling

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
    # a copy or a pickle reads as the original
    copied = copy.copy(unbuilt())
    assert type(copied) is type(read) is shelling._ClosedCertificate
    assert copied == read and hash(copied) == hash(read) and copied.steps is not read.steps
    assert copied.to_json_dict() == read.to_json_dict()
    for rebuilt in (copy.deepcopy(unbuilt()), pickle.loads(pickle.dumps(unbuilt()))):
        assert type(rebuilt) is shelling._ClosedCertificate
        assert rebuilt.lattice is not L
        assert repr(rebuilt) == repr(read)
        assert rebuilt.to_json_dict() == read.to_json_dict()


def test_a_lattice_holding_unbuilt_nodes_copies_and_pickles():
    # a pickled lattice starts with an empty memo, so pickling it walks
    # no node and builds no node's steps
    L = sb.cross_polytope(3)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    assert not any(_built(step.sub_certificate) for step in cert.steps)
    entries = len(L._memo)
    assert pickle.loads(pickle.dumps(L))._memo == {} and len(L._memo) == entries
    assert not any(_built(step.sub_certificate) for step in cert.steps)
    for rebuilt in (copy.deepcopy(cert), pickle.loads(pickle.dumps(cert))):
        assert rebuilt.to_json_dict() == cert.to_json_dict()
    # nor does copying or pickling the certificate
    assert not any(_built(step.sub_certificate) for step in cert.steps)


def _relabelled_cube_4() -> sb.FaceLattice:
    L = sb.hypercube_boundary(4)
    return relabelled(L, rank_permutation(L, random.Random(11)))


@pytest.mark.parametrize(
    "make, limit",
    # a simplex's top is checked in closed form, so its whole certificate
    # fits a budget of 0
    [(lambda: sb.simplex_boundary(6), 0), (lambda: sb.cross_polytope(4), sb.DEFAULT_BUDGET),
     (_relabelled_cube_4, sb.DEFAULT_BUDGET)],
    ids=["simplex-boundary-6", "cross-polytope-4", "relabelled-hypercube-boundary-4"],
)
def test_a_full_read_spends_nothing(make, limit, monkeypatch):
    from shellbound import shelling

    order = sb.find_shelling(make()).facets
    L = make()
    bud = sb.SearchBudget(limit)
    cert = sb.is_shelling(L, order, budget=bud)
    spent = bud.spent

    def no_step_rule(*args):
        raise AssertionError("a read applied the step rule")

    # a read builds its nodes in closed form: it spends no node and
    # applies no step rule, on a simplex's cells and a square's alike
    monkeypatch.setattr(shelling, "_step", no_step_rule)
    _read_all(cert)
    cert.to_json_dict()
    assert bud.spent == spent


def test_a_cold_simplex_certificate_builds_steps_on_first_read(monkeypatch):
    from shellbound import shelling

    L = sb.simplex_boundary(8)
    order = sb.find_shelling(L).facets
    built, closed, rules, masks = [], [], [], []
    verify, closed_steps = shelling._verify, shelling._closed_steps
    rule, boolean_cells = shelling._step, shelling._boolean_cells
    monkeypatch.setattr(
        shelling, "_verify", lambda L, x, *args: built.append(x) or verify(L, x, *args)
    )
    monkeypatch.setattr(
        shelling, "_closed_steps", lambda L, x, o: closed.append(x) or closed_steps(L, x, o)
    )
    monkeypatch.setattr(shelling, "_step", lambda *args: rules.append(1) or rule(*args))
    monkeypatch.setattr(
        shelling, "_boolean_cells", lambda L: masks.append(1) or boolean_cells(L)
    )
    cert = sb.is_shelling(L, order)
    # the top is a simplex: _verify hands its steps to the closed form
    assert built == closed == [L._top]
    assert not any(_built(step.sub_certificate) for step in cert.steps)
    sub = cert.steps[3].sub_certificate
    assert len(sub.steps) == len(sub.facets) and closed == [L._top, sub.cell]
    assert sub.steps is sub.steps and len(closed) == 2
    # the writer builds no node; a full read builds every node once, an
    # edge's included, and a second one builds nothing
    assert cert.to_json_dict()["nodes"] == [] and len(closed) == 2
    nodes = _unbuilt_cells(_read_each(cert))
    assert sorted(closed[1:]) == nodes
    _read_each(cert)
    assert sorted(closed[1:]) == nodes and built == [L._top]
    # in closed form: the recursion reads the mask once, for the top's bit,
    # the writer once, and no step rule is applied
    assert (len(rules), len(masks)) == (0, 2)


def _read_each(cert: sb.ShellingCertificate) -> list[sb.ShellingCertificate]:
    """Read the steps of every distinct node below ``cert`` once, as a
    walk of the DAG; returns those nodes."""
    seen, stack = {}, [cert]
    while stack:
        for step in stack.pop().steps:
            sub = step.sub_certificate
            if id(sub) not in seen:
                seen[id(sub)] = sub
                stack.append(sub)
    return list(seen.values())


def _unbuilt_cells(nodes: list[sb.ShellingCertificate]) -> list[int]:
    """The cells of the nodes whose steps are built after they are made,
    sorted: every node, an edge's included."""
    return sorted(node.cell for node in nodes)


def test_the_writer_builds_no_simplex_node():
    # relabelled, a simplex's certificate DAG has about ten thousand
    # nodes; the report names none of them
    L = sb.simplex_boundary(8)
    L = relabelled(L, rank_permutation(L, random.Random(11)))
    order = sb.find_shelling(fresh_copy(L)).facets
    cert = sb.is_shelling(L, order)
    entries = len(L._memo)
    text = json.dumps(cert.to_json_dict())
    assert len(L._memo) == entries
    subs = [v for v in L._memo.values() if isinstance(v, sb.ShellingCertificate)]
    subs += [step.sub_certificate for step in cert.steps]
    assert not any(_built(sub) for sub in subs)
    assert len(text.encode()) < 100 * 1024


@pytest.mark.parametrize(
    "make, expand",
    # the simplex's certificate as a nested tree has millions of steps, so
    # only the cube's is expanded
    [(lambda: sb.simplex_boundary(8), False), (lambda: sb.hypercube_boundary(4), True)],
    ids=["simplex-boundary-8", "hypercube-boundary-4"],
)
def test_is_shelling_builds_no_closed_form_node(make, expand, monkeypatch):
    from shellbound import shelling

    L = make()
    L = relabelled(L, rank_permutation(L, random.Random(11)))
    order = sb.find_shelling(fresh_copy(L)).facets
    simplices = lattice._boolean_cells(fresh_copy(L))
    built, closed = [], []
    verify, closed_steps = shelling._verify, shelling._closed_steps
    monkeypatch.setattr(
        shelling, "_verify", lambda L, x, *args: built.append(x) or verify(L, x, *args)
    )
    monkeypatch.setattr(
        shelling, "_closed_steps", lambda L, x, o: closed.append(x) or closed_steps(L, x, o)
    )
    cert = sb.is_shelling(L, order)
    # a cold verify enters no simplex cell and no 2-cell below the top, and
    # builds no closed-form node but a simplex top's steps; the writer adds
    # no memo entry
    top = len(closed)
    assert built[0] == L._top and closed == [L._top] * (simplices >> L._top & 1)
    assert not [x for x in built[1:] if simplices >> x & 1 or L.ranks[x] == 3]
    entries = len(L._memo)
    doc = cert.to_json_dict()
    assert len(L._memo) == entries and len(built) == 1 + len(doc["nodes"])
    assert len(closed) == top
    # a full read of the DAG builds each node once, an edge's included, and
    # a second builds none
    nodes = _unbuilt_cells(_read_each(cert))
    assert sorted(built[1:] + closed[top:]) == nodes
    _read_each(cert)
    assert sorted(built[1:] + closed[top:]) == nodes
    if expand:
        assert expand_certificate(doc, L) == nested_certificate(cert)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda L: pickle.loads(pickle.dumps(L))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_a_cube_lattice_keep_its_2_cells_unbuilt(duplicate):
    L = sb.hypercube_boundary(3)
    order = sb.find_shelling(fresh_copy(L)).facets
    cert = sb.is_shelling(L, order)

    def squares(M):
        return [v for v in M._memo.values()
                if isinstance(v, sb.ShellingCertificate) and M.ranks[v.cell] == 3]

    assert squares(L) and not any(map(_built, squares(L)))
    entries = len(L._memo)
    twin = duplicate(L)
    # every duplicate starts with a memo of its own, empty, so none walks
    # the original's: no square's steps are built and no entry is added
    assert len(L._memo) == entries and not any(map(_built, squares(L)))
    assert twin._memo == {}
    again = sb.is_shelling(twin, order)
    _read_each(cert)
    _read_each(again)
    assert nested_certificate(again) == nested_certificate(cert)
    assert twin._memo.keys() == L._memo.keys()


@pytest.mark.parametrize(
    "make, squares",
    # a cube's 2-cells are squares; every 2-cell of a simplex is a simplex,
    # whose order is the closed form, grown by no graph walk
    [(lambda: sb.hypercube_boundary(3), True), (lambda: sb.hypercube_boundary(4), True),
     (lambda: sb.simplex_boundary(5), False)],
    ids=["hypercube-boundary-3", "hypercube-boundary-4", "simplex-boundary-5"],
)
def test_the_writer_asks_the_search_for_a_null_step_order(make, squares, monkeypatch):
    from shellbound import shelling

    L = make()
    L = relabelled(L, rank_permutation(L, random.Random(11)))
    cert = sb.is_shelling(L, sb.find_shelling(L))
    doc = cert.to_json_dict()
    grown = []
    graph_order = shelling._graph_order
    monkeypatch.setattr(
        shelling, "_graph_order", lambda *args: grown.append(1) or graph_order(*args)
    )
    # with the search's 2-cell orders gone, from the memo or with a copy's
    # empty memo, the writer has them grown again and writes the same
    L._memo.clear()
    assert cert.to_json_dict() == doc
    twin = copy.deepcopy(cert)
    assert twin.lattice is not L and twin.to_json_dict() == doc
    assert bool(grown) == squares


def test_the_writer_refuses_a_simplex_sub_order_it_cannot_state():
    L = sb.cross_polytope(2)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    step = cert.steps[1]
    sub = step.sub_certificate
    assert step.glued == 1
    # the glued edge, then the other two in reverse: a shelling of the
    # triangle's boundary, but not the one a null step stands for
    swapped = sub.facets[:1] + sub.facets[:0:-1]
    assert swapped != sub.facets
    forged = sb.ShellingCertificate(L, cert.cell, cert.facets, (
        cert.steps[0],
        sb.ShellingStep(step.facet, 1, sb.ShellingCertificate(L, sub.cell, swapped, ())),
        *cert.steps[2:],
    ))
    with pytest.raises(sb.InternalContradiction):
        forged.to_json_dict()


def test_the_oracle_rejects_a_null_node_on_a_non_simplex_facet():
    L = sb.hypercube_boundary(3)
    doc = sb.is_shelling(L, sb.find_shelling(L)).to_json_dict()
    expand_certificate(doc, L)
    # the first step's facet is a 3-cube
    assert doc["steps"][0]["sub_certificate"] == 0
    doc["steps"][0]["sub_certificate"] = None
    with pytest.raises(ValueError, match="not a simplex"):
        expand_certificate(doc, L)


def test_a_square_step_is_rebuilt_greedily():
    # the README's example: squares Q and R glued along edge 34
    edges = ["12", "14", "23", "34", "35", "46", "56"]
    elements = [(BOTTOM_ID, 0), (TOP_ID, 4), ("Q", 3), ("R", 3)]
    elements += [(v, 1) for v in "123456"] + [(e, 2) for e in edges]
    covers = [(BOTTOM_ID, v) for v in "123456"] + [(v, e) for e in edges for v in e]
    covers += [(e, "Q") for e in edges[:4]] + [(e, "R") for e in edges[3:]]
    covers += [("Q", TOP_ID), ("R", TOP_ID)]
    L = sb.build_lattice(elements, covers, 2)
    doc = sb.is_shelling(L, ["R", "Q"]).to_json_dict()
    assert doc["nodes"] == [] and doc["steps"][1] == {
        "facet": "Q", "intersection_facets": ["34"], "sub_certificate": None
    }
    square = expand_certificate(doc, L)["steps"][1]["sub_certificate"]
    assert square["order"] == ["34", "14", "12", "23"]
    assert [s["intersection_facets"] for s in square["steps"]] == [[], ["4"], ["1"], ["2", "3"]]


def test_the_oracle_rejects_a_node_named_for_a_2_cell():
    L = sb.hypercube_boundary(2)
    doc = sb.is_shelling(L, sb.find_shelling(L)).to_json_dict()
    step = doc["steps"][0]
    # every facet is a square, a 2-cell, so no step names a node
    assert doc["nodes"] == [] and step["sub_certificate"] is None
    inline = expand_certificate(doc, L)["steps"][0]["sub_certificate"]
    # the node the 0.3.0 writer gave the square, with the same order
    doc["nodes"].append({"cell": step["facet"], **inline})
    step["sub_certificate"] = 0
    with pytest.raises(ValueError, match="of dimension 2"):
        expand_certificate(doc, L)


def test_the_writer_refuses_a_2_cell_sub_order_it_cannot_state():
    L = sb.hypercube_boundary(2)
    cert = sb.is_shelling(L, sb.find_shelling(L))
    step = cert.steps[1]
    sub = step.sub_certificate
    assert step.glued == 1
    # the glued edge, then the other three in reverse: a shelling of the
    # square's boundary, but not the greedy one a null step stands for
    swapped = sub.facets[:1] + sub.facets[:0:-1]
    assert swapped != sub.facets
    assert naive_is_shelling(sb.sub_lattice(L, step.facet), swapped)
    # and two opposite edges as the glued ones, from which no order of the
    # square's edges can start
    apart = sub.facets[:1] + sub.facets[2:3] + sub.facets[1:2] + sub.facets[3:]
    assert not set(L.down_set(apart[0])) & set(L.down_set(apart[1])) - {L.bottom}
    for order, glued in ((swapped, 1), (apart, 2)):
        forged = sb.ShellingCertificate(L, cert.cell, cert.facets, (
            cert.steps[0],
            sb.ShellingStep(step.facet, glued, sb.ShellingCertificate(L, sub.cell, order, ())),
            *cert.steps[2:],
        ))
        with pytest.raises(sb.InternalContradiction):
            forged.to_json_dict()


def test_a_disconnected_2_cell_order_is_refused_inside_the_verify(monkeypatch):
    from shellbound import shelling

    L = sb.hypercube_boundary(3)
    order = sb.find_shelling(fresh_copy(L)).facets
    graph_order, square = shelling._graph_order, []

    def disconnected(L, edges, prefix):
        # for the first square asked with no glued edge: its first edge,
        # then one that shares no vertex with it
        found = graph_order(L, edges, prefix)
        if prefix or square and square != [edges]:
            return found
        square.append(edges)
        apart = next(e for e in found if L._down[e] & L._down[found[0]] <= 1)
        return (found[0], apart, *(e for e in found[1:] if e != apart))

    monkeypatch.setattr(shelling, "_graph_order", disconnected)
    with pytest.raises(sb.InternalContradiction, match="not connected"):
        sb.is_shelling(L, order)
    assert square


def test_a_walked_sub_order_that_fails_is_refused_inside_the_verify(monkeypatch):
    from shellbound import shelling

    # the facets of the boundary of the 5-cube are 4-cubes, whose
    # sub-orders the verify checks step by step
    L = sb.hypercube_boundary(4)
    walk = shelling._walk

    def apart(L, facets, prefix, simplices, budget):
        # on the facets of a 4-cube, which are 3-cubes of rank 4: the first
        # found, then the one opposite it
        found = walk(L, facets, prefix, simplices, budget)
        if found is None or L.ranks[(facets & -facets).bit_length() - 1] != 4:
            return found
        far = next(f for f in found if L._down[f] & L._down[found[0]] <= 1)
        return (found[0], far, *(f for f in found[1:] if f != far))

    monkeypatch.setattr(shelling, "_walk", apart)
    with pytest.raises(sb.InternalContradiction,
                       match="search returned an order that fails verification at step 2"):
        sb.is_shelling(L, L.facets())


def test_the_oracle_rejects_a_node_named_for_a_simplex_facet():
    L = sb.ngon(4)
    doc = sb.is_shelling(L, SQUARE_ORDER).to_json_dict()
    step = doc["steps"][0]
    inline = expand_certificate(doc, L)["steps"][0]["sub_certificate"]
    # the node the 0.2.0 writer gave the edge, with the same order
    doc["nodes"].append({"cell": step["facet"], **inline})
    step["sub_certificate"] = 0
    with pytest.raises(ValueError, match="simplex facet"):
        expand_certificate(doc, L)


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
    cert = L._memo["proof"].cert
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
    for bad in (2.7, True, "5", "many", 2.5, -1):
        message = f"^need budget >= 0, got budget={re.escape(repr(bad))}$"
        with pytest.raises(sb.RangeError, match=message):
            sb.SearchBudget(bad)
        with pytest.raises(sb.RangeError, match=message):
            sb.find_shelling(oct_, budget=bad)
    assert sb.find_shelling(oct_, budget=10 ** 6) == sb.find_shelling(oct_)
    # the least budget is admitted, and a fresh search runs out at once
    assert sb.SearchBudget(0).limit == 0
    with pytest.raises(sb.BudgetExceeded):
        sb.find_shelling(sb.cross_polytope(2), budget=0)


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
