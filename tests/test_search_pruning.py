"""The pruned shelling search against the unpruned one it replaced.

``_search`` skips a set of remaining facets that failed once, reads the
first order of a Boolean cell off without a search, and grows the order
of a 2-cell's boundary greedily; ``_verify`` reads a Boolean cell's
evidence off without the step rule, and builds a 2-cell's steps only
when they are read.  None of them may change an answer:
every order, failure and certificate byte must be what the unpruned
search, and the general route, give.  Both learn which cells are Boolean
from the mask that ``find_shelling`` and ``is_shelling`` read once per
call and pass down, so replacing ``shelling._boolean_cells`` with the
empty mask sends every cell down the general route.
"""

import json
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings

import shellbound as sb
from shellbound import BOTTOM_ID, TOP_ID, lattice, shelling

from corpus import (
    SUBDIVIDED,
    balls,
    barycentric_subdivision,
    bipyramid_facets,
    bowtie,
    doubled_triangle,
    graded_bounded_poset_parts,
    lune_sphere,
    mixed_dims_by_hand,
    rank_permutation,
    relabelled,
    spheres_d_le_3,
)
from oracles import (
    expand_certificate,
    generator_graph_order,
    generator_walk,
    naive_is_boolean,
    nested_certificate,
    unpruned_search,
)


def _written(L: sb.FaceLattice, res) -> str:
    """A certificate or failure as its JSON bytes."""
    return json.dumps(res.to_json_dict())


def _expanded(L: sb.FaceLattice, res):
    """A certificate's JSON with every null node rebuilt by the oracle,
    or a failure's JSON."""
    doc = res.to_json_dict()
    return expand_certificate(doc, L) if isinstance(res, sb.ShellingCertificate) else doc


def _nested(L: sb.FaceLattice, res):
    """A certificate as the tree of its objects, or a failure's JSON."""
    if isinstance(res, sb.ShellingCertificate):
        return nested_certificate(res)
    return res.to_json_dict()


def _answers(L: sb.FaceLattice, most: int = 2, form=_written) -> list:
    """``find_shelling`` for every prefix of at most ``most`` facets, then
    the certificate or failure of every order found, of its reverse and
    of the facets in reverse id order, each in the given ``form``."""
    facets = L.facets()
    out, orders = [], [facets[::-1]]
    for size in range(most + 1):
        for prefix in combinations(facets, size):
            found = sb.find_shelling(L, prefix)
            out.append(None if found is None else found.facets)
            if found is not None:
                orders += [found.facets, found.facets[::-1]]
    for order in dict.fromkeys(orders):
        try:
            res = sb.is_shelling(L, order)
        except sb.PreconditionViolated as exc:
            out.append(str(exc))
        else:
            out.append(form(L, res))
    return out


def _assert_agrees_with(
    make, name: str, reference, most: int = 2, form=_written, reference_form=_written
) -> None:
    """``_answers`` as the module gives them, in ``form``, and with
    ``shelling.<name>`` replaced by ``reference``, in ``reference_form``."""
    answers = _answers(make(), most, form)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shelling, name, reference)
        expected = _answers(make(), most, reference_form)
    assert answers == expected


def _assert_unpruned_agrees(make) -> None:
    _assert_agrees_with(make, "_search", unpruned_search)


def _assert_general_route_agrees(make, most: int = 2) -> None:
    # no cell is Boolean: _search and _verify apply the step rule to every
    # simplex cell too, and a writer on that mask would name a node for
    # each but a 2-cell, which is null on any mask; so the written
    # certificate, its null nodes rebuilt by the oracle, is held against
    # the tree of the certificate the step rule built
    _assert_agrees_with(make, "_boolean_cells", lambda L: 0, most, _expanded, _nested)


def _fresh(L: sb.FaceLattice):
    return lambda: sb.lattice_from_json_dict(sb.lattice_to_json_dict(L))


def _sphere_cases():
    for name, L in spheres_d_le_3():
        yield pytest.param(_fresh(L), id=name)
        yield pytest.param(_fresh(sb.punctured(L)), id=f"punctured-{name}")


@pytest.mark.parametrize("make", _sphere_cases())
def test_pruned_search_matches_unpruned_on_the_corpus(make):
    _assert_unpruned_agrees(make)


@pytest.mark.parametrize("make", [doubled_triangle, bowtie, mixed_dims_by_hand])
def test_pruned_search_matches_unpruned_off_spheres(make):
    _assert_unpruned_agrees(make)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts())
def test_pruned_search_matches_unpruned_on_small_posets(parts):
    _assert_unpruned_agrees(lambda: sb.build_lattice(*parts))


# -- the simplex certificate against the step rule -------------------------


def _sphere_ball_and_dual_cases():
    for name, L in spheres_d_le_3():
        yield pytest.param(_fresh(L), id=name)
        yield pytest.param(_fresh(sb.punctured(L)), id=f"punctured-{name}")
        yield pytest.param(_fresh(sb.dualize(L)), id=f"dual-{name}")


@pytest.mark.parametrize("make", _sphere_ball_and_dual_cases())
def test_simplex_certificates_match_the_step_rule_on_the_corpus(make):
    _assert_general_route_agrees(make)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts())
def test_simplex_certificates_match_the_step_rule_on_small_posets(parts):
    _assert_general_route_agrees(lambda: sb.build_lattice(*parts))


RELABELLED = {
    "simplex-boundary-5": lambda: sb.simplex_boundary(5),
    "cross-polytope-4": lambda: sb.cross_polytope(4),
    "cyclic-boundary-4-10": lambda: sb.cyclic_boundary(4, 10),
}


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_simplex_certificates_match_the_step_rule_on_relabelled_ids(name):
    L = RELABELLED[name]()
    L = relabelled(L, rank_permutation(L, random.Random(23)))
    # the empty prefix only: prefixes of one facet take about 2 s on these three
    _assert_general_route_agrees(_fresh(L), most=0)


# -- the Boolean-cell test ------------------------------------------------


def _boolean_ids(L: sb.FaceLattice) -> set[str]:
    mask = lattice._boolean_cells(L)
    return {i for x, i in enumerate(L.ids) if mask >> x & 1}


def _lattice(dim: int, cells: dict[str, str]) -> sb.FaceLattice:
    """Vertices named by one digit and, for each other cell, the cells it
    covers as a space-separated list; the top covers every cell no other
    cell covers."""
    elements = [(BOTTOM_ID, 0), (TOP_ID, dim + 2)]
    covers = []
    rank = {}
    for v in sorted({c for below in cells.values() for c in below.split() if c.isdigit()}):
        rank[v] = 1
        elements.append((v, 1))
        covers.append((BOTTOM_ID, v))
    for cell, below in cells.items():
        rank[cell] = 1 + max(rank[c] for c in below.split())
        elements.append((cell, rank[cell]))
        covers += [(c, cell) for c in below.split()]
    covered = {c for below in cells.values() for c in below.split()}
    covers += [(c, TOP_ID) for c in rank if c not in covered]
    return sb.build_lattice(elements, covers, dim)


# three edges on three vertices, two with the same ends: the counts of a
# triangle, not its face poset
DOUBLED_EDGE_TRIANGLE = {"a12": "1 2", "b12": "1 2", "c13": "1 3", "T": "a12 b12 c13"}


def test_boolean_test_rejects_a_triangle_with_a_doubled_edge():
    L = _lattice(2, DOUBLED_EDGE_TRIANGLE)
    assert "T" not in _boolean_ids(L)
    assert not naive_is_boolean(L, L.index("T"))
    assert {"a12", "b12", "c13"} <= _boolean_ids(L)


def test_boolean_test_rejects_a_tetrahedron_with_a_doubled_edge():
    # four triangles with distinct vertex sets, two of which hold different
    # edges on vertices 1 and 2
    edges = {"e12": "1 2", "f12": "1 2", "e13": "1 3", "e14": "1 4",
             "e23": "2 3", "e24": "2 4", "e34": "3 4"}
    triangles = {"t123": "e12 e13 e23", "t124": "f12 e14 e24",
                 "t134": "e13 e14 e34", "t234": "e23 e24 e34"}
    cells = {**edges, **triangles, "X": " ".join(triangles)}
    L = _lattice(3, cells)
    assert "X" not in _boolean_ids(L)
    assert not naive_is_boolean(L, L.index("X"))
    assert set(triangles) <= _boolean_ids(L)
    _assert_unpruned_agrees(lambda: _lattice(3, cells))


def _naive_boolean_ids(L: sb.FaceLattice) -> set[str]:
    return {L.ids[x] for x in range(len(L.ids)) if naive_is_boolean(L, x)}


def test_boolean_test_matches_the_naive_definition():
    # the whole mask, every cell and not only the facets
    spheres = [L for _, L in spheres_d_le_3()]
    cases = spheres + [sb.punctured(L) for L in spheres] + [L for _, L in balls()]
    cases += [sb.dualize(L) for L in cases] + [lune_sphere(), sb.punctured(lune_sphere())]
    cases += [doubled_triangle(), bowtie(), mixed_dims_by_hand(), sb.simplex_boundary(4)]
    # the dimension -1 lattice, whose top has rank 1; a 0-sphere, whose top
    # has rank 2; an n-gon
    cases += [
        sb.build_lattice([(BOTTOM_ID, 0), (TOP_ID, 1)], [(BOTTOM_ID, TOP_ID)], -1),
        sb.simplex_boundary(0),
        sb.ngon(5),
    ]
    # a triangle with a doubled edge, and a rank-2 cell over one vertex, as
    # the top and below it
    cases += [
        _lattice(2, DOUBLED_EDGE_TRIANGLE),
        _lattice(1, {"a": "1"}),
        _lattice(2, {"a": "1", "P": "a"}),
    ]
    for L in cases:
        assert _boolean_ids(L) == _naive_boolean_ids(L), L


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts())
def test_boolean_test_matches_the_naive_definition_on_small_posets(parts):
    L = sb.build_lattice(*parts)
    assert _boolean_ids(L) == _naive_boolean_ids(L)


# -- the 2-cell closed form ------------------------------------------------

# boundaries of 2-cells that are graphs but not cycles, as edges named by
# letters (index order) over vertices named by digits
GRAPHS = {
    "theta": {"a": "1 2", "b": "2 4", "c": "1 3", "d": "3 4", "e": "1 4"},
    "path": {"c": "1 2", "a": "2 3", "b": "3 4"},
    "two-triangles": {"a": "1 2", "d": "2 3", "b": "1 3", "e": "4 5", "c": "5 6", "f": "4 6"},
    "digon": {"a": "1 2", "b": "1 2"},
    "loop": {"a": "1"},
    "lollipop": {"b": "1", "a": "1 2"},
    "dangling-edge": {"a": "1 2", "c": "2 3", "d": "1 3", "b": "3 4"},
    "star": {"b": "1 2", "a": "1 3", "c": "1 4"},
    "two-triangles-at-a-vertex": {
        "a": "1 2", "b": "2 3", "f": "1 3", "c": "3 4", "e": "4 5", "d": "3 5"
    },
}


def _graph_cells():
    """Each graph as the boundary of a 2-cell in a 2-dimensional complex,
    and as the top of a 1-dimensional one."""
    for name, edges in GRAPHS.items():
        yield pytest.param(
            lambda edges=edges: (_lattice(2, {**edges, "P": " ".join(edges)}), "P"),
            id=f"cell-{name}",
        )
        yield pytest.param(lambda edges=edges: (_lattice(1, edges), TOP_ID), id=f"top-{name}")


@pytest.mark.parametrize("make", _graph_cells())
def test_graph_orders_match_the_unpruned_search(make):
    (L, cell), (M, _) = make(), make()
    x = L.index(cell)
    edges = [L.index(e) for e in L.faces(1)]
    for size in (0, 1, 2, 3):
        for prefix in combinations(edges, size):
            mask = sum(1 << e for e in prefix)
            budget = sb.SearchBudget()
            found = shelling._search(L, x, mask, lattice._boolean_cells(L), budget)
            assert budget.spent == 0
            simplices = lattice._boolean_cells(M)
            assert found == unpruned_search(M, x, mask, simplices, sb.SearchBudget()), [
                L.ids[e] for e in prefix
            ]


def _greedy_graph_order(L: sb.FaceLattice, edges: list[int], prefix: set[int]):
    """The 2-cell closed form from its definition, over vertex sets: the
    least remaining edge (from the prefix while it binds) that shares a
    vertex with the edges placed, any edge first."""
    order: list[int] = []
    seen: set[int] = set()
    left = sorted(edges)
    while left:
        pool = [e for e in left if e in prefix] if len(order) < len(prefix) else left
        f = next((e for e in pool if not order or seen & set(L._lower[e])), None)
        if f is None:
            return None
        order.append(f)
        left.remove(f)
        seen |= set(L._lower[f])
    return tuple(order)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_graph_orders_on_a_relabelled_polygon_match_the_definition(seed):
    # with the edges in random index order, most edges fail the test at
    # least once before they can follow
    P = sb.ngon(60)
    L = relabelled(P, rank_permutation(P, random.Random(seed)))
    lattice._down_sets(L)
    edges = [L.index(e) for e in L.faces(1)]
    rng = random.Random(seed)
    prefixes = [()] + [(e,) for e in edges] + [tuple(rng.sample(edges, 2)) for _ in range(20)]
    for prefix in prefixes:
        mask = sum(1 << e for e in prefix)
        assert shelling._graph_order(L, sum(1 << e for e in edges), mask) == (
            _greedy_graph_order(L, edges, set(prefix))
        ), prefix


# -- search effort ----------------------------------------------------------

# nodes spent by a cold find_shelling: deterministic, so a change in the
# search shows here even where its wall time is lost in noise
COLD_FIND_SPENT = {
    "simplex-boundary-8": (lambda: sb.simplex_boundary(8), 0),
    "cross-polytope-5": (lambda: sb.cross_polytope(5), 64),
    "hypercube-boundary-5": (lambda: sb.hypercube_boundary(5), 19_871),
    "cyclic-boundary-6-12": (lambda: sb.cyclic_boundary(6, 12), 126),
}


@pytest.mark.parametrize("name", sorted(COLD_FIND_SPENT))
def test_cold_find_spends_the_pinned_nodes(name):
    make, nodes = COLD_FIND_SPENT[name]
    budget = sb.SearchBudget()
    assert sb.find_shelling(make(), budget=budget) is not None
    assert budget.spent == nodes


def test_cold_find_on_a_polygon_spends_no_node():
    budget = sb.SearchBudget()
    assert sb.find_shelling(sb.ngon(8), budget=budget) is not None
    assert budget.spent == 0


# step-rule calls of a cold is_shelling of a found order: none where every
# cell is a simplex, one per top-level step where only the facets are, and
# more where the facets are not simplices either, though none on the edges
# of a 2-cell, whose steps are built when first read (216 on the cube
# before they were)
COLD_VERIFY_STEPS = {
    "simplex-boundary-6": (lambda: sb.simplex_boundary(6), 0),
    "cross-polytope-4": (lambda: sb.cross_polytope(4), 32),
    "hypercube-boundary-3": (lambda: sb.hypercube_boundary(3), 120),
}


@pytest.mark.parametrize("name", sorted(COLD_VERIFY_STEPS))
def test_cold_verify_applies_the_step_rule_the_pinned_times(name, monkeypatch):
    make, calls = COLD_VERIFY_STEPS[name]
    order = sb.find_shelling(make())
    counted = []
    step = shelling._step
    monkeypatch.setattr(shelling, "_step", lambda *args: counted.append(1) or step(*args))
    assert isinstance(sb.is_shelling(make(), order.facets), sb.ShellingCertificate)
    assert len(counted) == calls


# Boolean-mask reads of a cold is_shelling of a found order, by the search
# and the verifier together: one, by is_shelling, which passes the mask
# down, whatever the cells below the top are
COLD_VERIFY_MASK_READS = {
    "simplex-boundary-6": (lambda: sb.simplex_boundary(6), 1),
    "cross-polytope-4": (lambda: sb.cross_polytope(4), 1),
    "hypercube-boundary-3": (lambda: sb.hypercube_boundary(3), 1),
}


@pytest.mark.parametrize("name", sorted(COLD_VERIFY_MASK_READS))
def test_cold_verify_reads_the_boolean_mask_the_pinned_times(name, monkeypatch):
    make, reads = COLD_VERIFY_MASK_READS[name]
    order = sb.find_shelling(make())
    counted = []
    boolean_cells = shelling._boolean_cells
    monkeypatch.setattr(
        shelling, "_boolean_cells", lambda L: counted.append(1) or boolean_cells(L)
    )
    assert isinstance(sb.is_shelling(make(), order.facets), sb.ShellingCertificate)
    assert len(counted) == reads


@pytest.mark.parametrize(
    "make",
    [lambda: sb.cross_polytope(4), lambda: sb.hypercube_boundary(4)],
    ids=["cross-polytope-4", "hypercube-boundary-4"],
)
def test_each_entry_point_reads_the_boolean_mask_once_per_call(make, monkeypatch):
    counted = []
    boolean_cells = shelling._boolean_cells
    monkeypatch.setattr(
        shelling, "_boolean_cells", lambda L: counted.append(1) or boolean_cells(L)
    )

    def once(call, *args):
        counted.clear()
        result = call(*args)
        assert len(counted) == 1, call.__name__
        return result

    L = make()
    order = once(sb.find_shelling, L)  # cold
    once(sb.find_shelling, L)  # warm
    cert = once(sb.is_shelling, L, order)
    once(sb.is_shelling, L, order)  # warm
    # the writer reads it to tell which steps name no node
    once(cert.to_json_dict)


def test_search_walks_more_facets_than_the_recursion_limit():
    L = sb.from_facets(bipyramid_facets(600))
    assert len(L.facets()) > sys.getrecursionlimit()
    budget = sb.SearchBudget()
    order = sb.find_shelling(L, budget=budget)
    assert budget.spent == 278_920
    assert isinstance(sb.is_shelling(L, order), sb.ShellingCertificate)


# -- candidate masks against the generator walks they replaced ---------------


def _walk_cases():
    """Makers of the corpus, of each generator family with its
    relabellings at seeds 11 to 13, its puncture and its dual, and of the
    subdivided complexes, with their names."""
    cases = [(name, _fresh(L)) for name, L in spheres_d_le_3() + balls()]
    cases += [("doubled-triangle", doubled_triangle), ("bowtie", bowtie),
              ("mixed-dims", mixed_dims_by_hand), ("lune", lune_sphere)]
    families = {
        "simplex-boundary-5": lambda: sb.simplex_boundary(5),
        "cross-polytope-4": lambda: sb.cross_polytope(4),
        "hypercube-boundary-4": lambda: sb.hypercube_boundary(4),
        "ngon-9": lambda: sb.ngon(9),
        "cyclic-4-9": lambda: sb.cyclic_boundary(4, 9),
    }
    for name, make in families.items():
        cases += [(name, make), (f"punctured-{name}", lambda make=make: sb.punctured(make())),
                  (f"dual-{name}", lambda make=make: sb.dualize(make()))]
        for seed in (11, 12, 13):
            def relabel(make=make, seed=seed):
                L = make()
                return relabelled(L, rank_permutation(L, random.Random(seed)))
            cases.append((f"{name}-relabelled-{seed}", relabel))
    for name, (make, _) in SUBDIVIDED.items():
        cases.append((f"subdivided-{name}", lambda make=make: barycentric_subdivision(make())))
    return cases


def _walk_answers(L: sb.FaceLattice) -> tuple[list, set]:
    """``find_shelling`` for a few prefixes, then ``is_shelling`` of each
    order found and of the facets in reverse id order, each answer with
    the nodes it spent; and the keys the memo holds after them all."""
    facets = L.facets()
    out, orders = [], [facets[::-1]]
    # none, the first facet, the last, the first two, the first and last
    prefixes = [(), facets[:1], facets[-1:], facets[:2], facets[:1] + facets[-1:]]
    for prefix in dict.fromkeys(prefixes):
        budget = sb.SearchBudget()
        found = sb.find_shelling(L, prefix, budget=budget)
        out.append((prefix, None if found is None else found.facets, budget.spent))
        if found is not None:
            orders.append(found.facets)
    for order in dict.fromkeys(orders):
        budget = sb.SearchBudget()
        try:
            res = sb.is_shelling(L, order, budget=budget)
        except sb.PreconditionViolated as exc:
            out.append(str(exc))
        else:
            out.append((_written(L, res), budget.spent))
    return out, set(L._memo)


@pytest.mark.parametrize("make", [pytest.param(make, id=name) for name, make in _walk_cases()])
def test_mask_walks_match_the_generator_walks(make):
    answers = _walk_answers(make())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shelling, "_walk", generator_walk)
        mp.setattr(shelling, "_graph_order", generator_graph_order)
        assert answers == _walk_answers(make())
