"""A lattice builds its down-set masks and its upper-cover lists on first
read, each through its one accessor: which builders and queries build
which, copies and pickles, and the same answers whether or not the
arrays were built first."""

import copy
import pickle

import pytest

import shellbound as sb
from shellbound.lattice import _down_sets, _upper_covers

from corpus import balls, id_pair_json, spheres_d_le_3


def built(L: sb.FaceLattice) -> tuple[bool, bool]:
    """Whether ``L`` holds its down-sets, and whether its upper covers."""
    return L._down is not None, L._upper is not None


def parts(L: sb.FaceLattice) -> tuple:
    return list(zip(L.ids, L.ranks)), list(L.covers()), L.dim


BUILDERS = {
    "build_lattice": lambda: sb.build_lattice(*parts(sb.cross_polytope(3))),
    "from_facets": lambda: sb.from_facets([[1, 2, 3], [2, 3, 4], [1, 3, 4]]),
    "lattice_from_json_dict": lambda: sb.lattice_from_json_dict(
        sb.lattice_to_json_dict(sb.cross_polytope(3))
    ),
    "lattice_from_json_dict id pairs": lambda: sb.lattice_from_json_dict(
        id_pair_json(sb.cross_polytope(3))
    ),
    "dualize": lambda: sb.dualize(sb.cross_polytope(3)),
    "punctured": lambda: sb.punctured(sb.cross_polytope(3)),
    "sub_lattice": lambda: sb.sub_lattice(sb.hypercube_boundary(2), "**0"),
    "simplex_boundary": lambda: sb.simplex_boundary(3),
    "cross_polytope": lambda: sb.cross_polytope(3),
    "hypercube_boundary": lambda: sb.hypercube_boundary(3),
    "ngon": lambda: sb.ngon(5),
    "cyclic_boundary": lambda: sb.cyclic_boundary(4, 7),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_new_lattice_holds_neither_array(name):
    assert built(BUILDERS[name]()) == (False, False)


def test_counting_queries_build_neither():
    L = sb.hypercube_boundary(2)
    assert len(L) == 28 and L.faces(1)[0] == "*00" and len(L.facets()) == 6
    assert sb.f_vector(L).counts == (1, 8, 12, 6)
    assert built(L) == (False, False)


def test_a_json_dump_builds_neither():
    # the dump lists lower covers by position, and reads no upper cover
    L = sb.cross_polytope(3)
    sb.lattice_to_json_dict(L)
    assert built(L) == (False, False)


@pytest.mark.parametrize(
    "query", [sb.FaceLattice.covers, sb.is_diamond], ids=["covers", "is_diamond"]
)
def test_covers_and_the_diamond_test_build_the_upper_covers_only(query):
    L = sb.cross_polytope(3)
    query(L)
    assert built(L) == (False, True)


@pytest.mark.parametrize("make", [lambda: sb.cross_polytope(3), lambda: sb.hypercube_boundary(3)],
                         ids=["cross-polytope-3", "hypercube-boundary-3"])
def test_a_cold_search_or_verification_builds_the_down_sets_only(make):
    L = make()
    order = sb.find_shelling(L).facets
    assert built(L) == (True, False)
    M = make()
    assert isinstance(sb.is_shelling(M, order), sb.ShellingCertificate)
    assert built(M) == (True, False)


# -- the same answers from a fresh lattice and from one built first ------


def _plain(value):
    """``value`` in a form that compares equal across two lattices: a
    lattice as its fingerprint, a face set as its class and mask, a
    record as its JSON or its fields."""
    if isinstance(value, sb.FaceLattice):
        return value.fingerprint()
    if isinstance(value, (sb.Subcomplex, sb.FaceSet)):
        return type(value).__name__, value.mask
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, sb.Shape):
        return value.value
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if hasattr(value, "_fields"):
        return {f: _plain(getattr(value, f)) for f in value._fields}
    return value


def _answer(query, *args):
    try:
        return _plain(query(*args))
    except sb.ShellboundError as exc:
        return type(exc).__name__, str(exc)


def _each(query, arguments):
    return [_answer(query, *args) for args in arguments]


def _cuts(order):
    return range(len(order) + 1) if order else ()


# each query takes the lattice and a shelling of it, found on another copy
QUERIES = {
    "basics": lambda L, o: [len(L), L.bottom, L.top, L.face_ids(), L.facets(), repr(L),
                            [L.faces(k) for k in range(-1, L.dim + 2)]],
    "ranks": lambda L, o: [(L.index(i), L.rank_of(i), L.dim_of(i), i in L) for i in L.ids],
    "covers": lambda L, o: L.covers(),
    "lower_covers": lambda L, o: [L.lower_covers(i) for i in L.ids],
    "upper_covers": lambda L, o: [L.upper_covers(i) for i in L.ids],
    "leq": lambda L, o: [L.leq(a, b) for a in L.ids for b in L.ids],
    "down_set": lambda L, o: [L.down_set(i, s) for i in L.ids for s in (False, True)],
    "up_set": lambda L, o: [L.up_set(i, s) for i in L.ids for s in (False, True)],
    "fingerprint": lambda L, o: L.fingerprint(),
    "is_lattice": lambda L, o: sb.is_lattice(L),
    "is_diamond": lambda L, o: sb.is_diamond(L),
    "is_pure": lambda L, o: sb.is_pure(L),
    "is_pseudomanifold": lambda L, o: sb.is_pseudomanifold(L),
    "is_simplicial": lambda L, o: sb.is_simplicial(L),
    "boundary_complex": lambda L, o: sb.boundary_complex(L),
    "interior": lambda L, o: sb.interior(L),
    "f_vector": lambda L, o: sb.f_vector(L),
    "closure": lambda L, o: [sb.closure(L, [i]) for i in L.face_ids()],
    "dualize": lambda L, o: sb.dualize(L),
    "sub_lattice": lambda L, o: _each(sb.sub_lattice, [(L, i) for i in L.ids]),
    "punctured": lambda L, o: sb.punctured(L),
    "upper_interval_count": lambda L, o: _each(
        sb.upper_interval_count, [(L, i, s) for i in L.face_ids() for s in range(L.dim + 3)]
    ),
    "atom_avoiding_coatom": lambda L, o: _each(
        sb.atom_avoiding_coatom, [(L, c, b) for c in L.facets() for b in (None, *L.ids)]
    ),
    "lattice_to_json_dict": lambda L, o: sb.lattice_to_json_dict(L),
    "find_shelling": lambda L, o: sb.find_shelling(L),
    "find_shelling_from_the_last_facet": lambda L, o: sb.find_shelling(L, L.facets()[-1:]),
    "is_shelling": lambda L, o: sb.is_shelling(L, o),
    "is_shelling_reversed": lambda L, o: sb.is_shelling(L, L.facets()[::-1]),
    "classify": lambda L, o: sb.classify(L, sb.is_shelling(L, o)),
    "boundary_intersection": lambda L, o: _each(
        sb.boundary_intersection, [(L, o, j) for j in range(2, len(o) + 1)]
    ),
    "is_cl_shellable": lambda L, o: sb.is_cl_shellable(L),
    "is_dual_cl_shellable": lambda L, o: sb.is_dual_cl_shellable(L),
    "barany_check": lambda L, o: sb.barany_check(L),
    "simplicial_equality_identity": lambda L, o: sb.simplicial_equality_identity(L),
    "verify_lower_bound": lambda L, o: _each(
        sb.verify_lower_bound, [(L, o, k) for k in range(L.dim + 1)]
    ),
    "facet_decomposition": lambda L, o: sb.facet_decomposition(L, o),
    "split_complexes": lambda L, o: _each(sb.split_complexes, [(L, o, j) for j in _cuts(o)]),
    "check_split_count": lambda L, o: _each(
        sb.check_split_count, [(L, o, j, k) for j in _cuts(o) for k in range(L.dim + 1)]
    ),
    "find_witness_pair": lambda L, o: _each(sb.find_witness_pair, [(L, o, j) for j in _cuts(o)]),
    "corollary_bounds": lambda L, o: _each(sb.corollary_bounds, [(L, k) for k in range(L.dim + 1)]),
    "gubt_compare": lambda L, o: sb.gubt_compare(L, L.dim + 1, len(L.faces(0))),
}


def test_every_query_answers_alike_on_a_fresh_lattice_and_a_built_one():
    # a fresh lattice is built for every query, so that each query is the
    # first to read its arrays there: a reader that skips its accessor
    # fails on it
    for name, L in spheres_d_le_3() + balls():
        args = parts(L)
        order = sb.find_shelling(sb.build_lattice(*args)).facets
        for query_name, query in QUERIES.items():
            fresh, twin = sb.build_lattice(*args), sb.build_lattice(*args)
            _down_sets(twin)
            _upper_covers(twin)
            assert _answer(query, fresh, order) == _answer(query, twin, order), (
                name, query_name
            )


# -- copies and pickles ----------------------------------------------------


def _answers(L: sb.FaceLattice) -> list:
    order = sb.find_shelling(L)
    return [
        order.facets,
        _plain(sb.is_shelling(L, order.facets)),
        sb.lattice_to_json_dict(L),
        sb.is_diamond(L),
        [sorted(L.up_set(i)) for i in L.ids],
        _each(sb.verify_lower_bound, [(L, order.facets, k) for k in range(L.dim + 1)]),
    ]


@pytest.mark.parametrize("arrays_first", [False, True], ids=["unbuilt", "built"])
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda L: pickle.loads(pickle.dumps(L))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_answer_as_the_original(duplicate, arrays_first):
    L = sb.hypercube_boundary(3)
    if arrays_first:
        _down_sets(L)
        _upper_covers(L)
    twin = duplicate(L)
    assert twin._memo == {}
    assert built(twin) == built(L) == (arrays_first, arrays_first)
    expected = _answers(sb.hypercube_boundary(3))
    assert _answers(twin) == expected
    assert built(twin) == (True, True)
    assert _down_sets(twin) == _down_sets(L) and _upper_covers(twin) == _upper_covers(L)
    assert _answers(L) == expected
    # a duplicate of a lattice warm from every query starts cold too
    warm = duplicate(L)
    assert L._memo and warm._memo == {}
    assert _answers(warm) == expected and _answers(L) == expected


def test_an_unbuilt_shallow_copy_builds_its_down_sets_for_a_search():
    # a shallow copy has a memo of its own, so the original's calls leave
    # nothing there, and the copy's search builds its own down-sets
    L = sb.hypercube_boundary(3)
    find_twin, verify_twin = copy.copy(L), copy.copy(L)
    order = sb.find_shelling(L).facets
    sb.is_shelling(L, order)
    assert find_twin._memo is not L._memo and built(find_twin) == built(verify_twin) == (False, False)
    found = sb.find_shelling(find_twin, L.facets()[-1:])
    assert found.facets == sb.find_shelling(sb.hypercube_boundary(3), L.facets()[-1:]).facets
    assert isinstance(sb.is_shelling(verify_twin, order), sb.ShellingCertificate)
    assert built(find_twin) == built(verify_twin) == (True, False)


def test_what_a_shallow_copy_memoises_belongs_to_the_copy():
    L = sb.cross_polytope(2)
    twin = copy.copy(L)
    assert twin._memo == {} and twin._memo is not L._memo
    assert sb.boundary_complex(twin).lattice is twin
    assert sb.interior(L).lattice is L and sb.interior(twin).lattice is twin
    order = sb.find_shelling(L).facets
    assert sb.split_complexes(twin, order, 0).end.lattice is twin
    assert sb.split_complexes(L, order, 0).end.lattice is L
