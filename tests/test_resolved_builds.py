"""The builders that index their result themselves (``dualize``,
``punctured``, ``sub_lattice``, the closure of a facet set,
``from_facets`` and the generators)
against the string oracles, which hand ``(id, rank)`` and ``(id, id)``
pairs to ``build_lattice``: the same lattice, or the same error, every
time."""

from functools import lru_cache
from itertools import combinations, product

from hypothesis import given, settings, strategies as st

import shellbound as sb
from shellbound.lattice import _down_sets, _upper_covers

from corpus import (
    balls,
    bowtie,
    closure_lattice,
    doubled_triangle,
    graded_bounded_poset_parts,
    id_pair_json,
    lune_sphere,
    mixed_dims_by_hand,
    spheres_d_le_3,
)
from oracles import (
    filtered_gale_facets,
    string_dualize,
    string_from_facets,
    string_hypercube_boundary,
    string_ngon,
    string_punctured,
    string_restricted,
    string_sub_lattice,
)
from shellbound.generators import _gale_facets


def _outcome(build, *args):
    """Every field a lattice keeps, or the class and message of the
    error the build raised."""
    try:
        L = build(*args)
    except sb.ShellboundError as exc:
        return type(exc), str(exc)
    fields = (L.dim, L.ids, L.ranks, L._lower, _upper_covers(L), _down_sets(L), L._rank_masks,
              L._index)
    return fields, L.covers(), L.fingerprint()


def _same(build, oracle, *args):
    assert _outcome(build, *args) == _outcome(oracle, *args), args[1:]


@lru_cache(maxsize=None)
def _inputs() -> tuple[tuple[str, sb.FaceLattice], ...]:
    cases = list(spheres_d_le_3() + balls())
    cases += [(f"dual-{name}", sb.dualize(L)) for name, L in cases]
    cases += [
        ("doubled-triangle", doubled_triangle()),
        ("bowtie", bowtie()),
        ("mixed-dims", mixed_dims_by_hand()),
        ("lune", lune_sphere()),
        ("multi-char", sb.from_facets([[1, 2, 10], [2, 10, 11], [1, 10, 11], [1, 2, 11]])),
    ]
    return tuple(cases)


def _vertex_sets(L: sb.FaceLattice) -> list[list[str]]:
    atoms = L._rank_masks[1]
    return [list(L._ids_of(_down_sets(L)[L.index(f)] & atoms)) for f in L.facets()]


def _check_every_builder(L: sb.FaceLattice, cells=None) -> None:
    _same(sb.dualize, string_dualize, L)
    _same(sb.punctured, string_punctured, L)
    for f in L.facets()[-1:]:
        _same(sb.punctured, string_punctured, L, f)
    for i in L.face_ids() if cells is None else cells:
        _same(sb.sub_lattice, string_sub_lattice, L, i)
    facets = L.facets()
    for chosen in (facets[:1], facets[1::2], facets):
        _same(closure_lattice, string_restricted, L, chosen)


def test_derived_builders_match_the_string_oracles_on_the_corpus():
    for name, L in _inputs():
        _check_every_builder(L)
        if sb.is_pure(L) and all(len(s) == L.dim + 1 for s in _vertex_sets(L)):
            _same(sb.from_facets, string_from_facets, _vertex_sets(L))


def test_derived_builders_match_the_string_oracles_on_large_spheres():
    for L in (sb.simplex_boundary(10), sb.hypercube_boundary(6)):
        # every facet, and the first face of each lower dimension
        _check_every_builder(L, L.facets() + tuple(L.faces(k)[0] for k in range(L.dim)))
        D = sb.dualize(L)
        _check_every_builder(D, D.facets()[:3] + tuple(D.faces(k)[0] for k in range(D.dim)))
    _same(sb.from_facets, string_from_facets, list(combinations(range(1, 13), 11)))


def test_derived_builders_raise_what_the_string_oracles_raise():
    # the dual of a non-pure complex has an element with no chain to its
    # bottom, and only spheres are punctured
    for L in (mixed_dims_by_hand(), bowtie(), balls()[0][1]):
        _check_every_builder(L)
    _same(sb.punctured, string_punctured, sb.ngon(5), "v1")
    for facets in ([], [[]], [[1, 2], [3]], [["ab", "c-d"]], [["_bot"]], [["_top", "x"]],
                   [[1, 2], [2, 1], [2, 3]], [["a", "bc"], ["bc", "d"]]):
        _same(sb.from_facets, string_from_facets, facets)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts())
def test_derived_builders_match_the_string_oracles_on_small_posets(parts):
    L = sb.build_lattice(*parts)
    _check_every_builder(L)


_tokens = st.sampled_from(["1", "2", "3", "4", "5", "10", "11", "ab", "c-d", "_bot"])
# mostly facets of one size, which build, and some of mixed sizes
_facet_lists = st.one_of(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.sets(_tokens, min_size=k, max_size=k), max_size=8)
    ),
    st.lists(st.sets(_tokens, max_size=4), max_size=4),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_facet_lists)
def test_from_facets_matches_the_string_oracle_on_token_sets(facets):
    _same(sb.from_facets, string_from_facets, facets)


def test_each_builder_constructs_once(lattice_builds):
    S = sb.cross_polytope(2)
    parts = list(zip(S.ids, S.ranks)), list(S.covers()), S.dim
    data = sb.lattice_to_json_dict(S)
    calls = [
        (sb.build_lattice, parts),
        (sb.lattice_from_json_dict, (data,)),
        (sb.from_facets, ([[1, 2, 3], [1, 3, 4]],)),
        (sb.dualize, (S,)),
        (sb.punctured, (S,)),
        (sb.sub_lattice, (S, S.facets()[0])),
        (sb.hypercube_boundary, (2,)),
        (sb.ngon, (5,)),
    ]
    for build, args in calls:
        lattice_builds.count = 0
        build(*args)
        assert lattice_builds.count == 1, build


def test_the_generators_match_the_string_oracles():
    for d in [*range(11), 12]:
        facets = list(combinations(range(1, d + 3), d + 1))
        assert _outcome(sb.simplex_boundary, d) == _outcome(string_from_facets, facets), d
    for d in range(1, 7):
        facets = list(product(*[(i, i + d + 1) for i in range(1, d + 2)]))
        assert _outcome(sb.cross_polytope, d) == _outcome(string_from_facets, facets), d
        _same(sb.hypercube_boundary, string_hypercube_boundary, d)
    for n in (3, 4, 9, 10, 11, 101, 1000):
        _same(sb.ngon, string_ngon, n)


def test_the_walked_gale_facets_are_the_filtered_ones():
    for d in range(2, 7):
        for n in range(d + 1, 17):
            assert sorted(_gale_facets(d, n)) == filtered_gale_facets(d, n), (d, n)
    for d, n in ((2, 3), (2, 16), (3, 7), (4, 9), (5, 12), (6, 14), (4, 16)):
        facets = filtered_gale_facets(d, n)
        assert _outcome(sb.cyclic_boundary, d, n) == _outcome(string_from_facets, facets), (d, n)


def test_the_resolvers_hand_their_index_to_the_constructor(monkeypatch):
    # every library builder hands the constructor the id index it named
    # its faces with, whose int objects its lower lists hold, and the
    # lattice keeps that very index
    S = sb.simplex_boundary(8)
    parts = list(zip(S.ids, S.ranks)), list(S.covers()), S.dim
    files = sb.lattice_to_json_dict(S), id_pair_json(S)
    handed = []
    build = sb.FaceLattice._build

    def recording(self, index, ranks, lower):
        handed.append(index)
        build(self, index, ranks, lower)

    monkeypatch.setattr(sb.FaceLattice, "_build", recording)
    built = [
        sb.build_lattice(*parts),
        *map(sb.lattice_from_json_dict, files),
        sb.from_facets(combinations(range(1, 11), 9)),
        sb.hypercube_boundary(6),
        sb.ngon(1000),
        sb.dualize(S),
        sb.punctured(S),
        sb.sub_lattice(S, S.facets()[0]),
        closure_lattice(S, S.facets()[1::2]),
    ]
    assert len(handed) == len(built)
    for L, index in zip(built, handed):
        assert L._index is index
        nums = tuple(L._index.values())
        assert nums == tuple(range(len(L)))
        # the index's int objects, and no others, in every lower list
        assert all(nums[a] is a for below in L._lower for a in below)
