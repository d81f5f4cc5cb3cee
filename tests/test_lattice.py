import gc
import hashlib
import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import shellbound as sb
from shellbound import BOTTOM_ID, TOP_ID
from shellbound import lattice
from shellbound.lattice import _down_sets, _upper_covers

from corpus import (
    PRODUCT_BASES,
    SUBDIVIDED,
    balls,
    barycentric_subdivision,
    bipyramid_facets,
    bowtie,
    doubled_triangle,
    graded_bounded_poset_parts,
    graded_bounded_posets,
    id_pair_json,
    lune_sphere,
    mixed_dims_by_hand,
    prism,
    pyramid,
    rank_permutation,
    relabelled,
    spheres_d_le_3,
)
from oracles import (
    implied_covers,
    naive_atoms_avoiding_coatoms,
    naive_dim_and_counts,
    naive_is_diamond,
    naive_is_lattice,
    naive_is_pure,
    naive_lattice_arrays,
    naive_pseudomanifold,
    precheck_resolve_positions,
    reachability,
)


def zero_sphere() -> sb.FaceLattice:
    return sb.build_lattice(
        [(BOTTOM_ID, 0), ("v1", 1), ("v2", 1), (TOP_ID, 2)],
        [(BOTTOM_ID, "v1"), (BOTTOM_ID, "v2"), ("v1", TOP_ID), ("v2", TOP_ID)],
        0,
    )


def square_by_hand() -> sb.FaceLattice:
    ids = [("v1", 1), ("v2", 1), ("v3", 1), ("v4", 1),
           ("e12", 2), ("e23", 2), ("e34", 2), ("e41", 2)]
    covers = [(BOTTOM_ID, v) for v, _ in ids[:4]]
    for e, ends in [("e12", "12"), ("e23", "23"), ("e34", "34"), ("e41", "41")]:
        covers += [(f"v{ends[0]}", e), (f"v{ends[1]}", e), (e, TOP_ID)]
    return sb.build_lattice([(BOTTOM_ID, 0), (TOP_ID, 3)] + ids, covers, 1)


# -- construction and validation ----------------------------------------


def test_zero_sphere_builds():
    L = zero_sphere()
    assert L.dim == 0
    assert sb.f_vector(L).counts == (1, 2)
    assert L.facets() == ("v1", "v2")


def test_square_by_hand_matches_generator():
    L = square_by_hand()
    assert sb.f_vector(L).counts == (1, 4, 4)
    assert L.fingerprint() == sb.ngon(4).fingerprint()


def test_rank_jump_rejected():
    with pytest.raises(sb.NotGraded):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("v1", 1), ("f123", 3), (TOP_ID, 4)],
            [(BOTTOM_ID, "v1"), ("v1", "f123"), ("f123", TOP_ID)],
            2,
        )


def test_cycle_rejected():
    with pytest.raises(sb.CyclicCovers):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("a", 1), ("b", 1), (TOP_ID, 2)],
            [("a", "b"), ("b", "a")],
            0,
        )


def test_acyclic_covers_that_lower_the_index_are_walked():
    # the cover b -> a runs against the (rank, id) order, so the check
    # walks the covers; it finds no cycle and grading rejects the cover
    with pytest.raises(sb.NotGraded, match="jumps rank 1 to 1"):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("a", 1), ("b", 1), (TOP_ID, 2)],
            [(BOTTOM_ID, "a"), (BOTTOM_ID, "b"), ("b", "a"), ("a", TOP_ID), ("b", TOP_ID)],
            0,
        )


def _parts_with(L: sb.FaceLattice, cover: tuple[str, str]) -> tuple[list, list, int]:
    """``build_lattice``'s arguments for ``L`` with one more cover."""
    return list(zip(L.ids, L.ranks)), [*L.covers(), cover], L.dim


@pytest.mark.parametrize(
    "elements, covers, dim, error, message",
    [
        # v1 -> g and v2 -> f jump, v1 < v2 and f < g: the lesser lower
        # end is named, though the lesser upper end has the other cover
        ([(BOTTOM_ID, 0), ("v1", 1), ("v2", 1), ("e", 2), ("f", 3), ("g", 3), (TOP_ID, 4)],
         [(BOTTOM_ID, "v1"), (BOTTOM_ID, "v2"), ("v1", "e"), ("v2", "e"), ("e", "f"),
          ("e", "g"), ("v1", "g"), ("v2", "f"), ("f", TOP_ID), ("g", TOP_ID)], 2,
         sb.NotGraded, "cover ('v1', 'g') jumps rank 1 to 3"),
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("x", 3), (TOP_ID, 4)],
         [(BOTTOM_ID, "a"), ("a", "b"), ("b", "a"), ("a", "x"), ("x", TOP_ID)], 2,
         sb.CyclicCovers, "cover relation contains a cycle"),
        # b has no lower cover, and the bottom's cover of c jumps
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("c", 2), (TOP_ID, 3)],
         [(BOTTOM_ID, "a"), ("a", "c"), (BOTTOM_ID, "c"), ("c", TOP_ID)], 1,
         sb.NotGraded, "cover ('_bot', 'c') jumps rank 0 to 2"),
        # c -> b -> a runs against the index order, without a cycle
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("c", 1), (TOP_ID, 2)],
         [(BOTTOM_ID, "a"), ("c", "b"), ("b", "a"), ("a", TOP_ID), ("b", TOP_ID),
          ("c", TOP_ID)], 0,
         sb.NotGraded, "cover ('b', 'a') jumps rank 1 to 1"),
        # the same covers closed into a cycle by a -> c
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("c", 1), (TOP_ID, 2)],
         [(BOTTOM_ID, "a"), ("c", "b"), ("b", "a"), ("a", "c"), ("a", TOP_ID),
          ("b", TOP_ID), ("c", TOP_ID)], 0,
         sb.CyclicCovers, "cover relation contains a cycle"),
        # the top keeps a listed cover that jumps, beside the ones it implies
        (*_parts_with(sb.ngon(4), ("v1", TOP_ID)),
         sb.NotGraded, "cover ('v1', '_top') jumps rank 1 to 3"),
        # no face of rank dim + 1 for the top to cover
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("c", 2), (TOP_ID, 4)],
         [(BOTTOM_ID, "a"), (BOTTOM_ID, "b"), ("a", "c"), ("b", "c")], 2,
         sb.NotGraded, "element '_top' has no chain to the bottom"),
    ],
    ids=["two jumps in opposite orders", "cycle and jump", "jump and orphan",
         "acyclic against the index", "cycle against the index", "jump to the top",
         "no face of the top rank"],
)
def test_the_first_fault_of_the_covers_is_reported(elements, covers, dim, error, message):
    # the constructor checks the lower covers for a cycle, then for a rank
    # jump, then for an element with no lower cover
    with pytest.raises(sb.ShellboundError) as err:
        sb.build_lattice(elements, covers, dim)
    assert (type(err.value), str(err.value)) == (error, message)


def test_the_cycle_check_walks_covers_against_the_index():
    # lower covers as the constructor keeps them, but 3 lies under 1,
    # against the index order: the cycle check does not assume index order
    from shellbound.lattice import _check_acyclic

    lower = ((), (0, 3), (0,), (0,), (1, 2))
    assert _check_acyclic(lower) is None
    with pytest.raises(sb.CyclicCovers):
        _check_acyclic(((), (0, 3), (0,), (0, 1), (1, 2)))


def test_missing_extremes_rejected():
    with pytest.raises(sb.NoBottom):
        sb.build_lattice([("v1", 1), (TOP_ID, 2)], [], 0)
    with pytest.raises(sb.NoTop):
        sb.build_lattice([(BOTTOM_ID, 0), ("v1", 1)], [], 0)
    with pytest.raises(sb.NoBottom):
        # two rank-0 elements
        sb.build_lattice([(BOTTOM_ID, 0), ("x", 0), (TOP_ID, 2)], [], 0)


def test_duplicate_and_unknown_ids_rejected():
    with pytest.raises(sb.InvalidFace):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("v1", 1), ("v1", 1), (TOP_ID, 2)], [], 0
        )
    with pytest.raises(sb.InvalidFace):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("v1", 1), (TOP_ID, 2)], [("v9", TOP_ID)], 0
        )
    # an unknown id is reported before a cycle among the known ones
    with pytest.raises(sb.InvalidFace):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("a", 1), ("b", 1), (TOP_ID, 2)],
            [("a", "b"), ("b", "a"), ("v9", "a")],
            0,
        )
    # the first unknown cover in input order is named, whichever end is unknown
    elements = [(BOTTOM_ID, 0), ("v1", 1), (TOP_ID, 2)]
    for covers, named in [
        ([(BOTTOM_ID, "v1"), ("v1", "x9"), ("v8", TOP_ID)], "('v1', 'x9')"),
        ([(BOTTOM_ID, "v1"), ("v8", TOP_ID), ("v1", "x9")], "('v8', '_top')"),
    ]:
        with pytest.raises(sb.InvalidFace) as err:
            sb.build_lattice(elements, covers, 0)
        assert str(err.value) == f"cover {named} names an unknown element"


def test_rank_out_of_range_rejected():
    with pytest.raises(sb.RankOutOfRange):
        sb.build_lattice([(BOTTOM_ID, 0), ("x", 5), (TOP_ID, 2)], [], 0)


@pytest.mark.parametrize(
    "elements, dim",
    [
        ([(BOTTOM_ID, 0), ("a", 1.9), ("b", 1), (TOP_ID, 2)], 0),
        ([(BOTTOM_ID, 0), ("a", 1), ("b", True), (TOP_ID, 2)], 0),
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), (TOP_ID, 2)], 0.5),
    ],
    ids=["fractional rank", "boolean rank", "fractional dim"],
)
def test_non_integer_ranks_and_dims_rejected(elements, dim):
    # the constructor refuses what lattice_from_json_dict refuses, where
    # int() would have truncated it to a zero sphere
    covers = [(BOTTOM_ID, "a"), (BOTTOM_ID, "b"), ("a", TOP_ID), ("b", TOP_ID)]
    sb.build_lattice([(BOTTOM_ID, 0), ("a", 1), ("b", 1), (TOP_ID, 2)], covers, 0)
    with pytest.raises(sb.InvalidFace, match="not an integer"):
        sb.build_lattice(elements, covers, dim)


def test_orphan_element_rejected():
    # a non-bottom element with no lower cover has no chain to the bottom
    with pytest.raises(sb.NotGraded):
        sb.build_lattice(
            [(BOTTOM_ID, 0), ("v1", 1), ("v2", 1), (TOP_ID, 2)],
            [(BOTTOM_ID, "v1"), ("v1", TOP_ID), ("v2", TOP_ID)],
            0,
        )


@pytest.mark.parametrize(
    "elements, covers, dim, error, message",
    [
        ([("v1", 1), ("v2", 1), (TOP_ID, 2)], [("v9", TOP_ID)], 0,
         sb.NoBottom, "need exactly one rank-0 element, found 0"),
        ([(BOTTOM_ID, 0), ("v1", 1), ("t2", 2), (TOP_ID, 2)], [("v9", TOP_ID)], 0,
         sb.NoTop, "need exactly one rank-2 element, found 2"),
        ([(BOTTOM_ID, 0), ("v1", 1), ("v1", 1), (TOP_ID, 2)], [("v9", TOP_ID)], 0,
         sb.InvalidFace, "duplicate element ids"),
        ([(BOTTOM_ID, 0), ("v1", 1), ("v1", 1), ("x", 5), (TOP_ID, 2)], [], 0,
         sb.InvalidFace, "duplicate element ids"),
        ([(BOTTOM_ID, 0), (1, 1), ("1", 1), (TOP_ID, 2)], [], 0,
         sb.InvalidFace, "duplicate element ids"),
        ([(BOTTOM_ID, 0), ("v1", 1), (TOP_ID, 3)], [], True,
         sb.InvalidFace, "dimension True is not an integer"),
        ([("v1", 1), ("x", 5), (TOP_ID, 2)], [], 0,
         sb.RankOutOfRange, "rank 5 of 'x' outside [0, 2]"),
    ],
    ids=["no bottom, unknown cover", "two tops, unknown cover", "duplicate, unknown cover",
         "duplicate, rank out of range", "1 and '1'", "boolean dim",
         "rank out of range, no bottom"],
)
def test_the_first_fault_in_check_order_is_reported(elements, covers, dim, error, message):
    # each input has two faults, or one that a type check must see first;
    # build_lattice checks ids, then the dimension, ranks, extremes and
    # covers, and names the first fault it meets
    with pytest.raises(sb.ShellboundError) as err:
        sb.build_lattice(elements, covers, dim)
    assert (type(err.value), str(err.value)) == (error, message)


def _arrays(L: sb.FaceLattice) -> tuple[tuple, tuple, tuple, tuple]:
    """The cover neighbours and down-set masks the lattice keeps, and the
    up-set of every element as a mask, read through ``up_set``."""
    return (L._lower, _upper_covers(L), _down_sets(L),
            tuple(L._mask_of(L.up_set(i)) for i in L.ids))


def _check_constructor(elements, covers, dim, rng):
    """Build from shuffled elements and covers, every other cover given
    twice, and compare the cover neighbours, down-set bit vectors and
    up-sets with the naive oracle."""
    expected = naive_lattice_arrays(elements, covers, dim)
    elements, covers = list(elements), list(covers) + list(covers)[::2]
    rng.shuffle(elements)
    rng.shuffle(covers)
    L = sb.build_lattice(elements, covers, dim)
    assert _arrays(L) == expected
    assert L.covers() == tuple(sorted(implied_covers(elements, covers, dim)))
    return L


def test_constructor_matches_naive_oracle():
    cases = [(name, L) for name, L in spheres_d_le_3() + balls()]
    cases += [(f"dual-{name}", sb.dualize(L)) for name, L in cases]
    cases += [("zero-sphere", zero_sphere()), ("doubled-triangle", doubled_triangle()),
              ("bowtie", bowtie()), ("mixed-dims", mixed_dims_by_hand()),
              ("multi-char", sb.from_facets([[1, 2, 10], [2, 10, 11], [1, 10, 11]]))]
    for name, L in cases:
        elements, covers = list(zip(L.ids, L.ranks)), list(L.covers())
        assert _arrays(L) == naive_lattice_arrays(
            elements, covers, L.dim
        ), name
        _check_constructor(elements, covers, L.dim, random.Random(name))
        if name != "mixed-dims":
            assert sb.dualize(sb.dualize(L)).covers() == L.covers(), name


def test_the_constructor_rejects_arrays_of_unequal_length():
    with pytest.raises(sb.InvalidFace) as err:
        sb.FaceLattice({BOTTOM_ID: 0, TOP_ID: 1}, [0, 2], [()])
    assert str(err.value) == "2 ids, 2 ranks and 1 lower cover lists"


def test_the_constructor_refuses_a_call_without_a_bottom_and_a_top():
    for args in (({}, [], []), ({BOTTOM_ID: 0}, [0], [()])):
        with pytest.raises(sb.InvalidFace) as err:
            sb.FaceLattice(*args)
        assert str(err.value) == "need a bottom and a top"


def test_constructor_pauses_the_collector_and_restores_it():
    was_enabled = gc.isenabled()
    L = zero_sphere()
    elements, covers = list(zip(L.ids, L.ranks)), list(L.covers())
    seen = []

    def watched(pairs):
        seen.append(gc.isenabled())
        yield from pairs

    try:
        gc.enable()
        sb.build_lattice(elements, watched(covers), 0)
        assert seen == [False] and gc.isenabled()
        with pytest.raises(sb.CyclicCovers):
            sb.build_lattice(
                [(BOTTOM_ID, 0), ("a", 1), ("b", 1), (TOP_ID, 2)],
                [(BOTTOM_ID, "a"), ("a", "b"), ("b", "a"), ("b", TOP_ID)],
                0,
            )
        assert gc.isenabled()
        gc.disable()
        sb.build_lattice(elements, covers, 0)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_lattice_keeps_no_up_set_masks(traced):
    # an up-set mask spans the top, so n of them hold n^2 bits; the covers
    # answer every upward query
    assert "_up" not in sb.FaceLattice.__slots__
    S = sb.simplex_boundary(10)
    parts = list(zip(S.ids, S.ranks)), list(S.covers()), S.dim
    facets = [S._ids_of(_down_sets(S)[S.index(f)] & S._rank_masks[1]) for f in S.facets()]
    builds = [(sb.build_lattice, parts), (sb.from_facets, (facets,)), (sb.dualize, (S,)),
              (sb.punctured, (S,))]
    def read_in_full(build, *args):
        # the bound covers what a lattice keeps once both arrays are read
        L = build(*args)
        _down_sets(L), _upper_covers(L)
        return L

    for build, args in builds:
        kept, retained, _ = traced(read_in_full, build, *args)
        assert len(kept) == 2 ** 12 - (build is sb.punctured)
        assert retained < 3 * 2 ** 20, build
        # one int object per index, shared by the index and every cover list
        nums = list(kept._index.values())
        for lists in (kept._lower, _upper_covers(kept)):
            assert all(a is nums[a] for below in lists for a in below), build


def test_records_keep_their_fields_in_slots():
    from test_records import RECORDS

    for name, record in RECORDS.items():
        cls = type(record)
        # only the certificate keeps values in an instance dict: its order
        # once read, and a closed-form node's facet indices until its steps
        # are built
        extra = ("__dict__",) if name == "ShellingCertificate" else ()
        assert cls.__slots__ == cls._fields + extra, name
        assert hasattr(record, "__dict__") is bool(extra), name


def test_a_cold_certificate_keeps_its_size(traced):
    L = sb.simplex_boundary(8)
    order = sb.find_shelling(L)
    # the search memo is warm; the certificate and its sub-certificates
    # are what the verification adds
    cert, retained, _ = traced(sb.is_shelling, L, order)
    assert isinstance(cert, sb.ShellingCertificate)
    assert retained <= 800 * 2 ** 10


def test_a_cold_simplex_certificate_keeps_its_top_and_its_facets_unbuilt(traced):
    L = sb.simplex_boundary(8)
    order = sb.find_shelling(L)
    # the top's steps are built; each facet's sub-certificate holds its
    # facets, and builds its own steps when first read
    cert, retained, _ = traced(sb.is_shelling, L, order)
    assert isinstance(cert, sb.ShellingCertificate)
    assert retained < 64 * 2 ** 10


def test_iter_bits_matches_a_naive_scan_at_every_width():
    from shellbound.lattice import _iter_bits

    rng = random.Random(7)
    # narrow and wide, sparse and dense, and the extremes
    masks = [0, 1, (1 << 2048) - 1, (1 << 2049) - 1, 1 << 2048, (1 << 20_000) - 1]
    masks += [1 << 5000 | (1 << bits) - 1 for bits in (63, 64, 65)]
    for _ in range(40):
        width = rng.randint(0, 20_000)
        density = rng.choice((0.001, 0.1, 0.5, 0.99))
        masks.append(sum(1 << i for i in range(width) if rng.random() < density))
    for mask in masks:
        assert list(_iter_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_an_f_vector_is_indexed_by_dimension_and_not_iterated():
    f = sb.f_vector(sb.cross_polytope(2))
    assert (f[-1], f[0], f[2], f[3]) == (1, 6, 8, 0)
    # iterating by index would skip f_-1 and never end, as every index
    # past the dimension reads 0
    with pytest.raises(TypeError):
        iter(f)
    with pytest.raises(TypeError):
        list(f)
    with pytest.raises(TypeError):
        6 in f
    assert list(f.counts) == [1, 6, 12, 8]


def test_from_facets_examples():
    assert sb.f_vector(sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])).counts == (1, 4, 6, 4)
    path = sb.from_facets([[1, 2], [2, 3]])
    assert sb.f_vector(path).counts == (1, 3, 2)
    assert sb.f_vector(sb.cross_polytope(2)).counts == (1, 6, 12, 8)


def test_from_facets_rejects_bad_input():
    with pytest.raises(sb.EmptyInput):
        sb.from_facets([])
    with pytest.raises(sb.MixedDimensions):
        sb.from_facets([[1, 2], [3, 4, 5]])


def test_from_facets_refuses_a_facet_of_more_than_13_vertices():
    # 13 is the facet size of simplex_boundary(12); one facet of 14 alone
    # makes 16 383 faces, more than the largest family's elements
    with pytest.raises(sb.RangeError, match="at most 13 vertices, got 14"):
        sb.from_facets([range(14)])
    L = sb.from_facets([range(13)])
    assert sb.f_vector(L).proper == tuple(comb(13, k) for k in range(1, 14))


def test_from_facets_dedupes():
    L = sb.from_facets([[1, 2], [2, 1], [2, 3]])
    assert len(L.facets()) == 2


def test_from_facets_round_trip_of_maximal_faces():
    facets = [[1, 2, 3], [2, 3, 4], [1, 3, 4], [1, 2, 4]]
    L = sb.from_facets(facets)
    got = {frozenset(v for v in L.faces(0) if L.leq(v, F)) for F in L.facets()}
    assert got == {frozenset(str(x) for x in f) for f in facets}


def test_multi_char_tokens_use_separator():
    L = sb.from_facets([[1, 3], [3, 13], [13, 1]])
    assert set(L.faces(0)) == {"1", "3", "13"}
    assert set(L.faces(1)) == {"1-3", "3-13", "1-13"}
    with pytest.raises(sb.InvalidFace):
        sb.from_facets([["a-b", "c"], ["c", "d"], ["d", "a-b"]])


def test_from_facets_rejects_a_reserved_vertex_token():
    with pytest.raises(sb.InvalidFace, match="reserved id '_bot'"):
        sb.from_facets([["_bot", "x"], ["x", "y"], ["y", "_bot"]])


# -- order queries -------------------------------------------------------


def test_order_agrees_with_reachability_oracle():
    ids = [("v1", 1), ("v2", 1), ("v3", 1), ("v4", 1),
           ("e12", 2), ("e23", 2), ("e34", 2), ("e41", 2)]
    covers = [(BOTTOM_ID, v) for v, _ in ids[:4]]
    for e, ends in [("e12", "12"), ("e23", "23"), ("e34", "34"), ("e41", "41")]:
        covers += [(f"v{ends[0]}", e), (f"v{ends[1]}", e), (e, TOP_ID)]
    elements = [(BOTTOM_ID, 0), (TOP_ID, 3)] + ids
    L = sb.build_lattice(elements, covers, 1)
    above = reachability(elements, covers, BOTTOM_ID, TOP_ID)
    for a in L.face_ids():
        for b in L.face_ids():
            assert L.leq(a, b) == (b in above[a]), (a, b)


def test_implicit_extremes_bound_everything():
    L = mixed_dims_by_hand()
    assert L.leq("e45", TOP_ID)
    assert L.leq(BOTTOM_ID, "e45")
    assert TOP_ID in L.up_set("e45")
    assert BOTTOM_ID in L.down_set("v1")


def test_down_up_sets():
    L = sb.ngon(4)
    assert L.down_set("e12") == frozenset({BOTTOM_ID, "v1", "v2", "e12"})
    assert L.down_set("e12", strict=True) == frozenset({BOTTOM_ID, "v1", "v2"})
    assert L.up_set("v1") == frozenset({"v1", "e12", "e41", TOP_ID})
    assert L.faces(5) == ()
    assert L.faces(-1) == ()


def test_faces_sorted_lexicographically():
    L = sb.cross_polytope(2)
    assert list(L.facets()) == sorted(L.facets())
    assert list(L.faces(1)) == sorted(L.faces(1))


def test_faces_are_the_rank_masks_read_as_ids():
    cases = [L for _, L in spheres_d_le_3() + balls()]
    cases += [sb.dualize(L) for L in cases] + [sb.simplex_boundary(12)]
    for L in cases:
        for k in range(-1, L.dim + 2):
            assert L.faces(k) == L._ids_of(L._rank_masks[k + 1] & L._real_mask), (L, k)
        assert L.face_ids() == L._ids_of(L._real_mask)
        assert L.facets() == L.faces(L.dim)


# -- lattice / diamond / dual -------------------------------------------


def test_is_lattice():
    assert sb.is_lattice(sb.simplex_boundary(2))
    assert sb.is_lattice(zero_sphere())
    assert not sb.is_lattice(doubled_triangle())


def test_is_lattice_reads_the_tops_faces_from_the_upper_covers():
    # the triangle 123 and a second edge d12 on its vertices 1 and 2: the
    # edge is maximal, under the top only by the implicit order, so the
    # top's one lower cover is the triangle, yet the triangle and d12 are
    # both maximal faces of it, and they do not meet
    elements = [(BOTTOM_ID, 0), ("v1", 1), ("v2", 1), ("v3", 1), ("d12", 2), ("t123", 3),
                (TOP_ID, 4)]
    covers = [(BOTTOM_ID, "v1"), (BOTTOM_ID, "v2"), (BOTTOM_ID, "v3"), ("v1", "d12"),
              ("v2", "d12"), ("t123", TOP_ID)]
    for e in ("12", "13", "23"):
        elements.append((f"e{e}", 2))
        covers += [(f"v{e[0]}", f"e{e}"), (f"v{e[1]}", f"e{e}"), (f"e{e}", "t123")]
    L = sb.build_lattice(elements, covers, 2)
    assert L.lower_covers(TOP_ID) == ("t123",) and L.upper_covers("d12") == ()
    assert not sb.is_pure(L)
    assert not sb.is_lattice(L)
    assert not naive_is_lattice(L)


def test_the_top_covers_every_face_of_the_top_rank_unlisted():
    # the doubled triangle without the cover ('B', '_top'): the constructor
    # puts it back, so the build is the doubled triangle's
    D = doubled_triangle()
    covers = [c for c in D.covers() if c != ("B", TOP_ID)]
    L = sb.build_lattice(zip(D.ids, D.ranks), covers, D.dim)
    assert L.lower_covers(TOP_ID) == ("A", "B") and L.upper_covers("B") == (TOP_ID,)
    assert L.fingerprint() == D.fingerprint()
    assert not sb.is_lattice(L)


@pytest.mark.parametrize("dropped", [{("e12", TOP_ID)}, {(e, TOP_ID) for e in sb.ngon(4).facets()}],
                         ids=["one cover", "every cover"])
def test_a_missing_cover_to_the_top_changes_no_answer(dropped):
    # a facet listed with no cover to the top is given one, so dualize,
    # the corollaries and both JSON forms read the lattice the generator
    # builds
    S = sb.ngon(4)
    covers = [c for c in S.covers() if c not in dropped]
    assert len(covers) == len(S.covers()) - len(dropped)
    L = sb.build_lattice(zip(S.ids, S.ranks), covers, S.dim)
    assert L.fingerprint() == S.fingerprint()
    assert L.upper_covers("e12") == (TOP_ID,)
    assert sb.dualize(L).fingerprint() == sb.dualize(S).fingerprint()
    assert [sb.corollary_bounds(L, k) for k in (0, 1)] == [
        sb.corollary_bounds(S, k) for k in (0, 1)
    ]
    for data in (sb.lattice_to_json_dict(L), id_pair_json(L)):
        assert sb.lattice_from_json_dict(data).fingerprint() == S.fingerprint()


def test_is_lattice_matches_naive_oracle():
    cases = [(name, L) for name, L in spheres_d_le_3() + balls()]
    cases += [(f"dual-{name}", sb.dualize(L)) for name, L in cases]
    cases += [("doubled-triangle", doubled_triangle()), ("bowtie", bowtie()),
              ("mixed-dims", mixed_dims_by_hand()), ("lune-sphere", lune_sphere())]
    verdicts = {name: sb.is_lattice(L) for name, L in cases}
    assert verdicts == {name: naive_is_lattice(L) for name, L in cases}
    assert not verdicts["doubled-triangle"] and not verdicts["bowtie"]
    assert not verdicts["lune-sphere"]


def test_is_lattice_on_large_polytopes():
    # each takes seconds if every pair of elements is intersected
    for L in (sb.simplex_boundary(10), sb.hypercube_boundary(6), sb.cross_polytope(6)):
        assert sb.is_lattice(L), L


def _intersections(L: sb.FaceLattice) -> tuple[bool, int]:
    """``is_lattice(L)``, and how many intersections it took with a
    down-set."""
    taken = []

    class Counted(int):
        def __and__(self, other):
            taken.append(1)
            return int.__and__(self, other)

        __rand__ = __and__

    L._down = tuple(map(Counted, _down_sets(L)))
    return sb.is_lattice(L), len(taken)


def test_is_lattice_on_a_polygon_takes_linearly_many_intersections():
    # per edge: its two vertices, its atoms read under the top, and the
    # pair of edges at one vertex; all pairs of the top's edges would add
    # 1 999 000 at 2000 edges
    assert _intersections(sb.ngon(1000)) == (True, 3000)
    assert _intersections(sb.ngon(2000)) == (True, 6000)


def _polygon(n: int, doubled: bool, filled: bool) -> sb.FaceLattice:
    """The n-gon, with a second edge on the vertices 1 and 2 if
    ``doubled``, and filled by one 2-cell over all its edges if
    ``filled``."""
    edges = {f"e{i}": (f"v{i}", f"v{i % n + 1}") for i in range(1, n + 1)}
    if doubled:
        edges["d1"] = ("v1", "v2")
    elements = [(BOTTOM_ID, 0), (TOP_ID, 4 if filled else 3)]
    elements += [(f"v{i}", 1) for i in range(1, n + 1)] + [(e, 2) for e in edges]
    covers = [(BOTTOM_ID, f"v{i}") for i in range(1, n + 1)]
    covers += [(v, e) for e, ends in edges.items() for v in ends]
    if filled:
        elements.append(("P", 3))
        covers += [(e, "P") for e in edges] + [("P", TOP_ID)]
    else:
        covers += [(e, TOP_ID) for e in edges]
    return sb.build_lattice(elements, covers, 2 if filled else 1)


def test_is_lattice_matches_naive_oracle_on_wide_cells():
    # wide tops, whose pairs may be taken by atom: a polygon's, with and
    # without a doubled edge, and a bipyramid's, whose apexes lie in many
    # of its triangles; and wide cells below the top, which test every
    # pair: a filled polygon and the bipyramid's dual
    bipyramid = sb.from_facets(bipyramid_facets(12))
    cases = [_polygon(40, doubled, filled) for doubled in (False, True) for filled in (False, True)]
    cases += [sb.ngon(9), sb.ngon(17), bipyramid, sb.dualize(bipyramid)]
    verdicts = [sb.is_lattice(L) for L in cases]
    assert verdicts == [naive_is_lattice(L) for L in cases]
    assert verdicts == [True, True, False, False, True, True, True, True]




@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_bounded_posets)
def test_is_lattice_matches_naive_oracle_on_small_posets(L):
    assert sb.is_lattice(L) == naive_is_lattice(L)
    try:
        dual = sb.dualize(L)
    except sb.NotGraded:
        return
    assert sb.is_lattice(dual) == naive_is_lattice(dual)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts(), st.randoms(use_true_random=False))
def test_constructor_matches_naive_oracle_on_small_posets(parts, rng):
    L = _check_constructor(*parts, rng)
    try:
        dual = sb.dualize(L)
    except sb.NotGraded:
        return
    assert sb.dualize(dual).covers() == L.covers()


def test_is_diamond():
    assert sb.is_diamond(sb.cross_polytope(2))
    assert sb.is_diamond(sb.ngon(4))
    assert not sb.is_diamond(sb.from_facets([[1, 2], [2, 3]]))


def test_is_diamond_counts_paths_as_the_naive_oracle():
    """The bit-sliced path count against brute force on the subdivided
    complexes and their subdivisions, the pyramids and prisms, and on an
    edge reached from the bottom once and one reached three times."""
    cases = [make() for make, _ in SUBDIVIDED.values()]
    cases += [barycentric_subdivision(L) for L in cases]
    cases += [make(base()) for make in (pyramid, prism) for base in PRODUCT_BASES.values()]
    verdicts = [sb.is_diamond(L) for L in cases]
    assert verdicts == [naive_is_diamond(L) for L in cases]
    assert True in verdicts and False in verdicts
    # two edges x and y, each over the one vertex a, or each over the
    # three vertices a, b and c: every vertex lies in two edges, so only
    # the path count from the bottom tells these from a diamond
    for vertices in ("a", "abc"):
        elements = [(BOTTOM_ID, 0), (TOP_ID, 3), ("x", 2), ("y", 2)]
        elements += [(v, 1) for v in vertices]
        covers = [(BOTTOM_ID, v) for v in vertices]
        covers += [(v, edge) for edge in "xy" for v in vertices]
        L = sb.build_lattice(elements, covers, 1)
        assert not sb.is_diamond(L) and not naive_is_diamond(L)


def _check_upward_readers(L: sb.FaceLattice) -> None:
    """``is_diamond``, ``up_set``, ``upper_interval_count`` and
    ``atom_avoiding_coatom`` against brute force over the reachability
    closure of the covers."""
    assert sb.is_diamond(L) == naive_is_diamond(L)
    above = reachability(list(zip(L.ids, L.ranks)), list(L.covers()), L.bottom, L.top)
    top_rank = L.dim + 2
    for x, r in zip(L.ids, L.ranks):
        assert L.up_set(x) == frozenset(above[x])
        assert L.up_set(x, strict=True) == frozenset(above[x] - {x})
        for s in range(r, top_rank):
            count = sum(L.rank_of(y) == s for y in above[x])
            floor = comb(top_rank - r, top_rank - s)
            assert sb.upper_interval_count(L, x, s) == (count, count >= floor)
    for (coatom, base), atom in naive_atoms_avoiding_coatoms(L).items():
        if atom is None:
            with pytest.raises(sb.NoSuchAtom):
                sb.atom_avoiding_coatom(L, coatom, base)
        else:
            assert sb.atom_avoiding_coatom(L, coatom, base) == atom


def test_upward_readers_match_naive_oracles():
    cases = [(name, L) for name, L in spheres_d_le_3() + balls()]
    cases += [(f"dual-{name}", sb.dualize(L)) for name, L in cases]
    cases += [("doubled-triangle", doubled_triangle()), ("bowtie", bowtie()),
              ("mixed-dims", mixed_dims_by_hand()), ("zero-sphere", zero_sphere())]
    verdicts = {}
    for name, L in cases:
        _check_upward_readers(L)
        verdicts[name] = sb.is_diamond(L)
    assert verdicts["bowtie"] and not verdicts["mixed-dims"]
    assert all(verdicts[name] for name, _ in spheres_d_le_3())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_bounded_posets)
def test_upward_readers_match_naive_oracles_on_small_posets(L):
    _check_upward_readers(L)


def test_dualize_octahedron_is_cube_shaped():
    oct_ = sb.cross_polytope(2)
    dual = sb.dualize(oct_)
    assert sb.f_vector(dual).proper == (8, 12, 6)
    assert tuple(reversed(sb.f_vector(dual).proper)) == sb.f_vector(oct_).proper


def test_dualize_involution_and_self_dual_ngon():
    for L in (sb.ngon(4), sb.cross_polytope(2), zero_sphere()):
        assert sb.dualize(sb.dualize(L)).fingerprint() == L.fingerprint()
    g = sb.ngon(5)
    assert sb.f_vector(sb.dualize(g)).proper == (5, 5)


def test_dualize_rejects_nongraded_duals():
    # the dangling edge has no chain to the old top, so the dual order
    # has an element with no chain to its bottom
    with pytest.raises(sb.NotGraded):
        sb.dualize(mixed_dims_by_hand())


# -- closure / purity / boundary / interior ------------------------------


def test_closure_examples():
    oct_ = sb.cross_polytope(2)
    c = sb.closure(oct_, ["123"])
    assert sb.f_vector(c).counts == (1, 3, 3, 1)
    assert sb.closure(oct_, []).mask == 0
    g = sb.ngon(4)
    got = sb.closure(g, ["e12", "v3"])
    assert got.members == frozenset({BOTTOM_ID, "v1", "v2", "v3", "e12"})


def test_closure_idempotent_and_monotone():
    g = sb.ngon(5)
    small = sb.closure(g, ["e12"])
    big = sb.closure(g, ["e12", "e34"])
    assert sb.closure(g, small.members - {BOTTOM_ID}) == small
    assert small.mask & ~big.mask == 0


def test_face_sets_compare_by_class_lattice_and_mask():
    g = sb.ngon(4)
    c = sb.closure(g, ["e12"])
    assert c == sb.Subcomplex(g, c.mask) and hash(c) == hash(sb.Subcomplex(g, c.mask))
    assert sb.interior(g) == sb.FaceSet(g, sb.interior(g).mask)
    assert sb.Subcomplex(g, 0) != sb.FaceSet(g, 0)
    assert sb.Subcomplex(g, 0) != sb.Subcomplex(sb.ngon(4), 0)


def test_closure_rejects_top():
    g = sb.ngon(4)
    top = 1 << g.index(TOP_ID)
    for given in ([TOP_ID], [TOP_ID, "v1"], ["e12", TOP_ID], ["v1", TOP_ID, "e34"],
                  sb.FaceSet(g, top), sb.FaceSet(g, top | 1 << g.index("v2"))):
        with pytest.raises(sb.InvalidFace, match="artificial top"):
            sb.closure(g, given)
    # every id is resolved first, so an unknown one is named wherever the
    # top stands
    for given in (["nope", TOP_ID], [TOP_ID, "nope"], ["v1", TOP_ID, "nope"]):
        with pytest.raises(sb.InvalidFace, match="'nope'"):
            sb.closure(g, given)


def test_purity_and_pseudomanifold():
    oct_ = sb.cross_polytope(2)
    assert sb.is_pure(oct_) and sb.is_pseudomanifold(oct_)
    fan = sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    assert sb.is_pure(fan) and not sb.is_pseudomanifold(fan)
    assert not sb.is_pure(mixed_dims_by_hand())


def test_boundary_complex_examples():
    assert sb.boundary_complex(sb.cross_polytope(2)).mask == 0
    ball = sb.from_facets([[1, 2, 3], [2, 3, 4]])
    bd = sb.f_vector(sb.boundary_complex(ball))
    assert bd.proper == (4, 4)
    assert {"12", "13", "24", "34"} <= sb.boundary_complex(ball).members
    # boundary of a closed facet is its full rim
    tri = sb.closure(sb.cross_polytope(2), ["123"])
    assert sb.f_vector(sb.boundary_complex(tri)).proper == (3, 3)


def test_boundary_complex_needs_pseudomanifold():
    fan = sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    with pytest.raises(sb.NotPseudomanifold):
        sb.boundary_complex(fan)


def test_interior_examples():
    ball = sb.from_facets([[1, 2, 3], [2, 3, 4]])
    assert sb.interior(ball).members == frozenset({"123", "234", "23"})
    oct_ = sb.cross_polytope(2)
    inner = sb.interior(oct_)
    assert sb.f_vector(inner).proper == (6, 12, 8)
    g = sb.ngon(4)
    c = sb.closure(g, ["e12", "e23"])
    inner_c = sb.interior(c)
    assert inner_c.members == frozenset({"e12", "e23", "v2"})
    fv = sb.f_vector(inner_c)
    assert (fv[0], fv[1]) == (1, 2)


def test_boundary_interior_partition():
    for _, L in spheres_d_le_3():
        bd = sb.boundary_complex(L)
        inner = sb.interior(L)
        assert bd.mask & inner.mask == 0
        assert (bd.mask | inner.mask) & L._real_mask == L._real_mask


def test_pseudomanifold_and_boundary_match_naive_oracle():
    fan = sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]])
    pinched = sb.from_facets([[1, 2, 3], [1, 4, 5]])
    cases = [(L, True) for _, L in spheres_d_le_3()] + [(L, False) for _, L in balls()]
    cases += [(fan, False), (pinched, False), (mixed_dims_by_hand(), False)]
    for L, sphere in cases:
        parts = [L, sb.Subcomplex(L, 0), sb.Subcomplex(L, 1)]
        parts += [sb.closure(L, [f]) for f in L.facets()[:3]]
        if sb.is_pseudomanifold(L):
            parts += [sb.boundary_complex(L), sb.closure(L, sb.interior(L))]
            order = sb.find_shelling(L)
            if order is not None:
                for s in sb.facet_decomposition(L, order).splits:
                    parts += [s.before, s.after]
                if sphere:
                    for j in range(len(order) + 1):
                        pair = sb.split_complexes(L, order, j)
                        parts += [pair.begin, pair.end]
        for part in parts:
            members = L.ids if part is L else part.members
            ok, boundary = naive_pseudomanifold(L, set(members) - {L.top})
            assert sb.is_pseudomanifold(part) == ok, part
            if ok:
                assert sb.boundary_complex(part).members == boundary, part
            else:
                with pytest.raises(sb.NotPseudomanifold):
                    sb.boundary_complex(part)
    assert not sb.is_pseudomanifold(fan) and sb.is_pseudomanifold(pinched)


# the questions the complex layer answers, each as a comparable value
COMPLEX_QUESTIONS = {
    "pure": sb.is_pure,
    "pseudomanifold": sb.is_pseudomanifold,
    "boundary": lambda x: sb.boundary_complex(x).members,
    "interior": lambda x: sb.interior(x).members,
    "dim": lambda x: x.dim,
    "f_vector": sb.f_vector,
}


def _ask(x, questions) -> dict:
    answers = {}
    for q in questions:
        try:
            answers[q] = COMPLEX_QUESTIONS[q](x)
        except sb.NotPseudomanifold:
            answers[q] = sb.NotPseudomanifold
    return answers


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts(), st.randoms(use_true_random=False))
def test_complex_layer_matches_naive_oracle_on_small_posets(parts, rng):
    L = sb.build_lattice(*parts)
    faces = L.face_ids()
    masks = [L._real_mask | 1, 0, 1]
    masks += [sb.closure(L, rng.sample(faces, rng.randint(1, len(faces)))).mask
              for _ in range(6)]
    forward = list(COMPLEX_QUESTIONS)
    for mask in masks:
        members = L._ids_of(mask)
        ok, boundary = naive_pseudomanifold(L, members)
        dim, counts = naive_dim_and_counts(L, members)
        expected = {
            "pure": naive_is_pure(L, members),
            "pseudomanifold": ok,
            "boundary": boundary if ok else sb.NotPseudomanifold,
            "interior": frozenset(members) - boundary - {L.bottom} if ok else sb.NotPseudomanifold,
            "dim": dim,
            "f_vector": sb.FVector(dim, counts),
        }
        # two objects with one mask, asked in opposite orders: no answer
        # may depend on which question was asked first
        assert _ask(sb.Subcomplex(L, mask), forward) == expected, members
        assert _ask(sb.Subcomplex(L, mask), forward[::-1]) == expected, members
        if mask == masks[0]:
            assert _ask(L, forward[::-1]) == expected


def test_dim_and_f_vector_match_naive_oracle():
    cases = [(L, True) for _, L in spheres_d_le_3()] + [(L, False) for _, L in balls()]
    for L, sphere in cases:
        order = sb.find_shelling(L)
        parts = [sb.interior(L), sb.boundary_complex(L), sb.Subcomplex(L, 0)]
        for s in sb.facet_decomposition(L, order).splits:
            parts += [s.before, s.after, s.before_interior, s.after_interior]
        if sphere:
            for j in range(len(order) + 1):
                pair = sb.split_complexes(L, order, j)
                parts += [pair.begin, pair.end, pair.begin_interior, pair.end_interior]
        for part in parts:
            dim, counts = naive_dim_and_counts(L, part.members)
            fv = sb.f_vector(part)
            assert (fv.dim, fv.counts) == (dim, counts), part
            assert part.dim == dim, part
    # whole lattices: every face but the artificial top
    wholes = [L for L, _ in cases]
    wholes += [sb.dualize(L) for L in wholes]
    square = sb.ngon(4)
    wholes += [sb.sub_lattice(square, square.faces(0)[0]), zero_sphere()]
    for L in wholes:
        dim, counts = naive_dim_and_counts(L, [i for i in L.ids if i != L.top])
        fv = sb.f_vector(L)
        assert (fv.dim, fv.counts) == (L.dim, counts) == (dim, counts), L


def test_empty_complex_f_vector():
    v = sb.ngon(4).faces(0)[0]
    empty = sb.sub_lattice(sb.ngon(4), v)
    assert empty.dim == -1
    assert sb.f_vector(empty).counts == (1,)
    assert sb.f_vector(empty).proper == ()


# -- sub_lattice and interval helpers ------------------------------------


def test_sub_lattice_examples():
    oct_ = sb.cross_polytope(2)
    tri = sb.sub_lattice(oct_, "123")
    assert tri.dim == 1 and sb.f_vector(tri).proper == (3, 3)
    edge = sb.sub_lattice(oct_, "12")
    assert edge.dim == 0 and sb.f_vector(edge).proper == (2,)
    with pytest.raises(sb.InvalidFace):
        sb.sub_lattice(oct_, TOP_ID)
    with pytest.raises(sb.InvalidFace):
        sb.sub_lattice(oct_, "nope")


def test_upper_interval_count_examples():
    oct_ = sb.cross_polytope(2)
    v = oct_.faces(0)[0]
    assert sb.upper_interval_count(oct_, v, 2) == (4, True)
    assert sb.upper_interval_count(oct_, v, 3) == (4, True)
    tet = sb.simplex_boundary(2)
    assert sb.upper_interval_count(tet, tet.bottom, 2) == (6, True)
    # a rank that is not an int raised a ValueError from islice, or passed
    for s in (2.0, True, 0, 4):
        with pytest.raises(sb.RankOutOfRange) as err:
            sb.upper_interval_count(oct_, v, s)
        assert str(err.value) == f"need 1 <= s <= 3, got s={s!r}"
    # both ends are admitted: the vertex itself, and the facets above it
    assert sb.upper_interval_count(oct_, v, 1) == (1, True)
    # the artificial top is refused as no face, not with an empty range
    with pytest.raises(sb.InvalidFace, match="^the artificial top is not a face$"):
        sb.upper_interval_count(oct_, TOP_ID, 3)


def test_atom_avoiding_coatom_examples():
    assert sb.atom_avoiding_coatom(sb.cross_polytope(2), "123") == "4"
    assert sb.atom_avoiding_coatom(zero_sphere(), "v1") == "v2"
    assert sb.atom_avoiding_coatom(sb.ngon(4), "e12") == "v3"


def test_atom_avoiding_coatom_with_base():
    # atoms of [v3, top] in the 4-gon are e23 and e34; e23 lies under
    # the coatom's closure only if the coatom is e23 itself
    assert sb.atom_avoiding_coatom(sb.ngon(4), "e23", "v3") == "e34"


def test_atom_avoiding_coatom_failure():
    disk = sb.from_facets([[1, 2, 3]])
    with pytest.raises(sb.NoSuchAtom):
        sb.atom_avoiding_coatom(disk, "123")


def test_atom_avoiding_coatom_checks_its_arguments():
    oct_ = sb.cross_polytope(2)
    for coatom in ("12", "1", oct_.bottom, oct_.top):
        with pytest.raises(sb.InvalidFace):
            sb.atom_avoiding_coatom(oct_, coatom)
    with pytest.raises(sb.InvalidFace):
        sb.atom_avoiding_coatom(oct_, "123", oct_.top)


# -- serialization -------------------------------------------------------


def test_json_round_trip():
    for L in (sb.ngon(4), sb.cross_polytope(2), sb.hypercube_boundary(2)):
        data = sb.lattice_to_json_dict(L)
        back = sb.lattice_from_json_dict(json.loads(json.dumps(data)))
        assert back.fingerprint() == L.fingerprint()


# sha256 of json.dumps(lattice_to_json_dict(L), sort_keys=True, indent=2),
# pinning face ids and face order and with them every report's bytes, at
# schema 0.5.0, where each face lists its lower covers by position
LATTICE_JSON_SHA256 = {
    "simplex-boundary-6": "3a9288b8a8d5ec351808f36625618027dd733c6d4ebce7843da2b42b33fd400e",
    "cyclic-6-10": "edf2ceade5ce6ab839c8fd7a4553e76f6c1b4dc2dd90fcb76ca4f505ecf63494",
    "hypercube-boundary-4": "f3e0cde5494b14a7e2687c93180cd53392b000ff6199ec3cae30d959b6a7d9d3",
    "punctured-cross-polytope-4":
        "d63fe0cee6e0faa800ef3ad5a427a76076b1a08b7e860ab106db5ac3d162d341",
    "multi-char-tokens": "f1a7ccfb74e64ed4d9ab0e9c865fae4101035a8bf9a9166a97e1132e8c51ec01",
}

# the same digests of the id-pair form, ``corpus.id_pair_json``: the bytes
# that schema 0.4.0 wrote for these lattices
ID_PAIR_JSON_SHA256 = {
    "simplex-boundary-6": "7ebfcba4697353fed8dce4a5a70722dc4f6162b1ce5dc03618bbe4b7b67b82a0",
    "cyclic-6-10": "5f9860bcfed36ec87072814e1027b927e01137f43959d1edf96d9e764ce49ef7",
    "hypercube-boundary-4": "5fe3c1d413d2efee8d32617ac6e5c066f187c362d27bbfe79a5fc97003e555fe",
    "punctured-cross-polytope-4":
        "f3b55c6c47d4c24dd6b8356fbffef11ed88fe65f63df8d3cdbd961dda077c87a",
    "multi-char-tokens": "2541712ef9329761c0ad7bb6a8ec5372d21d48ef53e9ec4063b64be0553c8751",
}


def _pinned_cases() -> dict:
    cases = {
        "simplex-boundary-6": sb.simplex_boundary(6),
        "cyclic-6-10": sb.cyclic_boundary(6, 10),
        "hypercube-boundary-4": sb.hypercube_boundary(4),
        "punctured-cross-polytope-4": sb.punctured(sb.cross_polytope(4)),
        "multi-char-tokens": sb.from_facets([[1, 2, 10], [2, 10, 11], [1, 10, 11], [1, 2, 11]]),
    }
    assert "1-2-10" in cases["multi-char-tokens"]
    return cases


def _digests(write, cases: dict) -> dict:
    return {
        name: hashlib.sha256(json.dumps(write(L), sort_keys=True, indent=2).encode()).hexdigest()
        for name, L in cases.items()
    }


def _resolved(L: sb.FaceLattice) -> tuple:
    # the file names no extreme, and a load calls them "_bot" and "_top",
    # where a dual's bottom is "_top"
    return L.dim, L.ids[1:-1], L.ranks, L._lower


def test_lattice_json_bytes_are_pinned():
    assert _digests(sb.lattice_to_json_dict, _pinned_cases()) == LATTICE_JSON_SHA256


def test_both_forms_of_the_pinned_lattices_load_alike():
    cases = _pinned_cases()
    # the id-pair files are the ones schema 0.4.0 wrote, byte for byte
    assert _digests(id_pair_json, cases) == ID_PAIR_JSON_SHA256
    for name, L in cases.items():
        old = sb.lattice_from_json_dict(json.loads(json.dumps(id_pair_json(L))))
        new = sb.lattice_from_json_dict(json.loads(json.dumps(sb.lattice_to_json_dict(L))))
        assert _resolved(old) == _resolved(new) == _resolved(L), name


def _round_trip_cases():
    """Each generator family, punctured, dualized and relabelled at seeds
    11 and 12, then the corpus lattices built by hand, with their names."""
    families = {
        "simplex-boundary-4": sb.simplex_boundary(4),
        "cross-polytope-3": sb.cross_polytope(3),
        "hypercube-boundary-3": sb.hypercube_boundary(3),
        "ngon-7": sb.ngon(7),
        "cyclic-4-8": sb.cyclic_boundary(4, 8),
    }
    for name, L in families.items():
        yield name, L
        yield f"{name} punctured", sb.punctured(L)
        yield f"{name} dualized", sb.dualize(L)
        for seed in (11, 12):
            name_map = rank_permutation(L, random.Random(seed))
            yield f"{name} relabelled {seed}", relabelled(L, name_map)
    for name, L in (("bowtie", bowtie()), ("mixed dims", mixed_dims_by_hand()),
                    ("lune", lune_sphere()), ("empty complex", sb.sub_lattice(sb.ngon(3), "v1"))):
        yield name, L


@pytest.mark.parametrize("L", [pytest.param(L, id=name) for name, L in _round_trip_cases()])
def test_a_json_round_trip_keeps_ids_ranks_and_lower_covers(L):
    data = json.loads(json.dumps(sb.lattice_to_json_dict(L)))
    assert _resolved(sb.lattice_from_json_dict(data)) == _resolved(L)
    # and a file in the positional form equals its id-pair twin
    twin = json.loads(json.dumps(id_pair_json(L)))
    assert _resolved(sb.lattice_from_json_dict(twin)) == _resolved(L)


def _load_outcome(data: dict):
    """What a load of ``data`` keeps, or the class and message of the
    error it raised."""
    try:
        return _resolved(sb.lattice_from_json_dict(data))
    except sb.ShellboundError as exc:
        return type(exc), str(exc)


def _assert_any_file_order_loads_alike(L: sb.FaceLattice, rng: random.Random) -> None:
    """``L`` as lattice JSON with its faces in a random file order, each
    lower list reversed and repeated, loads as its id-pair twin does, in
    the same order with every cover twice and the covers shuffled."""
    data, twin = sb.lattice_to_json_dict(L), id_pair_json(L)
    order = rng.sample(range(len(data["faces"])), len(data["faces"]))
    moved = {p: q for q, p in enumerate(order)}
    faces = [dict(data["faces"][p]) for p in order]
    for f in faces:
        f["lower"] = [moved[q] for q in reversed(f["lower"] * 2)]
    covers = twin["covers"] * 2
    rng.shuffle(covers)
    twin = {**twin, "faces": [twin["faces"][p] for p in order], "covers": covers}
    expected = _load_outcome(twin)
    assert _load_outcome({"dim": data["dim"], "faces": faces}) == expected
    assert _load_outcome(data) == expected


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_positions_may_come_in_any_order_on_the_corpus(seed):
    rng = random.Random(seed)
    cases = [*spheres_d_le_3(), *balls(), *_round_trip_cases()]
    for _, L in cases:
        _assert_any_file_order_loads_alike(L, rng)
    # where the top covers every face of the top dimension, the load is the lattice itself
    for _, L in spheres_d_le_3():
        assert _load_outcome(sb.lattice_to_json_dict(L)) == _resolved(L)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graded_bounded_poset_parts(), st.randoms(use_true_random=False))
def test_positions_may_come_in_any_order_on_small_posets(parts, rng):
    _assert_any_file_order_loads_alike(sb.build_lattice(*parts), rng)


def _edit_lower(face: dict, p: int, m: int, rng: random.Random) -> None:
    """One edit of the ``lower`` list of ``face``, at file position ``p``
    of ``m``, as ``LOWER_FAULTS`` in ``test_cli.py`` makes them: the list
    dropped or set to a value that is not a list, or one or two entries
    put in or overwritten, each with one of the faulty values or with a
    position in range; or one of its entries repeated, which leaves the
    file valid."""
    kind = rng.choice(["missing", "not a list", "entry", "entry", "repeat"])
    below = face["lower"]
    if kind == "missing":
        del face["lower"]
        return
    if kind == "not a list":
        face["lower"] = rng.choice([None, "01", {}, 0])
        return
    if kind == "repeat":
        if below:
            below.insert(rng.randrange(len(below) + 1), rng.choice(below))
        return
    for _ in range(rng.choice([1, 2])):
        q = rng.randrange(m)
        value = rng.choice([-1, -m, True, False, float(q), str(q), m, m + 1, p, q])
        if below and rng.random() < 0.5:
            below[rng.randrange(len(below))] = value
        else:
            below.insert(rng.randrange(len(below) + 1), value)


def _kept_or_raised(data: dict):
    """What a load of ``data`` keeps, its id index too, or the class and
    message of the error it raised."""
    try:
        L = sb.lattice_from_json_dict(data)
    except sb.ShellboundError as exc:
        return type(exc), str(exc)
    return L.dim, L.ids, L.ranks, L._lower, L._index


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_the_loader_names_the_fault_the_precheck_named(monkeypatch, seed):
    # one or two edited lower lists, on different faces taken in either
    # order, in the positional JSON of the corpus, half of it with its
    # faces shuffled: the load raises what the resolver with a whole-file
    # pre-check raised, or builds what it built
    rng = random.Random(seed)
    cases = [*spheres_d_le_3(), *balls(), *_round_trip_cases()]
    files = [json.dumps(sb.lattice_to_json_dict(L)) for _, L in cases if len(L) > 2]
    named, built = [], 0
    for _ in range(300):
        data = json.loads(rng.choice(files))
        faces = data["faces"]
        m = len(faces)
        if rng.random() < 0.5:
            order = rng.sample(range(m), m)
            moved = {p: q for q, p in enumerate(order)}
            data["faces"] = faces = [faces[p] for p in order]
            for f in faces:
                f["lower"] = [moved[q] for q in f["lower"]]
        for p in rng.sample(range(m), min(m, rng.choice([1, 2]))):
            _edit_lower(faces[p], p, m, rng)
        got = _kept_or_raised(data)
        with monkeypatch.context() as patched:
            patched.setattr(lattice, "_resolve_positions", precheck_resolve_positions)
            assert got == _kept_or_raised(data)
        if got[0] is sb.InvalidFace:
            named.append(got[1])
        built += type(got[0]) is int
    # every fault was named, and some edited files still built
    for fault in ("has no 'lower' list", "is not a list", "not a position",
                  "outside positions", "lists itself"):
        assert any(fault in message for message in named), fault
    assert built


def test_json_round_trip_of_the_empty_complex():
    # the (-1)-dimensional complex has no face of its dimension, so the
    # loader sets the top over the bottom itself
    L = sb.sub_lattice(sb.simplex_boundary(2), "1")
    data = sb.lattice_to_json_dict(L)
    assert data == {"dim": -1, "faces": []}
    back = sb.lattice_from_json_dict(json.loads(json.dumps(data)))
    assert sb.lattice_to_json_dict(back) == data
    assert back.ranks == (0, 1)


def test_json_dict_shape():
    assert sb.lattice_to_json_dict(zero_sphere()) == {
        "dim": 0,
        "faces": [{"dim": 0, "id": "v1", "lower": []}, {"dim": 0, "id": "v2", "lower": []}],
    }
    # each face lists its lower covers by their positions in "faces"
    assert sb.lattice_to_json_dict(sb.ngon(3))["faces"] == [
        {"dim": 0, "id": "v1", "lower": []},
        {"dim": 0, "id": "v2", "lower": []},
        {"dim": 0, "id": "v3", "lower": []},
        {"dim": 1, "id": "e12", "lower": [0, 1]},
        {"dim": 1, "id": "e23", "lower": [1, 2]},
        {"dim": 1, "id": "e31", "lower": [0, 2]},
    ]


def test_a_json_load_holds_one_copy_of_each_cover(traced):
    text = json.dumps(sb.lattice_to_json_dict(sb.simplex_boundary(10)))
    L, retained, peak = traced(lambda: sb.lattice_from_json_dict(json.loads(text)))
    assert len(L) == 2 ** 12
    # the decoded dict and the loader's temporaries together: 2.45 MiB
    # above the lattice with covers by position, 6.6 MiB when each cover
    # was two id strings; the bound leaves 0.55 MiB of margin
    assert peak - retained < 3 * 2 ** 20
    # the loader alone, on the decoded dict: each cover list of the
    # lattice is made once, 0.62-0.69 MiB above the lattice (3.0 MiB when
    # the covers were copied before they were resolved); 0.2 MiB of margin
    L, retained, peak = traced(sb.lattice_from_json_dict, json.loads(text))
    assert peak - retained < 0.9 * 2 ** 20


def test_a_build_holds_one_cover_table_at_a_time(traced):
    S = sb.simplex_boundary(10)
    parts = list(zip(S.ids, S.ranks)), list(S.covers()), S.dim
    # the first build of a process keeps more than the lattice, which the
    # second does not
    sb.build_lattice(*parts)
    L, retained, peak = traced(sb.build_lattice, *parts)
    assert len(L) == 2 ** 12
    # the temporaries of the resolver and the constructor: 0.45 MiB above
    # the lattice when each lower list was sorted through a set and the
    # constructor made a second index, 0.50 MiB with the lower lists
    # filled from the covers filed under their lower ends; 0.59 MiB if
    # each filed list were kept to the end, 0.71 MiB if every lower list
    # were made before the first entry
    assert peak - retained < 0.55 * 2 ** 20


def test_from_facets_holds_each_face_as_one_int(traced):
    facets = list(combinations(range(1, 13), 11))
    sb.from_facets(facets)
    L, retained, peak = traced(sb.from_facets, facets)
    assert len(L) == 2 ** 12
    # the rank layers of vertex masks, one rank's names and index, and the
    # lower lists: 0.65 MiB above the lattice; 1.16 MiB when each face
    # was a tuple of tokens, sorted under a (size, id, tuple) key
    assert peak - retained < 0.9 * 2 ** 20


def test_dumping_a_lattice_memoises_no_covers():
    L = sb.simplex_boundary(4)
    sb.lattice_to_json_dict(L)
    assert "covers" not in L._memo
    assert L.covers() == tuple(sorted(L.covers()))
    assert "covers" not in L._memo


def _triangle_json() -> dict:
    """Lattice JSON of a triangle whose face ids are single characters."""
    faces = [{"id": v, "dim": 0} for v in "abc"] + [{"id": e, "dim": 1} for e in "xyz"]
    covers = [list(c) for c in ("ax", "bx", "by", "cy", "cz", "az")]
    return {"dim": 1, "faces": faces, "covers": covers}


def _unpacking_message(value) -> str:
    """The interpreter's message for unpacking ``value`` into two names."""
    try:
        _, _ = value
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{value!r} unpacks into two")


def _set_first_cover(value):
    return lambda data: data["covers"].__setitem__(0, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_first_cover(["a", "x", "b"]),
         "malformed lattice data: " + _unpacking_message(["a", "x", "b"])),
        (_set_first_cover("ax"), "malformed lattice data: a cover is not a pair of ids"),
        # without it the file is read in the positional form, which
        # needs a "lower" list on each face
        (lambda data: data.pop("covers"), "malformed lattice data: face 'a' has no 'lower' list"),
        (_set_first_cover(["a", "q"]), "cover ('a', 'q') names an unknown element"),
    ],
    ids=["three-id cover", "string cover", "no covers key", "unknown cover end"],
)
def test_the_loader_names_each_fault(mutate, message):
    sb.lattice_from_json_dict(_triangle_json())
    data = _triangle_json()
    mutate(data)
    with pytest.raises(sb.InvalidFace) as err:
        sb.lattice_from_json_dict(data)
    assert str(err.value) == message


def test_json_rejects_reserved_ids():
    with pytest.raises(sb.InvalidFace):
        sb.lattice_from_json_dict(
            {"dim": 0, "faces": [{"id": BOTTOM_ID, "dim": 0}], "covers": []}
        )


def test_parse_facet_text():
    text = "# comment line\n1 2 3\n2 3 4  # trailing\n\n"
    assert sb.parse_facet_text(text) == [["1", "2", "3"], ["2", "3", "4"]]


def test_fingerprint_distinguishes_labelings():
    a = sb.from_facets([[1, 2], [2, 3], [1, 3]])
    b = sb.from_facets([[1, 2], [2, 4], [1, 4]])
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() == sb.from_facets([[1, 2], [2, 3], [1, 3]]).fingerprint()


def test_euler_relation_on_corpus():
    for name, L in spheres_d_le_3():
        f = sb.f_vector(L)
        total = sum((-1) ** k * f[k] for k in range(L.dim + 1))
        assert total == 1 - (-1) ** (L.dim + 1), name
