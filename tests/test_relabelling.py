"""Answers that depend on ids only through their lexicographic order.

Each input is rebuilt with its ids permuted within each rank
(``corpus.rank_permutation``): the same complex with its faces in another
index order.  Whether a shelling exists, the verdict on any order and the
step and reason of a failure, the bounds and corollary reports, the face
counts and the order predicates must not change, and ``dualize`` must
commute with the renaming.  The lexicographically first order itself may
change, so it is mapped across and verified there; whether an order
starts from a given facet must not change, nor ``classify``.  A mapped
order's certificate, its null steps rebuilt by the oracle, must be the
tree the library reads.  An input
that fails a precondition, or that no lattice can be built from, fails
with the same error class after the renaming.  Besides fixed inputs and
seeds, derandomised properties draw a generator at a small size (as it
is, punctured or dualized) or a corpus complex, with a random renaming,
and compare all of these answers at once.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellbound as sb
from shellbound import BOTTOM_ID, TOP_ID
from shellbound.lattice import _boolean_cells

from corpus import balls, doubled_triangle, rank_permutation, relabelled, spheres_d_le_3
from oracles import expand_certificate, nested_certificate

INPUTS = {
    "simplex-boundary-4": lambda: sb.simplex_boundary(4),
    "cross-polytope-3": lambda: sb.cross_polytope(3),
    "cross-polytope-4": lambda: sb.cross_polytope(4),
    "hypercube-boundary-3": lambda: sb.hypercube_boundary(3),
    "cyclic-boundary-4-8": lambda: sb.cyclic_boundary(4, 8),
    "punctured-cross-polytope-3": lambda: sb.punctured(sb.cross_polytope(3)),
    "dual-cyclic-boundary-4-8": lambda: sb.dualize(sb.cyclic_boundary(4, 8)),
    "ngon-7": lambda: sb.ngon(7),
}
# the punctured ball is the one input that is not a sphere, and the one
# that is not a diamond lattice
SPHERES = DIAMOND = sorted(set(INPUTS) - {"punctured-cross-polytope-3"})
SEEDS = (11, 12)
PAIRS = [(name, seed) for name in sorted(INPUTS) for seed in SEEDS]


@lru_cache(maxsize=None)
def _pair(name: str, seed: int) -> tuple[sb.FaceLattice, dict[str, str], sb.FaceLattice]:
    """The input, the renaming of its ids, and the renamed input."""
    L = INPUTS[name]()
    name_of = rank_permutation(L, random.Random(seed))
    return L, name_of, relabelled(L, name_of)


@lru_cache(maxsize=None)
def _first_order(name: str, seed: int) -> tuple[str, ...]:
    L, _, _ = _pair(name, seed)
    found = sb.find_shelling(L)
    assert found is not None
    return found.facets


def _verdict(result):
    if isinstance(result, sb.ShellingFailure):
        return result.step, result.reason
    assert isinstance(result, sb.ShellingCertificate)
    return "shelling"


@pytest.mark.parametrize("name,seed", PAIRS)
def test_the_first_order_maps_to_a_shelling(name, seed):
    L, name_of, M = _pair(name, seed)
    assert sb.find_shelling(M) is not None
    mapped = [name_of[f] for f in _first_order(name, seed)]
    assert isinstance(sb.is_shelling(M, mapped), sb.ShellingCertificate)


@pytest.mark.parametrize("name,seed", PAIRS)
def test_random_orders_get_the_same_verdict(name, seed):
    L, name_of, M = _pair(name, seed)
    rng = random.Random(seed)
    facets = L.facets()
    for _ in range(10):
        order = rng.sample(facets, len(facets))
        assert _verdict(sb.is_shelling(L, order)) == _verdict(
            sb.is_shelling(M, [name_of[f] for f in order])
        ), order


CERTIFIED = {
    f"{prefix}{name}-{d}": (lambda make=make, d=d, dual=dual: dual(make(d)))
    for name, make in (("hypercube-boundary", sb.hypercube_boundary),
                       ("cross-polytope", sb.cross_polytope))
    for d in (2, 3)
    for prefix, dual in (("", lambda L: L), ("dual-", sb.dualize))
}


@lru_cache(maxsize=None)
def _certified(name: str) -> tuple[sb.FaceLattice, tuple[str, ...]]:
    L = CERTIFIED[name]()
    return L, sb.find_shelling(L).facets


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(CERTIFIED)), st.integers(0, 2**32 - 1))
def test_a_mapped_order_is_certified_alike(name, seed):
    # the certificate of the mapped order, its null steps rebuilt by the
    # oracle, is the tree the library reads: squares and simplices named
    # by no node, whatever index order the renaming gives their ridges
    L, order = _certified(name)
    name_of = rank_permutation(L, random.Random(seed))
    M = relabelled(L, name_of)
    cert = sb.is_shelling(M, [name_of[f] for f in order])
    assert isinstance(cert, sb.ShellingCertificate)
    assert expand_certificate(cert.to_json_dict(), M) == nested_certificate(cert)


# the generators at small sizes, each as it is, punctured, and, for the
# spheres, dualized
GENERATED = {
    "simplex-boundary": (sb.simplex_boundary, range(1, 5)),
    "cross-polytope": (sb.cross_polytope, range(1, 4)),
    "hypercube-boundary": (sb.hypercube_boundary, range(1, 4)),
    "ngon": (sb.ngon, range(3, 9)),
    "cyclic-boundary-4": (lambda n: sb.cyclic_boundary(4, n), range(5, 8)),
}
VARIANTS = {"": lambda L: L, "punctured-": sb.punctured, "dual-": sb.dualize}


@lru_cache(maxsize=None)
def _generated(family: str, size: int, variant: str) -> sb.FaceLattice:
    make, _ = GENERATED[family]
    return VARIANTS[variant](make(size))


CORPUS = {"spheres": spheres_d_le_3, "balls": balls}


def _outcome(call, *args):
    """What ``call(*args)`` answers, as JSON where it is a report, or the
    class of its error."""
    try:
        answer = call(*args)
    except sb.ShellboundError as exc:
        return type(exc)
    return answer.to_json_dict() if hasattr(answer, "to_json_dict") else answer


def _assert_renaming_changes_nothing(L: sb.FaceLattice, rng: random.Random) -> None:
    """Every answer this file compares, on ``L`` and on ``L`` renamed by a
    within-rank permutation drawn from ``rng``."""
    name_of = rank_permutation(L, rng)
    M = relabelled(L, name_of)
    found = sb.find_shelling(L)
    assert found is not None and sb.find_shelling(M) is not None
    order = found.facets
    mapped = [name_of[f] for f in order]
    cert = sb.is_shelling(M, mapped)
    assert isinstance(cert, sb.ShellingCertificate)
    assert expand_certificate(cert.to_json_dict(), M) == nested_certificate(cert)
    assert _outcome(sb.classify, L, sb.is_shelling(L, order)) == _outcome(sb.classify, M, cert)
    facets = L.facets()
    for _ in range(3):
        shuffled = rng.sample(facets, len(facets))
        assert _verdict(sb.is_shelling(L, shuffled)) == _verdict(
            sb.is_shelling(M, [name_of[f] for f in shuffled])
        ), shuffled
    for f in facets:
        assert (sb.find_shelling(L, [f]) is None) == (sb.find_shelling(M, [name_of[f]]) is None)
    for k in range((L.dim - 1) // 2, L.dim + 1):
        assert _outcome(sb.verify_lower_bound, L, order, k) == _outcome(
            sb.verify_lower_bound, M, mapped, k
        ), k
    for k in range(L.dim + 1):
        assert _outcome(sb.corollary_bounds, L, k) == _outcome(sb.corollary_bounds, M, k), k
    for answer in (sb.f_vector, sb.is_lattice, sb.is_diamond, sb.is_simplicial,
                   sb.is_pseudomanifold):
        assert _outcome(answer, L) == _outcome(answer, M), answer.__name__
    simplices = [{K.ids[x] for x in range(len(K)) if _boolean_cells(K) >> x & 1} for K in (L, M)]
    assert {name_of[i] for i in simplices[0]} == simplices[1]
    d, n = L.dim + 1, sb.f_vector(L)[0]
    assert _gubt(L, d, n) == _gubt(M, d, n)
    assert relabelled(sb.dualize(L), name_of).fingerprint() == sb.dualize(M).fingerprint()


@pytest.mark.parametrize("family", sorted(GENERATED))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_renaming_a_small_generated_complex_changes_nothing(family, data, seed):
    size = data.draw(st.sampled_from(GENERATED[family][1]), label="size")
    variant = data.draw(st.sampled_from(sorted(VARIANTS)), label="variant")
    _assert_renaming_changes_nothing(_generated(family, size, variant), random.Random(seed))


@pytest.mark.parametrize("part", sorted(CORPUS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_renaming_a_corpus_complex_changes_nothing(part, data, seed):
    _, L = data.draw(st.sampled_from(CORPUS[part]()), label="input")
    _assert_renaming_changes_nothing(L, random.Random(seed))


@pytest.mark.parametrize("name,seed", PAIRS)
def test_bounds_reports_are_the_same(name, seed):
    L, name_of, M = _pair(name, seed)
    order = _first_order(name, seed)
    mapped = [name_of[f] for f in order]
    for k in range((L.dim - 1) // 2, L.dim + 1):
        assert (
            sb.verify_lower_bound(L, order, k).to_json_dict()
            == sb.verify_lower_bound(M, mapped, k).to_json_dict()
        ), k


@pytest.mark.parametrize("name,seed", [(n, s) for n, s in PAIRS if n in DIAMOND])
def test_corollary_reports_are_the_same(name, seed):
    L, _, M = _pair(name, seed)
    for k in range(L.dim + 1):
        assert sb.corollary_bounds(L, k).to_json_dict() == sb.corollary_bounds(M, k).to_json_dict()


@pytest.mark.parametrize("name,seed", PAIRS)
def test_face_counts_and_predicates_are_the_same(name, seed):
    L, _, M = _pair(name, seed)
    for answer in (sb.f_vector, sb.is_lattice, sb.is_diamond, sb.is_simplicial,
                   sb.is_pseudomanifold):
        assert answer(L) == answer(M), answer.__name__
    assert (sb.is_lattice(L) and sb.is_diamond(L)) == (name in DIAMOND)


@pytest.mark.parametrize("name,seed", PAIRS)
def test_the_simplex_mask_maps_across_the_renaming(name, seed):
    L, name_of, M = _pair(name, seed)
    simplices = [{K.ids[x] for x in range(len(K)) if _boolean_cells(K) >> x & 1} for K in (L, M)]
    assert {name_of[i] for i in simplices[0]} == simplices[1]


@pytest.mark.parametrize("name,seed", [(n, s) for n, s in PAIRS if n in SPHERES])
def test_gubt_compare_is_the_same(name, seed):
    L, _, M = _pair(name, seed)
    d, n = L.dim + 1, sb.f_vector(L)[0]
    assert _gubt(L, d, n) == _gubt(M, d, n)


def _gubt(L: sb.FaceLattice, d: int, n: int):
    """The report of ``gubt_compare``, or the class of its error."""
    try:
        return sb.gubt_compare(L, d, n).to_json_dict()
    except sb.ShellboundError as exc:
        return type(exc)


@pytest.mark.parametrize("name,seed", PAIRS)
def test_dualize_commutes_with_the_renaming(name, seed):
    L, name_of, M = _pair(name, seed)
    assert relabelled(sb.dualize(L), name_of).fingerprint() == sb.dualize(M).fingerprint()


@pytest.mark.parametrize("name,seed", PAIRS)
def test_a_mapped_one_facet_prefix_is_found_alike(name, seed):
    L, name_of, M = _pair(name, seed)
    for f in L.facets():
        assert (sb.find_shelling(L, [f]) is None) == (sb.find_shelling(M, [name_of[f]]) is None), f


@pytest.mark.parametrize("name,seed", PAIRS)
def test_classify_is_the_same(name, seed):
    L, name_of, M = _pair(name, seed)
    order = _first_order(name, seed)
    mapped = [name_of[f] for f in order]
    assert sb.classify(L, sb.is_shelling(L, order)) == sb.classify(M, sb.is_shelling(M, mapped))


def _error(call, *args):
    """The class of the error ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except sb.ShellboundError as exc:
        return type(exc)
    return None


def _triangle_plus_edge() -> sb.FaceLattice:
    # a filled triangle with an edge hanging off it: not pure
    return sb.build_lattice(
        [(BOTTOM_ID, 0), (TOP_ID, 4), ("v1", 1), ("v2", 1), ("v3", 1), ("v4", 1),
         ("e12", 2), ("e13", 2), ("e23", 2), ("e34", 2), ("f", 3)],
        [(BOTTOM_ID, "v1"), (BOTTOM_ID, "v2"), (BOTTOM_ID, "v3"), (BOTTOM_ID, "v4"),
         ("v1", "e12"), ("v2", "e12"), ("v1", "e13"), ("v3", "e13"),
         ("v2", "e23"), ("v3", "e23"), ("v3", "e34"), ("v4", "e34"),
         ("e12", "f"), ("e13", "f"), ("e23", "f"), ("f", TOP_ID)],
        2,
    )


# each query with the precondition it needs; the inputs below fail some
PRECONDITIONED = {
    "is_shelling": lambda L: sb.is_shelling(L, L.facets()),
    "is_simplicial": sb.is_simplicial,
    "boundary_complex": sb.boundary_complex,
    "is_cl_shellable": sb.is_cl_shellable,
    "is_dual_cl_shellable": sb.is_dual_cl_shellable,
    "barany_check": sb.barany_check,
    "corollary_bounds": lambda L: sb.corollary_bounds(L, 0),
    "facet_decomposition": lambda L: sb.facet_decomposition(L, L.facets()),
    "punctured": sb.punctured,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make, failing",
    [(_triangle_plus_edge, "is_shelling"), (doubled_triangle, "is_cl_shellable")],
    ids=["triangle-plus-edge", "doubled-triangle"],
)
def test_failed_preconditions_raise_the_same_class(make, failing, seed):
    L = make()
    M = relabelled(L, rank_permutation(L, random.Random(seed)))
    errors = {name: _error(query, L) for name, query in PRECONDITIONED.items()}
    assert errors[failing] is not None
    assert errors == {name: _error(query, M) for name, query in PRECONDITIONED.items()}


def _renamed(elements, covers, rng: random.Random) -> tuple[list, list]:
    """Elements and covers with the ids renamed within each rank."""
    by_rank: dict[int, list[str]] = {}
    for i, r in elements:
        by_rank.setdefault(r, []).append(i)
    name_of = {}
    for ids in by_rank.values():
        name_of.update(zip(ids, rng.sample(ids, len(ids))))
    return [(name_of[i], r) for i, r in elements], [(name_of[a], name_of[b]) for a, b in covers]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "elements, covers, dim, error",
    [
        ([(BOTTOM_ID, 0), ("v1", 1), ("v2", 1), ("e12", 2), ("f", 3), (TOP_ID, 4)],
         [(BOTTOM_ID, "v1"), (BOTTOM_ID, "v2"), ("v1", "e12"), ("v2", "e12"), ("e12", "f"),
          ("v1", "f"), ("f", TOP_ID)], 2, sb.NotGraded),
        ([(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("c", 1), (TOP_ID, 2)],
         [(BOTTOM_ID, "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("a", TOP_ID), ("b", TOP_ID),
          ("c", TOP_ID)], 0, sb.CyclicCovers),
    ],
    ids=["rank-jump", "cycle"],
)
def test_bad_covers_raise_the_same_class(elements, covers, dim, error, seed):
    assert _error(sb.build_lattice, elements, covers, dim) is error
    renamed = _renamed(elements, covers, random.Random(seed))
    assert _error(sb.build_lattice, *renamed, dim) is error
