"""Answers that depend on ids only through their lexicographic order.

Each input is rebuilt with its ids permuted within each rank
(``corpus.rank_permutation``): the same complex with its faces in another
index order.  Whether a shelling exists, the verdict on any order and the
step and reason of a failure, the bounds and corollary reports, the face
counts and the order predicates must not change, and ``dualize`` must
commute with the renaming.  The lexicographically first order itself may
change, so it is mapped across and verified there.
"""

import random
from functools import lru_cache

import pytest

import shellbound as sb

from corpus import rank_permutation, relabelled

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
# the punctured ball is the one input that is not a diamond lattice
DIAMOND = sorted(set(INPUTS) - {"punctured-cross-polytope-3"})
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
def test_dualize_commutes_with_the_renaming(name, seed):
    L, name_of, M = _pair(name, seed)
    assert relabelled(sb.dualize(L), name_of).fingerprint() == sb.dualize(M).fingerprint()
