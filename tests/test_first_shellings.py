"""The search against an exact oracle for first shellings and for "no":
``oracles.subset_first_shelling``, a DP over the sets of placed facets,
on seeded random pure subcomplexes of small spheres (balls, spheres,
pinched and disconnected complexes, and complexes with no shelling at
all), each the closure of a random set of facets, and on three
hand-made complexes that are no strongly regular spheres.  The same DP
lists the dead prefixes, the sets of facets that the step rule accepts
but that no shelling completes: thin 2-spheres and 2-balls have none,
and the search refutes a forced prefix exactly when it is dead.  On
random orders of the seeded closures, ``is_shelling`` fails at the first
step that the DP's step rule refuses, and accepts when none is."""

import random

import shellbound as sb

from corpus import (
    bistellar_sphere,
    bowtie,
    closure_lattice,
    doubled_triangle,
    lune_sphere,
    prism,
    pyramid,
    spheres_d_le_3,
)
from oracles import _cell_shellings, _placements, dead_prefixes, prefix_sets, subset_first_shelling

HOSTS = (
    *((f"bistellar-8-{seed}", bistellar_sphere, (8, seed)) for seed in range(4)),
    ("cube-3", sb.hypercube_boundary, (3,)),
    ("cross-3", sb.cross_polytope, (3,)),
    ("cyclic-4-7", sb.cyclic_boundary, (4, 7)),
)


def _subcomplexes() -> list[tuple[str, sb.FaceLattice]]:
    """Seven closures of 2 to 10 random facets of each host, then the
    doubled triangle, the bowtie and the lune."""
    rng = random.Random(28)
    out = []
    for name, make, args in HOSTS:
        S = make(*args)
        facets = S.facets()
        for _ in range(7):
            chosen = sorted(rng.sample(facets, rng.randint(2, min(len(facets), 10))))
            out.append((f"{name}:{','.join(chosen)}", closure_lattice(S, chosen)))
    out += [("doubled-triangle", doubled_triangle()), ("bowtie", bowtie()), ("lune", lune_sphere())]
    return out


def test_the_search_finds_the_oracles_first_shelling_and_its_none():
    answers = []
    for name, L in _subcomplexes():
        forced = random.Random(name).choice(L.facets())
        for prefix in ((), (forced,)):
            expected = subset_first_shelling(L, prefix)
            found = sb.find_shelling(L, prefix)
            assert (found and found.facets) == expected, (name, prefix)
            if expected is not None:
                assert isinstance(sb.is_shelling(L, expected), sb.ShellingCertificate), name
            answers.append(expected is None)
    # both answers are well represented
    assert 20 <= sum(answers) <= len(answers) - 20, sum(answers)


def test_is_shelling_fails_random_orders_at_the_oracles_first_bad_step():
    # the oracle's verdict on an order is its first step that the DP's
    # step rule refuses, given the facets placed before it
    accepted = refused = 0
    for name, L in _subcomplexes():
        _, admissible, _ = _placements(L, (), _cell_shellings(L))
        rng = random.Random(f"orders:{name}")
        for _ in range(8):
            order = rng.sample(L.facets(), len(L.facets()))
            bad = next((j for j in range(1, len(order) + 1)
                        if not admissible(frozenset(order[:j - 1]), order[j - 1])), None)
            result = sb.is_shelling(L, order)
            if bad is None:
                assert isinstance(result, sb.ShellingCertificate), (name, order)
                accepted += 1
            else:
                assert isinstance(result, sb.ShellingFailure) and result.step == bad, (name, order)
                refused += 1
    assert (accepted, refused) == (107, 309)


def _thin_2_complexes() -> list[tuple[str, sb.FaceLattice]]:
    """The cyclic 3-polytopes on 5 to 9 vertices and the 2-spheres of the
    corpus with at most 16 facets, with their duals, the pyramids and
    prisms over 4- to 8-gons, and the closures of the first third and the
    first half of each one's first shelling."""
    spheres = [(f"cyclic-3-{n}", sb.cyclic_boundary(3, n)) for n in range(5, 10)]
    spheres += [(name, S) for name, S in spheres_d_le_3() if S.dim == 2 and len(S.facets()) <= 16]
    spheres += [(f"dual-{name}", sb.dualize(S)) for name, S in spheres]
    spheres += [(f"{make.__name__}-ngon-{n}", make(sb.ngon(n)))
                for make in (pyramid, prism) for n in range(4, 9)]
    out = list(spheres)
    for name, S in spheres:
        seq = sb.find_shelling(S).facets
        out += [(f"{name}:{m}", closure_lattice(S, seq[:m])) for m in (len(seq) // 3, len(seq) // 2)]
    return out


def test_thin_2_spheres_and_2_balls_have_no_dead_prefix():
    cases = _thin_2_complexes()
    assert len(cases) == 72
    for name, L in cases:
        assert not dead_prefixes(L), name


def test_the_search_refutes_a_forced_prefix_exactly_when_it_is_dead():
    # every set of facets that admissible steps reach on the seeded closures
    sets = with_dead = 0
    for name, L in _subcomplexes()[:49]:
        reached = prefix_sets(L)
        for placed, ok in reached.items():
            assert (sb.find_shelling(L, sorted(placed)) is None) == (not ok), (name, sorted(placed))
        sets += len(reached)
        with_dead += not all(reached.values())
    assert (sets, with_dead) == (2609, 29)
