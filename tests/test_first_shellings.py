"""The search against an exact oracle for first shellings and for "no":
``oracles.subset_first_shelling``, a DP over the sets of placed facets,
on seeded random pure subcomplexes of small spheres (balls, spheres,
pinched and disconnected complexes, and complexes with no shelling at
all), each the closure of a random set of facets, and on three
hand-made complexes that are no strongly regular spheres."""

import random

import shellbound as sb

from corpus import bistellar_sphere, bowtie, closure_lattice, doubled_triangle, lune_sphere
from oracles import subset_first_shelling

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
