"""The ball half of the theorem across its range, on shelling splits.

A shelling (F1, ..., Fn) of a sphere S cut at 0 < m < n gives two
balls: B1, the closure of F1 .. Fm, shelled by the prefix, and B2, the
closure of the rest, shelled by the tail reversed, since the reverse of
a sphere's shelling is a shelling (Ziegler, *Lectures on Polytopes*,
Lecture 8).  Each ball meets the bound with its boundary term at every
k in range, with equality exactly at k = d, or at k = d - 1 when it is
simplicial; their common boundary is their intersection, so
f(S) = f(B1) + f(B2) - f(bd B1).  Each ball is carved out of S by the
library's one carve-out builder, so these are also checks of it, of
``boundary_complex`` and of ``f_vector``."""

import copy
import random

import shellbound as sb

from corpus import (
    PRODUCT_BASES,
    PRODUCTS,
    SUBDIVIDED,
    barycentric_subdivision,
    bistellar_sphere,
    closure_lattice,
    fresh_copy,
    prism,
    pyramid,
    spheres_d_le_3,
)
from test_bounds import assert_shared_lattice_answers_as_fresh


def _spheres() -> list[tuple[str, sb.FaceLattice]]:
    """Every sphere of the corpus, the subdivided ones, the pyramids and
    prisms and four random 3-spheres, each with its dual but the
    subdivided 3-spheres, whose duals' first shellings the search does
    not find within its default budget."""
    out = list(spheres_d_le_3())
    for name, (make, _) in SUBDIVIDED.items():
        L = barycentric_subdivision(make())
        if not sb.boundary_complex(L).mask:
            out.append((f"subdivided-{name}", L))
    out += [(f"{make.__name__}-{name}", make(base()))
            for make in (pyramid, prism) for name, base in PRODUCT_BASES.items()]
    out += [(f"bistellar-{n}", bistellar_sphere(n, 0)) for n in (8, 12, 20, 30)]
    return out + [(f"dual-{name}", sb.dualize(S)) for name, S in out
                  if not (name.startswith("subdivided-") and S.dim == 3)]


def _cuts(n: int) -> list[int]:
    return sorted({1, n // 3, n // 2, n - 1} - {0, n})


def _check_ball(B: sb.FaceLattice, order: tuple[str, ...], name) -> int:
    """The bound at every k in range on ``B`` shelled by ``order``;
    returns the number of k checked."""
    d = B.dim
    assert sb.is_lattice(B), name
    simplicial = sb.is_simplicial(B)
    ks = range((d - 1) // 2, d + 1)
    for k in ks:
        report = sb.verify_lower_bound(B, order, k)
        assert report.ok, (name, k)
        assert report.equality == (k == d or k == d - 1 and simplicial), (name, k)
    return len(ks)


def test_shelling_splits_are_balls_that_meet_the_bound():
    cases = pairs = 0
    products = [(name, join(P(), Q())) for name, (join, P, Q) in PRODUCTS.items()]
    for name, S in _spheres() + products:
        seq = sb.find_shelling(S).facets
        n, d = len(seq), S.dim
        f = sb.f_vector(S)
        for m in _cuts(n):
            B1 = closure_lattice(S, seq[:m])
            B2 = closure_lattice(S, seq[m:])
            cases += _check_ball(B1, seq[:m], (name, m, 1))
            cases += _check_ball(B2, seq[m:][::-1], (name, m, 2))
            assert sb.find_shelling(B2) is not None, (name, m)
            # each ball's extremes are its own: a dual keeps its host's ids
            bd1, bd2 = sb.boundary_complex(B1), sb.boundary_complex(B2)
            common = set(B1.ids) & set(B2.ids) - {B1.top}
            assert bd1.members == bd2.members == common, (name, m)
            f1, f2, fbd = sb.f_vector(B1), sb.f_vector(B2), sb.f_vector(bd1)
            assert all(f[k] == f1[k] + f2[k] - fbd[k] for k in range(-1, d + 1)), (name, m)
            pairs += 1
    assert cases > 2000 and pairs > 400, (cases, pairs)


def test_split_balls_answer_on_a_shared_lattice_as_fresh_ones():
    # both balls at the middle cut of every fourth sphere of at most 24
    # facets; a JSON round trip renames a dual's extremes, which keep the
    # host's ids, so a ball carved out of a dual is compared with a copy,
    # whose memo is empty too
    rng = random.Random(29)
    checked = 0
    for name, S in _spheres()[::4]:
        if len(S.facets()) > 24:
            continue
        seq = sb.find_shelling(S).facets
        m = len(seq) // 2
        fresh = copy.copy if name.startswith("dual-") else fresh_copy
        for B in (closure_lattice(S, seq[:m]), closure_lattice(S, seq[m:])):
            assert_shared_lattice_answers_as_fresh(B, rng, fresh)
            checked += 1
    assert checked == 48
