"""Reference complexes: simplex and cube boundaries, cross polytopes,
polygons, cyclic polytope boundaries, and punctured spheres.

All generators return validated :class:`FaceLattice` objects with
deterministic face ids, so the same call always produces the same labels
in the same order.  Size guards keep the combinatorial blow-up of the
larger families within interactive reach; each is one call of
``lattice._require_int``, which raises :class:`RangeError` rather than
letting a call run away, and for a size that is not an int, a bool not
counting as one, names the range and shows the size by its ``repr``.

Each generator builds the constructor's resolved form from integer face
codes, with no string pairs to resolve: the simplicial families through
``from_facets``, whose faces are vertex bit masks, the cube from its
faces' base-3 words, the polygon directly.  The cyclic polytope's facets
are walked, not filtered: Gale's evenness condition is kept as each
subset grows, so only the facets are ever made.  A punctured sphere is
carved out of its host by ``lattice._restricted``, the one builder that
carves a lattice out of another.

The module only builds complexes, so it imports only :mod:`errors` and
:mod:`lattice`; the comparison of a sphere with the cyclic polytope
boundary is ``bounds.gubt_compare``.
"""

from __future__ import annotations

from itertools import combinations, product, repeat
from typing import Union

from .errors import InvalidFace, PreconditionViolated
from .lattice import BOTTOM_ID, TOP_ID, FaceLattice, from_facets
from .lattice import _require_int, _require_sphere, _restricted


def simplex_boundary(d: int) -> FaceLattice:
    """Boundary of the (d+1)-simplex on vertices 1..d+2, a d-sphere."""
    _require_int(d, 0, 12, "d")
    return from_facets(combinations(range(1, d + 3), d + 1))


def cross_polytope(d: int) -> FaceLattice:
    """Boundary of the (d+1)-dimensional cross polytope, a d-sphere.

    Vertices i and i + d + 1 are antipodal; the facets pick one vertex
    from each antipodal pair.
    """
    _require_int(d, 1, 6, "d")
    m = d + 1
    pairs = [(i, i + m) for i in range(1, m + 1)]
    return from_facets(product(*pairs))


def hypercube_boundary(d: int) -> FaceLattice:
    """Boundary of the (d+1)-cube, a d-sphere of 2^(d+1) vertices.

    Faces are words over ``{0, 1, *}`` of length d + 1 with at least one
    fixed letter; ``*`` marks a free coordinate, so the face dimension is
    the number of stars.  A cover fixes exactly one star.
    """
    _require_int(d, 1, 6, "d")
    m = d + 1
    # a word read in base 3, * = 0, 0 = 1 and 1 = 2, the first letter most
    # significant, is its code; as * < 0 < 1, code order is id order
    words = list(map("".join, product("*01", repeat=m)))
    # fixing a star of weight p adds p for a 0 and 2p for a 1, so where a
    # word's stars stand gives its covers' codes less its own, ascending
    weights = [3**i for i in reversed(range(m))]
    steps = {
        free: sorted(k * p for p, star in zip(weights, free) if star for k in (1, 2))
        for free in product((True, False), repeat=m)
    }
    below = list(map(steps.__getitem__, product((True, False, False), repeat=m)))
    stars = [len(s) // 2 for s in below]
    index = {BOTTOM_ID: 0}
    place = [0] * len(words)
    lower = [()]
    # by stars, then code: the (rank, id) order; code 0, all stars, is no face
    order = sorted(range(1, len(words)), key=stars.__getitem__)
    for x, c in enumerate(order, 1):
        place[c] = index[words[c]] = x
        # a vertex fixes no star, and lies on the bottom
        lower.append([*map(place.__getitem__, map(c.__add__, below[c]))] or (0,))
    index[TOP_ID] = len(words)
    ranks = [0, *[stars[c] + 1 for c in order], d + 2]
    return FaceLattice(index, ranks, [*lower, ()])


def ngon(n: int) -> FaceLattice:
    """The n-gon: vertices ``v1..vn`` and edges ``e12, e23, ..., e{n}1``.

    Where two such edge ids would coincide, as ``e1011`` names both
    (10, 11) and (101, 1) when n = 101, every edge id puts a ``-``
    between its ends instead: ``e1-2, ..., e101-1``.
    """
    # at most 16 384 elements, as many as simplex_boundary(12), the largest family
    _require_int(n, 3, 8191, "n")
    ends = [(i, i % n + 1) for i in range(1, n + 1)]
    sep = "" if len({f"{a}{b}" for a, b in ends}) == n else "-"
    edges = sorted((f"e{a}{sep}{b}", a, b) for a, b in ends)
    # vertex i is named v{i}, so the vertices run in the order of str(i)
    index = {BOTTOM_ID: 0}
    place = [0] * (n + 1)
    for x, i in enumerate(sorted(range(1, n + 1), key=str), 1):
        place[i] = index[f"v{i}"] = x
    lower = [(), *repeat((0,), n)]
    for x, (edge, a, b) in enumerate(edges, n + 1):
        index[edge] = x
        lower.append(sorted((place[a], place[b])))
    index[TOP_ID] = 2 * n + 1
    ranks = [0, *repeat(1, n), *repeat(2, n), 3]
    return FaceLattice(index, ranks, [*lower, ()])


def _gale_facets(d: int, n: int) -> list[tuple[int, ...]]:
    """The d-subsets of 1..n that pass Gale's evenness condition, walked
    element by element: a run of chosen elements is closed only when it
    is even or holds 1, and a final run may reach n."""
    facets = []

    def walk(chosen: list[int], v: int, run: int) -> None:
        # ``run`` counts the chosen elements that end at v - 1
        closes = run % 2 == 0 or run == v - 1
        if len(chosen) == d:
            if closes or v > n:
                facets.append(tuple(chosen))
        elif d - len(chosen) <= n - v + 1:
            chosen.append(v)
            walk(chosen, v + 1, run + 1)
            chosen.pop()
            if closes:
                walk(chosen, v + 1, 0)

    walk([], 1, 0)
    return facets


def cyclic_boundary(d: int, n: int) -> FaceLattice:
    """Boundary of the cyclic d-polytope on n vertices, a (d-1)-sphere.

    Facets are the d-subsets of 1..n passing the evenness condition:
    every maximal run of consecutive chosen elements that contains
    neither 1 nor n has even length.
    """
    _require_int(d, 2, 6, "d")
    _require_int(n, d + 1, 16, "n")
    return from_facets(_gale_facets(d, n))


def punctured(S: FaceLattice, facet_id: Union[str, None] = None) -> FaceLattice:
    """Remove one open facet from a sphere, leaving a ball with the same
    faces otherwise.  Defaults to the lexicographically least facet.

    The ball is the sphere restricted to every index but the facet's:
    only the top covers a facet, so every other lower list is kept as it
    is, and every face below the facet keeps its index."""
    _require_sphere(S)
    facets = S.facets()
    if facet_id is None:
        if not facets:
            raise PreconditionViolated("no facet to remove")
        facet_id = facets[0]
    elif facet_id not in facets:
        raise InvalidFace(f"{facet_id!r} is not a facet")
    x = S.index(facet_id)
    return _restricted(S, [*range(x), *range(x + 1, len(S))])
