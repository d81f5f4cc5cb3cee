"""Reference complexes: simplex and cube boundaries, cross polytopes,
polygons, cyclic polytope boundaries, and punctured spheres.

All generators return validated :class:`FaceLattice` objects with
deterministic face ids, so the same call always produces the same labels
in the same order.  Size guards keep the combinatorial blow-up of the
larger families within interactive reach; they raise :class:`RangeError`
rather than letting a call run away.

The module only builds complexes, so it imports only :mod:`errors` and
:mod:`lattice`; the comparison of a sphere with the cyclic polytope
boundary is ``bounds.gubt_compare``.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Union

from .errors import InvalidFace, PreconditionViolated, RangeError
from .lattice import BOTTOM_ID, TOP_ID, FaceLattice, _require_sphere, build_lattice, from_facets


def simplex_boundary(d: int) -> FaceLattice:
    """Boundary of the (d+1)-simplex on vertices 1..d+2, a d-sphere."""
    if not 0 <= d <= 12:
        raise RangeError(f"need 0 <= d <= 12, got {d}")
    return from_facets(combinations(range(1, d + 3), d + 1))


def cross_polytope(d: int) -> FaceLattice:
    """Boundary of the (d+1)-dimensional cross polytope, a d-sphere.

    Vertices i and i + d + 1 are antipodal; the facets pick one vertex
    from each antipodal pair.
    """
    if not 1 <= d <= 6:
        raise RangeError(f"need 1 <= d <= 6, got {d}")
    m = d + 1
    pairs = [(i, i + m) for i in range(1, m + 1)]
    return from_facets(product(*pairs))


def hypercube_boundary(d: int) -> FaceLattice:
    """Boundary of the (d+1)-cube, a d-sphere of 2^(d+1) vertices.

    Faces are words over ``{0, 1, *}`` of length d + 1 with at least one
    fixed letter; ``*`` marks a free coordinate, so the face dimension is
    the number of stars.  A cover fixes exactly one star.
    """
    if not 1 <= d <= 6:
        raise RangeError(f"need 1 <= d <= 6, got {d}")
    m = d + 1
    elements = [(BOTTOM_ID, 0), (TOP_ID, d + 2)]
    covers = []
    for word in product("01*", repeat=m):
        stars = word.count("*")
        if stars == m:
            continue
        face = "".join(word)
        elements.append((face, stars + 1))
        if stars == 0:
            covers.append((BOTTOM_ID, face))
        for i, c in enumerate(word):
            if c == "*":
                for bit in "01":
                    covers.append((face[:i] + bit + face[i + 1 :], face))
    return build_lattice(elements, covers, d)


def ngon(n: int) -> FaceLattice:
    """The n-gon: vertices ``v1..vn`` and edges ``e12, e23, ..., e{n}1``.

    Where two such edge ids would coincide, as ``e1011`` names both
    (10, 11) and (101, 1) when n = 101, every edge id puts a ``-``
    between its ends instead: ``e1-2, ..., e101-1``.
    """
    if n < 3:
        raise RangeError(f"need n >= 3, got {n}")
    if n > 8191:
        # 16 384 elements, as many as simplex_boundary(12), the largest family
        raise RangeError(f"need n <= 8191, got {n}")
    elements = [(BOTTOM_ID, 0), (TOP_ID, 3)]
    covers = []
    for i in range(1, n + 1):
        elements.append((f"v{i}", 1))
        covers.append((BOTTOM_ID, f"v{i}"))
    ends = [(i, i % n + 1) for i in range(1, n + 1)]
    sep = "" if len({f"{a}{b}" for a, b in ends}) == n else "-"
    for a, b in ends:
        edge = f"e{a}{sep}{b}"
        elements.append((edge, 2))
        covers += [(f"v{a}", edge), (f"v{b}", edge)]
    return build_lattice(elements, covers, 1)


def _gale_even(subset: tuple[int, ...], n: int) -> bool:
    # maximal runs of consecutive elements; runs touching 1 or n are exempt
    runs: list[list[int]] = [[subset[0]]]
    for v in subset[1:]:
        if v == runs[-1][-1] + 1:
            runs[-1].append(v)
        else:
            runs.append([v])
    return all(len(r) % 2 == 0 for r in runs if r[0] != 1 and r[-1] != n)


def cyclic_boundary(d: int, n: int) -> FaceLattice:
    """Boundary of the cyclic d-polytope on n vertices, a (d-1)-sphere.

    Facets are the d-subsets of 1..n passing the evenness condition:
    every maximal run of consecutive chosen elements that contains
    neither 1 nor n has even length.
    """
    if not 2 <= d <= 6:
        raise RangeError(f"need 2 <= d <= 6, got d={d}")
    if not d + 1 <= n <= 16:
        raise RangeError(f"need {d + 1} <= n <= 16, got n={n}")
    facets = [s for s in combinations(range(1, n + 1), d) if _gale_even(s, n)]
    return from_facets(facets)


def punctured(S: FaceLattice, facet_id: Union[str, None] = None) -> FaceLattice:
    """Remove one open facet from a sphere, leaving a ball with the same
    faces otherwise.  Defaults to the lexicographically least facet."""
    _require_sphere(S)
    facets = S.facets()
    if facet_id is None:
        if not facets:
            raise PreconditionViolated("no facet to remove")
        facet_id = facets[0]
    elif facet_id not in facets:
        raise InvalidFace(f"{facet_id!r} is not a facet")
    x = S.index(facet_id)
    # only the top covers a facet, so every other lower list keeps its
    # indices, which all lie below x; the constructor adds the top's
    lower = [*S._lower[:x], *S._lower[x + 1 : -1], ()]
    ids, ranks = S.ids, S.ranks
    return FaceLattice(S.dim, ids[:x] + ids[x + 1 :], ranks[:x] + ranks[x + 1 :], lower)
