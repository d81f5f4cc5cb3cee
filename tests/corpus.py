"""Shared small-complex corpus, built once per test session, hand-made
non-sphere lattices, and a generator of small graded bounded posets."""

import random
from bisect import bisect_left, insort
from collections import defaultdict
from functools import lru_cache, partial
from itertools import combinations

from hypothesis import strategies as st

import shellbound as sb
from shellbound import BOTTOM_ID, TOP_ID
from shellbound.lattice import _closed, _down_sets, _iter_bits, _restricted, _upper_covers


@lru_cache(maxsize=None)
def spheres_d_le_3() -> tuple[tuple[str, sb.FaceLattice], ...]:
    """Spheres of dimension at most 3: simplex boundaries, cross
    polytopes, n-gons up to 8, cyclic 4-polytope boundaries up to 7
    vertices."""
    out = []
    for d in (1, 2, 3):
        out.append((f"simplex-boundary-{d}", sb.simplex_boundary(d)))
    for d in (1, 2, 3):
        out.append((f"cross-polytope-{d}", sb.cross_polytope(d)))
    for n in range(3, 9):
        out.append((f"ngon-{n}", sb.ngon(n)))
    for n in (5, 6, 7):
        out.append((f"cyclic-4-{n}", sb.cyclic_boundary(4, n)))
    return tuple(out)


@lru_cache(maxsize=None)
def shelled_spheres_d_le_3() -> tuple[tuple[str, sb.FaceLattice, sb.ShellingOrder], ...]:
    return tuple(
        (name, L, sb.find_shelling(L)) for name, L in spheres_d_le_3()
    )


@lru_cache(maxsize=None)
def balls() -> tuple[tuple[str, sb.FaceLattice], ...]:
    """Shellable balls: two explicit simplicial balls plus punctured
    spheres from the small families."""
    out = [
        ("two-triangles", sb.from_facets([[1, 2, 3], [2, 3, 4]])),
        ("path", sb.from_facets([[1, 2], [2, 3]])),
    ]
    for name, sphere in [
        ("ngon-4", sb.ngon(4)),
        ("ngon-5", sb.ngon(5)),
        ("simplex-boundary-2", sb.simplex_boundary(2)),
        ("simplex-boundary-3", sb.simplex_boundary(3)),
        ("cross-polytope-2", sb.cross_polytope(2)),
        ("cyclic-4-6", sb.cyclic_boundary(4, 6)),
    ]:
        out.append((f"punctured-{name}", sb.punctured(sphere)))
    return tuple(out)


def closure_lattice(L: sb.FaceLattice, facet_ids) -> sb.FaceLattice:
    """The face lattice of the closure of the faces ``facet_ids`` of
    ``L``, under ``L``'s top, carved out of ``L`` by the library's one
    carve-out builder; of no faces, the bottom under the top."""
    mask = _closed(_down_sets(L), L._mask_of(facet_ids)) | 1 | 1 << L._top
    return _restricted(L, list(_iter_bits(mask)))


def fresh_copy(L: sb.FaceLattice) -> sb.FaceLattice:
    """An equal lattice with an empty memo."""
    return sb.lattice_from_json_dict(sb.lattice_to_json_dict(L))


def id_pair_json(L: sb.FaceLattice) -> dict:
    """``L`` as lattice JSON in the id-pair form that ``gen`` wrote before
    schema 0.5.0: faces without ``lower`` lists, and each cover between
    two faces as a pair of ids, sorted."""
    reserved = {L.bottom, L.top}
    faces = [{"id": i, "dim": r - 1} for i, r in zip(L.ids, L.ranks) if i not in reserved]
    covers = [[a, b] for a, b in L.covers() if a not in reserved and b not in reserved]
    return {"dim": L.dim, "faces": faces, "covers": covers}


def rank_permutation(L: sb.FaceLattice, rng: random.Random) -> dict[str, str]:
    """A random permutation of ``L``'s ids within each rank, as a map from
    each id to its new name."""
    name = {}
    for r in range(L.dim + 3):
        ids = [i for i, rank in zip(L.ids, L.ranks) if rank == r]
        name.update(zip(ids, rng.sample(ids, len(ids))))
    return name


def relabelled(L: sb.FaceLattice, name: dict[str, str]) -> sb.FaceLattice:
    """``L`` with every id renamed through ``name``, rebuilt through
    ``build_lattice``: under a :func:`rank_permutation`, the same complex
    with its faces in another index order."""
    return sb.build_lattice(
        [(name[i], r) for i, r in zip(L.ids, L.ranks)],
        [(name[a], name[b]) for a, b in L.covers()],
        L.dim,
    )


def doubled_triangle() -> sb.FaceLattice:
    # two 2-cells over the same three edges: every edge pair has two
    # minimal upper bounds, so this is a poset but not a lattice
    elements = [(BOTTOM_ID, 0), (TOP_ID, 4), ("A", 3), ("B", 3)]
    covers = []
    for v in "123":
        elements.append((f"v{v}", 1))
        covers.append((BOTTOM_ID, f"v{v}"))
    for e in ("12", "13", "23"):
        elements.append((f"e{e}", 2))
        covers += [(f"v{e[0]}", f"e{e}"), (f"v{e[1]}", f"e{e}"),
                   (f"e{e}", "A"), (f"e{e}", "B")]
    covers += [("A", TOP_ID), ("B", TOP_ID)]
    return sb.build_lattice(elements, covers, 2)


def bowtie() -> sb.FaceLattice:
    # two atoms both under the same two rank-2 elements: graded and
    # bounded, every rank-2 interval has four elements, yet the atoms have
    # two minimal upper bounds and the rank-2 elements two maximal lower
    # bounds
    elements = [(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("c", 2), ("d", 2), (TOP_ID, 3)]
    covers = [(BOTTOM_ID, "a"), (BOTTOM_ID, "b"), ("c", TOP_ID), ("d", TOP_ID)]
    covers += [(x, y) for x in "ab" for y in "cd"]
    return sb.build_lattice(elements, covers, 1)


def mixed_dims_by_hand() -> sb.FaceLattice:
    # a triangle plus a dangling edge 45; the edge has no chain to the
    # top via covers, which the implicit extreme order tolerates
    elements = [(BOTTOM_ID, 0), (TOP_ID, 4), ("f123", 3), ("e45", 2)]
    covers = [("f123", TOP_ID)]
    for v in "12345":
        elements.append((f"v{v}", 1))
        covers.append((BOTTOM_ID, f"v{v}"))
    for e in ("12", "13", "23"):
        elements.append((f"e{e}", 2))
        covers += [(f"v{e[0]}", f"e{e}"), (f"v{e[1]}", f"e{e}"), (f"e{e}", "f123")]
    covers += [("v4", "e45"), ("v5", "e45")]
    return sb.build_lattice(elements, covers, 2)


@st.composite
def graded_bounded_poset_parts(draw) -> tuple[list, list, int]:
    """Elements, covers and dimension of a graded bounded poset of at most 9 elements: a bottom, a top, and 1 to 3 elements on each
    rank between them, each element covering a nonempty set of the rank
    below."""
    dim = draw(st.integers(0, 2))
    elements = [(BOTTOM_ID, 0), (TOP_ID, dim + 2)]
    covers = []
    below = [BOTTOM_ID]
    spare = 7
    for r in range(1, dim + 2):
        size = draw(st.integers(1, min(3, spare - (dim + 1 - r))))
        spare -= size
        level = [f"r{r}x{i}" for i in range(size)]
        for x in level:
            elements.append((x, r))
            covers += [(y, x) for y in draw(st.sets(st.sampled_from(below), min_size=1))]
        below = level
    covers += [(y, TOP_ID) for y in draw(st.sets(st.sampled_from(below), min_size=1))]
    return elements, covers, dim


graded_bounded_posets = graded_bounded_poset_parts().map(lambda p: sb.build_lattice(*p))


def bipyramid_facets(n: int = 600) -> list[list[str]]:
    """The triangles of the bipyramid over an n-gon: apexes N and S, each
    joined to every edge ``vi vi+1`` of the polygon (indices mod n)."""
    return [
        [apex, f"v{i}", f"v{i % n + 1}"] for i in range(1, n + 1) for apex in ("N", "S")
    ]


def bistellar_sphere(n: int, seed: int) -> sb.FaceLattice:
    """A random simplicial 3-sphere, made from the boundary of the
    4-simplex by bistellar moves.  A move replaces A * bd(B) by bd(A) * B,
    when the link of the face A is bd(B) and B is no face.  While there
    are fewer than n vertices, a random facet is subdivided with
    probability 0.3, or whenever no other move is admissible; otherwise a
    uniformly random admissible move is taken.  It stops after 6n moves."""
    rng = random.Random(seed)
    facets: set[frozenset[int]] = set()
    # each face of one to three vertices, with the facets on it, kept move
    # by move, and the faces whose star is A * bd(B) for some B, mapped to
    # that B and kept in the order of their sorted vertices
    star: dict[frozenset[int], set[frozenset[int]]] = defaultdict(set)
    links: dict[tuple[int, ...], tuple[frozenset[int], frozenset[int]]] = {}
    order: list[tuple[int, ...]] = []

    def replace(gone: set[frozenset[int]], new: set[frozenset[int]]) -> None:
        facets.difference_update(gone)
        facets.update(new)
        touched = set()
        for group, update in ((gone, set.discard), (new, set.add)):
            for facet in group:
                for size in (1, 2, 3):
                    for face in map(frozenset, combinations(facet, size)):
                        update(star[face], facet)
                        touched.add(face)
        for a in touched:
            key = tuple(sorted(a))
            b = frozenset().union(*star[a]) - a
            if len(b) == 5 - len(a) == len(star[a]):
                if key not in links:
                    insort(order, key)
                links[key] = a, b
            elif links.pop(key, None):
                del order[bisect_left(order, key)]
            if not star[a]:
                del star[a]

    replace(set(), {frozenset(f) for f in combinations(range(5), 4)})
    for _ in range(6 * n):
        moves = [(a, b) for a, b in map(links.__getitem__, order) if b not in star and b not in facets]
        vertices = frozenset().union(*facets)
        if not moves or len(vertices) < n and rng.random() < 0.3:
            facet = rng.choice(sorted(sorted(f) for f in facets))
            moves = [(frozenset(facet), frozenset([max(vertices) + 1]))]
        a, b = rng.choice(moves)
        replace({a | b - {v} for v in b}, {a - {v} | b for v in a})
    return sb.from_facets(sorted(sorted(f) for f in facets))


def stacked_sphere(d: int, m: int, seed: int) -> sb.FaceLattice:
    """A stacked d-sphere (Ziegler, *Lectures on Polytopes*, Lecture 0):
    the boundary of the (d+1)-simplex on the vertices 1..d+2, then, m
    times, a seeded facet F replaced by the d + 1 facets F - {u} | {new},
    the cone from a new vertex over the boundary of F."""
    rng = random.Random(seed)
    facets = [frozenset(f) for f in combinations(range(1, d + 3), d + 1)]
    for new in range(d + 3, d + 3 + m):
        F = facets.pop(rng.randrange(len(facets)))
        facets += [F - {u} | {new} for u in sorted(F)]
    return sb.from_facets(sorted(sorted(f) for f in facets))


def polygonal_ball(m: int, seed: int) -> sb.FaceLattice:
    """A random CW 2-ball of m polygons ``p1..pm`` of 3 to 7 sides, glued
    in that order, which is a shelling.  Each polygon after the first is
    glued along a path of one or two consecutive boundary edges, its other
    edges new; a draw is made again whenever the new polygon would meet an
    earlier one in anything but nothing, one vertex or one edge, or add an
    edge that is there already.  Vertices are ``v<i>`` and edges
    ``e<a>-<b>``, a < b.  Built through ``build_lattice``."""

    def edges(cycle: list[int]) -> set[frozenset[int]]:
        return set(map(frozenset, zip(cycle, cycle[1:] + cycle[:1])))

    rng = random.Random(seed)
    # the boundary cycle, every polygon as a cycle of its vertices, and
    # the vertex count, the next vertex's number
    boundary = list(range(rng.randint(3, 7)))
    polygons = [boundary]
    known = edges(boundary)
    n = len(boundary)
    while len(polygons) < m:
        sides, glued = rng.randint(3, 7), rng.randint(1, 2)
        i = rng.randrange(len(boundary))
        turned = boundary[i:] + boundary[:i]
        path, new = turned[: glued + 1], list(range(n, n + sides - glued - 1))
        cycle = path + new[::-1]
        if (edges(cycle) - edges(path)) & known or not all(
            len(s) < 2 or len(s) == 2 and frozenset(s) in edges(cycle) & edges(P)
            for P in polygons
            for s in [set(cycle).intersection(P)]
        ):
            continue
        polygons.append(cycle)
        known |= edges(cycle)
        n += len(new)
        boundary = [turned[0], *new, *turned[glued:]]
    name = {e: "e{}-{}".format(*sorted(e)) for e in known}
    elements = [(BOTTOM_ID, 0), (TOP_ID, 4)]
    elements += [(f"v{v}", 1) for v in range(n)] + [(x, 2) for x in name.values()]
    elements += [(f"p{t}", 3) for t in range(1, m + 1)]
    covers = [(BOTTOM_ID, f"v{v}") for v in range(n)]
    covers += [(f"v{v}", name[e]) for e in known for v in e]
    covers += [(name[e], f"p{t}") for t, P in enumerate(polygons, 1) for e in edges(P)]
    return sb.build_lattice(elements, covers, 2)


def lune_sphere() -> sb.FaceLattice:
    """A regular CW 3-sphere that is not strongly regular (Björner, Europ.
    J. Combin. 1984): two 3-cells ``B1`` and ``B2`` glued along the
    2-sphere of the four lunes ``l1..l4`` on the vertices ``a`` and ``b``,
    lune ``li`` bounded by the edges ``ei`` and ``e(i+1)`` (indices mod 4).
    Each 3-cell has four ridges, as a tetrahedron does, but twelve faces
    below it, not sixteen."""
    elements = [(BOTTOM_ID, 0), ("a", 1), ("b", 1), ("B1", 4), ("B2", 4), (TOP_ID, 5)]
    covers = [(BOTTOM_ID, "a"), (BOTTOM_ID, "b"), ("B1", TOP_ID), ("B2", TOP_ID)]
    for i in range(1, 5):
        edge, lune = f"e{i}", f"l{i}"
        elements += [(edge, 2), (lune, 3)]
        covers += [("a", edge), ("b", edge), (edge, lune), (f"e{i % 4 + 1}", lune)]
        covers += [(lune, "B1"), (lune, "B2")]
    return sb.build_lattice(elements, covers, 3)


def pyramid(L: sb.FaceLattice) -> sb.FaceLattice:
    """The boundary of the pyramid over the polytope whose boundary is
    ``L``: each face x of that polytope, itself (``L.top``) included, as
    ``b:x``, and the pyramid over each face x of ``L``, the empty face
    included, as ``p:x``, one rank up; ``p:_bot`` is the apex.  Built
    through ``build_lattice`` listing no cover to the top."""
    def base(y: str) -> str:
        return BOTTOM_ID if y == L.bottom else f"b:{y}"

    elements = [(BOTTOM_ID, 0), (TOP_ID, L.dim + 3)]
    covers = []
    for x, r in zip(L.ids, L.ranks):
        if x != L.bottom:
            elements.append((base(x), r))
            covers += [(base(y), base(x)) for y in L.lower_covers(x)]
        if x != L.top:
            elements.append((f"p:{x}", r + 1))
            covers += [(base(x), f"p:{x}")]
            covers += [(f"p:{y}", f"p:{x}") for y in L.lower_covers(x)]
    return sb.build_lattice(elements, covers, L.dim + 1)


def prism(L: sb.FaceLattice) -> sb.FaceLattice:
    """The boundary of the prism over the polytope whose boundary is
    ``L``: each face x of that polytope, itself (``L.top``) included, at
    both ends, as ``0:x`` and ``1:x``, and each face x of ``L`` times the
    segment as ``I:x``, one rank up.  Built through ``build_lattice``
    listing no cover to the top."""
    def at(end: str, y: str) -> str:
        return BOTTOM_ID if y == L.bottom else f"{end}:{y}"

    elements = [(BOTTOM_ID, 0), (TOP_ID, L.dim + 3)]
    covers = []
    for x, r in zip(L.ids[1:], L.ranks[1:]):
        below = L.lower_covers(x)
        for end in "01":
            elements.append((at(end, x), r))
            covers += [(at(end, y), at(end, x)) for y in below]
        if x != L.top:
            elements.append((f"I:{x}", r + 1))
            covers += [(f"0:{x}", f"I:{x}"), (f"1:{x}", f"I:{x}")]
            covers += [(f"I:{y}", f"I:{x}") for y in below if y != L.bottom]
    return sb.build_lattice(elements, covers, L.dim + 1)


# the bases of the pyramids and prisms: polytope boundaries
PRODUCT_BASES = {
    "ngon-4": partial(sb.ngon, 4),
    "ngon-5": partial(sb.ngon, 5),
    "simplex-2": partial(sb.simplex_boundary, 2),
    "cube-2": partial(sb.hypercube_boundary, 2),
    "cross-2": partial(sb.cross_polytope, 2),
    "cyclic-4-6": partial(sb.cyclic_boundary, 4, 6),
}


def product(A: sb.FaceLattice, B: sb.FaceLattice) -> sb.FaceLattice:
    """The boundary of P x Q for the polytopes P and Q whose boundaries are
    ``A`` and ``B``: a face ``x*y`` of rank rank(x) + rank(y) - 1 for each
    pair of non-empty faces, P (``A.top``) and Q (``B.top``) included,
    but for (P, Q) itself.  A face covers the faces that lower one
    coordinate to a non-empty face, and the bottom covers each pair of
    vertices.  Built through ``build_lattice`` listing no cover to the
    top."""
    elements = [(BOTTOM_ID, 0), (TOP_ID, A.dim + B.dim + 3)]
    covers = []
    for x, r in zip(A.ids[1:], A.ranks[1:]):
        for y, t in zip(B.ids[1:], B.ranks[1:]):
            if (x, y) == (A.top, B.top):
                continue
            elements.append((f"{x}*{y}", r + t - 1))
            if r + t == 2:
                covers.append((BOTTOM_ID, f"{x}*{y}"))
            covers += [(f"{u}*{y}", f"{x}*{y}") for u in A.lower_covers(x) if u != A.bottom]
            covers += [(f"{x}*{v}", f"{x}*{y}") for v in B.lower_covers(y) if v != B.bottom]
    return sb.build_lattice(elements, covers, A.dim + B.dim + 1)


def free_sum(A: sb.FaceLattice, B: sb.FaceLattice) -> sb.FaceLattice:
    """The boundary of the free sum of P and Q, the polar of the product
    of their polars."""
    return sb.dualize(product(sb.dualize(A), sb.dualize(B)))


# the products of a triangle or a square with each base of the pyramids
# and prisms, and their free sums, each with its two factors: polytope
# boundaries of dimension 3 to 5
PRODUCTS = {
    f"{join.__name__}-ngon-{m}-{name}": (join, partial(sb.ngon, m), base)
    for join in (product, free_sum) for m in (3, 4) for name, base in PRODUCT_BASES.items()
}


def barycentric_subdivision(L: sb.FaceLattice) -> sb.FaceLattice:
    """The order complex of ``L``'s proper part: a vertex for each proper
    face, named by the face's index in ``L``, and a facet for each maximal
    chain of proper faces.  On a regular CW complex it is a simplicial
    complex homeomorphic to it (Björner, Europ. J. Combin. 1984)."""
    upper = _upper_covers(L)
    top = L.index(L.top)
    chains = []

    def climb(chain: list[int]) -> None:
        above = [y for y in upper[chain[-1]] if y != top]
        if not above:
            chains.append(chain)
        for y in above:
            climb([*chain, y])

    for atom in upper[L.index(L.bottom)]:
        climb([atom])
    return sb.from_facets([map(str, chain) for chain in chains])


# the generators at small sizes: polytope boundaries, whose face
# lattices are lattices
POLYTOPES = {
    **{f"simplex-{d}": partial(sb.simplex_boundary, d) for d in (1, 2, 3)},
    **{f"cross-{d}": partial(sb.cross_polytope, d) for d in (1, 2, 3)},
    **{f"cube-{d}": partial(sb.hypercube_boundary, d) for d in (1, 2, 3)},
    **{f"ngon-{n}": partial(sb.ngon, n) for n in (3, 5, 6)},
    **{f"cyclic-{d}-6": partial(sb.cyclic_boundary, d, 6) for d in (3, 4)},
}


def _punctured(make):
    return lambda: sb.punctured(make())


def _dual(make):
    return lambda: sb.dualize(make())


# complexes to subdivide, each with whether it is a lattice itself: the
# subdivision of a regular CW complex is strongly regular even where the
# complex is not, and the subdivision of a polytope's boundary or of a
# shellable ball is shellable; a dual's subdivision is its host's, with
# other vertex names
SUBDIVIDED = {
    **{name: (make, True) for name, make in POLYTOPES.items()},
    **{f"punctured-{name}": (_punctured(make), True) for name, make in POLYTOPES.items()},
    **{f"dual-{name}": (_dual(make), True) for name, make in POLYTOPES.items()},
    "lune": (lune_sphere, False),
    "doubled-triangle": (doubled_triangle, False),
}
