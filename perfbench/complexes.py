"""The benchmark's complexes, each with answers known independently of
shellbound.

Every complex is made twice.  The library makes it through its generators
(the call the benchmark measures).  This module describes it again from
its definition: the vertex set of every facet and the closed-form face
counts.  The benchmark checks the library's lattice against that
description, then derives its expected verdicts from the description
alone.

A seed relabels face ids through a bijection that permutes the ids within
each rank, and the lattice is rebuilt through ``build_lattice``.  That
changes the lexicographic search path but keeps every id string, so
report sizes barely move with the seed.  Seed 0 is the identity and keeps
the generators' labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Callable, Optional

# vertex sets are frozensets of vertex ids
Facet = frozenset


@dataclass(frozen=True)
class Model:
    """A complex as its definition gives it."""

    name: str
    dim: int
    f: tuple[int, ...]  # f_0 .. f_dim
    facets: frozenset  # of vertex-id frozensets
    ridge_vertices: int  # vertices of one ridge
    sphere: bool
    shellable: bool
    # boundary face counts f_-1 .. f_(dim-1) of one facet (for punctured balls)
    facet_boundary_f: tuple[int, ...] = ()

    @property
    def elements(self) -> int:
        return sum(self.f) + 2


@dataclass(frozen=True)
class Family:
    """A generator call paired with its model."""

    name: str
    generate: Callable  # sb -> FaceLattice
    model: Model
    call: str  # the public function that makes it, as module.function

    @property
    def metric(self) -> str:
        return "generators.gen_s" if self.call.startswith("generators.") else "lattice.build_s"


def _simplex_boundary_f(d: int) -> tuple[int, ...]:
    return tuple(comb(d + 2, k + 1) for k in range(d + 1))


def simplex_boundary(d: int) -> Family:
    facets = frozenset(
        Facet(str(v) for v in s) for s in combinations(range(1, d + 3), d + 1)
    )
    m = Model(
        f"simplex_boundary({d})", d, _simplex_boundary_f(d), facets, d, True, True,
        (1,) + _simplex_boundary_f(d - 1),
    )
    return Family(m.name, lambda sb: sb.simplex_boundary(d), m, "generators.simplex_boundary")


def cross_polytope(d: int) -> Family:
    m = d + 1
    facets = frozenset(
        Facet(str(v) for v in pick)
        for pick in product(*[(i, i + m) for i in range(1, m + 1)])
    )
    f = tuple(2 ** (k + 1) * comb(m, k + 1) for k in range(d + 1))
    model = Model(
        f"cross_polytope({d})", d, f, facets, d, True, True,
        (1,) + _simplex_boundary_f(d - 1),
    )
    return Family(model.name, lambda sb: sb.cross_polytope(d), model, "generators.cross_polytope")


def hypercube_boundary(d: int) -> Family:
    m = d + 1
    words = ["".join(w) for w in product("01", repeat=m)]
    facets = frozenset(
        Facet(w for w in words if w[i] == b) for i in range(m) for b in "01"
    )
    f = tuple(comb(m, k) * 2 ** (m - k) for k in range(d + 1))
    facet_bd = (1,) + tuple(comb(d, k) * 2 ** (d - k) for k in range(d))
    model = Model(
        f"hypercube_boundary({d})", d, f, facets, 2 ** (d - 1), True, True, facet_bd
    )
    return Family(
        model.name, lambda sb: sb.hypercube_boundary(d), model, "generators.hypercube_boundary"
    )


def _gale_even(s: tuple[int, ...], n: int) -> bool:
    """Gale's evenness condition: between any two non-members, the members
    form a block of even size (checking consecutive non-members suffices)."""
    gaps = [v for v in range(1, n + 1) if v not in s]
    return all((b - a - 1) % 2 == 0 for a, b in zip(gaps, gaps[1:]))


def _cyclic_f(d: int, n: int) -> tuple[int, ...]:
    # h-vector of the cyclic d-polytope on n vertices, then f from h
    h = [comb(n - d + i - 1, i) for i in range(d // 2 + 1)]
    h += [h[d - i] for i in range(d // 2 + 1, d + 1)]
    return tuple(
        sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, d + 1)
    )


def cyclic_boundary(d: int, n: int) -> Family:
    facets = frozenset(
        Facet(str(v) for v in s)
        for s in combinations(range(1, n + 1), d)
        if _gale_even(s, n)
    )
    model = Model(
        f"cyclic_boundary({d},{n})", d - 1, _cyclic_f(d, n), facets, d - 1, True, True,
        (1,) + _simplex_boundary_f(d - 2),
    )
    return Family(
        model.name, lambda sb: sb.cyclic_boundary(d, n), model, "generators.cyclic_boundary"
    )


def disjoint_tetrahedra() -> Family:
    """Two disjoint tetrahedron boundaries: pure, but not connected, so no
    order of its facets is a shelling."""
    comps = [(1, 2, 3, 4), (5, 6, 7, 8)]
    facet_lists = [list(combinations(c, 3)) for c in comps]
    facets = frozenset(Facet(str(v) for v in s) for fl in facet_lists for s in fl)
    model = Model("disjoint_tetrahedra", 2, (8, 12, 8), facets, 2, False, False)
    every = [s for fl in facet_lists for s in fl]
    return Family(model.name, lambda sb: sb.from_facets(every), model, "lattice.from_facets")


def punctured_model(sphere: Model, removed: Facet) -> Model:
    f = sphere.f[:-1] + (sphere.f[-1] - 1,)
    return Model(
        f"punctured({sphere.name})", sphere.dim, f, sphere.facets - {removed},
        sphere.ridge_vertices, False, True, sphere.facet_boundary_f,
    )


# -- the library's lattice, read through public queries --------------------


def facet_vertices(L) -> dict:
    """facet id -> vertex set, read from a lattice."""
    verts = L.faces(0)
    return {f: Facet(v for v in verts if L.leq(v, f)) for f in L.facets()}


def structure_mismatch(L, model: Model, vmap: dict) -> Optional[str]:
    """Compare a lattice with its model; ``vmap`` maps model vertex ids to
    lattice vertex ids.  Returns None when they agree."""
    if L.dim != model.dim:
        return f"dimension {L.dim}, expected {model.dim}"
    counts = tuple(len(L.faces(k)) for k in range(model.dim + 1))
    if counts != model.f:
        return f"face counts {counts}, expected {model.f}"
    want = {Facet(vmap[v] for v in s) for s in model.facets}
    if set(facet_vertices(L).values()) != want:
        return "facet vertex sets differ from the model"
    return None


# -- relabelling -------------------------------------------------------------


def relabel_map(L, seed: int, tag: str) -> dict:
    """A seeded bijection on face ids that keeps every id in its rank."""
    mapping = {i: i for i in L.ids}
    if seed == 0:
        return mapping
    rng = random.Random(f"relabel:{seed}:{tag}")
    by_rank: dict = {}
    for i, r in zip(L.ids, L.ranks):
        by_rank.setdefault(r, []).append(i)
    for r, ids in sorted(by_rank.items()):
        if r in (0, L.dim + 2):
            continue
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping.update(zip(ids, shuffled))
    return mapping


def relabelled_parts(L, mapping: dict) -> tuple:
    """``build_lattice`` arguments for the relabelled lattice."""
    elements = tuple((mapping[i], r) for i, r in zip(L.ids, L.ranks))
    covers = tuple((mapping[a], mapping[b]) for a, b in L.covers())
    return elements, covers, L.dim


# -- known answers about facet pairs ---------------------------------------


def pair_kind(model: Model, a: Facet, b: Facet) -> str:
    """How two facets meet, from their vertex sets: "disjoint", "ridge",
    or "lower" (a shared face below a ridge).  In these complexes two
    facets meet in one face, so shared vertices decide it."""
    shared = len(a & b)
    if shared == 0:
        return "disjoint"
    if shared == model.ridge_vertices:
        return "ridge"
    return "lower"


def cross_polytope_lex_order(d: int, rng: random.Random) -> list:
    """A shelling of the cross polytope boundary, as model vertex sets.

    The boundary is the join of d + 1 copies of S^0, and the lexicographic
    order of a join of shelled complexes is a shelling (Provan and Billera,
    1980).  The seed picks the coordinate priority and the order of each
    antipodal pair.
    """
    m = d + 1
    coords = list(range(1, m + 1))
    rng.shuffle(coords)
    flip = {i: rng.random() < 0.5 for i in coords}

    def key(facet: Facet) -> tuple:
        return tuple((str(i) in facet) == flip[i] for i in coords)

    return sorted(cross_polytope(d).model.facets, key=key)
