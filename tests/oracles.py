"""Independent reimplementations used to cross-check the package.

Deliberately naive: order relations by fixpoint iteration over raw cover
pairs, shellings by exhaustive permutation search straight off the
recursive definition, or, in :func:`subset_first_shelling`, by a DP
over sets of placed facets with the same step rule, for inputs too
large to permute; :func:`dead_prefixes` reads the same DP.  Only
navigation primitives of the lattice are reused; none of the search,
memoisation, or purity machinery under test is touched, except by
:func:`unpruned_search`, the shelling search as it was before it learnt
to prune, kept as the reference for the pruned one, and by
:func:`generator_walk` and :func:`generator_graph_order`, the walks as
they were before they read candidate masks bit by bit.
:func:`precheck_resolve_positions` is the positional JSON loader's
resolver as it was before it checked each ``lower`` list as it mapped it.
"""

import json
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain, combinations, islice, permutations, product
from operator import itemgetter

from shellbound import (
    BOTTOM_ID,
    TOP_ID,
    EmptyInput,
    FaceLattice,
    InvalidFace,
    MixedDimensions,
    atom_avoiding_coatom,
    build_lattice,
    sub_lattice,
)
from shellbound.lattice import _down_sets, _iter_bits, _require_sphere, _resolve_elements
from shellbound.shelling import _step


# -- derived lattices through id strings -----------------------------------
#
# Each builder below writes its lattice as ``(id, rank)`` and ``(id, id)``
# string pairs and hands them to ``build_lattice``, the one resolver of
# outside ids, as the library's derived builders and generators once did;
# they are the reference for the builders that now index the result
# themselves.  :func:`filtered_gale_facets` is the filter the cyclic
# polytope generator ran over every d-subset before it walked them.


def string_dualize(L: FaceLattice) -> FaceLattice:
    top_rank = L.dim + 2
    ids = L.ids
    elements = [(i, top_rank - r) for i, r in zip(ids, L.ranks)]
    covers = [(ids[b], ids[a]) for b, below in enumerate(L._lower) for a in below]
    return build_lattice(elements, covers, L.dim)


def string_punctured(S: FaceLattice, facet_id=None) -> FaceLattice:
    _require_sphere(S)
    facets = S.facets()
    if facet_id is None:
        facet_id = facets[0]
    elif facet_id not in facets:
        raise InvalidFace(f"{facet_id!r} is not a facet")
    x = S.index(facet_id)
    ids = S.ids
    elements = [(i, r) for i, r in zip(ids, S.ranks) if i != facet_id]
    covers = [
        (ids[a], ids[b])
        for b, below in enumerate(S._lower)
        if b != x
        for a in below
        if a != x
    ]
    return build_lattice(elements, covers, S.dim)


def string_restricted(L: FaceLattice, facet_ids) -> FaceLattice:
    """The closure of the faces ``facet_ids`` of ``L`` under ``L``'s top,
    which lists no cover."""
    members = set().union(*(L.down_set(f) for f in facet_ids)) - {L.bottom}
    elements = [(L.bottom, 0), (L.top, L.dim + 2)]
    elements += [(i, L.rank_of(i)) for i in members]
    covers = [(a, b) for b in members for a in L.lower_covers(b)]
    return build_lattice(elements, covers, L.dim)


def string_sub_lattice(L: FaceLattice, face_id: str) -> FaceLattice:
    x = L.index(face_id)
    if x in (0, L._top):
        raise InvalidFace("the artificial extremes bound no cell")
    members = _down_sets(L)[x]
    elements = [(L.ids[e], L.ranks[e]) for e in _iter_bits(members & ~(1 << x))]
    elements.append((face_id, L.ranks[x]))
    covers = [(L.ids[c], L.ids[e]) for e in _iter_bits(members) for c in L._lower[e]]
    return build_lattice(elements, covers, L.ranks[x] - 2)


def string_from_facets(facets) -> FaceLattice:
    facet_sets = {frozenset(str(t) for t in f) for f in facets}
    facet_sets.discard(frozenset())
    if not facet_sets:
        raise EmptyInput("no facets supplied")
    sizes = {len(f) for f in facet_sets}
    if len(sizes) != 1:
        raise MixedDimensions(f"facet sizes differ: {sorted(sizes)}")
    d = sizes.pop() - 1
    vocabulary = frozenset().union(*facet_sets)
    sep = "" if all(len(t) == 1 for t in vocabulary) else "-"
    if sep and any("-" in t for t in vocabulary):
        raise InvalidFace("multi-character vertex tokens may not contain '-'")
    faces = set()
    for f in facet_sets:
        tokens = sorted(f, key=lambda t: (len(t), t))
        for k in range(1, d + 2):
            faces.update(combinations(tokens, k))
    ids = {s: sep.join(s) for s in faces}
    for i in (BOTTOM_ID, TOP_ID):
        if i in ids.values():
            raise InvalidFace(f"vertex tokens collide with reserved id {i!r}")
    elements = [(BOTTOM_ID, 0), (TOP_ID, d + 2)]
    elements += [(i, len(s)) for s, i in ids.items()]
    covers = []
    for s, i in ids.items():
        if len(s) == 1:
            covers.append((BOTTOM_ID, i))
        else:
            covers += [(ids[s[:v] + s[v + 1 :]], i) for v in range(len(s))]
        if len(s) == d + 1:
            covers.append((i, TOP_ID))
    return build_lattice(elements, covers, d)


def string_hypercube_boundary(d: int) -> FaceLattice:
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


def string_ngon(n: int) -> FaceLattice:
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


def filtered_gale_facets(d: int, n: int) -> list[tuple[int, ...]]:
    """The facets of the cyclic d-polytope on n vertices: every d-subset
    of 1..n, filtered by Gale's evenness condition."""
    return [s for s in combinations(range(1, n + 1), d) if _gale_even(s, n)]


# -- the positional JSON loader with a whole-file pre-check -----------------


def precheck_resolve_positions(elements, raw, dim) -> tuple:
    """What ``lattice._resolve_positions`` returns, as it did when a check
    of every ``lower`` list in the file came before the mapping, and
    :func:`position_fault` named the first fault when that check failed."""
    ids, ranks, index = _resolve_elements(elements, dim)
    names = map(str, map(itemgetter(0), islice(elements, 2, None)))
    at = tuple(map(index.__getitem__, names))
    lowers = [f.get("lower") for f in raw]
    m = len(at)
    if not (
        set(map(type, lowers)) <= {list}
        and set(map(type, chain.from_iterable(lowers))) <= {int}
        and 0 <= min(chain.from_iterable(lowers), default=0)
        and max(chain.from_iterable(lowers), default=-1) < m
        and not any(map(list.__contains__, lowers, range(m)))
    ):
        raise InvalidFace(position_fault(raw))
    get = at.__getitem__
    lower = [()] * len(ids)
    for x, below in zip(at, lowers):
        if below:
            lower[x] = tuple(sorted(set(map(get, below))))
    vertices = bisect_right(ranks, 1, 0, len(ids) - 1)
    lower[1:vertices] = [(0, *below) for below in lower[1:vertices]]
    nums = tuple(index.values())
    lower[-1] = nums[bisect_left(ranks, dim + 1) : -1]
    return index, ranks, lower


def position_fault(raw: list) -> str:
    """The first fault of the faces' ``lower`` lists, in file order."""
    for p, f in enumerate(raw):
        i = str(f["id"])
        if "lower" not in f:
            return f"malformed lattice data: face {i!r} has no 'lower' list"
        below = f["lower"]
        if type(below) is not list:
            return f"malformed lattice data: 'lower' of face {i!r} is not a list"
        for q in below:
            if type(q) is not int:
                return (f"malformed lattice data: 'lower' of face {i!r} holds {json.dumps(q)}, "
                        "not a position")
            if not 0 <= q < len(raw):
                return f"'lower' of face {i!r} holds {q}, outside positions [0, {len(raw)})"
            if q == p:
                return f"face {i!r} lists itself as a lower cover"
    raise AssertionError("no fault in the lower lists")


def reachability(
    elements: list[tuple[str, int]],
    covers: list[tuple[str, str]],
    bottom_id: str,
    top_id: str,
) -> dict[str, set[str]]:
    """above[x] = every y with x <= y, including the implicit extremes."""
    above: dict[str, set[str]] = {i: {i} for i, _ in elements}
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            missing = above[hi] - above[lo]
            if missing:
                above[lo] |= missing
                changed = True
    for i in above:
        above[i].add(top_id)
        above[bottom_id].add(i)
    return above


def implied_covers(
    elements: list[tuple[str, int]], covers: list[tuple[str, str]], dim: int
) -> set[tuple[str, str]]:
    """The cover pairs, with the top over every element of rank ``dim +
    1`` whether or not ``covers`` lists that cover."""
    top = next(i for i, r in elements if r == dim + 2)
    return set(covers) | {(i, top) for i, r in elements if r == dim + 1}


def naive_lattice_arrays(
    elements: list[tuple[str, int]], covers: list[tuple[str, str]], dim: int
) -> tuple[tuple, tuple, tuple, tuple]:
    """The cover neighbours ``_lower`` and ``_upper_covers``, the down-set
    masks ``_down_sets`` and the up-set masks of the lattice on these elements and
    covers, over the (rank, id) element order: cover neighbours read off
    the cover list pair by pair, with the top over every element of rank
    ``dim + 1`` (:func:`implied_covers`), down- and up-sets from
    :func:`reachability`."""
    order = sorted(elements, key=lambda e: (e[1], e[0]))
    ids = [i for i, _ in order]
    pos = {i: x for x, i in enumerate(ids)}
    bottom = next(i for i, r in elements if r == 0)
    top = next(i for i, r in elements if r == dim + 2)
    pairs = implied_covers(elements, covers, dim)
    lower = tuple(tuple(sorted(pos[a] for a, b in pairs if b == i)) for i in ids)
    upper = tuple(tuple(sorted(pos[b] for a, b in pairs if a == i)) for i in ids)
    above = reachability(elements, list(pairs), bottom, top)
    down = tuple(sum(1 << pos[y] for y in ids if x in above[y]) for x in ids)
    up = tuple(sum(1 << pos[y] for y in above[x]) for x in ids)
    return lower, upper, down, up


def _above(L: FaceLattice) -> dict[str, set[str]]:
    return reachability(list(zip(L.ids, L.ranks)), list(L.covers()), L.bottom, L.top)


def naive_is_diamond(L: FaceLattice) -> bool:
    """Every interval [x, z] with z two ranks above x has four elements,
    counted over the reachability closure of the explicit covers."""
    above = _above(L)
    rank = dict(zip(L.ids, L.ranks))
    return all(
        sum(z in above[y] for y in above[x]) == 4
        for x in L.ids
        for z in above[x]
        if rank[z] == rank[x] + 2
    )


def naive_atoms_avoiding_coatoms(L: FaceLattice) -> dict[tuple[str, object], object]:
    """For every coatom and every base below the top (None for the
    bottom's default), the least id among the faces other than the top
    that cover the base and do not lie below the coatom, or None when
    there is no such face; read off the reachability closure."""
    above = _above(L)
    rank = dict(zip(L.ids, L.ranks))
    out = {}
    for coatom in (c for c in L.ids if rank[c] == rank[L.top] - 1):
        for base in [None] + [b for b in L.ids if b != L.top]:
            b = L.bottom if base is None else base
            atoms = [y for y in above[b] if rank[y] == rank[b] + 1 and y != L.top]
            out[coatom, base] = min((y for y in atoms if coatom not in above[y]), default=None)
    return out


def naive_is_pure(L: FaceLattice, face_ids) -> bool:
    """Whether every one of the given faces lies below one of the highest
    dimension among them, tested face against face."""
    faces = set(face_ids)
    dims = {f: L.dim_of(f) for f in faces}
    top = max(dims.values(), default=-1)
    tops = [f for f in faces if dims[f] == top]
    return all(any(L.leq(f, t) for t in tops) for f in faces)


def naive_pseudomanifold(L: FaceLattice, face_ids) -> tuple[bool, frozenset[str]]:
    """Whether the complex on the given faces is a pseudomanifold, and the
    faces of its boundary (empty when it is not one), counting the top
    faces over each ridge one ridge at a time."""
    faces = set(face_ids)
    dims = {f: L.dim_of(f) for f in faces}
    top = max(dims.values(), default=-1)
    if top <= -1:
        return True, frozenset()
    if not naive_is_pure(L, faces):
        return False, frozenset()
    tops = [f for f in faces if dims[f] == top]
    boundary: set[str] = set()
    for ridge in (f for f in faces if dims[f] == top - 1):
        cofaces = sum(L.leq(ridge, t) for t in tops)
        if cofaces > 2:
            return False, frozenset()
        if cofaces == 1:
            boundary |= L.down_set(ridge)
    return True, frozenset(boundary)


def naive_is_lattice(L: FaceLattice) -> bool:
    """Every pair has a unique meet and a unique join, both found by brute
    force over the reachability closure of the explicit covers."""
    above = reachability(list(zip(L.ids, L.ranks)), list(L.covers()), L.bottom, L.top)
    for x, y in combinations(L.ids, 2):
        lower = [z for z in L.ids if x in above[z] and y in above[z]]
        upper = [z for z in L.ids if z in above[x] and z in above[y]]
        meets = [m for m in lower if all(m in above[z] for z in lower)]
        joins = [j for j in upper if all(z in above[j] for z in upper)]
        if len(meets) != 1 or len(joins) != 1:
            return False
    return True


def _intersection_faces(L: FaceLattice, order: tuple[str, ...], j: int) -> set[str]:
    below = set(L.down_set(order[j - 1], strict=True)) - {L.bottom}
    earlier: set[str] = set()
    for f in order[: j - 1]:
        earlier |= set(L.down_set(f))
    return below & earlier


def _first_shelling(sub: FaceLattice, prefix: tuple[str, ...]):
    """The first shelling of ``sub`` that starts with exactly the facets in
    ``prefix``, or None; lexicographically first when ``prefix`` is sorted."""
    rest = [f for f in sub.facets() if f not in prefix]
    for front in permutations(prefix):
        for back in permutations(rest):
            if naive_is_shelling(sub, front + back):
                return front + back
    return None


def naive_is_shelling(L: FaceLattice, order) -> bool:
    """Literal recursive definition, existentials by brute force."""
    order = tuple(order)
    if sorted(order) != sorted(L.facets()):
        return False
    if L.dim <= 0:
        return True
    for j in range(1, len(order) + 1):
        sub = sub_lattice(L, order[j - 1])
        if _first_shelling(sub, ()) is None:
            return False
        if j == 1:
            continue
        inter = _intersection_faces(L, order, j)
        if not inter:
            return False
        ridges = sorted(g for g in inter if L.dim_of(g) == L.dim - 1)
        covered: set[str] = set()
        for r in ridges:
            covered |= set(L.down_set(r)) - {L.bottom}
        if covered != inter:
            return False
        if _first_shelling(sub, tuple(ridges)) is None:
            return False
    return True


def subset_first_shelling(L: FaceLattice, prefix=()):
    """The first shelling of ``L`` whose first entries are exactly the
    facets in ``prefix``, or None: exact, with no budget, by a DP over the
    sets of placed facets (:func:`_placements`).

    The rule reads the earlier facets as a set, so ``good(placed)``,
    whether the facets in ``placed`` can be followed by all the others,
    decides each position; the first order takes at each position the
    least facet with an admissible step into a good set.
    """
    return _first(L, prefix, _cell_shellings(L))


def prefix_sets(L: FaceLattice) -> dict[frozenset, bool]:
    """Every set of facets that admissible steps reach from the empty
    set, the empty set included, with whether a shelling completes it."""
    _, admissible, good = _placements(L, (), _cell_shellings(L))
    facets = L.facets()
    reached = {frozenset(): good(frozenset())}
    frontier = [frozenset()]
    for placed in frontier:
        for f in facets:
            if f not in placed and admissible(placed, f):
                grown = placed | {f}
                if grown not in reached:
                    reached[grown] = good(grown)
                    frontier.append(grown)
    return reached


def dead_prefixes(L: FaceLattice) -> list[frozenset]:
    """The dead prefixes of ``L``: the sets of facets that admissible
    steps reach from the empty set and that no shelling completes."""
    return [placed for placed, ok in prefix_sets(L).items() if not ok]


def _cell_shellings(L: FaceLattice):
    """``cell_shelling(f, ridges)``: whether the boundary of the cell
    ``f`` of ``L`` has a shelling that starts with the ``ridges``.  A cell
    of a cell is a cell of ``L`` with the same faces, so one cache serves
    every depth."""

    @lru_cache(maxsize=None)
    def cell_shelling(f: str, ridges: tuple[str, ...]) -> bool:
        return _first(sub_lattice(L, f), ridges, cell_shelling) is not None

    return cell_shelling


def _first(K: FaceLattice, prefix, cell_shelling) -> tuple[str, ...] | None:
    candidates, admissible, good = _placements(K, prefix, cell_shelling)
    everything = frozenset(K.facets())
    placed, order = frozenset(), []
    if not good(placed):
        return None
    while placed != everything:
        f = next(f for f in candidates(placed) if admissible(placed, f) and good(placed | {f}))
        placed |= {f}
        order.append(f)
    return tuple(order)


def _placements(K: FaceLattice, prefix, cell_shelling):
    """``(candidates, admissible, good)`` over the sets of placed facets
    of ``K``, the facets of ``prefix`` first: the facets that may come
    next, whether a facet's step after a set is admissible, and whether a
    set can be followed by all the other facets.

    A step is tested by the literal rule of :func:`naive_is_shelling`,
    through :func:`_intersection_faces`; whether a facet boundary has a
    shelling that starts with given ridges is ``cell_shelling``, this DP
    on the boundary, in place of :func:`_first_shelling`'s permutations.
    """
    everything = frozenset(K.facets())
    forced = frozenset(prefix)

    @lru_cache(maxsize=None)
    def admissible(placed: frozenset, f: str) -> bool:
        if K.dim <= 0:
            return True
        if not cell_shelling(f, ()):
            return False
        if not placed:
            return True
        order = (*sorted(placed), f)
        inter = _intersection_faces(K, order, len(order))
        ridges = tuple(sorted(g for g in inter if K.dim_of(g) == K.dim - 1))
        covered: set[str] = set()
        for r in ridges:
            covered |= set(K.down_set(r)) - {K.bottom}
        return bool(inter) and covered == inter and cell_shelling(f, ridges)

    def candidates(placed: frozenset) -> list[str]:
        return sorted((everything if forced <= placed else forced) - placed)

    @lru_cache(maxsize=None)
    def good(placed: frozenset) -> bool:
        return placed == everything or any(
            admissible(placed, f) and good(placed | {f}) for f in candidates(placed)
        )

    return candidates, admissible, good


def unpruned_search(L: FaceLattice, x: int, prefix: int, simplices: int, budget):
    """``shelling._search`` without its two prunings: no memo of dead sets
    of remaining facets, and no shortcut on Boolean cells, so the
    Boolean-cell mask ``simplices`` is only handed on to ``_step``, as
    ``_search`` hands it.  Installed in place of ``shelling._search``, it
    is reached from ``_step`` too, so the whole recursion and every
    certificate built on it go unpruned."""
    down = _down_sets(L)
    facets = down[x] & L._rank_masks[L.ranks[x] - 1] & L._real_mask
    if L.ranks[x] <= 2:
        return tuple(_iter_bits(prefix)) + tuple(_iter_bits(facets & ~prefix))
    key = (x, prefix)
    if key in L._memo:
        return L._memo[key]

    n = facets.bit_count()
    k = prefix.bit_count()
    chosen: list[int] = []
    steps: dict = {}

    def dfs(union: int, left: int) -> bool:
        pos = len(chosen)
        if pos == n:
            return True
        for f in _iter_bits(left & prefix if pos < k else left):
            budget.spend()
            step = steps.get((f, union))
            if step is None:
                step = steps[f, union] = _step(L, f, union, simplices, budget)
            if isinstance(step, str):
                continue
            chosen.append(f)
            if dfs(union | down[f], left & ~(1 << f)):
                return True
            chosen.pop()
        return False

    found = tuple(chosen) if dfs(0, facets) else None
    L._memo[key] = found
    return found


def generator_walk(L: FaceLattice, facets: int, prefix: int, simplices: int, budget):
    """``shelling._walk`` as it was while each frame held its untried
    candidates as an ``_iter_bits`` generator; installed in its place, it
    must give the same orders, spend the same nodes and leave the same
    memo entries."""
    n = facets.bit_count()
    k = prefix.bit_count()
    chosen: list[int] = []
    dead: set[int] = set()
    frames = [(0, facets, _iter_bits(facets & prefix if k else facets))]
    while frames and len(chosen) < n:
        union, left, candidates = frames[-1]
        for f in candidates:
            budget.spend()
            if not isinstance(_step(L, f, union, simplices, budget), str):
                break
        else:
            dead.add(left)
            frames.pop()
            if chosen:
                chosen.pop()
            continue
        rest = left & ~(1 << f)
        if rest in dead:
            continue
        chosen.append(f)
        pool = rest & prefix if len(chosen) < k else rest
        frames.append((union | L._down[f], rest, _iter_bits(pool)))
    return tuple(chosen) if len(chosen) == n else None


def generator_graph_order(L: FaceLattice, edges: int, prefix: int):
    """``shelling._graph_order`` as it was while it read each pool through
    an ``_iter_bits`` generator."""
    down, lower = L._down, L._lower
    k = prefix.bit_count()
    order: list[int] = []
    union = 0
    apart = 0
    waiting: dict[int, list[int]] = {}
    left = edges
    while left:
        pool = left & prefix if len(order) < k else left
        for f in _iter_bits(pool & ~apart if apart else pool):
            if not union or down[f] & union > 1:
                break
            apart |= 1 << f
            for v in lower[f]:
                waiting.setdefault(v, []).append(f)
        else:
            return None
        order.append(f)
        left ^= 1 << f
        union |= down[f]
        if waiting:
            for v in lower[f]:
                for e in waiting.pop(v, ()):
                    apart &= ~(1 << e)
    return tuple(order)


def naive_is_boolean(L: FaceLattice, x: int) -> bool:
    """Whether the faces below ``x`` are, under containment, the subsets of
    its atoms: each face fixed by its set of atoms, every subset met once,
    and containment of faces the same as containment of atom sets."""
    below = [z for z in range(len(L.ids)) if L.leq(L.ids[z], L.ids[x])]
    atoms = {z: frozenset(a for a in below if L.ranks[a] == 1 and L.leq(L.ids[a], L.ids[z]))
             for z in below}
    if len(set(atoms.values())) != len(below) or len(below) != 2 ** len(atoms[x]):
        return False
    return all(
        L.leq(L.ids[y], L.ids[z]) == (atoms[y] <= atoms[z]) for y in below for z in below
    )


def naive_witness(L: FaceLattice, order, j: int) -> tuple[str, str]:
    """The witness pair of a sphere shelling cut at j, by the split lemma
    read literally: push the cut into the boundary of the j-th facet, on a
    fresh :func:`sub_lattice` with the first shelling of it that starts
    with the glued ridges, and lift the trailing witness with
    :func:`atom_avoiding_coatom`, at every depth."""
    order = tuple(order)
    if L.dim == 0:
        return order[0], order[1]
    if j == 1:
        return order[0], atom_avoiding_coatom(L, order[0])
    facet = order[j - 1]
    glued = tuple(sorted(
        r for r in L.lower_covers(facet) if any(L.leq(r, f) for f in order[: j - 1])
    ))
    sub = sub_lattice(L, facet)
    begin, inner_end = naive_witness(sub, _first_shelling(sub, glued), len(glued))
    return begin, atom_avoiding_coatom(L, facet, inner_end)


def naive_dim_and_counts(L: FaceLattice, face_ids) -> tuple[int, tuple[int, ...]]:
    """Largest dimension among the given faces (-1 when there is none above
    the empty face) and their counts by dimension from -1 up, one face at a
    time."""
    dims = [L.dim_of(i) for i in face_ids]
    top = max(dims, default=-1)
    return top, tuple(dims.count(k) for k in range(-1, top + 1))


def expand_certificate(doc: dict, L: FaceLattice) -> dict:
    """Inflate a certificate's node table into the nested tree of report
    schema 0.1, where every step carries its sub-certificate inline as
    ``order`` and ``steps``.

    From schema 0.4.0 on, a step names a node only when the search walks
    its facet: a step whose facet is a simplex, or of dimension at most 2,
    names none, and its ``sub_certificate`` is null.  Such a step is
    rebuilt here: on a facet that :func:`naive_is_boolean` finds a
    simplex, or of dimension at most 1, in closed form
    (:func:`simplex_certificate`); on any other 2-cell by a search of its
    own (:func:`graph_certificate`).  A null on any other facet, or a node
    named for a facet that takes a null, raises ValueError: each step has
    one form."""
    nodes = doc["nodes"]

    def inflate(node: dict) -> dict:
        steps = []
        for step in node["steps"]:
            facet, glued, ref = step["facet"], step["intersection_facets"], step["sub_certificate"]
            dim = L.dim_of(facet)
            simplex = naive_is_boolean(L, L.index(facet))
            if ref is not None and simplex:
                raise ValueError(f"a node named for simplex facet {facet!r}")
            if ref is not None and dim <= 2:
                raise ValueError(f"a node named for facet {facet!r} of dimension {dim}")
            if ref is not None:
                sub = inflate(nodes[ref])
            elif simplex or dim <= 1:
                sub = simplex_certificate(L, facet, glued)
            elif dim == 2:
                sub = graph_certificate(L, facet, glued)
            else:
                raise ValueError(
                    f"null sub-certificate on facet {facet!r}, not a simplex, of dimension {dim}")
            steps.append({"facet": facet, "intersection_facets": glued, "sub_certificate": sub})
        return {"order": node["order"], "steps": steps}

    return inflate(doc)


def _ridges(L: FaceLattice, face_id: str) -> list[str]:
    """The faces one dimension below ``face_id`` and under it, in id order."""
    dim = L.dim_of(face_id) - 1
    return sorted(g for g in L.down_set(face_id) if g != L.bottom and L.dim_of(g) == dim)


def simplex_certificate(L: FaceLattice, face_id: str, glued) -> dict:
    """The nested certificate of the boundary of simplex ``face_id``, or
    of any face of dimension at most 1, that a null step stands for: the
    ``glued`` ridges in id order, then the other ridges in id order, and
    at each position the same closed form for the ridges it shares with
    the earlier ones.  The boundary of a face of dimension 1 is a set of
    vertices, shelled in every order, so it has no steps."""
    ridges = _ridges(L, face_id)
    if not set(glued) <= set(ridges):
        raise ValueError(f"{sorted(glued)} are not all ridges of {face_id!r}")
    order = sorted(glued) + [g for g in ridges if g not in glued]
    steps = []
    if L.dim_of(face_id) > 1:
        earlier: set[str] = set()
        for g in order:
            shared = [h for h in _ridges(L, g) if h in earlier]
            steps.append({
                "facet": g,
                "intersection_facets": shared,
                "sub_certificate": simplex_certificate(L, g, shared),
            })
            earlier |= L.down_set(g)
    return {"order": order, "steps": steps}


def graph_certificate(L: FaceLattice, face_id: str, glued) -> dict:
    """The nested certificate of the boundary of 2-cell ``face_id``, a
    graph, that a null step stands for: the first order of its edges that
    a depth-first search finds, trying the edges in id order, under the
    step rule of a graph (each edge after the first shares a vertex with
    an earlier one) and starting with exactly the ``glued`` edges.  Each
    edge glues along the vertices it shares with the earlier ones, and
    its own boundary, a set of vertices, is rebuilt in closed form."""
    edges = _ridges(L, face_id)
    if not set(glued) <= set(edges):
        raise ValueError(f"{sorted(glued)} are not all edges of {face_id!r}")
    ends = {e: set(_ridges(L, e)) for e in edges}

    def first(order: list[str], seen: set[str]):
        if len(order) == len(edges):
            return order
        for e in sorted(glued) if len(order) < len(glued) else edges:
            if e not in order and (not order or ends[e] & seen):
                found = first(order + [e], seen | ends[e])
                if found is not None:
                    return found
        return None

    order = first([], set())
    if order is None:
        raise ValueError(f"no shelling of the boundary of {face_id!r} starts with {sorted(glued)}")
    steps, seen = [], set()
    for e in order:
        shared = sorted(ends[e] & seen)
        steps.append({
            "facet": e,
            "intersection_facets": shared,
            "sub_certificate": simplex_certificate(L, e, shared),
        })
        seen |= ends[e]
    return {"order": order, "steps": steps}


def nested_certificate(cert) -> dict:
    """A certificate object walked as a tree, in the nested form of report
    schema 0.1."""
    return {
        "order": list(cert.facets),
        "steps": [
            {
                "facet": step.facet,
                "intersection_facets": list(step.intersection_facets),
                "sub_certificate": nested_certificate(step.sub_certificate),
            }
            for step in cert.steps
        ],
    }
