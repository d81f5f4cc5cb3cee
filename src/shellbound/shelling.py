"""Shelling verification and search.

A shelling of a pure d-dimensional complex is an order on its facets; the
notion is recursive.  In dimension 0 every order qualifies.  In dimension
d > 0 an order (F_1, ..., F_n) qualifies iff the boundary of every closed
facet is itself shellable and, for every j > 1, the intersection of the
boundary of F_j with the union of the earlier facet boundaries is a
nonempty pure (d-1)-dimensional complex whose top faces can start a
shelling of the boundary of F_j.  An empty intersection is always
rejected.

Search and verification run one recursion over the cells of the host
lattice.  A cell is a face ``x``; its boundary is the down-set of ``x``
without ``x`` and its facets are the faces one rank below it, so the
recursion addresses every cell by its host index and builds no lattice
for it.  Three functions make up the core.  ``_step`` is the step rule:
whether a facet may follow the facets placed before it, and if so its
evidence, the glued ridges and the first shelling of its boundary that
starts with exactly them.  ``_search`` walks facet orders depth-first
through ``_step``, candidates in lexicographic id order, so it returns the
lexicographically first valid completion of the requested prefix.
It prunes in one way and knows two cell shapes in closed form, and none
of the three changes an answer.  Within one search the facets still to
place determine the whole state of the walk, so a set of them that failed
once is remembered and never walked again: it would fail the same way,
and a failed subtree holds no order to find.  A cell whose lower interval
is Boolean bounds a simplex, where every facet order is a shelling, so
its first order is the prefix sorted, then the rest sorted; it is read
off the cell's lower covers without a search.  And a 2-cell's boundary is
a graph, whose shellings are the edge orders that stay connected; any
connected start can still be completed when any can, so the walk would
never backtrack, and the order is grown greedily instead, the least
admissible edge at each position.
``_verify``, the only function that walks a given order, is one
recursion over cells: it takes each step's evidence from ``_step``,
verifies the step's sub-order in turn, and returns the steps, or a
failure carrying the first bad step; it raises
:class:`InternalContradiction` if a sub-order the search returned fails.
Below a cell that ``_search`` does not walk, a simplex or a cell of rank
at most 3, there is nothing to verify.  Every order of a simplex's
facets is a shelling and every face of a simplex is a simplex; a
2-cell's edge order is a shelling once it stays connected, which
``_verify`` checks of the search's order, in mask operations alone,
where it first reads it.  So the steps of such a cell come in closed
form, from ``_closed_steps``: each facet glues along its ridges already
placed, and its sub-order is the one ``_simplex_order`` gives for them,
found with no node, no mask and no failure.  ``_verify`` hands it an
entry cell that is a simplex or of rank at most 2, and makes each such
facet's sub-certificate through ``_closed_node``, an edge's included, as
an instance of one private subclass, ``_ClosedCertificate``: made with
its facets only, its ``steps`` a cached property that ``_closed_steps``
builds when something first reads it (:class:`ShellingCertificate` says
which reads do), from the order the facets give back.  The JSON writer
reads no such node's steps.  The proof route reads a facet's
sub-shelling through its facets, so on a simplicial complex it builds
the top's steps alone.  The top's steps, and those of
every walked cell, are built at once.  Which cells are simplices is the
one lattice fact the recursion reads besides the covers.
:func:`find_shelling` and :func:`is_shelling` read it once per call, as
the mask ``_boolean_cells`` of :mod:`~shellbound.lattice`, the exact
Boolean-interval test that :func:`~shellbound.lattice.is_simplicial`
reads too, and pass it down as the int ``simplices`` through
``_search``, ``_walk``, ``_step`` and ``_verify``; nothing below them
reads the memo for it.  The diamond test of the CL-shellability checks
is ``lattice._is_diamond_lattice``.
This module defines no predicate on a complex of its own.

The lattice builds its down-sets and upper covers on first read, through
``lattice._down_sets`` and ``lattice._upper_covers``.  The recursion
(``_search``, ``_walk``, ``_step``, ``_verify``, ``_closed_steps``,
``_simplex_order`` and ``_graph_order``) reads the down-sets from their
slot, ``L._down``, without the accessor: :func:`find_shelling` and
:func:`is_shelling` read them through it before they enter the
recursion, as they read ``simplices``, and so does the JSON writer
before it asks ``_search``; a closed-form node's steps are built on read
only on a lattice that ran the recursion.  It reads no
upper covers: in a 2-cell's graph, an edge meets the edges placed when
its down-set meets theirs.
So a search or a verification builds the down-sets only.

A certificate names its cell by host index and shares each
sub-certificate among every step that needs it: a DAG with one node per
(cell, order), whose JSON is a node table in which each step refers to
its sub-certificate by position in a ``"nodes"`` list.  A step names a
node there only when ``_search`` walks its facet.  On a simplex cell, or
a cell of dimension at most 2, the sub-order is the closed form the
search gives for the glued ridges, that of ``_graph_order`` on a 2-cell
that is not a simplex and of ``_simplex_order`` on any other, so the
step's ``sub_certificate`` is null; the writer reads the mask once to
tell, and asks ``_search`` for the order to check the sub-certificate's
against.  A step states its glued ridges once, as their count: its
sub-certificate's order starts with exactly them, so they are its first
entries, and both the step's ``intersection_facets`` and the JSON writer
read them from there.  No library path builds a lattice for a cell; a
caller that reads a sub-certificate's ``order`` builds one.  Searches
and sub-certificates are memoised per cell in ``L._memo``, the host
lattice's only memo, whose contents the :mod:`~shellbound.lattice`
docstring lists; a sub-certificate whose cell the search does not walk is
kept there as a ``_ClosedCertificate`` before its steps are built, and
keeps them in its instance dict once they are.
:func:`is_shelling` keeps nothing of its own, so a repeated call walks
its order again, reading every step's sub-certificate from the memo and
spending no node.

Each candidate placement costs one node against a budget (default 10^7
nodes).  Exhausting the budget raises :class:`BudgetExceeded` rather than
ever reporting a false negative.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InternalContradiction,
    NotDiamond,
    NotPseudomanifold,
    PreconditionViolated,
)
from .lattice import (
    FaceLattice,
    Subcomplex,
    _boolean_cells,
    _closed,
    _down_sets,
    _is_diamond_lattice,
    _json_fields,
    _memoised,
    _record,
    _require_int,
    boundary_complex,
    dualize,
    is_pseudomanifold,
    is_pure,
    sub_lattice,
)

DEFAULT_BUDGET = 10_000_000

EMPTY_INTERSECTION = "EmptyIntersection"
NOT_PURE = "NotPure"
NO_PREFIX_SHELLING = "NoPrefixShelling"


class SearchBudget:
    """Node counter shared across one search tree, including recursion."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        _require_int(limit, 0, None, "budget")
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExceeded(f"search exceeded its budget of {self.limit} nodes")


def _as_budget(budget: Union[int, SearchBudget, None]) -> SearchBudget:
    if isinstance(budget, SearchBudget):
        return budget
    return SearchBudget(DEFAULT_BUDGET if budget is None else budget)


@_record
class ShellingOrder:
    """A facet order bound to its lattice; always a permutation of the facets."""

    lattice: FaceLattice
    facets: tuple[str, ...]

    def __post_init__(self):
        if sorted(self.facets) != sorted(self.lattice.facets()):
            raise PreconditionViolated("order is not a permutation of the facets")

    def __len__(self) -> int:
        return len(self.facets)

    def __iter__(self):
        return iter(self.facets)


@_record
class ShellingStep:
    """Evidence for one step: the facet, how many ridges it glues along,
    and a shelling of its boundary starting with exactly those ridges, so
    that they are the first ``glued`` facets of ``sub_certificate``."""

    facet: str
    glued: int
    sub_certificate: "ShellingCertificate"

    @property
    def intersection_facets(self) -> tuple[str, ...]:
        """The glued ridges in id order, read off the sub-shelling."""
        return tuple(sorted(self.sub_certificate.facets[: self.glued]))


@_record
class ShellingCertificate:
    """A verified shelling of the boundary of host cell ``cell``; the whole
    complex is the cell ``lattice._top``.

    Sub-certificates are shared, one per (cell, order).  ``order`` binds
    the facets to the host for the top cell, or to a new ``sub_lattice``
    of the cell for any other cell, on first read; the library reads
    ``facets`` and never builds that lattice.

    A sub-certificate whose cell :func:`_search` does not walk, an
    edge's included, is a :class:`_ClosedCertificate`, made with its
    facets only: its ``steps`` are built in closed form on first read and
    kept.  So every read, ``==``, ``hash`` and ``repr`` among them, sees
    the same steps as for a certificate built whole, and none spends a
    node; a copy or a pickle builds them again when it is read.  Only
    ``repr`` and ``type()`` name the subclass, and ``==`` with a
    certificate of this class is False, since records compare equal only
    within one class.  Every other certificate has its steps from the
    start.
    """

    lattice: FaceLattice
    cell: int
    facets: tuple[str, ...]
    steps: tuple[ShellingStep, ...]

    @cached_property
    def order(self) -> ShellingOrder:
        L = self.lattice
        cell = L if self.cell == L._top else sub_lattice(L, L.ids[self.cell])
        return ShellingOrder(cell, self.facets)

    def to_json_dict(self) -> dict:
        """``order`` and ``steps`` of this certificate, and a ``nodes``
        table holding each sub-certificate once, as ``cell``, ``order`` and
        ``steps``; a step names its sub-certificate by table position.
        Nodes are numbered in first-visit depth-first order.

        A step names a node only when :func:`_search` walks its facet.  A
        step whose facet is a simplex cell, or of dimension at most 2,
        names none: its ``sub_certificate`` is null, and nothing below it
        is written.  Its sub-order is the closed form the search gives for
        the glued ridges, which the step's ``intersection_facets`` fix:
        on a 2-cell that is not a simplex, that of :func:`_graph_order`,
        at each position the least edge that shares a vertex with those
        placed, from the glued edges while they bind; on any other, that
        of :func:`_simplex_order`, the glued ridges and then the rest, each
        in id order.  The writer reads the Boolean-cell mask once and asks
        :func:`_search` for that order, which spends no node on such a
        cell and reads a 2-cell's from the memo, where the search keeps
        it (it is grown and kept again only if it is not there); it
        builds no such cell's steps.  A null step with any other
        sub-order, which only a certificate built by hand can hold, would
        be lost as null, so it raises :class:`InternalContradiction`."""
        L = self.lattice
        ids, ranks, simplices = L.ids, L.ranks, _boolean_cells(L)
        # _search reads the down-sets from their slot
        _down_sets(L)
        index: dict[tuple[int, tuple[str, ...]], int] = {}
        nodes: list[dict] = []
        budget = SearchBudget()

        def steps_json(cert: ShellingCertificate) -> list[dict]:
            out = []
            for step in cert.steps:
                sub = step.sub_certificate
                x = sub.cell
                glued = sub.facets[: step.glued]
                ref = None
                if ranks[x] > 3 and not simplices >> x & 1:
                    ref = index.setdefault((x, sub.facets), len(nodes))
                    if ref == len(nodes):
                        nodes.append({"cell": ids[x], "order": list(sub.facets)})
                        nodes[ref]["steps"] = steps_json(sub)
                else:
                    closed = _search(L, x, L._mask_of(glued), simplices, budget)
                    if closed is None or tuple(map(ids.__getitem__, closed)) != sub.facets:
                        raise InternalContradiction(
                            f"facet {step.facet!r}: its sub-order is not the closed"
                            " form, which a null node stands for")
                out.append({
                    "facet": step.facet,
                    "intersection_facets": sorted(glued),
                    "sub_certificate": ref,
                })
            return out

        return {"order": list(self.facets), "steps": steps_json(self), "nodes": nodes}


class _ClosedCertificate(ShellingCertificate):
    """The certificate :func:`_closed_node` makes for a cell that
    :func:`_search` does not walk, with its facets only: its ``steps`` are
    built by :func:`_closed_steps` on first read and kept in the instance
    dict, from the order its ``facets`` give back through ``L._index``.
    That class attribute shadows the ``steps`` slot, which holds ``()``.

    A copy or a pickle takes the fields and that empty slot, so it walks
    nothing below the node; its steps are built again, on its own
    lattice, when they are read, as a copied lattice starts with an empty
    memo."""

    __slots__ = ()

    @cached_property
    def steps(self) -> tuple[ShellingStep, ...]:
        L = self.lattice
        return _closed_steps(L, self.cell, map(L._index.__getitem__, self.facets))

    def __reduce__(self):
        return self.__class__, (self.lattice, self.cell, self.facets, ())


@_record
class ShellingFailure:
    """First step at which an order breaks the definition, 1-based."""

    step: int
    reason: str

    to_json_dict = _json_fields


ShellingResult = Union[ShellingCertificate, ShellingFailure]


class Shape(Enum):
    SPHERE = "sphere"
    BALL = "ball"


def _order_ids(L: FaceLattice, order: Union[ShellingOrder, Sequence[str]]) -> tuple[str, ...]:
    if isinstance(order, ShellingOrder):
        if order.lattice is not L:
            raise PreconditionViolated("order belongs to a different lattice")
        return order.facets
    return tuple(str(f) for f in order)


def boundary_intersection(
    L: FaceLattice, order: Union[ShellingOrder, Sequence[str]], j: int
) -> Subcomplex:
    """The subcomplex where the boundary of the j-th facet meets the union
    of the earlier facet boundaries (j is 1-based, j >= 2).

    Always contains the empty face; it has no other member exactly when
    the j-th facet touches none of its predecessors.  The first j entries
    must be distinct facets, else :class:`PreconditionViolated`; the rest
    are not read.
    """
    seq = _order_ids(L, order)
    _require_int(j, 2, len(seq), "j", IndexOutOfRange)
    head = [*map(L.index, seq[:j])]
    if len(set(head)) < j or any(L.ranks[f] != L.dim + 1 for f in head):
        raise PreconditionViolated(f"the order's first {j} entries contain non-facets or repeats")
    *earlier, x = head
    down = _down_sets(L)
    union = _closed(down, sum(1 << f for f in earlier))
    return Subcomplex(L, (down[x] & ~(1 << x)) & union)


def _step(
    L: FaceLattice, f: int, union: int, simplices: int, budget: SearchBudget
) -> Union[str, tuple[int, tuple[int, ...]]]:
    """Whether facet ``f`` of a cell may follow the facets whose closed
    union is ``union`` (0 when ``f`` comes first); ``simplices`` is the
    Boolean-cell mask, handed on to :func:`_search`.

    Returns the failure reason, or the evidence: the mask of the ridges
    ``f`` glues along (0 for the first facet) and the first shelling of
    the boundary of ``f`` that starts with exactly those.
    """
    prefix = 0
    if union:
        inter = L._down[f] & ~(1 << f) & union
        if not inter & L._real_mask:
            return EMPTY_INTERSECTION
        prefix = inter & L._rank_masks[L.ranks[f] - 1]
        if _closed(L._down, prefix) != inter:
            return NOT_PURE
    sub_order = _search(L, f, prefix, simplices, budget)
    if sub_order is None:
        return NO_PREFIX_SHELLING
    return prefix, sub_order


def _simplex_order(L: FaceLattice, x: int, prefix: int) -> tuple[int, ...]:
    """The first shelling of the boundary of a simplex cell ``x`` (Boolean
    lower interval, or rank at most 2) that starts with exactly the facets
    in ``prefix``: those facets, then the rest, each in index order."""
    # above rank 1 the facets are the lower covers, already in index
    # order; a vertex, or the top of the empty complex, covers the bottom
    # alone, and its boundary has no facet
    first, rest = [], []
    for f in L._lower[x] if L.ranks[x] > 1 else ():
        (first if prefix >> f & 1 else rest).append(f)
    return tuple(first + rest)


def _graph_order(L: FaceLattice, edges: int, prefix: int) -> Union[tuple[int, ...], None]:
    """The first shelling of a 2-cell's boundary, the graph on the
    ``edges`` mask, that starts with exactly the edges in ``prefix``, or
    None: the least remaining edge at each position (from the prefix while
    it binds) that shares a vertex with the edges placed so far, where the
    first edge need share none.

    An edge shares one when its down-set meets the union of theirs beyond
    the bottom, bit 0, so no upper cover is read.  The union only grows,
    so an edge that fails the test cannot pass it before one of its
    vertices is placed: it is set apart, and filed under its vertices
    until then.  Each edge fails at most once, and the time stays linear
    in the edges.
    """
    down, lower = L._down, L._lower
    k = prefix.bit_count()
    order: list[int] = []
    union = 0  # the closed union of the edges placed
    apart = 0  # edges that failed the test, until a vertex of theirs is placed
    waiting: dict[int, list[int]] = {}  # those edges, under each of their vertices
    left = edges
    while left:
        pool = left & prefix if len(order) < k else left
        if apart:
            pool &= ~apart
        while pool:
            low = pool & -pool
            f = low.bit_length() - 1
            if not union or down[f] & union > 1:
                break
            pool ^= low
            apart |= low
            for v in lower[f]:
                waiting.setdefault(v, []).append(f)
        else:
            return None
        order.append(f)
        left ^= low
        union |= down[f]
        if waiting:
            for v in lower[f]:
                for e in waiting.pop(v, ()):
                    apart &= ~(1 << e)
    return tuple(order)


def _search(
    L: FaceLattice, x: int, prefix: int, simplices: int, budget: SearchBudget
) -> Union[tuple[int, ...], None]:
    """The lexicographically first shelling of the boundary of cell ``x``
    that starts with exactly the facets in the ``prefix`` mask, as host
    indices, or None.  Memoised on the host lattice.  ``simplices`` is
    the Boolean-cell mask, read once by the entry point and handed down
    the whole recursion.

    Two cell shapes are answered in closed form, without a walk or a
    node, and with the answer the plain depth-first search gives.  On a
    cell in ``simplices``, the boundary of a simplex, every facet order
    is a shelling (Ziegler,
    *Lectures on Polytopes*, Lecture 8): any two facets meet in a common
    ridge, so every step glues along a nonempty union of ridges, and each
    facet is again a simplex.  The first candidate at every depth
    succeeds, so the first order is the prefix sorted, then the rest
    sorted, found without a memo entry.  And on a cell of rank 3 the
    boundary is a graph, the facets its edges and the ridges its vertices:
    an edge may follow iff it shares a vertex with the edges placed, and
    its own boundary, a set of vertices, is shelled in every order.  Every
    admissible step leaves the placed edges connected, and a connected set
    of edges grows to any connected set that holds it one adjacent edge at
    a time, so whether the order can be completed does not depend on the
    choices made so far: the DFS never backtracks, and its answer is the
    greedy one of :func:`_graph_order`.  Every other cell is walked by
    :func:`_walk`.
    """
    r = L.ranks[x]
    if r <= 2 or simplices >> x & 1:
        return _simplex_order(L, x, prefix)
    key = (x, prefix)
    if key not in L._memo:
        facets = L._down[x] & L._rank_masks[r - 1] & L._real_mask
        if r == 3:
            L._memo[key] = _graph_order(L, facets, prefix)
        else:
            L._memo[key] = _walk(L, facets, prefix, simplices, budget)
    return L._memo[key]


def _walk(
    L: FaceLattice, facets: int, prefix: int, simplices: int, budget: SearchBudget
) -> Union[tuple[int, ...], None]:
    """:func:`_search`'s depth-first walk over the orders of the ``facets``
    mask that start with exactly the facets in ``prefix``, one node per
    candidate placement.

    One pruning leaves the answer as the plain walk gives it.  The state
    is ``left``, the facets not yet placed: the union, the position and
    whether the prefix still binds all follow from it, so a ``left`` whose
    subtree failed fails whenever it recurs, and the walk skips it.  A
    failed subtree holds no answer, so skipping it cannot change which
    order is found first.  The walk keeps its own stack, so a cell may
    have more facets than Python's recursion limit.  Each frame keeps
    the candidates it has not tried as a mask and takes its lowest bit
    next, so no frame holds a generator.
    """
    n = facets.bit_count()
    k = prefix.bit_count()
    chosen: list[int] = []
    dead: set[int] = set()
    # one frame per depth: the union and the facets left there, and the
    # mask of the candidates not yet tried, taken in index order (host
    # indices run in id order within a rank); chosen[i] led from frame i
    # to frame i + 1
    frames = [(0, facets, facets & prefix if k else facets)]
    while frames and len(chosen) < n:
        union, left, untried = frames.pop()
        while untried:
            low = untried & -untried
            untried ^= low
            f = low.bit_length() - 1
            budget.spend()
            if not isinstance(_step(L, f, union, simplices, budget), str):
                break
        else:
            dead.add(left)
            if chosen:
                chosen.pop()
            continue
        frames.append((union, left, untried))
        rest = left ^ low
        if rest in dead:
            continue
        chosen.append(f)
        pool = rest & prefix if len(chosen) < k else rest
        frames.append((union | L._down[f], rest, pool))
    return tuple(chosen) if len(chosen) == n else None


def _verify(
    L: FaceLattice, x: int, order: Sequence[int], simplices: int, budget: SearchBudget
) -> Union[tuple[ShellingStep, ...], ShellingFailure]:
    """Check a facet order, as host indices, on the boundary of cell ``x``:
    the steps of its certificate, or the first step that breaks the
    definition.  ``simplices`` is the Boolean-cell mask, read once by the
    entry point and handed down.

    A simplex cell, or one of rank at most 2, has its steps from
    :func:`_closed_steps`: every order of its facets is a shelling.  Any
    other cell's steps come from :func:`_step`, and each step's
    sub-certificate is made once per (cell, sub-order) and kept in the
    host's memo.  A facet that :func:`_search` walks has its sub-order
    verified here and now; any other is made by :func:`_closed_node`,
    after a 2-cell's sub-order passes the graph's step rule: each edge
    after the first meets the union of the earlier ones beyond the bottom.
    A sub-order that the search returned but that fails raises
    :class:`InternalContradiction`.  A step records how many ridges its
    facet glues along, the length of its sub-order's prefix; no id is made
    for them.
    """
    r = L.ranks[x]
    if r <= 2 or simplices >> x & 1:
        return _closed_steps(L, x, order)
    steps: list[ShellingStep] = []
    union = 0
    for j, f in enumerate(order, 1):
        step = _step(L, f, union, simplices, budget)
        if isinstance(step, str):
            return ShellingFailure(j, step)
        prefix, sub_order = step
        sub = L._memo.get((f, sub_order))
        if sub is None:
            if r < 5 or simplices >> f & 1:
                if r == 4 and not simplices >> f & 1:
                    seen = 0
                    for e in sub_order:
                        if seen and L._down[e] & seen <= 1:
                            raise InternalContradiction(
                                "search returned a 2-cell order that is not connected"
                                f" at {L.ids[e]!r}")
                        seen |= L._down[e]
                sub = _closed_node(L, f, sub_order)
            else:
                sub_steps = _verify(L, f, sub_order, simplices, budget)
                if isinstance(sub_steps, ShellingFailure):
                    raise InternalContradiction(
                        "search returned an order that fails verification"
                        f" at step {sub_steps.step}"
                    )
                facets = tuple(map(L.ids.__getitem__, sub_order))
                sub = L._memo[f, sub_order] = ShellingCertificate(L, f, facets, sub_steps)
        steps.append(ShellingStep(L.ids[f], prefix.bit_count(), sub))
        union |= L._down[f]
    return tuple(steps)


def _closed_steps(L: FaceLattice, x: int, order: Iterable[int]) -> tuple[ShellingStep, ...]:
    """The steps of ``order``, host indices, on the boundary of a cell
    ``x`` that :func:`_search` does not walk: a simplex, or a cell of rank
    at most 3.  Every order of such a cell's facets is a shelling, a
    2-cell's once its edges stay connected, which :func:`_verify` checks
    where the search's order is first read (Ziegler, *Lectures on
    Polytopes*, Lecture 8).  The union of down-sets is closed, a facet
    glues along its ridges in that union, and its sub-order is the one
    :func:`_simplex_order` gives for them: what :func:`_step` would give,
    found with no node, no mask and no failure."""
    r = L.ranks[x]
    down, ridges = L._down, L._rank_masks[r - 2]
    steps = []
    union = 0
    # every order of at most two vertices is a shelling
    for f in order if r > 2 else ():
        prefix = down[f] & union & ridges
        sub = _closed_node(L, f, _simplex_order(L, f, prefix))
        steps.append(ShellingStep(L.ids[f], prefix.bit_count(), sub))
        union |= down[f]
    return tuple(steps)


def _closed_node(L: FaceLattice, x: int, order: tuple[int, ...]) -> _ClosedCertificate:
    """The memo's certificate of ``order``, host indices, on the boundary
    of a cell ``x`` that :func:`_search` does not walk, made and kept
    there on a miss: a :class:`_ClosedCertificate`, an edge's too, made
    with its facets only, whose steps :func:`_closed_steps` builds when
    they are first read.  No order is kept for that: the facets give it
    back."""
    cert = L._memo.get((x, order))
    if cert is None:
        facets = tuple(map(L.ids.__getitem__, order))
        cert = L._memo[x, order] = _ClosedCertificate(L, x, facets, ())
    return cert


def find_shelling(
    L: FaceLattice,
    prefix: Iterable[str] = (),
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> Union[ShellingOrder, None]:
    """Search for a shelling whose first entries are exactly the given
    facet set, in some order.

    Returns the lexicographically first such order, or None when none
    exists.  Results are memoised on the lattice, so repeated queries
    from the verifier are cheap.
    """
    bud = _as_budget(budget)
    prefix_set = {str(f) for f in prefix}
    if not prefix_set <= set(L.facets()):
        raise PreconditionViolated("prefix contains non-facets")
    # the recursion reads the down-sets from their slot
    _down_sets(L)
    found = _search(L, L._top, L._mask_of(prefix_set), _boolean_cells(L), bud)
    return None if found is None else ShellingOrder(L, tuple(L.ids[i] for i in found))


def is_shelling(
    L: FaceLattice,
    order: Union[ShellingOrder, Sequence[str]],
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> ShellingResult:
    """Replay the definition against a facet order.

    Returns a :class:`ShellingCertificate` with one step record per facet,
    or a :class:`ShellingFailure` naming the first bad step and why:
    ``EmptyIntersection``, ``NotPure``, or ``NoPrefixShelling``.

    The input is checked and the order walked on every call: purity
    first, then the order is bound as a :class:`ShellingOrder`, which
    refuses one that is no permutation of the facets; the
    sub-certificates of its steps are memoised, so a repeated call spends
    no node.
    """
    if not is_pure(L):
        raise PreconditionViolated("shellings are defined for pure complexes")
    seq = ShellingOrder(L, _order_ids(L, order)).facets
    bud = _as_budget(budget)
    # the recursion reads the down-sets from their slot
    _down_sets(L)
    steps = _verify(L, L._top, [L.index(f) for f in seq], _boolean_cells(L), bud)
    if isinstance(steps, ShellingFailure):
        return steps
    return ShellingCertificate(L, L._top, seq, steps)


def classify(L: FaceLattice, certificate: ShellingCertificate) -> Shape:
    """Ball or sphere, decided by whether the boundary is empty.

    The certificate is demanded as evidence that the classification
    theorem applies; it must certify this lattice's whole complex.
    """
    if not isinstance(certificate, ShellingCertificate):
        raise PreconditionViolated("classification needs a shelling certificate")
    if certificate.lattice is not L or certificate.cell != L._top:
        raise PreconditionViolated("certificate belongs to a different lattice")
    if not is_pseudomanifold(L):
        raise NotPseudomanifold("classification applies to pseudomanifolds")
    bd = boundary_complex(L)
    return Shape.SPHERE if bd.mask == 0 else Shape.BALL


def is_dual_cl_shellable(
    L: FaceLattice, *, budget: Union[int, SearchBudget, None] = None
) -> bool:
    """Whether the complex carried by this diamond lattice is shellable.

    Shellability of the complex is equivalent to dual CL-shellability of
    its face lattice, which is what the name records; the search is simply
    a facet-order search on the complex itself.
    """
    if not _is_diamond_lattice(L):
        raise NotDiamond("dual CL-shellability is examined on diamond lattices only")
    return find_shelling(L, (), budget=budget) is not None


def is_cl_shellable(L: FaceLattice, *, budget: Union[int, SearchBudget, None] = None) -> bool:
    """CL-shellability of the lattice, tested on the order-reversed lattice."""
    if not _is_diamond_lattice(L):
        raise NotDiamond("CL-shellability is examined on diamond lattices only")
    return find_shelling(_memoised(L, "dual", dualize), (), budget=budget) is not None
