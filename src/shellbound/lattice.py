"""Graded face lattices of strongly regular CW complexes.

A complex is modelled purely combinatorially by its face lattice: the poset
of faces ordered by containment, with an artificial minimum below the
vertices (the empty face) and an artificial maximum above the facets.

Conventions used throughout the package:

* the empty face sits at rank 0, a k-dimensional face at rank k + 1, and
  the artificial maximum at rank d + 2 for a d-dimensional complex;
* every cover step raises rank by exactly one, so maximal chains from the
  bottom to the top have length d + 2;
* the order is the transitive closure of the cover pairs, extended so that
  the bottom sits below and the top above every element (this matters only
  for non-pure complexes, whose lesser maximal faces carry no explicit
  cover up to the top);
* ties are always broken by lexicographic face id, never by insertion
  order, so every derived object is deterministic.

A lattice keeps its ids, ranks and lower covers, over a frozen element
order fixed at construction, and two arrays derived from the lower covers
that it builds on first read and keeps: the down-set of every element as
a bit vector (a Python int), through ``_down_sets``, and the upper covers
of every element, through ``_upper_covers``.  Each is built by its
accessor alone, and every reader goes through it once per call; the one
exception is the shelling recursion, which reads the down-sets from their
slot because its entry points build them first.  Many lattices never read
one of the two, or either: a generated complex that is only written out,
a dual that is only dualized again, a facet's :func:`sub_lattice`, a
punctured ball, which never reads upper covers.  A search or a
verification builds the down-sets only, and a JSON dump neither, since
it lists lower covers.  The answers do not depend on which arrays are
built, and lattices are immutable apart from building them.  Up-sets are
not stored, since each would span the top and so all n bits: upward
queries walk the upper covers.

Each fact a lattice rests on is checked once, by one owner.
:func:`build_lattice` is the one resolver of outside ids, and checks the
outside facts: it takes ``str()`` of each id, then checks that the ids
are unique, that the dimension is an integer, that each rank is an
integer in range and that there is exactly one bottom and one top, and
resolves each cover pair to indices once (an unknown end is an error).
It sorts the elements by (rank, id) and files each cover under its
lower end, then reads the lower ends in index order, so each lower-cover
list fills sorted, with a repeated cover next to itself, where it is
dropped.  It hands each list over as a tuple, which the constructor
keeps as it is, with the id index it resolved the covers through.
It serves outside ids only: no generator builds through it, and
:func:`lattice_from_json_dict` does on the id-pair form.  On the
positional form, where each face lists its lower covers by file
position, that loader runs the same checks of the elements, with the
same messages in the same order, then checks each face's positions as
it maps them to indices, once each, faces in file order and entries in
list order, so the first fault in the file is the one named.  The
builders that already know every index build the resolved form
directly, and each vouches for its ids, their order and the extremes.
Every builder names its faces through an id index whose int objects
its lower lists hold, and hands the constructor that index.  Three
name every face from integers:
:func:`from_facets` makes each face the bit mask of its vertices, rank
by rank from the facets down, and names each rank in id order;
``generators.hypercube_boundary`` reads each word as a base-3 code,
which within a rank runs in id order; and ``generators.ngon`` writes
its ids in order.  Two take their faces from a host lattice:
:func:`dualize` reverses the ranks and keeps each rank's id order, and
``_restricted``, the one builder that carves a lattice out of a host,
keeps a down-closed set of host indices in host order and makes the
last one the top.  :func:`sub_lattice` carves out a cell's down-set,
``generators.punctured`` every index but one facet's, and the closure
of a set of facets is their down-set under the host's top.

The constructor takes the resolved form, each fact once: the id index,
whose keys are the ids in (rank, id) order and whose values are their
element numbers, the ranks in that order, and each element's lower
covers as sorted indices without repeats.  The dimension is the top's
rank less 2, and the bottom is index 0.  It trusts every builder for
the ids, the extremes and that order.  It alone decides the top's
lower covers: the top covers every face of rank d + 1, the run of
indices just below it, together with whatever its builder listed, so
no builder computes that list and every reader reads it as it reads
any cell's; a lesser maximal face of a non-pure complex lies under the
top by the implicit order only.  It refuses fewer than two elements,
since a lattice needs a bottom and a top that differ.  Then it checks
only what a builder's covers can break, on the lower covers alone:
acyclicity, gradedness and a lower cover under every element but the
bottom (a :func:`dualize` of a non-pure lattice lacks one, and so does
the top of a complex with no face of rank d + 1).  The cycle test is
:mod:`graphlib`'s, loaded only when some cover does not raise the rank
by one, so that no valid build loads it.  It builds neither derived
array.  Ids run in (rank, id) order, so :meth:`FaceLattice.faces`
reads each rank as one slice of them, and the dimension of a set of
faces is the rank of its last member, less one:
``L.ranks[mask.bit_length() - 1] - 1``, or -1 for an empty mask.
The library reads a cell through host masks and builds no lattice for
it; :func:`sub_lattice` builds one only when a caller asks.

A lattice keeps one memo, ``_memo``, which lives and dies with it, so
no answer depends on what the process computed on other lattices.  A
copy, a deep copy or an unpickled lattice starts with an empty one
(``FaceLattice.__getstate__``), since what the memo holds names the
lattice it was made on; so copying a lattice walks no memo entry.  Each
entry is written by one module, and what it holds is listed here and
nowhere else:

* this module, set once through ``_memoised``: ``"whole complex"`` (the
  lattice as one :class:`Subcomplex`), ``"diamond lattice"`` (whether
  :func:`is_lattice` and :func:`is_diamond` hold) and
  ``"boolean cells"`` (the mask of the cells with a Boolean lower
  interval, read through ``_boolean_cells`` by :func:`is_simplicial`,
  by ``find_shelling`` and ``is_shelling`` once per call, which pass
  it down the shelling recursion, and by the certificate writer once
  per call, which names no node for a simplex or a 2-cell).  The
  verdict is kept apart from ``shelling``'s ``"dual"``, which a lattice
  that passes the diamond test can lack (a sphere plus an isolated
  vertex);
* ``shelling``: its searches and sub-certificates, one per cell, under
  the tuple keys ``(cell index, prefix bitmask)`` and ``(cell index,
  facet order)``, kept apart by the int or tuple second part; the
  certificate of a whole-complex order is not kept there.  A
  sub-certificate whose cell the search does not walk, a simplex or a
  cell of rank at most 3, an edge's included, goes in as a
  ``shelling._ClosedCertificate`` with its facets only, and builds its
  steps when they are first read, adding the sub-certificates they name
  then.  And, set once through ``_memoised`` by ``is_cl_shellable``:
  ``"dual"`` (the lattice's :func:`dualize`, so that searches on the
  dual share one memo);
* ``bounds``: one slot, replaced rather than set once, written by
  ``bounds._verified`` alone: ``"proof"``, one ``bounds._Proof`` of the
  last whole-complex order that the proof route verified.  It holds
  that order's certificate, whose facets are the order's ids, the facet
  decomposition of that certificate once read, and a dict from each int
  position j a call cut it at to that cut.  Verifying another order
  replaces the slot, cuts and all, so the memo stays bounded by the
  input.  And, set once through ``_memoised``:
  ``"f-vector"`` and ``"boundary f-vector"`` (the :func:`f_vector` of
  the complex and of its boundary) and ``"dual CL-shellable"`` and
  ``"CL-shellable"`` (the verdicts of ``is_dual_cl_shellable`` and
  ``is_cl_shellable``); a search that runs out of budget sets none.

A :class:`Subcomplex` derives its boundary once, on first use: it asks
:func:`is_pure`, then counts ridges in one pass over its top faces;
:func:`is_pseudomanifold`, :func:`boundary_complex` and :func:`interior`
all read that one value.  ``_closed`` is the one down-closure of a set
of faces, for every module of the package; it takes the down-sets its
caller has read, so the shelling recursion hands it the slot.

Every predicate on a complex lives here, and each is decided by one
test: ``_is_diamond_lattice``, :func:`is_lattice` and :func:`is_diamond`
once per lattice, :func:`is_lattice` from the pairs of sibling facets of
each cell, not from every pair of elements; ``_boolean_cells``, the
exact test of which cells are simplices, and :func:`is_simplicial`,
which reads it; and
``_require_sphere``, the one check of the sphere hypothesis.  Beside
them is ``_require_int``, the one check of a whole-number argument, a
size, a dimension, a rank, a position or a budget: an int, a bool not
counting as one, in a range, else the caller's error, in one wording.
The other modules import these and define none of their own.  Here too are
``_record``, the decorator that makes the library's result classes
(:class:`FVector` here, the shelling orders, certificates and failures,
and the bounds reports) immutable records, and ``_json_fields``, the
writer of a record's JSON from its fields.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, combinations, filterfalse, islice, repeat
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

from .errors import (
    CyclicCovers,
    EmptyInput,
    InvalidFace,
    MixedDimensions,
    NoBottom,
    NoSuchAtom,
    NotGraded,
    NotPseudomanifold,
    NoTop,
    PreconditionViolated,
    RangeError,
    RankOutOfRange,
)

#: Reserved ids for the artificial extremes.  User faces may not use them.
BOTTOM_ID = "_bot"
TOP_ID = "_top"

_T = TypeVar("_T")


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _levels_above(L: FaceLattice, x: int) -> Iterator[set[int]]:
    """The faces reached from ``x`` by upper covers, one rank at a time
    from ``x`` itself; the top comes only where covers reach it."""
    upper = _upper_covers(L)
    level = {x}
    while level:
        yield level
        level = {z for y in level for z in upper[y]}


def _closed(down: tuple[int, ...], mask: int) -> int:
    """The union of the down-sets ``down`` of the faces in ``mask``."""
    union = 0
    # _iter_bits inlined: this runs for every split side and every step
    while mask:
        low = mask & -mask
        union |= down[low.bit_length() - 1]
        mask ^= low
    return union


def _gc_paused(build: Callable[..., _T], *args) -> _T:
    """``build(*args)`` with the cyclic garbage collector paused: a
    collection during a build would free nothing, since all of it is kept.
    A fill that allocates no container per element runs unpaused, as
    ``_down_sets`` does: its down-sets are ints, which the collector does
    not track, so it adds a handful of containers to the collector's
    count whatever the lattice's size, and a pause would put off at most
    one collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
        if enabled:
            gc.enable()


def _memoised(L: FaceLattice, key: str, make: Callable[[FaceLattice], _T]) -> _T:
    """``L._memo[key]``, set to ``make(L)`` on the first call; the one
    way a set-once entry of the memo is read or written."""
    value = L._memo.get(key)
    if value is None:
        value = L._memo[key] = make(L)
    return value


def _down_sets(L: FaceLattice) -> tuple[int, ...]:
    """The down-set of every element as a bit mask over the element
    order, built on the first call and kept in ``L._down``."""
    down = L._down
    if down is None:
        # every cover raises the index, as the constructor checked, so the
        # down-sets fill in index order; the bottom lies below everything
        lower = L._lower
        fill = [0] * len(lower)
        for b, below in enumerate(lower):
            m = 1 << b | 1
            for a in below:
                m |= fill[a]
            fill[b] = m
        # the top lies above everything, whether or not covers say so
        fill[-1] = (1 << len(lower)) - 1
        down = L._down = tuple(fill)
    return down


def _upper_covers(L: FaceLattice) -> tuple[tuple[int, ...], ...]:
    """The indices of every element's upper covers, sorted, built on the
    first call and kept in ``L._upper``."""
    upper = L._upper
    if upper is None:
        upper = L._upper = _gc_paused(_fill_upper_covers, L)
    return upper


def _fill_upper_covers(L: FaceLattice) -> tuple[tuple[int, ...], ...]:
    # the lists fill in index order, so they come out sorted, and they
    # hold the index's own int objects
    nums = tuple(L._index.values())
    upper: list[list[int]] = [[] for _ in nums]
    for b, below in zip(nums, L._lower):
        for a in below:
            upper[a].append(b)
    return tuple(map(tuple, upper))


def _check_covers(ids: tuple[str, ...], ranks: tuple[int, ...], lower: tuple) -> None:
    """Check what a builder's lower covers can break, in this order:
    acyclicity, gradedness, and a lower cover under every element but
    the bottom."""
    # ranks rise with the index and lower lists are sorted, so the ends of
    # a list carry its lowest and highest rank; when every cover raises
    # the rank by one, it raises the index too, and there is no cycle
    if not all(ranks[below[0]] == ranks[below[-1]] == r - 1 for r, below in zip(ranks, lower)
               if below):
        _check_acyclic(lower)
        # of the covers that jump, the one with the least lower end is
        # named, then the least upper end
        a, b = min((a, b) for b, below in enumerate(lower) for a in below
                   if ranks[a] != ranks[b] - 1)
        raise NotGraded(f"cover ({ids[a]!r}, {ids[b]!r}) jumps rank {ranks[a]} to {ranks[b]}")
    if not all(lower[1:]):
        x = lower.index((), 1)
        raise NotGraded(f"element {ids[x]!r} has no chain to the bottom")


def _check_acyclic(lower: tuple[tuple[int, ...], ...]) -> None:
    # imported here, so that only refused input loads it
    import graphlib

    try:
        graphlib.TopologicalSorter(dict(enumerate(lower))).prepare()
    except graphlib.CycleError:
        raise CyclicCovers("cover relation contains a cycle") from None


class FaceLattice:
    """Immutable graded lattice of faces of a regular CW complex.

    Build through :func:`build_lattice`, :func:`from_facets`, a generator,
    or :func:`lattice_from_json_dict`.  The constructor takes the resolved
    form, ``FaceLattice(index, ranks, lower)``: ``index`` maps each
    unique id to its element number in (rank, id) order, with one bottom
    at rank 0, number 0, and one top last; ``ranks`` are the ids' ranks in
    that order; and ``lower`` gives each element the numbers of its lower
    covers, sorted, without repeats, as the index's own int objects.  All
    of that it trusts, since every builder vouches for it.  The ids are
    the index's keys and ``dim`` is the top's rank less 2.  The top's
    lower covers it sets itself: every face of rank ``dim + 1``, merged
    with the top's list as handed.  It checks that the lengths agree and
    that there are at least two elements, a bottom and a top, and then
    only what the covers can break, on the lower covers alone:
    acyclicity, gradedness and a lower cover under every element but the
    bottom.
    The down-set bit vectors and the upper-cover lists are built on first
    read, by ``_down_sets`` and ``_upper_covers``; until then their slots
    hold None.  No ``__getattr__`` builds them, since attribute reads on
    a class with one are no longer specialised, and no property, which
    would put a call on every read of the slot in the shelling recursion.
    """

    __slots__ = (
        "dim",
        "ids",
        "ranks",
        "_index",
        "_down",
        "_lower",
        "_upper",
        "_rank_masks",
        "_top",
        "_real_mask",
        "_memo",
    )

    def __init__(
        self, index: dict[str, int], ranks: Sequence[int], lower: Sequence[Sequence[int]]
    ):
        _gc_paused(self._build, index, ranks, lower)

    def _build(self, index, ranks, lower) -> None:
        n = len(index)
        if not len(ranks) == len(lower) == n:
            raise InvalidFace(f"{n} ids, {len(ranks)} ranks and {len(lower)} lower cover lists")
        if n < 2:
            raise InvalidFace("need a bottom and a top")
        # the index's keys are the ids, and its int objects the ones the
        # lower lists hold
        self._index = index
        self.ids = ids = tuple(index)
        self.ranks = ranks = tuple(ranks)
        self.dim = dim = ranks[-1] - 2
        # a lower list that is a tuple already, as the resolvers hand them
        # over, is kept as it is
        lower = tuple(map(tuple, lower))
        # the frozen order is (rank, id), so the bottom is index 0 and the
        # top index n - 1; neighbour lists are sorted by index, which within
        # a rank is lexicographic id order
        self._top = top = n - 1
        # the top covers every face of rank dim + 1, the run of indices
        # just below it, merged with whatever the builder handed
        lo = bisect_left(ranks, dim + 1, 0, top)
        lower = (*lower[:top], tuple(sorted({*islice(index.values(), lo, top), *lower[top]})))
        _check_covers(ids, ranks, lower)

        self._lower = lower
        # built on first read, by _down_sets and _upper_covers
        self._down = self._upper = None

        # each rank, from 0 to the top's dim + 2, is one run of indices
        self._rank_masks = tuple(
            (1 << bisect_right(ranks, r)) - (1 << bisect_left(ranks, r))
            for r in range(dim + 3)
        )
        self._real_mask = (1 << n) - 1 & ~1 & ~(1 << top)
        # the lattice's one memo; the module docstring lists what it holds
        self._memo = {}

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, face_id: str) -> bool:
        return face_id in self._index

    def index(self, face_id: str) -> int:
        try:
            return self._index[face_id]
        except KeyError:
            raise InvalidFace(f"no face {face_id!r}") from None

    @property
    def bottom(self) -> str:
        return self.ids[0]

    @property
    def top(self) -> str:
        return self.ids[self._top]

    def rank_of(self, face_id: str) -> int:
        return self.ranks[self.index(face_id)]

    def dim_of(self, face_id: str) -> int:
        return self.rank_of(face_id) - 1

    def faces(self, k: int) -> tuple[str, ...]:
        """All k-dimensional faces, lexicographically sorted.

        The artificial extremes are never included, so ``faces(-1)`` and
        ``faces(dim + 1)`` are empty.
        """
        # ids run in (rank, id) order, so each rank is one slice of them
        r = k + 1
        if not 0 < r <= self.dim + 1:
            return ()
        return self.ids[bisect_left(self.ranks, r) : bisect_right(self.ranks, r)]

    def facets(self) -> tuple[str, ...]:
        return self.faces(self.dim)

    def face_ids(self) -> tuple[str, ...]:
        """Every face id except the artificial extremes."""
        return self.ids[1:-1]

    def covers(self) -> tuple[tuple[str, str], ...]:
        """The explicit cover pairs ``(lower, upper)``, sorted; derived on
        each call, since the lattice keeps its covers as indices."""
        # one string sort of the ids orders the covers by lower id; an
        # element's upper covers share one rank and run in index order, which
        # within a rank is id order, so each run of pairs is sorted already
        ids = self.ids
        upper = _upper_covers(self)
        return tuple(
            (ids[a], ids[b]) for a in sorted(range(len(ids)), key=ids.__getitem__) for b in upper[a]
        )

    def lower_covers(self, face_id: str) -> tuple[str, ...]:
        return tuple(self.ids[c] for c in self._lower[self.index(face_id)])

    def upper_covers(self, face_id: str) -> tuple[str, ...]:
        return tuple(self.ids[c] for c in _upper_covers(self)[self.index(face_id)])

    def leq(self, a: str, b: str) -> bool:
        """Containment: is face ``a`` below or equal to face ``b``?"""
        return bool((1 << self.index(a)) & _down_sets(self)[self.index(b)])

    def down_set(self, face_id: str, strict: bool = False) -> frozenset[str]:
        m = _down_sets(self)[self.index(face_id)]
        if strict:
            m &= ~(1 << self.index(face_id))
        return frozenset(self.ids[x] for x in _iter_bits(m))

    def up_set(self, face_id: str, strict: bool = False) -> frozenset[str]:
        x = self.index(face_id)
        above = {self._top}.union(*_levels_above(self, x))
        if strict:
            above.discard(x)
        return frozenset(self.ids[y] for y in above)

    def _ids_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.ids[x] for x in _iter_bits(mask))

    def _mask_of(self, face_ids: Iterable[str]) -> int:
        m = 0
        for i in face_ids:
            m |= 1 << self.index(i)
        return m

    def fingerprint(self) -> str:
        """Stable hash of the labelled structure: equal exactly when two
        lattices have the same dimension, ids, ranks and covers."""
        payload = json.dumps(
            [self.dim, list(zip(self.ids, self.ranks)), self.covers()],
            separators=(",", ":"),
        )
        import hashlib

        return hashlib.sha256(payload.encode()).hexdigest()

    def __repr__(self) -> str:
        return f"FaceLattice(dim={self.dim}, elements={len(self.ids)})"

    def __getstate__(self) -> tuple[None, dict]:
        """Every slot, with an empty memo in place of this lattice's own;
        the module docstring says why."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_memo"] = {}
        return None, state


class _MaskSet:
    """A set of faces of a host lattice, held as a bit mask over its
    element order, with its ``dim``: the rank of its last member, less
    one, since ranks rise with the index.  Two are equal when they are of
    the same class, on the same lattice object, with the same mask."""

    def __init__(self, lattice: FaceLattice, mask: int):
        self.lattice = lattice
        self.mask = mask

    @cached_property
    def dim(self) -> int:
        """Largest dimension of a member face; -1 when at most the bottom."""
        return self.lattice.ranks[self.mask.bit_length() - 1] - 1 if self.mask else -1

    @cached_property
    def members(self) -> frozenset[str]:
        return frozenset(self.lattice.ids[x] for x in _iter_bits(self.mask))

    def __contains__(self, face_id: str) -> bool:
        return face_id in self.lattice and bool(self.mask & (1 << self.lattice.index(face_id)))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.lattice is self.lattice
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.lattice), self.mask))


class Subcomplex(_MaskSet):
    """A downward-closed set of faces of a host lattice.

    Contains the bottom whenever nonempty, never the top.  Instances are
    produced by :func:`closure` and friends.
    """

    @cached_property
    def _boundary(self) -> Union[int, None]:
        """Mask of the boundary: the closure of the codimension-1 faces
        lying in exactly one top face; None when the subcomplex is not a
        pseudomanifold.

        :func:`is_pure` decides purity; then one pass over the top faces
        keeps the ridges seen in at least one, two and three of them.
        """
        if self.dim <= -1:
            return 0
        if not is_pure(self):
            return None
        L = self.lattice
        down = _down_sets(L)
        top_rank = self.dim + 1
        ridges = L._rank_masks[top_rank - 1]
        seen1 = seen2 = seen3 = 0
        for f in _iter_bits(self.mask & L._rank_masks[top_rank]):
            r = down[f] & ridges
            seen3 |= seen2 & r
            seen2 |= seen1 & r
            seen1 |= r
        if seen3:
            return None
        return _closed(down, seen1 & ~seen2)

    def __repr__(self) -> str:
        return f"Subcomplex(dim={self.dim}, members={len(self)})"


class FaceSet(_MaskSet):
    """An arbitrary set of proper faces of a host lattice (no extremes)."""

    def __repr__(self) -> str:
        return f"FaceSet(members={len(self)})"


def _record(cls: type) -> type:
    """Make ``cls`` an immutable record of the fields it annotates, in
    annotation order, as ``dataclass(frozen=True)`` would.

    Adds ``__init__`` (positional or keyword arguments; it then calls
    ``__post_init__`` when the class has one), ``__eq__`` between
    instances of the same class, ``__hash__`` of the field tuple,
    ``__repr__`` as ``Name(field=value, ...)``, ``__setattr__`` and
    ``__delattr__`` that raise :class:`AttributeError`, and ``__reduce__``,
    which rebuilds a copy or an unpickled record through ``__init__``.

    Like ``dataclass(slots=True)``, it remakes the class with one slot per
    field and no instance dict, except where a ``cached_property`` needs
    one to cache in (``ShellingCertificate.order``, and the ``steps``
    that its subclass ``shelling._ClosedCertificate`` builds on first
    read and keeps there, shadowing the slot).  ``__init__``,
    ``__eq__``, ``__hash__`` and ``__reduce__`` are compiled once per
    class, and ``__init__`` stores each field through its slot's
    descriptor ``__set__``, bound at decoration, past the raising
    ``__setattr__``; :mod:`dataclasses` itself is not imported because
    it loads :mod:`inspect`, which every command-line run would pay for
    at start-up.

    The field names are kept in ``cls._fields``.  A record whose report
    names are its field names takes :func:`_json_fields` as its
    ``to_json_dict``, which writes each field in turn: a tuple as a list,
    a nested record through its ``to_json_dict``, a ``Fraction`` as
    ``{"num", "den"}``, and None, a bool, an int or a string as it is.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    namespace = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    cached = any(isinstance(v, cached_property) for v in namespace.values())
    namespace.update(__slots__=fields + ("__dict__",) * cached, _fields=fields,
                     __qualname__=cls.__qualname__)
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    mine = "".join(f"self.{f}, " for f in fields)
    theirs = "".join(f"other.{f}, " for f in fields)
    source = "\n".join([
        f"def __init__(self, {', '.join(fields)}):",
        *[f"    _set_{f}(self, {f})" for f in fields],
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __reduce__(self):",
        f"    return self.__class__, ({mine})",
    ])
    methods: dict = {f"_set_{f}": cls.__dict__[f].__set__ for f in fields}
    exec(source, methods)

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    methods.update(__repr__=__repr__, __setattr__=__setattr__, __delattr__=__delattr__)
    for name in ("__init__", "__eq__", "__hash__", "__reduce__", "__repr__", "__setattr__",
                 "__delattr__"):
        method = methods[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls


def _json_fields(record) -> dict:
    """The JSON form of a record, one entry per field; see :func:`_record`."""
    return {f: _json_value(getattr(record, f)) for f in record._fields}


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if value is None or isinstance(value, (int, str)):
        return value
    # a Fraction, told apart without importing :mod:`fractions`
    return {"num": value.numerator, "den": value.denominator}


@_record
class FVector:
    """Face counts ``(f_-1, f_0, ..., f_dim)``; index by dimension."""

    dim: int
    counts: tuple[int, ...]

    # indexing is by dimension and reads 0 past ``dim``, so iterating by
    # index would start at f_0, skip f_-1 and never end; iterating, and
    # ``in``, raise TypeError instead: read ``counts`` or ``proper``
    __iter__ = None

    def __getitem__(self, k: int) -> int:
        if -1 <= k <= self.dim:
            return self.counts[k + 1]
        return 0

    @property
    def proper(self) -> tuple[int, ...]:
        """Counts from dimension 0 up, the usual display form."""
        return self.counts[1:]


Complex = Union[FaceLattice, Subcomplex]


# -- construction --------------------------------------------------------


def build_lattice(
    elements: Iterable[tuple[str, int]],
    covers: Iterable[tuple[str, str]],
    dim: int,
) -> FaceLattice:
    """Validated construction from explicit elements and cover pairs.

    ``elements`` are ``(id, rank)`` pairs including the extremes; ranks run
    from 0 for the empty face to ``dim + 2`` for the maximum.  The one
    resolver of outside ids, and the one check of the facts they carry: it
    takes ``str()`` of every id and checks, in this order, unique ids, an
    integer dimension, integer ranks in range, exactly one bottom and one
    top, and known cover ends (naming the first unknown one).  It sorts
    the elements by (rank, id), resolves each cover to indices once and
    drops repeated covers; the constructor checks what the covers can
    break.  The top's covers need not be listed: the constructor puts the
    top over every face of rank ``dim + 1``, and still refuses a listed
    one that jumps rank.
    """
    # the resolver's temporaries are gone before the constructor runs
    return FaceLattice(*_gc_paused(_resolve, elements, covers, dim))


def _resolve(elements, covers, dim) -> tuple:
    """``(index, ranks, lower)``, the constructor's arguments, once the
    outside facts are checked."""
    ids, ranks, index = _resolve_elements(elements, dim)
    # each cover is resolved once and filed under its lower end
    above: list = [[] for _ in ids]
    for a, b in covers:
        try:
            above[index[str(a)]].append(index[str(b)])
        except KeyError:
            raise InvalidFace(f"cover ({str(a)!r}, {str(b)!r}) names an unknown element") from None
    # the lower ends are read in index order, so each lower list fills
    # sorted and a repeated cover lands next to itself.  Each filed list is
    # freed once read, and each lower list is made at its first entry and
    # becomes a tuple when its own index is read, by when every cover that
    # raises the index has filled it: so the two tables are never held
    # whole at once.  A cover that does not raise the index, which the
    # constructor rejects, reopens a finished tuple as a list.
    lower: list = [None] * len(ids)
    for a, ups in zip(index.values(), above):
        above[a] = None
        below = lower[a]
        lower[a] = () if below is None else tuple(below)
        for b in ups:
            below = lower[b]
            if below is None:
                lower[b] = [a]
            elif below.__class__ is list:
                if below[-1] != a:
                    below.append(a)
            elif not below or below[-1] != a:
                lower[b] = [*below, a]
    return index, ranks, lower


def _resolve_elements(elements, dim) -> tuple:
    """``(ids, ranks, index)`` of the elements, in (rank, id) order, with
    ``index`` from each id to its place, once the facts the elements
    carry are checked: :func:`build_lattice`'s checks but the cover ends."""
    elems = [(str(i), r) for i, r in elements]
    if len(set(map(itemgetter(0), elems))) != len(elems):
        raise InvalidFace("duplicate element ids")
    # type(), not isinstance(): bool is an int subclass, and True must
    # not pass for rank 1
    if type(dim) is not int:
        raise InvalidFace(f"dimension {dim!r} is not an integer")
    top_rank = dim + 2
    for i, r in elems:
        if type(r) is not int:
            raise InvalidFace(f"rank {r!r} of {i!r} is not an integer")
        if not 0 <= r <= top_rank:
            raise RankOutOfRange(f"rank {r} of {i!r} outside [0, {top_rank}]")
    # by id, then stably by rank: the (rank, id) order, without a tuple per key
    elems.sort(key=itemgetter(0))
    elems.sort(key=itemgetter(1))
    ids = tuple(map(itemgetter(0), elems))
    ranks = tuple(map(itemgetter(1), elems))
    # before any cover is read, as the extremes were always checked first
    bottoms = ranks.count(0)
    if bottoms != 1:
        raise NoBottom(f"need exactly one rank-0 element, found {bottoms}")
    tops = ranks.count(top_rank)
    if tops != 1:
        raise NoTop(f"need exactly one rank-{top_rank} element, found {tops}")
    return ids, ranks, dict(zip(ids, range(len(ids))))


def from_facets(facets: Iterable[Iterable[object]]) -> FaceLattice:
    """Face lattice of the simplicial complex generated by vertex sets.

    Every facet is a set of vertex tokens; all facets must have the same
    cardinality, at most 13, else :class:`RangeError` is raised before
    any face is made.  Face ids are the sorted tokens joined together;
    a ``-`` separator is used throughout as soon as any vertex token has
    more than one character (keeping ids unambiguous), so a facet
    ``{1, 2, 3}`` becomes the face ``"123"`` but ``{1, 2, 10}`` becomes
    ``"1-2-10"``.
    """
    facet_sets = {frozenset(str(t) for t in f) for f in facets}
    facet_sets.discard(frozenset())
    if not facet_sets:
        raise EmptyInput("no facets supplied")
    sizes = {len(f) for f in facet_sets}
    if len(sizes) != 1:
        raise MixedDimensions(f"facet sizes differ: {sorted(sizes)}")
    d = sizes.pop() - 1
    if d > 12:
        # a facet of n vertices makes 2^n - 1 faces; 13 is the facet size of
        # the largest family, simplex_boundary(12)
        raise RangeError(f"need facets of at most 13 vertices, got {d + 1}")

    vocabulary = frozenset().union(*facet_sets)
    sep = "" if all(len(t) == 1 for t in vocabulary) else "-"
    if sep and any("-" in t for t in vocabulary):
        raise InvalidFace("multi-character vertex tokens may not contain '-'")

    # a face is the bit mask of its vertices, bit i the i-th token in id
    # order, so a face's last vertex is its highest bit
    tokens = sorted(vocabulary, key=lambda t: (len(t), t))
    bit = {t: 1 << i for i, t in enumerate(tokens)}
    # the faces rank by rank, from the facets down; each drops one vertex
    layers = [{sum(map(bit.__getitem__, f)) for f in facet_sets}]
    for _ in range(d):
        layer = set()
        for m in layers[-1]:
            b = m
            while b:
                low = b & -b
                layer.add(m ^ low)
                b ^= low
        layers.append(layer)

    # then from the vertices up, one rank at a time in id order: a face's id
    # extends that of the face without its last vertex, and its lower covers
    # drop one vertex each; ``prev`` indexes the masks of the rank below,
    # first the empty face, mask 0, at the bottom
    ids, ranks, lower = [BOTTOM_ID], [0], [()]
    index = {BOTTOM_ID: 0}
    prev = {0: 0}
    for k in range(1, d + 2):
        named = []
        for m in layers.pop():
            t = m.bit_length() - 1
            rest = prev[m ^ 1 << t]
            named.append(((ids[rest] + sep if rest else "") + tokens[t], m))
        named.sort()
        ranks += repeat(k, len(named))
        cur = {}
        for x, (i, m) in enumerate(named, len(ids)):
            ids.append(i)
            index[i] = cur[m] = x
            below = []
            b = m
            while b:
                low = b & -b
                below.append(prev[m ^ low])
                b ^= low
            below.sort()
            lower.append(below)
        prev = cur
    for i in (BOTTOM_ID, TOP_ID):
        if i in ids[1:]:
            raise InvalidFace(f"vertex tokens collide with reserved id {i!r}")
    index[TOP_ID] = len(ids)
    ids.append(TOP_ID)
    ranks.append(d + 2)
    lower.append(())
    return FaceLattice(index, ranks, lower)


def parse_facet_text(text: str) -> list[list[str]]:
    """Parse the facet-list format: one facet per line, tokens separated by
    whitespace, ``#`` starting a comment."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


# -- order-theoretic predicates -----------------------------------------


def is_lattice(L: FaceLattice) -> bool:
    """True iff every pair of elements has a unique meet and a unique join.

    Decided from sibling facets: L is a lattice iff, for every cell c (the
    top included), every two maximal proper faces of c meet, that is, the
    intersection of their down-sets is the down-set of one element.  Below
    the top those faces are the lower covers of c.  The top's are the
    faces in no lower-cover list but the top's, since a lesser maximal
    face has no explicit cover to the top.

    Necessity is plain.  For sufficiency, induct on the rank of c to show
    that every two elements x, y of [0̂, c] meet; if either is c, the
    other is the meet.  Otherwise take maximal proper faces F >= x and
    G >= y of c.  If F = G, the induction on [0̂, F] gives the meet.  If
    not, H = F ∧ G exists, and every common lower bound of x and y lies
    under H.  The meets x ∧ H in [0̂, F] and y ∧ H in [0̂, G] exist by
    induction; both lie under F, so their meet m exists in [0̂, F].  A
    face lies under x and y iff it lies under x, y and H, iff it lies
    under x ∧ H and y ∧ H, iff it lies under m; so m = x ∧ y.  Joins
    follow from meets in a finite poset with a top: the join of x and y
    is the meet of their common upper bounds, a set that holds the top.

    Two facets with no common atom meet in the bottom, which is
    principal: every other element lies over an atom.  So when the top's
    faces share few atoms, as a polygon's edges do, only the pairs that
    share one are tested (:func:`_sibling_pairs`).  Every cell below the
    top tests all its pairs: choosing would cost each cell a step, and in
    every generated complex such a cell has at most 13 facets.  The cost
    is those pairs of facets of each cell, not the pairs of elements;
    ``tests/oracles.py`` keeps the all-pairs check.
    """
    down, lower, top = _down_sets(L), L._lower, L._top
    principal = set(down)
    covered = set(chain.from_iterable(lower[:top]))
    top_faces = tuple(filterfalse(covered.__contains__, range(top)))
    top_pairs = _sibling_pairs(top_faces, down, L._rank_masks[1])
    for pairs in chain(map(combinations, lower[:top], repeat(2)), [top_pairs]):
        for a, b in pairs:
            if down[a] & down[b] not in principal:
                return False
    return True


def _sibling_pairs(facets: Sequence[int], down: tuple[int, ...], atoms: int) -> Iterator:
    """The pairs of the top's ``facets`` that :func:`is_lattice` tests:
    every pair, or each pair once per atom the two share, whichever the
    shape of the complex makes fewer.

    The choice reads the m facets, the A atoms, all of which lie under
    some facet, and the I pairs of a facet and an atom under it.  Spread
    evenly, about I^2 / (2A) pairs share an atom, against m^2 / 2 pairs
    in all; the atoms' pairs are taken when they are under a quarter of
    all, which leaves room for filing each facet under its atoms.  A
    polygon's m edges share m pairs of vertices; the facets of a
    cross-polytope, a cube or a cyclic polytope share an atom about as
    often as not, and test every pair.
    """
    below = [down[f] & atoms for f in facets]
    incidences = sum(map(int.bit_count, below))
    if 4 * incidences ** 2 >= atoms.bit_count() * len(facets) ** 2:
        return combinations(facets, 2)
    by_atom: dict[int, list[int]] = {}
    for f, a in zip(facets, below):
        for v in _iter_bits(a):
            by_atom.setdefault(v, []).append(f)
    return chain.from_iterable(combinations(group, 2) for group in by_atom.values())


def is_diamond(L: FaceLattice) -> bool:
    """True iff every rank-2 interval has exactly four elements.

    Only meaningful on lattices; callers are expected to have checked
    :func:`is_lattice` first.

    Read from the covers: an interval [x, z] of rank 2 holds x, z and one
    y per path x < y < z, except that the top lies above every face, so
    [x, top] holds x, the top and the upper covers of x.  The paths are
    counted bit-sliced: each face's upper covers form a mask over their
    rank, from its first index, and the masks of x's covers fold into
    the z reached once, twice and three times or more.
    """
    upper, ranks, d = _upper_covers(L), L.ranks, L.dim
    starts = [bisect_left(ranks, r) for r in range(d + 3)]
    # faces of rank at most d, the covers of faces below rank d
    above = [sum(1 << z - starts[r + 1] for z in upper[y])
             for y, r in enumerate(ranks[:starts[d + 1]])]
    for x, r in enumerate(ranks):
        if r == d:
            if len(upper[x]) != 2:
                return False
        elif r < d:
            one = two = three = 0
            for y in upper[x]:
                m = above[y]
                three |= two & m
                two |= one & m
                one |= m
            # every z reached exactly twice
            if three or one != two:
                return False
    return True


def _is_diamond_lattice(L: FaceLattice) -> bool:
    """``is_lattice(L) and is_diamond(L)``, decided once per lattice."""
    return _memoised(L, "diamond lattice", lambda L: is_lattice(L) and is_diamond(L))


def dualize(L: FaceLattice) -> FaceLattice:
    """The order-reversed lattice: same ids, complemented ranks, covers
    flipped.  Applying it twice reproduces the original."""
    top_rank = L.dim + 2
    ids, ranks = L.ids, L.ranks
    # each rank keeps its id order, and the ranks come in reverse
    order = [
        x
        for r in range(top_rank, -1, -1)
        for x in range(bisect_left(ranks, r), bisect_right(ranks, r))
    ]
    new = [0] * len(order)
    for y, x in enumerate(order):
        new[x] = y
    # a host element's upper covers share one rank, so their new indices
    # run in the same order
    upper = _upper_covers(L)
    lower = [tuple(map(new.__getitem__, upper[x])) for x in order]
    # the index holds the int objects that the lower lists hold
    index = dict(zip(map(ids.__getitem__, order), map(new.__getitem__, order)))
    return FaceLattice(index, [top_rank - ranks[x] for x in order], lower)


# -- subcomplex machinery ------------------------------------------------


def closure(L: FaceLattice, face_ids: Union[FaceSet, Iterable[str]]) -> Subcomplex:
    """Smallest subcomplex containing the given faces: the union of their
    down-sets.  An empty input yields the void subcomplex.  Every id is
    resolved before the artificial top is refused, so an unknown id is
    named wherever the top stands."""
    mask = L._mask_of(face_ids.members if isinstance(face_ids, FaceSet) else face_ids)
    if mask >> L._top & 1:
        raise InvalidFace("the artificial top is not a face")
    return Subcomplex(L, _closed(_down_sets(L), mask))


def _as_subcomplex(x: Complex) -> Subcomplex:
    """A lattice as its whole complex, one per lattice, so that its
    boundary is derived once; anything else as it is."""
    if not isinstance(x, FaceLattice):
        return x
    return _memoised(x, "whole complex", lambda L: Subcomplex(L, L._real_mask | 1))


def is_pure(x: Complex) -> bool:
    """True iff every face lies below a face of the top dimension present."""
    sc = _as_subcomplex(x)
    if sc.mask == 0:
        return True
    L = sc.lattice
    return _closed(_down_sets(L), sc.mask & L._rank_masks[sc.dim + 1]) == sc.mask


def is_pseudomanifold(x: Complex) -> bool:
    """Pure, and every codimension-1 face lies in at most two top faces.

    For a 0-dimensional complex the codimension-1 face is the empty face,
    so at most two vertices are allowed; the degenerate complexes with at
    most one face qualify vacuously.
    """
    return _as_subcomplex(x)._boundary is not None


def _boolean_cells(L: FaceLattice) -> int:
    """Mask of the cells whose lower interval is a Boolean lattice; the one
    reader of the memo's ``"boolean cells"``, set by :func:`_boolean_pass`."""
    return _memoised(L, "boolean cells", _boolean_pass)


def _boolean_pass(L: FaceLattice) -> int:
    """:func:`_boolean_cells`, decided in one bottom-up pass, rank by rank.

    A cell ``x`` of rank r passes when it has 2^r faces below it (itself
    included), r atoms below it, every face strictly below it passes, and
    its lower covers have r different atom sets.  The test is exact: a
    cover holds r - 1 of x's atoms, so r covers with different atoms are
    the r (r-1)-subsets of them; their Boolean intervals give every
    proper subset as the atom set of some face, and the count leaves room
    for exactly one face per subset, and so for no other lower cover.
    Counting alone is not enough: three edges on three vertices, two of
    them with the same ends, have the counts of a triangle.  The top's
    lower covers are every face of the rank below it, as the constructor
    sets them, so the top is read as any cell is.

    "Every face strictly below x passes" is read off the atom sets of its
    lower covers, which the distinct-atoms test reads anyway: ranks rise
    with the index, so the pass has decided every cover when it reaches
    x, and a cover that failed keeps atom set 0, while one that passed,
    of rank at least 2, has r - 1 atoms.  So the test is that no cover's
    atom set is 0, and it holds exactly when every face strictly below x
    passes.  One way, the covers lie strictly below x.  The other way,
    by induction on the rank: below the top, the faces strictly below x
    are the down-sets of its lower covers, and below a cover that passed
    every face passed.  The top's down-set holds every element; but when
    the counts hold and its facets pass with r different atom sets,
    their down-sets hold a face for each of the 2^r - 1 proper subsets of
    its r atoms, which with the top fill the count, so no face lies
    outside them.

    The bottom and the rank-1 elements always pass, so the mask starts
    with them and the pass with rank 2.  There four faces below a cell
    are the cell, the bottom and two vertices, which are then its lower
    covers, passed, with different atoms: the count is the whole test.
    Each passing cell's atom mask goes into ``atom_sets``, where the
    distinct-atoms test of the rank above reads it.
    """
    down, by_rank, lower = _down_sets(L), L._rank_masks, L._lower
    atoms = by_rank[1]
    mask = by_rank[0] | atoms
    atom_sets = [0] * len(down)
    for r in range(2, len(by_rank)):
        size, run = 1 << r, by_rank[r]
        for x in range(run.bit_length() - run.bit_count(), run.bit_length()):
            d = down[x]
            if d.bit_count() != size:
                continue
            a = d & atoms
            if r > 2:
                if a.bit_count() != r:
                    continue
                seen = set(map(atom_sets.__getitem__, lower[x]))
                if len(seen) != r or 0 in seen:
                    continue
            mask |= 1 << x
            atom_sets[x] = a
    return mask


def is_simplicial(X: FaceLattice) -> bool:
    """Whether every facet is a simplex, that is, has a Boolean lower
    interval (:func:`_boolean_cells`); asked of a complex that is not
    pure, it raises :class:`PreconditionViolated`."""
    if not is_pure(X):
        raise PreconditionViolated("simpliciality is examined on pure complexes")
    facets = X._rank_masks[X.dim + 1] & X._real_mask
    return not facets & ~_boolean_cells(X)


def boundary_complex(x: Complex) -> Subcomplex:
    """Closure of the codimension-1 faces lying in exactly one top face.

    Empty for a complex without boundary (a sphere); raises
    :class:`NotPseudomanifold` when the input is not a pseudomanifold.
    """
    sc = _as_subcomplex(x)
    if sc._boundary is None:
        raise NotPseudomanifold("boundary is only defined for pseudomanifolds")
    return Subcomplex(sc.lattice, sc._boundary)


def _require_sphere(x: Complex) -> None:
    """Raise unless ``x`` is a pseudomanifold without boundary; the one
    check of the sphere hypothesis."""
    bd = _as_subcomplex(x)._boundary
    if bd is None:
        raise NotPseudomanifold("a sphere pseudomanifold is required")
    if bd:
        raise PreconditionViolated("the complex has nonempty boundary; need a sphere")


def _require_int(
    value: object, lo: int, hi: Union[int, None], name: str, error: type = RangeError
) -> None:
    """Raise ``error`` unless ``value`` is an int, a bool not counting as
    one, with ``lo <= value`` and, unless ``hi`` is None, ``value <= hi``;
    the one check of a whole-number argument."""
    if type(value) is not int or value < lo or hi is not None and value > hi:
        need = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise error(f"need {need}, got {name}={value!r}")


def interior(x: Complex) -> FaceSet:
    """Faces not contained in the boundary.

    The empty face is left out of the returned set as bookkeeping: every
    consumer of interiors counts faces of dimension >= 0.
    """
    sc = _as_subcomplex(x)
    bd = boundary_complex(sc)
    return FaceSet(sc.lattice, (sc.mask & ~bd.mask) & sc.lattice._real_mask)


def f_vector(x: Union[Complex, FaceSet]) -> FVector:
    """Face counts by dimension.

    For a lattice, counts every face plus the empty face; for a subcomplex
    or face set, counts exactly the members.  No closure is taken.
    """
    x = _as_subcomplex(x)
    counts = [(x.mask & m).bit_count() for m in x.lattice._rank_masks[: x.dim + 2]]
    return FVector(x.dim, tuple(counts))


def sub_lattice(L: FaceLattice, face_id: str) -> FaceLattice:
    """Face lattice of the boundary of the closed cell ``face_id``.

    The faces are exactly those strictly below the given face, which itself
    becomes the artificial maximum; for a vertex this is the empty complex
    of dimension -1.  Each call builds a new lattice.
    """
    x = L.index(face_id)
    if x in (0, L._top):
        raise InvalidFace("the artificial extremes bound no cell")
    # the down-set in host order is in (rank, id) order, the cell last
    return _restricted(L, list(_iter_bits(_down_sets(L)[x])))


def _restricted(L: FaceLattice, members: Sequence[int]) -> FaceLattice:
    """The lattice of the host indices ``members`` of ``L``, a down-closed
    set in host order, so in (rank, id) order, whose last member becomes
    the top; the constructor reads the dimension off its rank.

    The one builder that carves a lattice out of a host, for
    :func:`sub_lattice`, ``generators.punctured`` and the closure of a set
    of facets.  Each member but the last keeps its lower covers, mapped
    to new indices; the top's list is left to the constructor.  Every
    member before the first host index left out keeps its index and its
    int object, so a lower list that lies wholly below that index is
    kept as the same tuple.
    """
    # members[i] >= i, with equality exactly before the first index left out
    lo = bisect_left(range(len(members) - 1), True, key=lambda i: members[i] != i)
    nums = [*islice(L._index.values(), lo), *range(lo, len(members))]
    moved = dict(zip(members[lo:], nums[lo:]))
    lower = list(L._lower[:lo])
    for e in members[lo:-1]:
        below = L._lower[e]
        # an entry below lo keeps its object: moved.get(a, a)
        lower.append(below if not below or below[-1] < lo else tuple(map(moved.get, below, below)))
    lower.append(())
    index = dict(zip(map(L.ids.__getitem__, members), nums))
    return FaceLattice(index, tuple(map(L.ranks.__getitem__, members)), lower)


def upper_interval_count(L: FaceLattice, face_id: str, s: int) -> tuple[int, bool]:
    """Number of rank-``s`` elements above ``face_id``, with a flag
    asserting it meets the binomial floor for diamond lattices.

    For a diamond lattice of total rank D and a face of rank r, the count
    at rank ``s`` (with r <= s <= D - 1) is at least ``C(D - r, D - s)``.
    """
    x = L.index(face_id)
    if x == L._top:
        raise InvalidFace("the artificial top is not a face")
    r = L.ranks[x]
    top_rank = L.dim + 2
    _require_int(s, r, top_rank - 1, "s", RankOutOfRange)
    count = len(next(islice(_levels_above(L, x), s - r, None), ()))
    return count, count >= comb(top_rank - r, top_rank - s)


def _least_atom_avoiding(L: FaceLattice, cell_mask: int, coatom: int, base: int) -> int:
    """Index of the least atom of ``[base, cell]`` that is not below
    ``coatom``, where ``cell_mask`` holds the faces strictly below the cell.

    The atoms are the upper covers of ``base`` in the cell, and cover
    tuples run in index order, which within a rank is id order, so the
    first that qualifies is the least.  Raises :class:`NoSuchAtom`
    when every such atom lies below the coatom.
    """
    below = _down_sets(L)[coatom]
    for a in _upper_covers(L)[base]:
        if cell_mask >> a & 1 and not below >> a & 1:
            return a
    raise NoSuchAtom(f"every atom above {L.ids[base]!r} lies below {L.ids[coatom]!r}")


def atom_avoiding_coatom(
    L: FaceLattice, coatom_id: str, base_id: str | None = None
) -> str:
    """Least atom of ``[base, top]`` that is not below the given coatom.

    With no base this is the least vertex outside the closed facet
    ``coatom_id``.  In a diamond lattice of rank at least 2 such an atom
    always exists; :class:`NoSuchAtom` therefore flags a non-diamond input,
    and :class:`InvalidFace` a non-coatom or the top as the base.
    """
    c = L.index(coatom_id)
    base = 0 if base_id is None else L.index(base_id)
    if L.ranks[c] != L.ranks[L._top] - 1 or base == L._top:
        raise InvalidFace(f"need a coatom and a base below the top: {coatom_id!r}, {base_id!r}")
    return L.ids[_least_atom_avoiding(L, L._real_mask | 1, c, base)]


# -- serialisation -------------------------------------------------------


def lattice_to_json_dict(L: FaceLattice) -> dict:
    """Plain-dict form of the lattice: its dimension and its faces, each
    with its dimension, its id and its lower covers by position.

    Faces run in (rank, id) order, and ``lower`` lists the 0-based
    positions in ``faces`` of the face's lower covers, ascending; a
    vertex lists none.  The artificial extremes and their covers are
    implicit and re-added on load.  Key order and list order are
    deterministic.  Only the lower covers are read, so a dump builds
    neither derived array.
    """
    ids, ranks, lower, top = L.ids, L.ranks, L._lower, L._top
    # the faces are the elements between the extremes, so element x sits
    # at position x - 1; a vertex's one lower cover is the bottom
    vertices = bisect_right(ranks, 1, 0, top)
    position = tuple(range(-1, top)).__getitem__
    faces = [{"dim": 0, "id": i, "lower": []} for i in ids[1:vertices]]
    faces += [
        {"dim": r - 1, "id": i, "lower": list(map(position, below))}
        for i, r, below in zip(ids[vertices:top], ranks[vertices:top], lower[vertices:top])
    ]
    return {"dim": L.dim, "faces": faces}


def lattice_from_json_dict(data: dict) -> FaceLattice:
    """Inverse of :func:`lattice_to_json_dict`; also reads the id-pair
    form, which that function wrote before schema 0.5.0.

    Dimensions must be JSON integers.  A dict with a top-level ``covers``
    key is in the id-pair form: each cover is a pair of face ids, and no
    face may have a ``lower`` list.  Any other dict gives each face a
    ``lower`` list of positions in ``faces``: JSON integers in range,
    none the face's own.  Both forms add the bottom below every
    0-dimensional face; the constructor puts the top above every face of
    the declared dimension, or above the bottom when that dimension is
    -1, the complex of the empty face alone.  The id-pair form
    builds through :func:`build_lattice`.  The positional form runs
    build_lattice's checks of the elements, with the same messages in the
    same order, then checks each face's positions as it maps them to
    lattice indices, once each, faces in file order and entries in list
    order, so the first fault in the file is the one named, and hands the
    lower lists to the constructor.
    """
    try:
        dim = data["dim"]
        raw = data["faces"]
        faces = [(f["id"], f["dim"]) for f in raw]
        # not build_lattice's check repeated: it sees the rank k + 1, and True + 1 == 2
        if any(type(k) is not int for k in [dim] + [k for _, k in faces]):
            raise InvalidFace("malformed lattice data: a dimension is not an integer")
        if "covers" in data:
            covers = data["covers"]
            if any(not isinstance(c, (list, tuple)) for c in covers):
                raise InvalidFace("malformed lattice data: a cover is not a pair of ids")
            # unpacked here, so that a cover of the wrong length is malformed data
            for _, _ in covers:
                pass
            if any("lower" in f for f in raw):
                raise InvalidFace("malformed lattice data: both 'covers' and a face's 'lower'")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidFace(f"malformed lattice data: {exc}") from None
    # on the raw ids: the only JSON value whose str() is a reserved id is
    # that string itself
    for i, _ in faces:
        if i in (BOTTOM_ID, TOP_ID):
            raise InvalidFace(f"face id {i!r} is reserved")
    elements = [(BOTTOM_ID, 0), (TOP_ID, dim + 2)]
    elements += [(i, k + 1) for i, k in faces]
    if "covers" not in data:
        return FaceLattice(*_gc_paused(_resolve_positions, elements, raw, dim))
    # the JSON list is read in place, followed by the bottom's covers
    vertices = [(BOTTOM_ID, i) for i, k in faces if k == 0]
    return build_lattice(elements, chain(covers, vertices), dim)


def _resolve_positions(elements, raw, dim) -> tuple:
    """``(index, ranks, lower)``, the constructor's arguments, from the
    elements (the extremes, then the faces in file order) and the file's
    faces, once the elements are checked.

    Each face's ``lower`` list is checked as it is mapped, faces in file
    order and entries in list order, so the first fault in the file is
    the one named.
    """
    ids, ranks, index = _resolve_elements(elements, dim)
    # at[p] is the lattice index of the face at file position p, which is
    # element p + 2, after the extremes
    names = map(str, map(itemgetter(0), islice(elements, 2, None)))
    at = tuple(map(index.__getitem__, names))
    m = len(at)
    # each list is mapped to indices once, and sorted without repeats; a
    # vertex lies over the bottom, and the constructor puts the top over
    # the top-rank faces
    get = at.__getitem__
    lower = [()] * len(ids)
    for p, (x, f) in enumerate(zip(at, raw)):
        below = f.get("lower")
        if type(below) is not list:
            if "lower" not in f:
                raise InvalidFace(f"malformed lattice data: face {ids[x]!r} has no 'lower' list")
            raise InvalidFace(f"malformed lattice data: 'lower' of face {ids[x]!r} is not a list")
        for q in below:
            # type(), as for ranks: JSON true must not pass for position 1
            if type(q) is not int:
                raise InvalidFace(f"malformed lattice data: 'lower' of face {ids[x]!r} holds "
                                  f"{json.dumps(q)}, not a position")
            if not 0 <= q < m:
                raise InvalidFace(f"'lower' of face {ids[x]!r} holds {q}, outside positions [0, {m})")
            if q == p:
                raise InvalidFace(f"face {ids[x]!r} lists itself as a lower cover")
        if below:
            lower[x] = tuple(sorted(set(map(get, below))))
    vertices = bisect_right(ranks, 1, 0, len(ids) - 1)
    lower[1:vertices] = [(0, *below) for below in lower[1:vertices]]
    return index, ranks, lower
