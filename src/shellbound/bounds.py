"""Face-number lower bounds for shellable spheres and balls.

The central inequality bounds f_k of a shellable d-pseudomanifold from
below by a half-integer multiple of the facet count plus half the k-th
face count of the boundary.  The multiplier is

    rho(d+1, k) = (C(ceil((d+1)/2), d-k) + C(floor((d+1)/2), d-k)) / 2,

and equality holds exactly for k = d, or for k = d - 1 on simplicial
complexes.  Everything here is verified in exact rational arithmetic
(denominators never exceed 2); no floats appear anywhere.

The verification follows the same route as the proof: split each facet
boundary into the part glued to earlier facets and the part facing later
facets or the complex boundary, bound the interior face counts of each
split, and sum without double counting.  Every identity the argument
relies on is recomputed and cross-checked; a mismatch raises
:class:`InternalContradiction` because it would mean the input lied about
being a verified shelling, or the mathematics failed.  The per-facet
guards live in :func:`_decomposition`, which cuts each facet boundary
once, with :func:`_split` on the step's sub-shelling, and checks the cut
against the facet's ridges; :func:`verify_lower_bound` counts on its
sides.  ``_split`` needs a sphere, so a facet boundary that is none (the
input is then no regular CW complex) stops as a precondition error.
That check, like every predicate on a complex this module asks
(``_require_sphere``, :func:`is_simplicial` for the equality case, and
the diamond test of the corollaries), is imported from
:mod:`~shellbound.lattice`; none is defined here.

Each public function asks :func:`_verified` for its order's
:class:`_Proof` and reads the facts of that order from it: the private
helpers of the proof route take a verified :class:`ShellingCertificate`
and keep nothing.  This module owns the memo's ``"proof"`` slot, which
keeps the last order that verified as one ``_Proof``, so a k-sweep, the
decomposition, the witnesses and the split counts on one order verify
it once per lattice.  The proof keeps its :func:`_decomposition`, so
each facet boundary is cut once for every k, and its :func:`_split` at
each position a call asked for, so its guards run once per order and
position.  :meth:`_Proof.cut` admits every split position, warm or
fresh, with 0 <= j <= n, else :class:`InvalidSplit`, and each entry
admits k in its own range, else :class:`RangeError`; both ask
``lattice._require_int``, so an int passes and a bool does not.
The facts that do not depend on the order are kept in the lattice's
memo, each derived once by this module: the f-vectors of the complex
and of its boundary and the two CL verdicts of the corollaries.  Every
call still checks its arguments and its budget first, a warm one
included.  Failures and runs out of budget are never kept.  Counts at
one dimension k read one rank mask, and each bound is one ``Fraction``
of the doubled multiplier, :func:`_rho_doubled`.

Step j carries the shelling of the j-th facet boundary that starts
with exactly the ridges glued to earlier facets, and how many those
are, the split that the per-facet counts and the witness construction
need at every depth; both check that its first entries are the ridges
the geometry glues along, cut it at that count on host masks, and build
no cell lattice.  The
polytopal corollaries ask :func:`is_dual_cl_shellable` and
:func:`is_cl_shellable`, whose diamond check and dual lattice are made
once per lattice and kept in its memo (``L._memo``, listed in the
:mod:`~shellbound.lattice` docstring); searches on the dual then share
one memo across k.

Last comes the comparison of a shellable sphere with the boundary of the
cyclic polytope of the same dimension on a given number of vertices
(:func:`gubt_compare`), whose face counts come from McMullen's closed
form, :func:`_cyclic_f`, with no complex built.  Only the three functions
that build a ``Fraction`` import :mod:`fractions`.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from typing import Sequence, Union

from .errors import (
    HypothesisNotMet,
    InternalContradiction,
    InvalidSplit,
    NoSuchAtom,
    NotAShelling,
    NotDiamond,
    NotPseudomanifold,
    NotShellable,
    NotSimplicial,
    PreconditionViolated,
    RangeError,
)
from .lattice import (
    FaceLattice,
    FaceSet,
    FVector,
    Subcomplex,
    _as_subcomplex,
    _closed,
    _down_sets,
    _is_diamond_lattice,
    _json_fields,
    _least_atom_avoiding,
    _memoised,
    _record,
    _require_int,
    _require_sphere,
    _upper_covers,
    boundary_complex,
    f_vector,
    interior,
    is_pseudomanifold,
    is_simplicial,
)
from .shelling import (
    SearchBudget,
    ShellingCertificate,
    ShellingFailure,
    ShellingOrder,
    _as_budget,
    _order_ids,
    find_shelling,
    is_cl_shellable,
    is_dual_cl_shellable,
    is_shelling,
)


# -- coefficients --------------------------------------------------------


@_record
class RhoCoefficient:
    """The bound multiplier for a (d+1)-polytopal setting at dimension k."""

    d_plus_1: int
    k: int
    value: Fraction


def _halves(d_plus_1: int) -> tuple[int, int]:
    return (d_plus_1 + 1) // 2, d_plus_1 // 2


def rho(d_plus_1: int, k: int) -> RhoCoefficient:
    """Exact value of the facet-count multiplier.

    Defined for 0 <= k <= d where d = d_plus_1 - 1; takes the value 1 at
    k = d and grows as k shrinks.
    """
    from fractions import Fraction

    _require_int(d_plus_1, 1, None, "d_plus_1")
    _require_int(k, 0, d_plus_1 - 1, "k")
    return RhoCoefficient(d_plus_1, k, Fraction(_rho_doubled(d_plus_1, k), 2))


def _rho_doubled(d_plus_1: int, k: int) -> int:
    hi, lo = _halves(d_plus_1)
    d = d_plus_1 - 1
    return comb(hi, d - k) + comb(lo, d - k)


def binomial_split_lb(a: int, b: int, d: int, m: int) -> bool:
    """Whether C(a, m) + C(b, m) meets the balanced-split floor
    C(ceil((d+1)/2), m) + C(floor((d+1)/2), m).

    Requires ints a, b, d >= 0, a bool not counting as one, with
    a + b >= d + 1 and 1 <= m <= ceil((d+1)/2); the floor is attained by
    the most balanced split of d + 1.
    """
    for value, name in ((a, "a"), (b, "b"), (d, "d")):
        _require_int(value, 0, None, name, PreconditionViolated)
    hi, lo = _halves(d + 1)
    _require_int(m, 1, hi, "m", PreconditionViolated)
    if a + b < d + 1:
        raise PreconditionViolated(f"need a+b >= {d + 1}, got a={a} b={b}")
    return comb(a, m) + comb(b, m) >= comb(hi, m) + comb(lo, m)


# -- shelling-order splits ----------------------------------------------


def _verified(
    L: FaceLattice, order: Union[ShellingOrder, Sequence[str]], budget: SearchBudget
) -> _Proof:
    """The :class:`_Proof` of ``order``, or :class:`NotAShelling`.  The
    last order that verified is kept in the memo's ``"proof"`` slot, which
    this function alone writes, and a call on that order again returns its
    proof without a search or a walk."""
    ids = _order_ids(L, order)
    proof = L._memo.get("proof")
    if proof is not None and proof.cert.facets == ids:
        return proof
    result = is_shelling(L, ids, budget=budget)
    if isinstance(result, ShellingFailure):
        raise NotAShelling(result)
    proof = L._memo["proof"] = _Proof(result)
    return proof


class _Proof:
    """A verified whole-complex certificate and the facts of its order,
    each derived on first read and kept: the cut at each position,
    :meth:`cut`, which admits every split position, and the
    :attr:`decomposition`.  A derivation that raises keeps nothing."""

    def __init__(self, cert: ShellingCertificate) -> None:
        self.cert = cert
        self.cuts: dict[int, SplitPair] = {}

    def cut(self, j: int) -> SplitPair:
        """``_split(cert, j)`` at an int position ``0 <= j <= n``, a bool
        not counting as an int, else :class:`InvalidSplit`: the one check
        of a split position."""
        _require_int(j, 0, len(self.cert.facets), "j", InvalidSplit)
        if j not in self.cuts:
            self.cuts[j] = _split(self.cert, j)
        return self.cuts[j]

    @cached_property
    def decomposition(self) -> SplitDecomposition:
        return _decomposition(self.cert)


@_record
class SplitPair:
    """A shelling order cut at position j: the subcomplex spanned by the
    first j facets, the one spanned by the rest, and their interiors."""

    begin: Subcomplex
    end: Subcomplex
    begin_interior: FaceSet
    end_interior: FaceSet


def split_complexes(
    L: FaceLattice,
    order: Union[ShellingOrder, Sequence[str]],
    j: int,
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> SplitPair:
    """Cut a verified sphere shelling at position j (0 <= j <= n).

    Both sides are pseudomanifolds, and the interior of each side is the
    complement of the other side; both facts are recomputed and enforced.
    """
    return _verified(L, order, _as_budget(budget)).cut(j)


def _split(cert: ShellingCertificate, j: int) -> SplitPair:
    """:func:`split_complexes` of a verified shelling of the boundary of
    host cell ``cert.cell`` (the top for the whole complex), on host
    masks, at a position ``0 <= j <= n`` that its caller admitted."""
    L, cell, seq = cert.lattice, cert.cell, cert.facets
    # the cell's boundary as a subcomplex, the whole complex's kept once
    # per lattice; at j = 0 and j = n it is one side, derived once
    down = _down_sets(L)
    whole = _as_subcomplex(L) if cell == L._top else Subcomplex(L, down[cell] & ~(1 << cell))
    _require_sphere(whole)
    real = whole.mask & ~1
    begin_mask = _closed(down, L._mask_of(seq[:j]))
    end_mask = _closed(down, L._mask_of(seq[j:]))
    begin = whole if begin_mask == whole.mask else Subcomplex(L, begin_mask)
    end = whole if end_mask == whole.mask else Subcomplex(L, end_mask)
    if not (is_pseudomanifold(begin) and is_pseudomanifold(end)):
        raise InternalContradiction("a side of a verified sphere split is not a pseudomanifold")
    begin_int = interior(begin)
    end_int = interior(end)
    if begin_int.mask != real & ~end_mask or end_int.mask != real & ~begin_mask:
        raise InternalContradiction("split interiors do not complement each other")
    return SplitPair(begin, end, begin_int, end_int)


@_record
class SplitCountResult:
    j: int
    k: int
    lhs: int
    rhs: int
    fk_begin: int
    fk_end: int

    @property
    def ok(self) -> bool:
        return self.lhs >= self.rhs


def check_split_count(
    L: FaceLattice,
    order: Union[ShellingOrder, Sequence[str]],
    j: int,
    k: int,
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> SplitCountResult:
    """Interior face counts across a split of a shellable sphere.

    For a sphere of dimension delta = d - 1 the two split interiors
    together carry at least C(ceil((d+1)/2), d-k) + C(floor((d+1)/2), d-k)
    faces of dimension k, for floor(delta/2) <= k <= delta and any cut
    position.  Returns the exact left side, the binomial right side, and
    the verdict.
    """
    delta = L.dim
    if delta < 0:
        raise RangeError(f"split counts need dimension at least 0, got dimension {delta}")
    _require_int(k, delta // 2, delta, "k")
    proof = _verified(L, order, _as_budget(budget))
    pair = proof.cut(j)
    count = L._rank_masks[k + 1]
    fk_begin = (pair.begin_interior.mask & count).bit_count()
    fk_end = (pair.end_interior.mask & count).bit_count()
    # the boundary of a cell of rank r is a sphere of dimension r - 2
    rhs = _rho_doubled(L.ranks[proof.cert.cell], k)
    return SplitCountResult(j, k, fk_begin + fk_end, rhs, fk_begin, fk_end)


# -- witness pairs -------------------------------------------------------


@_record
class WitnessPair:
    """Two faces separated by a shelling split whose dimensions sum to at
    most the complex dimension: one interior to the leading subcomplex,
    one interior to the trailing one."""

    begin_face: str
    end_face: str
    begin_dim: int
    end_dim: int
    split: int
    begin_in_interior: bool
    end_in_interior: bool

    def to_json_dict(self) -> dict:
        return {
            "C": self.begin_face,
            "D": self.end_face,
            "dim_C": self.begin_dim,
            "dim_D": self.end_dim,
            "split": self.split,
            "C_in_interior": self.begin_in_interior,
            "D_in_interior": self.end_in_interior,
        }


def _ridge_sides(L: FaceLattice, x: int, inside: int, earlier: int, bd: int) -> tuple[int, int]:
    """The ridges of facet ``x`` of a cell whose proper faces are the
    ``inside`` mask, as two masks: those shared with a facet in the
    ``earlier`` mask, and the rest, each shared with a later facet or
    lying on the boundary mask ``bd``."""
    upper = _upper_covers(L)
    before = after = 0
    for ridge in L._lower[x]:
        others = [y for y in upper[ridge] if y != x and inside >> y & 1]
        if len(others) > 1:
            raise InternalContradiction("a ridge lies in more than two facets")
        if others and earlier >> others[0] & 1:
            before |= 1 << ridge
        elif others or bd >> ridge & 1:
            after |= 1 << ridge
        else:
            raise InternalContradiction("a ridge in a single facet is missing from the boundary")
    return before, after


def _witness(cert: ShellingCertificate, j: int) -> tuple[int, int]:
    """The witness pair, as host indices, of a verified sphere shelling of
    the boundary of cell ``cert.cell`` cut at j, pushed down through the
    prefixed sub-shellings the certificate carries."""
    L = cert.lattice
    cell = cert.cell
    r = L.ranks[cell]
    seq = cert.facets
    if r == 2:
        return L.index(seq[0]), L.index(seq[1])
    inside = _down_sets(L)[cell] ^ (1 << cell)
    if j == 1:
        # the leading closed facet, and the least vertex outside it
        first = L.index(seq[0])
        return first, _least_atom_avoiding(L, inside, first, 0)
    step = cert.steps[j - 1]
    x = L.index(step.facet)
    sub_cert = step.sub_certificate
    inner_j = step.glued
    before, _ = _ridge_sides(L, x, inside, L._mask_of(seq[: j - 1]), 0)
    if before != L._mask_of(sub_cert.facets[:inner_j]):
        raise InternalContradiction("a verified step glues along other ridges")
    if not 1 <= inner_j < len(sub_cert.facets):
        raise InternalContradiction("facet boundary split is degenerate")
    begin_face, inner_end = _witness(sub_cert, inner_j)
    try:
        end_face = _least_atom_avoiding(L, inside, x, inner_end)
    except NoSuchAtom:
        raise InternalContradiction(
            "every cover of the inner witness lies inside the closed facet"
        ) from None
    return begin_face, end_face


def find_witness_pair(
    L: FaceLattice,
    order: Union[ShellingOrder, Sequence[str]],
    j: int,
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> WitnessPair:
    """Construct the witness pair for a verified sphere shelling cut at j.

    Follows the inductive argument: the base cases take the leading facet
    against the least escaping vertex, and the inductive step pushes the
    split into the boundary of the j-th facet, then lifts the trailing
    witness through a cover that escapes the closed facet.  Memberships
    are verified against the split interiors before returning.
    """
    proof = _verified(L, order, _as_budget(budget))
    _require_sphere(L)
    _require_int(j, 1, len(proof.cert.facets) - 1, "j", InvalidSplit)
    begin, end = _witness(proof.cert, j)
    begin_face, end_face = L.ids[begin], L.ids[end]
    pair = proof.cut(j)
    witness = WitnessPair(
        begin_face,
        end_face,
        L.dim_of(begin_face),
        L.dim_of(end_face),
        j,
        begin_face in pair.begin_interior,
        end_face in pair.end_interior,
    )
    if not (witness.begin_in_interior and witness.end_in_interior):
        raise InternalContradiction("witness faces are not interior to their sides")
    if witness.begin_dim + witness.end_dim > L.dim:
        raise InternalContradiction("witness dimensions exceed the complex dimension")
    return witness


# -- per-facet decomposition --------------------------------------------


@_record
class FacetSplit:
    """The boundary of one facet cut into the part glued to earlier facets
    and the part facing later facets or the complex boundary."""

    j: int
    facet: str
    before: Subcomplex
    after: Subcomplex
    before_interior: FaceSet
    after_interior: FaceSet


@_record
class SplitDecomposition:
    lattice: FaceLattice
    order: tuple[str, ...]
    splits: tuple[FacetSplit, ...]


def facet_decomposition(
    X: FaceLattice,
    order: Union[ShellingOrder, Sequence[str]],
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> SplitDecomposition:
    """Decompose every facet boundary of a verified shelling.

    For facet j, the ridges below it are split by where their second facet
    sits in the order (or whether they lie on the complex boundary); each
    side is closed off and must match the cut of the facet boundary, a
    sphere, at the step's prefixed sub-shelling.  The identities the
    counting argument needs are recomputed here and enforced: the sides
    cover the facet boundary with disjoint ridge sets, the earlier side
    equals the step intersection, whose ridges are the first ones of the
    step's sub-shelling, the sides meet exactly in their common boundary,
    and across facets no face is interior to two earlier sides (or an
    earlier side and the complex boundary), nor interior to two later
    sides.
    """
    return _verified(X, order, _as_budget(budget)).decomposition


def _decomposition(cert: ShellingCertificate) -> SplitDecomposition:
    """:func:`facet_decomposition` of a verified shelling of the whole
    complex."""
    X, seq = cert.lattice, cert.facets
    if not is_pseudomanifold(X):
        raise NotPseudomanifold("the decomposition needs a pseudomanifold")
    d = X.dim
    if d < 1:
        raise RangeError("the decomposition needs dimension at least 1")
    bd_mask = boundary_complex(X).mask
    down = _down_sets(X)
    # later_unions[j0]: the closed union of the facets after position j0
    later_unions = [0]
    for facet in reversed(seq[1:]):
        later_unions.append(later_unions[-1] | down[X.index(facet)])
    later_unions.reverse()
    splits: list[FacetSplit] = []
    earlier = earlier_union = 0
    seen_before_int = 0
    seen_after_int = 0
    for j0, step in enumerate(cert.steps):
        x = X.index(step.facet)
        before_ridges, after_ridges = _ridge_sides(X, x, X._real_mask, earlier, bd_mask)
        if before_ridges & after_ridges:
            raise InternalContradiction("a ridge landed on both sides of its facet")
        before_mask = _closed(down, before_ridges)
        after_mask = _closed(down, after_ridges)

        cell_boundary = down[x] & ~(1 << x)
        if before_mask | after_mask != cell_boundary:
            raise InternalContradiction("the two sides do not cover the facet boundary")
        if j0 == 0:
            if before_mask != 0:
                raise InternalContradiction("the first facet has no earlier side")
        elif before_mask != cell_boundary & earlier_union:
            raise InternalContradiction("the earlier side differs from the step intersection")
        if after_mask != cell_boundary & (bd_mask | later_unions[j0]):
            raise InternalContradiction(
                "the later side differs from its boundary description"
            )
        # the step's sub-shelling of the facet boundary starts with
        # exactly the ridges glued to earlier facets
        sub = step.sub_certificate
        if X._mask_of(sub.facets[: step.glued]) != before_ridges:
            raise InternalContradiction("the earlier side differs from the glued ridges")
        # cut on host masks of the facet cell, building no lattice
        pair = _split(sub, step.glued)
        if (pair.begin.mask, pair.end.mask) != (before_mask, after_mask):
            raise InternalContradiction("split recount disagrees with the facet decomposition")
        bd_before = boundary_complex(pair.begin).mask
        bd_after = boundary_complex(pair.end).mask
        if not (before_mask & after_mask == bd_before == bd_after):
            raise InternalContradiction("the sides do not meet in their common boundary")
        before_int, after_int = pair.begin_interior, pair.end_interior
        if before_int.mask & (seen_before_int | bd_mask):
            raise InternalContradiction("a face is interior to two earlier sides")
        if after_int.mask & seen_after_int:
            raise InternalContradiction("a face is interior to two later sides")
        seen_before_int |= before_int.mask
        seen_after_int |= after_int.mask
        earlier |= 1 << x
        earlier_union |= down[x]
        splits.append(FacetSplit(j0 + 1, step.facet, pair.begin, pair.end, before_int, after_int))
    return SplitDecomposition(X, seq, tuple(splits))


# -- the main inequality -------------------------------------------------


@_record
class PerFacetBound:
    j: int
    fk_int_C: int
    fk_int_D: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.fk_int_C + self.fk_int_D >= self.bound

    to_json_dict = _json_fields


@_record
class BoundsReport:
    """Everything checked for one k: the exact inequality, the equality
    expectation, the per-facet floors, and the double-counting ceiling."""

    k: int
    lhs: int
    rhs: Fraction
    slack: Fraction
    equality: bool
    expected_equality: bool
    per_facet: tuple[PerFacetBound, ...]
    interior_sum: int
    interior_sum_bound: int

    @property
    def ok(self) -> bool:
        return (
            self.slack >= 0
            and self.equality == self.expected_equality
            and self.interior_sum <= self.interior_sum_bound
            and all(p.ok for p in self.per_facet)
        )

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "lhs": self.lhs,
            "rhs_num": self.rhs.numerator,
            "rhs_den": self.rhs.denominator,
            "slack_num": self.slack.numerator,
            "slack_den": self.slack.denominator,
            "equality": self.equality,
            "expected_equality": self.expected_equality,
            "per_facet": [p.to_json_dict() for p in self.per_facet],
        }


def _face_counts(X: FaceLattice) -> tuple[FVector, FVector]:
    """The f-vectors of a pseudomanifold and of its boundary, each kept in
    its memo once derived."""
    return (
        _memoised(X, "f-vector", f_vector),
        _memoised(X, "boundary f-vector", lambda X: f_vector(boundary_complex(X))),
    )


def simplicial_equality_identity(X: FaceLattice) -> bool:
    """The ridge-count identity behind the simplicial equality case:
    (d+1) * f_d + f_{d-1}(boundary) = 2 * f_{d-1}."""
    if not is_simplicial(X):
        raise NotSimplicial("the identity is stated for simplicial complexes")
    if not is_pseudomanifold(X):
        raise NotPseudomanifold("the identity needs a pseudomanifold")
    d = X.dim
    f, fbd = _face_counts(X)
    return (d + 1) * f[d] + fbd[d - 1] == 2 * f[d - 1]


def vandermonde_check(d: int, k: int) -> bool:
    """Split C(d+1, d-k) across the balanced halves and report whether the
    cross terms vanish (they do exactly when k >= d - 1).

    The full convolution identity is recomputed and enforced on the way.
    """
    _require_int(d, 1, None, "d")
    _require_int(k, 0, d, "k")
    hi, lo = _halves(d + 1)
    m = d - k
    if comb(d + 1, m) != sum(comb(hi, i) * comb(lo, m - i) for i in range(m + 1)):
        raise InternalContradiction("binomial convolution identity failed")
    cross = sum(comb(hi, i) * comb(lo, m - i) for i in range(1, m))
    return cross == 0


def verify_lower_bound(
    X: FaceLattice,
    order: Union[ShellingOrder, Sequence[str]],
    k: int,
    *,
    budget: Union[int, SearchBudget, None] = None,
) -> BoundsReport:
    """Check f_k >= rho(d+1, k) * f_d + f_k(boundary) / 2 along its proof.

    Runs, in order: the per-facet floors, counted on the sides of the
    facet decomposition (whose guards, the cut of each facet boundary at
    its step's sub-shelling included, run there), the double-counting
    ceiling on their sum, the exact rational inequality, and the equality
    expectation (equality iff k = d, or k = d - 1 with X simplicial).
    Admissible range: floor((d-1)/2) <= k <= d, dimension at least 1.
    """
    d = X.dim
    if d < 1:
        raise RangeError(f"the bound needs dimension at least 1, got dimension {d}")
    _require_int(k, (d - 1) // 2, d, "k")
    proof = _verified(X, order, _as_budget(budget))
    if not is_pseudomanifold(X):
        raise NotPseudomanifold("the bound applies to pseudomanifolds")
    f, fbd = _face_counts(X)
    # a facet is a cell of rank d + 1
    rho2 = _rho_doubled(d + 1, k)

    per_facet: list[PerFacetBound] = []
    interior_sum = 0
    if k <= d - 1:
        count = X._rank_masks[k + 1]
        for split in proof.decomposition.splits:
            fk_begin = (split.before_interior.mask & count).bit_count()
            fk_end = (split.after_interior.mask & count).bit_count()
            per_facet.append(PerFacetBound(split.j, fk_begin, fk_end, rho2))
            interior_sum += fk_begin + fk_end

    from fractions import Fraction

    lhs = f[k]
    rhs = Fraction(rho2 * f[d] + fbd[k], 2)
    slack = lhs - rhs
    return BoundsReport(
        k=k,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        equality=slack == 0,
        expected_equality=k == d or k == d - 1 and is_simplicial(X),
        per_facet=tuple(per_facet),
        interior_sum=interior_sum,
        interior_sum_bound=2 * f[k] - fbd[k],
    )


# -- polytopal corollaries ----------------------------------------------


@_record
class CorollaryReport:
    """Face-count floors that follow once the lattice is shellable in one
    or both directions, evaluated at a single k."""

    k: int
    dim: int
    dual_cl_shellable: bool
    cl_shellable: bool
    facet_bound: Union[Fraction, None]
    facet_bound_ok: Union[bool, None]
    vertex_bound: Union[Fraction, None]
    vertex_bound_ok: Union[bool, None]
    barany_bound: Union[int, None]
    barany_ok: Union[bool, None]

    to_json_dict = _json_fields


def corollary_bounds(
    L: FaceLattice, k: int, *, budget: Union[int, SearchBudget, None] = None
) -> CorollaryReport:
    """Evaluate the shellability-conditional floors at one k.

    When the lattice is dual CL-shellable, f_k is floored by rho(d+1, k)
    times the facet count on the upper half of dimensions; when it is
    CL-shellable, by rho(d+1, d-k) times the vertex count on the lower
    half; when both, by min(f_0, f_d) everywhere.  Unmet hypotheses are
    reported as absent bounds, never asserted.
    """
    if not _is_diamond_lattice(L):
        raise NotDiamond("the corollaries are stated for diamond lattices")
    d = L.dim
    _require_int(k, 0, d, "k")
    bud = _as_budget(budget)
    dual_cl = _memoised(L, "dual CL-shellable", lambda L: is_dual_cl_shellable(L, budget=bud))
    cl = _memoised(L, "CL-shellable", lambda L: is_cl_shellable(L, budget=bud))
    f = _memoised(L, "f-vector", f_vector)

    from fractions import Fraction

    facet_bound = facet_ok = None
    if dual_cl and (d - 1) // 2 <= k <= d:
        facet_bound = Fraction(_rho_doubled(d + 1, k) * f[d], 2)
        facet_ok = f[k] >= facet_bound
    vertex_bound = vertex_ok = None
    if cl and k <= (d + 2) // 2:
        vertex_bound = Fraction(_rho_doubled(d + 1, d - k) * f[0], 2)
        vertex_ok = f[k] >= vertex_bound
    barany_bound = barany_ok = None
    if dual_cl and cl:
        barany_bound = min(f[0], f[d])
        barany_ok = f[k] >= barany_bound
    return CorollaryReport(
        k, d, dual_cl, cl, facet_bound, facet_ok, vertex_bound, vertex_ok,
        barany_bound, barany_ok,
    )


def barany_check(L: FaceLattice, *, budget: Union[int, SearchBudget, None] = None) -> bool:
    """min(f_0, f_d) floors every face count, given shellability both ways.

    Raises :class:`NotShellable` when either direction fails, since the
    statement is then silent about the lattice.
    """
    if not _is_diamond_lattice(L):
        raise NotDiamond("the floor is stated for diamond lattices")
    bud = _as_budget(budget)
    dual_cl = _memoised(L, "dual CL-shellable", lambda L: is_dual_cl_shellable(L, budget=bud))
    if not (dual_cl and _memoised(L, "CL-shellable", lambda L: is_cl_shellable(L, budget=bud))):
        raise NotShellable("the lattice is not shellable in both directions")
    f = _memoised(L, "f-vector", f_vector)
    floor_value = min(f[0], f[L.dim])
    return all(f[k] >= floor_value for k in range(L.dim + 1))


# -- comparison against the cyclic polytope ------------------------------


@_record
class GubtRow:
    k: int
    f_p: int
    f_c: int
    ok: bool

    to_json_dict = _json_fields


@_record
class GubtReport:
    """Face counts of a sphere against the cyclic polytope boundary with
    the same dimension and vertex count.  Rows that fall short are
    reported, never asserted away."""

    d: int
    n: int
    simplicial: bool
    facets_p: int
    facets_c: int
    rows: tuple[GubtRow, ...]
    all_ok: bool

    to_json_dict = _json_fields


def _cyclic_f(d: int, n: int) -> list[int]:
    """f_0, ..., f_{d-1} of C(d, n), from its h-vector: h_i = h_{d-i} =
    C(n - d - 1 + i, i) for i <= d/2, and f_{j-1} = sum over i <= j of
    C(d - i, j - i) h_i."""
    h = [comb(n - d - 1 + min(i, d - i), min(i, d - i)) for i in range(d + 1)]
    return [sum(comb(d - i, j - i) * h[i] for i in range(j + 1)) for j in range(1, d + 1)]


def gubt_compare(
    P: FaceLattice, d: int, n: int, *, budget: Union[int, SearchBudget, None] = None
) -> GubtReport:
    """Compare a shellable (d-1)-sphere against C(d, n), the boundary of
    the cyclic d-polytope on n vertices.

    n is the cyclic polytope's vertex count and is not checked against
    the sphere's.  The cyclic counts come from McMullen's closed form for
    the h-vector of C(d, n) (McMullen, Mathematika 17, 1970; Ziegler,
    Lectures on Polytopes, Lecture 8), with no complex built, so d >= 2
    and n >= d + 1 have no upper end.  The hypothesis is that P has at
    least as many facets as the cyclic boundary; when it holds, every
    face count of P is expected to meet the cyclic one, and the report
    records where that happens.  A sphere with fewer facets raises
    :class:`HypothesisNotMet` since the comparison is silent about it.
    """
    _require_int(d, 2, None, "d")
    _require_int(n, d + 1, None, "n")
    if P.dim != d - 1:
        raise PreconditionViolated(f"dimension {P.dim} does not match d-1={d - 1}")
    _require_sphere(P)
    fP = f_vector(P)
    fC = _cyclic_f(d, n)
    if find_shelling(P, budget=_as_budget(budget)) is None:
        raise NotShellable("no shelling order found")
    if fP[d - 1] < fC[d - 1]:
        raise HypothesisNotMet(
            f"facet count {fP[d - 1]} is below the cyclic count {fC[d - 1]}"
        )
    rows = tuple(GubtRow(k, fP[k], fC[k], fP[k] >= fC[k]) for k in range(d))
    return GubtReport(
        d, n, is_simplicial(P), fP[d - 1], fC[d - 1], rows, all(r.ok for r in rows)
    )
