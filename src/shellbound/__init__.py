"""Graded face lattices of regular CW spheres and balls: shelling search
and verification, and exact face-number lower bounds."""

__version__ = "0.6.0"

__all__ = [
    "BOTTOM_ID",
    "TOP_ID",
    "DEFAULT_BUDGET",
    "EMPTY_INTERSECTION",
    "NOT_PURE",
    "NO_PREFIX_SHELLING",
    "BoundsReport",
    "BudgetExceeded",
    "CorollaryReport",
    "CyclicCovers",
    "EmptyInput",
    "FVector",
    "FaceLattice",
    "FaceSet",
    "FacetSplit",
    "GubtReport",
    "GubtRow",
    "HypothesisNotMet",
    "IndexOutOfRange",
    "InputError",
    "InternalContradiction",
    "InvalidFace",
    "InvalidSplit",
    "LatticeBuildError",
    "MixedDimensions",
    "NoBottom",
    "NoSuchAtom",
    "NoTop",
    "NotAShelling",
    "NotDiamond",
    "NotGraded",
    "NotPseudomanifold",
    "NotShellable",
    "NotSimplicial",
    "PerFacetBound",
    "PreconditionViolated",
    "RangeError",
    "RankOutOfRange",
    "RhoCoefficient",
    "SearchBudget",
    "Shape",
    "ShellboundError",
    "ShellingCertificate",
    "ShellingFailure",
    "ShellingOrder",
    "ShellingStep",
    "SplitCountResult",
    "SplitDecomposition",
    "SplitPair",
    "Subcomplex",
    "WitnessPair",
    "atom_avoiding_coatom",
    "barany_check",
    "binomial_split_lb",
    "boundary_complex",
    "boundary_intersection",
    "build_lattice",
    "check_split_count",
    "classify",
    "closure",
    "corollary_bounds",
    "cross_polytope",
    "cyclic_boundary",
    "dualize",
    "f_vector",
    "facet_decomposition",
    "find_shelling",
    "find_witness_pair",
    "from_facets",
    "gubt_compare",
    "hypercube_boundary",
    "interior",
    "is_cl_shellable",
    "is_diamond",
    "is_dual_cl_shellable",
    "is_lattice",
    "is_pseudomanifold",
    "is_pure",
    "is_shelling",
    "is_simplicial",
    "lattice_from_json_dict",
    "lattice_to_json_dict",
    "ngon",
    "parse_facet_text",
    "punctured",
    "rho",
    "simplex_boundary",
    "simplicial_equality_identity",
    "split_complexes",
    "sub_lattice",
    "upper_interval_count",
    "vandermonde_check",
    "verify_lower_bound",
]


def __getattr__(name: str) -> object:
    """Import the whole library on the first read of a public name and
    bind every name in ``__all__`` here, so that later reads are plain
    attributes.  ``python -m shellbound.cli`` reads none of them, so a
    command imports only the modules it uses.  Any other name fails at
    once and loads nothing."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bounds, errors, generators, lattice, shelling

    found: dict = {}
    for module in (errors, lattice, shelling, bounds, generators):
        found.update(vars(module))
    globals().update((public, found[public]) for public in __all__)
    return found[name]
