"""Pyramids and prisms over polytope boundaries, built listing no cover
to the top: polytope boundaries again, so every claim the package checks
holds on them and on their punctures."""

import pytest

import shellbound as sb

from corpus import PRODUCT_BASES, prism, pyramid

CASES = {f"{make.__name__}-{name}": (make, name)
         for make in (pyramid, prism) for name in PRODUCT_BASES}
# every base but the cube's is simplicial
SIMPLICIAL_BASES = {"ngon-4", "ngon-5", "simplex-2", "cross-2", "cyclic-4-6"}


def _check_bounds(X: sb.FaceLattice, simplicial: bool) -> None:
    order = sb.find_shelling(X)
    d = X.dim
    for k in range((d - 1) // 2, d + 1):
        report = sb.verify_lower_bound(X, order, k)
        assert report.ok, k
        assert report.equality == (k == d or simplicial and k == d - 1), k


@pytest.mark.parametrize("name", CASES)
def test_pyramids_and_prisms_are_shellable_spheres(name):
    make, base = CASES[name]
    S = make(PRODUCT_BASES[base]())
    # of the spheres, only the pyramid over the tetrahedron, the 4-simplex,
    # is simplicial
    assert sb.is_lattice(S) and sb.is_diamond(S)
    _check_bounds(S, name == "pyramid-simplex-2")
    for k in range(S.dim + 1):
        report = sb.corollary_bounds(S, k)
        assert report.dual_cl_shellable and report.cl_shellable, k
        assert report.barany_ok, k
    # the least facet of a pyramid is its base, so its puncture is the cone
    # over the base's boundary, simplicial when that is
    B = sb.punctured(S)
    assert sb.is_lattice(B) and not sb.is_diamond(B)
    _check_bounds(B, make is pyramid and base in SIMPLICIAL_BASES)


def test_a_pyramid_and_a_prism_of_known_polytopes():
    # the pyramid over a triangle is the tetrahedron, and the prism over a
    # square the cube
    pairs = [(pyramid(sb.simplex_boundary(2)), sb.simplex_boundary(3)),
             (prism(sb.hypercube_boundary(2)), sb.hypercube_boundary(3))]
    for built, known in pairs:
        assert sb.f_vector(built) == sb.f_vector(known)
