"""Pyramids and prisms over polytope boundaries, and products and free
sums of them, built listing no cover to the top: polytope boundaries
again, so every claim the package checks holds on them and on the
punctures of the pyramids and prisms."""

import pytest

import shellbound as sb

from corpus import PRODUCT_BASES, PRODUCTS, prism, product, pyramid

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


@pytest.mark.parametrize("name", PRODUCTS)
def test_products_and_free_sums_are_shellable_spheres(name):
    join, P, Q = PRODUCTS[name]
    S = join(P(), Q())
    d = S.dim
    if join is product:
        # a face of the product is a pair of faces, each polytope its own
        # top face
        fp, fq = (list(sb.f_vector(F()).proper) + [1] for F in (P, Q))
        assert sb.f_vector(S).proper == tuple(
            sum(fp[i] * fq[k - i] for i in range(len(fp)) if 0 <= k - i < len(fq))
            for k in range(d + 1))
    assert sb.is_lattice(S) and sb.is_diamond(S)
    order = sb.find_shelling(S)
    assert isinstance(sb.is_shelling(S, order), sb.ShellingCertificate)
    _check_bounds(S, sb.is_simplicial(S))
    for k in range(d + 1):
        report = sb.corollary_bounds(S, k)
        assert report.dual_cl_shellable and report.cl_shellable, k
        assert False not in (report.facet_bound_ok, report.vertex_bound_ok,
                             report.barany_ok), k


def test_a_product_of_known_polytopes():
    # a square times a square is the 4-cube, and a segment times a
    # polytope the prism over it
    assert sb.f_vector(product(sb.ngon(4), sb.ngon(4))) == sb.f_vector(sb.hypercube_boundary(3))
    for base in PRODUCT_BASES.values():
        assert sb.f_vector(product(sb.simplex_boundary(0), base())) == sb.f_vector(prism(base()))
