from math import comb

import pytest

import shellbound as sb

from corpus import balls, spheres_d_le_3


def wl_profile(L: sb.FaceLattice, rounds: int = 3):
    """Isomorphism-invariant refinement profile: equal for isomorphic
    lattices regardless of labels."""
    labels = {i: (r,) for i, r in zip(L.ids, L.ranks)}
    for _ in range(rounds):
        labels = {
            i: (
                labels[i],
                tuple(sorted(labels[c] for c in L.lower_covers(i))),
                tuple(sorted(labels[c] for c in L.upper_covers(i))),
            )
            for i in L.ids
        }
    return sorted(repr(v) for v in labels.values())


# -- families ------------------------------------------------------------


def test_simplex_boundary_f_vectors():
    assert sb.f_vector(sb.simplex_boundary(0)).proper == (2,)
    assert sb.f_vector(sb.simplex_boundary(2)).proper == (4, 6, 4)
    assert sb.f_vector(sb.simplex_boundary(3)).proper == (5, 10, 10, 5)
    S = sb.simplex_boundary(5)
    assert sb.f_vector(S).proper == tuple(comb(7, k + 1) for k in range(6))


def test_cross_polytope_f_vectors():
    assert sb.f_vector(sb.cross_polytope(1)).proper == (4, 4)
    assert sb.f_vector(sb.cross_polytope(2)).proper == (6, 12, 8)
    assert sb.f_vector(sb.cross_polytope(3)).proper == (8, 24, 32, 16)
    X = sb.cross_polytope(4)
    assert sb.f_vector(X).proper == tuple(
        2 ** (k + 1) * comb(5, k + 1) for k in range(5)
    )


def test_hypercube_boundary_f_vectors():
    assert sb.f_vector(sb.hypercube_boundary(1)).proper == (4, 4)
    assert sb.f_vector(sb.hypercube_boundary(2)).proper == (8, 12, 6)
    assert sb.f_vector(sb.hypercube_boundary(3)).proper == (16, 32, 24, 8)


def test_ngon_shape():
    g = sb.ngon(5)
    assert sb.f_vector(g).proper == (5, 5)
    assert g.faces(0) == ("v1", "v2", "v3", "v4", "v5")
    assert set(g.faces(1)) == {"e12", "e23", "e34", "e45", "e51"}
    assert g.upper_covers("v1") == ("e12", "e51")


@pytest.mark.parametrize("n", [9, 10, 100, 101, 102, 202, 909, 1000])
def test_ngon_edge_ids_are_distinct(n):
    # for n = 101, plain ids would name (10, 11) and (101, 1) both e1011;
    # only such n take the separator, so every other n keeps its ids
    sep = "-" if n in (101, 202, 909) else ""
    g = sb.ngon(n)
    assert sb.f_vector(g).proper == (n, n)
    assert set(g.faces(1)) == {f"e{i}{sep}{i % n + 1}" for i in range(1, n + 1)}


def test_cyclic_boundary_facet_counts():
    assert len(sb.cyclic_boundary(3, 5).facets()) == 6
    assert len(sb.cyclic_boundary(4, 6).facets()) == 9
    assert len(sb.cyclic_boundary(4, 7).facets()) == 14
    assert sb.f_vector(sb.cyclic_boundary(4, 6)).proper == (6, 15, 18, 9)
    assert sb.f_vector(sb.cyclic_boundary(4, 7)).proper == (7, 21, 28, 14)


def test_cyclic_boundary_is_neighborly_in_dim_4():
    for n in (6, 8, 10):
        C = sb.cyclic_boundary(4, n)
        f = sb.f_vector(C)
        assert f[1] == comb(n, 2), n
        assert f[3] == n * (n - 3) // 2, n


def test_cyclic_boundary_two_dimensional_is_a_polygon():
    C = sb.cyclic_boundary(2, 6)
    assert sb.f_vector(C).proper == (6, 6)
    assert wl_profile(C) == wl_profile(sb.ngon(6))


def test_generator_range_guards():
    with pytest.raises(sb.RangeError):
        sb.simplex_boundary(13)
    with pytest.raises(sb.RangeError):
        sb.simplex_boundary(-1)
    with pytest.raises(sb.RangeError):
        sb.cross_polytope(0)
    with pytest.raises(sb.RangeError):
        sb.hypercube_boundary(7)
    with pytest.raises(sb.RangeError):
        sb.ngon(2)
    with pytest.raises(sb.RangeError):
        sb.ngon(8192)
    with pytest.raises(sb.RangeError):
        sb.cyclic_boundary(1, 5)
    with pytest.raises(sb.RangeError):
        sb.cyclic_boundary(4, 4)
    with pytest.raises(sb.RangeError):
        sb.cyclic_boundary(4, 17)
    # a size that is not an int, a bool not counting as one, is refused
    # with the message of a size out of range, showing its repr
    calls = [
        (sb.simplex_boundary, (True,), "need 0 <= d <= 12, got d=True"),
        (sb.simplex_boundary, (2.0,), "need 0 <= d <= 12, got d=2.0"),
        (sb.cross_polytope, (True,), "need 1 <= d <= 6, got d=True"),
        (sb.cross_polytope, (2.0,), "need 1 <= d <= 6, got d=2.0"),
        (sb.hypercube_boundary, (True,), "need 1 <= d <= 6, got d=True"),
        (sb.hypercube_boundary, (2.0,), "need 1 <= d <= 6, got d=2.0"),
        (sb.ngon, (True,), "need 3 <= n <= 8191, got n=True"),
        (sb.ngon, (4.0,), "need 3 <= n <= 8191, got n=4.0"),
        (sb.cyclic_boundary, (True, 7), "need 2 <= d <= 6, got d=True"),
        (sb.cyclic_boundary, (3.0, 7), "need 2 <= d <= 6, got d=3.0"),
        (sb.cyclic_boundary, (3, True), "need 4 <= n <= 16, got n=True"),
        (sb.cyclic_boundary, (3, 7.0), "need 4 <= n <= 16, got n=7.0"),
    ]
    for build, args, message in calls:
        with pytest.raises(sb.RangeError) as err:
            build(*args)
        assert str(err.value) == message, (build, args)
    # each size is admitted at both ends of its range, and refused just
    # past them with the same message
    guards = [
        (sb.simplex_boundary, "d", 0, 12),
        (sb.cross_polytope, "d", 1, 6),
        (sb.hypercube_boundary, "d", 1, 6),
        (sb.ngon, "n", 3, 8191),
        (lambda d: sb.cyclic_boundary(d, 7), "d", 2, 6),
        (lambda n: sb.cyclic_boundary(3, n), "n", 4, 16),
    ]
    for build, name, lo, hi in guards:
        for size in (lo - 1, hi + 1):
            with pytest.raises(sb.RangeError) as err:
                build(size)
            assert str(err.value) == f"need {lo} <= {name} <= {hi}, got {name}={size}"
        for size in (lo, hi):
            assert isinstance(build(size), sb.FaceLattice)


def test_generators_are_deterministic():
    for build in (
        lambda: sb.cross_polytope(2),
        lambda: sb.cyclic_boundary(4, 7),
        lambda: sb.hypercube_boundary(2),
        lambda: sb.punctured(sb.ngon(5)),
    ):
        assert build().fingerprint() == build().fingerprint()


# -- duality -------------------------------------------------------------


def test_cross_and_cube_are_dual():
    for d in (1, 2, 3):
        dual = sb.dualize(sb.cross_polytope(d))
        cube = sb.hypercube_boundary(d)
        assert sb.f_vector(dual).proper == sb.f_vector(cube).proper
        assert wl_profile(dual) == wl_profile(cube), d


def test_simplex_boundary_is_self_dual():
    for d in (1, 2, 3):
        S = sb.simplex_boundary(d)
        assert wl_profile(sb.dualize(S)) == wl_profile(S)


# -- punctured spheres ---------------------------------------------------


def test_punctured_octahedron():
    oct_ = sb.cross_polytope(2)
    B = sb.punctured(oct_)
    assert sb.f_vector(B).proper == (6, 12, 7)
    assert "123" not in B
    assert set(B.face_ids()) == set(oct_.face_ids()) - {"123"}
    bd = sb.boundary_complex(B)
    assert sb.f_vector(bd).proper == (3, 3)
    # the rim is exactly the boundary of the removed facet
    assert bd.members - {sb.BOTTOM_ID} == sb.sub_lattice(oct_, "123").down_set(
        "123", strict=True
    ) - {sb.BOTTOM_ID}


def test_punctured_polygon_is_a_path():
    B = sb.punctured(sb.ngon(4))
    assert sb.f_vector(B).proper == (4, 3)
    assert sb.f_vector(sb.boundary_complex(B)).proper == (2,)


def test_punctured_tetrahedron_surface():
    B = sb.punctured(sb.simplex_boundary(2))
    assert sb.f_vector(B).proper == (4, 6, 3)
    assert sb.f_vector(sb.boundary_complex(B)).proper == (3, 3)


def test_punctured_chosen_facet():
    oct_ = sb.cross_polytope(2)
    B = sb.punctured(oct_, "456")
    assert "456" not in B and "123" in B
    with pytest.raises(sb.InvalidFace):
        sb.punctured(oct_, "124")


def test_punctured_rejects_non_spheres():
    with pytest.raises(sb.PreconditionViolated):
        sb.punctured(sb.from_facets([[1, 2, 3], [2, 3, 4]]))
    with pytest.raises(sb.NotPseudomanifold):
        sb.punctured(sb.from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]]))


# -- corpus-wide invariants ----------------------------------------------


def test_sphere_corpus_invariants():
    for name, L in spheres_d_le_3():
        assert sb.is_lattice(L), name
        assert sb.is_diamond(L), name
        assert sb.is_pseudomanifold(L), name
        assert sb.boundary_complex(L).mask == 0, name
        f = sb.f_vector(L)
        euler = sum((-1) ** k * f[k] for k in range(L.dim + 1))
        assert euler == 1 - (-1) ** (L.dim + 1), name


def test_ball_corpus_invariants():
    for name, B in balls():
        assert sb.is_pseudomanifold(B), name
        bd = sb.boundary_complex(B)
        assert bd.mask != 0, name
        f = sb.f_vector(B)
        euler = sum((-1) ** k * f[k] for k in range(B.dim + 1))
        assert euler == 1, name
        assert sb.find_shelling(B) is not None, name


def test_punctured_cyclic_three_polytopes_trend():
    # ratios (f_k - f_k(bd)/2) / f_d approach the coefficient rho(d+1, k):
    # at k = d - 1 the simplicial equality pins it exactly, at k = 0 it
    # falls strictly toward the limit as n grows
    from fractions import Fraction

    ratios = []
    for n in range(5, 11):
        B = sb.punctured(sb.cyclic_boundary(3, n))
        f = sb.f_vector(B)
        fbd = sb.f_vector(sb.boundary_complex(B))
        assert Fraction(2 * f[1] - fbd[1], 2 * f[2]) == Fraction(3, 2), n
        ratios.append(Fraction(2 * f[0] - fbd[0], 2 * f[2]))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(r > Fraction(1, 2) for r in ratios)
    assert ratios[-1] - Fraction(1, 2) < Fraction(1, 4)


# -- cyclic comparison reports -------------------------------------------


def test_gubt_octahedron_beats_cyclic():
    report = sb.gubt_compare(sb.cross_polytope(2), 3, 5)
    assert report.simplicial and report.all_ok
    assert (report.facets_p, report.facets_c) == (8, 6)
    assert [(r.k, r.f_p, r.f_c, r.ok) for r in report.rows] == [
        (0, 6, 5, True),
        (1, 12, 9, True),
        (2, 8, 6, True),
    ]


def test_gubt_identical_complexes():
    report = sb.gubt_compare(sb.simplex_boundary(2), 3, 4)
    assert report.all_ok
    assert all(r.f_p == r.f_c for r in report.rows)


def test_gubt_cube_reports_nonsimplicial():
    report = sb.gubt_compare(sb.hypercube_boundary(2), 3, 5)
    assert not report.simplicial
    assert report.all_ok
    assert (report.facets_p, report.facets_c) == (6, 6)


def test_gubt_hypothesis_not_met():
    with pytest.raises(sb.HypothesisNotMet):
        sb.gubt_compare(sb.simplex_boundary(2), 3, 6)


def test_gubt_rejects_bad_input():
    with pytest.raises(sb.PreconditionViolated):
        sb.gubt_compare(sb.cross_polytope(2), 4, 6)
    with pytest.raises(sb.PreconditionViolated):
        sb.gubt_compare(sb.from_facets([[1, 2, 3], [2, 3, 4]]), 3, 4)
    with pytest.raises(sb.NotShellable):
        sb.gubt_compare(
            sb.from_facets([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]), 2, 6
        )


def test_gubt_json_shape():
    data = sb.gubt_compare(sb.cross_polytope(2), 3, 5).to_json_dict()
    assert sorted(data) == [
        "all_ok", "d", "facets_c", "facets_p", "n", "rows", "simplicial",
    ]
    assert data["rows"][0] == {"k": 0, "f_p": 6, "f_c": 5, "ok": True}
