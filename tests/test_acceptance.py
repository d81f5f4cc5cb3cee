"""Acceptance gate: twelve end-to-end checks, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
check also has a wall-clock limit that is part of the verdict.
"""

import time
from fractions import Fraction
from itertools import permutations

import shellbound as sb
from shellbound import BOTTOM_ID

from corpus import balls, shelled_spheres_d_le_3, spheres_d_le_3
from oracles import naive_is_shelling


def _criterion(number: int, limit: float, body) -> None:
    t0 = time.monotonic()
    err = None
    ok = False
    try:
        ok = body()
    except Exception as e:  # still print the verdict line before re-raising
        err = e
    elapsed = time.monotonic() - t0
    verdict = ok and err is None and elapsed <= limit
    print(f"Criterion {number}: {'PASS' if verdict else 'FAIL'} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")
    if err is not None:
        raise err
    assert verdict, f"criterion {number} failed (elapsed {elapsed:.2f}s)"


def accepted_orders(L: sb.FaceLattice) -> list[tuple[str, ...]]:
    """Every facet order accepted by the step definition, by pruned
    depth-first enumeration (step checks only look at the prefix, so
    pruning loses nothing)."""
    d = L.dim
    facets = sorted(L.facets())
    subs = {f: sb.sub_lattice(L, f) for f in facets}
    out: list[tuple[str, ...]] = []

    def step_ok(chosen: list[str], f: str) -> bool:
        sub = subs[f]
        if not chosen:
            return sb.find_shelling(sub) is not None
        inter = sb.boundary_intersection(L, (*chosen, f), len(chosen) + 1)
        members = inter.members - {BOTTOM_ID}
        if not members:
            return False
        if inter.dim != d - 1 or not sb.is_pure(inter):
            return False
        ridges = [g for g in members if L.dim_of(g) == d - 1]
        return sb.find_shelling(sub, ridges) is not None

    def rec(chosen: list[str]) -> None:
        if len(chosen) == len(facets):
            out.append(tuple(chosen))
            return
        for f in facets:
            if f not in chosen and step_ok(chosen, f):
                chosen.append(f)
                rec(chosen)
                chosen.pop()

    rec([])
    return out


def test_criterion_01():
    def body():
        checks = []
        t = time.monotonic()
        oct_ = sb.cross_polytope(2)
        r = sb.verify_lower_bound(oct_, sb.find_shelling(oct_), 1)
        checks += [r.lhs == 12, r.rhs == 12, r.slack == 0,
                   r.equality, r.expected_equality, r.ok]
        checks.append(time.monotonic() - t < 1.0)
        t = time.monotonic()
        S = sb.simplex_boundary(3)
        r2 = sb.verify_lower_bound(S, sb.find_shelling(S), 2)
        checks += [r2.lhs == 10, r2.rhs == 10,
                   sb.rho(4, 2).value == 2, sb.f_vector(S)[3] == 5,
                   r2.equality, r2.expected_equality, r2.ok]
        checks.append(time.monotonic() - t < 1.0)
        return all(checks)

    _criterion(1, 2.5, body)


def test_criterion_02():
    def body():
        cube = sb.hypercube_boundary(2)
        r = sb.verify_lower_bound(cube, sb.find_shelling(cube), 1)
        return all([
            r.lhs == 12,
            r.rhs == 9,
            r.slack == 3,
            not r.equality,
            not r.expected_equality,
            r.ok,
        ])

    _criterion(2, 1.0, body)


def test_criterion_03():
    def body():
        B = sb.from_facets([[1, 2, 3], [2, 3, 4]])
        order = ("123", "234")
        r1 = sb.verify_lower_bound(B, order, 1)
        r0 = sb.verify_lower_bound(B, order, 0)
        return all([
            r1.lhs == 5,
            r1.rhs == Fraction(3, 2) * 2 + Fraction(4, 2),
            r1.equality and r1.expected_equality and r1.ok,
            r0.lhs == 4,
            r0.rhs == 3,
            r0.slack == 1,
            not r0.equality and not r0.expected_equality,
            r0.ok,
        ])

    _criterion(3, 1.0, body)


def test_criterion_04():
    def body():
        checks = []
        g = sb.ngon(4)
        checks.append(isinstance(
            sb.is_shelling(g, ("e12", "e23", "e34", "e41")), sb.ShellingCertificate
        ))
        bad = sb.is_shelling(g, ("e12", "e34", "e23", "e41"))
        checks.append(bad == sb.ShellingFailure(2, "EmptyIntersection"))
        oct_ = sb.cross_polytope(2)
        anti = sb.is_shelling(
            oct_, ("123", "456", "126", "135", "156", "234", "246", "345")
        )
        checks.append(isinstance(anti, sb.ShellingFailure) and anti.step == 2)
        for n in (4, 5):
            gn = sb.ngon(n)
            mine = {
                p for p in permutations(gn.facets())
                if isinstance(sb.is_shelling(gn, p), sb.ShellingCertificate)
            }
            oracle = {
                p for p in permutations(gn.facets()) if naive_is_shelling(gn, p)
            }
            checks.append(mine == oracle)
            checks.append(len(mine) > 0)
        return all(checks)

    _criterion(4, 10.0, body)


def test_criterion_05():
    def body():
        for name, L, order in shelled_spheres_d_le_3():
            for j in range(1, len(order)):
                w = sb.find_witness_pair(L, order, j)
                if not (w.begin_dim + w.end_dim <= L.dim
                        and w.begin_in_interior and w.end_in_interior):
                    return False
        return True

    _criterion(5, 60.0, body)


def test_criterion_06():
    def body():
        for name, L, order in shelled_spheres_d_le_3():
            delta = L.dim
            for j in range(len(order) + 1):
                for k in range(delta // 2, delta + 1):
                    if not sb.check_split_count(L, order, j, k).ok:
                        return False
        return True

    _criterion(6, 60.0, body)


def test_criterion_07():
    def body():
        for name, L in spheres_d_le_3():
            top_rank = L.dim + 2
            for x in (BOTTOM_ID, *L.face_ids()):
                for s in range(L.rank_of(x), top_rank):
                    count, meets = sb.upper_interval_count(L, x, s)
                    if not meets:
                        return False
            for coatom in L.facets():
                below = sorted(L.down_set(coatom, strict=True) - {BOTTOM_ID})
                for base in (None, *below):
                    atom = sb.atom_avoiding_coatom(L, coatom, base)
                    start = BOTTOM_ID if base is None else base
                    if L.rank_of(atom) != L.rank_of(start) + 1:
                        return False
                    if not L.leq(start, atom) or L.leq(atom, coatom):
                        return False
        return True

    _criterion(7, 30.0, body)


def test_criterion_08():
    def body():
        for d in range(1, 13):
            hi = (d + 2) // 2
            for total in range(d + 1, 2 * (d + 1) + 1):
                for a in range(total + 1):
                    for m in range(1, hi + 1):
                        if not sb.binomial_split_lb(a, total - a, d, m):
                            return False
            for k in range(d):
                if sb.vandermonde_check(d, k) != (k == d - 1):
                    return False
        return True

    _criterion(8, 5.0, body)


def test_criterion_09():
    def body():
        for L in (
            sb.cross_polytope(2),
            sb.hypercube_boundary(2),
            sb.simplex_boundary(3),
            sb.cyclic_boundary(4, 7),
        ):
            if not (sb.is_dual_cl_shellable(L) and sb.is_cl_shellable(L)):
                return False
            if not sb.barany_check(L):
                return False
            f = sb.f_vector(L)
            floor_value = min(f[0], f[L.dim])
            if not all(f[k] >= floor_value for k in range(L.dim + 1)):
                return False
        return True

    _criterion(9, 60.0, body)


def test_criterion_10():
    def body():
        ratios = []
        for n in range(6, 14):
            C = sb.cyclic_boundary(4, n)
            f = sb.f_vector(C)
            if f[3] != n * (n - 3) // 2:
                return False
            ratio = Fraction(f[1], f[3])
            if ratio != Fraction(n - 1, n - 3):
                return False
            ratios.append(ratio)
        return (
            all(a > b for a, b in zip(ratios, ratios[1:]))
            and all(r > sb.rho(4, 1).value for r in ratios)
            and ratios[-1] == Fraction(6, 5)
        )

    _criterion(10, 30.0, body)


def test_criterion_11():
    def body():
        for name, B in balls():
            inside = sb.interior(B)
            n = len(B.facets())
            orders = accepted_orders(B)
            if not orders:
                return False
            for order in orders:
                cert = sb.is_shelling(B, order)
                if not isinstance(cert, sb.ShellingCertificate):
                    return False
                last = sb.boundary_intersection(B, order, n)
                if sb.interior(last).mask & ~inside.mask:
                    return False
        return True

    _criterion(11, 30.0, body)


def test_criterion_12():
    def body():
        cases = list(shelled_spheres_d_le_3())
        cases += [(name, B, sb.find_shelling(B)) for name, B in balls()]
        for name, X, order in cases:
            d = X.dim
            if d < 1:
                continue
            decomp = sb.facet_decomposition(X, order)
            f = sb.f_vector(X)
            fbd = sb.f_vector(sb.boundary_complex(X))
            for k in range((d - 1) // 2, d):
                total = sum(
                    sb.f_vector(s.before_interior)[k] + sb.f_vector(s.after_interior)[k]
                    for s in decomp.splits
                )
                if total > 2 * f[k] - fbd[k]:
                    return False
            # membership disjointness, face by face
            bd_mask = sb.boundary_complex(X).mask
            for idx, face in enumerate(X.face_ids()):
                bit = 1 << X.index(face)
                n_before = sum(1 for s in decomp.splits if s.before_interior.mask & bit)
                n_after = sum(1 for s in decomp.splits if s.after_interior.mask & bit)
                if n_before > 1 or n_after > 1:
                    return False
                if (bd_mask & bit) and n_before:
                    return False
        return True

    _criterion(12, 60.0, body)
