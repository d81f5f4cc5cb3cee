"""The four workloads: cold search, the proof route, CLI reports, and the
lattice layer at scale.

Each workload has a set-up that makes its inputs from the seed (timed as
``setup_s``) and a pass over its items (timed as ``wall_s``).  The library
receives only the generated complexes; every expected verdict comes from
``complexes`` or from a theorem named beside the check, never from the
code under test.  One check does call the library: an order that
``find_shelling`` returns must pass ``is_shelling``, since the search and
the verifier must agree.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import complexes as cx
from harness import FAILED, Harness

LIB_LIMIT = 30.0  # seconds per library item
CLI_LIMIT = 60.0  # seconds per CLI subprocess


# -- prepared complexes -------------------------------------------------------


@dataclass
class Prepared:
    """A generated, relabelled complex and the model that predicts it."""

    model: cx.Model
    parts: tuple  # build_lattice arguments
    lattice: object  # built once in set-up
    ids: dict  # model facet (vertex set) -> facet id in the lattice

    @property
    def name(self) -> str:
        return self.model.name

    def order_of(self, facets) -> list:
        return [self.ids[f] for f in facets]


def prepare(h: Harness, family: cx.Family, seed: int, puncture: bool = False) -> Prepared:
    sb = h.sb
    L0 = h.lib(family.call, family.metric, family.generate, sb)
    model = family.model
    if puncture:
        rng = random.Random(f"puncture:{seed}:{model.name}")
        facet = rng.choice(sorted(L0.facets()))
        with h.untimed():
            removed = cx.facet_vertices(L0)[facet]
        L0 = h.lib("generators.punctured", "generators.gen_s", sb.punctured, L0, facet)
        model = cx.punctured_model(model, removed)
    mapping = cx.relabel_map(L0, seed, model.name)
    parts = cx.relabelled_parts(L0, mapping)
    L = h.lib("lattice.build_lattice", "lattice.build_s", sb.build_lattice, *parts)
    with h.untimed():
        vmap = {v: mapping[v] for v in L0.faces(0)}
        mismatch = cx.structure_mismatch(L, model, vmap)
        if mismatch:
            raise SetupError(f"{model.name}: {mismatch}")
        by_vertices = {vs: f for f, vs in cx.facet_vertices(L).items()}
        ids = {s: by_vertices[frozenset(vmap[v] for v in s)] for s in model.facets}
    return Prepared(model, parts, L, ids)


class SetupError(Exception):
    """The generated inputs do not match their definition."""


def _clear_memo(sb) -> None:
    # the package exports this while the search memo is module-global
    clear = getattr(sb, "clear_search_memo", None)
    if clear is not None:
        clear()


def _fresh(h: Harness, c: Prepared):
    return h.lib("lattice.build_lattice", "lattice.build_s", h.sb.build_lattice, *c.parts)


def _pairs(c: Prepared, kind: str) -> list:
    facets = sorted(c.model.facets, key=sorted)
    return [
        (a, b) for a, b in combinations(facets, 2) if cx.pair_kind(c.model, a, b) == kind
    ]


def _cert_nodes(cert) -> tuple[int, int]:
    """Certificate nodes walked as a tree, and counted by object identity."""
    tree, seen, stack = 0, set(), [cert]
    while stack:
        node = stack.pop()
        tree += 1
        seen.add(id(node))
        stack.extend(step.sub_certificate for step in node.steps)
    return tree, len(seen)


def _order_mismatch(found, want_ids: set, prefix: tuple) -> Optional[str]:
    if set(found) != want_ids or len(found) != len(want_ids):
        return "order is not a permutation of the facets"
    if set(found[: len(prefix)]) != set(prefix):
        return "order does not start with the forced prefix"
    return None


# -- search ---------------------------------------------------------------------


def _search_families(smoke: bool) -> list:
    if smoke:
        return [
            (cx.simplex_boundary(4), False),
            (cx.cross_polytope(3), True),
            (cx.disjoint_tetrahedra(), False),
        ]
    return [
        (cx.simplex_boundary(4), False),
        (cx.simplex_boundary(5), False),
        (cx.simplex_boundary(6), False),
        (cx.cross_polytope(3), False),
        (cx.cross_polytope(4), False),
        (cx.hypercube_boundary(3), False),
        (cx.hypercube_boundary(4), False),
        (cx.cyclic_boundary(4, 8), False),
        (cx.cyclic_boundary(4, 10), False),
        (cx.cyclic_boundary(4, 12), False),
        (cx.cross_polytope(3), True),
        (cx.cyclic_boundary(4, 10), True),
        (cx.disjoint_tetrahedra(), False),
    ]


FIRST_TETRAHEDRON = frozenset("1234")


@dataclass
class SearchPlan:
    c: Prepared
    prefix: tuple  # two facets meeting in a ridge
    verify_order: Optional[tuple]  # for unshellable complexes: an order to reject
    verify_expect: Optional[tuple]  # (step, reason) for that order
    rejects: list  # (label, order, (step, reason))


def search_setup(h: Harness, seed: int, smoke: bool, workdir: Path) -> list:
    sb = h.sb
    plans = []
    for family, puncture in _search_families(smoke):
        c = prepare(h, family, seed, puncture)
        rng = random.Random(f"search:{seed}:{c.name}")
        a, b = rng.choice(_pairs(c, "ridge"))
        prefix = (c.ids[a], c.ids[b])
        rejects = []
        # the second facet meets the first in nothing, or in a face below a
        # ridge: step 2 fails whatever follows (step 1 passes, since every
        # facet here is a polytope)
        for kind, reason in (("disjoint", sb.EMPTY_INTERSECTION), ("lower", sb.NOT_PURE)):
            pairs = _pairs(c, kind)
            if pairs:
                a, b = rng.choice(pairs)
                rest = sorted(set(c.ids) - {a, b}, key=sorted)
                rng.shuffle(rest)
                rejects.append((kind, tuple(c.order_of([a, b] + rest)), (2, reason)))
        verify_order = verify_expect = None
        if not c.model.shellable:
            # two disjoint spheres: the first facet from the other component
            # meets nothing before it; every earlier step stays in one
            # simplex boundary, where any order shells
            facets = sorted(c.model.facets, key=sorted)
            rng.shuffle(facets)
            first = facets[0] <= FIRST_TETRAHEDRON
            step = next(
                j for j, f in enumerate(facets, 1) if (f <= FIRST_TETRAHEDRON) != first
            )
            verify_order = tuple(c.order_of(facets))
            verify_expect = (step, sb.EMPTY_INTERSECTION)
        plans.append(SearchPlan(c, prefix, verify_order, verify_expect, rejects))
    return plans


def search_pass(h: Harness, plans: list) -> None:
    for plan in plans:
        _search_complex(h, plan)


def _search_complex(h: Harness, plan: SearchPlan) -> None:
    sb = h.sb
    c = plan.c
    all_ids = set(c.ids.values())

    def cold_find(prefix: tuple):
        _clear_memo(sb)
        L = _fresh(h, c)
        bud = sb.SearchBudget()
        found = h.lib(
            "shelling.find_shelling", "shelling.find_s", sb.find_shelling, L, prefix, budget=bud
        )
        return found, bud.spent

    def check_found(prefix: tuple):
        def check(verdict):
            found, spent = verdict
            h.count("shelling.find_nodes", spent)
            if not c.model.shellable:
                return None if found is None else "found an order on an unshellable complex"
            if found is None:
                return "no order found on a shellable complex"
            return _order_mismatch(found.facets, all_ids, prefix)

        return check

    def cold_verify(order: tuple, metric: str):
        _clear_memo(sb)
        L = _fresh(h, c)
        return h.lib(
            "shelling.is_shelling", metric, sb.is_shelling, L, order, budget=sb.SearchBudget()
        )

    def check_rejected(expect: tuple):
        def check(verdict):
            if not isinstance(verdict, sb.ShellingFailure):
                return f"accepted; expected failure {expect}"
            got = (verdict.step, verdict.reason)
            return None if got == expect else f"failure {got}; expected {expect}"

        return check

    found = h.item(f"search/{c.name}/find", lambda: cold_find(()), check_found(()), LIB_LIMIT)

    if c.model.shellable:
        cert = FAILED
        if found is FAILED or found[0] is None:
            h.skip(f"search/{c.name}/verify", "an order from find", LIB_LIMIT)
        else:
            order = found[0].facets

            def check_cert(verdict):
                if not isinstance(verdict, sb.ShellingCertificate):
                    return f"found order rejected: {verdict}"
                tree, distinct = _cert_nodes(verdict)
                h.count("shelling.cert_nodes", tree)
                h.count("shelling.cert_nodes_distinct", distinct)
                return None if verdict.order.facets == order else "certificate for another order"

            cert = h.item(
                f"search/{c.name}/verify",
                lambda: cold_verify(order, "shelling.verify_s"),
                check_cert,
                LIB_LIMIT,
            )
    else:
        h.item(
            f"search/{c.name}/verify",
            lambda: cold_verify(plan.verify_order, "shelling.reject_s"),
            check_rejected(plan.verify_expect),
            LIB_LIMIT,
        )

    h.item(
        f"search/{c.name}/prefix",
        lambda: cold_find(plan.prefix),
        check_found(plan.prefix),
        LIB_LIMIT,
    )

    for label, order, expect in plan.rejects:
        h.item(
            f"search/{c.name}/reject-{label}",
            lambda: cold_verify(order, "shelling.reject_s"),
            check_rejected(expect),
            LIB_LIMIT,
        )

    if not c.model.shellable:
        return
    if not isinstance(cert, sb.ShellingCertificate):
        h.skip(f"search/{c.name}/serialise", "a certificate from verify", LIB_LIMIT)
        return

    def serialise():
        return h.lib(
            "shelling.ShellingCertificate.to_json_dict",
            "shelling.cert_json_s",
            lambda: json.dumps(cert.to_json_dict()),
        )

    def check_json(text):
        n = len(text.encode())
        h.count("shelling.cert_json_bytes", n)
        h.count("report_bytes", n)
        if json.loads(text)["order"] != list(cert.order.facets):
            return "serialised certificate names another order"
        return None

    h.item(f"search/{c.name}/serialise", serialise, check_json, LIB_LIMIT)


# -- proof ----------------------------------------------------------------------


def _proof_families(smoke: bool) -> list:
    if smoke:
        return [(cx.cross_polytope(2), False), (cx.simplex_boundary(3), True)]
    return [
        (cx.simplex_boundary(4), False),
        (cx.cross_polytope(3), False),
        (cx.cross_polytope(4), False),
        (cx.hypercube_boundary(3), False),
        (cx.hypercube_boundary(4), False),
        (cx.cyclic_boundary(4, 8), False),
        (cx.cyclic_boundary(4, 10), False),
        (cx.cross_polytope(3), True),
        (cx.simplex_boundary(4), True),
    ]


def proof_setup(h: Harness, seed: int, smoke: bool, workdir: Path) -> list:
    return [prepare(h, family, seed, puncture) for family, puncture in _proof_families(smoke)]


def proof_pass(h: Harness, prepared: list) -> None:
    for c in prepared:
        _proof_route(h, c)


def _proof_route(h: Harness, c: Prepared) -> None:
    """The paper's proof route on one complex, with one search memo."""
    sb = h.sb
    m = c.model
    d = m.dim
    n = m.f[-1]
    j_mid = n // 2
    base = f"proof/{c.name}"
    state = {}

    def find():
        _clear_memo(sb)
        L = _fresh(h, c)
        bud = sb.SearchBudget()
        found = h.lib("shelling.find_shelling", "shelling.find_s", sb.find_shelling, L, budget=bud)
        return L, found, bud.spent

    def check_find(verdict):
        L, found, spent = verdict
        h.count("shelling.find_nodes", spent)
        if found is None:
            return "no order found on a shellable complex"
        state["L"], state["seq"] = L, found.facets
        return _order_mismatch(found.facets, set(c.ids.values()), ())

    def report(obj) -> None:
        h.count("report_bytes", len(json.dumps(obj.to_json_dict(), sort_keys=True)))

    def check_bound(k):
        def check(r):
            report(r)
            if (r.k, r.lhs) != (k, m.f[k]):
                return f"k={r.k} lhs={r.lhs}; expected k={k} lhs={m.f[k]}"
            return None if r.ok else f"bound fails at k={k} on a shellable complex"

        return check

    def check_decomposition(r):
        if tuple(r.order) != state["seq"] or [s.facet for s in r.splits] != list(state["seq"]):
            return "decomposition does not follow the order"
        return None

    def check_witness(j):
        def check(w):
            report(w)
            if w.split != j or not (w.begin_in_interior and w.end_in_interior):
                return f"witness at j={j} is not interior to its sides"
            return None if w.begin_dim + w.end_dim <= d else "witness dimensions exceed d"

        return check

    def check_split(j, k):
        def check(r):
            if (r.j, r.k) != (j, k) or r.lhs != r.fk_begin + r.fk_end:
                return f"split count at j={j} k={k} is inconsistent"
            return None if r.ok else f"split count fails at j={j} k={k} on a shellable sphere"

        return check

    def check_corollary(k):
        # polytope boundaries: the complex and its dual are shellable
        def check(r):
            report(r)
            if r.k != k or not (r.dual_cl_shellable and r.cl_shellable):
                return f"corollary at k={k}: a polytope boundary not shellable both ways"
            flags = (r.facet_bound_ok, r.vertex_bound_ok, r.barany_ok)
            return None if False not in flags else f"corollary floor fails at k={k}"

        return check

    calls = [
        (f"bound-k{k}", "bounds.verify_lower_bound", "bounds.verify_lower_bound_s",
         lambda L, seq, bud, k=k: sb.verify_lower_bound(L, seq, k, budget=bud), check_bound(k))
        for k in range((d - 1) // 2, d + 1)
    ]
    calls.append(
        ("decomposition", "bounds.facet_decomposition", "bounds.facet_decomposition_s",
         lambda L, seq, bud: sb.facet_decomposition(L, seq, budget=bud), check_decomposition)
    )
    if m.sphere:
        calls += [
            (f"witness-j{j}", "bounds.find_witness_pair", "bounds.witness_s",
             lambda L, seq, bud, j=j: sb.find_witness_pair(L, seq, j, budget=bud), check_witness(j))
            for j in sorted({1, j_mid, n - 1})
        ]
        calls += [
            (f"split-j{j_mid}-k{k}", "bounds.check_split_count", "bounds.split_count_s",
             lambda L, seq, bud, k=k: sb.check_split_count(L, seq, j_mid, k, budget=bud),
             check_split(j_mid, k))
            for k in range(d // 2, d + 1)
        ]
        calls += [
            (f"corollary-k{k}", "bounds.corollary_bounds", "bounds.corollary_s",
             lambda L, seq, bud, k=k: sb.corollary_bounds(L, k, budget=bud), check_corollary(k))
            for k in range(d + 1)
        ]

    found = h.item(f"{base}/find", find, check_find, LIB_LIMIT)
    ready = found is not FAILED and "seq" in state
    for label, span, metric, fn, check in calls:
        if not ready:
            h.skip(f"{base}/{label}", "an order from find", LIB_LIMIT)
            continue

        def act(span=span, metric=metric, fn=fn):
            bud = sb.SearchBudget()
            return h.lib(span, metric, fn, state["L"], state["seq"], bud), bud.spent

        def checked(verdict, check=check):
            result, spent = verdict
            h.count("bounds.nodes", spent)
            return check(result)

        h.item(f"{base}/{label}", act, checked, LIB_LIMIT)


# -- cli --------------------------------------------------------------------------


@dataclass
class CliItem:
    label: str
    metric: str  # cli.<subcommand> or cli.rejected / cli.startup
    argv: list
    expect_code: int
    check: Optional[Callable]  # (stdout bytes) -> mismatch or None


@dataclass
class CliInputs:
    items: list
    env: dict
    workdir: Path
    probes: Path  # where each child writes the probes it took


def _cli_sizes(smoke: bool) -> dict:
    if smoke:
        return {
            "simplex": cx.simplex_boundary(3), "cross": cx.cross_polytope(2),
            "cube": cx.hypercube_boundary(2), "cyclic": (4, 6),
            "ball": cx.cross_polytope(2), "gen_simplex": 3, "gen_cyclic": (4, 7),
        }
    return {
        "simplex": cx.simplex_boundary(5), "cross": cx.cross_polytope(4),
        "cube": cx.hypercube_boundary(4), "cyclic": (4, 10),
        "ball": cx.cross_polytope(3), "gen_simplex": 10, "gen_cyclic": (6, 14),
    }


# the triangle 123 plus the edge 34: not pure, so no order is a shelling and
# the CLI should refuse it as input (exit 2)
NON_PURE = {
    "dim": 2,
    "faces": [
        {"id": i, "dim": len(i) - 1}
        for i in ("1", "2", "3", "4", "12", "13", "23", "34", "123")
    ],
    "covers": [
        ["1", "12"], ["2", "12"], ["1", "13"], ["3", "13"], ["2", "23"], ["3", "23"],
        ["3", "34"], ["4", "34"], ["12", "123"], ["13", "123"], ["23", "123"],
    ],
}


def cli_setup(h: Harness, seed: int, smoke: bool, workdir: Path) -> CliInputs:
    sb = h.sb
    # compiles the CLI module's bytecode, as an installed package has it
    importlib.import_module("shellbound.cli")
    sizes = _cli_sizes(smoke)
    rng = random.Random(f"cli:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    prepared = {}
    cyc_d, cyc_n = sizes["cyclic"]
    families = dict(sizes, cyclic=cx.cyclic_boundary(cyc_d, cyc_n))
    for role in ("simplex", "cross", "cube", "cyclic", "ball"):
        c = prepare(h, families[role], seed, puncture=(role == "ball"))
        prepared[role] = c
        text = h.lib(
            "lattice.lattice_to_json_dict",
            "lattice.json_s",
            lambda L=c.lattice: json.dumps(sb.lattice_to_json_dict(L), sort_keys=True, indent=2),
        )
        paths[role] = workdir / f"{role}.json"
        paths[role].write_text(text + "\n", encoding="utf-8")
        if role == "cross":
            cut = len(text) // 4 + rng.randrange(len(text) // 2)
            paths["truncated"] = workdir / "truncated.json"
            paths["truncated"].write_text(text[:cut], encoding="utf-8")
    paths["non_pure"] = workdir / "non_pure.json"
    paths["non_pure"].write_text(json.dumps(NON_PURE, indent=2) + "\n", encoding="utf-8")

    simplex, cross, cyclic = prepared["simplex"], prepared["cross"], prepared["cyclic"]
    # any order of a simplex boundary's facets is a shelling
    simplex_order = sorted(simplex.ids.values())
    rng.shuffle(simplex_order)
    cross_d = cross.model.dim
    cross_order = cross.order_of(cx.cross_polytope_lex_order(cross_d, rng))
    split = rng.randrange(1, len(cross_order))
    gen_d = sizes["gen_simplex"]
    gen_cd, gen_cn = sizes["gen_cyclic"]
    memo: dict = {}

    def inp(role):
        return ["--input", str(paths[role])]

    items = [
        CliItem("version", "cli.startup", ["--version"], 0, _check_version),
        CliItem(f"gen-simplex-boundary-{gen_d}", "cli.gen",
                ["gen", "simplex-boundary", "--d", str(gen_d)], 0,
                _check_gen(cx.simplex_boundary(gen_d).model)),
        CliItem(f"gen-cyclic-boundary-{gen_cd}-{gen_cn}", "cli.gen",
                ["gen", "cyclic-boundary", "--d", str(gen_cd), "--n", str(gen_cn)], 0,
                _check_gen(cx.cyclic_boundary(gen_cd, gen_cn).model)),
    ]
    for role in ("cross", "cube", "cyclic"):
        c = prepared[role]
        items.append(CliItem(f"find-shelling-{c.name}", "cli.find-shelling",
                             ["find-shelling", *inp(role)], 0, _check_find(h, c, memo)))
    items += [
        CliItem(f"check-shelling-{simplex.name}", "cli.check-shelling",
                ["check-shelling", *inp("simplex"), "--order", ",".join(simplex_order)], 0,
                _check_accepted(simplex_order)),
        CliItem(f"check-shelling-{cross.name}", "cli.check-shelling",
                ["check-shelling", *inp("cross"), "--order", ",".join(cross_order)], 0,
                _check_accepted(cross_order)),
    ]
    for role in ("simplex", "cross", "cyclic", "ball"):
        c = prepared[role]
        items.append(CliItem(f"bounds-{c.name}", "cli.bounds", ["bounds", *inp(role)], 0,
                             _check_bounds(c)))
    for role in ("cube", "cyclic"):
        c = prepared[role]
        items.append(CliItem(f"corollaries-{c.name}", "cli.corollaries",
                             ["corollaries", *inp(role)], 0, _check_corollaries(c)))
    items += [
        CliItem(f"witness-{cross.name}", "cli.witness",
                ["witness", *inp("cross"), "--order", ",".join(cross_order), "--split", str(split)],
                0, _check_witness(cross_d, split)),
        CliItem(f"gubt-{cyclic.name}", "cli.gubt",
                ["gubt", *inp("cyclic"), "--d", str(cyc_d), "--n", str(cyc_n)], 0,
                _check_gubt(cyclic.model)),
        # malformed and hostile inputs
        CliItem("truncated-json", "cli.rejected", ["bounds", *inp("truncated")], 2, _check_silent),
        CliItem("non-permutation-order", "cli.rejected",
                ["check-shelling", *inp("cross"), "--order", ",".join(cross_order[:-1])], 2,
                _check_silent),
        CliItem("budget-3", "cli.rejected", ["find-shelling", *inp("cyclic"), "--budget", "3"], 3,
                _check_budget),
        CliItem("non-pure-find-shelling", "cli.rejected", ["find-shelling", *inp("non_pure")], 2,
                None),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sb.__file__).resolve().parent.parent)
    probes = workdir / "probes.txt"
    env["PERFBENCH_PROBES"] = str(probes)
    return CliInputs(items, env, workdir, probes)


PROBED = Path(__file__).resolve().parent / "probe.py"


def cli_pass(h: Harness, inputs: CliInputs) -> None:
    for it in inputs.items:
        def act(it=it):
            # python3 -m shellbound.cli ARGV, with the speed probe ticking
            # inside.  Output goes to files: Python 3.11 drops part of a large
            # write to a full pipe when a signal handler runs during it.
            out_path, err_path = inputs.workdir / "stdout", inputs.workdir / "stderr"
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = h.lib(
                    it.metric, it.metric + "_s", subprocess.run,
                    [sys.executable, str(PROBED), "shellbound.cli", *it.argv],
                    env=inputs.env, cwd=inputs.workdir, stdout=out, stderr=err,
                    timeout=CLI_LIMIT,
                )
            return proc.returncode, out_path.read_bytes()

        def check(verdict, it=it):
            code, out = verdict
            h.output(it.label, out)
            h.count("report_bytes", len(out))
            if it.metric not in ("cli.startup", "cli.rejected"):
                h.count(it.metric + "_bytes", len(out))
            if code != it.expect_code:
                return f"exit {code}, expected {it.expect_code}"
            return it.check(out) if it.check else None

        h.item(f"cli/{it.label}", act, check, CLI_LIMIT, child=inputs.probes)


def _envelope(out: bytes, command: str) -> dict:
    env = json.loads(out)
    if env.get("tool") != "shellbound" or env.get("command") != command:
        raise ValueError(f"not a {command} report")
    return env


def _check_version(out: bytes):
    return None if out.decode().startswith("shellbound ") else "no version line"


def _check_silent(out: bytes):
    return None if not out else "wrote a report for rejected input"


def _check_budget(out: bytes):
    env = _envelope(out, "find-shelling")
    return None if env["result"].get("error") == "BudgetExceeded" else "no BudgetExceeded report"


def _check_gen(model: cx.Model):
    def check(out: bytes):
        data = json.loads(out)
        counts = [0] * (model.dim + 1)
        for face in data["faces"]:
            counts[face["dim"]] += 1
        return None if tuple(counts) == model.f else f"face counts {counts}, expected {model.f}"

    return check


def _check_find(h: Harness, c: Prepared, memo: dict):
    def check(out: bytes):
        env = _envelope(out, "find-shelling")
        order = env["result"]["order"]
        if not (env["ok"] and env["result"]["found"]):
            return "no order found on a shellable complex"
        mismatch = _order_mismatch(order, set(c.ids.values()), ())
        if mismatch:
            return mismatch
        key = (c.name, tuple(order))
        if key not in memo:
            memo[key] = isinstance(h.sb.is_shelling(c.lattice, order), h.sb.ShellingCertificate)
        return None if memo[key] else "the returned order fails is_shelling"

    return check


def _check_accepted(order: list):
    def check(out: bytes):
        env = _envelope(out, "check-shelling")
        if not (env["ok"] and env["result"]["accepted"]):
            return "a known shelling was rejected"
        if env["result"]["certificate"]["order"] != order:
            return "certificate for another order"
        return None

    return check


def _check_bounds(c: Prepared):
    d = c.model.dim

    def check(out: bytes):
        env = _envelope(out, "bounds")
        if not env["ok"]:
            return "bound fails on a shellable complex"
        got = [(r["k"], r["lhs"]) for r in env["result"]["reports"]]
        want = [(k, c.model.f[k]) for k in range((d - 1) // 2, d + 1)]
        return None if got == want else f"reports {got}, expected {want}"

    return check


def _check_corollaries(c: Prepared):
    def check(out: bytes):
        env = _envelope(out, "corollaries")
        reports = env["result"]["reports"]
        if not env["ok"] or len(reports) != c.model.dim + 1:
            return "corollary floors fail on a polytope boundary"
        if not all(r["dual_cl_shellable"] and r["cl_shellable"] for r in reports):
            return "a polytope boundary not shellable both ways"
        return None

    return check


def _check_witness(d: int, split: int):
    def check(out: bytes):
        env = _envelope(out, "witness")
        w = env["result"]
        if not (env["ok"] and w["C_in_interior"] and w["D_in_interior"] and w["split"] == split):
            return "witness faces are not interior to their sides"
        return None if w["dim_C"] + w["dim_D"] <= d else "witness dimensions exceed d"

    return check


def _check_gubt(model: cx.Model):
    def check(out: bytes):
        env = _envelope(out, "gubt")
        rows = [(r["k"], r["f_p"], r["f_c"]) for r in env["result"]["rows"]]
        want = [(k, model.f[k], model.f[k]) for k in range(model.dim + 1)]
        if rows != want:
            return f"rows {rows}, expected {want}"
        if not (env["ok"] and env["result"]["all_ok"]):
            return "the cyclic polytope falls short of itself"
        return None

    return check


# -- lattice ----------------------------------------------------------------------


def _lattice_sizes(smoke: bool) -> dict:
    if smoke:
        return {
            "families": [cx.simplex_boundary(4), cx.hypercube_boundary(3),
                         cx.cross_polytope(3), cx.cyclic_boundary(4, 8)],
            "is_lattice": [cx.cross_polytope(2), cx.cyclic_boundary(4, 6)],
        }
    return {
        "families": [cx.simplex_boundary(10), cx.hypercube_boundary(6),
                     cx.cross_polytope(6), cx.cyclic_boundary(6, 14)],
        "is_lattice": [cx.cross_polytope(5), cx.hypercube_boundary(5), cx.cyclic_boundary(4, 16)],
    }


@dataclass
class LatticePlan:
    family: cx.Family
    parts: tuple
    puncture: str  # facet id in the relabelled lattice


@dataclass
class LatticeInputs:
    plans: list
    predicates: list  # (model, lattice) for is_lattice


def lattice_setup(h: Harness, seed: int, smoke: bool, workdir: Path) -> LatticeInputs:
    sizes = _lattice_sizes(smoke)
    plans = []
    for family in sizes["families"]:
        L0 = h.lib(family.call, family.metric, family.generate, h.sb)
        mapping = cx.relabel_map(L0, seed, family.name)
        rng = random.Random(f"lattice:{seed}:{family.name}")
        facet = mapping[rng.choice(sorted(L0.facets()))]
        plans.append(LatticePlan(family, cx.relabelled_parts(L0, mapping), facet))
    predicates = [(c.model, c.lattice) for c in (prepare(h, f, seed) for f in sizes["is_lattice"])]
    return LatticeInputs(plans, predicates)


def lattice_pass(h: Harness, inputs: LatticeInputs) -> None:
    sb = h.sb
    host = None
    for plan in inputs.plans:
        host = _lattice_family(h, plan)
    # every facet of the last family is a simplex: its boundary lattice has
    # 2^(d+1) elements
    last = inputs.plans[-1].family.model
    if host is FAILED:
        h.skip(f"lattice/{last.name}/sub_lattice", "the relabelled lattice", LIB_LIMIT)
    else:
        def check_subs(subs):
            h.count("lattice.elements", sum(len(s) for s in subs))
            ok = all(len(s) == 2 ** (last.dim + 1) and s.dim == last.dim - 1 for s in subs)
            return None if ok and len(subs) == last.f[-1] else "a facet boundary has the wrong size"

        h.item(
            f"lattice/{last.name}/sub_lattice",
            lambda: h.lib("lattice.sub_lattice", "lattice.sub_lattice_s",
                          lambda: [sb.sub_lattice(host, f) for f in host.facets()]),
            check_subs,
            LIB_LIMIT,
        )
    for model, L in inputs.predicates:
        h.item(
            f"lattice/{model.name}/is_lattice",
            lambda L=L: h.lib("lattice.is_lattice", "lattice.is_lattice_s", sb.is_lattice, L),
            lambda ok: None if ok is True else "a polytope's face lattice is not a lattice",
            LIB_LIMIT,
        )


def _same_lattice(a, b) -> bool:
    return (a.dim, a.ids, a.ranks, a.covers()) == (b.dim, b.ids, b.ranks, b.covers())


def _lattice_family(h: Harness, plan: LatticePlan):
    """Generation, relabelling, JSON, duality, the diamond property and
    subcomplexes of one large complex.  Returns the relabelled lattice."""
    sb = h.sb
    m = plan.family.model
    d = m.dim
    base = f"lattice/{m.name}"
    family = plan.family

    def sized(n):
        def check(L):
            h.count("lattice.elements", len(L))
            return None if len(L) == n else f"{len(L)} elements, expected {n}"

        return check

    L0 = h.item(f"{base}/generate", lambda: h.lib(family.call, family.metric, family.generate, sb),
                sized(m.elements), LIB_LIMIT)

    def check_built(L):
        h.count("lattice.elements", len(L))
        counts = tuple(len(L.faces(k)) for k in range(d + 1))
        return None if counts == m.f else f"face counts {counts}, expected {m.f}"

    L = h.item(f"{base}/build",
               lambda: h.lib(
                   "lattice.build_lattice", "lattice.build_s", sb.build_lattice, *plan.parts
               ),
               check_built, LIB_LIMIT)
    if L0 is FAILED or L is FAILED:
        for label in ("json", "dualize", "is_diamond", "punctured", "subcomplex"):
            h.skip(f"{base}/{label}", "the relabelled lattice", LIB_LIMIT)
        return FAILED

    def round_trip():
        text = h.lib("lattice.lattice_to_json_dict", "lattice.json_s",
                     lambda: json.dumps(sb.lattice_to_json_dict(L)))
        back = h.lib("lattice.lattice_from_json_dict", "lattice.json_s",
                     lambda: sb.lattice_from_json_dict(json.loads(text)))
        return text, back

    def check_round_trip(verdict):
        text, back = verdict
        h.count("report_bytes", len(text))
        h.count("lattice.elements", len(back))
        return None if _same_lattice(back, L) else "JSON round trip changed the lattice"

    h.item(f"{base}/json", round_trip, check_round_trip, LIB_LIMIT)

    def dual_twice():
        D = h.lib("lattice.dualize", "lattice.dualize_s", sb.dualize, L)
        return D, h.lib("lattice.dualize", "lattice.dualize_s", sb.dualize, D)

    def check_dual(verdict):
        D, DD = verdict
        h.count("lattice.elements", len(D) + len(DD))
        ranks = dict(zip(D.ids, D.ranks))
        if any(ranks[i] != d + 2 - r for i, r in zip(L.ids, L.ranks)):
            return "dual ranks are not complemented"
        return None if _same_lattice(DD, L) else "dualize is not an involution"

    h.item(f"{base}/dualize", dual_twice, check_dual, LIB_LIMIT)
    h.item(f"{base}/is_diamond",
           lambda: h.lib("lattice.is_diamond", "lattice.is_diamond_s", sb.is_diamond, L),
           lambda ok: None if ok is True else "a polytope boundary is not diamond", LIB_LIMIT)

    P = h.item(f"{base}/punctured",
               lambda: h.lib(
                   "generators.punctured", "generators.gen_s", sb.punctured, L, plan.puncture
               ),
               sized(m.elements - 1), LIB_LIMIT)
    if P is FAILED:
        h.skip(f"{base}/subcomplex", "the punctured ball", LIB_LIMIT)
        return L

    def subcomplexes():
        def run():
            bd = sb.boundary_complex(P)
            inner = sb.interior(P)
            return sb.f_vector(P), sb.f_vector(bd), sb.f_vector(inner)

        return h.lib("lattice.subcomplex", "lattice.subcomplex_s", run)

    def check_subcomplexes(verdict):
        fp, fbd, fint = verdict
        ball = m.f[:-1] + (m.f[-1] - 1,)
        bd = m.facet_boundary_f + (0,)  # f_-1 .. f_d of the removed facet's boundary
        want_p = (1,) + ball
        want_int = tuple(p - b for p, b in zip(want_p, bd))
        want_int = (0,) + want_int[1:]
        got = [tuple(fv[k] for k in range(-1, d + 1)) for fv in (fp, fbd, fint)]
        want = [want_p, bd, want_int]
        return None if got == want else f"f-vectors {got}, expected {want}"

    h.item(f"{base}/subcomplex", subcomplexes, check_subcomplexes, LIB_LIMIT)
    return L


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # passes in a run of the default length.  Fixed, so every run has the
    # same number of timing samples, and chosen so that the tail rank (the
    # 11th slowest timing) falls inside a group of repeats of items whose
    # cost does not move with the seed or the process (README.md); proof's
    # tail sits in a cluster of similar items with one pass
    passes: int
    setup: Callable
    run_pass: Callable
    # items that give a wrong verdict on the baseline, for a recorded defect;
    # they still count in wrong_verdicts
    known_wrong: frozenset = frozenset()
    uses_children: bool = False


WORKLOADS = {
    "search": Workload("search", 3, search_setup, search_pass),
    "proof": Workload("proof", 1, proof_setup, proof_pass),
    "cli": Workload(
        "cli", 2, cli_setup, cli_pass,
        # the triangle-plus-edge complex: find-shelling exits 0 where 2 is right
        known_wrong=frozenset({"cli/non-pure-find-shelling"}),
        uses_children=True,
    ),
    "lattice": Workload("lattice", 4, lattice_setup, lattice_pass),
}
