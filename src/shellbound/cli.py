"""Command-line front end.

Every checking subcommand emits one report: a JSON object with the tool
version, the claim tag being checked, a sha256 of the input, the
parameters (the subcommand's own flags, as parsed), and the result.
The version also marks the report schema; README's "Certificate format"
section gives its history.  Each report is one ``json.dumps`` with
sorted keys and no white space, then a newline, so reports are
byte-stable given identical inputs and can be kept as golden files.
``gen`` is the exception: it emits the complex itself, in the same
compact JSON, ready to be fed back through ``--input``.

Exit codes: 0 all checks passed; 1 a mathematical check failed (the
report is still written); 2 usage or input error; 3 search budget
exceeded.  The argument parser refuses a malformed flag, ``--order``
included, before any input is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Union

from . import __version__
from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    InputError,
    InternalContradiction,
    LatticeBuildError,
    NoSuchAtom,
    NotAShelling,
    NotShellable,
)

if TYPE_CHECKING:
    from .lattice import FaceLattice
    from .shelling import SearchBudget

# Each subcommand imports the modules it runs inside the function that
# runs it, so that a run loads no other checking code: a fresh
# interpreter for every command pays for every module it imports.

# claim tags are protocol identifiers consumed by downstream tooling;
# do not rename
CLAIM_TAGS = {
    "gen": "corpus",
    "check-shelling": "Def2.8",
    "find-shelling": "Def2.8",
    "bounds": "Thm3.4",
    "witness": "Lem3.2",
    "corollaries": "Cor3.6",
    "gubt": "Thm4.1",
}

# each generated family's function in ``generators`` with the flags it
# reads, in argument order; ``punctured`` reads a base complex instead
_GENERATORS = {
    "simplex-boundary": ("simplex_boundary", ("--d",)),
    "cross-polytope": ("cross_polytope", ("--d",)),
    "hypercube-boundary": ("hypercube_boundary", ("--d",)),
    "ngon": ("ngon", ("--n",)),
    "cyclic-boundary": ("cyclic_boundary", ("--d", "--n")),
}
FAMILIES = (*_GENERATORS, "punctured")

# what a report's ``params`` leave out of the parsed arguments: the
# subcommand's name and the flags ``common`` gives every checking one
_COMMON = ("command", "input", "out", "format", "budget")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shellbound",
        description="Face lattices, shelling search, and exact face-number bounds.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--input", required=True, help="lattice JSON or facet-list file")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "tsv"), default="json")
        sp.add_argument("--budget", type=int, help="search node cap")

    g = sub.add_parser("gen", help="emit a corpus complex")
    g.add_argument("family", choices=FAMILIES)
    g.add_argument("--d", type=int, help="dimension parameter")
    g.add_argument("--n", type=int, help="vertex count parameter")
    g.add_argument("--input", help="base sphere (punctured only)")
    g.add_argument("--facet", help="facet to remove (punctured; default least id)")
    g.add_argument("--out", help="write the complex here instead of stdout")
    g.add_argument("--format", choices=("json", "text"), default="json")

    c = sub.add_parser("check-shelling", help="verify a facet order")
    common(c)
    c.add_argument("--order", type=_parse_order, required=True, help="comma-separated facet ids")

    f = sub.add_parser("find-shelling", help="search for a shelling order")
    common(f)
    f.add_argument("--order", type=_parse_order, dest="prefix", default=[], metavar="ORDER",
                   help="comma-separated facet ids to use as a prefix")

    b = sub.add_parser("bounds", help="verify the face-number lower bound")
    common(b)
    b.add_argument("--order", type=_parse_order,
                   help="shelling order (found automatically if omitted)")
    b.add_argument("--k", type=int, help="dimension to check (sweeps the range if omitted)")

    w = sub.add_parser("witness", help="construct the split witness pair")
    common(w)
    w.add_argument("--order", type=_parse_order, required=True, help="comma-separated facet ids")
    w.add_argument("--split", type=int, required=True, help="split position j")

    r = sub.add_parser("corollaries", help="shellability-conditional floors")
    common(r)
    r.add_argument("--k", type=int, help="dimension to check (sweeps all k if omitted)")

    u = sub.add_parser("gubt", help="compare a sphere against the cyclic boundary")
    common(u)
    u.add_argument("--d", type=int, required=True, help="cyclic polytope dimension")
    u.add_argument("--n", type=int, required=True, help="cyclic polytope vertex count")
    return p


# -- input / output ------------------------------------------------------


def _load_lattice(path: str) -> tuple[FaceLattice, str]:
    import hashlib

    from .lattice import from_facets, lattice_from_json_dict, parse_facet_text

    # the bytes and the text are let go once hashed and parsed, before
    # the lattice is built
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not text: {e}") from None
    del raw
    if not text.lstrip().startswith("{"):
        facets = parse_facet_text(text)
        del text
        return from_facets(facets), digest
    try:
        data = json.loads(text)
    # a JSONDecodeError is a ValueError, and so is an integer literal
    # longer than the interpreter's digit limit
    except (ValueError, RecursionError) as e:
        raise InputError(f"{path}: invalid JSON: {e}") from None
    del text
    return lattice_from_json_dict(data), digest


def _write_text(out: Union[str, None], text: str) -> None:
    """Writes ``text`` to the file ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(out: Union[str, None], obj) -> None:
    _write_text(out, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _flatten(value, path: str, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{path}.{key}" if path else str(key), rows)
    elif isinstance(value, list):
        if not value:
            rows.append((path, "[]"))
        for i, item in enumerate(value):
            _flatten(item, f"{path}.{i}" if path else str(i), rows)
    else:
        rows.append((path, json.dumps(value)))


def _emit(args: argparse.Namespace, envelope: dict) -> None:
    if args.format == "tsv":
        rows: list[tuple[str, str]] = []
        _flatten(envelope, "", rows)
        _write_text(args.out, "".join(f"{k}\t{v}\n" for k, v in rows))
    else:
        _write_json(args.out, envelope)


def _parse_order(raw: str) -> list[str]:
    ids = [part.strip() for part in raw.split(",")]
    if any(not part for part in ids):
        raise argparse.ArgumentTypeError("--order must be a comma-separated list of face ids")
    return ids


def _require(args: argparse.Namespace, flag: str) -> object:
    value = getattr(args, flag.lstrip("-"))
    if value is None:
        raise InputError(f"{args.family}: {flag} is required")
    return value


# -- subcommands ---------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import generators
    from .lattice import _down_sets, is_simplicial, lattice_to_json_dict

    if args.family in _GENERATORS:
        name, flags = _GENERATORS[args.family]
        L = getattr(generators, name)(*[_require(args, flag) for flag in flags])
    else:
        base, _ = _load_lattice(_require(args, "--input"))
        L = generators.punctured(base, args.facet)
    if args.format == "text":
        if not is_simplicial(L):
            raise InputError("facet-list text output needs a simplicial complex")
        # a facet's vertices are the rank-1 part of its down-set, in index
        # order, which within a rank is id order
        down, vertices = _down_sets(L), L._rank_masks[1]
        lines = [" ".join(L._ids_of(down[L.index(f)] & vertices)) for f in L.facets()]
        _write_text(args.out, "\n".join(lines) + "\n")
    else:
        _write_json(args.out, lattice_to_json_dict(L))
    return 0


def _params(args: argparse.Namespace) -> dict:
    """The report's ``params``: the subcommand's own flags, as parsed, the
    same whether the run is accepted, rejected or stopped by an error."""
    return {name: value for name, value in vars(args).items() if name not in _COMMON}


def _dispatch(
    args: argparse.Namespace, params: dict, L: FaceLattice, bud: SearchBudget
) -> tuple[dict, bool]:
    """Returns (result, ok) for one checking subcommand, run on the
    ``params`` that :func:`_params` read."""
    from .shelling import ShellingFailure, find_shelling, is_shelling

    command = args.command
    if command == "check-shelling":
        outcome = is_shelling(L, params["order"], budget=bud)
        if isinstance(outcome, ShellingFailure):
            return {"accepted": False, "failure": outcome.to_json_dict()}, False
        return {"accepted": True, "certificate": outcome.to_json_dict()}, True

    if command == "find-shelling":
        found = find_shelling(L, params["prefix"], budget=bud)
        if found is None:
            return {"found": False, "order": None}, False
        return {"found": True, "order": list(found.facets)}, True

    # the remaining reports follow the proof route
    from .bounds import corollary_bounds, find_witness_pair, gubt_compare, verify_lower_bound

    if command == "bounds":
        order = params["order"]
        if order is None:
            search = find_shelling(L, budget=bud)
            if search is None:
                raise NotShellable("no shelling found")
            order = search.facets
        d = L.dim
        ks = [params["k"]] if params["k"] is not None else list(range((d - 1) // 2, d + 1))
        reports = [verify_lower_bound(L, order, k, budget=bud) for k in ks]
        result = {
            "order": list(order),
            "reports": [r.to_json_dict() for r in reports],
        }
        return result, all(r.ok for r in reports)

    if command == "witness":
        pair = find_witness_pair(L, params["order"], params["split"], budget=bud)
        return pair.to_json_dict(), True

    if command == "corollaries":
        ks = [params["k"]] if params["k"] is not None else list(range(L.dim + 1))
        reports = [corollary_bounds(L, k, budget=bud) for k in ks]
        ok = all(
            flag is not False
            for r in reports
            for flag in (r.facet_bound_ok, r.vertex_bound_ok, r.barany_ok)
        )
        return {"reports": [r.to_json_dict() for r in reports]}, ok

    if command == "gubt":
        report = gubt_compare(L, params["d"], params["n"], budget=bud)
        return report.to_json_dict(), report.all_ok


def _cmd_report(args: argparse.Namespace) -> int:
    from .shelling import _as_budget

    L, digest = _load_lattice(args.input)
    bud = _as_budget(args.budget)
    params = _params(args)
    code = 0
    try:
        result, ok = _dispatch(args, params, L, bud)
        if not ok:
            code = 1
    except NotAShelling as e:
        result = {"error": "NotAShelling", "failure": e.failure.to_json_dict()}
        ok, code = False, 1
    except (NotShellable, HypothesisNotMet, InternalContradiction, NoSuchAtom) as e:
        result = {"error": type(e).__name__, "detail": str(e)}
        ok, code = False, 1
    except BudgetExceeded as e:
        result = {"error": "BudgetExceeded", "detail": str(e)}
        ok, code = False, 3
    envelope = {
        "tool": "shellbound",
        "version": __version__,
        "command": args.command,
        "claim": CLAIM_TAGS[args.command],
        "input_sha256": digest,
        "params": params,
        "result": result,
        "ok": ok,
    }
    _emit(args, envelope)
    return code


def run(argv: Union[list, None] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_report(args)
    except (InputError, LatticeBuildError, OSError) as e:
        print(f"shellbound: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
