"""Compare two source trees on one perfbench workload, in alternating pairs.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload search --seed 11,17 --pairs 10

runs ``perfbench/run.py --trace 0`` in each tree, alternately: the parent
first on odd pairs (1, 3, ...), the change first on even ones.  For every
end-to-end metric that ``BENCHMARK.json`` names, it then prints the
parent's median and quartiles, the change's median, the change in %, in
how many pairs the change did better (strictly, in the metric's declared
direction), and a verdict, the first of these that holds:

* ``gain``: the change won at least 9 in 10 of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound``, read as a fraction of the parent's median;
* ``unresolved``: the parent's interquartile range is wider than that
  bound, so the runs spread too far to call the metric unchanged;
* ``flat``: anything else.

A metric without a ``bound`` is ``gain`` or ``flat``.  ``--workload search,proof`` names several
workloads: the pairs run for each in turn, and each gets its own table.
``all`` stands for every workload that ``BENCHMARK.json`` names, in its
order.  ``--seed 11,17`` names several seeds: each workload runs at each
seed in turn, with one table per workload and seed.
A run whose result says ``correct`` false or ``failed`` above 0 is
flagged, and the exit code is then 1; a run that exits nonzero or prints
no result stops the comparison with exit 1.

With ``--trace``, after the pairs of each workload and seed it makes one
``--trace 1`` run per tree, parent first, and prints every ``per_layer``
metric that ``BENCHMARK.json`` names: the parent's value, the change's and
the change in %.  These are single runs, to show where a change moved
time or work, and get no verdict; their flags count as above.

Each tree is run from its own directory with this interpreter, so run
both from copies that hold nothing but their committed files.  Python
runs a cached module whenever the source's size and time stamp match
what its bytecode recorded, which a copy can reproduce from other
sources.  So before the first run every ``__pycache__`` directory under
``src/`` and ``perfbench/`` of both trees is removed; bytecode that the
runs themselves write there is compiled from the tree's own sources.
``BENCHMARK.json`` is read from CHANGE_DIR.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from itertools import product
from pathlib import Path


def result_of(stdout: str) -> dict:
    """The result object perfbench prints as its last line of output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        if proc.returncode:
            raise ValueError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
        return result_of(proc.stdout)
    except ValueError as e:
        raise SystemExit(f"pairs: perfbench in {tree}: {e}") from None


def flags(side: str, results: list[dict]) -> list[str]:
    """One line per run, 1-based, that is not correct or failed an item."""
    out = []
    for i, res in enumerate(results, 1):
        if res.get("correct") is not True or res.get("failed", 0) > 0:
            out.append(
                f"flagged: {side} run {i}: correct={res.get('correct')} "
                f"failed={res.get('failed')}"
            )
    return out


def verdict(m: dict, q1: float, med: float, q3: float, c_med: float, wins: int,
            pairs: int) -> str:
    """The verdict on one metric, by the rules in the module docstring."""
    worsening = c_med - med if m.get("better", "lower") == "lower" else med - c_med
    bound = m.get("bound")
    if 10 * wins >= 9 * pairs and -worsening > q3 - q1:
        return "gain"
    if bound is not None and worsening > bound * abs(med):
        return "worse"
    if bound is not None and q3 - q1 > bound * abs(med):
        return "unresolved"
    return "flat"


def summary(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per metric: the parent's quartiles (q1, median, q3), the change's
    median, the change in % of the parent's median (None when that is 0),
    the pairs the change won, and the verdict.  ``parent[i]`` and
    ``change[i]`` are the two runs of pair i."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m.get("better", "lower") == "lower"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        q1, med, q3 = statistics.quantiles(p, n=4, method="inclusive") if len(p) > 1 else p * 3
        c_med = statistics.median(c)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        rows.append({
            "name": name, "unit": m.get("unit", ""), "parent_q1": q1, "parent_median": med,
            "parent_q3": q3, "change_median": c_med,
            "change_pct": None if med == 0 else 100 * (c_med - med) / med,
            "wins": wins, "pairs": len(p),
            "verdict": verdict(m, q1, med, q3, c_med, wins, len(p)),
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    out = [f"{'metric':16} {'parent q1':>11} {'median':>11} {'q3':>11} "
           f"{'change med':>11} {'change':>8}  wins  verdict"]
    for r in rows:
        pct = "n/a" if r["change_pct"] is None else f"{r['change_pct']:+.1f}%"
        out.append(
            f"{r['name']:16} {r['parent_q1']:>11.6g} {r['parent_median']:>11.6g} "
            f"{r['parent_q3']:>11.6g} {r['change_median']:>11.6g} {pct:>8}  "
            f"{r['wins']:>2}/{r['pairs']:<2} {r['verdict']}"
        )
    return out


def format_layers(layers: list[dict], parent: dict, change: dict) -> list[str]:
    """One line per per-layer metric of one traced run per tree: the
    parent's value, the change's and the change in %."""
    def cell(value) -> str:
        return "n/a" if value is None else format(value, ".6g")

    out = [f"{'metric':30} {'parent':>11} {'change':>11} {'change':>8}"]
    for m in layers:
        p, c = (r["metrics"].get(m["name"], {}).get("value") for r in (parent, change))
        # a metric one tree does not report, or 0 at the parent, has no %
        pct = "n/a" if not p or c is None else f"{100 * (c - p) / p:+.1f}%"
        out.append(f"{m['name']:30} {cell(p):>11} {cell(c):>11} {pct:>8}")
    return out


def compare(args, workload: str, seed: int, metrics: list[dict],
            layers: list[dict]) -> list[str]:
    """Run the pairs for one workload at one seed, print its table, and
    with ``--trace`` the per-layer lines of one traced run per tree;
    return the flag lines."""
    parent, change = [], []
    for i in range(1, args.pairs + 1):
        if i % 2:
            parent.append(run_once(args.parent, workload, seed))
            change.append(run_once(args.change, workload, seed))
        else:
            change.append(run_once(args.change, workload, seed))
            parent.append(run_once(args.parent, workload, seed))
        print(f"{workload} seed={seed} pair {i} done "
              f"({'parent' if i % 2 else 'change'} first)", file=sys.stderr)

    print(f"{workload} seed={seed} pairs={args.pairs}")
    for line in format_rows(summary(metrics, parent, change)):
        print(line)
    flagged = flags("parent", parent) + flags("change", change)
    for line in flagged:
        print(line)
    if args.trace:
        traced = [run_once(tree, workload, seed, trace=1) for tree in (args.parent, args.change)]
        print(f"{workload} seed={seed} traced: one run per tree, single runs, no verdict")
        for line in format_layers(layers, *traced):
            print(line)
        traced_flags = flags("parent traced", traced[:1]) + flags("change traced", traced[1:])
        for line in traced_flags:
            print(line)
        flagged += traced_flags
    return flagged


def clear_bytecode(trees: list[Path]) -> None:
    """Remove every ``__pycache__`` directory under ``src/`` and
    ``perfbench/`` of the trees."""
    for tree in trees:
        for part in ("src", "perfbench"):
            for cache in list((tree / part).rglob("__pycache__")):
                shutil.rmtree(cache)


def seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True,
                   help="a workload, several separated by commas, or all")
    p.add_argument("--seed", type=seed_list, default="0",
                   help="a seed, or several separated by commas")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", action="store_true",
                   help="after the pairs, one traced run per tree, per-layer metrics shown")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    named = args.workload.split(",")
    if not all(named):
        p.error("--workload names an empty workload")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = []
    for w in named:
        # perfbench's own "all" would print only its last workload's result
        workloads += [b["name"] for b in benchmark["workloads"]] if w == "all" else [w]
    metrics = benchmark["end_to_end"]
    clear_bytecode([args.parent, args.change])

    flagged = []
    for n, (workload, seed) in enumerate(product(workloads, args.seed)):
        if n:
            print()
        flagged += compare(args, workload, seed, metrics, benchmark.get("per_layer", []))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
