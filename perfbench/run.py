#!/usr/bin/env python3
"""Layered benchmark for shellbound.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

runs one workload (``search``, ``proof``, ``cli``, ``lattice``, or ``all``
for each in turn) against the sources in ``src/`` next to this directory.
It sets the workload up nine times (``setup_s`` is the median), then
makes a fixed number of passes over its items: the workload's pass count
for the default 25 s, scaled by ``--seconds``.  Every verdict is checked against a
known answer.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.

``--trace 1`` alternates untraced and traced passes.  Traced passes wrap
each public call in a span; per-layer times are span self times over one
set-up plus one pass, and ``trace.overhead_s`` is the traced minus the
untraced pass wall time.  Spans are written to ``perfbench/_out/``.

``--smoke`` runs the smallest rung of the workload once, in seconds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

DEFAULT_SECONDS = 25
SETUP_REPEATS = 9
RUN_DEADLINE_S = 150.0  # items not started by then count as failed

# (name, unit, better); BENCHMARK.json lists the same
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("verdict_p50_s", "s", "lower"),
    ("verdict_tail_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("report_bytes", "bytes", "lower"),
]

CLI_COMMANDS = [
    "gen", "find-shelling", "check-shelling", "bounds", "corollaries", "witness", "gubt"
]

PER_LAYER = (
    [
        ("generators.gen_s", "s", "lower"),
        ("lattice.build_s", "s", "lower"),
        ("lattice.elements", "count", "lower"),
        ("lattice.json_s", "s", "lower"),
        ("lattice.is_lattice_s", "s", "lower"),
        ("lattice.is_diamond_s", "s", "lower"),
        ("lattice.dualize_s", "s", "lower"),
        ("lattice.sub_lattice_s", "s", "lower"),
        ("lattice.subcomplex_s", "s", "lower"),
        ("shelling.find_s", "s", "lower"),
        ("shelling.find_nodes", "count", "lower"),
        ("shelling.verify_s", "s", "lower"),
        ("shelling.reject_s", "s", "lower"),
        ("shelling.cert_nodes", "count", "lower"),
        ("shelling.cert_nodes_distinct", "count", "lower"),
        ("shelling.cert_json_s", "s", "lower"),
        ("shelling.cert_json_bytes", "bytes", "lower"),
        ("bounds.verify_lower_bound_s", "s", "lower"),
        ("bounds.facet_decomposition_s", "s", "lower"),
        ("bounds.witness_s", "s", "lower"),
        ("bounds.split_count_s", "s", "lower"),
        ("bounds.corollary_s", "s", "lower"),
        ("bounds.nodes", "count", "lower"),
        ("cli.startup_s", "s", "lower"),
    ]
    + [
        (f"cli.{c}{suffix}", unit, "lower")
        for c in CLI_COMMANDS
        for suffix, unit in (("_s", "s"), ("_bytes", "bytes"))
    ]
    + [
        ("cli.rejected_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("fail_ratio", "ratio", "lower"),
        ("wrong_verdicts", "count", "lower"),
        ("verdict.samples", "count", "higher"),
        ("verdict.tail_pct", "%", "higher"),
    ]
)

def load_library():
    """Import shellbound from the sources beside this benchmark, never from
    an installed copy."""
    if not (SRC / "shellbound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shellbound sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import shellbound

    if Path(shellbound.__file__).resolve().parent != SRC / "shellbound":
        raise SystemExit(f"perfbench: imported shellbound from {shellbound.__file__}")
    return shellbound


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.joinpath("shellbound").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def tail(timings: list) -> tuple[float, int]:
    """The highest whole percentile with at least ten timings beyond it
    (nearest rank), and that percentile; the maximum below 11 samples."""
    ordered = sorted(timings)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    return ordered[math.ceil(pct * n / 100) - 1], pct


def counters_consistent(passes: list, state_file: Path) -> str:
    """Empty when every pass counted the same and a previous run of the
    same seed and code did too; otherwise what differed."""
    first = passes[0]
    for p in passes[1:]:
        if p.counters != first.counters or p.outputs != first.outputs:
            return "counters or outputs differ between passes"
    record = {"counters": first.counters, "outputs": first.outputs}
    if state_file.exists():
        if json.loads(state_file.read_text()) != record:
            return f"counters or outputs differ from an earlier run ({state_file.name})"
    else:
        state_file.parent.mkdir(parents=True, exist_ok=True)
        state_file.write_text(json.dumps(record, sort_keys=True))
    return ""


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def timings_of(passes: list) -> list:
    return [t for p in passes for t, _ in p.timings]


def end_to_end(workload, passes: list, setups: list) -> dict:
    timings = timings_of(passes)
    value, _ = tail(timings)
    return {
        "setup_s": statistics.median(s.wall for s in setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "verdict_p50_s": statistics.median(timings),
        "verdict_tail_s": value,
        "peak_rss_mib": peak_rss_mib(workload.uses_children),
        "report_bytes": passes[0].counters.get("report_bytes", 0),
    }


def per_layer(h, traced: list, untraced: list, setups: list) -> dict:
    """Layer times over one set-up plus one pass; counts per pass (they
    repeat exactly); then the tracing overhead and the run summary."""
    out = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            out[name] = statistics.median(p.layer.get(name, 0.0) for p in traced) + (
                statistics.median(s.layer.get(name, 0.0) for s in setups)
            )
        else:
            out[name] = traced[0].counters.get(name, 0)
    out["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    out.update(summary(h, untraced))
    return out


def summary(h, passes: list) -> dict:
    """Failures and wrong verdicts over the whole run; the sample count
    and tail percentile of the timings the verdict metrics come from."""
    timings = timings_of(passes)
    _, pct = tail(timings)
    return {
        "fail_ratio": len(h.failures) / h.attempted,
        "wrong_verdicts": len(h.wrong),
        "verdict.samples": len(timings),
        "verdict.tail_pct": pct,
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the speed
    probe measures; the host's CPUs drift in speed independently."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(args) -> int:
    sb = load_library()
    pin_to_one_cpu()
    from harness import Harness
    from workloads import WORKLOADS, SetupError

    workload = WORKLOADS[args.workload]
    h = Harness(sb, deadline=perf_counter() + RUN_DEADLINE_S)
    traced = bool(args.trace)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    # a traced run needs an untraced and a traced pass
    passes = 1 if args.smoke else max(1, round(workload.passes * args.seconds / DEFAULT_SECONDS))
    passes = max(passes, 1 + args.trace)
    try:
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            with h.phase("setup", traced):
                inputs = workload.setup(h, args.seed, args.smoke, workdir)
        for i in range(passes):
            gc.collect()
            # a traced run alternates, starting untraced, to measure the overhead
            with h.phase("pass", traced and i % 2 == 1):
                workload.run_pass(h, inputs)
    except SetupError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups = [p for p in h.phases if p.kind == "setup"]
    pass_phases = [p for p in h.phases if p.kind == "pass"]
    untraced = [p for p in pass_phases if not p.traced]
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    inconsistent = counters_consistent(pass_phases, OUT / f"counters-{tag}-{code_hash()}.json")

    shown = {**end_to_end(workload, untraced, setups), **summary(h, untraced)}
    if traced:
        shown.update(per_layer(h, [p for p in pass_phases if p.traced], untraced, setups))
        write_spans(h, OUT / f"spans-{tag}.json")
    print(f"perfbench {args.workload} seed={args.seed} passes={passes} trace={args.trace}")
    print_details(h, workload, pass_phases, shown, inconsistent)

    declared = PER_LAYER if traced else END_TO_END
    result = {
        "correct": not (set(h.wrong) - workload.known_wrong) and not inconsistent,
        "attempted": h.attempted,
        "failed": len(h.failures),
        "metrics": {n: {"value": shown[n], "unit": u} for n, u, _ in declared},
    }
    print(json.dumps(result))
    return 0


def print_details(h, workload, pass_phases: list, shown: dict, inconsistent: str) -> None:
    walls = ", ".join(
        f"{p.wall:.3f}/{p.raw_wall:.3f}{' traced' if p.traced else ''}" for p in pass_phases
    )
    print(f"  pass wall, reference/raw seconds: {walls}")
    units = {n: u for n, u, _ in END_TO_END + PER_LAYER}
    for name, value in shown.items():
        print(f"  {name:32} {value:<14.6g} {units[name]}")
    for item, kind, detail in h.failures:
        print(f"  failed {item}: {kind}: {detail}")
    for item, mismatch in sorted(h.wrong.items()):
        known = " (known defect)" if item in workload.known_wrong else ""
        print(f"  wrong {item}: {mismatch}{known}")
    if inconsistent:
        print(f"  invalid: {inconsistent}")
    slowest = sorted((t for p in pass_phases if not p.traced for t in p.timings), reverse=True)
    print("  slowest items: " + ", ".join(f"{item} {t:.3f}" for t, item in slowest[:12]))


def write_spans(h, path: Path) -> None:
    origin = h.spans[0][3] if h.spans else 0.0
    rows = [
        {"id": i, "name": name, "item": item, "parent": parent,
         "start": start - origin, "end": end - origin, "self": self_s}
        for i, (name, item, parent, start, end, self_s, _) in enumerate(h.spans)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows))


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            argv.append("--smoke")
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=["search", "proof", "cli", "lattice", "all"]
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="smallest rung, one pass")
    args = p.parse_args(argv)
    if args.workload == "all":
        load_library()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
