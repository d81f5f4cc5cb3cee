"""The summary of ``tools/pairs.py`` on canned perfbench result lines."""

import importlib.util
import json
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "report_bytes", "unit": "bytes", "better": "lower", "bound": 0.1},
    {"name": "score", "unit": "count", "better": "higher"},
]


def _line(wall: float, correct: bool = True, failed: int = 0) -> str:
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "report_bytes": {"value": 100, "unit": "bytes"},
        "score": {"value": 10 * wall, "unit": "count"},
    }
    result = {"correct": correct, "attempted": 5, "failed": failed, "metrics": metrics}
    return "perfbench search seed=11 passes=3 trace=0\n  details\n" + json.dumps(result) + "\n"


def test_result_is_the_last_line():
    assert pairs.result_of(_line(0.5))["metrics"]["wall_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        pairs.result_of("\n")


def test_summary_of_five_pairs():
    parent = [pairs.result_of(_line(w)) for w in (1.0, 1.2, 1.1, 1.4, 1.3)]
    change = [pairs.result_of(_line(w)) for w in (0.9, 1.3, 1.0, 1.0, 1.0)]
    wall, size, score = pairs.summary(METRICS, parent, change)
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) == pytest.approx(
        (1.1, 1.2, 1.3)
    )
    assert wall["change_median"] == 1.0
    assert wall["change_pct"] == pytest.approx(-100 / 6)
    assert (wall["wins"], wall["pairs"]) == (4, 5)
    # 4 of 5 pairs is too few for a gain
    assert wall["verdict"] == "flat"
    # a tie is no win, and a zero median gives no percentage
    assert (size["change_pct"], size["wins"]) == (0.0, 0)
    # higher is better: the change wins where it is larger
    assert score["wins"] == 1
    zero = [pairs.result_of(_line(0.0))]
    assert pairs.summary(METRICS[:1], zero, zero)[0]["change_pct"] is None
    assert len(pairs.format_rows([wall, size, score])) == 4


def _verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    name = metric["name"]

    def runs(values):
        return [{"metrics": {name: {"value": v}}} for v in values]

    return pairs.summary([metric], runs(parent), runs(change))[0]["verdict"]


def test_verdicts():
    wall = METRICS[0]
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    # 10/10 pairs, and the medians 0.2 apart against a spread of 0.02
    assert _verdict(wall, parent, [v - 0.2 for v in parent]) == "gain"
    # 8/10 pairs is too few for a gain, however large the difference
    assert _verdict(wall, parent, [0.5] * 8 + [1.5] * 2) == "flat"
    # every pair won, but by less than the parent's spread
    assert _verdict(wall, parent, [v - 0.001 for v in parent]) == "flat"
    # worse by more than the bound, a quarter of the parent's median
    assert _verdict(wall, parent, [v + 0.3 for v in parent]) == "worse"
    assert _verdict(wall, parent, [v + 0.2 for v in parent]) == "flat"
    # runs that spread wider than the bound tell nothing
    wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.6, 1.4, 0.7, 1.3, 1.0]
    assert _verdict(wall, wide, [v + 0.1 for v in wide]) == "unresolved"
    # higher is better: a larger change is the gain, a smaller one no gain
    score = METRICS[2]
    assert _verdict(score, parent, [v + 0.2 for v in parent]) == "gain"
    # without a bound, nothing is worse or unresolved
    assert _verdict(score, wide, [v - 0.5 for v in wide]) == "flat"
    # a metric that reads 0 at the parent is worse on any rise
    size = METRICS[1]
    assert _verdict(size, [0] * 4, [0] * 4) == "flat"
    assert _verdict(size, [0] * 4, [1] * 4) == "worse"


def test_bad_runs_are_flagged():
    results = [pairs.result_of(_line(1.0)), pairs.result_of(_line(1.0, correct=False)),
               pairs.result_of(_line(1.0, failed=2))]
    assert pairs.flags("change", results) == [
        "flagged: change run 2: correct=False failed=0",
        "flagged: change run 3: correct=True failed=2",
    ]


def test_a_workload_list_runs_each_workload_in_turn(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def run_once(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        bad = workload == "proof" and tree.name == "change"
        return pairs.result_of(_line(1.0, correct=not bad))

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main([str(parent), str(change), "--workload", "search", "--pairs", "2"]) == 0
    assert [w for _, w, _ in calls] == ["search"] * 4
    calls.clear()
    capsys.readouterr()

    argv = [str(parent), str(change), "--workload", "search,proof", "--pairs", "2", "--seed", "5"]
    assert pairs.main(argv) == 1
    # pair 1 runs the parent first, pair 2 the change
    order = ["parent", "change", "change", "parent"]
    assert calls == [(t, w, 5) for w in ("search", "proof") for t in order]
    out = capsys.readouterr().out.splitlines()
    titles = [line for line in out if "seed=" in line]
    assert titles == ["search seed=5 pairs=2", "proof seed=5 pairs=2"]
    # the flags follow the table of the workload that raised them
    assert out[-2:] == [
        "flagged: change run 1: correct=False failed=0",
        "flagged: change run 2: correct=False failed=0",
    ]
    with pytest.raises(SystemExit):
        pairs.main([str(parent), str(change), "--workload", "search,"])


def test_all_runs_every_benchmark_workload_in_turn(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    names = ["search", "proof", "cli", "lattice"]
    benchmark = {"workloads": [{"name": n} for n in names], "end_to_end": METRICS}
    (change / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def run_once(tree, workload, seed):
        calls.append(workload)
        return pairs.result_of(_line(1.0))

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main([str(parent), str(change), "--workload", "all", "--pairs", "1"]) == 0
    # perfbench never sees "all", and each workload gets its own table
    assert calls == [n for n in names for _ in range(2)]
    titles = [line for line in capsys.readouterr().out.splitlines() if "seed=" in line]
    assert titles == [f"{n} seed=0 pairs=1" for n in names]


def test_a_seed_list_runs_each_workload_at_each_seed_in_turn(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def run_once(tree, workload, seed):
        calls.append((workload, seed))
        bad = seed == 17 and tree.name == "change"
        return pairs.result_of(_line(1.0, correct=not bad))

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "search,proof", "--pairs", "1"]
    assert pairs.main(argv + ["--seed", "11,17"]) == 1
    runs = [("search", 11), ("search", 17), ("proof", 11), ("proof", 17)]
    assert calls == [run for run in runs for _ in range(2)]
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "seed=" in line] == [f"{w} seed={s} pairs=1" for w, s in runs]
    # each flag follows the table of the seed that raised it: the title,
    # the header and one row per metric
    for w in ("search", "proof"):
        at = out.index(f"{w} seed=17 pairs=1") + 2 + len(METRICS)
        assert out[at] == "flagged: change run 1: correct=False failed=0"
    calls.clear()
    assert pairs.main(argv) == 0
    assert calls == [("search", 0)] * 2 + [("proof", 0)] * 2
    with pytest.raises(SystemExit):
        pairs.main(argv + ["--seed", "11,x"])


def test_trace_adds_one_traced_run_per_tree_after_the_pairs(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    layers = [{"name": "lattice.build_s", "unit": "s", "better": "lower"},
              {"name": "shelling.find_nodes", "unit": "count", "better": "lower"},
              {"name": "cli.gen_s", "unit": "s", "better": "lower"}]
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS, "per_layer": layers}))
    calls = []

    def run_once(tree, workload, seed, trace=0):
        calls.append((tree.name, workload, seed, trace))
        if not trace:
            return pairs.result_of(_line(1.0))
        # the change halves the build, keeps the nodes, and lacks the cli metric
        metrics = {"lattice.build_s": {"value": 0.02 if tree.name == "parent" else 0.01},
                   "shelling.find_nodes": {"value": 500}}
        if tree.name == "parent":
            metrics["cli.gen_s"] = {"value": 0.3}
        return {"correct": tree.name == "parent", "failed": 0, "metrics": metrics}

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "search", "--pairs", "2", "--seed", "11,17"]
    assert pairs.main(argv + ["--trace"]) == 1
    # the pairs of each seed run untraced, then one traced run per tree
    per_seed = ["parent", "change", "change", "parent"]
    assert calls == [
        (tree, "search", seed, trace) for seed in (11, 17)
        for tree, trace in [(t, 0) for t in per_seed] + [("parent", 1), ("change", 1)]
    ]
    out = capsys.readouterr().out.splitlines()
    at = out.index("search seed=11 traced: one run per tree, single runs, no verdict")
    # the title follows the pairs' table: its title, header and rows
    assert at == 2 + len(METRICS)
    assert out[at + 1].split() == ["metric", "parent", "change", "change"]
    assert out[at + 2].split() == ["lattice.build_s", "0.02", "0.01", "-50.0%"]
    assert out[at + 3].split() == ["shelling.find_nodes", "500", "500", "+0.0%"]
    assert out[at + 4].split() == ["cli.gen_s", "0.3", "n/a", "n/a"]
    # a traced run that is not correct is flagged after its lines
    assert out[at + 5] == "flagged: change traced run 1: correct=False failed=0"
    # without --trace, no traced run is made
    calls.clear()
    assert pairs.main(argv) == 0
    assert all(trace == 0 for *_, trace in calls) and len(calls) == 8


def test_a_planted_pycache_is_removed_before_the_first_run(tmp_path, monkeypatch):
    trees = parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "src" / "pkg" / "__init__.py").write_text("")
        (tree / "perfbench" / "run.py").write_text(
            "import json, sys\n"
            "sys.path.insert(0, 'src')\n"
            "from pkg.mod import VALUE\n"
            "print(json.dumps({'correct': True, 'failed': 0, 'value': VALUE}))\n"
        )
        # bytecode of other sources, with the size and time stamp of the tree's own
        mod = tree / "src" / "pkg" / "mod.py"
        mod.write_text("VALUE = 1\n")
        stamp = mod.stat().st_mtime_ns
        # in the tree's own __pycache__, which cache_from_source would
        # leave for PYTHONPYCACHEPREFIX when that is set
        pyc = mod.parent / "__pycache__" / f"mod.{sys.implementation.cache_tag}.pyc"
        py_compile.compile(str(mod), str(pyc),
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
        mod.write_text("VALUE = 2\n")
        os.utime(mod, ns=(stamp, stamp))
        (tree / "perfbench" / "__pycache__").mkdir()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    plain = subprocess.run([sys.executable, "perfbench/run.py"], cwd=parent, env=env,
                           capture_output=True, text=True, check=True)
    assert pairs.result_of(plain.stdout)["value"] == 1
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    real, values = pairs.run_once, []

    def run_once(tree, workload, seed):
        assert not any(tree.rglob("__pycache__"))
        values.append(real(tree, workload, seed)["value"])
        return pairs.result_of(_line(1.0))

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "search", "--pairs", "1"]
    assert pairs.main(argv) == 0
    assert values == [2, 2]
