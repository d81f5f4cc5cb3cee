"""The speed probe, and a runner that ticks it inside a child process.

    PERFBENCH_PROBES=probes.txt python3 perfbench/probe.py shellbound.cli ARGS...

runs the module as ``python3 -m shellbound.cli ARGS...`` would (same
``sys.argv``, ``sys.path[0]`` the working directory, same output and exit
code), with the probe running every TICK_S inside it, and writes the
probes it took to $PERFBENCH_PROBES when it exits, one ``start seconds``
pair a line.  ``start`` is ``time.perf_counter()``, the system-wide
monotonic clock on Linux, so the parent can place the child's probes on
its own timeline.  Beyond ``runpy``, which ``-m`` loads too, the runner
imports only modules built into the interpreter, so the child starts
about as fast as without it.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

REF_PROBE_S = 0.0007  # the probe's time on the baseline machine at its usual speed
TICK_S = 0.025  # probe period while measured work runs
_PROBE_KEYS = [f"k{i:05d}" for i in range(800)]
_PROBE_TABLE = {key: (i, key) for i, key in enumerate(_PROBE_KEYS)}


def _reversed(key: str) -> str:
    return key[::-1]


def probe() -> float:
    """Seconds a fixed loop of dict, tuple, big-integer and sorting work
    takes now: the kinds of work shellbound does, none of its code.  It
    allocates no object the collector tracks but one list, so that
    probing inside a library call leaves the call's collections as they
    were."""
    start = perf_counter()
    mask = 0
    for key in _PROBE_KEYS:
        i, _ = _PROBE_TABLE[key]
        mask |= 1 << (i % 700)
        mask &= ~(1 << (i * 7 % 700))
    sorted(_PROBE_KEYS, key=_reversed)
    return perf_counter() - start


def _run_probed(module: str, out: str) -> None:
    import atexit
    import runpy
    import signal

    probes = []
    busy = []

    def tick(signum, frame):
        if busy:
            return
        busy.append(True)
        start = perf_counter()
        probes.append((start, probe()))
        busy.pop()

    def dump():
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(out, "w") as f:
            f.writelines(f"{start!r} {seconds!r}\n" for start, seconds in probes)

    atexit.register(dump)
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    sys.path[0] = os.getcwd()
    del sys.argv[0]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    _run_probed(sys.argv[1], os.environ["PERFBENCH_PROBES"])
