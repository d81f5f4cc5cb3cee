"""Item timing, failure accounting and spans for the benchmark.

An item is one call (or a short chain of calls) into shellbound whose
verdict is then checked against a known answer.  The harness times the
call, never the check: check time is left out of every phase's wall
time.  An item that raises, exhausts its search budget or runs past its
time limit is counted as failed and the pass goes on.

Shared hosts drift in speed (a 2-vCPU virtual machine was seen to change
by up to 1.7x, within a second as well as over tens of seconds, process
CPU time included), so times are reported in reference seconds: wall
seconds scaled by REF_PROBE_S over the time a fixed pure-Python probe
takes at that moment.  While in-process work runs, an interval timer
runs the probe every TICK_S, inside library calls too (a signal handler
runs between bytecodes); the stretch between two probes is scaled by
the mean of the two, each smoothed as the median of the probes around
it.  Probe time is left out.  A CLI item's child process runs under
``probe.py``, which ticks the same probe inside the child and hands its
probes back; the parent's timer stops meanwhile, so that the two never
compete for the one CPU they share.  Raw wall seconds are kept beside
the scaled ones.

In a traced phase each public call the benchmark makes is wrapped in a
span (name, item, parent, start, end).  Spans stay in memory and are
written once the run ends.  A span's self time (its duration minus its
children's, in reference seconds) is charged to the per-layer metric
named at the call site.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import subprocess
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from probe import REF_PROBE_S, TICK_S, probe

FAILED = object()

SMOOTH = 5  # probes in the running median of the speed estimate


class ItemTimeout(BaseException):
    """Raised by the interval timer inside an item that ran too long.

    A BaseException, so that no handler inside the library swallows it."""


@dataclass
class Phase:
    """What one set-up or one pass measured."""

    kind: str
    traced: bool
    wall: float = 0.0  # reference seconds
    raw_wall: float = 0.0  # wall seconds
    layer: dict = field(default_factory=dict)  # metric -> self seconds
    counters: dict = field(default_factory=dict)  # deterministic counts
    outputs: dict = field(default_factory=dict)  # item -> sha256 of its output
    timings: list = field(default_factory=list)  # (reference seconds to verdict, item)


class Clock:
    """Reference seconds of wall intervals of one phase, from its probes."""

    def __init__(self, probes: list):
        probes = sorted(probes)
        durations = [d for _, d in probes]
        half = SMOOTH // 2
        smooth = [
            statistics.median(durations[max(0, i - half): i + half + 1])
            for i in range(len(durations))
        ]
        self.starts = [t for t, _ in probes]
        self.ends = [t + d for t, d in probes]
        self.factors = [
            REF_PROBE_S / ((a + b) / 2) for a, b in zip(smooth, smooth[1:])
        ] + [REF_PROBE_S / smooth[-1]]
        self.ref, self.raw = [0.0], [0.0]  # cumulative, at each probe's end
        for i in range(len(probes) - 1):
            gap = max(0.0, self.starts[i + 1] - self.ends[i])
            self.ref.append(self.ref[-1] + gap * self.factors[i])
            self.raw.append(self.raw[-1] + gap)

    def at(self, t: float) -> tuple[float, float]:
        """(reference, raw) seconds from the first probe's end to ``t``,
        probe time left out."""
        i = max(0, bisect_right(self.starts, t) - 1)
        gap = max(0.0, t - self.ends[i])
        return self.ref[i] + gap * self.factors[i], self.raw[i] + gap

    def span(self, a: float, b: float) -> tuple[float, float]:
        (ref_a, raw_a), (ref_b, raw_b) = self.at(a), self.at(b)
        return ref_b - ref_a, raw_b - raw_a


class Harness:
    def __init__(self, sb, deadline: float):
        self.sb = sb
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (item, kind, detail)
        self.wrong: dict[str, str] = {}  # item -> mismatch
        self.spans: list[list] = []  # [name, item, parent, start, end, self, metric]
        self.phases: list[Phase] = []
        self._open: list[int] = []  # indices of the spans still open
        self._item: Optional[str] = None
        self._item_deadline: Optional[float] = None
        self._probes: list[tuple[float, float]] = []  # (start, seconds) in this phase
        self._probing = False
        self._untimed_depth = 0
        self._untimed: list[tuple[float, float]] = []  # bench-side wall intervals
        self._timed: list[tuple[float, float, str]] = []  # (start, end, item) to verdict
        self._fixed: list[tuple[float, str]] = []  # (reference seconds, item) of failures
        self.current = Phase("none", False)
        signal.signal(signal.SIGALRM, self._on_tick)

    # -- speed probes --------------------------------------------------------

    def _probe(self) -> None:
        if self._probing:
            return
        self._probing = True
        try:
            start = perf_counter()
            self._probes.append((start, probe()))
        finally:
            self._probing = False

    def _probe_burst(self) -> None:
        """Probes back to back, so that the smoothed speed at this point
        rests on them alone: the edges of a child process, whose start-up
        runs before its own probes do."""
        for _ in range(SMOOTH):
            self._probe()

    def _child_probes(self, path: Path) -> None:
        """The probes a child took; none if it was killed before it wrote them."""
        if path.exists():
            for line in path.read_text().splitlines():
                start, seconds = line.split()
                self._probes.append((float(start), float(seconds)))

    def _on_tick(self, signum, frame):
        if self._item_deadline is not None and perf_counter() > self._item_deadline:
            self._item_deadline = None
            raise ItemTimeout()
        self._probe()

    @staticmethod
    def _ticking(on: bool) -> None:
        every = TICK_S if on else 0
        signal.setitimer(signal.ITIMER_REAL, every, every)

    # -- phases ------------------------------------------------------------

    @contextmanager
    def phase(self, kind: str, traced: bool):
        self.current = Phase(kind, traced)
        self._probes, self._untimed, self._timed, self._fixed = [], [], [], []
        first_span = len(self.spans)
        self._probe()
        start = perf_counter()
        self._ticking(True)
        try:
            with self._span(f"bench.{kind}", None):
                yield self.current
        finally:
            self._ticking(False)
        end = perf_counter()
        self._probe()
        self._settle(start, end, first_span)
        self.phases.append(self.current)

    def _settle(self, start: float, end: float, first_span: int) -> None:
        """Convert the phase's wall intervals into reference seconds."""
        clock = Clock(self._probes)
        spans = self.spans[first_span:]
        for rec in spans:
            rec[5] = clock.span(rec[3], rec[4])[0]
        for rec in spans:
            if rec[2] is not None and rec[2] >= first_span:
                self.spans[rec[2]][5] -= clock.span(rec[3], rec[4])[0]
        layer = self.current.layer
        for rec in spans:
            if rec[6]:
                layer[rec[6]] = layer.get(rec[6], 0.0) + rec[5]
        wall, raw = clock.span(start, end)
        for a, b in self._untimed:
            ref_out, raw_out = clock.span(a, b)
            wall, raw = wall - ref_out, raw - raw_out
        self.current.wall, self.current.raw_wall = wall, raw
        if self.current.kind == "pass":
            self.current.timings = [
                (clock.span(a, b)[0], item) for a, b, item in self._timed
            ] + self._fixed

    @contextmanager
    def untimed(self):
        """Bench-side work (checks, answer derivation) left out of the wall time."""
        self._untimed_depth += 1
        start = perf_counter()
        try:
            yield
        finally:
            self._untimed_depth -= 1
            if not self._untimed_depth:
                self._untimed.append((start, perf_counter()))

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def _span(self, name: str, metric: Optional[str]):
        if not self.current.traced:
            yield
            return
        parent = self._open[-1] if self._open else None
        rec = [name, self._item, parent, perf_counter(), None, None, metric]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self._open.pop()

    def lib(self, name: str, metric: str, fn: Callable, *args, **kwargs):
        """One public call into shellbound, charged to ``metric`` when traced."""
        if not self.current.traced:
            return fn(*args, **kwargs)
        with self._span(name, metric):
            return fn(*args, **kwargs)

    # -- items ---------------------------------------------------------------

    def item(
        self,
        item_id: str,
        act: Callable[[], object],
        check: Optional[Callable[[object], Optional[str]]],
        limit: float,
        child: Optional[Path] = None,
    ):
        """Time ``act`` to its verdict, then check the verdict untimed.

        Returns the verdict, or FAILED.  ``child`` marks an item that runs
        a child process under ``probe.py``, and names the file its probes
        go to: the item leaves the limit to ``act`` (its subprocess
        timeout) and runs with this process's probe timer stopped.
        """
        self.attempted += 1
        if perf_counter() > self.deadline:
            return self._fail(item_id, "deadline", "run deadline passed before it started", limit)
        # every item starts from a collected heap, as in a fresh process, so
        # its collector pauses do not depend on the items before it
        with self.untimed():
            gc.collect()
        self._item = item_id
        if child:
            self._ticking(False)
            child.unlink(missing_ok=True)
            self._probe_burst()
        start = perf_counter()
        try:
            try:
                if not child:
                    self._item_deadline = start + limit
                with self._span("bench.item", None):
                    verdict = act()
            finally:
                end = perf_counter()
                self._item_deadline = None
        except (ItemTimeout, subprocess.TimeoutExpired):
            return self._fail(item_id, "timeout", f"over its {limit:g} s limit", limit)
        except self.sb.BudgetExceeded as e:
            return self._fail(item_id, "budget", str(e), limit)
        except Exception as e:
            return self._fail(item_id, "raised", f"{type(e).__name__}: {e}", limit)
        finally:
            self._item = None
            if child:
                self._probe_burst()
                self._child_probes(child)
                self._ticking(True)
        if self.current.kind == "pass":
            self._timed.append((start, end, item_id))
        if check is not None:
            with self.untimed():
                try:
                    mismatch = check(verdict)
                except Exception as e:
                    mismatch = f"check raised {type(e).__name__}: {e}"
            if mismatch:
                self.wrong.setdefault(item_id, mismatch)
        return verdict

    def skip(self, item_id: str, needs: str, limit: float) -> None:
        """An item that cannot run because an item it needs failed."""
        self.attempted += 1
        self._fail(item_id, "dependency", f"needs {needs}", limit)

    def _fail(self, item_id: str, kind: str, detail: str, limit: float):
        self.failures.append((item_id, kind, detail))
        # a failed item counts as missing any latency limit
        if self.current.kind == "pass":
            self._fixed.append((limit, item_id))
        return FAILED

    # -- deterministic records ---------------------------------------------

    def count(self, name: str, n: int) -> None:
        c = self.current.counters
        c[name] = c.get(name, 0) + n

    def output(self, item_id: str, data: bytes) -> None:
        self.current.outputs[item_id] = hashlib.sha256(data).hexdigest()
