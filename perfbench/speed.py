"""Take the shared host's slow spells out of a process's timings.

Each core of the host this benchmark is tuned on runs at its normal speed
most of the time, but for spells of a quarter second to a few seconds at a
time runs the same code about 1.5x slower, and the two cores do so
independently.  A whole process can also run at the slow level from start
to end.  How many spells fall into a run varied enough from run to run that
the median of plain wall times spread by 0.2-0.45 of itself over ten runs.

A :class:`SpeedMeter` measures the speed of the core its process works on.
It pins the process to the core it is on and starts a helper process
(``python speed.py <core>``) pinned to the same core, which every
``PERIOD`` seconds wakes, times a fixed probe and sleeps again.  The probe
preempts the work whatever the work is doing, long C calls included, and
runs at the speed the work would have run at.

A slow spell does not slow all code alike: a bytecode loop over tuples,
dicts and small ints, like qschur's own inner loops, slowed about 1.6x,
while building a set of tuples in C, like ``rearrangements``, slowed about
1.35x.  So the probe has one part of each, timed apart, and a meter weighs
them by ``c_share``, the share of its work that behaves like the second.

Between two probes the core is taken to run at the mean of their
slownesses (a probe's time over its part's reference time, weighed).
:meth:`SpeedMeter.span` turns a span of the work into *reference
seconds*: the seconds it would have taken at the speed at which the probe's
parts take ``REFERENCE_PY_S`` and ``REFERENCE_C_S``, about that host's
normal speed.  The probes' own time is left out.  A change to qschur moves
reference seconds as it moves wall time, while a slow spell does not.

Run as a script, this file is the helper: it probes until its stdin closes
and then prints its probes as one JSON list of ``[start, middle, end]``
clock readings, the middle one between the two parts.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import select
import statistics
import subprocess
import sys
import time

PERIOD = 0.025
# The reference times of the two parts of the probe.
REFERENCE_PY_S = 0.00021
REFERENCE_C_S = 0.00019


def clock() -> float:
    # The one clock the worker, its helper and the parent all read.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_py(n: int = 1000) -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = (i & 15, i % 7)
        table[key] = table.get(key, 0) + i
    return len(table)


def _probe_c(repeats: int = 3) -> int:
    return sum(len(set(itertools.permutations((1, 1, 1, 1, 2, 2)))) for _ in range(repeats))


def _probe() -> tuple[float, float, float]:
    t0 = clock()
    _probe_py()
    t1 = clock()
    _probe_c()
    return t0, t1, clock()


def current_core() -> int:
    # Field 39 of /proc/self/stat, counted after the command name.
    with open("/proc/self/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


class SpeedMeter:
    """Probe the speed of this process's core from :meth:`start` to
    :meth:`stop` (Linux only).  The process stays pinned to that core
    meanwhile."""

    def __init__(self, c_share: float = 0.0) -> None:
        self.c_share = c_share
        self.probes: list[tuple[float, float, float]] = []
        self._times: list[float] = []
        self._reference: list[float] = []
        self._helper: subprocess.Popen | None = None
        self._affinity: set[int] = set()

    def start(self) -> None:
        core = current_core()
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {core})
        self._helper = subprocess.Popen(
            [sys.executable, __file__, str(core)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._helper.stdout.readline()  # its first probe has ended

    def stop(self) -> None:
        helper, self._helper = self._helper, None
        try:
            stdout, _ = helper.communicate("", timeout=60)
            self.probes = [tuple(p) for p in json.loads(stdout)]
        finally:
            if helper.poll() is None:
                helper.kill()
                helper.wait()
            os.sched_setaffinity(0, self._affinity)
        self._build()

    def slowness(self) -> list[float]:
        """Each probe's time over its reference time, the median of it and
        its neighbours, so that a probe the work happened to preempt does
        not count."""
        w = self.c_share
        own = [
            (1 - w) * (mid - begin) / REFERENCE_PY_S + w * (end - mid) / REFERENCE_C_S
            for begin, mid, end in self.probes
        ]
        return [statistics.median(own[max(0, i - 1) : i + 2]) for i in range(len(own))]

    def _build(self) -> None:
        """Map each clock reading between the first probe's end and the last
        probe's start to reference seconds since the first probe."""
        slowness = self.slowness()
        reference, last_end = 0.0, self.probes[0][2]
        self._times, self._reference = [last_end], [reference]
        for i in range(1, len(self.probes)):
            begin, _, end = self.probes[i]
            reference += (begin - last_end) * 2 / (slowness[i - 1] + slowness[i])
            self._times += [begin, end]
            self._reference += [reference, reference]
            last_end = end

    def probe_s(self) -> float:
        """The median probe time: the core's speed over the meter's run."""
        return statistics.median(end - begin for begin, _, end in self.probes)

    def reference_at(self, t: float) -> float:
        i = bisect.bisect_right(self._times, t)
        if i == 0:
            return 0.0
        if i == len(self._times):
            return self._reference[-1]
        t0, t1 = self._times[i - 1], self._times[i]
        r0, r1 = self._reference[i - 1], self._reference[i]
        return r0 if t1 == t0 else r0 + (r1 - r0) * (t - t0) / (t1 - t0)

    def span(self, t0: float, t1: float) -> float:
        """Reference seconds of the work between readings ``t0`` and ``t1``."""
        return self.reference_at(t1) - self.reference_at(t0)


def helper(core: int) -> None:
    """Probe every ``PERIOD`` seconds until stdin closes, then print the
    probes."""
    os.sched_setaffinity(0, {core})
    _probe()  # warm the probe's code before the first timed one
    probes = [_probe()]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        probes.append(_probe())
    probes.append(_probe())
    print(json.dumps(probes))


if __name__ == "__main__":
    helper(int(sys.argv[1]))
