"""A probe of how fast the host runs right now, to scale timed steps by.

The benchmark's machine is a small virtual machine on a shared host, and
its speed moves between states up to ~40% apart that last for minutes:
the same `train` takes 2.3 s in one state and 3.6 s in the next, and its
CPU time moves with it.  A run of tens of seconds cannot average that out.
Each CPU has its own slow and fast phases, and they flip within seconds.
A fixed probe, timed in the benchmark's own process just before and just
after a step, follows the slow phases that last minutes and part of the
faster flicker: over two sets of 10 runs of each workload it took the
spread (IQR over median) of the run medians of wall time from 0.09-0.32
to 0.04-0.11.  Each timed step is therefore scaled to the nominal
host speed:

    scaled = measured * nominal probe time / probe time

The probe runs a pure-Python loop and a numpy pass over 400k values in
turn, REPEATS times on each CPU the benchmark may use, since the step may
run on any of them; its time is the geometric mean of the two parts'
times, averaged over the probe before and the probe after the step.  The
program never runs the probe's code, so no change to the program moves
it.  The measured times are kept in perfbench/out/runs.jsonl beside the
scaled ones.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

REPEATS = 3
PY_LOOP = 150_000
NP_VALUES = 400_000
# the probe's parts at this machine's typical speed (seconds); they fix the
# scale of the reported times, not their comparisons
PY_NOMINAL = 0.0106
NP_NOMINAL = 0.0113

_rng = np.random.default_rng(0)
_values = _rng.normal(size=NP_VALUES)
_index = _rng.integers(0, NP_VALUES, NP_VALUES)


def _python_part() -> None:
    total = 0
    for i in range(PY_LOOP):
        total += i * i


def _numpy_part() -> None:
    gathered = _values[_index]
    np.sort(gathered)
    np.bincount(_index, weights=_values)
    np.cumsum(gathered)


def slowness() -> float:
    """The host's time per unit of work now, relative to nominal (1.0),
    averaged over the CPUs this process may run on."""
    cpus = os.sched_getaffinity(0)
    ratios = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            py = np_ = 0.0
            for _ in range(REPEATS):
                start = time.perf_counter()
                _python_part()
                middle = time.perf_counter()
                _numpy_part()
                py += middle - start
                np_ += time.perf_counter() - middle
            ratios.append(math.sqrt(py / (REPEATS * PY_NOMINAL) * np_ / (REPEATS * NP_NOMINAL)))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(ratios) / len(ratios)


class Scaled:
    """Times a step between two probes; `scale(x)` turns a time measured
    during that step into nominal-speed seconds."""

    def __enter__(self):
        self.before = slowness()
        return self

    def __exit__(self, *exc):
        self.after = slowness()
        self.factor = 2.0 / (self.before + self.after)
        return False

    def scale(self, seconds: float) -> float:
        return seconds * self.factor
