"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same code runs at different speeds from second to
second and for minutes at a time, because other tenants load the physical
cores.  ``probe()`` times small fixed kernels, one per kind of work plexciton
does: a pure-Python float loop, numpy calls on tiny arrays, float-to-text
formatting, text-to-float parsing, a sort of a mid-sized array and searches
in a large sorted array.  The benchmark runs them between timed steps and
scales each step by how slow they (or the kinds its workload names) ran
around it.  The kernels are the
benchmark's own code: a change to plexciton cannot change them.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_TINY = np.full(4, 0.5)
_TEXT_INPUT = _RNG.random(1500).tolist()
_LINES = [f"{v!r}\tm" for v in _RNG.random(1500).tolist()]
_SORT_INPUT = _RNG.random(50_000)
# 8 MB, larger than the per-core caches: searching it misses as the
# estimators' histogramming of long streams does.
_SORTED_LARGE = np.sort(_RNG.random(1_000_000))
_QUERIES = _RNG.random(5_000)


def _python() -> float:
    x = 0.0
    for i in range(15000):
        x = 0.999 * x + 1e-3 * i
    return x


def _tiny_numpy() -> float:
    y = _TINY
    for _ in range(300):
        y = y + 0.01 * (np.exp(-y) - y)
    return float(y[0])


def _format() -> float:
    return len("\n".join(f"{v!r}\t{i}" for i, v in enumerate(_TEXT_INPUT)))


def _parse() -> float:
    times = []
    for line in _LINES:
        stamp, _, tag = line.strip().partition("\t")
        times.append(float(stamp))
    return times[-1]


def _sort() -> float:
    return float(np.sort(_SORT_INPUT)[0])


def _search() -> float:
    return float(np.searchsorted(_SORTED_LARGE, _QUERIES)[0])


KERNELS = {
    "python": _python,
    "tiny_numpy": _tiny_numpy,
    "format": _format,
    "parse": _parse,
    "sort": _sort,
    "search": _search,
}

# Each kernel's time on the reference host: one uncontended vCPU of a 2-vCPU
# VM (python 3.11, numpy 2.4).  Scaled timings are seconds on that host.
REFERENCE_S = {
    "python": 1.15e-3,
    "tiny_numpy": 1.1e-3,
    "format": 1.75e-3,
    "parse": 1.0e-3,
    "sort": 0.45e-3,
    "search": 2.3e-3,
}


def probe(repeats: int = 3) -> list[float]:
    """Seconds each kernel takes now, in the order of ``KERNELS``.

    Each kernel runs once untimed first, so that the caches the step before
    left behind do not count (a program change that moves less memory must
    not make the probe look faster), then ``repeats`` times; its time is the
    median, so one interrupt does not count either.
    """
    seconds = []
    for kernel in KERNELS.values():
        kernel()
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - start)
        seconds.append(sorted(runs)[repeats // 2])
    return seconds


def slowdown(seconds: list[float], kinds=tuple(KERNELS)) -> float:
    """How many times slower than on the reference host ``kinds`` ran."""
    names = list(KERNELS)
    measured = sum(seconds[names.index(kind)] for kind in kinds)
    return measured / sum(REFERENCE_S[kind] for kind in kinds)
