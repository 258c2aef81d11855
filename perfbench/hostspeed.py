"""Host-speed probe: two fixed jobs, independent of the program.

A shared host runs at different speeds for tens of seconds to minutes
at a time (other tenants, frequency changes), and a run can sit wholly
inside a fast or a slow stretch.  The benchmark times the probe between
repetitions and after every cold import and divides the measured times
by the host's slow-down against a reference, so a time reads as what
it would have taken on a host running at the reference speed.  The
probe uses nothing of the program, so a change to the program moves
the scaled times exactly as it moves the raw ones.

The probe has two parts, because the host's stretches do not slow all
code alike: between a fast and a slow stretch the interpreter part
slowed 2.2-2.4x, the numpy part 1.7x.  The link workloads, which spend
their time in numpy, slowed like the numpy part (1.6-1.7x); the
interpreter-heavy workloads and cold imports slowed like an even mix
of the two (2.0-2.2x).  Each workload therefore states its
``interpreter_share`` of the slow-down (``workloads.py``).  Both parts
work on data small enough to stay in cache and to leave the process's
peak RSS alone; a probe streaming arrays larger than the cache was
tried and tracked the workloads worse.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds of the two parts at reference speed: their medians, measured
#: together, in a slow stretch of the 2-CPU host the benchmark was
#: written on (in its fast stretches they took about half as long).
REFERENCE_INTERP_S = 0.0078
REFERENCE_NUMPY_S = 0.0085
#: Executions of each part per sample; the sample is their median.
TRIALS = 5
#: Interpreter share of the slow-down of a cold import.
IMPORT_INTERPRETER_SHARE = 0.5

_RNG = np.random.default_rng(20240)
_VALUES = _RNG.standard_normal(131_072)
_INDEX = _RNG.integers(0, _VALUES.size, _VALUES.size)
# Preallocated, so the numpy part never calls the allocator: whether a
# 1 MB array comes from the heap or from fresh pages depends on what the
# process did before, which is not the host's speed.
_GATHERED = np.empty_like(_VALUES)
_ORDERED = np.empty_like(_VALUES)


def _interp_job() -> int:
    table: dict[int, int] = {}
    words = []
    for i in range(20_000):
        key = i % 331
        table[key] = table.get(key, 0) + i
        words.append(str(i))
    return len("".join(words)) + len(table)


def _numpy_job() -> float:
    for _ in range(3):
        np.take(_VALUES, _INDEX, out=_GATHERED)
        _ORDERED[:] = _VALUES
        _ORDERED.sort()
        np.multiply(_GATHERED, _ORDERED, out=_GATHERED)
        np.cumsum(_GATHERED, out=_GATHERED)
    return float(_GATHERED[-1])


def _median_seconds(job) -> float:
    samples = []
    for _ in range(TRIALS):
        start = time.perf_counter()
        job()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe_seconds() -> tuple[float, float]:
    """``(interpreter part, numpy part)`` median seconds, as of now."""
    return _median_seconds(_interp_job), _median_seconds(_numpy_job)


def slowdown(probe: tuple[float, float], interpreter_share: float) -> float:
    """How many times slower than reference speed the host ran at ``probe``."""
    interp_s, numpy_s = probe
    return (interpreter_share * interp_s / REFERENCE_INTERP_S
            + (1.0 - interpreter_share) * numpy_s / REFERENCE_NUMPY_S)
