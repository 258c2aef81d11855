"""Seeded read-trace stream for the ``serve_replay`` workload.

The stream is written through the program's public
:class:`repro.net.engine.EventTrace` API (``append`` then ``dump``), so
the replay daemon reads exactly the format the simulators produce.  On
top of plain tag reads it injects, at seeded positions:

* a tag working set of :data:`WORKING_SET_FACTOR` × ``max_tags`` that
  drifts over the stream, so the inventory's LRU bound evicts and idle
  tags age out through the TTL;
* offered-rate bursts above the daemon's service rate, so the bounded
  queue sheds its oldest entries;
* duplicate records (same per-source ``seq``) a few lines after the
  original, inside the daemon's dedup window;
* adjacent records swapped out of timestamp order;
* a few corrupted lines whose embedded sha256 no longer matches.

:func:`write_stream` returns the counts it injected, and the counters
the daemon must report for them, so the benchmark can check the run.
The ``serve_replay`` workload runs it in a child process::

    python3 perfbench/servegen.py OUT SEED [--tiny]

which writes the stream to ``OUT`` and prints its properties as JSON, so
the generator's memory never counts in the benchmark's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


#: Tag working set over the stream, as a multiple of ``max_tags``.
WORKING_SET_FACTOR = 3.0
#: The daemon's service rate; the offered rate is set relative to it.
SERVICE_RATE_HZ = 10_000.0
#: Offered rate between bursts and inside them, over the service rate.
BASE_RATE_FACTOR = 0.6
BURST_RATE_FACTOR = 3.0
#: One duplicate per this many reads, at most this many lines late.
DUPLICATE_EVERY = 100
DUPLICATE_MAX_LAG = 64
#: One swapped adjacent pair per this many reads.
REORDER_EVERY = 100
#: Readers the records are spread over.
APS = 9


@dataclass(frozen=True)
class StreamSpec:
    """Size of one generated stream (the seed is passed separately)."""

    events: int = 30_000
    max_tags: int = 2_000
    queue_depth: int = 1_024
    ttl_s: float = 0.2
    burst_every: int = 4_000
    burst_len: int = 2_500
    corrupt_lines: int = 12


#: The stream of the tiny (smoke-test) size.
TINY = StreamSpec(events=2_000, max_tags=150, queue_depth=64, ttl_s=0.01,
                  burst_every=500, burst_len=300, corrupt_lines=3)


@dataclass(frozen=True)
class StreamProperties:
    """What :func:`write_stream` injected and what the daemon must count."""

    lines: int
    reads: int
    working_set: int
    max_tags: int
    working_set_ratio: float
    distinct_tags: int
    duplicates: int
    reorders: int
    expected_reordered: int
    corrupt_lines: int
    peak_offered_rate_hz: float
    service_rate_hz: float
    stream_s: float

    def as_dict(self) -> dict:
        return asdict(self)


def _arrival_times(spec: StreamSpec, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Bursty Poisson arrival times, one per original read."""
    index = np.arange(spec.events)
    in_burst = (index % spec.burst_every) < spec.burst_len
    rates = np.where(
        in_burst,
        BURST_RATE_FACTOR * SERVICE_RATE_HZ,
        BASE_RATE_FACTOR * SERVICE_RATE_HZ,
    )
    gaps = rng.exponential(1.0, size=spec.events) / rates
    return np.cumsum(gaps), float(rates.max())


def write_stream(path: str | Path, seed: int, spec: StreamSpec = StreamSpec()) -> StreamProperties:
    """Write the seeded stream to ``path``; same seed, same bytes."""
    from repro.net.engine import EventTrace, TraceEvent

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E4E]))
    n = spec.events
    times, peak_rate = _arrival_times(spec, rng)
    working_set = int(round(WORKING_SET_FACTOR * spec.max_tags))
    drift = times / times[-1] * working_set
    tags = (drift + rng.integers(0, working_set, size=n)).astype(np.int64)
    aps = rng.integers(0, APS, size=n)

    # Stream order: originals in time order, with disjoint adjacent swaps.
    order = list(range(n))
    swap_starts = rng.choice(np.arange(1, n - 1, 2), size=n // REORDER_EVERY, replace=False)
    for p in sorted(int(p) for p in swap_starts):
        order[p], order[p + 1] = order[p + 1], order[p]

    # Duplicates: re-emit the record `lag` lines back, right after line k.
    dup_after = set(
        int(k) for k in rng.choice(
            np.arange(DUPLICATE_MAX_LAG, n), size=n // DUPLICATE_EVERY, replace=False
        )
    )
    lines: list[int] = []  # original index per emitted line
    duplicated: set[int] = set()
    for k, original in enumerate(order):
        lines.append(original)
        if k in dup_after:
            lag = int(rng.integers(1, DUPLICATE_MAX_LAG + 1))
            source = order[k - lag + 1]
            lines.append(source)
            duplicated.add(source)

    # Corrupt only originals that are never duplicated, so every
    # duplicate still follows a readable first copy.
    first_line: dict[int, int] = {}
    for line_no, original in enumerate(lines):
        first_line.setdefault(original, line_no)
    candidates = np.array(sorted(first_line[o] for o in first_line if o not in duplicated))
    corrupt = set(int(c) for c in rng.choice(candidates, size=spec.corrupt_lines, replace=False))

    trace = EventTrace(capacity=len(lines))
    for original in lines:
        trace.append(
            TraceEvent(
                time_s=float(times[original]),
                seq=original,
                process="ap/metro",
                kind="read",
                detail=(("ap", int(aps[original])), ("slot", original), ("tag", int(tags[original]))),
            )
        )
    path = Path(path)
    trace.dump(path)

    # Flip the tag id of the chosen lines; the line stays valid JSON but
    # its embedded sha256 no longer matches (header is line 0 of the file).
    text = path.read_text(encoding="utf-8").split("\n")
    for line_no in sorted(corrupt):
        text[line_no + 1] = re.sub(
            r'"tag":(\d+)', lambda m: f'"tag":{int(m.group(1)) + 1}', text[line_no + 1], count=1
        )
    path.write_text("\n".join(text), encoding="utf-8")

    # The daemon counts a read as reordered when its timestamp is below
    # the latest one seen; corrupt lines are never timestamped past it.
    clock = 0.0
    expected_reordered = 0
    for line_no, original in enumerate(lines):
        if line_no in corrupt:
            continue
        t = float(times[original])
        if t < clock:
            expected_reordered += 1
        else:
            clock = t
    return StreamProperties(
        lines=len(lines),
        reads=len(lines) - len(corrupt),
        working_set=working_set,
        max_tags=spec.max_tags,
        working_set_ratio=working_set / spec.max_tags,
        distinct_tags=int(np.unique(tags).size),
        duplicates=len(lines) - n,
        reorders=len(swap_starts),
        expected_reordered=expected_reordered,
        corrupt_lines=len(corrupt),
        peak_offered_rate_hz=peak_rate,
        service_rate_hz=SERVICE_RATE_HZ,
        stream_s=float(times[-1]),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one seeded serve stream.")
    parser.add_argument("out", type=Path)
    parser.add_argument("seed", type=int)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    properties = write_stream(args.out, args.seed, TINY if args.tiny else StreamSpec())
    print(json.dumps(properties.as_dict()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
