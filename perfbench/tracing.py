"""Out-of-program span tracing: wrap layer functions, keep spans in memory.

A :class:`Tracer` replaces a function at the binding its caller uses
(``repro.sim.batch.apply_channels_to_rows``, not the defining module's
name) with a wrapper that records one span per call: name, start, end
and the index of the enclosing span.  Spans live in a flat list until
the run ends; :func:`self_times` then turns them into per-layer self
time (span duration minus the part of it that child spans cover).

Nothing here imports the program, so the self-time arithmetic is
testable on its own.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

#: Span record layout: ``[name, start_s, end_s, parent_index]``; the
#: parent index is -1 for a root span.
NAME, START, END, PARENT = 0, 1, 2, 3

_MISSING = object()


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span now; returns its index (close it with :meth:`close`)."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End span ``index`` now; returns its duration in seconds."""
        end = time.perf_counter()
        record = self.spans[index]
        record[END] = end
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrapper misuse
            raise RuntimeError(f"span {record[NAME]!r} closed out of order")
        return end - record[START]

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        on_return: Callable[["Tracer", tuple, dict, object, float], None] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records a span around every call.

        ``name`` may be a callable of the call's arguments (used where
        one method serves two tiers and the span should say which).
        ``on_return(tracer, args, kwargs, result, seconds)`` runs after
        a successful call, outside the span, to record counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            index = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(index)
            if on_return is not None:
                on_return(tracer, args, kwargs, result, seconds)
            return result

        return traced

    def iterate(self, iterable: Iterable, name: str) -> Iterator:
        """Yield from ``iterable``, recording one span per ``next()``."""
        iterator = iter(iterable)
        while True:
            index = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(index)
                return
            except BaseException:
                self.close(index)
                raise
            self.close(index)
            self.counts[f"{name}.items"] += 1
            yield item

    # -- patching --------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper_of: Callable[[Callable], Callable],
              label: str) -> None:
        """Replace ``owner.attr`` by ``wrapper_of(original)`` until :meth:`unpatch`.

        A binding the program no longer has is recorded in
        :attr:`missing` instead of raising; the traced run turns a
        non-empty list into a failed check.
        """
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(label)
            return
        own = vars(owner).get(attr, _MISSING)
        self._restore.append((owner, attr, own))
        setattr(owner, attr, wrapper_of(original))

    def unpatch(self) -> None:
        """Restore every patched binding, newest first."""
        while self._restore:
            owner, attr, own = self._restore.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ----------------------------------------------------------------

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans (with parents) and counters as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        payload = {
            "meta": meta,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, round(start - origin, 9), round(end - origin, 9), parent]
                for name, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
            "missing_bindings": self.missing,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Intervals are clipped to ``[lo, hi]`` first; overlapping intervals
    count once.
    """
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the union its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    return [
        max(0.0, (record[END] - record[START])
            - covered_length(children.get(index, ()), record[START], record[END]))
        for index, record in enumerate(spans)
    ]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``wall_s`` and ``self_s``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
    )
    for record, own in zip(spans, self_times(spans)):
        entry = out[record[NAME]]
        entry["calls"] += 1
        entry["wall_s"] += record[END] - record[START]
        entry["self_s"] += own
    return dict(out)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]
