"""Tests of the benchmark itself: tracing arithmetic, generator, smoke runs.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.tracing import Tracer, aggregate, covered_length, self_times

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent):
    return [name, start, end, parent]


class TestSelfTime:
    def test_parent_minus_children(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 3.0, 0),
            _span("b", 4.0, 8.0, 0),
            _span("a.child", 1.5, 2.0, 1),
        ]
        assert self_times(spans) == pytest.approx([4.0, 1.5, 4.0, 0.5])

    def test_overlapping_children_count_once(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("x", 2.0, 6.0, 0),
            _span("y", 4.0, 7.0, 0),
            _span("z", 5.0, 5.5, 0),
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)

    def test_children_clipped_to_parent(self):
        assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
        assert covered_length([], 0.0, 1.0) == 0.0

    def test_aggregate_sums_by_name(self):
        spans = [
            _span("root", 0.0, 4.0, -1),
            _span("leaf", 0.0, 1.0, 0),
            _span("leaf", 2.0, 3.0, 0),
        ]
        stats = aggregate(spans)
        assert stats["leaf"] == {"calls": 2, "wall_s": 2.0, "self_s": 2.0}
        assert stats["root"]["self_s"] == pytest.approx(2.0)

    def test_wrapped_calls_record_parents_and_restore(self):
        class Owner:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        original = Owner.inner
        tracer = Tracer()
        for attr in ("outer", "inner"):
            tracer.patch(Owner, attr, lambda fn, a=attr: tracer.wrap(fn, a), attr)
        tracer.patch(Owner, "gone", lambda fn: fn, "Owner.gone")
        assert Owner().outer() == 2
        tracer.unpatch()
        assert Owner.inner is original
        names = [(s[0], s[3]) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0)]
        assert tracer.missing == ["Owner.gone"]


def test_stream_generator_is_deterministic(tmp_path):
    from perfbench.servegen import DUPLICATE_EVERY, StreamSpec, write_stream

    spec = StreamSpec(events=1_500, max_tags=100, burst_every=500, burst_len=300, corrupt_lines=4)
    a = write_stream(tmp_path / "a.jsonl", 7, spec)
    b = write_stream(tmp_path / "b.jsonl", 7, spec)
    c = write_stream(tmp_path / "c.jsonl", 8, spec)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "c.jsonl").read_bytes()
    assert a == b
    assert a.working_set == 3 * spec.max_tags
    assert a.duplicates == spec.events // DUPLICATE_EVERY
    assert a.corrupt_lines == spec.corrupt_lines
    assert a.lines == spec.events + a.duplicates
    assert a.expected_reordered > 0


def test_slowdown_follows_the_host_probe():
    from perfbench.hostspeed import REFERENCE_INTERP_S, REFERENCE_NUMPY_S, probe_seconds, slowdown

    assert slowdown((REFERENCE_INTERP_S, REFERENCE_NUMPY_S), 0.5) == pytest.approx(1.0)
    # A host at half speed in both parts is twice as slow for every workload.
    assert slowdown((2 * REFERENCE_INTERP_S, 2 * REFERENCE_NUMPY_S), 0.3) == pytest.approx(2.0)
    # Only the interpreter part slowed: a numpy-only workload did not.
    assert slowdown((3 * REFERENCE_INTERP_S, REFERENCE_NUMPY_S), 0.0) == pytest.approx(1.0)
    assert slowdown((3 * REFERENCE_INTERP_S, REFERENCE_NUMPY_S), 0.5) == pytest.approx(2.0)
    assert all(part > 0.0 for part in probe_seconds())


def test_pooled_z_adds_evidence_over_strata():
    from perfbench.workloads import POOLED_Z_MAX, _pooled_z
    from tests.stat_equiv import wilson_ci_overlap

    same = [(100, 10, 100, 10), (50, 25, 50, 25), (3, 3, 3, 3)]
    assert _pooled_z(same) == pytest.approx(0.0)
    # No single stratum's Wilson intervals (z = 3.29) separate; together they do.
    worse = [(98, 3, 30, 9), (60, 15, 20, 11), (40, 10, 15, 9)]
    assert all(wilson_ci_overlap(a, n, b, m, z=3.29) for n, a, m, b in worse)
    assert _pooled_z(worse) > POOLED_Z_MAX
    assert _pooled_z([(s[2], s[3], s[0], s[1]) for s in worse]) < -POOLED_Z_MAX
    assert _pooled_z([(1, 1, 0, 0)]) == 0.0


def test_missing_binding_fails_the_traced_run(monkeypatch, capsys):
    import perfbench.run as run
    from perfbench import layers

    bogus = ("repro.net.sim", "", "no_such_layer_function", "net.bogus", None)
    monkeypatch.setattr(layers, "BINDINGS", layers.BINDINGS + (bogus,))
    monkeypatch.setattr(run, "OUT", ROOT / ".perfbench" / "test-missing-binding")
    code = run.main(["--workload", "netsim_churn", "--seed", "3", "--seconds", "0",
                     "--trace", "1", "--tiny"])
    assert code == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "repro.net.sim.no_such_layer_function" in out


WORKLOAD_NAMES = (
    "link_exact", "link_fast", "metro_serial", "metro_sharded", "netsim_churn", "serve_replay",
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_smoke_run(workload, trace):
    from perfbench.layers import PER_LAYER_NAMES

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = set(PER_LAYER_NAMES) if trace else {"scaled_work_per_s", "setup_s", "peak_rss_mb"}
    assert set(result["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_metrics():
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"scaled_work_per_s", "setup_s", "peak_rss_mb"}
