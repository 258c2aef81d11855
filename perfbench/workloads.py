"""The benchmark's workloads: seeded inputs, one timed leg each, checks.

Each workload times exactly one leg of the program, so every run can
report the same end-to-end metrics (``scaled_work_per_s``,
``peak_rss_mb``, ``setup_s``).  The two jobs with two legs — the link
waterfall (exact and fast tier) and the metro grid (serial and sharded
engine) — are therefore two workloads each; each half also runs the
other leg once, untimed, for its cross-check.

A workload object holds its inputs (made from the seed by
:meth:`Workload.prepare`), runs one repetition of its leg per
:meth:`Workload.rep` call, and turns the outputs into named checks.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The seed whose outputs are pinned below.
DEFAULT_SEED = 1

#: Exact-tier waterfall at the default seed: per distance,
#: ``(bit_errors, bits_tested, frames, frames_detected)``.
PIN_LINK_EXACT = (
    (0, 200704, 98, 98), (0, 200704, 98, 98), (0, 200704, 98, 98), (1112, 16384, 8, 8),
    (1024, 2048, 1, 1),
)
#: ``run_netsim`` trace digest at the default seed.
PIN_NETSIM_DIGEST = "c3e754cf2eebe54cd71702a4aa35debc05bcea94ef2a7e4ddfe37758737765d0"
#: Serve replay inventory ``state_sha256`` at the default seed.
PIN_SERVE_STATE = "ebbf59c25b6fc920ea81191eae3f18036cdab47c8f6ba193565770a2e1e48928"


@dataclass
class Check:
    """One named correctness check on one operation's output."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Rep:
    """Outcome of one repetition of a workload's timed leg."""

    seconds: float
    work: float
    output: object
    checks: list[Check] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: subclasses set the class attributes and the methods."""

    name = ""
    #: Modules a user imports before the first operation (``setup_s``).
    modules: tuple[str, ...] = ()
    #: ``(metric name, unit, divisor)`` of the work rate under its ROADMAP name.
    headline: tuple[str, str, float] = ("", "", 1.0)
    #: Interpreter share of the workload's slow-down on a slow host
    #: stretch (``hostspeed.py``); the rest follows the numpy probe.
    interpreter_share = 0.5

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.pinned = seed == DEFAULT_SEED and not tiny

    def prepare(self) -> None:
        """Make the inputs from the seed (not timed)."""

    def rep(self, tracer=None) -> Rep:
        raise NotImplementedError

    def reference_checks(self, reps: list[Rep]) -> list[Check]:
        """Checks that need an extra, untimed run of the other leg."""
        return []

    def inputs(self) -> dict:
        """Properties of the generated inputs, for the result record."""
        return {}


def _same(name: str, values: list) -> Check:
    first = values[0]
    ok = all(v == first for v in values[1:])
    return Check(name, ok, "" if ok else f"{len(set(map(repr, values)))} distinct values")


# -- link waterfall -------------------------------------------------------------

#: Sweep distances.  Up to 6 m every point runs its whole budget; at 14
#: and 16 m the first faded frame ends the point inside the first
#: 16-frame block.  The 8-12 m knee is left out: there the frame that
#: reaches ``target_errors`` moves with the seed across the doubling
#: blocks, so a sweep's cost per counted bit would move by up to ~30 %
#: from seed to seed, more than any change the benchmark should resolve.
DISTANCES_M = (2.0, 4.0, 6.0, 14.0, 16.0)


class LinkWaterfall(Workload):
    """Rician K = 6 dB BER-vs-distance sweep through an in-process executor."""

    tier = ""
    other_tier = ""
    modules = ("repro.sim.executor", "repro.sim.batch", "repro.sim.fastlink")
    interpreter_share = 0.0

    def prepare(self) -> None:
        from repro.core.link import LinkConfig
        from repro.sim.executor import BerSweepTask

        self.distances = (2.0, 4.0, 8.0, 16.0) if self.tiny else DISTANCES_M
        budget = 20_480 if self.tiny else 200_704

        def task(tier: str) -> BerSweepTask:
            return BerSweepTask(
                LinkConfig(rician_k_db=6.0),
                target_errors=100,
                max_bits=budget,
                bits_per_frame=2048,
                link_backend=tier,
            )

        self.tasks = {self.tier: task(self.tier), self.other_tier: task(self.other_tier)}

    def _sweep(self, tier: str):
        from repro.sim import monte_carlo
        from repro.sim.executor import SweepExecutor

        # Built simulators are memoised per process; clear the memo so
        # every repetition pays the build a one-shot waterfall pays.
        memo = getattr(monte_carlo, "_SIMULATOR_MEMO", None)
        if memo is not None:
            memo.clear()
        records = []
        executor = SweepExecutor("serial", on_progress=records.append)
        start = time.perf_counter()
        report = executor.run(self.distances, self.tasks[tier], seed=self.seed)
        return report, records, time.perf_counter() - start

    @staticmethod
    def _estimates(report) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(
            (m.bit_errors, m.bits_tested, m.frames, m.frames_detected)
            for m in report.metrics
        )

    def rep(self, tracer=None) -> Rep:
        report, records, seconds = self._sweep(self.tier)
        estimates = self._estimates(report)
        checks = [
            Check("points_ok", report.failed == 0, report.failure_summary() if report.failed else ""),
            Check("bits_tested", all(e[1] > 0 for e in estimates)),
        ]
        if self.pinned and self.tier == "fused":
            checks.append(Check("pin_exact_estimates", estimates == PIN_LINK_EXACT, repr(estimates)))
        layer = {
            "sim.executor.points": float(len(records)),
            "sim.executor.point_s_max": max((r.seconds for r in records), default=0.0),
        }
        return Rep(seconds, float(sum(e[1] for e in estimates)), estimates, checks, layer)

    def _counted_sweep(self, tier: str) -> tuple[tuple, list[int]]:
        """An untimed sweep that also counts each point's frames with bit errors."""
        from perfbench.tracing import Tracer
        from repro.sim.batch import BatchLinkSimulator

        frames_with_errors: list[int] = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                errors, detected = result = fn(*args, **kwargs)
                frames_with_errors.append(int(np.count_nonzero(errors)))
                return result

            return wrapper

        patcher = Tracer()
        patcher.patch(BatchLinkSimulator, "simulate_point", counting,
                      "repro.sim.batch.BatchLinkSimulator.simulate_point")
        try:
            report, _, _ = self._sweep(tier)
        finally:
            patcher.unpatch()
        return self._estimates(report), frames_with_errors

    def reference_checks(self, reps: list[Rep]) -> list[Check]:
        from tests.stat_equiv import wilson_ci_overlap

        mine, mine_fwe = self._counted_sweep(self.tier)
        other, other_fwe = self._counted_sweep(self.other_tier)
        checks = [_same("deterministic_across_reps", [r.output for r in reps] + [mine])]
        tiers = {self.tier: (mine, mine_fwe), self.other_tier: (other, other_fwe)}
        (exact, exact_fwe), (fast, fast_fwe) = tiers["fused"], tiers["fast"]
        if self.pinned and self.tier != "fused":
            checks.append(Check("pin_exact_estimates", exact == PIN_LINK_EXACT, repr(exact)))
        points = len(self.distances)
        if len(exact_fwe) != points or len(fast_fwe) != points:
            # The counts below assume one fused simulate_point call per point.
            checks.append(Check("one_simulate_point_per_point", False,
                                f"{len(exact_fwe)} and {len(fast_fwe)} calls for {points} points"))
            return checks
        # Under Rician fading bit errors come in frame-sized bursts (a
        # faded frame holds ~1000 of them), so the independent trial is
        # the frame: compare the share of frames with any bit error, and
        # the detection rate, over frames.  z = 3.29 (99.9 %) per point.
        for distance, e, e_fwe, f, f_fwe in zip(self.distances, exact, exact_fwe, fast, fast_fwe):
            fer_ok = wilson_ci_overlap(e_fwe, e[2], f_fwe, f[2], z=3.29)
            det_ok = wilson_ci_overlap(e[3], e[2], f[3], f[2], z=3.29)
            checks.append(Check(
                f"fast_vs_exact_{distance:g}m", fer_ok and det_ok,
                f"frames with errors {e_fwe}/{e[2]} exact, {f_fwe}/{f[2]} fast; "
                f"detected {e[3]} vs {f[3]}",
            ))
        z = _pooled_z([(e[2], e_fwe, f[2], f_fwe)
                       for e, e_fwe, f, f_fwe in zip(exact, exact_fwe, fast, fast_fwe)])
        checks.append(Check("fast_vs_exact_pooled", abs(z) <= POOLED_Z_MAX, f"z = {z:+.2f}"))
        return checks


#: Largest Mantel-Haenszel |z| the two tiers' frame error counts may show.
POOLED_Z_MAX = 4.0


def _pooled_z(strata: list[tuple[int, int, int, int]]) -> float:
    """Mantel-Haenszel z of the second sample's event count over all strata.

    Each stratum is ``(trials_a, events_a, trials_b, events_b)``; the
    sweep's points are the strata, so evidence that one tier errs more
    often adds up over the waterfall instead of drowning in each
    point's small frame count.
    """
    excess = variance = 0.0
    for n_a, e_a, n_b, e_b in strata:
        n, events = n_a + n_b, e_a + e_b
        if n < 2:
            continue
        excess += e_b - events * n_b / n
        variance += n_a * n_b * events * (n - events) / (n * n * (n - 1))
    return excess / math.sqrt(variance) if variance else 0.0


class LinkExact(LinkWaterfall):
    name = "link_exact"
    tier, other_tier = "fused", "fast"
    headline = ("link_exact_mbit_per_s", "Mbit/s", 1e6)


class LinkFast(LinkWaterfall):
    name = "link_fast"
    tier, other_tier = "fast", "fused"
    headline = ("link_fast_mbit_per_s", "Mbit/s", 1e6)


# -- metro grid -----------------------------------------------------------------


class MetroGrid(Workload):
    """3x3 AP grid, static discovery population, 1000-slot epochs."""

    sharded = False
    modules = ("repro.net.deployment", "repro.net.shard")

    def prepare(self) -> None:
        from repro.net.deployment import MultiAPConfig

        self.config = MultiAPConfig(
            grid_rows=3,
            grid_cols=3,
            ap_spacing_m=8.0,
            spatial_reuse_factor=3,
            num_tags=3_000 if self.tiny else 120_000,
            num_slots=400 if self.tiny else 2_000,
            epoch_slots=200 if self.tiny else 1_000,
        )

    def _run(self, sharded: bool, records: list | None = None):
        from repro.net.deployment import run_multi_ap
        from repro.net.shard import run_multi_ap_sharded
        from repro.sim.executor import SweepExecutor

        start = time.perf_counter()
        if not sharded:
            report = run_multi_ap(self.config, seed=self.seed)
        elif records is None:
            report = run_multi_ap_sharded(self.config, seed=self.seed, shards=2)
        else:
            executor = SweepExecutor("process", max_workers=2, on_progress=records.append)
            report = run_multi_ap_sharded(
                self.config, seed=self.seed, shards=2, executor=executor
            )
        return report, time.perf_counter() - start

    def rep(self, tracer=None) -> Rep:
        records: list | None = [] if (tracer is not None and self.sharded) else None
        report, seconds = self._run(self.sharded, records)
        checks = [
            Check("reads_le_tags", report.tags_read <= report.tags_total),
            Check(
                "singles_split",
                report.slots_single == report.frames_delivered + report.reads_failed_channel,
            ),
        ]
        layer = {"net.deployment.read_ratio": report.tags_read / max(report.tags_total, 1)}
        if records is not None:
            layer.update(_shard_layer(records, seconds, tracer))
        work = float(self.config.num_tags * report.slots_run)
        return Rep(seconds, work, pickle.dumps(report), checks, layer)

    def reference_checks(self, reps: list[Rep]) -> list[Check]:
        other, _ = self._run(not self.sharded)
        blob = reps[0].output
        mine = pickle.loads(blob)
        return [
            _same("deterministic_across_reps", [r.output for r in reps]),
            Check("serial_sharded_digest", mine.trace_digest == other.trace_digest,
                  f"{mine.trace_digest[:16]} vs {other.trace_digest[:16]}"),
            Check("serial_sharded_pickle", blob == pickle.dumps(other)),
        ]


def _shard_layer(records: list, wall_s: float, tracer) -> dict[str, float]:
    """Shard-pipeline metrics from the executor's per-point records.

    Worker-side spans are not visible from outside the program, so the
    execute pass is measured through the executor's ``on_progress``
    records (each shard-epoch's compute seconds) and the wall time of
    the executor's ``run`` calls.
    """
    from perfbench.tracing import aggregate

    execute_wall = aggregate(tracer.spans).get("sim.executor.run", {}).get("wall_s", 0.0)
    return {
        "net.shard.execute_busy_s": sum(r.seconds for r in records),
        "net.shard.execute_wall_s": execute_wall,
        "net.shard.coordinator_s": max(0.0, wall_s - execute_wall),
        "net.shard.shard_epochs": float(len(records)),
        "net.shard.epoch_s_max": max((r.seconds for r in records), default=0.0),
    }


class MetroSerial(MetroGrid):
    name = "metro_serial"
    headline = ("metro_serial_tag_slots_per_s", "tag-slots/s", 1.0)


class MetroSharded(MetroGrid):
    name = "metro_sharded"
    sharded = True
    headline = ("metro_sharded_tag_slots_per_s", "tag-slots/s", 1.0)


# -- single-AP churn netsim -------------------------------------------------------


class NetsimChurn(Workload):
    name = "netsim_churn"
    modules = ("repro.net.sim",)
    headline = ("netsim_tag_slots_per_s", "tag-slots/s", 1.0)

    def prepare(self) -> None:
        from repro.net.sim import NetSimConfig

        size = 1_000 if self.tiny else 10_000
        self.config = NetSimConfig(
            num_tags=size,
            num_slots=size,
            arrival_rate_hz=20_000.0,
            blockage_rate_hz=5.0,
        )
        self.dump_path = self.workdir / f"netsim-{self.seed}.jsonl"

    def rep(self, tracer=None) -> Rep:
        from repro.net.sim import run_netsim

        start = time.perf_counter()
        report = run_netsim(self.config, seed=self.seed, trace_path=self.dump_path)
        seconds = time.perf_counter() - start
        with self.dump_path.open(encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        checks = [
            Check(
                "singles_split",
                report.slots_single == report.frames_delivered + report.reads_failed_channel,
            ),
            Check("reads_le_tags", report.tags_read <= report.tags_total),
            Check("dump_digest", header.get("digest_sha256") == report.trace_digest),
        ]
        if self.pinned:
            checks.append(Check("pin_digest", report.trace_digest == PIN_NETSIM_DIGEST,
                                report.trace_digest))
        layer = {"net.mac.single_slot_ratio": report.slots_single / max(report.slots_run, 1)}
        work = float(self.config.num_tags * report.slots_run)
        return Rep(seconds, work, pickle.dumps(report), checks, layer)

    def reference_checks(self, reps: list[Rep]) -> list[Check]:
        return [_same("deterministic_across_reps", [r.output for r in reps])]


# -- serve replay -------------------------------------------------------------------


class ServeReplay(Workload):
    name = "serve_replay"
    modules = ("repro.serve.daemon",)
    headline = ("serve_events_per_s", "events/s", 1.0)

    def prepare(self) -> None:
        from perfbench.servegen import TINY, StreamProperties, StreamSpec

        self.spec = TINY if self.tiny else StreamSpec()
        self.stream_path = self.workdir / f"serve-{self.seed}.jsonl"
        self.checkpoint_path = self.workdir / f"serve-{self.seed}.ckpt"
        # A child process writes the stream, so the generator's peak
        # memory stays out of this process's peak RSS.
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "servegen.py"),
             str(self.stream_path), str(self.seed)] + (["--tiny"] if self.tiny else []),
            env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root)))),
            stdout=subprocess.PIPE, text=True, check=True,
        )
        self.properties = StreamProperties(**json.loads(proc.stdout.strip().splitlines()[-1]))

    def rep(self, tracer=None) -> Rep:
        from perfbench.servegen import SERVICE_RATE_HZ
        from repro.serve.daemon import ServeConfig, run_service
        from repro.serve.inventory import LiveInventory

        config = ServeConfig(
            trace_path=str(self.stream_path),
            queue_depth=self.spec.queue_depth,
            policy="shed-oldest",
            service_rate_hz=SERVICE_RATE_HZ,
            max_tags=self.spec.max_tags,
            ttl_s=self.spec.ttl_s,
            checkpoint_path=str(self.checkpoint_path),
        )
        start = time.perf_counter()
        report = run_service(config)
        seconds = time.perf_counter() - start
        c = report.counters
        props = self.properties
        out_side = (c["events_out"] + c["shed_oldest"] + c["shed_newest"]
                    + c["rate_limited"] + c["duplicates"])
        checks = [
            Check("drained", report.drained),
            Check("conservation", c["events_in"] == out_side,
                  f"in {c['events_in']} vs out+shed+limited+dup {out_side}"),
            Check("dead_letter", c["dead_letter"] == props.corrupt_lines,
                  f"{c['dead_letter']} vs {props.corrupt_lines}"),
            Check("duplicates", c["duplicates"] == props.duplicates,
                  f"{c['duplicates']} vs {props.duplicates}"),
            Check("reordered", c["reordered"] == props.expected_reordered,
                  f"{c['reordered']} vs {props.expected_reordered}"),
            Check("lru_and_ttl_evict", report.inventory_stats["evicted_lru"] > 0
                  and report.inventory_stats["evicted_ttl"] > 0),
            Check("shed_oldest_fires", c["shed_oldest"] > 0),
        ]
        try:
            LiveInventory.load_checkpoint(self.checkpoint_path)
            checks.append(Check("checkpoint_verifies", True))
        except Exception as exc:  # a corrupt checkpoint is a failed check
            checks.append(Check("checkpoint_verifies", False, repr(exc)))
        if self.pinned:
            checks.append(Check("pin_state_sha256", report.state_sha256 == PIN_SERVE_STATE,
                                report.state_sha256))
        shed = c["shed_oldest"] + c["shed_newest"]
        layer = {
            "serve.queue.shed": float(shed),
            "serve.queue.high_watermark": float(c["queue_high_watermark"]),
            "serve.dedup.duplicates": float(c["duplicates"]),
            "serve.dead_letter": float(c["dead_letter"]),
            "serve.inventory.evicted_lru": float(report.inventory_stats["evicted_lru"]),
            "serve.inventory.evicted_ttl": float(report.inventory_stats["evicted_ttl"]),
        }
        output = (report.state_sha256, tuple(sorted((k, repr(v)) for k, v in c.items())))
        return Rep(seconds, float(props.lines), output, checks, layer)

    def reference_checks(self, reps: list[Rep]) -> list[Check]:
        return [_same("deterministic_across_reps", [r.output for r in reps])]

    def inputs(self) -> dict:
        return self.properties.as_dict()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (LinkExact, LinkFast, MetroSerial, MetroSharded, NetsimChurn, ServeReplay)
}
