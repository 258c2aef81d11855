"""E22 — sharded engine: million-tag metro runs, byte-identical.

Extension experiment on :func:`repro.net.shard.run_multi_ap_sharded`,
the process-sharded twin of the E21 metro engine.  Three claims:

* **determinism** — at full scale (1M tags on a 3x3-AP block; quick
  mode: 20k) the sharded engine reproduces the serial engine **bit for
  bit**: same report pickle, same event-trace digest.  The digest
  covers every event in global ``(time, seq)`` order, so the match
  proves the cross-shard merge reconstructs the exact serial event
  sequence;
* **speed** — the sharded run beats serial wall clock by >= 4x on a
  >= 4-core machine (the assertion is skipped below 4 cores and under
  ``REPRO_SKIP_BENCH=1``; the events/sec table prints regardless).
  The table also splits the sharded wall clock into its plan, execute
  and replay passes: only execute runs in parallel, so
  ``serial / (plan + replay)`` bounds the speedup on any core count
  (Amdahl) and the claim can be checked on a host with fewer cores;
* **resilience** — with per-epoch checkpoints and an injected
  shard-worker kill, the pool degrades to the serial backend, the
  retry stack recomputes the lost shard-epoch, a resume restores the
  completed epochs from disk — and every variant still produces the
  byte-identical report.

Quick mode (``REPRO_E22_QUICK=1``, CI default) shrinks the population
and slot budget; every determinism and resilience assertion still
holds.  The event trace of the sharded run is dumped to
``REPRO_E22_TRACE`` (default ``e22_event_trace.jsonl``) so CI can
upload it when the job fails.
"""

import os
import pickle
import shutil
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import repro.net.shard as shard
from repro.net import MultiAPConfig, run_multi_ap, run_multi_ap_sharded
from repro.sim.executor import SweepExecutor
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.results import ResultTable

_SEED = 22
_QUICK = os.environ.get("REPRO_E22_QUICK") == "1"

_TAGS = 20_000 if _QUICK else 1_000_000
_SLOTS = 600 if _QUICK else 3000
_EPOCH_SLOTS = 200 if _QUICK else 1000
_CHAOS_TAGS = 2_000 if _QUICK else 10_000
_CHAOS_SLOTS = 400 if _QUICK else 1000
_TRACE_PATH = Path(os.environ.get("REPRO_E22_TRACE", "e22_event_trace.jsonl"))

#: Dense city block, static population: the MAC inner loop dominates,
#: which is exactly the regime sharding targets.
_BLOCK = dict(grid_rows=3, grid_cols=3, ap_spacing_m=8.0)


def _config(**overrides) -> MultiAPConfig:
    base = dict(
        num_tags=_TAGS, num_slots=_SLOTS, epoch_slots=_EPOCH_SLOTS, **_BLOCK
    )
    return MultiAPConfig(**{**base, **overrides})


#: The sharded coordinator's passes, in run order, by module function.
_PASSES = (
    ("plan", "_plan_metro"),
    ("execute", "_execute_plan"),
    ("replay", "_replay_metro"),
)


@contextmanager
def _timed_passes(seconds: dict[str, float]):
    """Record each coordinator pass's wall clock into ``seconds``."""
    originals = {name: getattr(shard, name) for _, name in _PASSES}

    def timed(label, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] = time.perf_counter() - start

        return wrapper

    for label, name in _PASSES:
        setattr(shard, name, timed(label, originals[name]))
    try:
        yield seconds
    finally:
        for name, fn in originals.items():
            setattr(shard, name, fn)


def _scale_run():
    """Serial vs sharded at headline scale: wall clock + byte-identity."""
    cores = os.cpu_count() or 1
    shards = min(9, max(2, cores))
    config = _config()

    start = time.perf_counter()
    serial = run_multi_ap(config, seed=_SEED)
    serial_s = time.perf_counter() - start

    passes: dict[str, float] = {}
    with _timed_passes(passes):
        start = time.perf_counter()
        sharded = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=shards,
            executor=SweepExecutor("process", max_workers=shards),
            trace_path=_TRACE_PATH,
        )
        sharded_s = time.perf_counter() - start
    return cores, shards, (serial_s, serial), (sharded_s, sharded, passes)


def _chaos_run():
    """Checkpointed sharded run surviving a worker kill, then a resume."""
    config = _config(num_tags=_CHAOS_TAGS, num_slots=_CHAOS_SLOTS)
    reference = run_multi_ap(config, seed=_SEED)
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-e22-ckpt-")
    try:
        survived = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=2,
            executor=SweepExecutor("process", max_workers=2),
            checkpoint_dir=checkpoint_dir,
            faults=FaultPlan(specs=(FaultSpec("kill", 0, attempts=1),)),
        )
        epoch_files = sorted(Path(checkpoint_dir).glob("shard_epoch_*.jsonl"))
        resumed = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=2,
            executor=SweepExecutor("serial"),
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        return reference, survived, len(epoch_files), resumed
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


def _experiment():
    return _scale_run(), _chaos_run()


def test_e22_shard_scaling(once):
    scale, chaos = once(_experiment)
    cores, shards, (serial_s, serial), (sharded_s, sharded, passes) = scale

    # -- A: wall clock + events/sec, serial vs sharded ----------------------
    events = serial.events_processed
    table = ResultTable(
        f"E22a: {_TAGS} tags x 9 APs x {_SLOTS} slots, {cores} cores "
        f"({shards} shards)",
        ["engine", "wall_s", "plan_s", "execute_s", "replay_s",
         "events_per_s", "speedup", "tags_read"],
    )
    table.add_row(
        "serial", round(serial_s, 2), "-", "-", "-",
        round(events / serial_s), 1.0, serial.tags_read,
    )
    table.add_row(
        f"sharded x{shards}",
        round(sharded_s, 2),
        *(round(passes[label], 2) for label, _ in _PASSES),
        round(events / sharded_s),
        round(serial_s / sharded_s, 2),
        sharded.tags_read,
    )
    print()
    print(table.to_text())
    assert set(passes) == {label for label, _ in _PASSES}
    serial_passes_s = passes["plan"] + passes["replay"]
    print(
        f"Amdahl ceiling (execute pass free): "
        f"{serial_s / serial_passes_s:.2f}x"
    )

    # -- B: byte-identity at scale ------------------------------------------
    digest_match = sharded.trace_digest == serial.trace_digest
    pickle_match = pickle.dumps(sharded) == pickle.dumps(serial)
    print(f"\ndigest match: {digest_match}  pickle match: {pickle_match}")
    assert digest_match, "sharded event history diverged from serial"
    assert pickle_match, "sharded report diverged from serial"
    assert _TRACE_PATH.exists(), "sharded run must dump its event trace"
    assert sharded.trace_digest in _TRACE_PATH.read_text().splitlines()[0]
    print(f"event trace artifact: {_TRACE_PATH}")

    # the >= 4x acceptance claim needs real cores under the pool
    if (
        os.environ.get("REPRO_SKIP_BENCH") != "1"
        and not _QUICK
        and cores >= 4
    ):
        assert serial_s / sharded_s >= 4.0, (
            f"sharded x{shards} only {serial_s / sharded_s:.2f}x faster "
            f"on {cores} cores"
        )

    # -- C: kill-a-worker chaos + per-epoch checkpoint resume ---------------
    reference, survived, n_epoch_files, resumed = chaos
    chaos_table = ResultTable(
        f"E22c: {_CHAOS_TAGS} tags, worker killed at epoch 0, "
        "per-epoch checkpoints",
        ["variant", "pickle_match", "epoch_checkpoints"],
    )
    survived_match = pickle.dumps(survived) == pickle.dumps(reference)
    resumed_match = pickle.dumps(resumed) == pickle.dumps(reference)
    chaos_table.add_row("killed worker", survived_match, n_epoch_files)
    chaos_table.add_row("resumed", resumed_match, n_epoch_files)
    print()
    print(chaos_table.to_text())
    assert n_epoch_files > 0, "no per-epoch checkpoint files were written"
    assert survived_match, "post-kill recovery diverged from serial"
    assert resumed_match, "checkpoint resume diverged from serial"
