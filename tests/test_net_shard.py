"""Sharded metro engine: byte-identity with the serial engine.

Covers :mod:`repro.net.shard` — the process-sharded twin of
:func:`~repro.net.deployment.run_multi_ap`.  The contract under test is
absolute: for any ``(config, seed)`` and any shard count, the sharded
run must produce the **same report pickle and the same event-trace
digest, byte for byte**, as the serial engine — including under
checkpoint/resume and injected shard-worker kills.  The digest covers
every event the serial engine processes in global ``(time, seq)``
order, so digest equality *is* the proof that the cross-shard merge
reconstructs the exact serial event sequence.

The example-based classes pin the claim at hand-picked configurations
that each stress one coupling channel (handoffs, relays, blockage,
commit delays straddling epoch boundaries, degenerate grids); the
hypothesis class then drives the same oracle across randomised
configurations and shard counts.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    MultiAPConfig,
    MultiAPTask,
    run_multi_ap,
    run_multi_ap_sharded,
)
from repro.net.shard import ShardEpochTask, _assign_aps
from repro.sim.cache import ResultCache
from repro.sim.executor import SweepExecutor
from repro.sim.faults import FaultPlan, FaultSpec

_SEED = 7

#: Small metro run that still exercises every coupling channel the
#: shards must reproduce: a mobile minority (handoffs), a hotspot
#: (load imbalance for the LPT partitioner), and light blockage.
_FAST = dict(
    num_tags=40,
    num_slots=400,
    epoch_slots=50,
    ap_spacing_m=6.0,
    mobile_fraction=0.3,
    hotspot_fraction=0.25,
    blockage_rate_hz=0.5,
)


def _config(**overrides) -> MultiAPConfig:
    return MultiAPConfig(**{**_FAST, **overrides})


def _serial() -> SweepExecutor:
    return SweepExecutor("serial")


def _assert_identical(config, seed=_SEED, shards=3, **kwargs):
    """The acceptance oracle: sharded == serial, byte for byte."""
    serial = run_multi_ap(config, seed=seed)
    kwargs.setdefault("executor", _serial())
    sharded = run_multi_ap_sharded(config, seed=seed, shards=shards, **kwargs)
    assert sharded.trace_digest == serial.trace_digest
    assert pickle.dumps(sharded) == pickle.dumps(serial)
    return serial


class TestByteIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 9])
    def test_matches_serial_for_any_shard_count(self, shards):
        _assert_identical(_config(), shards=shards)

    def test_shard_count_beyond_ap_count_clamps(self):
        # 9 APs; asking for 50 shards must behave like 9, not crash
        _assert_identical(_config(), shards=50)

    def test_roaming_with_handoffs(self):
        # persistent keeps tags contending for the whole horizon, so
        # the mobile majority actually roams between cells
        report = _assert_identical(
            _config(
                mobile_fraction=0.6,
                num_slots=800,
                time_warp=2000.0,
                persistent=True,
            )
        )
        assert report.handoffs > 0  # the scenario actually couples cells

    def test_relaying_past_the_cell_edge(self):
        # sparse grid: cells don't overlap, tags between cells are out
        # of direct coverage and must relay through neighbours
        report = _assert_identical(
            _config(
                ap_spacing_m=40.0,
                num_tags=120,
                num_slots=1500,
                relay_range_m=6.0,
                relay_max_hops=4,
                hotspot_fraction=0.0,
                blockage_rate_hz=0.0,
            )
        )
        assert report.tags_read_relayed > 0  # relays actually fired

    def test_zero_delay_handoff_commits(self):
        _assert_identical(
            _config(handoff_delay_slots=0, mobile_fraction=0.6, time_warp=2000.0)
        )

    def test_commit_delay_longer_than_epoch(self):
        # trigger-to-commit signalling straddles an epoch boundary, so
        # the commit must be routed into a *later* shard payload
        _assert_identical(
            _config(
                handoff_delay_slots=75,
                epoch_slots=50,
                mobile_fraction=0.6,
                time_warp=2000.0,
            )
        )

    def test_reuse_factor_one(self):
        _assert_identical(_config(spatial_reuse_factor=1))

    def test_without_stop_when_drained(self):
        # epochs keep dispatching after the last tag is read; workers
        # return empty record batches the merge must tolerate
        _assert_identical(_config(stop_when_drained=False, num_slots=300))

    def test_zero_tags(self):
        _assert_identical(_config(num_tags=0, num_slots=100))

    def test_single_ap_grid(self):
        _assert_identical(_config(grid_rows=1, grid_cols=1), shards=2)

    def test_epoch_every_slot(self):
        _assert_identical(_config(epoch_slots=1, num_slots=120))

    def test_trace_dump_matches_serial(self, tmp_path):
        config = _config()
        serial_path = tmp_path / "serial.jsonl"
        sharded_path = tmp_path / "sharded.jsonl"
        run_multi_ap(config, seed=_SEED, trace_path=serial_path)
        run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=3,
            executor=_serial(),
            trace_path=sharded_path,
        )
        assert sharded_path.read_bytes() == serial_path.read_bytes()

    def test_spawned_seed_sequence_matches_serial(self):
        # neither engine may consume the caller's sequence, so a
        # sequence that was already spawned from still agrees
        seed = np.random.SeedSequence(_SEED)
        seed.spawn(2)
        _assert_identical(_config(), seed=seed)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            run_multi_ap_sharded(_config(), shards=0)


class TestEpochLedger:
    """The planner prices each epoch once; the replay applies its ledger."""

    def test_sharded_run_prices_each_epoch_once(self, monkeypatch):
        import repro.net.deployment as deployment

        calls = {"distances": 0, "routes": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            deployment.Deployment,
            "distances_to_aps",
            counted("distances", deployment.Deployment.distances_to_aps),
        )
        monkeypatch.setattr(
            deployment,
            "compute_relay_routes",
            counted("routes", deployment.compute_relay_routes),
        )
        config = _config(
            mobile_fraction=0.6,
            num_slots=800,
            time_warp=2000.0,
            persistent=True,
        )
        n_epochs = -(-config.num_slots // config.epoch_slots)
        serial = run_multi_ap(config, seed=_SEED)
        assert calls == {"distances": n_epochs, "routes": n_epochs}
        calls.update(distances=0, routes=0)
        sharded = run_multi_ap_sharded(
            config, seed=_SEED, shards=2, executor=_serial()
        )
        assert calls == {"distances": n_epochs, "routes": n_epochs}
        assert serial.handoffs > 0  # the replay re-applied commits too
        assert pickle.dumps(sharded) == pickle.dumps(serial)

    def test_ledger_holds_only_per_tag_vectors(self):
        from repro.net.shard import _plan_metro

        config = _config()
        plan = _plan_metro(config, _SEED)
        n_epochs = -(-config.num_slots // config.epoch_slots)
        assert sorted(plan.ledger) == sorted(
            (process, e)
            for process in ("assoc", "relay")
            for e in range(n_epochs)
        )
        for _fingerprint, price in plan.ledger.values():
            arrays = [
                v for v in vars(price).values() if isinstance(v, np.ndarray)
            ]
            assert arrays and all(a.shape == (plan.n_tags,) for a in arrays)

    def test_replay_rejects_a_plan_from_another_seed(self):
        from repro.net.shard import _plan_metro, _replay_metro

        config = _config()
        plan = _plan_metro(config, _SEED + 1)
        with pytest.raises(RuntimeError, match="does not match the plan"):
            _replay_metro(config, _SEED, plan, {})

    def test_replay_rejects_edited_positions(self, monkeypatch):
        import repro.net.deployment as deployment
        from repro.net.shard import _plan_metro, _replay_metro

        config = _config(mobile_fraction=0.0)
        plan = _plan_metro(config, _SEED)
        draw = deployment.draw_deployment

        def nudged(*args, **kwargs):
            xs, ys, mobile = draw(*args, **kwargs)
            xs[3] += 1e-9
            return xs, ys, mobile

        monkeypatch.setattr(deployment, "draw_deployment", nudged)
        with pytest.raises(RuntimeError, match="assoc epoch 0"):
            _replay_metro(config, _SEED, plan, {})


#: Randomised scenario space: every draw toggles a different coupling
#: channel (mobility, hotspot load, commit delay, reuse colouring).
_scenarios = st.fixed_dictionaries(
    {
        "num_tags": st.integers(0, 30),
        "num_slots": st.sampled_from([90, 150, 240]),
        "epoch_slots": st.sampled_from([1, 7, 30, 50]),
        "mobile_fraction": st.sampled_from([0.0, 0.5]),
        "hotspot_fraction": st.sampled_from([0.0, 0.4]),
        "handoff_delay_slots": st.sampled_from([0, 8, 40]),
        "spatial_reuse_factor": st.sampled_from([1, 3]),
        "persistent": st.booleans(),
    }
)


class TestShardProperties:
    @settings(max_examples=12, deadline=None)
    @given(scenario=_scenarios, shards=st.integers(2, 9), seed=st.integers(0, 3))
    def test_any_partition_reproduces_the_serial_event_order(
        self, scenario, shards, seed
    ):
        """Digest equality across random configs/partitions proves the
        merged cross-shard stream pops in the exact serial
        ``(time, seq)`` order — the digest hashes every event."""
        config = _config(ap_spacing_m=6.0, time_warp=2000.0, **scenario)
        serial = run_multi_ap(config, seed=seed)
        sharded = run_multi_ap_sharded(
            config, seed=seed, shards=shards, executor=_serial()
        )
        assert sharded.trace_digest == serial.trace_digest
        assert pickle.dumps(sharded) == pickle.dumps(serial)

    @given(
        sizes=st.lists(st.integers(0, 500), min_size=1, max_size=24),
        n_shards=st.integers(1, 8),
    )
    def test_lpt_partition_is_total_and_deterministic(self, sizes, n_shards):
        owner = _assign_aps(sizes, n_shards)
        assert owner == _assign_aps(sizes, n_shards)  # pure function
        assert len(owner) == len(sizes)  # every AP owned exactly once
        assert all(0 <= s < n_shards for s in owner)
        if len(sizes) >= n_shards:
            assert set(owner) == set(range(n_shards))  # no idle shard


class TestExecutorStackIntegration:
    def test_process_pool_matches_serial_coordinator(self):
        config = _config(num_slots=250)
        pooled = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=2,
            executor=SweepExecutor("process", max_workers=2),
        )
        serial = run_multi_ap(config, seed=_SEED)
        assert pickle.dumps(pooled) == pickle.dumps(serial)

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        config = _config(num_slots=300)
        serial = run_multi_ap(config, seed=_SEED)
        cold = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=3,
            executor=_serial(),
            checkpoint_dir=tmp_path,
        )
        epochs = sorted(tmp_path.glob("shard_epoch_*.jsonl"))
        assert epochs  # one batched-fsync checkpoint file per epoch
        resumed = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=3,
            executor=_serial(),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert pickle.dumps(cold) == pickle.dumps(serial)
        assert pickle.dumps(resumed) == pickle.dumps(serial)

    def test_killed_shard_worker_recovers_bit_identically(self):
        """Chaos acceptance: hard-kill a shard worker mid-campaign; the
        pool degrades to the serial backend, the retry stack recomputes
        the shard-epoch, and the final report is still byte-identical.

        ``kill`` faults only fire inside pool workers (no-op in the
        owning process), so the process backend is load-bearing here.
        """
        config = _config(num_slots=250)
        faults = FaultPlan(specs=(FaultSpec("kill", 0, attempts=1),))
        survived = run_multi_ap_sharded(
            config,
            seed=_SEED,
            shards=2,
            executor=SweepExecutor("process", max_workers=2),
            faults=faults,
        )
        serial = run_multi_ap(config, seed=_SEED)
        assert pickle.dumps(survived) == pickle.dumps(serial)

    def test_shard_epoch_task_narrow_drops_foreign_payloads(self):
        # narrow() is what the pool submit path ships to workers: only
        # the target shard's payload survives the pickle
        task = ShardEpochTask(payloads=("a", "b", "c"))  # type: ignore[arg-type]
        narrowed = task.narrow(1.0)
        assert narrowed.payloads == (None, "b", None)
        with pytest.raises(AssertionError):
            narrowed.run(0.0, np.random.SeedSequence(0))


class TestMultiAPTaskSharding:
    def test_sweep_points_match_serial_engine(self):
        config = _config(num_slots=250)
        values = [10.0, 25.0]
        serial = _serial().run(values, MultiAPTask(config=config), seed=_SEED)
        sharded = _serial().run(
            values, MultiAPTask(config=config, shards=3), seed=_SEED
        )
        for a, b in zip(serial.points, sharded.points):
            assert pickle.dumps(a.metric) == pickle.dumps(b.metric)

    def test_cache_is_shared_between_engines(self, tmp_path):
        # byte-identical engines may share cache entries: warm the
        # cache with the serial engine, hit it with the sharded one
        config = _config(num_slots=250)
        values = [10.0, 25.0]
        cache = ResultCache(tmp_path / "cache")
        SweepExecutor("serial", cache=cache).run(
            values, MultiAPTask(config=config), seed=_SEED
        )
        warm = SweepExecutor("serial", cache=cache).run(
            values, MultiAPTask(config=config, shards=3), seed=_SEED
        )
        assert warm.cache_hits == len(values)

    def test_rejects_negative_shards(self):
        with pytest.raises(ValueError, match="shards"):
            MultiAPTask(config=_config(), shards=-1)
