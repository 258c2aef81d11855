"""Equivalence contract of the fused whole-budget backend.

The ``"fused"`` tier hands the entire remaining frame budget to one
:meth:`~repro.sim.batch.BatchLinkSimulator.simulate_point` array
program instead of re-entering Python per chunk.  Its contract is
**byte identity** with the serial reference: same RNG serial order per
frame, frame-exact early exit on ``target_errors``, invariant to chunk
sizes, block-growth schedules, executor schedules, and which bit-exact
tier warmed the cache.  These tests pin every face of that contract.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.channel.multipath as multipath
import repro.sim.batch as batch
from repro.channel.blockage import BlockageEvent
from repro.channel.environment import Environment
from repro.core.ap import APConfig
from repro.core.link import LinkConfig
from repro.core.tag import TagConfig
from repro.dsp import rows
from repro.sim.batch import BatchLinkSimulator
from repro.sim.cache import ResultCache
from repro.sim.executor import BerSweepTask, PointTimeoutError, SweepExecutor
from repro.sim.monte_carlo import (
    BIT_EXACT_BACKENDS,
    LinkBerAccumulator,
    estimate_link_ber,
)

_NOISY = LinkConfig(distance_m=13.0, environment=Environment.typical_office())
_RICIAN = LinkConfig(
    distance_m=8.0, rician_k_db=6.0, environment=Environment.typical_office()
)

#: Configs that together reach every front-end branch: Rician channels,
#: a reflector interference matrix, DC block, ADC and phase noise
#: (``rician_office``); subcarrier de-hop + channel filter, Doppler
#: mixer and a blockage window (``subcarrier_mobile``); noise off with
#: no receive conditioning at all, so the composite rows pass straight
#: through (``bare``).
_BRANCHES = {
    "rician_office": _RICIAN,
    "subcarrier_mobile": LinkConfig(
        tag=TagConfig(subcarrier_hz=20e6, samples_per_symbol=16),
        radial_velocity_m_s=1.5,
        blockage_events=(BlockageEvent(20e-6, 60e-6, attenuation_db=10.0),),
    ),
    "bare": LinkConfig(
        include_noise=False,
        phase_noise=None,
        ap=APConfig(use_dc_block=False, adc=None),
    ),
}


@pytest.fixture
def row_threads(monkeypatch):
    """Force the row-pass thread count; chunks may be a single row."""
    monkeypatch.setattr(rows, "_MIN_CHUNK_ROWS", 1)

    def force(count: int) -> None:
        monkeypatch.setattr(rows, "_ROW_THREADS", count)

    return force


def _estimate(config, backend, *, chunk_frames=1, target_errors=50,
              max_bits=24_576):
    return estimate_link_ber(
        config,
        target_errors=target_errors,
        max_bits=max_bits,
        bits_per_frame=2048,
        seed=0,
        chunk_frames=chunk_frames,
        backend=backend,
    )


class TestByteIdentity:
    @pytest.mark.parametrize("config", [_NOISY, _RICIAN], ids=["awgn", "rician"])
    def test_fused_equals_serial_and_vectorized(self, config):
        serial = _estimate(config, "serial")
        fused = _estimate(config, "fused")
        vectorized = _estimate(config, "vectorized", chunk_frames=4)
        assert fused == serial
        assert fused == vectorized

    @pytest.mark.parametrize("chunk_frames", [1, 3, 7, 64])
    def test_fused_ignores_chunk_size(self, chunk_frames):
        """chunk_frames is a no-op for the whole-budget program."""
        baseline = _estimate(_NOISY, "fused", chunk_frames=1)
        assert _estimate(_NOISY, "fused", chunk_frames=chunk_frames) == baseline

    def test_early_exit_is_frame_exact(self):
        """A tiny error target must stop fused on the same frame as serial."""
        serial = _estimate(_NOISY, "serial", target_errors=2)
        fused = _estimate(_NOISY, "fused", target_errors=2)
        assert fused == serial
        assert fused.bit_errors >= 2
        # stopped early: budget would have allowed 12 frames
        assert fused.frames < 12

    @pytest.mark.parametrize("start_block", [1, 2, 5, 16, 128])
    def test_block_growth_schedule_invariant(self, start_block):
        """simulate_point results do not depend on the block schedule.

        Overshoot frames inside a block consume RNG state the serial
        path would never draw, but are discarded before absorption —
        the accumulated counts must not see them.
        """
        simulator = BatchLinkSimulator(_NOISY, num_payload_bits=2048)
        baseline = simulator.simulate_point(
            np.random.default_rng(5), errors_needed=20, max_frames=12,
            start_block=16,
        )
        got = simulator.simulate_point(
            np.random.default_rng(5), errors_needed=20, max_frames=12,
            start_block=start_block,
        )
        assert np.array_equal(got[0], baseline[0])
        assert np.array_equal(got[1], baseline[1])


class TestAccumulatorReplay:
    def test_accumulator_matches_driver(self):
        """Stepping the accumulator chunk by chunk equals one-shot fused."""
        accumulator = LinkBerAccumulator(
            _NOISY,
            target_errors=50,
            max_bits=24_576,
            bits_per_frame=2048,
            seed=0,
            backend="fused",
        )
        while not accumulator.done:
            accumulator = accumulator.advance()
        assert accumulator.estimate() == _estimate(_NOISY, "fused")

    def test_pickle_roundtrip_mid_flight(self):
        """Fused accumulators stay picklable for the process backend."""
        accumulator = LinkBerAccumulator(
            _NOISY,
            target_errors=2,
            max_bits=24_576,
            bits_per_frame=2048,
            seed=0,
            backend="fused",
        )
        revived = pickle.loads(pickle.dumps(accumulator))
        while not revived.done:
            revived = revived.advance()
        assert revived.estimate() == _estimate(_NOISY, "fused", target_errors=2)


class TestCacheKeyspace:
    def _task(self, backend, chunk_frames=1):
        return BerSweepTask(
            config=_NOISY,
            target_errors=20,
            max_bits=8_192,
            bits_per_frame=2048,
            chunk_frames=chunk_frames,
            link_backend=backend,
        )

    def test_bit_exact_tiers_share_cache_entries(self):
        """serial/vectorized/fused (any chunking) → one cache key."""
        keys = {
            pickle.dumps(self._task(backend, chunk).cache_parts(13.0))
            for backend in BIT_EXACT_BACKENDS
            for chunk in (1, 8)
        }
        assert len(keys) == 1

    def test_fast_tier_has_its_own_keyspace(self):
        exact = pickle.dumps(self._task("serial").cache_parts(13.0))
        fast = pickle.dumps(self._task("fast").cache_parts(13.0))
        assert exact != fast

    def test_cache_warmed_by_serial_serves_fused(self, tmp_path):
        """Cross-backend cache replay is byte-identical."""
        values = [12.0, 13.0]
        cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor("serial", cache=cache).run(
            values, self._task("serial"), seed=0
        )
        warm = SweepExecutor("serial", cache=cache).run(
            values, self._task("fused"), seed=0
        )
        assert warm.cache_hits == len(values)
        assert [pickle.dumps(p.metric) for p in cold.points] == [
            pickle.dumps(p.metric) for p in warm.points
        ]

    @pytest.mark.parametrize("schedule", ["uniform", "adaptive"])
    def test_schedules_agree_under_fused(self, schedule):
        """Uniform and adaptive schedules return identical fused points."""
        values = [12.0, 13.0]
        report = SweepExecutor("serial", schedule=schedule).run(
            values, self._task("fused"), seed=0
        )
        baseline = SweepExecutor("serial").run(
            values, self._task("serial"), seed=0
        )
        assert [p.metric for p in report.points] == [
            p.metric for p in baseline.points
        ]


class TestRowThreadInvariance:
    """The row passes are byte-identical at any thread count."""

    @pytest.mark.parametrize("frames", [1, 2, 17])
    @pytest.mark.parametrize("name", sorted(_BRANCHES))
    def test_front_end_and_point_bytes(self, row_threads, name, frames):
        simulator = BatchLinkSimulator(_BRANCHES[name], num_payload_bits=2048)
        outputs = []
        for count in (1, 2, 3):
            row_threads(count)
            _, work, filtered = simulator._front_end(
                frames, np.random.default_rng(frames)
            )
            errors, detected = simulator.simulate_point(
                np.random.default_rng(frames), errors_needed=10**9,
                max_frames=frames, start_block=frames,
            )
            outputs.append(
                (work.tobytes(), filtered.tobytes(), errors.tobytes(),
                 detected.tobytes())
            )
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_more_threads_than_cores_under_fast_switching(self, row_threads):
        """Eight threads on a 2-4 CPU host, switching every 10 us: the
        chunks write disjoint rows of shared outputs, so the bytes still
        match the single-thread pass."""
        simulator = BatchLinkSimulator(_RICIAN, num_payload_bits=2048)
        row_threads(1)
        expected = [a.tobytes() for a in simulator._front_end(
            17, np.random.default_rng(4))]
        row_threads(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                got = [a.tobytes() for a in simulator._front_end(
                    17, np.random.default_rng(4))]
                assert got == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n_rows,count", [(1, 3), (2, 3), (17, 3), (17, 2), (5, 8)])
    def test_chunks_cover_rows_once(self, row_threads, n_rows, count):
        row_threads(count)
        seen = []
        lock = threading.Lock()

        def record(start, stop):
            with lock:
                seen.append((start, stop, threading.get_ident()))

        rows._map_rows(record, n_rows)
        spans = sorted((start, stop) for start, stop, _ in seen)
        assert len(spans) == min(count, n_rows)
        assert spans[0][0] == 0 and spans[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(start < stop for start, stop in spans)
        first = [ident for start, _, ident in seen if start == 0]
        assert first == [threading.get_ident()]

    def test_min_chunk_rows_caps_the_thread_count(self, monkeypatch):
        monkeypatch.setattr(rows, "_ROW_THREADS", 4)
        seen = []
        rows._map_rows(lambda start, stop: seen.append((start, stop)), 7)
        assert seen == [(0, 7)]  # 7 rows < 2 chunks of _MIN_CHUNK_ROWS


#: The program functions the traced benchmark run wraps (one span stack,
#: so each must run on the thread that called into the link tier).
_TRACED = (
    (BatchLinkSimulator, "_build"),
    (BatchLinkSimulator, "simulate_point"),
    (BatchLinkSimulator, "tx_reflections"),
    (BatchLinkSimulator, "_front_end"),
    (BatchLinkSimulator, "_detect_starts"),
    (batch, "rician_channel"),
    (batch, "apply_channels_to_rows"),
)


class TestThreadDiscipline:
    def test_traced_stages_run_on_the_caller(self, row_threads, monkeypatch):
        row_threads(2)
        calls: dict[str, set[int]] = {}

        def recorder(name, fn):
            def wrapper(*args, **kwargs):
                calls.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr in _TRACED + ((multipath, "_apply_channels_chunk"),):
            monkeypatch.setattr(owner, attr, recorder(attr, getattr(owner, attr)))
        simulator = BatchLinkSimulator(_RICIAN, num_payload_bits=2048)
        simulator.simulate_point(
            np.random.default_rng(0), errors_needed=10**9, max_frames=6,
            start_block=2,
        )
        caller = threading.get_ident()
        for _, attr in _TRACED:
            assert calls[attr] == {caller}, attr
        # ... while the row chunks inside them also ran on pool threads
        # (a new pool per call, so possibly a new ident each time).
        assert caller in calls["_apply_channels_chunk"]
        assert len(calls["_apply_channels_chunk"]) >= 2

    def test_no_thread_outlives_a_point(self, row_threads):
        row_threads(3)
        baseline = threading.active_count()
        BatchLinkSimulator(_RICIAN, num_payload_bits=2048).simulate_point(
            np.random.default_rng(1), errors_needed=10**9, max_frames=8
        )
        assert threading.active_count() == baseline

    def test_timeout_leaves_no_thread_running(self, row_threads):
        row_threads(2)
        baseline = threading.active_count()
        task = BerSweepTask(
            config=_RICIAN,
            target_errors=10**9,
            max_bits=2048 * 4096,
            bits_per_frame=2048,
            link_backend="fused",
        )
        report = SweepExecutor("serial", timeout_s=0.3).run([8.0], task, seed=0)
        assert report.failed == 1
        assert PointTimeoutError.__name__ in report.records[0].error
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "pool"])
    def test_chunk_error_propagates_after_every_chunk_ends(
        self, row_threads, failing
    ):
        row_threads(2)
        baseline = threading.active_count()
        ended = []

        def chunk(start, stop):
            if start == (0, 4)[failing]:
                raise ValueError(f"chunk {failing}")
            ended.append(start)

        with pytest.raises(ValueError, match=f"chunk {failing}"):
            rows._map_rows(chunk, 8)
        assert ended == [(4, 0)[failing]]
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_worker_processes_use_one_row_thread(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            assert pool.submit(rows._row_threads).result(timeout=120) == 1

    def test_caller_uses_every_allowed_cpu(self):
        expected = (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )
        assert rows._row_threads() == expected
