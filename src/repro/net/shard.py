"""Sharded metro execution: byte-identical to serial, on many cores.

:func:`repro.net.deployment.run_multi_ap` is single-threaded; its MAC
inner loop dominates the wall clock at million-tag scale (every AP
activation draws one uniform per contender).  This module runs the
*same* simulation partitioned across worker processes and reproduces
the serial run **bit for bit** — same report pickle, same event-trace
digest — for any shard count.

Why this is possible without locks or clock synchronisation:

* **Per-AP RNG streams.**  Each AP of the grid draws from its own
  generator (spawned off the root :class:`~numpy.random.SeedSequence`
  in a fixed order by ``_build_metro``), so the draw sequence of one
  cell is independent of every other cell's backlog.  A worker that
  owns a subset of APs can replicate those cells' draws exactly,
  anywhere, as long as it carries the generators' states.
* **Epoch-synchronised cross-shard state.**  All cross-cell coupling —
  mobility, association/handoff, relay routing, interference — lands
  at epoch boundaries (plus handoff commits whose apply slots are
  fixed once the epoch's geometry is known), and a cell only *loses*
  contenders between rebuilds.  So a cell's entire slot-by-slot
  behaviour inside one epoch is a pure function of (contender
  snapshot, commit schedule, blockage windows, RNG state) — all known
  up front.  Serial MAC and workers both poll that behaviour through
  the one per-AP kernel, :class:`~repro.net.deployment._AlohaCell`.

The run happens in three passes:

1. **Plan** (serial): run the real engine with a recording MAC that
   never draws — it snapshots each epoch's contender partition and
   effective success probabilities, logs every handoff commit's apply
   slot, and captures the per-slot blockage mask.  The epoch layer
   (association's SINR matrix and its reductions, relay routes and
   effective link state) is priced here, once per epoch, and each
   price is kept in an epoch ledger together with a fingerprint of its
   inputs (tag positions and serving cells).  The ledger holds only
   O(tags) vectors per epoch, never the ``(tags, APs)`` matrices, and
   the MAC snapshots alias its arrays instead of copying them (unless
   a handoff commit changed the population first).
2. **Execute** (parallel): for each epoch, partition the APs over
   shards (greedy LPT on backlog so shards that drained ahead get work
   stolen from loaded ones), and dispatch one
   :class:`_ShardEpochTask` point per shard on the existing
   :class:`~repro.sim.executor.SweepExecutor` — inheriting its process
   pool, per-epoch checkpointing (:mod:`repro.sim.checkpoint`),
   seeded-retry recovery, and pool→serial degradation.  Workers build
   the serial MAC's cells for their APs and return compact outcome
   records plus their advanced RNG states.
3. **Replay** (serial, output-sized): run the real engine once more
   with a MAC that takes each ``(kind, tag)`` from the merged records
   instead of a cell and books it through the serial MAC's own
   bookkeeping, so the trace digest, the report, and all counters come
   out byte-identical.  Its epoch processes apply the planner's ledger
   instead of pricing again (the epoch layer neither draws nor depends
   on reads, so the prices are identical to the bit), and raise if an
   epoch's inputs do not match the planned fingerprint.  The replay's
   per-slot cost is O(APs), not O(backlog).

The per-slot draw work is the same as serial's; the speedup comes from
spreading it over workers.  The serial overhead is the planner — one
engine run that prices the epoch layer but never draws — plus the
replay, which neither draws nor prices; this is why a single shard is
slower than the serial engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.net.deployment import (
    _EMPTY,
    _SINGLE_OK,
    MultiAPConfig,
    MultiAPReport,
    MultiApAlohaMac,
    _AlohaCell,
    _EpochShared,
    _build_metro,
    _finalize_metro,
    _fresh_seedseq,
    _run_metro,
)
from repro.net.engine import Simulator
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.executor import SweepExecutor, SweepTask

__all__ = [
    "run_multi_ap_sharded",
    "ShardEpochTask",
]

#: Streams consumed by process registration before the per-AP streams
#: start (mobility, assoc, relay, blockage, mac) — see ``_build_metro``.
_N_PROCESS_STREAMS = 5

#: Shard-epoch checkpoints batch their fsyncs (satellite of the same
#: PR): one durability point per ~64 shard records instead of per line.
_CHECKPOINT_FSYNC_EVERY = 64


# -- pass 1: the plan ---------------------------------------------------------


class _PlannerMac(MultiApAlohaMac):
    """Stand-in MAC for the planning pass: records, never draws.

    At each epoch start (the relay process's version bump, exactly
    where the serial MAC builds its cells) it snapshots the epoch's
    ``mac_ap`` partition and effective success probabilities; it logs
    every handoff commit with the slot the serial MAC takes it in (the
    first slot the commit can influence), and per slot the blockage
    flag.  It never drains, because the epoch layer's behaviour is
    read-independent and the plan must cover the full horizon
    regardless of when the serial MAC stops.
    """

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.epoch_starts: list[int] = []
        self.epoch_mac_ap: list[np.ndarray] = []
        self.epoch_eff_clear: list[np.ndarray] = []
        self.epoch_eff_blocked: list[np.ndarray] = []
        self.epoch_commits: list[list[tuple[int, int, int]]] = []
        self.blocked_mask = np.zeros(self.num_slots, dtype=bool)

    def _drained(self) -> bool:
        return False

    def _begin_epoch(self, slot: int) -> None:
        routes = self.shared.routes
        if routes is not None and not self.shared.commits:
            # the population still holds exactly the relay rewrite, so
            # the ledger's arrays are the snapshot: alias, don't copy
            snapshot = (routes.mac_ap, routes.eff_clear, routes.eff_blocked)
        else:
            # no routes (no tags), or a direct tag's handoff commit
            # landed between the rewrite and this slot
            pop = self.population
            n = len(pop)
            snapshot = (
                pop.mac_ap[:n].copy(),
                pop.eff_clear_p[:n].copy(),
                pop.eff_blocked_p[:n].copy(),
            )
        self.epoch_starts.append(int(slot))
        self.epoch_mac_ap.append(snapshot[0])
        self.epoch_eff_clear.append(snapshot[1])
        self.epoch_eff_blocked.append(snapshot[2])
        self.epoch_commits.append([])

    def _handoff(self, slot: int, tag: int, source: int) -> None:
        self.epoch_commits[-1].append((int(slot), tag, source))

    def on_slot(self, slot: int, blocked: bool) -> None:
        self._sync(slot)
        self.blocked_mask[slot] = blocked


@dataclass
class _MetroPlan:
    """Everything the parallel pass needs, recorded by the planner."""

    num_slots: int
    n_tags: int
    n_aps: int
    reuse_factor: int
    ap_colors: np.ndarray
    epoch_starts: list[int]
    epoch_mac_ap: list[np.ndarray]
    epoch_eff_clear: list[np.ndarray]
    epoch_eff_blocked: list[np.ndarray]
    epoch_commits: list[list[tuple[int, int, int]]]  # (slot, tag, source)
    blocked_mask: np.ndarray
    ledger: dict  # (process, epoch) -> (input fingerprint, epoch price)

    def epoch_bounds(self, e: int) -> tuple[int, int]:
        start = self.epoch_starts[e]
        if e + 1 < len(self.epoch_starts):
            return start, self.epoch_starts[e + 1]
        return start, self.num_slots


def _plan_metro(
    config: MultiAPConfig, seed: int | np.random.SeedSequence
) -> _MetroPlan:
    """Run the recording pass and return the execution plan."""
    sim = Simulator(seed=_fresh_seedseq(seed), trace_capacity=1)
    shared = _EpochShared(ledger={})
    parts = _build_metro(sim, config, mac_cls=_PlannerMac, shared=shared)
    assert isinstance(parts.mac, _PlannerMac)
    _run_metro(sim, parts)
    mac = parts.mac
    return _MetroPlan(
        num_slots=config.num_slots,
        n_tags=len(parts.population),
        n_aps=parts.deployment.n_aps,
        reuse_factor=config.spatial_reuse_factor,
        ap_colors=parts.deployment.reuse_color.copy(),
        epoch_starts=mac.epoch_starts,
        epoch_mac_ap=mac.epoch_mac_ap,
        epoch_eff_clear=mac.epoch_eff_clear,
        epoch_eff_blocked=mac.epoch_eff_blocked,
        epoch_commits=mac.epoch_commits,
        blocked_mask=mac.blocked_mask,
        ledger=shared.ledger,
    )


# -- pass 2: shard workers ----------------------------------------------------


@dataclass(frozen=True)
class _ShardPayload:
    """One shard's slice of one epoch — everything a worker needs."""

    aps: tuple[int, ...]  # owned AP ids, ascending
    ap_colors: tuple[int, ...]  # reuse colour per owned AP
    reuse_factor: int
    start_slot: int
    end_slot: int
    persistent: bool
    blocked: np.ndarray  # per-slot blockage flag for the segment
    members: tuple[np.ndarray, ...]  # per owned AP: contender ids
    eff_clear: tuple[np.ndarray, ...]  # aligned success probabilities
    eff_blocked: tuple[np.ndarray, ...]
    commit_slots: tuple[np.ndarray, ...]  # per owned AP: removal slots
    commit_tags: tuple[np.ndarray, ...]
    rng_states: tuple[dict, ...]  # per owned AP: PCG64 state at start


@dataclass(frozen=True)
class _ShardResult:
    """Drawn outcomes + advanced RNG states from one worker.

    ``records`` has one ``(slot, ap, kind, tag)`` row per AP activation
    that drew; an activation without a row had an empty cell.
    """

    records: np.ndarray
    aps_owned: tuple[int, ...]
    rng_states: tuple[dict, ...]


def _run_shard_epoch(payload: _ShardPayload) -> _ShardResult:
    """Poll one shard's AP cells through the epoch.

    Builds the same :class:`~repro.net.deployment._AlohaCell` the
    serial MAC builds, from the same per-AP generator state, applies
    the planner's commit schedule and polls in serial slot order.
    """
    cells = []
    for k in range(len(payload.aps)):
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = payload.rng_states[k]
        cells.append(
            _AlohaCell(
                payload.members[k],
                payload.eff_clear[k],
                payload.eff_blocked[k],
                rng,
                persistent=payload.persistent,
            )
        )
    by_color: dict[int, list[int]] = {}
    for k, color in enumerate(payload.ap_colors):  # ascending AP id
        by_color.setdefault(color, []).append(k)
    next_commit = [0] * len(cells)
    records: list[tuple[int, int, int, int]] = []
    for slot in range(payload.start_slot, payload.end_slot):
        blocked = bool(payload.blocked[slot - payload.start_slot])
        for k in by_color.get(slot % payload.reuse_factor, ()):
            commit_slots, done = payload.commit_slots[k], next_commit[k]
            while done < commit_slots.size and commit_slots[done] <= slot:
                cells[k].remove(int(payload.commit_tags[k][done]))
                done += 1
            next_commit[k] = done
            kind, tag, _ = cells[k].poll(slot, blocked)
            if kind != _EMPTY:
                records.append((slot, payload.aps[k], kind, tag))
    return _ShardResult(
        records=np.asarray(records, dtype=np.int64).reshape(-1, 4),
        aps_owned=payload.aps,
        rng_states=tuple(cell.rng.bit_generator.state for cell in cells),
    )


@dataclass(frozen=True)
class ShardEpochTask(SweepTask):
    """One epoch's shard fan-out as a :class:`SweepTask`.

    Point ``i`` evaluates shard ``i``'s payload; the point seed is
    ignored (workers are fully determined by their payloads), which is
    exactly what makes the executor's seeded-retry recovery bit-exact:
    a retried or degraded-to-serial attempt recomputes the identical
    result.  :meth:`narrow` ships each worker only its own slice.
    """

    payloads: tuple[_ShardPayload | None, ...]

    def run(self, value: float, seed: np.random.SeedSequence) -> _ShardResult:
        payload = self.payloads[int(value)]
        assert payload is not None, "narrowed task asked for a foreign shard"
        return _run_shard_epoch(payload)

    def narrow(self, value: float) -> "ShardEpochTask":
        keep = int(value)
        return ShardEpochTask(
            payloads=tuple(
                p if i == keep else None for i, p in enumerate(self.payloads)
            )
        )


def _assign_aps(sizes: list[int], n_shards: int) -> list[int]:
    """Greedy LPT mapping of APs to shards, rebalanced every epoch.

    Largest backlog first onto the least-loaded shard (ties broken by
    index, so the assignment is deterministic).  Because per-AP streams
    make shard outputs partition-independent, this is free
    work-stealing: an AP whose cell drained cheaply this epoch migrates
    to whichever shard has capacity next epoch.
    """
    order = sorted(range(len(sizes)), key=lambda a: (-sizes[a], a))
    loads = [0.0] * n_shards
    owner = [0] * len(sizes)
    for a in order:
        s = min(range(n_shards), key=lambda i: (loads[i], i))
        owner[a] = s
        loads[s] += sizes[a] + 1.0
    return owner


def _build_epoch_payloads(
    plan: _MetroPlan,
    epoch: int,
    read: np.ndarray,
    rng_states: list[dict],
    n_shards: int,
    persistent: bool,
) -> list[_ShardPayload]:
    """Slice one epoch's plan into per-shard payloads."""
    start, end = plan.epoch_bounds(epoch)
    mac_ap = plan.epoch_mac_ap[epoch]
    effc = plan.epoch_eff_clear[epoch]
    effb = plan.epoch_eff_blocked[epoch]
    eligible = np.ones(plan.n_tags, dtype=bool) if persistent else ~read
    members = [
        np.flatnonzero(eligible & (mac_ap == ap)) for ap in range(plan.n_aps)
    ]
    commit_slots: list[list[int]] = [[] for _ in range(plan.n_aps)]
    commit_tags: list[list[int]] = [[] for _ in range(plan.n_aps)]
    # a commit takes the tag out of its source cell (no-op once read)
    for apply_slot, tag, source in plan.epoch_commits[epoch]:
        commit_slots[source].append(apply_slot)
        commit_tags[source].append(tag)
    owner = _assign_aps([m.size for m in members], n_shards)
    payloads = []
    for s in range(n_shards):
        aps = tuple(ap for ap in range(plan.n_aps) if owner[ap] == s)
        payloads.append(
            _ShardPayload(
                aps=aps,
                ap_colors=tuple(int(plan.ap_colors[ap]) for ap in aps),
                reuse_factor=plan.reuse_factor,
                start_slot=start,
                end_slot=end,
                persistent=persistent,
                blocked=plan.blocked_mask[start:end],
                members=tuple(members[ap] for ap in aps),
                eff_clear=tuple(effc[members[ap]] for ap in aps),
                eff_blocked=tuple(effb[members[ap]] for ap in aps),
                commit_slots=tuple(
                    np.asarray(commit_slots[ap], dtype=np.int64) for ap in aps
                ),
                commit_tags=tuple(
                    np.asarray(commit_tags[ap], dtype=np.int64) for ap in aps
                ),
                rng_states=tuple(rng_states[ap] for ap in aps),
            )
        )
    return payloads


# -- pass 3: replay -----------------------------------------------------------


class _ReplayMac(MultiApAlohaMac):
    """MAC that replays merged shard outcomes instead of drawing.

    Only the source of ``(kind, tag)`` differs from the serial MAC: a
    polled AP with no record had an empty cell, and every outcome is
    booked by the shared :meth:`MultiApAlohaMac._account`, so counters,
    trace and schedule calls come out in the serial order.
    """

    _NO_DRAW = (_EMPTY, -1)

    def load_outcomes(
        self, outcomes: dict[tuple[int, int], tuple[int, int]]
    ) -> None:
        """``(slot, ap) -> (kind, tag)`` for every activation that drew."""
        self._outcomes = outcomes

    def _sync(self, slot: int) -> None:
        self.shared.commits.clear()  # the workers already applied them

    def _poll(
        self, ap: int, slot: int, blocked: bool
    ) -> tuple[int, int, float]:
        kind, tag = self._outcomes.get((slot, ap), self._NO_DRAW)
        return kind, tag, 1.0


# -- the coordinator ----------------------------------------------------------


def run_multi_ap_sharded(
    config: MultiAPConfig,
    seed: int | np.random.SeedSequence = 0,
    *,
    shards: int = 2,
    trace_path: str | Path | None = None,
    executor: SweepExecutor | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    faults: object = None,
    strategy: object = None,
) -> MultiAPReport:
    """Run one metro simulation sharded across worker processes.

    Byte-identical to ``run_multi_ap(config, seed)`` — same report
    pickle, same trace digest — for any ``shards >= 1`` (the count is
    clamped to the AP count).  A :class:`~numpy.random.SeedSequence`
    seed is copied, never consumed, exactly as the serial engine does.

    ``executor`` defaults to a process-pool
    :class:`~repro.sim.executor.SweepExecutor` with one worker per
    shard; pass a serial-backend executor to run the whole pipeline in
    one process (still byte-identical — useful for tests and CI).
    ``checkpoint_dir`` writes one batched-fsync checkpoint file per
    epoch; with ``resume=True`` completed shard-epochs are restored
    bit-exactly instead of recomputed.  ``faults`` (a
    :class:`~repro.sim.faults.FaultPlan`) is forwarded to every epoch's
    executor run — a killed shard worker degrades the pool and the
    retry stack recovers the identical result.

    ``strategy`` exists only for parity with :func:`run_multi_ap`'s
    signature: the shard workers build their cells without a strategy
    (its window state is per tag and follows tags across cells, so it
    cannot be split over shards), so any non-default backoff strategy
    is **rejected loudly** here rather than silently diverging from the
    serial reference.  Mobile-reader
    scenarios are likewise single-AP only
    (:func:`repro.net.scenario.mobile.run_mobile_reader`) and never
    reach this engine.
    """
    from repro.net.scenario.backoff import is_default_strategy

    if not is_default_strategy(strategy):  # loud, never silent divergence
        name = getattr(strategy, "name", strategy)
        raise ValueError(
            f"run_multi_ap_sharded supports only the default "
            f"'adaptive-p' backoff strategy; got {name!r}.  The shard "
            "workers replay the adaptive draw pattern directly, so a "
            "different strategy would silently diverge from serial — "
            "use run_multi_ap(config, seed, strategy=...) instead"
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    n_aps = config.grid_rows * config.grid_cols
    n_shards = max(1, min(int(shards), n_aps))
    plan = _plan_metro(config, seed)
    if executor is None:
        executor = SweepExecutor("process", max_workers=n_shards)
    outcomes = _execute_plan(
        plan,
        config,
        seed,
        n_shards,
        executor,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        faults=faults,
    )
    return _replay_metro(config, seed, plan, outcomes, trace_path)


def _execute_plan(
    plan: _MetroPlan,
    config: MultiAPConfig,
    seed: int | np.random.SeedSequence,
    n_shards: int,
    executor: SweepExecutor,
    *,
    checkpoint_dir: str | Path | None,
    resume: bool,
    faults: object,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Fan every epoch out over the shards; merge the drawn outcomes.

    Returns ``(slot, ap) -> (kind, tag)`` for every activation that
    drew, the replay's input.
    """
    # Reconstruct the per-AP generators exactly as the serial MAC gets
    # them: children 5..5+n_aps of the root, in ascending AP-id order.
    ap_children = _fresh_seedseq(seed).spawn(_N_PROCESS_STREAMS + plan.n_aps)[
        _N_PROCESS_STREAMS:
    ]
    rng_states = [
        np.random.default_rng(child).bit_generator.state
        for child in ap_children
    ]
    read = np.zeros(plan.n_tags, dtype=bool)
    stop_on_drain = config.stop_when_drained and not config.persistent
    outcomes: dict[tuple[int, int], tuple[int, int]] = {}
    for e in range(len(plan.epoch_starts)):
        if stop_on_drain and read.all():
            break  # serial stopped clocking slots; nothing left to draw
        payloads = _build_epoch_payloads(
            plan, e, read, rng_states, n_shards, config.persistent
        )
        task = ShardEpochTask(payloads=tuple(payloads))
        checkpoint = None
        if checkpoint_dir is not None:
            checkpoint = SweepCheckpoint(
                Path(checkpoint_dir) / f"shard_epoch_{e:04d}.jsonl",
                fsync_every=_CHECKPOINT_FSYNC_EVERY,
            )
        report = executor.run(
            range(len(payloads)),
            task,
            seed=e,
            faults=faults,
            checkpoint=checkpoint,
            resume=resume,
        )
        if report.failed:
            raise RuntimeError(
                f"shard epoch {e}: {report.failed} shard(s) failed "
                f"({report.failures[0].describe()})"
            )
        for result in report.metrics:
            assert isinstance(result, _ShardResult)
            for ap, state in zip(result.aps_owned, result.rng_states):
                rng_states[int(ap)] = state
            records = result.records
            read[records[records[:, 2] == _SINGLE_OK, 3]] = True
            for slot, ap, kind, tag in records.tolist():
                outcomes[slot, ap] = (kind, tag)
    return outcomes


def _replay_metro(
    config: MultiAPConfig,
    seed: int | np.random.SeedSequence,
    plan: _MetroPlan,
    outcomes: dict[tuple[int, int], tuple[int, int]],
    trace_path: str | Path | None = None,
) -> MultiAPReport:
    """Run the engine once more on the plan's epoch ledger and the
    merged outcomes; returns the serial engine's report.

    Raises :class:`RuntimeError` if an epoch's inputs do not match the
    plan's fingerprint (a plan from another config or seed).
    """
    sim = Simulator(
        seed=_fresh_seedseq(seed), trace_capacity=config.trace_capacity
    )
    shared = _EpochShared(ledger=plan.ledger, replay=True)
    parts = _build_metro(sim, config, mac_cls=_ReplayMac, shared=shared)
    assert isinstance(parts.mac, _ReplayMac)
    parts.mac.load_outcomes(outcomes)
    _run_metro(sim, parts)
    final = _finalize_metro(sim, parts)
    if trace_path is not None:
        sim.trace.dump(trace_path)
    return final
