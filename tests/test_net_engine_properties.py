"""Property-based tests (hypothesis) for the discrete-event engine.

The example-based suite in ``tests/test_net_engine.py`` pins the
engine's contracts at hand-picked schedules; this module drives the
same two contracts across *randomised* schedules and registration
patterns:

* **Total ``(time, seq)`` order** — any batch of scheduled events,
  including same-time ties, nested scheduling and random cancellations,
  pops in strictly increasing ``(time, seq)`` order.
* **Registration-order RNG streams** — a process's draw sequence is a
  pure function of (root seed, registration slot).  In particular,
  shuffling the registration order of *toggled-off* processes among
  their own slots, or letting them draw arbitrarily, must not shift any
  active process's stream — and therefore not the run's trace digest.
  This is the invariant that lets :func:`repro.net.sim.run_netsim` and
  :func:`repro.net.deployment.run_multi_ap` register every process
  unconditionally and stay byte-deterministic as features toggle.

A third class checks the population's O(1) drain counter: after any
sequence of lifecycle and outcome calls it equals the O(N) scan the
MACs used to run per slot.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.engine import Process, Simulator
from repro.net.population import TagPopulation

#: Schedules drawn over a coarse float grid so same-time ties are
#: common (the interesting case), yet times stay exactly representable.
_times = st.lists(
    st.integers(0, 12).map(lambda k: k * 0.25),
    min_size=1,
    max_size=50,
)


class TestEventOrderProperties:
    @given(times=_times)
    def test_events_pop_in_time_then_seq_order(self, times):
        sim = Simulator(0)
        popped = []
        handles = [
            sim.schedule(t, lambda k=k: popped.append(k))
            for k, t in enumerate(times)
        ]
        assert sim.run() == len(times)
        assert len(popped) == len(times)
        keys = [(times[k], handles[k].seq) for k in popped]
        assert keys == sorted(keys)
        # ties broken strictly by scheduling order
        for a, b in zip(popped, popped[1:]):
            if times[a] == times[b]:
                assert a < b

    @given(times=_times, doomed=st.sets(st.integers(0, 49)))
    def test_cancellation_preserves_survivor_order(self, times, doomed):
        sim = Simulator(0)
        popped = []
        handles = [
            sim.schedule(t, lambda k=k: popped.append(k))
            for k, t in enumerate(times)
        ]
        for k in doomed:
            if k < len(handles):
                sim.cancel(handles[k])
        sim.run()
        survivors = [k for k in range(len(times)) if k not in doomed]
        assert sorted(popped) == survivors
        keys = [(times[k], handles[k].seq) for k in popped]
        assert keys == sorted(keys)

    @given(
        times=_times,
        child_delays=st.lists(
            st.integers(0, 4).map(lambda k: k * 0.25),
            min_size=1,
            max_size=50,
        ),
    )
    def test_nested_scheduling_keeps_total_order(self, times, child_delays):
        # every event spawns one child at now + delay; children get
        # higher seqs than anything already queued, so the global
        # (time, seq) log must still come out sorted
        sim = Simulator(0)
        log = []

        def parent(k, t):
            delay = child_delays[k % len(child_delays)]
            handle = sim.schedule(delay, lambda: log.append(("child", sim.now)))
            log.append(("parent", sim.now, handle.seq))

        for k, t in enumerate(times):
            sim.schedule(t, lambda k=k, t=t: parent(k, t))
        sim.run()
        observed_times = [entry[1] for entry in log]
        assert observed_times == sorted(observed_times)
        assert sum(1 for e in log if e[0] == "child") == len(times)

    @given(times=_times, boundary=st.integers(0, 12).map(lambda k: k * 0.25))
    def test_run_until_splits_cleanly(self, times, boundary):
        # running to a boundary then draining must execute the same
        # total order as one uninterrupted run
        def run(split):
            sim = Simulator(0)
            popped = []
            for k, t in enumerate(times):
                sim.schedule(t, lambda k=k: popped.append(k))
            if split:
                sim.run(until=boundary)
                assert all(times[k] <= boundary for k in popped)
            sim.run()
            return popped

        assert run(split=True) == run(split=False)


def _slot_reference(seed: int, slot: int, n_slots: int) -> np.ndarray:
    """The draws a process in ``slot`` of ``n_slots`` must produce."""
    children = np.random.SeedSequence(seed).spawn(n_slots)
    return np.random.default_rng(children[slot]).random(8)


class TestRngStreamProperties:
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_slots=st.integers(1, 8),
        active_slot=st.integers(0, 7),
    )
    def test_stream_is_pure_function_of_seed_and_slot(
        self, seed, n_slots, active_slot
    ):
        active_slot %= n_slots
        sim = Simulator(seed)
        procs = [sim.add_process(Process(f"p{i}")) for i in range(n_slots)]
        np.testing.assert_array_equal(
            procs[active_slot].rng.random(8),
            _slot_reference(seed, active_slot, n_slots),
        )

    @given(
        seed=st.integers(0, 2**31 - 1),
        draws=st.lists(st.integers(0, 64), min_size=3, max_size=3),
    )
    def test_idle_draw_volume_cannot_shift_other_streams(self, seed, draws):
        # however much the other processes draw, slot 1's stream is
        # untouched — interleaving independence, the engine's core claim
        sim = Simulator(seed)
        a = sim.add_process(Process("a"))
        b = sim.add_process(Process("b"))
        c = sim.add_process(Process("c"))
        for proc, n in zip((a, b, c), draws):
            proc.rng.random(n)
        follow_on = b.rng.random(8)
        reference = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(3)[1]
        ).random(draws[1] + 8)[draws[1] :]
        np.testing.assert_array_equal(follow_on, reference)

    @given(
        seed=st.integers(0, 2**31 - 1),
        idle_order=st.permutations(["w", "x", "y", "z"]),
        active_slot=st.integers(0, 4),
    )
    @settings(max_examples=40)
    def test_shuffled_idle_registration_keeps_the_digest(
        self, seed, idle_order, active_slot
    ):
        """Toggled-off processes may register in any order among their
        own slots without perturbing the active process's digest."""

        class Ticker(Process):
            def start(self):
                self.schedule(0.0, self.tick)

            def tick(self, i=0):
                self.trace("tick", i=i, draw=float(self.rng.random()))
                if i < 10:
                    self.schedule(0.5, lambda: self.tick(i + 1))

        def digest(order):
            sim = Simulator(seed)
            names = list(order)
            names.insert(active_slot, "active")
            procs = []
            for name in names:
                cls = Ticker if name == "active" else Process
                procs.append(sim.add_process(cls(name)))
            for proc in procs:
                proc.start()  # idle Process.start() is a no-op
            sim.run()
            return sim.trace.digest()

        assert digest(idle_order) == digest(["w", "x", "y", "z"])

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_moving_the_active_slot_changes_the_stream(self, seed):
        # the contrapositive: registration order *is* load-bearing —
        # giving the active process a different slot yields different
        # draws (under spawn-child independence)
        def first_draws(slot):
            sim = Simulator(seed)
            procs = [sim.add_process(Process(f"p{i}")) for i in range(2)]
            return procs[slot].rng.random(8)

        assert not np.array_equal(first_draws(0), first_draws(1))


#: One population call: ("add", batch size), ("depart", tag pick),
#: ("read", tag pick) or ("reads", tag picks).  Picks index the tags
#: deployed so far, modulo their count.
_pop_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5)),
        st.tuples(st.just("depart"), st.integers(0, 10_000)),
        st.tuples(st.just("read"), st.integers(0, 10_000)),
        st.tuples(
            st.just("reads"),
            st.sets(st.integers(0, 10_000), max_size=6),
        ),
    ),
    max_size=60,
)


class TestDrainCounterProperties:
    @given(ops=_pop_ops)
    def test_counter_matches_the_scan(self, ops):
        pop = TagPopulation()
        for op, arg in ops:
            n = len(pop)
            if op == "add":
                zeros = np.zeros(arg)
                pop.add(zeros + 1.0, zeros, zeros, zeros, 0.0)
            elif n == 0:
                continue
            elif op == "depart":
                pop.depart(arg % n, 1.0)
            elif op == "read":
                pop.record_read(arg % n, 8, 1.0)
            else:
                ids = np.unique(np.asarray(sorted(arg), dtype=np.int64) % n)
                pop.record_reads(ids, 8, 1.0)
            assert pop.unread_active == pop.active_unread_ids().size
