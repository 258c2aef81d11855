"""Tapped-delay-line multipath channel.

mmWave indoor channels are sparse: a dominant LOS ray plus a handful of
weak specular reflections (walls, metal furniture).  For the round-trip
backscatter link, each path applies its delay and complex gain to the
tag's modulated waveform.

Exact fast kernels
------------------
:meth:`MultipathChannel.apply` is arithmetically identical to the
original per-path ``Signal.delay`` / ``Signal.scale`` / ``Signal.__add__``
chain (kept in-tree as :meth:`MultipathChannel._apply_reference` for the
equivalence tests and the hot-path benchmarks), but

* hoists the per-path delay/gain arrays out of the hot loop into a
  ``__post_init__`` cache (the old implementation re-read every
  :class:`PathComponent` attribute on every call),
* caches the frequency grid ``-2j*pi*fftfreq(n, 1/fs)`` per
  ``(length, sample_rate)`` instead of rebuilding it per path per call,
* shares the forward FFT between paths with the same whole-sample
  delay (identical input -> bit-identical spectrum),
* accumulates into one preallocated buffer instead of allocating a new
  ``Signal`` per path, and
* plans the input-independent half of the delay operator (whole/frac
  decomposition plus the ``exp`` phase ramps — the dominant per-apply
  cost for sparse channels) once per signal shape, cached on the
  instance, so per-frame applies of a static channel only pay the
  signal-dependent FFTs.

:func:`apply_channels_to_rows` is the batched variant the vectorized
link kernel uses: one (possibly different) channel per row of a
``(frames, samples)`` matrix, with the forward/inverse FFTs batched per
whole-sample-delay group — row-batched ``np.fft.fft``/``ifft`` along the
last axis is bit-identical per row to the 1-D transforms the serial
reference performs, so the results match ``MultipathChannel.apply``
frame for frame, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dsp.rows import _map_rows
from repro.dsp.signal import Signal

__all__ = [
    "PathComponent",
    "MultipathChannel",
    "rician_channel",
    "apply_channels_to_rows",
]

#: Fractional sample delays below this are treated as integer delays,
#: exactly like :meth:`repro.dsp.signal.Signal.delay` does.
_FRAC_EPS = 1e-12


@dataclass(frozen=True)
class PathComponent:
    """A single propagation path.

    ``gain`` is a complex amplitude (includes the carrier-phase rotation
    ``exp(-j*2*pi*fc*delay)`` of the passband model); ``delay_s`` is the
    excess delay relative to the simulation origin.
    """

    delay_s: float
    gain: complex

    def __post_init__(self) -> None:
        if self.delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay_s}")


@lru_cache(maxsize=128)
def _phase_base(n: int, sample_rate: float) -> np.ndarray:
    """``-2j*pi*fftfreq(n, 1/fs)``, cached and read-only.

    This is exactly the array ``Signal.delay`` builds per call before
    scaling by the fractional delay; multiplying the cached base by
    ``frac/fs`` performs the same two-operand products in the same
    order, so the resulting phase ramp is bit-identical.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    base = -2j * np.pi * freqs
    base.setflags(write=False)
    return base


def _decompose_delay(delay_s: float, sample_rate: float) -> tuple[int, float]:
    """Split a delay into (whole samples, fractional samples).

    Mirrors :meth:`Signal.delay` exactly: ``whole = floor(delay*fs)``
    computed with the same ``np.floor``/cast sequence, ``frac`` in
    sample units.
    """
    total_samples = delay_s * sample_rate
    whole = int(np.floor(total_samples))
    frac = total_samples - whole
    return whole, frac


def _delay_plan(
    n: int,
    sample_rate: float,
    delays: np.ndarray,
    gains: np.ndarray,
) -> tuple[tuple[str, int, np.ndarray | None, complex], ...]:
    """Precompute the delay-operator plan for one (length, path set).

    Every input-independent piece of the FFT delay operator — the
    whole/fractional decomposition and, crucially, the ``exp`` phase
    ramp (the dominant per-apply cost for sparse channels) — is hoisted
    here so repeated applies of the same channel at the same signal
    shape pay for it exactly once.  The ramp is the same two-operand
    product/``exp`` sequence the unhoisted code performed, so executing
    a cached plan is bit-identical to rebuilding it per call.

    Ops are ``("fft", whole, ramp, gain)``, ``("zero", 0, None, gain)``
    (zero whole-sample delay) or ``("shift", whole, None, gain)``;
    paths whose delayed copy falls entirely past the capture window are
    dropped, exactly as the reference truncation discards them.
    """
    plan: list[tuple[str, int, np.ndarray | None, complex]] = []
    for delay_s, gain in zip(delays.tolist(), gains.tolist()):
        whole, frac = _decompose_delay(delay_s, sample_rate)
        if frac > _FRAC_EPS:
            m = n + whole
            ramp = np.exp(_phase_base(m, sample_rate) * (frac / sample_rate))
            ramp.setflags(write=False)
            plan.append(("fft", whole, ramp, gain))
        elif whole == 0:
            plan.append(("zero", 0, None, gain))
        elif whole < n:
            plan.append(("shift", whole, None, gain))
        # whole >= n: the delayed copy falls entirely past the capture
        # window the reference truncates away — contributes nothing.
    return tuple(plan)


def _apply_plan(
    samples: np.ndarray,
    plan: tuple[tuple[str, int, np.ndarray | None, complex], ...],
) -> np.ndarray:
    """Execute a precomputed delay plan on one 1-D sample array.

    The signal-dependent work only: one forward FFT per distinct whole
    delay (identical input -> bit-identical spectrum, shared between
    paths), one inverse FFT per fractional path, and accumulation in
    path order into a zeros-seeded buffer (elementwise identical to the
    chained ``Signal.__add__``; ``0.0 + x`` only rewrites ``-0.0`` to
    ``+0.0``, which the reference chain does too).
    """
    n = samples.size
    out = np.zeros(n, dtype=np.complex128)
    spectra: dict[int, np.ndarray] = {}
    for kind, whole, ramp, gain in plan:
        if kind == "fft":
            spec = spectra.get(whole)
            if spec is None:
                padded = np.concatenate(
                    [np.zeros(whole, dtype=np.complex128), samples]
                )
                spec = np.fft.fft(padded)
                spectra[whole] = spec
            out += np.fft.ifft(spec * ramp)[:n] * gain
        elif kind == "zero":
            out += samples * gain
        else:
            out[whole:] += samples[: n - whole] * gain
    return out


def _apply_paths_single(
    samples: np.ndarray,
    sample_rate: float,
    delays: np.ndarray,
    gains: np.ndarray,
) -> np.ndarray:
    """Apply a sparse path set to one 1-D sample array, bit-exactly.

    Equivalent to the reference chain ``sum_p delay(d_p).scale(g_p)``
    truncated to the input length; thin plan-then-execute wrapper kept
    for callers without a channel instance to cache the plan on.
    """
    return _apply_plan(
        samples, _delay_plan(samples.size, sample_rate, delays, gains)
    )


def apply_channels_to_rows(
    rows: np.ndarray,
    sample_rate: float,
    channels: "list[MultipathChannel] | tuple[MultipathChannel, ...]",
) -> np.ndarray:
    """Apply one channel per row of a ``(frames, samples)`` matrix.

    Row ``f`` of the result is bit-identical to
    ``channels[f].apply(Signal(rows[f], sample_rate)).samples`` — and
    therefore to the original per-``Signal`` reference chain.  The
    speedup comes from batching the FFT work: forward transforms are
    shared per (frame, whole-sample-delay) pair and the inverse
    transforms for every (frame, path) pair with the same whole delay
    run as one row-batched ``np.fft.ifft`` (bit-identical per row to
    the 1-D transform).  The final accumulation walks each frame's
    paths in their original order so the floating-point summation
    order matches the reference exactly.  Contiguous row chunks run in
    parallel (:func:`~repro.dsp.rows._map_rows`); a row's result does
    not depend on which chunk it is in.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D (frames, samples), got {rows.shape}")
    if len(channels) != rows.shape[0]:
        raise ValueError(
            f"need one channel per row: {len(channels)} channels for "
            f"{rows.shape[0]} rows"
        )
    out = np.zeros(rows.shape, dtype=np.complex128)

    def chunk(start: int, stop: int) -> None:
        _apply_channels_chunk(
            rows[start:stop], sample_rate, channels[start:stop], out[start:stop]
        )

    _map_rows(chunk, rows.shape[0])
    return out


def _apply_channels_chunk(
    rows: np.ndarray,
    sample_rate: float,
    channels: "list[MultipathChannel] | tuple[MultipathChannel, ...]",
    out: np.ndarray,
) -> None:
    """:func:`apply_channels_to_rows` for one row chunk, into zeroed ``out``."""
    n = rows.shape[1]

    # Pass 1: decompose every (frame, path) pair and group the FFT work
    # by whole-sample delay.
    plans: list[list[tuple[str, int, int, complex]]] = []
    jobs: dict[int, dict[str, list]] = {}
    for f, channel in enumerate(channels):
        plan: list[tuple[str, int, int, complex]] = []
        for delay_s, gain in zip(
            channel._delays.tolist(), channel._gains.tolist()
        ):
            whole, frac = _decompose_delay(delay_s, sample_rate)
            if frac > _FRAC_EPS:
                job = jobs.setdefault(whole, {"pairs": []})
                job["pairs"].append((f, frac))
                plan.append(("fft", whole, len(job["pairs"]) - 1, gain))
            else:
                plan.append(("direct", whole, -1, gain))
        plans.append(plan)

    # Pass 2: batched transforms per whole-delay group.  The forward
    # FFT input for every path of frame ``f`` in group ``w`` is the same
    # zero-prefixed row, so it is computed once per (frame, w).
    shifted_by_whole: dict[int, np.ndarray] = {}
    for whole, job in jobs.items():
        pairs = job["pairs"]
        m = n + whole
        frames_unique = sorted({f for f, _ in pairs})
        position = {f: k for k, f in enumerate(frames_unique)}
        padded = np.zeros((len(frames_unique), m), dtype=np.complex128)
        padded[:, whole:] = rows[frames_unique]
        spectra = np.fft.fft(padded, axis=-1)
        base = _phase_base(m, sample_rate)
        fracs = np.array([frac for _, frac in pairs], dtype=np.float64)
        # Ramp rows depend only on frac, so build one per *unique* frac
        # and gather — bit-identical rows, and when many rows share one
        # channel (a static-multipath batch) the exp runs once, not
        # once per frame.
        unique_fracs, inv = np.unique(fracs, return_inverse=True)
        ramps = np.exp(base[None, :] * (unique_fracs / sample_rate)[:, None])[
            inv
        ]
        gathered = spectra[[position[f] for f, _ in pairs]]
        shifted_by_whole[whole] = np.fft.ifft(gathered * ramps, axis=-1)

    # Pass 3: accumulate per frame in original path order (the
    # summation order the reference chain uses).
    for f, plan in enumerate(plans):
        row_out = out[f]
        for kind, whole, slot, gain in plan:
            if kind == "fft":
                row_out += shifted_by_whole[whole][slot][:n] * gain
            elif whole == 0:
                row_out += rows[f] * gain
            elif whole < n:
                row_out[whole:] += rows[f, : n - whole] * gain


@dataclass(frozen=True)
class MultipathChannel:
    """A static tapped-delay-line channel.

    Applying the channel convolves the input with the sparse impulse
    response implied by the paths (fractional delays handled exactly via
    the frequency-domain delay operator).  The per-path delay and gain
    arrays are hoisted into a ``__post_init__`` cache so repeated
    :meth:`apply` calls (one per simulated frame in a fading sweep)
    do not rebuild them.
    """

    paths: tuple[PathComponent, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("channel must have at least one path")
        # Hoisted tap grid: rebuilt-per-call in the original
        # implementation, now cached on the (frozen) instance.  Not
        # dataclass fields, so equality/hash/pickling of the channel
        # are unaffected.
        object.__setattr__(
            self,
            "_delays",
            np.array([p.delay_s for p in self.paths], dtype=np.float64),
        )
        object.__setattr__(
            self,
            "_gains",
            np.array([p.gain for p in self.paths], dtype=np.complex128),
        )
        # Delay-operator plans keyed by (num_samples, sample_rate):
        # repeated applies at the same signal shape (one per frame in a
        # fading sweep) reuse the exp phase ramps instead of rebuilding
        # them per call.  Bounded: a channel is applied at one or two
        # shapes in practice, so spilling past the cap just resets it.
        object.__setattr__(self, "_plan_cache", {})

    @classmethod
    def line_of_sight(cls, gain: complex = 1.0 + 0.0j) -> "MultipathChannel":
        """A pure LOS channel with the given complex gain."""
        return cls(paths=(PathComponent(delay_s=0.0, gain=gain),))

    def apply(self, sig: Signal) -> Signal:
        """Propagate ``sig`` through the channel.

        Bit-identical to :meth:`_apply_reference` (the original
        per-``Signal`` implementation), via the cached tap grid and the
        shared-FFT accumulation kernel.  The input-independent half of
        the delay operator (whole/frac decomposition and the exp phase
        ramps) is planned once per signal shape and cached on the
        instance, so per-frame applies of a static channel only pay the
        FFTs.  The output keeps the input length so frame timing
        downstream is unaffected; energy in the trailing delay spread
        of the last symbols is clipped, as a real capture window does.
        """
        key = (sig.num_samples, sig.sample_rate)
        plan = self._plan_cache.get(key)
        if plan is None:
            if len(self._plan_cache) >= 8:
                self._plan_cache.clear()
            plan = _delay_plan(
                sig.num_samples, sig.sample_rate, self._delays, self._gains
            )
            self._plan_cache[key] = plan
        return Signal(
            _apply_plan(sig.samples, plan), sig.sample_rate, dict(sig.metadata)
        )

    def _apply_reference(self, sig: Signal) -> Signal:
        """Original implementation: per-path ``Signal`` ops.

        Kept as the bit-exactness reference for the equivalence tests
        and as the "before" side of the ``multipath_apply`` hot-path
        microbenchmark.
        """
        total = Signal.zeros(sig.num_samples, sig.sample_rate)
        for path in self.paths:
            delayed = sig.delay(path.delay_s).scale(path.gain)
            total = total + delayed
        # Keep the output the same length as the input so frame timing
        # downstream is unaffected; energy in the trailing delay spread
        # of the last symbols is clipped, as a real capture window does.
        return Signal(total.samples[: sig.num_samples], sig.sample_rate, dict(sig.metadata))

    def frequency_response(self, freqs_hz: np.ndarray) -> np.ndarray:
        """Complex baseband frequency response at ``freqs_hz``."""
        freqs = np.asarray(freqs_hz, dtype=np.float64)
        response = np.zeros(freqs.shape, dtype=np.complex128)
        for path in self.paths:
            response += path.gain * np.exp(-2j * math.pi * freqs * path.delay_s)
        return response

    def rms_delay_spread(self) -> float:
        """Power-weighted RMS delay spread in seconds."""
        powers = np.array([abs(p.gain) ** 2 for p in self.paths])
        delays = np.array([p.delay_s for p in self.paths])
        total = powers.sum()
        if total == 0:
            return 0.0
        mean = float(np.sum(powers * delays) / total)
        return float(math.sqrt(np.sum(powers * (delays - mean) ** 2) / total))


def rician_channel(
    k_factor_db: float,
    num_nlos_paths: int,
    max_excess_delay_s: float,
    rng: np.random.Generator,
    los_gain: complex = 1.0 + 0.0j,
) -> MultipathChannel:
    """Draw a random sparse Rician channel.

    The LOS path carries ``K/(K+1)`` of the total power and the
    ``num_nlos_paths`` NLOS paths share the rest with an exponential
    delay-power profile, uniform random phases and uniform delays in
    ``(0, max_excess_delay_s]``.  The channel is normalised so total
    power equals ``|los_gain|^2``.
    """
    if num_nlos_paths < 0:
        raise ValueError(f"num_nlos_paths must be >= 0, got {num_nlos_paths}")
    if max_excess_delay_s <= 0 and num_nlos_paths > 0:
        raise ValueError("max_excess_delay must be positive when NLOS paths exist")
    k = 10.0 ** (k_factor_db / 10.0)
    total_power = abs(los_gain) ** 2
    los_power = total_power * k / (k + 1.0)
    nlos_power_total = total_power - los_power

    los_phase = math.atan2(los_gain.imag, los_gain.real)
    paths = [PathComponent(0.0, math.sqrt(los_power) * np.exp(1j * los_phase))]
    if num_nlos_paths > 0:
        delays = np.sort(rng.uniform(0.0, max_excess_delay_s, size=num_nlos_paths))
        weights = np.exp(-delays / (max_excess_delay_s / 3.0))
        weights = weights / weights.sum() * nlos_power_total
        phases = rng.uniform(0.0, 2.0 * math.pi, size=num_nlos_paths)
        for delay, power, phase in zip(delays, weights, phases):
            # Guarantee strictly positive excess delay for NLOS paths.
            delay = max(float(delay), 1e-12)
            paths.append(PathComponent(delay, math.sqrt(power) * np.exp(1j * phase)))
    return MultipathChannel(paths=tuple(paths))
