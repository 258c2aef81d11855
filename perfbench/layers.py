"""Which program bindings the traced run wraps, and under which span name.

Each entry patches the name the *caller* looks up: a module-level
function imported into another module is patched in the importing
module, a method on the class that defines it.  Span names are the
layer names the per-layer metrics use (``perfbench/README.md``).
"""

from __future__ import annotations

import importlib

import numpy as np

from perfbench.tracing import Tracer


def _tiered(base: str):
    """Span namer for a method the fast tier inherits from the exact one."""
    from repro.sim.fastlink import FastLinkSimulator

    def name(self, *args, **kwargs):
        tier = "sim.fastlink" if isinstance(self, FastLinkSimulator) else "sim.batch"
        return f"{tier}.{base}"

    return name


def _count_frames(tracer, args, kwargs, result, seconds):
    from repro.sim.fastlink import FastLinkSimulator

    tier = "sim.fastlink" if isinstance(args[0], FastLinkSimulator) else "sim.batch"
    errors, detected = result
    tracer.counts[f"{tier}.frames"] += len(errors)
    tracer.counts[f"{tier}.detected"] += int(np.count_nonzero(detected))


def _count_snr_items(tracer, args, kwargs, result, seconds):
    tracer.counts["net.link_model.frame_success.items"] += int(np.size(args[1]))


def _count_events(tracer, args, kwargs, result, seconds):
    tracer.counts["net.engine.events"] += int(result)


def _ingest_sample(tracer, args, kwargs, result, seconds):
    tracer.samples["serve.ingest.us"].append(seconds * 1e6)
    tracer.counts["serve.ingest.accepted"] += bool(result)


#: ``(module, owner attribute path or "", attribute, span name, on_return)``.
#: ``tiered:<stage>`` names a ``BatchLinkSimulator`` method the fast tier
#: inherits; its span is ``sim.batch.<stage>`` or ``sim.fastlink.<stage>``.
BINDINGS = (
    # -- link: waveform chain (exact fused tier and fast tier) --
    ("repro.sim.fastlink", "FastLinkSimulator", "_build_fast_tier", "sim.fastlink.build", None),
    ("repro.sim.batch", "BatchLinkSimulator", "_build", "tiered:build", None),
    ("repro.sim.batch", "BatchLinkSimulator", "simulate_point", "tiered:simulate_point", _count_frames),
    ("repro.sim.batch", "BatchLinkSimulator", "tx_reflections", "tiered:tx_reflections", None),
    ("repro.sim.batch", "BatchLinkSimulator", "_front_end", "tiered:front_end", None),
    ("repro.sim.batch", "BatchLinkSimulator", "_detect_starts", "tiered:detect_starts", None),
    ("repro.sim.batch", "", "rician_channel", "channel.multipath.rician_channel", None),
    ("repro.sim.batch", "", "apply_channels_to_rows", "channel.multipath.apply_channels_to_rows", None),
    ("repro.sim.batch", "", "detect_frame_start", "dsp.sync.detect_frame_start", None),
    ("repro.sim.batch", "", "measure_snr", "dsp.measure", None),
    ("repro.sim.batch", "", "evm_rms", "dsp.measure", None),
    ("repro.sim.batch", "", "bit_error_rate", "dsp.measure", None),
    # -- link: sweep bookkeeping --
    ("repro.sim.executor", "SweepExecutor", "run", "sim.executor.run", None),
    ("repro.sim.executor", "", "estimate_link_ber", "sim.monte_carlo.estimate", None),
    ("repro.sim.monte_carlo", "LinkBerAccumulator", "advance", "sim.monte_carlo.advance", None),
    # -- net: metro deployment --
    ("repro.net.deployment", "MultiApAlohaMac", "on_slot", "net.deployment.on_slot", None),
    ("repro.net.population", "TagPopulation", "active_unread_ids", "net.population.active_unread_ids", None),
    ("repro.net.deployment", "Deployment", "snr_matrix", "net.deployment.snr_matrix", None),
    ("repro.net.deployment", "Deployment", "distances_to_aps", "net.deployment.snr_matrix", None),
    ("repro.net.deployment", "Deployment", "snr_from_distances", "net.deployment.snr_matrix", None),
    ("repro.net.deployment", "", "compute_relay_routes", "net.deployment.relay_routes", None),
    ("repro.net.deployment", "", "effective_link_state", "net.deployment.effective_link_state", None),
    # -- net: link pricing, MAC, engine --
    ("repro.net.link_model", "LinkBudgetModel", "frame_success_from_snr_db", "net.link_model.frame_success",
     _count_snr_items),
    ("repro.net.link_model", "LinkBudgetModel", "snr_db", "net.link_model.snr_db", None),
    ("repro.net.mac", "ChurnProcess", "deploy", "net.mac.churn_deploy", None),
    ("repro.net.mac", "SlottedAlohaMac", "on_slot", "net.mac.on_slot", None),
    ("repro.net.engine", "Simulator", "run", "net.engine.run", _count_events),
    ("repro.net.engine", "EventTrace", "append", "net.engine.trace_append", None),
    ("repro.net.engine", "EventTrace", "dump", "net.engine.trace_dump", None),
    # -- serve --
    ("repro.serve.daemon", "IngestPipeline", "ingest", "serve.ingest", _ingest_sample),
    ("repro.serve.queue", "BoundedIngestQueue", "offer", "serve.queue.offer", None),
    ("repro.serve.queue", "BoundedIngestQueue", "drain_until", "serve.queue.drain", None),
    ("repro.serve.queue", "BoundedIngestQueue", "drain_all", "serve.queue.drain", None),
    ("repro.serve.inventory", "LiveInventory", "observe", "serve.inventory.observe", None),
    ("repro.serve.inventory", "LiveInventory", "expire", "serve.inventory.expire", None),
    ("repro.serve.inventory", "LiveInventory", "save_checkpoint", "serve.checkpoint", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every binding in :data:`BINDINGS` (undo with ``tracer.unpatch``)."""
    for module_name, owner_path, attr, span, on_return in BINDINGS:
        label = f"{module_name}.{owner_path + '.' if owner_path else ''}{attr}"
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            tracer.missing.append(label)
            continue
        name = _tiered(span.split(":", 1)[1]) if span.startswith("tiered:") else span
        tracer.patch(
            owner, attr,
            lambda fn, name=name, hook=on_return: tracer.wrap(fn, name, hook),
            label,
        )
    # The replay stream is a generator: one span per item pulled from it.
    try:
        from repro.serve.daemon import APDaemon
    except ImportError:  # pragma: no cover - serve layer removed
        tracer.missing.append("repro.serve.daemon.APDaemon._build_stream")
        return
    tracer.patch(
        APDaemon, "_build_stream",
        lambda fn: lambda self: tracer.iterate(fn(self), "serve.parse"),
        "repro.serve.daemon.APDaemon._build_stream",
    )


def _unit(name: str) -> tuple[str, str]:
    """``(unit, better)`` of a per-layer metric, from its name's suffix."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith(("_ratio", "_share")):
        return "ratio", "lower" if name.startswith("trace.") else "higher"
    if last.startswith("us_"):
        return "us", "lower"
    if last.endswith("_s") or "_s_" in last:
        return "s", "lower"
    return "count", "lower"


#: Every per-layer metric the traced run reports, on every workload.
PER_LAYER_NAMES = (
    "sim.batch.build.calls", "sim.batch.build.self_s",
    "sim.batch.simulate_point.calls", "sim.batch.simulate_point.self_s",
    "sim.batch.tx_reflections.self_s", "sim.batch.front_end.self_s",
    "sim.batch.detect_starts.self_s", "sim.batch.frames", "sim.batch.detected_ratio",
    "channel.multipath.rician_channel.calls", "channel.multipath.rician_channel.self_s",
    "channel.multipath.apply_channels_to_rows.calls",
    "channel.multipath.apply_channels_to_rows.self_s",
    "dsp.sync.detect_frame_start.calls", "dsp.sync.detect_frame_start.self_s",
    "dsp.measure.self_s",
    "sim.fastlink.build.self_s", "sim.fastlink.simulate_point.self_s", "sim.fastlink.frames",
    "sim.executor.points", "sim.executor.self_s", "sim.executor.point_s_max",
    "sim.monte_carlo.advance.calls", "sim.monte_carlo.self_s",
    "net.deployment.on_slot.calls", "net.deployment.on_slot.self_s",
    "net.population.active_unread_ids.calls", "net.population.active_unread_ids.self_s",
    "net.deployment.snr_matrix.self_s", "net.deployment.relay_routes.self_s",
    "net.deployment.effective_link_state.self_s", "net.deployment.read_ratio",
    "net.shard.execute_busy_s", "net.shard.execute_wall_s", "net.shard.coordinator_s",
    "net.shard.shard_epochs", "net.shard.epoch_s_max",
    "net.link_model.frame_success.calls", "net.link_model.frame_success.items",
    "net.link_model.frame_success.self_s",
    "net.link_model.snr_db.calls", "net.link_model.snr_db.self_s",
    "net.mac.churn_deploy.calls", "net.mac.churn_deploy.self_s",
    "net.mac.on_slot.calls", "net.mac.on_slot.self_s", "net.mac.single_slot_ratio",
    "net.engine.events", "net.engine.run.self_s",
    "net.engine.trace_append.calls", "net.engine.trace_append.self_s",
    "net.engine.trace_dump.self_s",
    "serve.parse.items", "serve.parse.self_s",
    "serve.ingest.calls", "serve.ingest.self_s", "serve.ingest.us_p50", "serve.ingest.us_p99",
    "serve.queue.offer.self_s", "serve.queue.drain.self_s",
    "serve.queue.shed", "serve.queue.high_watermark",
    "serve.dedup.duplicates", "serve.dead_letter",
    "serve.inventory.observe.self_s", "serve.inventory.expire.self_s",
    "serve.inventory.evicted_lru", "serve.inventory.evicted_ttl",
    "serve.checkpoint.self_s", "serve.accepted_ratio",
    "trace.overhead_ratio", "trace.unattributed_share", "trace.spans",
    "host.probe_interp_s", "host.probe_numpy_s",
)

PER_LAYER = tuple((name, *_unit(name)) for name in PER_LAYER_NAMES)


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER_NAMES` value for one traced repetition.

    ``extra`` carries the values the workload read off the program's
    own reports (ratios, shard records); span-derived values fill the
    rest and names nobody recorded read 0.
    """
    from perfbench.tracing import aggregate, percentile

    spans = aggregate(tracer.spans)
    counts = tracer.counts

    def stat(span: str, key: str) -> float:
        return float(spans.get(span, {}).get(key, 0.0))

    values = {name: 0.0 for name in PER_LAYER_NAMES}
    for name in PER_LAYER_NAMES:
        span, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and span in spans:
            values[name] = stat(span, key)
    for tier in ("sim.batch", "sim.fastlink"):
        values[f"{tier}.frames"] = counts.get(f"{tier}.frames", 0.0)
    frames = counts.get("sim.batch.frames", 0.0)
    values["sim.batch.detected_ratio"] = counts.get("sim.batch.detected", 0.0) / frames if frames else 0.0
    values["sim.fastlink.build.self_s"] = stat("sim.fastlink.build", "self_s")
    values["sim.executor.self_s"] = stat("sim.executor.run", "self_s")
    values["sim.monte_carlo.self_s"] = (
        stat("sim.monte_carlo.estimate", "self_s") + stat("sim.monte_carlo.advance", "self_s")
    )
    values["dsp.measure.self_s"] = stat("dsp.measure", "self_s")
    values["net.link_model.frame_success.items"] = counts.get("net.link_model.frame_success.items", 0.0)
    values["net.engine.events"] = counts.get("net.engine.events", 0.0)
    values["serve.parse.items"] = counts.get("serve.parse.items", 0.0)
    ingest_us = tracer.samples.get("serve.ingest.us", [])
    values["serve.ingest.us_p50"] = percentile(ingest_us, 50)
    values["serve.ingest.us_p99"] = percentile(ingest_us, 99)
    calls = stat("serve.ingest", "calls")
    values["serve.accepted_ratio"] = counts.get("serve.ingest.accepted", 0.0) / calls if calls else 0.0
    values["trace.spans"] = float(len(tracer.spans))
    root = tracer.spans[0] if tracer.spans else None
    if root is not None and root[2] > root[1]:
        from perfbench.tracing import self_times

        values["trace.unattributed_share"] = self_times(tracer.spans)[0] / (root[2] - root[1])
    values.update(extra)
    return values
