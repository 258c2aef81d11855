"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload link_exact --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  ``--trace 0`` times the workload's leg with nothing patched
and prints the end-to-end metrics; ``--trace 1`` alternates untraced
and traced repetitions and prints the per-layer metrics, including the
tracing overhead.  Times in the end-to-end metrics are scaled to
reference host speed by a probe timed between repetitions
(``hostspeed.py``).  Every run checks the program's outputs.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans of the last
traced repetition and a full result record (environment included) are
written under ``.perfbench/`` in the checkout.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: Fewest timed repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Cold imports timed per run (this process and fresh interpreters);
#: ``setup_s`` is their median.
SETUP_TRIALS = 3


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_state = f"present {numba.__version__}"
    except ImportError:
        numba_state = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_state,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def _import_seconds(modules: tuple[str, ...]) -> float:
    """Wall time of importing ``modules``; cold in a fresh interpreter."""
    start = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    return time.perf_counter() - start


def _setup_seconds(modules: tuple[str, ...], first: float, trials: int) -> float:
    """Median cold-import time of ``modules`` over ``trials`` samples,
    each scaled to reference host speed by a probe taken right after it.

    ``first`` is this process's own cold import; the other samples come
    from child interpreters that, like this one, have imported numpy first.
    """
    from perfbench.hostspeed import IMPORT_INTERPRETER_SHARE, probe_seconds, slowdown

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    code = ("import importlib, time, numpy\n"
            "start = time.perf_counter()\n"
            f"for name in {list(modules)!r}: importlib.import_module(name)\n"
            "seconds = time.perf_counter() - start\n"
            "from perfbench.hostspeed import probe_seconds\n"
            "print(seconds, *probe_seconds())")
    samples = [first / slowdown(probe_seconds(), IMPORT_INTERPRETER_SHARE)]
    for _ in range(trials - 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        seconds, *probe = map(float, proc.stdout.split())
        samples.append(seconds / slowdown(tuple(probe), IMPORT_INTERPRETER_SHARE))
    return statistics.median(samples)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_rep(workload):
    from perfbench.layers import install, layer_metrics
    from perfbench.tracing import Tracer
    from perfbench.workloads import Check

    tracer = Tracer()
    install(tracer)
    root = tracer.open(f"perfbench.{workload.name}")
    try:
        rep = workload.rep(tracer)
    finally:
        tracer.close(root)
        tracer.unpatch()
    # A layer function the program no longer has would read as zero
    # time, i.e. as a perfect speed-up: fail the check instead.
    rep.checks.append(Check("layer_bindings_present", not tracer.missing,
                            "missing: " + ", ".join(tracer.missing)))
    return rep, tracer, layer_metrics(tracer, rep.layer)


def run_workload(args) -> int:
    from perfbench.hostspeed import probe_seconds, slowdown
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT / "work", tiny=args.tiny)
    # First, while nothing of the program is loaded yet.
    imported_s = _import_seconds(workload.modules)
    environment = _environment(args.seed)
    workload.workdir.mkdir(parents=True, exist_ok=True)
    if not args.trace:
        setup_s = _setup_seconds(workload.modules, imported_s, 1 if args.tiny else SETUP_TRIALS)
    workload.prepare()

    deadline = time.perf_counter() + args.seconds
    reps, traced, layer_runs, tracer = [], [], [], None
    # The traced run reports no end-to-end metric.  It alternates
    # untraced and traced repetitions after one untraced warm-up, which
    # the overhead ratio leaves out (it pays first-call costs).
    # The host-speed probe runs before, between and after repetitions.
    min_reps = 1 if args.tiny else (2 if args.trace else MIN_REPS)
    probes = [probe_seconds()]
    while (time.perf_counter() < deadline or len(reps) < min_reps
           or (args.trace and not traced)):
        if args.trace and len(reps) >= 2 and len(traced) < len(reps) - 1:
            rep, tracer, layers = _traced_rep(workload)
            traced.append(rep)
            layer_runs.append(layers)
        else:
            rep = workload.rep()
            reps.append(rep)
            if len(reps) == 1:
                # One operation's peak: later repetitions only add
                # allocator fragmentation, which varies run to run.
                peak_rss_mb = _peak_rss_mb()
        probes.append(probe_seconds())
    reference = workload.reference_checks(reps + traced)

    operations = [rep.checks for rep in reps + traced] + [reference]
    failed_ops = sum(1 for checks in operations if not all(c.ok for c in checks))
    failures = [c for checks in operations for c in checks if not c.ok]
    raw_rate = statistics.median(rep.work / rep.seconds for rep in reps)
    # Medians of both, so one noisy probe or one slow repetition moves
    # neither, and a run that straddles two host stretches reads the
    # stretch most of it sat in.
    host_slowdown = statistics.median(slowdown(p, workload.interpreter_share) for p in probes)
    rate = raw_rate * host_slowdown

    if args.trace:
        result_metrics = {
            name: {"value": statistics.median(run[name] for run in layer_runs), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        # Traced and untraced repetitions alternate, so both see the
        # same host stretches and need no scaling.
        result_metrics["trace.overhead_ratio"]["value"] = (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in reps[1:]) - 1.0
        )
        for part, name in enumerate(("host.probe_interp_s", "host.probe_numpy_s")):
            result_metrics[name]["value"] = statistics.median(p[part] for p in probes)
        tracer.dump(
            OUT / "traces" / f"{workload.name}-seed{args.seed}.json",
            {"workload": workload.name, "environment": environment},
        )
    else:
        result_metrics = {
            "scaled_work_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": failed_ops == 0,
        "attempted": len(operations),
        "failed": failed_ops,
        "metrics": result_metrics,
    }

    headline, unit, divisor = workload.headline
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} timed reps, {len(traced)} traced reps")
    print(f"  {headline:<34} {raw_rate / divisor:.6g} {unit} as measured, "
          f"{rate / divisor:.6g} {unit} scaled (host slow-down {host_slowdown:.4g})")
    if not args.trace:
        for name, entry in result_metrics.items():
            print(f"  {name:<34} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_fraction':<34} {failed_ops / len(operations):.6g} "
          f"({failed_ops}/{len(operations)} operations)")
    for check in failures:
        print(f"  FAILED check {check.name}: {check.detail}")
    if tracer is not None:
        print(f"  missing_bindings: {', '.join(tracer.missing) or 'none'}")
    print("env: " + json.dumps(environment, sort_keys=True))
    record = dict(result, workload=workload.name, environment=environment,
                  rep_seconds=[r.seconds for r in reps],
                  probe_seconds=probes,
                  traced_rep_seconds=[r.seconds for r in traced],
                  failed_checks=[vars(c) for c in failures],
                  inputs=workload.inputs())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one repetition (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
