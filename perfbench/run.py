"""The repository's benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs every world with spans wrapped around the program's
public entry points, prints the per-layer metrics and writes every span to
``.perfbench_out/``.  The first ``OVERHEAD_WORLDS`` worlds also run
untraced, alternating which pass goes first; the tracing overhead is the
median over them of the traced pass's process CPU time minus the untraced
pass's.
The line before the result holds the full report: every metric of the
workload with its unit, the op counts, output-check details and the host.
The last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench_out")

#: Worlds the traced run also runs untraced, to measure the tracing overhead.
OVERHEAD_WORLDS = 3

#: Metrics the result line carries with ``--trace 0`` (every workload has them).
END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p95": "ms",
    "f1": "ratio",
    "peak_rss_mb": "MB",
}


def _import_program() -> None:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise SystemExit(f"benchmark: no program sources under {SOURCE}")
    sys.path.insert(0, SOURCE)


def end_to_end(workload: str, m) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of the workload: name → (value, unit).

    Times are CPU time of the benchmark process and its worker processes,
    which leaves out the time a shared host's other tenants take from its
    virtual CPUs; ``*_wall`` twins in the report give the wall-clock time of
    the same operations.
    """
    from harness import f1_score, latency_summary, peak_rss_mb

    metrics: dict[str, tuple[float, str]] = {}
    for suffix, clock in (("", m.cpu), ("_wall", m.wall)):
        metrics[f"setup_s{suffix}"] = (statistics.fmean(clock["setup"]), "s")
        metrics[f"fit_s{suffix}"] = (statistics.fmean(clock["fit"]), "s")
        if clock.get("cv"):
            metrics[f"cv_s{suffix}"] = (statistics.fmean(clock["cv"]), "s")
        for kind in ("request", "write"):
            if clock.get(kind):
                for name, value in latency_summary(f"{kind}_ms", clock[kind]).items():
                    metrics[f"{name}{suffix}"] = (value, "ms")
    metrics["f1"] = (f1_score(m.predictions, m.labels), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def traced_run(workload: str, worlds):
    """Every world traced, the first ``OVERHEAD_WORLDS`` also untraced; the tracer and the overhead.

    Returns the measurements of every pass (every op counts), the fan-out
    fault counts of the traced passes, the tracer, and the median over the
    twice-run worlds of the traced minus the untraced process CPU time, in
    seconds and as a percentage of the untraced time.
    """
    from layers import install
    from spans import Tracer
    from workloads import Measurements, run_workload

    measured = Measurements()
    tracer = Tracer()
    faults: dict[str, int] = {}
    differences: list[float] = []
    shares: list[float] = []
    for index, world in enumerate(worlds):
        cpu = {}
        passes = (True,) if index >= OVERHEAD_WORLDS else (False, True) if index % 2 == 0 else (True, False)
        for traced in passes:
            if traced:
                install(tracer)
            try:
                started = time.process_time()
                passed = run_workload(workload, [world], tracer if traced else None)
                cpu[traced] = time.process_time() - started
            finally:
                tracer.uninstall()
            if traced:
                faults = {key: faults.get(key, 0) + value for key, value in passed.faults.items()}
            measured.extend(passed)
        if False in cpu:
            differences.append(cpu[True] - cpu[False])
            shares.append(100.0 * (cpu[True] - cpu[False]) / cpu[False])
    return measured, faults, tracer, statistics.median(differences), statistics.median(shares)


def _reap_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from harness import cpu_ticks, host_stamp, steal_share
    from layers import LAYER_UNITS, layer_metrics
    from workloads import generate_inputs, run_workload

    ticks = cpu_ticks()
    worlds = generate_inputs(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            measured, faults, tracer, overhead_s, overhead_pct = traced_run(args.workload, worlds)
            layers = layer_metrics(tracer, faults, overhead_s, overhead_pct)
            report_metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}
            tracer.write(os.path.join(OUTPUT, f"spans-{args.workload}-seed{args.seed}.json"))
            result_names = list(LAYER_UNITS)
        else:
            measured = run_workload(args.workload, worlds)
            report_metrics = end_to_end(args.workload, measured)
            result_names = list(END_TO_END_UNITS)
    finally:
        _reap_children()

    host = {**host_stamp(), "steal_share": steal_share(ticks)}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "worlds": [world.seed for world in worlds],
        "ops": measured.ops.attempted,
        "ops_failed": measured.ops.failed,
        "checked": measured.checked,
        "failures": measured.ops.failures,
        "definitions_digest": measured.definitions,
        "samples": {kind: len(values) for kind, values in measured.cpu.items()},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report_metrics.items()},
        "host": host,
    }
    if args.workload == "cv-process" and host["effective_cpus"] < 2:
        report["note"] = "fewer than 2 effective CPUs: the 2-worker process plane cannot run in parallel"
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": measured.ops.failed == 0,
        "attempted": measured.ops.attempted,
        "failed": measured.ops.failed,
        "metrics": {name: report["metrics"][name] for name in result_names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
