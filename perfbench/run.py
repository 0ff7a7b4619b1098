"""Benchmark of the vcsim simulator: one workload per process.

    python3 perfbench/run.py --workload case-long --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` spends half the time the same way and half with the program's
modules wrapped by ``spans.Tracer``, and reports the per-layer metrics.
Every unit of work is checked (see ``workloads.check_run``); a unit that
raises or fails a check counts as failed. Earlier lines of standard output
carry the simulated statistics and the failure ratio; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MIN_UNITS = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "events/s",
    "run_ms_p50": "ms",
    "run_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Measurement:
    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: list[dict[str, float]] = field(default_factory=list)


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Run units of ``workload`` for ``seconds`` (at least MIN_UNITS tries).

    Every unit repeats the same inputs, so each replication's KPI JSON must
    be byte-identical to the first unit's; a difference counts as a failure.
    """
    m = Measurement()
    reference: list | None = None
    tries = 0
    deadline = time.perf_counter() + seconds
    while tries < MIN_UNITS or time.perf_counter() < deadline:
        tries += 1
        try:
            if tracer is None:
                unit = workload.unit()
            else:
                tracer.reset()
                unit = workload.unit(tracer.phase)
        except Exception:  # the run raised or failed a check: count it, go on
            traceback.print_exc(file=sys.stdout)
            m.attempted += 1
            m.failed += 1
            continue
        m.attempted += unit.attempted
        m.failed += unit.failed
        if reference is None:
            reference = unit.kpi_sha256
        else:
            m.failed += sum(
                a is not None and b is not None and a != b
                for a, b in zip(unit.kpi_sha256, reference)
            )
        if not unit.latencies_ms:
            continue  # every replication of the unit failed
        m.units.append(unit)
        if tracer is not None:
            m.layers.append(tracer.layer_metrics())
    if not m.units:
        raise SystemExit("every unit of work failed; no metric can be reported")
    return m


def end_to_end(m: Measurement) -> dict[str, float]:
    latencies = [ms for unit in m.units for ms in unit.latencies_ms]
    p95 = (
        statistics.quantiles(latencies, n=20, method="inclusive")[-1]
        if len(latencies) > 1
        else latencies[0]
    )
    return {
        "setup_s": statistics.median(t for u in m.units for t in u.setup_s),
        "run_s": statistics.median(u.run_s for u in m.units),
        "events_per_s": statistics.median(u.events / u.run_s for u in m.units),
        "run_ms_p50": statistics.median(latencies),
        "run_ms_p95": p95,
        # the high-water mark after the first unit's run, before its checks
        "peak_rss_mb": m.units[0].rss_mb,
    }


def untraced(workload, seconds: float) -> tuple[Measurement, dict]:
    m = measure(workload, seconds)
    values = end_to_end(m)
    first = m.units[0]
    print("sim", json.dumps({
        "events": first.events,
        "orders": first.orders,
        "delivered": first.delivered,
        "kpi_sha256": hashlib.sha256(
            "".join(sha or "-" for sha in first.kpi_sha256).encode("ascii")
        ).hexdigest(),
    }))
    print("e2e", json.dumps({
        **values,
        "fail_ratio": m.failed / m.attempted,
        "units": len(m.units),
        "latency_samples": sum(len(u.latencies_ms) for u in m.units),
    }))
    return m, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced(workload, seconds: float, spans_path: Path) -> tuple[Measurement, dict]:
    import spans  # not imported by the untraced run, whose peak RSS it would raise

    plain = measure(workload, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        m = measure(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    values = spans.median_metrics(m.layers)
    values["engine.bare_us_per_event"] = spans.bare_engine_us_per_event(
        tracer.largest_periodic_set()
    )
    values["trace.overhead_ratio"] = statistics.median(
        u.run_s for u in m.units
    ) / statistics.median(u.run_s for u in plain.units)
    last = m.layers[-1]
    print("accounting", json.dumps({
        "traced_units": len(m.units),
        "last_unit_traced_run_s": last["trace.run_s"],
        "last_unit_layer_self_s": sum(last[f"layer.{mod}.self_s"] for mod in spans.MODULES),
        "last_unit_unaccounted_s": last["trace.unaccounted_s"],
    }))
    tracer.write(spans_path)
    m.attempted += plain.attempted
    m.failed += plain.failed
    return m, {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in spans.PER_LAYER.items()
    }


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "vcsim" / "__init__.py").is_file():
        print(f"vcsim sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        if args.trace:
            m, metrics = traced(workload, args.seconds, OUT / f"spans-{args.workload}.csv")
        else:
            m, metrics = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
