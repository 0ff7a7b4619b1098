"""Run orchestration: build a chain from a scenario, run it, collect artifacts.

A run is a pure function of (scenario, seed): the trace, ledger, cost ledger,
and KPI report from two runs with the same inputs are byte-identical when
serialized. Every output file starts with a provenance header carrying the
scenario digest and seed.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .actors import Chain
from .engine import Engine, Event, trace_lines
from .jsonl import _ENCODE, LINES
from .ledger import InventoryRecord, Ledger, product, raw
from .metrics import CostLedger, KpiReport, build_report
from .satisfaction import VoteEntry
from .scenario import Scenario


@dataclass(slots=True)
class RunArtifacts:
    scenario: Scenario
    trace: list[Event]
    ledger: Ledger
    costs: CostLedger
    inventories: dict[tuple[str, str], InventoryRecord]
    report: KpiReport
    satisfaction: list[VoteEntry]
    delivery_series: dict[str, list[tuple[int, float]]]  # actor: (order_id, hours)
    launches: list[tuple[float, int]]
    consumed_raw_kg: dict[str, float]

    def stock(self, owner: str, item_code: str) -> float:
        record = self.inventories.get((owner, item_code))
        return record.on_hand if record is not None else 0.0


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> RunArtifacts:
    """Execute one deterministic run; optionally persist all artifact files.

    The cyclic garbage collector is paused for the run, since a run makes no
    reference cycles, and handed back as the caller had it, on or off. Handed
    back on, it first makes the one young collection the run held back.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        engine = Engine(seed=scenario.seed)
        chain = Chain(scenario, engine)
        chain.register()
        trace = engine.run_until(scenario.horizon_hours)
        stocks = chain.finalize()

        report, delivery_series = build_report(
            scenario,
            chain.ledger,
            stocks,
            chain.costs,
            {product(pid).code: boxes for pid, boxes in sorted(chain.produced_boxes.items())},
        )
        artifacts = RunArtifacts(
            scenario=scenario,
            trace=trace,
            ledger=chain.ledger,
            costs=chain.costs,
            inventories=chain.inventories,
            report=report,
            satisfaction=chain.satisfaction_series,
            delivery_series=delivery_series,
            launches=chain.launches,
            consumed_raw_kg={
                raw(rid).code: kg for rid, kg in sorted(chain.consumed_raw_kg.items())
            },
        )
        if out_dir is not None:
            write_artifacts(artifacts, Path(out_dir))
    finally:
        if collecting:
            gc.enable()
            # here, not at the caller's next allocation, so that its time is
            # the run's: profilers and timers around a run then see all of it
            gc.collect(0)
    return artifacts


def write_artifacts(artifacts: RunArtifacts, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = artifacts.report
    header = _ENCODE(
        {
            "record": "header",
            "scenario_digest": report.scenario_digest,
            "topology_digest": report.topology_digest,
            "seed": report.seed,
            "mode": report.mode,
        }
    )
    _write_file(out_dir / "trace.jsonl", header, [(artifacts.trace, trace_lines)])
    _write_file(out_dir / "ledger.jsonl", header, artifacts.ledger.export_parts())
    _write_file(out_dir / "costs.jsonl", header, [(artifacts.costs.entries, LINES["cost"])])
    _write_file(out_dir / "satisfaction.jsonl", header, [(artifacts.satisfaction, LINES["vote"])])
    _write_file(out_dir / "kpi.json", report.to_json())
    _write_file(
        out_dir / "delivery_times.csv",
        f"# scenario={report.scenario_digest} seed={report.seed} mode={report.mode}\n"
        "actor,order_id,delivery_hours",
        [
            (series, partial(_csv_rows, name))
            for name, series in sorted(artifacts.delivery_series.items())
        ],
    )


def _csv_rows(actor: str, rows: list[tuple[int, float]]) -> list[str]:
    return [f"{actor},{order_id},{hours!r}" for order_id, hours in rows]


#: records formatted and written per write: no record file's text is held
#: whole, so the writer's memory does not grow with the horizon
_SLICE = 512


def _write_file(
    path: Path, head: str, parts: Iterable[tuple[list, Callable[[list], list[str]]]] = ()
) -> None:
    """Write ``head`` and a newline, then every ``(records, lines)`` part in
    order, ``_SLICE`` records at a time, one line per record; with no
    records the file is the head line alone."""
    # unlink first: on ext4, truncating a large file that was just written is
    # slow; rewriting a long run's files in place took ~9x a fresh write
    path.unlink(missing_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(head)
        f.write("\n")
        for records, lines in parts:
            for i in range(0, len(records), _SLICE):
                f.write("\n".join(lines(records[i : i + _SLICE])) + "\n")
