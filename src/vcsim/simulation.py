"""Run orchestration: build a chain from a scenario, run it, collect artifacts.

A run is a pure function of (scenario, seed): the trace, ledger, cost ledger,
and KPI report from two runs with the same inputs are byte-identical when
serialized. Every output file starts with a provenance header carrying the
scenario digest and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .actors import Chain
from .engine import Engine, Event, trace_lines
from .jsonl import _ENCODE, _Quoted, _satisfaction_line
from .ledger import InventoryRecord, Ledger, product, raw
from .metrics import CostLedger, KpiReport, build_report
from .scenario import Scenario


@dataclass(slots=True)
class RunArtifacts:
    scenario: Scenario
    trace: list[Event]
    ledger: Ledger
    costs: CostLedger
    inventories: dict[tuple[str, str], InventoryRecord]
    report: KpiReport
    launches: list[tuple[float, int]]
    consumed_raw_kg: dict[str, float]

    def stock(self, owner: str, item_code: str) -> float:
        record = self.inventories.get((owner, item_code))
        return record.on_hand if record is not None else 0.0


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> RunArtifacts:
    """Execute one deterministic run; optionally persist all artifact files."""
    scenario.validate()
    engine = Engine(seed=scenario.seed)
    chain = Chain(scenario, engine)
    chain.register()
    trace = engine.run_until(scenario.horizon_hours)
    chain.finalize()

    report = build_report(
        scenario,
        chain.ledger,
        chain.inventories.values(),
        chain.costs,
        chain.satisfaction_series,
        {product(pid).code: boxes for pid, boxes in sorted(chain.produced_boxes.items())},
    )
    artifacts = RunArtifacts(
        scenario=scenario,
        trace=trace,
        ledger=chain.ledger,
        costs=chain.costs,
        inventories=chain.inventories,
        report=report,
        launches=chain.launches,
        consumed_raw_kg={
            raw(rid).code: kg for rid, kg in sorted(chain.consumed_raw_kg.items())
        },
    )
    if out_dir is not None:
        write_artifacts(artifacts, Path(out_dir))
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

    def write(name: str, text: str) -> None:
        # unlink first: on ext4, truncating a large file that was just written is
        # slow; rewriting a long run's files in place took ~9x a fresh write
        path = out_dir / name
        path.unlink(missing_ok=True)
        path.write_text(text, encoding="utf-8")

    def dump(name: str, lines: list[str]) -> None:
        # a file with no records holds the header line alone
        body = "\n".join(lines) + "\n" if lines else ""
        write(name, header + "\n" + body)

    dump("trace.jsonl", trace_lines(artifacts.trace))
    dump("ledger.jsonl", artifacts.ledger.export_lines())
    dump("costs.jsonl", artifacts.costs.export_lines())
    q = _Quoted()
    dump("satisfaction.jsonl", [_satisfaction_line(e, q) for e in report.satisfaction])
    write("kpi.json", report.to_json() + "\n")

    csv_lines = [
        f"# scenario={report.scenario_digest} seed={report.seed} mode={report.mode}",
        "actor,order_id,delivery_hours",
    ]
    for name, kpis in sorted(report.actors.items()):
        for order_id, hours in kpis.delivery_series:
            csv_lines.append(f"{name},{order_id},{hours!r}")
    write("delivery_times.csv", "\n".join(csv_lines) + "\n")

