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
    """Everything a run leaves: its inputs, records and report.

    ``trace`` is the list of fired events, ``costs.entries`` the list of
    booked cost entries and ``satisfaction`` the list of vote updates of a
    run held in memory. A run written to a directory streamed these three
    histories to ``trace.jsonl``, ``costs.jsonl`` and ``satisfaction.jsonl``
    instead, and each is then the closed writer of its file: ``len()`` gives
    the number of records, and it holds none of them. ``costs.totals`` holds
    the cost totals either way.
    """

    scenario: Scenario
    trace: list[Event] | _RecordFile
    ledger: Ledger
    costs: CostLedger
    inventories: dict[tuple[str, str], InventoryRecord]
    report: KpiReport
    satisfaction: list[VoteEntry] | _RecordFile
    delivery_series: dict[str, list[tuple[int, float]]]  # actor: (order_id, hours)
    launches: list[tuple[float, int]]
    consumed_raw_kg: dict[str, float]

    def stock(self, owner: str, item_code: str) -> float:
        record = self.inventories.get((owner, item_code))
        return record.on_hand if record is not None else 0.0


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> RunArtifacts:
    """Execute one deterministic run; optionally persist all artifact files.

    With ``out_dir``, each event, cost entry and vote update is written to
    ``trace.jsonl``, ``costs.jsonl`` or ``satisfaction.jsonl`` as it comes,
    so the run holds none of them, and the other files are written after the
    run. A run that raises removes those three partial files.

    The cyclic garbage collector is paused for the run, since a run makes no
    reference cycles, and handed back as the caller had it, on or off. Handed
    back on, it first makes the one young collection the run held back.
    """
    streams: list[_RecordFile] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        if out_dir is None:
            trace, entries, votes = [], [], []
        else:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            head = _header(*scenario.digests(), scenario.seed, scenario.mode)
            for name, lines in _histories():
                streams.append(_RecordFile(out_dir / name, head, lines))
            trace, entries, votes = streams
        engine = Engine(seed=scenario.seed, trace=trace)
        chain = Chain(scenario, engine, CostLedger(entries), votes)
        chain.register()
        engine.run_until(scenario.horizon_hours)
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
            satisfaction=votes,
            delivery_series=delivery_series,
            launches=chain.launches,
            consumed_raw_kg={
                raw(rid).code: kg for rid, kg in sorted(chain.consumed_raw_kg.items())
            },
        )
    except BaseException:
        for stream in streams:
            stream.discard()
        raise
    else:
        if out_dir is not None:
            for stream in streams:
                stream.close()
            write_artifacts(artifacts, out_dir)
    finally:
        if collecting:
            gc.enable()
            # here, not at the caller's next allocation, so that its time is
            # the run's: profilers and timers around a run then see all of it
            gc.collect(0)
    return artifacts


def write_artifacts(artifacts: RunArtifacts, out_dir: Path) -> None:
    """Write the run's artifact files into ``out_dir``.

    A written run's ``trace.jsonl``, ``costs.jsonl`` and
    ``satisfaction.jsonl`` are already complete, and are left as they are;
    their records are gone, so for any other directory this raises
    ``ValueError`` and writes nothing.
    """
    held = (artifacts.trace, artifacts.costs.entries, artifacts.satisfaction)
    histories = [
        (out_dir / name, records, lines) for (name, lines), records in zip(_histories(), held)
    ]
    elsewhere = [
        str(records.path)
        for path, records, _ in histories
        if isinstance(records, _RecordFile)
        and not (path.exists() and path.samefile(records.path))
    ]
    if elsewhere:
        raise ValueError(
            f"this run's {', '.join(elsewhere)} were written as the run went, and "
            f"are not held; run the scenario again to write them to {out_dir}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    report = artifacts.report
    header = _header(report.scenario_digest, report.topology_digest, report.seed, report.mode)
    for path, records, lines in histories:
        if not isinstance(records, _RecordFile):
            _write_file(path, header, [(records, lines)])
    _write_file(out_dir / "ledger.jsonl", header, artifacts.ledger.export_parts())
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


def _histories() -> list[tuple[str, _Lines]]:
    """The file name and line formatter of each history a written run
    streams: its events, cost entries and vote updates."""
    return [
        ("trace.jsonl", trace_lines),
        ("costs.jsonl", LINES["cost"]),
        ("satisfaction.jsonl", LINES["vote"]),
    ]


def _header(scenario_digest: str, topology_digest: str, seed: int, mode: str) -> str:
    """The provenance header line of each ``.jsonl`` file."""
    return _ENCODE(
        {
            "record": "header",
            "scenario_digest": scenario_digest,
            "topology_digest": topology_digest,
            "seed": seed,
            "mode": mode,
        }
    )


def _csv_rows(actor: str, rows: list[tuple[int, float]]) -> list[str]:
    return [f"{actor},{order_id},{hours!r}" for order_id, hours in rows]


#: records formatted and written per write: no record file's text is held
#: whole, so the writer's memory does not grow with the horizon
_SLICE = 512

_Lines = Callable[[list], list[str]]


class _RecordFile:
    """A record file written as its records come: ``head`` and a newline,
    then one line per record, formatted and written ``_SLICE`` records at a
    time. It holds only the records not yet written, and ``len()`` counts
    every record given to it.

    ``append`` takes one record of the kind ``lines`` formats; ``extend``
    takes a list of records with their own formatter. ``close`` writes what
    is pending; ``discard`` drops it and removes the file.
    """

    __slots__ = ("path", "_file", "_lines", "_pending", "_written")

    def __init__(self, path: Path, head: str, lines: _Lines | None = None) -> None:
        self.path = path
        self._lines = lines
        self._pending: list = []
        self._written = 0
        # unlink first: on ext4, truncating a large file that was just written is
        # slow; rewriting a long run's files in place took ~9x a fresh write
        path.unlink(missing_ok=True)
        self._file = open(path, "w", encoding="utf-8")
        self._file.write(head + "\n")

    def __len__(self) -> int:
        return self._written + len(self._pending)

    def append(self, record) -> None:
        pending = self._pending
        pending.append(record)
        if len(pending) >= _SLICE:
            self._flush()

    def extend(self, records: list, lines: _Lines) -> None:
        self._flush()
        for i in range(0, len(records), _SLICE):
            self._write(records[i : i + _SLICE], lines)

    def close(self) -> None:
        self._flush()
        self._file.close()

    def discard(self) -> None:
        self._pending.clear()
        self._file.close()
        self.path.unlink(missing_ok=True)

    def _flush(self) -> None:
        self._write(self._pending, self._lines)
        self._pending.clear()

    def _write(self, records: list, lines: _Lines) -> None:
        if records:
            self._file.write("\n".join(lines(records)) + "\n")
            self._written += len(records)


def _write_file(path: Path, head: str, parts: Iterable[tuple[list, _Lines]] = ()) -> None:
    """Write ``head`` and a newline, then every ``(records, lines)`` part in
    order, one line per record; with no records the file is the head line
    alone."""
    out = _RecordFile(path, head)
    try:
        for records, lines in parts:
            out.extend(records, lines)
    finally:
        out.close()
