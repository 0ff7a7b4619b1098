"""The benchmark workloads: input generation, one measured unit, output checks.

Every call into the program goes through a module attribute
(``simulation.run_scenario``, not a name imported from it), so the traced run
sees the wrapped functions that ``spans.Tracer.install`` puts there.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from vcsim import ledger, metrics, scenario, simulation

WORKLOADS = ("case-long", "pairs-short")

CASE_LONG_HOURS = 2880.0
PAIRS_PER_SWEEP = 100
PAIRS_HOURS = 48.0
SETUPS_PER_UNIT = 3


class CheckFailed(Exception):
    """A run finished but its outputs are wrong."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def no_phase(name: str):
    """Phase marker of the untraced run: records nothing."""
    return nullcontext()


@dataclass
class Unit:
    """One measured unit of work: a scenario run, or a sweep of pairs."""

    setup_s: list[float]  # one sample per set-up
    run_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    rss_mb: float
    events: int = 0
    orders: int = 0
    delivered: int = 0
    kpi_sha256: list[str | None] = field(default_factory=list)


def derive_seed(workload: str, seed: int) -> int:
    """The simulator seed a workload uses for a benchmark seed."""
    return random.Random(f"{workload}/{seed}").randrange(2**31)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_run(artifacts, out_dir: Path | None = None) -> str:
    """Check one run's outputs; return the sha256 of its KPI JSON text.

    Raises CheckFailed when the ledger does not replay to the live statuses,
    the census does not add up, a stock level went negative, or a written
    ``kpi.json`` differs from the in-memory report.
    """
    book = artifacts.ledger
    report = artifacts.report
    live = {oid: o.status.value for oid, o in book.orders.items()}
    if out_dir is None:
        lines = book.export_lines()
    else:
        lines = (out_dir / "ledger.jsonl").read_text(encoding="utf-8").splitlines()
    replayed = ledger.Ledger.from_lines(lines)
    _expect(
        {oid: o.status.value for oid, o in replayed.orders.items()} == live,
        "ledger replay does not reproduce the live order statuses",
    )
    _expect(
        ledger.replay_final_statuses(book.transitions) == live,
        "transition log does not fold to the live order statuses",
    )
    _expect(
        sum(report.census.values()) == report.total_orders,
        f"census sums to {sum(report.census.values())}, not {report.total_orders}",
    )
    for record in artifacts.inventories.values():
        _expect(
            record.on_hand >= 0 and min(level for _, level in record.samples) >= 0,
            f"stock of {record.owner}/{record.item.code} went below zero",
        )
    kpi_text = report.to_json()
    if out_dir is not None:
        _expect(
            (out_dir / "kpi.json").read_text(encoding="utf-8") == kpi_text + "\n",
            "kpi.json on disk differs from the in-memory report",
        )
    return hashlib.sha256(kpi_text.encode("utf-8")).hexdigest()


def _delivered(artifacts) -> int:
    return sum(o.delivered_at is not None for o in artifacts.ledger.orders.values())


class ScenarioFileWorkload:
    """One scenario document, loaded and run with every artifact written.

    This is what ``vcsim run scenario.yaml --out dir`` does: ``load_scenario``
    is the set-up, ``run_scenario(..., out_dir=...)`` the measured run.
    """

    def __init__(self, path: Path, workdir: Path) -> None:
        self.path = path
        self.out_dir = workdir / "run"

    def unit(self, phase=no_phase) -> Unit:
        setup_s = []
        for _ in range(SETUPS_PER_UNIT):
            with phase("bench.setup"):
                t0 = time.perf_counter()
                loaded = scenario.load_scenario(self.path)
                setup_s.append(time.perf_counter() - t0)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        with phase("bench.run"):
            t0 = time.perf_counter()
            artifacts = simulation.run_scenario(loaded, out_dir=self.out_dir)
            run_s = time.perf_counter() - t0
        rss_mb = _peak_rss_mb()
        sha = check_run(artifacts, self.out_dir)
        return Unit(
            setup_s=setup_s,
            run_s=run_s,
            latencies_ms=[run_s * 1e3],
            attempted=1,
            failed=0,
            rss_mb=rss_mb,
            events=len(artifacts.trace),
            orders=len(artifacts.ledger.orders),
            delivered=_delivered(artifacts),
            kpi_sha256=[sha],
        )


class PairsWorkload:
    """A sweep of SCOR/VCOR case-study pairs over consecutive seeds, in memory.

    Each replication builds both scenarios (set-up), runs them without
    artifacts and compares them (the measured run). A failing replication is
    counted and the sweep goes on.
    """

    def __init__(self, first_seed: int, pairs: int, hours: float) -> None:
        self.seeds = range(first_seed, first_seed + pairs)
        self.hours = hours

    def unit(self, phase=no_phase) -> Unit:
        setup_s = run_s = 0.0
        latencies: list[float] = []
        shas: list[str | None] = []
        failed = events = orders = delivered = 0
        gc.collect()
        for seed in self.seeds:
            try:
                with phase("bench.setup"):
                    t0 = time.perf_counter()
                    scor = scenario.case_study_scenario("scor", seed, self.hours)
                    vcor = scenario.case_study_scenario("vcor", seed, self.hours)
                    build_s = time.perf_counter() - t0
                with phase("bench.run"):
                    t0 = time.perf_counter()
                    a = simulation.run_scenario(scor)
                    b = simulation.run_scenario(vcor)
                    comparison = metrics.compare_runs(a.report, b.report)
                    pair_s = time.perf_counter() - t0
                _expect(comparison["seed"] == seed, "comparison carries the wrong seed")
                sha = hashlib.sha256(
                    (check_run(a) + check_run(b)).encode("ascii")
                ).hexdigest()
            except Exception as exc:  # a failed replication is counted, not fatal
                print(f"pairs-short seed {seed}: {exc!r}", flush=True)
                failed += 1
                shas.append(None)
                continue
            setup_s += build_s
            run_s += pair_s
            latencies.append(pair_s * 1e3)
            shas.append(sha)
            events += len(a.trace) + len(b.trace)
            orders += len(a.ledger.orders) + len(b.ledger.orders)
            delivered += _delivered(a) + _delivered(b)
        return Unit(
            setup_s=[setup_s],
            run_s=run_s,
            latencies_ms=latencies,
            attempted=len(self.seeds),
            failed=failed,
            rss_mb=_peak_rss_mb(),
            events=events,
            orders=orders,
            delivered=delivered,
            kpi_sha256=shas,
        )


def make_workload(name: str, seed: int, workdir: Path, scale: float = 1.0):
    """Generate a workload's inputs from ``seed``; ``scale`` < 1 shrinks it for smoke tests."""
    if name == "case-long":
        path = workdir / "scenario.yaml"
        built = scenario.case_study_scenario(
            "vcor", derive_seed(name, seed), CASE_LONG_HOURS * scale
        )
        scenario.save_scenario(built, path)
        return ScenarioFileWorkload(path, workdir)
    if name == "pairs-short":
        pairs = max(1, round(PAIRS_PER_SWEEP * scale))
        return PairsWorkload(derive_seed(name, seed), pairs, PAIRS_HOURS)
    raise ValueError(f"unknown workload {name!r}")
