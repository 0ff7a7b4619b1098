"""End-to-end run behavior: determinism, mode structure, artifact files."""

import gc
import json
import sys
import tracemalloc
import warnings
from copy import deepcopy
from dataclasses import replace

import pytest

from conftest import assert_views_match_scan
from test_golden import micro_scenario
from vcsim import simulation
from vcsim.actors import Chain
from vcsim.engine import Engine, trace_lines
from vcsim.jsonl import LINES
from vcsim.ledger import Ledger
from vcsim.scenario import _case_study, case_study_scenario
from vcsim.simulation import _SLICE, _write_file, run_scenario, write_artifacts

VCOR_EVENT_KINDS = {
    "activate-market",
    "activate-sell",
    "contract-order",
    "innovation-complete",
    "support-intake",
}


@pytest.fixture(scope="module")
def scor_run():
    return run_scenario(case_study_scenario(mode="scor", seed=42))


@pytest.fixture(scope="module")
def vcor_run():
    return run_scenario(case_study_scenario(mode="vcor", seed=42))


class TestCaseStudyRun:
    def test_census_includes_undelivered_orders(self, scor_run):
        census = scor_run.report.census
        undelivered = census["Open"] + census["InTransit"] + census["FGI"]
        assert undelivered + census["Delivered"] >= sum(census.values()) - census[
            "Resolved"
        ] - census["ReturnRequested"]
        assert census["InTransit"] > 0  # some goods still on the road at 48 h

    def test_retailer_serves_dozens_of_orders(self, scor_run):
        retailer = scor_run.report.actors["retailer"]
        assert 25 <= retailer.delivered_count <= 50
        assert retailer.mean_delivery_time > 0

    def test_supplier2_never_reorders_upstream(self, scor_run):
        upstream_orders = [
            o for o in scor_run.ledger.orders.values() if o.provider == "upstream"
        ]
        assert upstream_orders == []

    def test_zero_horizon_gives_empty_run(self):
        artifacts = run_scenario(case_study_scenario(mode="scor", horizon_hours=0.0))
        assert artifacts.trace == []
        assert artifacts.report.total_orders == 0


class TestModeStructure:
    def test_scor_trace_has_no_vcor_events(self, scor_run):
        kinds = {e.kind for e in scor_run.trace}
        assert not kinds & VCOR_EVENT_KINDS

    def test_vcor_trace_contains_vcor_events(self, vcor_run):
        kinds = {e.kind for e in vcor_run.trace}
        assert "activate-market" in kinds
        assert "activate-sell" in kinds
        assert "contract-order" in kinds

    def test_vcor_firm_delivers_strictly_more(self, scor_run, vcor_run):
        assert (
            vcor_run.report.actors["firm"].delivered_count
            > scor_run.report.actors["firm"].delivered_count
        )

    def test_vcor_retailer_mean_delivery_time_not_lower(self, scor_run, vcor_run):
        assert (
            vcor_run.report.actors["retailer"].mean_delivery_time
            >= scor_run.report.actors["retailer"].mean_delivery_time
        )

    def test_launch_jumps_the_vote(self, vcor_run):
        assert vcor_run.launches, "the case-study VCOR run must launch a product"
        launch_time, pid = vcor_run.launches[0]
        code = f"P{pid}"
        jumped = False
        initial = vcor_run.scenario.satisfaction.initial_vote
        by_customer: dict[str, list] = {}
        for entry in vcor_run.satisfaction:
            if entry.product == code:
                by_customer.setdefault(entry.customer, []).append(entry)
        for series in by_customer.values():
            post = [e for e in series if e.time >= launch_time]
            if not post:
                continue
            pre = [e.vote for e in series if e.time < post[0].time]
            previous = pre[-1] if pre else initial
            if post[0].vote > previous:
                jumped = True
        assert jumped

    def test_sell_cap_respected(self, vcor_run):
        scenario = vcor_run.scenario
        cap = scenario.sell.capacity_fraction * scenario.firm.capacity_boxes_per_day
        contracted = [
            p
            for p in scenario.sell.prospects
            if any(o.client == p.name for o in vcor_run.ledger.orders.values())
        ]
        assert sum(p.boxes_per_day for p in contracted) <= cap

    def test_support_only_fires_under_vcor(self, scor_run, vcor_run):
        assert scor_run.ledger.tickets == {}
        assert vcor_run.ledger.tickets  # p_def=0.05 over ~35 deliveries


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_scenario(case_study_scenario(mode="vcor", seed=7), out_dir=out)
            dirs.append(out)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_rewriting_a_used_directory_matches_a_fresh_one(self, tmp_path):
        longer = run_scenario(case_study_scenario(mode="vcor", seed=7, horizon_hours=96.0))
        artifacts = run_scenario(case_study_scenario(mode="vcor", seed=7))
        write_artifacts(longer, tmp_path / "used")
        write_artifacts(artifacts, tmp_path / "used")
        write_artifacts(artifacts, tmp_path / "fresh")
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
        assert sorted(p.name for p in (tmp_path / "used").iterdir()) == names
        for name in names:
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (tmp_path / "used" / name).read_bytes() == fresh, name

    def test_a_run_never_edits_its_scenario(self, tmp_path):
        # a derived scenario shares its template's recipes, and a renewal
        # swaps one of them in the run's own copy
        template = _case_study("vcor")
        base = case_study_scenario(mode="vcor", seed=7, horizon_hours=96.0)
        scenario = replace(base, innovation=replace(base.innovation, bom_override={2: 2.0}))
        before = deepcopy(template.bom)
        assert scenario.bom == before
        dirs = [tmp_path / name for name in ("a", "b")]
        for out in dirs:
            artifacts = run_scenario(scenario, out_dir=out)
            assert artifacts.launches  # a renewal swapped a recipe
            assert scenario.bom == before and template.bom == before
        for path in dirs[0].iterdir():
            assert (dirs[1] / path.name).read_bytes() == path.read_bytes(), path.name

    def test_different_seeds_differ(self, tmp_path):
        traces = []
        for seed in (1, 2):
            artifacts = run_scenario(case_study_scenario(mode="vcor", seed=seed))
            traces.append([(e.fire_time, e.kind) for e in artifacts.trace])
        assert traces[0] != traces[1]


class TestArtifactFiles:
    def test_every_file_carries_the_provenance_header(self, tmp_path):
        scenario = case_study_scenario(mode="scor", seed=3)
        run_scenario(scenario, out_dir=tmp_path)
        digest = scenario.digests()[0]
        for name in ("trace.jsonl", "ledger.jsonl", "costs.jsonl", "satisfaction.jsonl"):
            first = (tmp_path / name).read_text().splitlines()[0]
            header = json.loads(first)
            assert header["record"] == "header"
            assert header["scenario_digest"] == digest
            assert header["seed"] == 3
        csv_head = (tmp_path / "delivery_times.csv").read_text().splitlines()[0]
        assert digest in csv_head and "seed=3" in csv_head
        kpi = json.loads((tmp_path / "kpi.json").read_text())
        assert kpi["scenario_digest"] == digest
        assert kpi["seed"] == 3

    def test_exported_ledger_replays_to_identical_state(self, tmp_path):
        artifacts = run_scenario(case_study_scenario(mode="vcor", seed=5), out_dir=tmp_path)
        lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
        clone = Ledger.from_lines(lines)
        assert clone.export_lines() == lines[1:]  # header aside, order-for-order
        assert_views_match_scan(artifacts.ledger)
        assert_views_match_scan(clone)


class TestStreamedWriter:
    HEAD = '{"record":"header"}'

    @staticmethod
    def expected(head: str, lines: list[str]) -> bytes:
        body = "\n".join(lines) + "\n" if lines else ""
        return (head + "\n" + body).encode("utf-8")

    @pytest.mark.parametrize("count", [0, 1, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
    def test_slices_write_the_whole_text(self, tmp_path, count):
        runs = []

        def lines(run):
            runs.append(len(run))
            return [f'{{"n":{n}}}' for n in run]

        path = tmp_path / "part.jsonl"
        _write_file(path, self.HEAD, [(list(range(count)), lines)])
        expected = [f'{{"n":{n}}}' for n in range(count)]
        assert path.read_bytes() == self.expected(self.HEAD, expected)
        assert sum(runs) == count and all(0 < n <= _SLICE for n in runs)

    @pytest.mark.parametrize("first", [0, _SLICE - 1, _SLICE, _SLICE + 1])
    def test_parts_follow_one_another(self, tmp_path, first):
        parts = [
            (list(range(first)), lambda run: [f"a{n}" for n in run]),
            ([], lambda run: [f"b{n}" for n in run]),
            (list(range(3)), lambda run: [f"c{n}" for n in run]),
        ]
        path = tmp_path / "parts.jsonl"
        _write_file(path, self.HEAD, parts)
        lines = [f"a{n}" for n in range(first)] + ["c0", "c1", "c2"]
        assert path.read_bytes() == self.expected(self.HEAD, lines)

    def test_a_file_without_records_is_its_head_line(self, tmp_path):
        path = tmp_path / "kpi.json"
        path.write_text("stale text, longer than the head")
        _write_file(path, "{}")
        assert path.read_bytes() == b"{}\n"

    def test_writing_peaks_below_the_largest_file(self, tmp_path):
        # no record file's text is held whole, so the writer's peak stays
        # under the largest file it writes (building each file whole, it
        # peaked at ~4x)
        artifacts = run_scenario(
            case_study_scenario(mode="vcor", seed=42, horizon_hours=960.0)
        )
        tracemalloc.start()
        try:
            write_artifacts(artifacts, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(path.stat().st_size for path in tmp_path.iterdir())
        assert peak < largest

    def test_writing_a_long_run_peaks_below_a_quarter_of_the_largest_file(self, tmp_path):
        # kpi.json holds no per-order list, so no text the writer builds
        # grows with the horizon: at 2880 h its peak is ~0.28 MB, against
        # 1.68 MB of ledger.jsonl (1.42 MB when kpi.json repeated the records)
        artifacts = run_scenario(
            case_study_scenario(mode="vcor", seed=42, horizon_hours=2880.0)
        )
        tracemalloc.start()
        try:
            write_artifacts(artifacts, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(path.stat().st_size for path in tmp_path.iterdir())
        assert peak < largest / 4


class TestStreamedTrace:
    """A written run formats its events, cost entries and vote updates into
    ``trace.jsonl``, ``costs.jsonl`` and ``satisfaction.jsonl`` as they come."""

    STREAMED = ("trace.jsonl", "costs.jsonl", "satisfaction.jsonl")

    @staticmethod
    def header(scenario) -> str:
        scenario_digest, topology_digest = scenario.digests()
        return json.dumps(
            {
                "record": "header",
                "scenario_digest": scenario_digest,
                "topology_digest": topology_digest,
                "seed": scenario.seed,
                "mode": scenario.mode,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @staticmethod
    def histories(artifacts) -> dict:
        return {
            "trace.jsonl": artifacts.trace,
            "costs.jsonl": artifacts.costs.entries,
            "satisfaction.jsonl": artifacts.satisfaction,
        }

    @pytest.mark.parametrize("mode", ["scor", "vcor"])
    def test_a_run_without_events_writes_the_header_line_alone(self, tmp_path, mode):
        scenario = case_study_scenario(mode=mode, horizon_hours=0.0)
        artifacts = run_scenario(scenario, out_dir=tmp_path)
        for name, written in self.histories(artifacts).items():
            assert len(written) == 0
            assert (tmp_path / name).read_text() == self.header(scenario) + "\n"

    @pytest.mark.parametrize("mode", ["scor", "vcor"])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_each_streamed_file_is_the_header_and_the_lines_of_the_held_records(
        self, tmp_path, monkeypatch, mode, size
    ):
        formatters = {
            "trace.jsonl": trace_lines,
            "costs.jsonl": LINES["cost"],
            "satisfaction.jsonl": LINES["vote"],
        }
        runs = {name: [] for name in formatters}  # the records of each formatted slice

        def counting(name):
            def lines(records):
                runs[name].append(len(records))
                return formatters[name](records)

            return lines

        monkeypatch.setattr(simulation, "_SLICE", size)
        monkeypatch.setattr(simulation, "trace_lines", counting("trace.jsonl"))
        monkeypatch.setitem(LINES, "cost", counting("costs.jsonl"))
        monkeypatch.setitem(LINES, "vote", counting("satisfaction.jsonl"))
        remainders = {name: set() for name in formatters}
        # events, cost entries and votes: 60, 11, 4 at 30 h in SCOR, then
        # 61, 13, 5; 65, 13, 5; 81, 15, 6 and 99, 18, 7 (VCOR: 68, 12, 4;
        # 69, 14, 5; 73, 14, 5; 91, 16, 6 and 112, 19, 7)
        for hours in (30.0, 31.0, 32.0, 40.0, 48.0):
            scenario = replace(micro_scenario(), mode=mode, processes=None, horizon_hours=hours)
            held = self.histories(run_scenario(scenario))
            for slices in runs.values():
                slices.clear()
            out = tmp_path / f"{hours}"
            written = self.histories(run_scenario(scenario, out_dir=out))
            for name, lines in formatters.items():
                records = held[name]
                assert type(records) is list and records, name
                expected = "".join(
                    line + "\n" for line in [self.header(scenario), *lines(records)]
                )
                assert (out / name).read_text() == expected, name
                assert len(written[name]) == len(records) == sum(runs[name]), name
                # each slice is formatted from the pending records, which
                # reach at most ``_SLICE`` before they are written
                slices = runs[name]
                assert slices[:-1] == [size] * (len(slices) - 1) and 0 < slices[-1] <= size
                assert written[name]._pending == []
                remainders[name].add(len(records) % size)
        # for each file, one below, equal to and one above a multiple of the slice
        for name, seen in remainders.items():
            assert seen == {n % size for n in (-1, 0, 1)}, name

    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_a_run_that_raises_removes_its_partial_files(self, tmp_path, monkeypatch, collecting):
        sizes = []
        handler = Chain._on_customer_order
        size = 64

        def order(chain, engine, event):
            sinks = (engine.trace, chain.costs.entries, chain.satisfaction_series)
            # past a few slices, so that each file's buffer has reached the disk
            if min(len(sink) for sink in sinks) > 4 * size:
                sizes.extend((tmp_path / name).stat().st_size for name in self.STREAMED)
                raise RuntimeError("handler failed")
            handler(chain, engine, event)

        monkeypatch.setattr(simulation, "_SLICE", size)
        monkeypatch.setattr(Chain, "_on_customer_order", order)
        scenario = case_study_scenario(mode="vcor", seed=42, horizon_hours=480.0)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(RuntimeError, match="handler failed"):
                    run_scenario(scenario, out_dir=tmp_path)
                gc.collect()  # frees whatever the raised run left
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()
        # records were on disk, after the header, in each file when the run raised
        assert len(sizes) == 3 and min(sizes) > len(self.header(scenario)) + 1
        assert list(tmp_path.iterdir()) == []
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_writing_a_written_run_elsewhere_is_a_value_error(self, tmp_path):
        scenario = case_study_scenario(mode="vcor", seed=7)
        artifacts = run_scenario(scenario, out_dir=tmp_path / "run")
        with pytest.raises(ValueError, match="trace.jsonl") as raised:
            write_artifacts(artifacts, tmp_path / "other")
        for name in self.STREAMED:
            assert str(tmp_path / "run" / name) in str(raised.value)
        assert not (tmp_path / "other").exists()

    def test_writing_a_written_run_again_keeps_its_streamed_files(self, tmp_path):
        scenario = case_study_scenario(mode="vcor", seed=7)
        write_artifacts(run_scenario(scenario), tmp_path / "held")
        artifacts = run_scenario(scenario, out_dir=tmp_path / "run")
        files = [tmp_path / "run" / name for name in self.STREAMED]
        stats = [(path.stat().st_ino, path.stat().st_mtime_ns) for path in files]
        write_artifacts(artifacts, tmp_path / "run")
        assert [(path.stat().st_ino, path.stat().st_mtime_ns) for path in files] == stats
        names = sorted(p.name for p in (tmp_path / "held").iterdir())
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == names
        for name in names:
            assert (tmp_path / "run" / name).read_bytes() == (
                tmp_path / "held" / name
            ).read_bytes(), name


def test_a_finished_run_leaves_no_cyclic_garbage(tmp_path):
    """A run is freed by reference counting alone: no engine/handler cycle."""
    gc.collect()
    gc.disable()
    try:
        run_scenario(case_study_scenario(mode="vcor", seed=42, horizon_hours=480.0))
        run_scenario(
            case_study_scenario(mode="vcor", seed=42, horizon_hours=480.0), out_dir=tmp_path
        )
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("fails", [False, True], ids=["finishes", "raises"])
def test_a_run_hands_the_collector_back_as_the_caller_had_it(monkeypatch, collecting, fails):
    seen = []
    handler = Chain._on_customer_order

    def order(chain, engine, event):
        seen.append(gc.isenabled())
        if fails:
            raise RuntimeError("handler failed")
        handler(chain, engine, event)

    monkeypatch.setattr(Chain, "_on_customer_order", order)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if fails:
            with pytest.raises(RuntimeError):
                run_scenario(case_study_scenario(mode="vcor", seed=42))
        else:
            run_scenario(case_study_scenario(mode="vcor", seed=42))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # paused while the run's handlers ran


def test_a_run_makes_the_collection_it_held_back_before_it_returns():
    """So a timer or profiler around the run, not the caller's next
    allocation, sees its time."""
    inside = []

    def record(phase, info):
        if phase == "start":
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            inside.append("run_scenario" in names)

    scenario = case_study_scenario(mode="vcor", seed=42, horizon_hours=480.0)
    gc.collect()
    gc.callbacks.append(record)
    try:
        kept = run_scenario(scenario)  # kept: freeing the run lowers the young count
        [[] for _ in range(gc.get_threshold()[0] // 2)]  # the caller allocates on
    finally:
        gc.callbacks.remove(record)
    assert inside == [True]
    assert kept.ledger.orders


class TestLedgerInvariantsInRuns:
    def test_timestamps_monotone_along_every_order(self, vcor_run):
        ledger = vcor_run.ledger
        times: dict[int, list[float]] = {order_id: [] for order_id in ledger.orders}
        for order_id, _, at in ledger.transitions:
            times[order_id].append(at)
        for order_times in times.values():
            assert order_times == sorted(order_times)

    def test_at_most_one_outstanding_replenishment_per_item(self, vcor_run):
        # replay the transition log and check the invariant after every step
        ledger = vcor_run.ledger
        outstanding: dict[tuple[str, str], int] = {}
        counts: dict[int, str] = {}
        for order_id, status, _at in ledger.transitions:
            order = ledger.orders[order_id]
            if order.client not in ("retailer", "firm", "supplier1", "supplier2", "supplier3"):
                continue
            key = (order.client, order.item.code)
            if status == "Open":
                outstanding[key] = outstanding.get(key, 0) + 1
            elif status == "Delivered":
                outstanding[key] -= 1
            assert outstanding.get(key, 0) <= 1, f"duplicate replenishment for {key}"

    def test_resolved_tickets_conserve_replacement_quantities(self, vcor_run):
        tickets = vcor_run.ledger.tickets.values()
        with_replacement = [t for t in tickets if t.replacement_order_id is not None]
        total_defective = sum(t.defective_qty for t in with_replacement)
        total_replacement = sum(
            vcor_run.ledger.orders[t.replacement_order_id].quantity
            for t in with_replacement
        )
        assert total_replacement == total_defective

    def test_defect_probability_never_increases(self):
        # the chain's own rates, built and run as ``run_scenario`` does
        scenario = case_study_scenario(mode="vcor", seed=42)
        engine = Engine(seed=scenario.seed)
        chain = Chain(scenario, engine)
        chain.register()
        engine.run_until(scenario.horizon_hours)
        chain.finalize()
        resolved = [t for t in chain.ledger.tickets.values() if t.resolved_at is not None]
        assert resolved
        support = scenario.support
        for pid, p0 in support.defect_probability.items():
            n = sum(1 for t in resolved if t.item.id == pid)
            assert chain.defect_probability[pid] == pytest.approx(p0 * support.education_decay**n)
