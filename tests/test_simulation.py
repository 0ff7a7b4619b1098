"""End-to-end run behavior: determinism, mode structure, artifact files."""

import gc
import json
import tracemalloc

import pytest

from conftest import assert_views_match_scan
from vcsim.ledger import Ledger
from vcsim.scenario import case_study_scenario
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
        for entry in vcor_run.report.satisfaction:
            if entry["product"] == code:
                by_customer.setdefault(entry["customer"], []).append(entry)
        for series in by_customer.values():
            post = [e for e in series if e["time"] >= launch_time]
            if not post:
                continue
            pre = [e["vote"] for e in series if e["time"] < post[0]["time"]]
            previous = pre[-1] if pre else initial
            if post[0]["vote"] > previous:
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
        for name in ("trace.jsonl", "ledger.jsonl", "costs.jsonl", "satisfaction.jsonl"):
            first = (tmp_path / name).read_text().splitlines()[0]
            header = json.loads(first)
            assert header["record"] == "header"
            assert header["scenario_digest"] == scenario.digest()
            assert header["seed"] == 3
        csv_head = (tmp_path / "delivery_times.csv").read_text().splitlines()[0]
        assert scenario.digest() in csv_head and "seed=3" in csv_head
        kpi = json.loads((tmp_path / "kpi.json").read_text())
        assert kpi["scenario_digest"] == scenario.digest()
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
        # peaked at ~4x); kpi.json, formatted whole, is the larger part of it
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

    def test_defect_probability_never_increases(self, vcor_run):
        scenario = vcor_run.scenario
        for pid, p0 in scenario.support.defect_probability.items():
            resolved = sum(
                1
                for t in vcor_run.ledger.tickets.values()
                if t.item.id == pid and t.resolved_at is not None
            )
            expected = p0 * scenario.support.education_decay**resolved
            assert expected <= p0
