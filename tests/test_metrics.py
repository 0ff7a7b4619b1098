"""KPI arithmetic: delivery times, SRI/SMI/SPI, census, run comparison."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from vcsim.ledger import Ledger, OrderStatus, product, replay_final_statuses
from vcsim.metrics import (
    COST_CATEGORIES,
    ActorKpis,
    ComparisonError,
    CostLedger,
    KpiReport,
    build_report,
    compare_runs,
    sales_profitability,
    stock_mean_time,
    stock_rotation,
)
from vcsim.scenario import case_study_scenario

# the reference indicator pairs (rotation, mean time) for finished goods and
# raw materials under both configurations, over a 48-hour period
REFERENCE_PAIRS = [(22.4, 2.13), (12.34, 3.88), (1.2, 39.8), (0.69, 68.8)]

# the fold reads actor and customer names from a scenario: the case study's
# include "firm", "retailer" and "customer1"
SCENARIO = case_study_scenario()


def _fold(ledger, costs=None) -> tuple[KpiReport, dict[str, list[tuple[int, float]]]]:
    """The report and every actor's (order_id, hours) delivery series."""
    return build_report(SCENARIO, ledger, [], costs or CostLedger(), {})


def _delivered_order(ledger, provider, created, delivered, qty=10.0):
    order = ledger.place("client", provider, product(1), qty, at=created)
    ledger.transition(order.order_id, OrderStatus.IN_TRANSIT, at=created)
    ledger.transition(order.order_id, OrderStatus.DELIVERED, at=delivered)
    return order


class TestDeliveryTimes:
    def test_mean_of_two(self):
        ledger = Ledger()
        _delivered_order(ledger, "firm", 0.0, 4.0)
        _delivered_order(ledger, "firm", 1.0, 7.0)
        report, series = _fold(ledger)
        firm = report.actors["firm"]
        assert [hours for _, hours in series["firm"]] == [4.0, 6.0]
        assert firm.mean_delivery_time == 5.0
        assert firm.max_delivery_time == 6.0

    def test_the_mean_is_a_plain_left_fold(self):
        # ten 0.1 h deliveries fold left to 0.9999999999999999; the
        # compensated sum() of Python 3.12+ would give 1.0
        ledger = Ledger()
        for _ in range(10):
            _delivered_order(ledger, "firm", 0.0, 0.1)
        firm = _fold(ledger)[0].actors["firm"]
        assert firm.mean_delivery_time == 0.9999999999999999 / 10
        assert firm.mean_delivery_time != 0.1

    def test_no_deliveries_is_absent_not_zero(self):
        ledger = Ledger()
        ledger.place("client", "firm", product(1), 1.0, at=0.0)
        report, series = _fold(ledger)
        assert series["firm"] == []
        assert report.actors["firm"].mean_delivery_time is None

    def test_undelivered_orders_do_not_contribute(self):
        ledger = Ledger()
        _delivered_order(ledger, "firm", 0.0, 4.0)
        ledger.place("client", "firm", product(1), 1.0, at=0.0)
        assert len(_fold(ledger)[1]["firm"]) == 1

    def test_series_is_keyed_by_order_id_not_insertion(self):
        ledger = Ledger()
        o2 = ledger.place("client", "firm", product(1), 1.0, at=5.0)
        o1 = ledger.place("client", "firm", product(1), 1.0, at=0.0)
        for o, t in ((o2, 9.0), (o1, 2.0)):
            ledger.transition(o.order_id, OrderStatus.IN_TRANSIT, at=o.created_at)
            ledger.transition(o.order_id, OrderStatus.DELIVERED, at=t)
        series = _fold(ledger)[1]["firm"]
        assert [oid for oid, _ in series] == sorted([o1.order_id, o2.order_id])


class TestStockRotation:
    def test_reference_ratio(self):
        assert stock_rotation(1075.2, 48.0) == pytest.approx(22.4)

    def test_zero_profit(self):
        assert stock_rotation(0.0, 48.0) == 0.0

    def test_profit_equal_to_stock(self):
        assert stock_rotation(48.0, 48.0) == 1.0

    def test_empty_warehouse_is_absent(self):
        assert stock_rotation(100.0, 0.0) is None
        assert stock_rotation(100.0, None) is None


class TestStockMeanTime:
    def test_reference_pair(self):
        assert stock_mean_time(48.0, 22.4) == pytest.approx(2.142857, abs=1e-6)

    def test_identity(self):
        assert stock_mean_time(48.0, 48.0) == 1.0

    def test_low_rotation(self):
        assert stock_mean_time(48.0, 0.69) == pytest.approx(69.565217, abs=1e-6)

    def test_zero_rotation_is_absent(self):
        assert stock_mean_time(48.0, 0.0) is None
        assert stock_mean_time(48.0, None) is None

    @given(
        period=st.floats(min_value=1.0, max_value=1000.0),
        profit=st.floats(min_value=0.1, max_value=1e6),
        stock=st.floats(min_value=0.1, max_value=1e6),
    )
    def test_rotation_times_mean_time_is_the_period(self, period, profit, stock):
        rotation = stock_rotation(profit, stock)
        mean_time = stock_mean_time(period, rotation)
        assert rotation * mean_time == pytest.approx(period, rel=1e-9)

    def test_reference_pairs_are_consistent_with_a_48_hour_period(self):
        for rotation, mean_time in REFERENCE_PAIRS:
            assert 47.4 <= rotation * mean_time <= 48.0


class TestSalesProfitability:
    def test_thirteen_percent(self):
        assert sales_profitability(100.0, 87.0) == pytest.approx(0.13)

    def test_no_costs_upper_bound(self):
        assert sales_profitability(100.0, 0.0) == 1.0

    def test_break_even(self):
        assert sales_profitability(100.0, 100.0) == 0.0

    def test_zero_profit_absent(self):
        assert sales_profitability(0.0, 10.0) is None

    @given(
        profit=st.floats(min_value=0.1, max_value=1e6),
        cost_share=st.floats(min_value=0.0, max_value=2.0),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_invariant_under_currency_rescaling(self, profit, cost_share, scale):
        costs = profit * cost_share
        base = sales_profitability(profit, costs)
        rescaled = sales_profitability(profit * scale, costs * scale)
        assert rescaled == pytest.approx(base, abs=1e-12)


class TestCensus:
    def test_counts(self):
        ledger = Ledger()
        for _ in range(3):
            _delivered_order(ledger, "firm", 0.0, 1.0)
        ledger.place("client", "firm", product(1), 1.0, at=0.0)
        o = ledger.place("client", "firm", product(1), 1.0, at=0.0)
        ledger.transition(o.order_id, OrderStatus.IN_TRANSIT, at=1.0)
        census = ledger.census()
        assert census == {
            "Open": 1,
            "InProduction": 0,
            "FGI": 0,
            "InTransit": 1,
            "Delivered": 3,
            "ReturnRequested": 0,
            "Resolved": 0,
        }

    def test_empty(self):
        assert sum(Ledger().census().values()) == 0

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=40))
    def test_census_sums_to_ledger_length(self, walks):
        ledger = Ledger()
        chain = [
            OrderStatus.IN_PRODUCTION,
            OrderStatus.FGI,
            OrderStatus.IN_TRANSIT,
            OrderStatus.DELIVERED,
        ]
        for steps in walks:
            o = ledger.place("c", "p", product(1), 1.0, at=0.0)
            for status in chain[:steps]:
                ledger.transition(o.order_id, status, at=1.0)
        assert sum(ledger.census().values()) == len(ledger.orders)


class TestCostLedger:
    def test_totals_by_actor_and_category(self):
        costs = CostLedger()
        costs.add(1.0, "firm", "production", 10.0)
        costs.add(2.0, "firm", "sales-revenue", 100.0)
        costs.add(3.0, "retailer", "holding", 5.0)
        actors = _fold(Ledger(), costs)[0].actors
        firm = actors["firm"]
        assert firm.sales_profit + sum(firm.costs.values()) == 110.0
        assert firm.costs["production"] == 10.0
        assert actors["retailer"].costs["holding"] == 5.0

    def test_zero_amounts_leave_no_entry(self):
        costs = CostLedger()
        costs.add(1.0, "firm", "technology", 0.0)
        assert costs.entries == []

    def test_negative_revenue_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().add(1.0, "firm", "sales-revenue", -1.0)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().add(1.0, "firm", "bribes", 1.0)


def _report(mode: str, topo: str = "t0", **actor_overrides) -> KpiReport:
    actors = {"firm": ActorKpis(), "retailer": ActorKpis()}
    for name, kpis in actor_overrides.items():
        actors[name] = kpis
    return KpiReport(
        scenario_digest="s-" + mode,
        topology_digest=topo,
        seed=7,
        mode=mode,
        period_hours=48.0,
        census={"Open": 0},
        total_orders=0,
        actors=actors,
        produced_boxes={},
        delivered_to_customers={},
    )


class TestCompareRuns:
    def test_identical_reports_have_zero_deltas(self):
        kpis = ActorKpis(delivered_count=5, mean_delivery_time=5.0, spi=0.12)
        report = compare_runs(
            _report("scor", firm=kpis), _report("vcor", firm=kpis)
        )
        rows = report["actors"]["firm"]
        assert rows["mean_delivery_time"]["delta"] == 0.0
        assert rows["delivered_count"]["delta"] == 0

    def test_topology_mismatch_is_an_error(self):
        with pytest.raises(ComparisonError):
            compare_runs(_report("scor", topo="a"), _report("vcor", topo="b"))

    def test_sri_improvement_ratio_and_flag(self):
        scor = _report("scor", firm=ActorKpis(sri={"finished-goods": 12.34}))
        vcor = _report("vcor", firm=ActorKpis(sri={"finished-goods": 22.4}))
        report = compare_runs(scor, vcor)
        row = report["actors"]["firm"]["sri[finished-goods]"]
        assert row["ratio"] == pytest.approx(22.4 / 12.34)
        assert report["flags"]["firm_sri[finished-goods]_improved_under_vcor"]

    def test_absent_values_stay_absent_without_crashing(self):
        scor = _report("scor", firm=ActorKpis(mean_delivery_time=None))
        vcor = _report("vcor", firm=ActorKpis(mean_delivery_time=4.0))
        row = compare_runs(scor, vcor)["actors"]["firm"]["mean_delivery_time"]
        assert row["scor"] is None and row["vcor"] == 4.0
        assert row["delta"] is None

    def test_round_trip_report_dict(self):
        report = _report("scor", firm=ActorKpis(delivered_count=3, spi=0.5))
        clone = KpiReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()


# -- the fold against the per-actor scans it replaced -------------------------
#
# The oracle is the per-actor code build_report used before it folded the run
# in one pass: one scan of the orders and two of the cost entries per actor.


def _oracle_delivery(ledger, provider):
    series = [
        (o.order_id, o.delivered_at - o.created_at)
        for o in ledger.orders.values()
        if o.provider == provider and o.delivered_at is not None
    ]
    series.sort(key=lambda pair: pair[0])
    if not series:
        return [], None, None
    values = [hours for _, hours in series]
    return series, sum(values) / len(values), max(values)


def _oracle_total(costs, actor, category):
    return sum(e.amount for e in costs.entries if e.actor == actor and e.category == category)


def _oracle_by_category(costs, actor):
    out = {c: 0.0 for c in COST_CATEGORIES}
    for e in costs.entries:
        if e.actor == actor:
            out[e.category] += e.amount
    return out


# the scenario's actors, customers among them, and a party outside it
PARTIES = st.sampled_from(["supplier1", "firm", "retailer", "customer1", "customer2", "outsider"])
WALK = [OrderStatus.IN_PRODUCTION, OrderStatus.FGI, OrderStatus.IN_TRANSIT, OrderStatus.DELIVERED]
ORDERS = st.lists(
    st.tuples(
        PARTIES,  # client
        PARTIES,  # provider
        st.integers(min_value=1, max_value=3),  # product id
        st.floats(min_value=0.5, max_value=100.0),  # quantity
        st.floats(min_value=0.0, max_value=100.0),  # created at
        st.integers(min_value=0, max_value=len(WALK)),  # steps walked
        st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4, max_size=4),  # step hours
    ),
    max_size=40,
)
COSTS = st.lists(
    st.tuples(PARTIES, st.sampled_from(COST_CATEGORIES), st.floats(min_value=-1e3, max_value=1e3)),
    max_size=60,
)


@given(orders=ORDERS, entries=COSTS)
def test_the_fold_matches_the_per_actor_scans(orders, entries):
    ledger = Ledger()
    for client, provider, pid, quantity, created, walked, step_hours in orders:
        order = ledger.place(client, provider, product(pid), quantity, at=created)
        at = created
        for status, hours in zip(WALK[:walked], step_hours):
            at += hours
            ledger.transition(order.order_id, status, at=at)
    costs = CostLedger()
    for time, (actor, category, amount) in enumerate(entries):
        if category == "sales-revenue":
            amount = abs(amount)  # revenue is never negative
        costs.add(float(time), actor, category, amount)

    report, delivery_series = _fold(ledger, costs)

    assert set(report.actors) == set(SCENARIO.actor_names())
    for name, kpis in report.actors.items():
        series, mean, longest = _oracle_delivery(ledger, name)
        assert kpis.delivered_count == len(series)
        assert delivery_series[name] == series
        assert kpis.mean_delivery_time == mean
        assert kpis.max_delivery_time == longest
        assert kpis.sales_profit == _oracle_total(costs, name, "sales-revenue")
        assert kpis.costs == {
            cat: amount
            for cat, amount in _oracle_by_category(costs, name).items()
            if cat != "sales-revenue" and amount != 0.0
        }
    census = Counter(replay_final_statuses(ledger.transitions).values())
    assert report.census == {status.value: census[status.value] for status in OrderStatus}
    assert report.total_orders == len(ledger.orders)
    customers = {c.name for c in SCENARIO.customers}
    delivered: dict[str, float] = {}
    for o in ledger.orders.values():
        if o.delivered_at is not None and o.client in customers:
            delivered[o.item.code] = delivered.get(o.item.code, 0.0) + o.quantity
    assert report.delivered_to_customers == delivered


BOOKINGS = st.lists(
    st.tuples(
        PARTIES,
        st.sampled_from(COST_CATEGORIES),
        st.one_of(
            st.sampled_from([0, 0.0, -0.0]),  # zero amounts book nothing
            st.floats(min_value=-1e3, max_value=1e3),
        ),
    ),
    max_size=60,
)


@given(bookings=BOOKINGS)
def test_the_totals_are_a_left_fold_of_the_entries(bookings):
    costs = CostLedger()
    for time, (actor, category, amount) in enumerate(bookings):
        if category == "sales-revenue":
            amount = abs(amount)  # revenue is never negative; abs keeps an int 0 an int
        costs.add(float(time), actor, category, amount)

    folded: dict[str, dict[str, float]] = {}
    for entry in costs.entries:
        totals = folded.setdefault(
            entry.actor, {**dict.fromkeys(COST_CATEGORIES, 0.0), "sales-revenue": 0}
        )
        totals[entry.category] = totals[entry.category] + entry.amount

    assert all(entry.amount != 0 for entry in costs.entries)
    assert costs.totals == folded
    # == takes 0 for 0.0 and -0.0 for 0.0; the written bits tell them apart
    assert repr(costs.totals) == repr(folded)
    report = _fold(Ledger(), costs)[0]
    assert set(report.actors) == set(SCENARIO.actor_names())  # no outsider
    for name, kpis in report.actors.items():
        revenue = folded.get(name, {}).get("sales-revenue", 0)
        assert repr(kpis.sales_profit) == repr(revenue)
