"""Golden micro-scenario: a chain small enough to trace by hand.

One product, one raw, one supplier, fixed 1-hour transport legs, five
customer orders of 10 boxes arriving every 6 hours over a 30-hour horizon.
Every expected value below was computed by hand from the pinned process
rules BEFORE the simulator existed; the engine must reproduce the schedule,
the delivery-time series, and the final inventories exactly.

Hand trace summary (t in hours):

  t=3   retailer Deliver: nothing to ship
  t=5   retailer Source: 25 on hand >= s=10, no reorder
  t=6   order O1 (10 boxes) -> reserve 10 of 25 -> ship at t=6 -> arrives t=7
  t=12  order O2 -> reserve 10 of 15 -> ship t=12 -> arrives t=13
  t=15  retailer Source: 5 < s=10 -> O3 to firm for 50-5=45 boxes;
        firm reserves all 40 FGI, backlogs 5 to Make (O3 stays Open)
  t=18  order O4 -> only 5 on hand, partial reservation, O4 stays Open
  t=18  firm Make: capacity 2 boxes/h * 6 h = 12 >= 5; produces the 5-box
        backlog, consumes 5 kg of raw (20 -> 15); O3 -> InProduction -> FGI
  t=20  retailer Source: 0 on hand but O3 outstanding -> suppressed
  t=20  firm Deliver ships O3 -> arrives t=21; retailer +45 -> tops up O4
  t=24  order O5 -> reserve 10; retailer Deliver ships O4 and O5 -> t=25
  t=30  order O6 -> reserved and shipped at t=30, arrival t=31 is past the
        horizon, so O6 ends the run InTransit

  Delivery times: retailer O1=1, O2=1, O4=7, O5=1 (mean 2.5); firm O3=6.
  Final stock: retailer 20 boxes, firm 0 boxes FGI, firm 15 kg raw,
  supplier 100 kg; customer1 received 40 boxes (O6 undelivered).
  No supplier or upstream order ever fires.
"""

import pytest

from vcsim.ledger import OrderStatus
from vcsim.satisfaction import SatisfactionParams
from vcsim.scenario import (
    CustomerSpec,
    DemandTable,
    FirmSpec,
    LeadTime,
    MarketConfig,
    InnovationConfig,
    ReorderPolicy,
    RetailerSpec,
    Scenario,
    SellConfig,
    SupplierSpec,
    SupportConfig,
    UpstreamSpec,
    VCOR_PROCESSES,
)
from vcsim.simulation import run_scenario


def micro_scenario() -> Scenario:
    return Scenario(
        name="golden-micro",
        seed=1,
        horizon_hours=30.0,
        mode="scor",
        processes={p: False for p in VCOR_PROCESSES},
        products=(1,),
        raws=(1,),
        bom={1: {1: 1.0}},
        suppliers=[
            SupplierSpec(
                name="supplier1",
                raws=(1,),
                stock_kg={1: 100.0},
                reorder={1: ReorderPolicy(10.0, 100.0)},
                deliver_every=4.0,
                source_every=8.0,
                lead_time=LeadTime(hours=1.0),
            )
        ],
        raw_sources={1: "supplier1"},
        firm=FirmSpec(
            name="firm",
            fgi={1: 40.0},
            raw_stock_kg={1: 20.0},
            raw_reorder={1: ReorderPolicy(10.0, 30.0)},
            production_mode={1: "make-to-stock"},
            capacity_boxes_per_day=48.0,  # 2 boxes per hour
            deliver_every=4.0,
            source_every=6.0,
            make_every=6.0,
            lead_time=LeadTime(hours=1.0),
        ),
        retailer=RetailerSpec(
            name="retailer",
            stock={1: 25.0},
            reorder={1: ReorderPolicy(10.0, 50.0)},
            deliver_every=3.0,
            source_every=5.0,
            lead_time=LeadTime(hours=1.0),
        ),
        customers=[CustomerSpec(name="customer1", lot_size=10.0)],
        upstream=UpstreamSpec(deliver_every=4.0, lead_time=LeadTime(hours=2.0)),
        # 1200 boxes/month at lot 10 -> one 10-box order every 6 hours
        demand=DemandTable(rows={("customer1", 1): (1200.0,) * 12}),
        prices={
            "retailer": {"P1": 10.0},
            "firm": {"P1": 8.0},
            "supplier1": {"R1": 2.0},
            "upstream": {"R1": 1.5},
        },
        holding_costs={},
        production_cost_per_box=0.5,
        support_cost_per_ticket=5.0,
        satisfaction=SatisfactionParams(),
        support=SupportConfig(defect_probability={}),
        market=MarketConfig(),
        innovation=InnovationConfig(),
        sell=SellConfig(),
    )


@pytest.fixture(scope="module")
def artifacts():
    return run_scenario(micro_scenario())


def _times(trace, kind, target=None):
    return [
        e.fire_time
        for e in trace
        if e.kind == kind and (target is None or e.target == target)
    ]


class TestEventSchedule:
    def test_customer_orders_every_six_hours(self, artifacts):
        assert _times(artifacts.trace, "customer-order") == [6.0, 12.0, 18.0, 24.0, 30.0]

    def test_arrival_schedule(self, artifacts):
        arrivals = [
            (e.fire_time, e.target)
            for e in artifacts.trace
            if e.kind == "order-arrival"
        ]
        assert arrivals == [
            (7.0, "customer1"),
            (13.0, "customer1"),
            (21.0, "retailer"),
            (25.0, "customer1"),
            (25.0, "customer1"),
        ]

    def test_periodic_activation_grids(self, artifacts):
        trace = artifacts.trace
        assert _times(trace, "activate-deliver", "retailer") == [
            3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0,
        ]
        assert _times(trace, "activate-source", "retailer") == [
            5.0, 10.0, 15.0, 20.0, 25.0, 30.0,
        ]
        assert _times(trace, "activate-deliver", "firm") == [
            4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0,
        ]
        assert _times(trace, "activate-source", "firm") == [6.0, 12.0, 18.0, 24.0, 30.0]
        assert _times(trace, "activate-make", "firm") == [6.0, 12.0, 18.0, 24.0, 30.0]
        assert _times(trace, "activate-deliver", "supplier1") == [
            4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0,
        ]
        assert _times(trace, "activate-source", "supplier1") == [8.0, 16.0, 24.0]
        assert _times(trace, "activate-deliver", "upstream") == [
            4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0,
        ]

    def test_total_event_count(self, artifacts):
        # 50 periodic activations + 5 customer orders + 5 processed arrivals
        assert len(artifacts.trace) == 60

    def test_no_vcor_events(self, artifacts):
        kinds = {e.kind for e in artifacts.trace}
        assert not kinds & {"activate-market", "activate-sell", "contract-order",
                            "innovation-complete", "support-intake"}


def history(ledger, order_id):
    """One order's (status, at) entries, read from the ledger's transition log."""
    return [(status, at) for i, status, at in ledger.transitions if i == order_id]


class TestLedgerOutcome:
    def test_order_census(self, artifacts):
        census = artifacts.ledger.census()
        assert census["Delivered"] == 5
        assert census["InTransit"] == 1
        assert sum(census.values()) == 6

    def test_replenishment_lifecycle(self, artifacts):
        # O3: placed t=15, production starts t=18, completes t=18,
        # ships t=20, arrives t=21
        order = artifacts.ledger.orders[3]
        assert order.provider == "firm"
        assert order.quantity == 45.0
        assert history(artifacts.ledger, 3) == [
            ("Open", 15.0),
            ("InProduction", 18.0),
            ("FGI", 18.0),
            ("InTransit", 20.0),
            ("Delivered", 21.0),
        ]

    def test_partially_stocked_customer_order_waits_for_replenishment(self, artifacts):
        # O4: placed t=18 with only 5 boxes on hand; fully reserved when the
        # replenishment arrives at t=21; shipped at the t=24 activation
        assert history(artifacts.ledger, 4) == [
            ("Open", 18.0),
            ("FGI", 21.0),
            ("InTransit", 24.0),
            ("Delivered", 25.0),
        ]

    def test_last_order_ends_in_transit(self, artifacts):
        order = artifacts.ledger.orders[6]
        assert order.status is OrderStatus.IN_TRANSIT
        assert history(artifacts.ledger, 6) == [
            ("Open", 30.0),
            ("FGI", 30.0),
            ("InTransit", 30.0),
        ]

    def test_no_upstream_or_supplier_orders(self, artifacts):
        providers = {o.provider for o in artifacts.ledger.orders.values()}
        assert providers == {"retailer", "firm"}


class TestDeliveryTimes:
    def test_retailer_series_and_mean(self, artifacts):
        retailer = artifacts.report.actors["retailer"]
        assert artifacts.delivery_series["retailer"] == [(1, 1.0), (2, 1.0), (4, 7.0), (5, 1.0)]
        assert retailer.mean_delivery_time == 2.5
        assert retailer.max_delivery_time == 7.0

    def test_firm_series(self, artifacts):
        firm = artifacts.report.actors["firm"]
        assert artifacts.delivery_series["firm"] == [(3, 6.0)]
        assert firm.mean_delivery_time == 6.0

    def test_suppliers_have_no_deliveries(self, artifacts):
        assert artifacts.report.actors["supplier1"].mean_delivery_time is None


class TestFinalState:
    def test_final_inventories(self, artifacts):
        assert artifacts.stock("retailer", "P1") == 20.0
        assert artifacts.stock("firm", "P1") == 0.0
        assert artifacts.stock("firm", "R1") == 15.0
        assert artifacts.stock("supplier1", "R1") == 100.0
        # four of the five lots arrived; O6 is still on the road at t=30
        assert artifacts.stock("customer1", "P1") == 40.0

    def test_production_and_raw_conservation(self, artifacts):
        assert artifacts.report.produced_boxes == {"P1": 5.0}
        # raw consumed = recipe (1 kg/box) * produced = 20 - 15
        assert artifacts.stock("firm", "R1") == 20.0 - 5.0

    def test_costs(self, artifacts):
        actors = artifacts.report.actors
        assert actors["retailer"].sales_profit == 400.0  # 4 delivered lots * 10 * 10
        assert actors["retailer"].costs["purchase"] == 360.0  # 45 boxes * 8
        assert actors["firm"].sales_profit == 360.0
        assert actors["firm"].costs["production"] == 2.5  # 5 boxes * 0.5
        assert actors["supplier1"].sales_profit == 0
        assert actors["supplier1"].costs == {}

    def test_material_conservation_bound(self, artifacts):
        delivered = sum(artifacts.report.delivered_to_customers.values())
        produced = sum(artifacts.report.produced_boxes.values())
        assert delivered == 40.0
        assert delivered <= 25.0 + 40.0 + produced  # initial stock + production
