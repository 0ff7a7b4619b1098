"""Chain process logic, one operation at a time."""

from dataclasses import replace

import pytest

from vcsim.actors import admit_prospects, renewal_target
from vcsim.ledger import OrderStatus, OrderValidationError, product, raw
from vcsim.satisfaction import VoteState
from vcsim.scenario import (
    CustomerSpec,
    DemandTable,
    ProspectSpec,
    ReorderPolicy,
    case_study_scenario,
)
from vcsim.simulation import run_scenario

from conftest import build_chain, build_scenario


class TestSourceReorderCheck:
    def test_empty_shelf_orders_up_to_level(self, chain_builder):
        chain = chain_builder(
            retailer_stock={1: 0.0, 2: 0.0},
            retailer_policies={1: ReorderPolicy(100.0, 500.0), 2: ReorderPolicy(100.0, 500.0)},
        )
        placed = chain.check_reorders("retailer", now=2.5)
        assert [(o.item.code, o.quantity) for o in placed] == [("P1", 500.0), ("P2", 500.0)]
        assert all(o.provider == "firm" for o in placed)

    def test_stock_exactly_at_reorder_point_does_not_order(self, chain_builder):
        chain = chain_builder(
            retailer_stock={1: 100.0, 2: 500.0},
            retailer_policies={1: ReorderPolicy(100.0, 500.0), 2: ReorderPolicy(100.0, 500.0)},
        )
        assert chain.check_reorders("retailer", now=2.5) == []

    def test_outstanding_order_suppresses_duplicates(self, chain_builder):
        chain = chain_builder(
            retailer_stock={1: 0.0, 2: 200.0},
            fgi={1: 0.0, 2: 0.0},  # firm cannot serve, order stays outstanding
        )
        first = chain.check_reorders("retailer", now=2.5)
        assert len(first) == 1
        assert chain.check_reorders("retailer", now=5.0) == []
        # still suppressed while in transit
        order = first[0]
        order.reserved = order.quantity
        chain.ledger.transition(order.order_id, OrderStatus.FGI, 6.0)
        chain.ledger.transition(order.order_id, OrderStatus.IN_TRANSIT, 6.0)
        assert chain.check_reorders("retailer", now=7.5) == []
        # delivery lifts the suppression once demand drains the shelf again
        chain.ledger.transition(order.order_id, OrderStatus.DELIVERED, 8.0)
        chain.record_of("retailer", product(1)).adjust(order.quantity, 8.0)
        chain.record_of("retailer", product(1)).adjust(-450.0, 9.0)
        assert len(chain.check_reorders("retailer", now=10.0)) == 1


class TestFirmReceiveOrder:
    def test_stocked_order_is_reserved_and_waits_for_deliver(self, chain_builder):
        chain = chain_builder(fgi={1: 500.0, 2: 500.0})
        order = chain.place_order("retailer", "firm", product(1), 200.0, now=1.0)
        assert order.status is OrderStatus.FGI
        assert order.reserved == 200.0
        assert chain.record_of("firm", product(1)).on_hand == 300.0
        shipped = chain.ship_orders("firm", now=2.5)
        assert shipped == [order]
        assert order.status is OrderStatus.IN_TRANSIT

    def test_short_stock_reserves_partially_and_backlogs_remainder(self, chain_builder):
        chain = chain_builder(fgi={1: 500.0, 2: 300.0})
        order = chain.place_order("retailer", "firm", product(2), 400.0, now=1.0)
        assert order.status is OrderStatus.OPEN
        assert order.reserved == 300.0
        assert chain.record_of("firm", product(2)).on_hand == 0.0
        queued = [(o.item.id, o.quantity - o.reserved) for o in chain.production_queue]
        assert queued == [(2, 100.0)]

    def test_make_to_order_bypasses_stock(self, chain_builder):
        chain = chain_builder(fgi={1: 500.0, 2: 500.0}, production_mode={1: "make-to-order"})
        order = chain.place_order("retailer", "firm", product(1), 50.0, now=1.0)
        assert order.status is OrderStatus.OPEN
        assert order.reserved == 0.0
        assert chain.record_of("firm", product(1)).on_hand == 500.0
        queued = [(o.item.id, o.quantity - o.reserved) for o in chain.production_queue]
        assert queued == [(1, 50.0)]

    def test_raw_order_to_firm_is_rejected(self, chain_builder):
        chain = chain_builder()
        with pytest.raises(OrderValidationError):
            chain.place_order("retailer", "firm", raw(1), 10.0, now=0.0)


class TestBuildProduct:
    def test_capacity_prorating_with_fractional_carry(self, chain_builder):
        # 185/day * 3 h = 23.125 -> 23 whole boxes, 0.125 carried
        chain = chain_builder(fgi={1: 0.0, 2: 0.0}, firm_raw_stock={1: 1000.0, 2: 1000.0})
        order = chain.place_order("retailer", "firm", product(1), 200.0, now=0.0)
        produced = chain.run_production(now=3.0)
        assert produced == 23.0
        assert chain.capacity_carry == pytest.approx(0.125)
        assert order.status is OrderStatus.IN_PRODUCTION
        assert order.reserved == 23.0
        assert chain.record_of("firm", raw(1)).on_hand == 1000.0 - 23.0

    def test_fraction_carried_over_a_day_of_activations(self, chain_builder):
        # each 3 h activation earns 185/8 = 23.125 boxes: the carry grows by
        # 0.125 per activation and makes a 24th box in the eighth
        chain = chain_builder(fgi={1: 0.0, 2: 0.0}, firm_raw_stock={1: 1000.0, 2: 1000.0})
        order = chain.place_order("retailer", "firm", product(1), 500.0, now=0.0)
        produced = [chain.run_production(now=3.0 * k) for k in range(1, 9)]
        assert produced == [23.0] * 7 + [24.0]
        assert chain.capacity_carry == 0.0
        assert order.reserved == 185.0

    def test_unused_capacity_is_not_carried(self, chain_builder):
        # 10 boxes of 23.125: the 13 whole boxes left idle are lost and only
        # the 0.125 is carried, so the next activation makes 23, not 36
        chain = chain_builder(fgi={1: 0.0, 2: 0.0}, firm_raw_stock={1: 1000.0, 2: 1000.0})
        chain.place_order("retailer", "firm", product(1), 10.0, now=0.0)
        assert chain.run_production(now=3.0) == 10.0
        assert chain.capacity_carry == 0.125
        chain.place_order("retailer", "firm", product(1), 100.0, now=3.0)
        assert chain.run_production(now=6.0) == 23.0

    def test_fractional_finish_carries_what_the_line_left(self, chain_builder):
        # a 10.25-box order finishes whole, the next takes 12 of the 12.75
        # left: 0.875 of the 23.125 is carried, and 0.875 + 23.125 makes 24
        chain = chain_builder(fgi={1: 0.0, 2: 0.0}, firm_raw_stock={1: 1000.0, 2: 1000.0})
        first = chain.place_order("retailer", "firm", product(1), 10.25, now=0.0)
        second = chain.place_order("retailer", "firm", product(2), 100.0, now=0.0)
        assert chain.run_production(now=3.0) == 22.25
        assert (first.reserved, second.reserved) == (10.25, 12.0)
        assert chain.capacity_carry == 0.875
        assert chain.run_production(now=6.0) == 24.0
        assert second.reserved == 36.0

    def test_no_queue_produces_nothing_and_consumes_no_raws(self, chain_builder):
        chain = chain_builder(firm_raw_stock={1: 700.0, 2: 700.0})
        assert chain.run_production(now=3.0) == 0.0
        assert chain.record_of("firm", raw(1)).on_hand == 700.0
        assert chain.produced_boxes == {}

    def test_raw_shortage_produces_what_it_can_and_reorders(self, chain_builder):
        chain = chain_builder(fgi={1: 0.0, 2: 0.0}, firm_raw_stock={1: 10.0, 2: 0.0})
        order = chain.place_order("retailer", "firm", product(1), 50.0, now=0.0)
        produced = chain.run_production(now=3.0)
        assert produced == 10.0
        assert order.reserved == 10.0
        assert chain.record_of("firm", raw(1)).on_hand == 0.0
        # the line starved, so a raw replenishment went out immediately
        raw_orders = [o for o in chain.ledger.orders.values() if o.client == "firm"]
        assert {o.item.code for o in raw_orders} == {"R1", "R2"}
        assert all(o.provider == "supplier1" for o in raw_orders)

    def test_completed_backlog_flips_order_to_reserved(self, chain_builder):
        chain = chain_builder(fgi={1: 0.0, 2: 0.0})
        order = chain.place_order("retailer", "firm", product(1), 20.0, now=0.0)
        chain.run_production(now=3.0)
        assert order.status is OrderStatus.FGI
        assert order.reserved == 20.0
        assert chain.production_queue == []
        assert chain.produced_boxes == {1: 20.0}

    def test_capacity_is_shared_fifo_across_products(self, chain_builder):
        chain = chain_builder(fgi={1: 0.0, 2: 0.0})
        first = chain.place_order("retailer", "firm", product(2), 20.0, now=0.0)
        second = chain.place_order("retailer", "firm", product(1), 20.0, now=0.0)
        chain.run_production(now=3.0)  # 23 boxes of capacity
        assert first.reserved == 20.0
        assert second.reserved == 3.0
        assert second.status is OrderStatus.IN_PRODUCTION


class TestDeliver:
    def test_lead_time_draw_schedules_arrival(self, chain_builder):
        chain = chain_builder(lead_hours=1.5)
        order = chain.place_order("retailer", "firm", product(1), 100.0, now=1.0)
        chain.ship_orders("firm", now=2.5)
        chain.engine.run_until(10.0)
        assert order.status is OrderStatus.DELIVERED
        assert order.delivered_at == 4.0  # 2.5 + 1.5

    def test_nothing_reserved_is_a_noop(self, chain_builder):
        chain = chain_builder()
        assert chain.ship_orders("firm", now=2.5) == []

    def test_forced_defect_opens_ticket_chain(self, scenario_builder):
        scenario = scenario_builder(
            mode="vcor",
            defect_probability={1: 1.0, 2: 1.0},
            demand_rows={("customer1", 1): (720.0,) * 12},
            horizon=12.0,
        )
        artifacts = run_scenario(scenario)
        delivered = [
            o
            for o in artifacts.ledger.orders.values()
            if o.client == "customer1" and o.delivered_at is not None
        ]
        assert delivered, "no customer delivery in the window"
        assert artifacts.ledger.tickets, "defective delivery must open a ticket"
        first = min(artifacts.ledger.tickets.values(), key=lambda t: t.ticket_id)
        original = artifacts.ledger.orders[first.order_id]
        assert original.status in (OrderStatus.RETURN_REQUESTED, OrderStatus.RESOLVED)
        assert 1.0 <= first.defective_qty <= original.quantity

    def test_zero_defect_probability_never_opens_tickets(self, scenario_builder):
        scenario = scenario_builder(mode="vcor", defect_probability={}, horizon=48.0)
        artifacts = run_scenario(scenario)
        assert artifacts.ledger.tickets == {}


class TestSupportLoop:
    def _vcor_support_run(self, horizon=48.0, **kw):
        scenario = build_scenario(
            mode="vcor",
            defect_probability=kw.pop("defect_probability", {1: 1.0, 2: 1.0}),
            **kw,
        )
        return run_scenario(scenario)

    def test_replacement_quantity_equals_defective_quantity(self):
        artifacts = self._vcor_support_run()
        tickets = artifacts.ledger.tickets.values()
        assert tickets
        for ticket in tickets:
            if ticket.replacement_order_id is None:
                continue
            replacement = artifacts.ledger.orders[ticket.replacement_order_id]
            assert replacement.quantity == ticket.defective_qty
            assert replacement.replacement_for == ticket.ticket_id

    def test_replacement_is_held_for_the_handling_time(self):
        artifacts = self._vcor_support_run(handling_hours=2.3)
        held = [
            artifacts.ledger.orders[t.replacement_order_id]
            for t in artifacts.ledger.tickets.values()
            if t.replacement_order_id is not None
        ]
        assert held
        shipped_at = {
            i: at for i, status, at in artifacts.ledger.transitions if status == "InTransit"
        }
        for replacement in held:
            assert replacement.shippable_after == pytest.approx(
                replacement.created_at + 2.3
            )
            if replacement.order_id in shipped_at:
                assert shipped_at[replacement.order_id] >= replacement.created_at + 2.3

    def test_resolution_decays_defect_probability(self):
        artifacts = self._vcor_support_run(education_decay=0.9)
        resolved = [
            t for t in artifacts.ledger.tickets.values() if t.resolved_at is not None
        ]
        assert resolved, "at least one ticket must resolve in 48 h"
        # p_def only ever decreases: 1.0 * 0.9^k
        # (reconstruct the expectation from the resolution count per product)
        per_product = {}
        for t in resolved:
            per_product[t.item.id] = per_product.get(t.item.id, 0) + 1

    def test_recursive_replacement_chains_are_permitted(self):
        artifacts = self._vcor_support_run()  # p_def=1: replacements re-fail
        replacements = [
            o
            for o in artifacts.ledger.orders.values()
            if o.replacement_for is not None
        ]
        chained = [
            o
            for o in replacements
            if o.defective_qty > 0 and o.status is OrderStatus.RESOLVED
        ]
        assert chained, "with p_def=1 a replacement itself goes defective"

    def test_two_tickets_two_independent_replacements(self):
        artifacts = self._vcor_support_run()
        with_replacement = [
            t
            for t in artifacts.ledger.tickets.values()
            if t.replacement_order_id is not None
        ]
        assert len(with_replacement) >= 2
        ids = [t.replacement_order_id for t in with_replacement]
        assert len(set(ids)) == len(ids)


def educated(chain_builder, p_def: float, decay: float) -> float:
    """P1's defect probability after one replacement delivery resolves a ticket."""
    chain = chain_builder(mode="vcor", defect_probability={1: p_def}, education_decay=decay)
    order = chain.ledger.place("customer1", "retailer", product(1), 10.0, at=0.0)
    chain.ledger.transition(order.order_id, OrderStatus.IN_TRANSIT, at=1.0)
    chain.ledger.transition(order.order_id, OrderStatus.DELIVERED, at=1.0)
    order.defective_qty = 1.0
    ticket = chain.ledger.open_ticket(order, at=1.0)
    replacement = chain.ledger.place(
        "customer1", "retailer", product(1), 1.0, at=1.0, replacement_for=ticket.ticket_id
    )
    chain._resolve_ticket(replacement, now=2.0)
    return chain.defect_probability[1]


class TestEducateCustomer:
    def test_multiplicative_decay(self, chain_builder):
        assert educated(chain_builder, 0.10, 0.9) == pytest.approx(0.09)

    def test_zero_is_a_fixed_point(self, chain_builder):
        assert educated(chain_builder, 0.0, 0.9) == 0.0

    def test_decay_one_disables_education(self, chain_builder):
        assert educated(chain_builder, 0.2, 1.0) == 0.2


class TestMonitorExperience:
    def test_support_latch_feeds_next_vote_update(self, scenario_builder):
        scenario = scenario_builder(
            mode="vcor",
            defect_probability={1: 1.0, 2: 1.0},
            horizon=48.0,
        )
        artifacts = run_scenario(scenario)
        resolved = [
            t for t in artifacts.ledger.tickets.values() if t.resolved_at is not None
        ]
        assert resolved
        # every vote recorded at a replacement delivery time saw s=1; the
        # update at that instant must exist in the series
        resolution_times = {t.resolved_at for t in resolved}
        series_times = {entry.time for entry in artifacts.satisfaction}
        assert resolution_times <= series_times


def set_every_vote(chain, x: float) -> None:
    for voter in chain.voters.values():
        voter.vote = VoteState(x=x)


class TestAnalyzeMarket:
    def test_low_mean_vote_triggers_project_on_least_sold_product(self, chain_builder):
        chain = chain_builder(mode="vcor")
        chain.voters[("customer1", 1)].vote = VoteState(x=5.8)
        chain.voters[("customer1", 2)].vote = VoteState(x=6.1)
        chain.firm_sales_boxes = {1: 296.0, 2: 150.0}
        target = chain.analyze_market(now=10.0)
        assert target == 2
        assert chain.renewing == 2
        queued = [
            (e.fire_time, e.payload)
            for e in chain.engine._queue
            if e.kind == "innovation-complete"
        ]
        assert queued == [(18.0, {"product": 2})]  # 10 + 8 h acquisition

    def test_vote_at_threshold_does_not_trigger(self, chain_builder):
        chain = chain_builder(mode="vcor", vote_threshold=6.0)
        set_every_vote(chain, 6.0)
        assert chain.analyze_market(now=10.0) is None

    def test_active_project_blocks_new_trigger(self, chain_builder):
        chain = chain_builder(mode="vcor")
        set_every_vote(chain, 1.0)
        assert chain.analyze_market(now=6.0) is not None
        assert chain.analyze_market(now=12.0) is None

    def test_research_toggle_gates_acquisition(self, chain_builder):
        processes = {"support": True, "market": True, "research": False,
                     "develop": True, "sell": True}
        chain = chain_builder(mode="vcor", processes=processes)
        set_every_vote(chain, 1.0)
        assert chain.analyze_market(now=6.0) is None


class TestPeerVote:
    def test_mean_of_the_other_customers_votes_on_that_product(self, chain_builder):
        votes = {("c3", 1): 2.0, ("c1", 1): 4.0, ("c2", 1): 7.0, ("c2", 2): 9.0}
        chain = chain_builder(
            mode="vcor",
            customers=[CustomerSpec(name=name, lot_size=10.0) for name in ("c3", "c1", "c2")],
            demand_rows={key: (720.0,) * 12 for key in votes},
        )
        # the voters follow the customer order; each product's mean follows theirs
        assert list(chain.voters) == list(votes)
        for key, x in votes.items():
            chain.voters[key].vote = VoteState(x=x)
        assert chain._peer_vote(chain.voters[("c1", 1)], 1) == (2.0 + 7.0) / 2
        assert chain._peer_vote(chain.voters[("c2", 2)], 2) == 0.0


class TestRenewalTarget:
    def test_least_sales_wins(self):
        assert renewal_target({1: 296.0, 2: 150.0, 3: 80.0}, set()) == 3

    def test_tie_breaks_to_lowest_id(self):
        assert renewal_target({2: 100.0, 1: 100.0}, set()) == 1

    def test_single_product(self):
        assert renewal_target({7: 10.0}, set()) == 7

    def test_renewed_products_are_excluded(self):
        assert renewal_target({1: 0.0, 2: 5.0}, {1}) == 2
        assert renewal_target({1: 0.0}, {1}) is None


class TestIntroduceTechnologyAndLaunch:
    def test_delayed_application_books_cost(self, chain_builder):
        chain = chain_builder(mode="vcor", innovation_delay=8.0, technology_cost=250.0)
        set_every_vote(chain, 1.0)
        chain.engine.now = 10.0
        target = chain.analyze_market(now=10.0)
        chain.engine.run_until(48.0)
        assert chain.renewed_products == {target}
        entries = [e for e in chain.costs.entries if e.category == "technology"]
        assert [(e.time, e.amount) for e in entries] == [(18.0, 250.0)]

    def test_zero_cost_books_nothing(self, chain_builder):
        chain = chain_builder(mode="vcor", technology_cost=0.0)
        set_every_vote(chain, 1.0)
        chain.analyze_market(now=0.0)
        chain.engine.run_until(48.0)
        assert [e for e in chain.costs.entries if e.category == "technology"] == []

    def test_bom_override_changes_the_recipe(self, chain_builder):
        chain = chain_builder(mode="vcor", bom_override={2: 2.0})
        set_every_vote(chain, 1.0)
        chain.firm_sales_boxes = {1: 0.0, 2: 100.0}
        chain.analyze_market(now=0.0)
        chain.engine.run_until(48.0)
        assert chain.bom[1] == {2: 2.0}

    def test_launch_flags_every_buying_customer(self, chain_builder):
        chain = chain_builder(
            mode="vcor",
            customers=[
                CustomerSpec(name="customer1", lot_size=5.0),
                CustomerSpec(name="customer2", lot_size=5.0),
            ],
            demand_rows={
                ("customer1", 1): (720.0,) * 12,
                ("customer2", 1): (720.0,) * 12,
                ("customer2", 2): (720.0,) * 12,
            },
        )
        chain.apply_innovation(1, now=20.0)
        assert chain.voters[("customer1", 1)].new_product
        assert chain.voters[("customer2", 1)].new_product
        assert not chain.voters[("customer2", 2)].new_product
        assert chain.launches == [(20.0, 1)]

    def test_first_post_launch_delivery_clears_only_that_customer(self, chain_builder):
        chain = chain_builder(
            mode="vcor",
            customers=[
                CustomerSpec(name="customer1", lot_size=5.0),
                CustomerSpec(name="customer2", lot_size=5.0),
            ],
            demand_rows={
                ("customer1", 1): (720.0,) * 12,
                ("customer2", 1): (720.0,) * 12,
            },
        )
        chain.apply_innovation(1, now=5.0)
        order = chain.place_order("customer1", "retailer", product(1), 5.0, now=6.0)
        chain.ship_orders("retailer", now=6.0)
        chain.engine.run_until(10.0)
        assert order.status is OrderStatus.DELIVERED
        assert not chain.voters[("customer1", 1)].new_product
        assert chain.voters[("customer2", 1)].new_product  # no delivery there yet

    def test_launch_without_deliveries_keeps_flags_raised(self, chain_builder):
        chain = chain_builder(mode="vcor")
        chain.apply_innovation(1, now=40.0)
        chain.engine.run_until(48.0)
        assert chain.voters[("customer1", 1)].new_product

    def test_develop_toggle_gates_the_launch(self, chain_builder):
        processes = {"support": True, "market": True, "research": True,
                     "develop": False, "sell": True}
        chain = chain_builder(mode="vcor", processes=processes)
        chain.apply_innovation(1, now=5.0)
        assert not chain.voters[("customer1", 1)].new_product
        assert chain.launches == []


class TestQualifyTargets:
    def test_cap_admits_within_committed_rate(self):
        prospects = (
            ProspectSpec("prospect1", 1, 1, 46.0),
            ProspectSpec("prospect2", 2, 2, 60.0),
        )
        admitted = admit_prospects(prospects, set(), 0.0, 0.5 * 185.0)
        assert [p.name for p in admitted] == ["prospect1"]  # 46+60 > 92.5

    def test_empty_pool(self):
        assert admit_prospects((), set(), 0.0, 92.5) == []

    def test_oversized_first_prospect_is_skipped_not_blocking(self):
        prospects = (
            ProspectSpec("whale", 1, 1, 100.0),
            ProspectSpec("minnow", 2, 1, 46.0),
        )
        admitted = admit_prospects(prospects, set(), 0.0, 92.5)
        assert [p.name for p in admitted] == ["minnow"]

    def test_cap_invariant_over_any_pool(self):
        prospects = tuple(
            ProspectSpec(f"p{i}", i, 1, rate)
            for i, rate in enumerate([40.0, 30.0, 25.0, 10.0, 5.0], start=1)
        )
        cap = 92.5
        admitted = admit_prospects(prospects, set(), 0.0, cap)
        assert sum(p.boxes_per_day for p in admitted) <= cap


class TestFinalizeContracts:
    def test_recurring_orders_meet_the_daily_rate_exactly(self, chain_builder):
        chain = chain_builder(
            mode="vcor",
            prospects=(ProspectSpec("prospect1", 1, 1, 46.0),),
            contract_interval=6.0,
            horizon=24.0 + 12.0,  # admission at 12 h + one full day of orders
            fgi={1: 5000.0, 2: 5000.0},
        )
        chain.register()
        chain.engine.run_until(36.0)
        contract_orders = [
            o for o in chain.ledger.orders.values() if o.client == "prospect1"
        ]
        # admitted at the 12 h sell activation; orders at 18, 24, 30, 36
        assert [o.created_at for o in contract_orders] == [18.0, 24.0, 30.0, 36.0]
        assert [o.quantity for o in contract_orders] == [11.0, 12.0, 11.0, 12.0]
        assert sum(o.quantity for o in contract_orders) == 46.0

    def test_no_prospects_no_demand(self, chain_builder):
        chain = chain_builder(mode="vcor", prospects=())
        chain.register()
        chain.engine.run_until(48.0)
        assert all(
            o.client in ("customer1", "retailer", "firm", "supplier1")
            for o in chain.ledger.orders.values()
        )


class TestCustomerDemand:
    def test_deterministic_spacing_matches_monthly_intensity(self, chain_builder):
        # 250 boxes/month at lot 2 -> an order every 5.76 h
        chain = chain_builder(
            demand_rows={("customer1", 1): (250.0,) * 12},
            customers=[CustomerSpec(name="customer1", lot_size=2.0)],
        )
        chain.register()
        chain.engine.run_until(48.0)
        times = [
            e.fire_time for e in chain.engine.trace if e.kind == "customer-order"
        ]
        assert times == pytest.approx([5.76 * k for k in range(1, 9)])
        boxes = sum(
            o.quantity
            for o in chain.ledger.orders.values()
            if o.client == "customer1"
        )
        assert boxes == 16.0  # ~= 250 * 48/720 = 16.67 expected intensity

    def test_zero_demand_product_never_orders(self, chain_builder):
        chain = chain_builder(
            demand_rows={
                ("customer1", 1): (720.0,) * 12,
                ("customer1", 2): (0.0,) * 12,
            }
        )
        chain.register()
        chain.engine.run_until(48.0)
        items = {
            o.item.code
            for o in chain.ledger.orders.values()
            if o.client == "customer1"
        }
        assert "P2" not in items

    def test_zero_month_waits_for_the_next_months_boundary(self):
        # no demand in month 0: the first order comes one lot into month 1,
        # 720 + 720 * 2 / 300 = 724.8 h
        case = case_study_scenario("scor", horizon_hours=800.0)
        scenario = _with_demand_row(case, ("customer1", 1), (0.0,) + (300.0,) * 11)
        assert _order_times(scenario, "customer1", 1)[:2] == pytest.approx([724.8, 729.6])

    def test_zero_months_up_to_the_horizon_schedule_no_order(self):
        case = case_study_scenario("scor", horizon_hours=700.0)
        scenario = _with_demand_row(case, ("customer1", 1), (0.0,) + (300.0,) * 11)
        assert _order_times(scenario, "customer1", 1) == []
        assert _order_times(scenario, "customer2", 1)  # other rows still order

    def test_memoryless_mode_is_seeded_and_plausible(self):
        def order_count(seed):
            scenario = build_scenario(
                seed=seed,
                horizon=720.0,
                demand_rows={("customer1", 1): (720.0,) * 12},
                customers=[
                    CustomerSpec(name="customer1", lot_size=10.0, arrivals="memoryless")
                ],
                retailer_stock={1: 10000.0, 2: 10000.0},
            )
            chain = build_chain(scenario)
            chain.register()
            chain.engine.run_until(720.0)
            return sum(
                1 for e in chain.engine.trace if e.kind == "customer-order"
            )

        counts = [order_count(seed) for seed in (1, 2, 3)]
        assert order_count(1) == counts[0]  # reproducible
        # 72 expected arrivals over the month; allow wide stochastic slack
        assert all(40 <= c <= 110 for c in counts)


def _with_demand_row(scenario, key, row):
    return replace(scenario, demand=DemandTable(rows={**scenario.demand.rows, key: row}))


def _order_times(scenario, customer, pid):
    """Fire times of the customer's orders of one product over the run."""
    return [
        e.fire_time
        for e in run_scenario(scenario).trace
        if e.kind == "customer-order" and e.target == customer and e.payload["product"] == pid
    ]


class TestVoteDynamicsInRuns:
    def test_votes_update_once_per_delivered_order(self, scenario_builder):
        scenario = scenario_builder(horizon=24.0)
        artifacts = run_scenario(scenario)
        delivered = [
            o
            for o in artifacts.ledger.orders.values()
            if o.client == "customer1" and o.delivered_at is not None
        ]
        assert len(artifacts.satisfaction) == len(delivered)

    def test_votes_decay_toward_quality_floor_without_innovation(self, scenario_builder):
        scenario = scenario_builder(horizon=48.0, initial_vote=8.0)
        artifacts = run_scenario(scenario)
        series = [
            entry.vote
            for entry in artifacts.satisfaction
            if entry.customer == "customer1" and entry.product == "P1"
        ]
        assert len(series) >= 3
        assert series[0] < 8.0  # first update already decays
        assert series[-1] < series[0]
