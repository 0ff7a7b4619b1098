"""Order ledger: validation, transitions, demand views, inventory, replay."""

import json

import pytest
from hypothesis import given, strategies as st

from conftest import assert_views_match_scan
from vcsim.ledger import (
    LEGAL_TRANSITIONS,
    CorruptionError,
    InventoryRecord,
    Ledger,
    Order,
    OrderStatus,
    OrderValidationError,
    ReservationError,
    TransitionError,
    product,
    raw,
    replay_final_statuses,
)


def make_ledger() -> Ledger:
    return Ledger(
        known_actors={"firm", "retailer", "customer1", "supplier1"},
        known_items={product(1), product(2), raw(1)},
    )


class TestAppendOrder:
    def test_replenishment_lands_in_provider_demand_view(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 500.0, at=2.5)
        open_now = ledger.open_orders("firm")
        assert [o.order_id for o in open_now] == [order.order_id]
        assert open_now[0].created_at == 2.5
        assert open_now[0].status is OrderStatus.OPEN

    def test_zero_quantity_rejected(self):
        with pytest.raises(OrderValidationError):
            make_ledger().place("retailer", "firm", product(1), 0.0, at=0.0)

    def test_ids_strictly_increase(self):
        ledger = make_ledger()
        first = ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        second = ledger.place("retailer", "firm", product(2), 1.0, at=0.0)
        assert second.order_id > first.order_id

    def test_duplicate_id_is_corruption(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        dup = Order(
            order_id=order.order_id,
            client="retailer",
            provider="firm",
            item=product(1),
            quantity=5.0,
            created_at=0.0,
        )
        with pytest.raises(CorruptionError):
            ledger.append_order(dup)

    def test_unknown_item_rejected(self):
        with pytest.raises(OrderValidationError):
            make_ledger().place("retailer", "firm", product(9), 5.0, at=0.0)

    def test_unknown_party_rejected(self):
        with pytest.raises(OrderValidationError):
            make_ledger().place("nobody", "firm", product(1), 5.0, at=0.0)


class TestTransitions:
    def test_legal_edge_recorded(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        ledger.transition(order.order_id, OrderStatus.IN_TRANSIT, at=5.0)
        assert order.status is OrderStatus.IN_TRANSIT
        assert order.shipped_at == 5.0
        assert (order.order_id, "InTransit", 5.0) in ledger.transitions

    def test_backward_edge_rejected(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        for status in (OrderStatus.IN_TRANSIT, OrderStatus.DELIVERED):
            ledger.transition(order.order_id, status, at=1.0)
        with pytest.raises(TransitionError):
            ledger.transition(order.order_id, OrderStatus.OPEN, at=2.0)

    def test_time_must_not_regress(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 5.0, at=3.0)
        with pytest.raises(TransitionError):
            ledger.transition(order.order_id, OrderStatus.FGI, at=2.0)

    def test_unknown_order_rejected(self):
        with pytest.raises(TransitionError):
            make_ledger().transition(99, OrderStatus.FGI, at=0.0)

    def test_canonical_path_and_support_tail(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        path = [
            OrderStatus.IN_PRODUCTION,
            OrderStatus.FGI,
            OrderStatus.IN_TRANSIT,
            OrderStatus.DELIVERED,
            OrderStatus.RETURN_REQUESTED,
            OrderStatus.RESOLVED,
        ]
        for i, status in enumerate(path):
            ledger.transition(order.order_id, status, at=float(i + 1))
        assert order.status is OrderStatus.RESOLVED
        assert order.delivered_at == 4.0


@given(st.data())
def test_replaying_transitions_reproduces_final_statuses(data):
    ledger = Ledger()
    n_orders = data.draw(st.integers(min_value=1, max_value=8))
    forward = [
        OrderStatus.IN_PRODUCTION,
        OrderStatus.FGI,
        OrderStatus.IN_TRANSIT,
        OrderStatus.DELIVERED,
        OrderStatus.RETURN_REQUESTED,
        OrderStatus.RESOLVED,
    ]
    for i in range(n_orders):
        order = ledger.place("a", "b", product(1), 1.0, at=0.0)
        # walk a random prefix of the lifecycle, skipping stations where legal
        steps = data.draw(st.integers(min_value=0, max_value=len(forward)))
        t = 0.0
        for status in forward[:steps]:
            if status in (OrderStatus.IN_PRODUCTION,) and data.draw(st.booleans()):
                continue  # legal skip
            t += 1.0
            ledger.transition(order.order_id, status, at=t)
    final = replay_final_statuses(ledger.transitions)
    for order_id, status in final.items():
        assert ledger.orders[order_id].status.value == status
    assert set(final) == set(ledger.orders)


class TestOpenOrders:
    def test_empty_ledger(self):
        assert make_ledger().open_orders("firm") == []

    def test_filters_status_and_sorts_oldest_first(self):
        ledger = make_ledger()
        older = ledger.place("retailer", "firm", product(1), 1.0, at=1.0)
        newer = ledger.place("retailer", "firm", product(1), 1.0, at=0.5)
        done = ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        for status in (OrderStatus.FGI, OrderStatus.IN_TRANSIT, OrderStatus.DELIVERED):
            ledger.transition(done.order_id, status, at=2.0)
        assert [o.order_id for o in ledger.open_orders("firm")] == [
            newer.order_id,
            older.order_id,
        ]

    def test_filter_by_item(self):
        ledger = make_ledger()
        ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        wanted = ledger.place("retailer", "firm", product(2), 1.0, at=0.0)
        assert [o.order_id for o in ledger.open_orders("firm", product(2))] == [
            wanted.order_id
        ]

    def test_outstanding_replenishment_covers_transit(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        assert ledger.outstanding_replenishment("retailer", product(1))
        ledger.transition(order.order_id, OrderStatus.IN_TRANSIT, at=1.0)
        assert ledger.outstanding_replenishment("retailer", product(1))
        ledger.transition(order.order_id, OrderStatus.DELIVERED, at=2.0)
        assert not ledger.outstanding_replenishment("retailer", product(1))


PROVIDERS = ("firm", "retailer")
ITEMS = (product(1), product(2))
CLIENTS = ("retailer", "customer1")


@given(st.data())
def test_status_buckets_agree_with_scans_after_every_step(data):
    ledger = Ledger()
    for _ in range(data.draw(st.integers(min_value=1, max_value=25))):
        movable = [o for o in ledger.orders.values() if LEGAL_TRANSITIONS[o.status]]
        if not movable or data.draw(st.booleans()):
            # creation times out of id order exercise the oldest-first sort
            ledger.place(
                data.draw(st.sampled_from(CLIENTS)),
                data.draw(st.sampled_from(PROVIDERS)),
                data.draw(st.sampled_from(ITEMS)),
                1.0,
                at=data.draw(st.sampled_from([0.0, 1.0, 2.0])),
            )
        else:
            order = data.draw(st.sampled_from(movable))
            legal = sorted(LEGAL_TRANSITIONS[order.status], key=lambda s: s.value)
            ledger.transition(
                order.order_id,
                data.draw(st.sampled_from(legal)),
                at=order.last_transition_at + data.draw(st.sampled_from([0.0, 1.0])),
            )
        assert_views_match_scan(ledger, PROVIDERS, ITEMS, CLIENTS)
    assert_views_match_scan(
        Ledger.from_lines(ledger.export_lines()), PROVIDERS, ITEMS, CLIENTS
    )


class TestCensus:
    def test_counts_by_status(self):
        ledger = make_ledger()
        for _ in range(3):
            o = ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
            ledger.transition(o.order_id, OrderStatus.IN_TRANSIT, at=1.0)
            ledger.transition(o.order_id, OrderStatus.DELIVERED, at=2.0)
        ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        o = ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        ledger.transition(o.order_id, OrderStatus.IN_TRANSIT, at=1.0)
        census = ledger.census()
        assert census["Delivered"] == 3
        assert census["Open"] == 1
        assert census["InTransit"] == 1
        assert sum(census.values()) == len(ledger.orders) == 5


class TestSupportTickets:
    def test_ticket_records_defective_quantity(self):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 200.0, at=0.0)
        ticket = ledger.open_ticket(order, 20.0, "customer1", at=5.0)
        assert ticket.defective_qty == 20.0
        assert ledger.tickets[ticket.ticket_id].order_id == order.order_id

    def test_defective_more_than_ordered_rejected(self):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 10.0, at=0.0)
        with pytest.raises(OrderValidationError):
            ledger.open_ticket(order, 11.0, "customer1", at=1.0)


class TestExportImport:
    def test_round_trip_preserves_everything(self):
        ledger = make_ledger()
        a = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        b = ledger.place("retailer", "firm", product(2), 7.0, at=1.0)
        ledger.transition(a.order_id, OrderStatus.FGI, at=2.0)
        ledger.transition(a.order_id, OrderStatus.IN_TRANSIT, at=3.0)
        ledger.transition(a.order_id, OrderStatus.DELIVERED, at=4.0)
        ledger.open_ticket(a, 2.0, "customer1", at=4.0)

        clone = Ledger.from_lines(ledger.export_lines())
        assert clone.export_lines() == ledger.export_lines()
        assert clone.orders[a.order_id].status is OrderStatus.DELIVERED
        assert clone.orders[a.order_id].delivered_at == 4.0
        assert clone.orders[b.order_id].status is OrderStatus.OPEN
        assert clone.tickets[1].defective_qty == 2.0

    @pytest.mark.parametrize(
        "bad",
        [
            {"order_id": 1, "status": "Resolved", "at": 2.0},  # Open -> Resolved
            {"order_id": 1, "status": "InTransit", "at": 0.5},  # before its FGI move
            {"order_id": 99, "status": "FGI", "at": 2.0},  # unknown order
        ],
        ids=["illegal-edge", "time-reversed", "unknown-order"],
    )
    def test_replay_enforces_live_transition_rules(self, bad):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        ledger.transition(order.order_id, OrderStatus.FGI, at=1.0)
        lines = ledger.export_lines()
        lines.append(json.dumps({"record": "transition", **bad}))
        with pytest.raises(TransitionError):
            Ledger.from_lines(lines)

    def test_replay_requires_each_order_to_start_open_at_creation(self):
        ledger = make_ledger()
        ledger.place("retailer", "firm", product(1), 5.0, at=3.0)
        order_line, open_line = ledger.export_lines()
        with pytest.raises(CorruptionError):
            Ledger.from_lines([order_line])  # no Open record
        with pytest.raises(CorruptionError):
            Ledger.from_lines([order_line, open_line.replace('"at":3.0', '"at":1.0')])


class TestInventory:
    def test_simple_decrement(self):
        rec = InventoryRecord(owner="firm", item=product(1), on_hand=500.0)
        rec.adjust(-200.0, at=1.0)
        assert rec.on_hand == 300.0

    def test_overdraw_raises_reservation_error(self):
        rec = InventoryRecord(owner="firm", item=product(1), on_hand=100.0)
        with pytest.raises(ReservationError):
            rec.adjust(-150.0, at=1.0)

    def test_time_weighted_mean_of_step_function(self):
        # 500 for 24 h then 300 for 24 h -> 400 over 48 h
        rec = InventoryRecord(owner="firm", item=product(1), on_hand=500.0)
        rec.adjust(-200.0, at=24.0)
        assert rec.time_weighted_mean(48.0) == pytest.approx(400.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.floats(min_value=-20.0, max_value=20.0),
            ),
            max_size=30,
        )
    )
    def test_level_never_negative_and_integral_matches_brute_force(self, moves):
        rec = InventoryRecord(owner="x", item=raw(1), on_hand=50.0)
        t = 0.0
        for dt, delta in moves:
            t += dt
            if rec.on_hand + delta < 0:
                with pytest.raises(ReservationError):
                    rec.adjust(delta, at=t)
            else:
                rec.adjust(delta, at=t)
            assert rec.on_hand >= 0.0
        horizon = t + 10.0
        # brute-force integral over fine steps of the recorded samples
        total = 0.0
        for (t0, level), (t1, _) in zip(rec.samples, rec.samples[1:]):
            total += level * (t1 - t0)
        total += rec.samples[-1][1] * (horizon - rec.samples[-1][0])
        assert rec.level_integral(horizon) == pytest.approx(total)
