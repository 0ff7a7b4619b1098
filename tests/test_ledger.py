"""Order ledger: validation, transitions, demand views, inventory, replay."""

import gc
import json
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import assert_views_match_scan
from vcsim.ledger import (
    LEGAL_TRANSITIONS,
    CorruptionError,
    InventoryRecord,
    Ledger,
    LedgerError,
    Order,
    OrderStatus,
    OrderValidationError,
    ReservationError,
    SupportTicket,
    TransitionError,
    _fields,
    product,
    raw,
    replay_final_statuses,
)
from vcsim.jsonl import LINES
from vcsim.scenario import case_study_scenario
from vcsim.simulation import run_scenario


def make_ledger() -> Ledger:
    return Ledger(
        known_actors={"firm", "retailer", "customer1", "supplier1"},
        known_items={product(1), product(2), raw(1)},
    )


def deliver(ledger: Ledger, order, at: float) -> None:
    ledger.transition(order.order_id, OrderStatus.IN_TRANSIT, at=at)
    ledger.transition(order.order_id, OrderStatus.DELIVERED, at=at)


class TestAppendOrder:
    def test_replenishment_lands_in_provider_demand_view(self):
        ledger = make_ledger()
        order = ledger.place("retailer", "firm", product(1), 500.0, at=2.5)
        open_now = ledger.open_orders("firm", product(1))
        assert [o.order_id for o in open_now] == [order.order_id]
        assert open_now[0].created_at == 2.5
        assert open_now[0].status is OrderStatus.OPEN

    def test_zero_quantity_rejected(self):
        with pytest.raises(OrderValidationError):
            make_ledger().place("retailer", "firm", product(1), 0.0, at=0.0)

    @pytest.mark.parametrize("quantity", [math.nan, math.inf], ids=repr)
    def test_a_quantity_that_is_not_finite_is_rejected(self, quantity):
        # NaN compares false with 0: a `<= 0` check lets it through
        ledger = make_ledger()
        with pytest.raises(OrderValidationError):
            ledger.place("retailer", "firm", product(1), quantity, at=0.0)
        assert not ledger.orders and not ledger.transitions

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
        shipped_at = [
            at for i, status, at in ledger.transitions if (i, status) == (order.order_id, "InTransit")
        ]
        assert shipped_at == [5.0]

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
        assert make_ledger().open_orders("firm", product(1)) == []

    def test_filters_status_and_sorts_oldest_first(self):
        ledger = make_ledger()
        older = ledger.place("retailer", "firm", product(1), 1.0, at=1.0)
        newer = ledger.place("retailer", "firm", product(1), 1.0, at=0.5)
        done = ledger.place("retailer", "firm", product(1), 1.0, at=0.0)
        for status in (OrderStatus.FGI, OrderStatus.IN_TRANSIT, OrderStatus.DELIVERED):
            ledger.transition(done.order_id, status, at=2.0)
        assert [o.order_id for o in ledger.open_orders("firm", product(1))] == [
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
        deliver(ledger, order, at=5.0)
        order.defective_qty = 20.0
        ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=5.0)
        ticket = ledger.open_ticket(order, at=5.0)
        assert (ticket.customer, ticket.item) == ("customer1", product(1))
        assert ticket.defective_qty == 20.0
        assert ledger.tickets[ticket.ticket_id].order_id == order.order_id

    def test_defective_more_than_ordered_rejected(self):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 10.0, at=0.0)
        deliver(ledger, order, at=1.0)
        order.defective_qty = 11.0
        ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=1.0)
        with pytest.raises(OrderValidationError):
            ledger.open_ticket(order, at=1.0)

    @pytest.mark.parametrize(
        "delivered,at",
        [(False, 5.0), (True, 1.0), (True, math.nan), (True, math.inf)],
        ids=["undelivered", "before-delivery", "nan-time", "infinite-time"],
    )
    def test_a_ticket_against_the_rules_is_rejected(self, delivered, at):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 10.0, at=0.0)
        if delivered:
            deliver(ledger, order, at=2.0)
            ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=2.0)
        order.defective_qty = 1.0
        with pytest.raises(OrderValidationError):
            ledger.open_ticket(order, at=at)
        assert ledger.tickets == {}

    def test_an_order_takes_one_ticket_after_its_return_request(self):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 10.0, at=0.0)
        deliver(ledger, order, at=1.0)
        order.defective_qty = 1.0
        with pytest.raises(CorruptionError, match="order 1, which is Delivered, not ReturnRequested"):
            ledger.open_ticket(order, at=1.0)
        ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=1.0)
        ticket = ledger.open_ticket(order, at=1.0)
        with pytest.raises(CorruptionError, match="order 1 already has ticket 1"):
            ledger.open_ticket(order, at=2.0)
        assert ledger.tickets == {1: ticket}


class TestExportImport:
    def test_round_trip_preserves_everything(self):
        ledger = make_ledger()
        a = ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        b = ledger.place("retailer", "firm", product(2), 7.0, at=1.0)
        ledger.transition(a.order_id, OrderStatus.FGI, at=2.0)
        ledger.transition(a.order_id, OrderStatus.IN_TRANSIT, at=3.0)
        ledger.transition(a.order_id, OrderStatus.DELIVERED, at=4.0)
        a.defective_qty = 2.0
        ledger.transition(a.order_id, OrderStatus.RETURN_REQUESTED, at=4.0)
        ledger.open_ticket(a, at=4.0)

        clone = Ledger.from_lines(ledger.export_lines())
        assert clone.export_lines() == ledger.export_lines()
        assert clone.orders[a.order_id].status is OrderStatus.RETURN_REQUESTED
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

    @staticmethod
    def two_orders_and_their_open_records() -> list[str]:
        ledger = make_ledger()
        for at in (0.0, 1.0):
            ledger.place("retailer", "firm", product(1), 5.0, at=at)
        lines = ledger.export_lines()
        assert [json.loads(line)["record"] for line in lines] == ["order"] * 2 + ["transition"] * 2
        assert Ledger.from_lines(lines).export_lines() == lines
        return lines

    def test_an_order_without_its_open_record_names_its_own_line(self):
        orders = self.two_orders_and_their_open_records()[:2]
        with pytest.raises(CorruptionError, match="^line 1: order 1 has no Open transition record"):
            Ledger.from_lines(orders)

    def test_replay_rejects_a_gap_in_the_order_ids(self):
        # order 2 renumbered 3 along with its Open record: consistent, but not
        # the ids a run gives
        lines = [
            line.replace('"order_id":2,', '"order_id":3,')
            for line in self.two_orders_and_their_open_records()
        ]
        assert sum('"order_id":3,' in line for line in lines) == 2
        with pytest.raises(CorruptionError, match="^line 2: order 3 out of sequence, expected 2"):
            Ledger.from_lines(lines)

    def test_replay_rejects_a_repeated_order_record(self):
        order_1, order_2, *opens = self.two_orders_and_their_open_records()
        with pytest.raises(CorruptionError, match="^line 3: order 2 out of sequence, expected 3"):
            Ledger.from_lines([order_1, order_2, order_2, *opens])

    def test_replay_rejects_open_records_out_of_id_order(self):
        order_1, order_2, open_1, open_2 = self.two_orders_and_their_open_records()
        with pytest.raises(CorruptionError, match="^line 3: order 2 out of sequence, expected 1"):
            Ledger.from_lines([order_1, order_2, open_2, open_1])

    @pytest.mark.parametrize("at", [math.nan, math.inf], ids=repr)
    def test_replay_rejects_a_transition_at_a_time_that_is_not_finite(self, at):
        # NaN compares false with everything: accepted, any later time would pass
        ledger = make_ledger()
        ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        bad = json.dumps({"record": "transition", "order_id": 1, "status": "FGI", "at": at})
        with pytest.raises(TransitionError):
            Ledger.from_lines(ledger.export_lines() + [bad])

    @pytest.mark.parametrize("quantity", [math.nan, math.inf], ids=repr)
    def test_replay_rejects_a_quantity_that_is_not_finite(self, quantity):
        ledger = make_ledger()
        ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        order_line, open_line = ledger.export_lines()
        bad = json.dumps({**json.loads(order_line), "quantity": quantity})
        assert '"quantity": NaN' in bad or '"quantity": Infinity' in bad
        with pytest.raises(OrderValidationError):
            Ledger.from_lines([bad, open_line])

    @pytest.mark.parametrize("created_at", [-5.0, math.nan, math.inf], ids=repr)
    def test_replay_rejects_an_order_created_at_a_bad_time(self, created_at):
        ledger = make_ledger()
        ledger.place("retailer", "firm", product(1), 5.0, at=0.0)
        order_line, open_line = (
            json.dumps({**json.loads(line), key: created_at})
            for line, key in zip(ledger.export_lines(), ("created_at", "at"))
        )
        with pytest.raises(LedgerError):  # NaN also fails the Open record's time check
            Ledger.from_lines([order_line, open_line])
        with pytest.raises(OrderValidationError):
            ledger.place("retailer", "firm", product(1), 5.0, at=created_at)

    @pytest.mark.parametrize(
        "change",
        [
            {"shippable_after": -5.0},
            {"shippable_after": math.inf},
            {"shippable_after": math.nan},
            {"defective_qty": -1.0},
            {"defective_qty": 6.0},
            {"defective_qty": math.nan},
        ],
        ids=[
            "ships-before-creation",
            "never-ships",
            "nan-shippable-time",
            "negative-defective-quantity",
            "defective-above-quantity",
            "nan-defective-quantity",
        ],
    )
    def test_replay_rejects_order_fields_a_run_never_writes(self, change):
        ledger = make_ledger()
        ledger.place("retailer", "firm", product(1), 5.0, at=2.5)
        order_line, open_line = ledger.export_lines()
        bad = json.dumps({**json.loads(order_line), **change})
        # the order is appended, and checked, at its Open record on line 2,
        # and the error names the order's own line
        with pytest.raises(OrderValidationError, match="^line 1: "):
            Ledger.from_lines([bad, open_line])

    def test_replay_accepts_the_bounds_a_run_may_write(self):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 5.0, at=2.5, shippable_after=2.5)
        deliver(ledger, order, at=3.0)
        order.defective_qty = 5.0
        assert Ledger.from_lines(ledger.export_lines()).export_lines() == ledger.export_lines()

    def test_an_order_may_not_ship_before_it_is_created(self):
        ledger = make_ledger()
        with pytest.raises(OrderValidationError):
            ledger.place("retailer", "firm", product(1), 5.0, at=3.0, shippable_after=2.0)
        assert not ledger.orders and not ledger.transitions

    @pytest.mark.parametrize(
        "change,error",
        [
            ({"order_id": 99}, CorruptionError),
            ({"order_id": 1}, CorruptionError),
            ({"defective_qty": 1.0}, CorruptionError),
            ({"defective_qty": 6.0}, CorruptionError),
            ({"defective_qty": math.nan}, CorruptionError),
            ({"ticket_id": 1}, CorruptionError),
            ({"ticket_id": 3}, CorruptionError),
            ({"item": "P2"}, CorruptionError),
            ({"customer": "retailer"}, CorruptionError),
            ({"opened_at": 0.5}, OrderValidationError),
        ],
        ids=[
            "unknown-order",
            "another-order",
            "another-quantity",
            "defective-above-quantity",
            "nan-defective-quantity",
            "duplicate-id",
            "skipped-id",
            "other-item",
            "another-customer",
            "before-delivery",
        ],
    )
    def test_replay_opens_tickets_as_the_live_writer_does(self, change, error):
        ledger = make_ledger()
        for quantity, delivered_at in [(1.0, 1.0), (2.0, 2.0)]:
            order = ledger.place("customer1", "retailer", product(1), 5.0, at=0.0)
            deliver(ledger, order, at=delivered_at)
            order.defective_qty = quantity
            ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=delivered_at)
            ledger.open_ticket(order, at=delivered_at)
        lines = ledger.export_lines()
        assert Ledger.from_lines(lines).export_lines() == lines
        lines[-1] = json.dumps({**json.loads(lines[-1]), **change})
        with pytest.raises(error, match=f"^line {len(lines)}: "):
            Ledger.from_lines(lines)

    @staticmethod
    def one_ticket_lines() -> list[str]:
        """An order delivered with a defect and moved to ReturnRequested,
        then its ticket, as a run writes them."""
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 5.0, at=0.0)
        deliver(ledger, order, at=1.0)
        order.defective_qty = 1.0
        ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=1.0)
        ledger.open_ticket(order, at=1.0)
        lines = ledger.export_lines()
        assert Ledger.from_lines(lines).export_lines() == lines
        return lines

    def test_replay_rejects_a_duplicated_ticket_record(self):
        lines = self.one_ticket_lines()
        lines.append(json.dumps({**json.loads(lines[-1]), "ticket_id": 2}))
        with pytest.raises(CorruptionError, match=f"^line {len(lines)}: order 1 already has ticket 1"):
            Ledger.from_lines(lines)

    def test_replay_rejects_a_ticket_for_an_order_never_returned(self):
        lines = self.one_ticket_lines()
        lines = [line for line in lines if '"ReturnRequested"' not in line]
        with pytest.raises(
            CorruptionError, match=f"^line {len(lines)}: ticket for order 1, which is Delivered"
        ):
            Ledger.from_lines(lines)

    @pytest.mark.parametrize(
        "created_at,moves,types",
        [
            ("6", ["6", "7", "8.25"], [float, int, int, float]),
            ("6.0", ["6.0", "7", "8.25"], [float, float, int, float]),
        ],
        ids=["first-int-opens", "first-int-moves"],
    )
    def test_int_times_replay_and_export_as_written(self, created_at, moves, types):
        # a hand-written ledger may drop the ".0"; each time re-exports as
        # written, also after a float in the same column
        lines = [
            '{"client":"customer1","created_at":0.5,"defective_qty":0.0,"item":"P1",'
            '"order_id":1,"provider":"retailer","quantity":5.0,"record":"order",'
            '"replacement_for":null,"shippable_after":0.5}',
            f'{{"client":"customer1","created_at":{created_at},"defective_qty":0,"item":"P1",'
            '"order_id":2,"provider":"retailer","quantity":5,"record":"order",'
            f'"replacement_for":null,"shippable_after":{created_at}}}',
            '{"at":0.5,"order_id":1,"record":"transition","status":"Open"}',
            f'{{"at":{moves[0]},"order_id":2,"record":"transition","status":"Open"}}',
            f'{{"at":{moves[1]},"order_id":2,"record":"transition","status":"InTransit"}}',
            f'{{"at":{moves[2]},"order_id":1,"record":"transition","status":"InTransit"}}',
        ]
        ledger = Ledger.from_lines(lines)
        assert ledger.export_lines() == lines
        assert [type(at) for _, _, at in ledger.transitions] == types

    @pytest.mark.parametrize("resolved_at", [0.5, math.nan, math.inf], ids=repr)
    def test_replay_rejects_a_ticket_resolved_before_it_opened_or_never(self, resolved_at):
        ledger = make_ledger()
        order = ledger.place("customer1", "retailer", product(1), 5.0, at=0.0)
        deliver(ledger, order, at=1.0)
        order.defective_qty = 1.0
        ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=1.0)
        ledger.open_ticket(order, at=1.0).resolved_at = 3.0
        lines = ledger.export_lines()
        assert Ledger.from_lines(lines).tickets[1].resolved_at == 3.0
        lines[-1] = json.dumps({**json.loads(lines[-1]), "resolved_at": resolved_at})
        with pytest.raises(CorruptionError):
            Ledger.from_lines(lines)

    @pytest.fixture(scope="class")
    def case_study_lines(self):
        ledger = run_scenario(case_study_scenario("vcor", 42, 480.0)).ledger
        return ledger.export_lines()

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"quantity": -5.0}, "order quantity must be positive and finite"),
            ({"shippable_after": -1.0}, "before its creation"),
            ({"quantity": 2.0, "defective_qty": 3.0}, "defective quantity 3.0 outside"),
        ],
        ids=["negative-quantity", "ships-before-creation", "defective-above-quantity"],
    )
    def test_a_bad_order_names_its_own_line_not_its_open_record(
        self, case_study_lines, change, message
    ):
        lines = list(case_study_lines)
        order = json.loads(lines[0])
        assert order["record"] == "order" and order["order_id"] == 1
        opened = {"record": "transition", "order_id": 1, "status": "Open", "at": order["created_at"]}
        # the Open record is far below the order line, as in every export
        assert [json.loads(line) for line in lines].index(opened) > 1
        lines[0] = json.dumps({**order, **change})
        with pytest.raises(OrderValidationError, match=f"^line 1: .*{message}"):
            Ledger.from_lines(lines)

    @pytest.mark.parametrize(
        "record,key,value",
        [
            ("ticket", "replacement_order_id", 99999),
            ("ticket", "replacement_order_id", 1),
            ("order", "replacement_for", 99999),
        ],
        ids=["ticket-names-no-order", "ticket-names-an-unrelated-order", "order-names-no-ticket"],
    )
    def test_replay_rejects_a_replacement_link_only_one_side_states(
        self, case_study_lines, record, key, value
    ):
        lines = list(case_study_lines)
        assert Ledger.from_lines(lines).export_lines() == lines
        records = [json.loads(line) for line in lines]
        i = next(i for i, rec in enumerate(records) if rec["record"] == record and rec[key])
        lines[i] = json.dumps({**records[i], key: value})
        with pytest.raises(CorruptionError):
            Ledger.from_lines(lines)

    @pytest.mark.parametrize(
        "record,key,convert",
        [
            ("order", "order_id", float),
            ("order", "replacement_for", float),
            ("transition", "order_id", float),
            ("ticket", "ticket_id", float),
            ("ticket", "ticket_id", bool),  # ticket 1 as true, which equals 1
            ("ticket", "order_id", float),
            ("ticket", "replacement_order_id", float),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_replay_rejects_an_id_that_is_not_an_int(self, case_study_lines, record, key, convert):
        # a float id equals and hashes as the int, so it would replay and
        # then export as a float
        lines = list(case_study_lines)
        records = [json.loads(line) for line in lines]
        i = next(i for i, rec in enumerate(records) if rec["record"] == record and rec[key])
        lines[i] = json.dumps({**records[i], key: convert(records[i][key])})
        with pytest.raises(CorruptionError, match=f"^line {i + 1}: .*{key} is not an integer"):
            Ledger.from_lines(lines)

    @pytest.mark.parametrize("bad", ["[1]", '"x"', '{"record":"order"}', "{"], ids=repr)
    def test_a_malformed_line_is_corruption_naming_its_number(self, bad):
        lines = make_ledger().export_lines() + ["", bad]
        with pytest.raises(CorruptionError, match="^line 2: "):
            Ledger.from_lines(lines)

    def test_a_line_nested_too_deep_is_corruption_naming_its_number(self, case_study_lines):
        # the JSON decoder raises RecursionError well before 100,000 levels on
        # every supported Python (about 1,000 to 3.11; 3.12 and 3.13 allow more)
        lines = [*case_study_lines[:2], "[" * 100_000 + "]" * 100_000, *case_study_lines[2:]]
        with pytest.raises(
            CorruptionError, match="^line 3: malformed ledger record: RecursionError"
        ):
            Ledger.from_lines(lines)


    def test_int_quantities_replay_and_export_as_written(self):
        # round() gives an int defective quantity, which the replacement order
        # takes as its quantity: at lot size 10 it can reach 2
        scenario = case_study_scenario("vcor", 42, 480.0)
        scenario = replace(
            scenario, customers=tuple(replace(c, lot_size=10.0) for c in scenario.customers)
        )
        lines = run_scenario(scenario).ledger.export_lines()
        ticket = next(
            json.loads(line)
            for line in lines
            if '"record":"ticket"' in line and '"defective_qty":2,' in line
        )
        replacement = f'"order_id":{ticket["replacement_order_id"]},'
        assert any(replacement in line and '"quantity":2,' in line for line in lines)
        assert Ledger.from_lines(lines).export_lines() == lines


# The file format of ledger.jsonl, written out here rather than read from the
# declaration, so that a change to the declaration shows as a test failure:
# each record kind's keys besides "record", and which of them hold strings
LEDGER_KEYS = {
    "order": (
        "client", "created_at", "defective_qty", "item", "order_id", "provider",
        "quantity", "replacement_for", "shippable_after",
    ),
    "transition": ("at", "order_id", "status"),
    "ticket": (
        "customer", "defective_qty", "item", "opened_at", "order_id",
        "replacement_order_id", "resolved_at", "ticket_id",
    ),
}
STRING_KEYS = {"client", "customer", "item", "provider", "status"}

finite = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
record_ids = st.integers(min_value=0)
record_items = st.builds(lambda make, n: make(n), st.sampled_from([product, raw]), record_ids)


def every_record_kind() -> list[str]:
    """The lines of a ledger with an order, its transitions, a ticket and the
    ticket's delivered replacement."""
    ledger = make_ledger()
    order = ledger.place("customer1", "retailer", product(1), 10.0, at=0.0)
    deliver(ledger, order, at=1.0)
    order.defective_qty = 2.0
    ledger.transition(order.order_id, OrderStatus.RETURN_REQUESTED, at=1.0)
    ticket = ledger.open_ticket(order, at=1.0)
    replacement = ledger.place(
        "customer1", "retailer", product(1), 2.0, at=1.0, replacement_for=ticket.ticket_id
    )
    ticket.replacement_order_id = replacement.order_id
    deliver(ledger, replacement, at=3.0)
    ticket.resolved_at = 3.0
    ledger.transition(order.order_id, OrderStatus.RESOLVED, at=3.0)
    return ledger.export_lines()


class TestLedgerRecords:
    def test_each_kind_writes_its_keys_and_replays_as_written(self):
        lines = every_record_kind()
        assert Ledger.from_lines(lines).export_lines() == lines
        for kind, keys in LEDGER_KEYS.items():
            written = [json.loads(line) for line in lines if f'"record":"{kind}"' in line]
            assert written
            assert all(sorted(rec) == sorted([*keys, "record"]) for rec in written)

    @pytest.mark.parametrize(
        "kind,key,edit",
        [
            *(
                (kind, key, edit)
                for kind, keys in LEDGER_KEYS.items()
                for key in keys
                for edit in ("bool", "wrong-type", "removed")
            ),
            *((kind, "bogus", "added") for kind in LEDGER_KEYS),
        ],
        ids=lambda v: v,
    )
    def test_a_key_that_breaks_the_format_is_corruption_naming_line_and_key(
        self, kind, key, edit
    ):
        lines = every_record_kind()
        i = next(i for i, line in enumerate(lines) if f'"record":"{kind}"' in line)
        rec = json.loads(lines[i])
        if edit == "removed":
            del rec[key]
        elif edit == "added":
            rec[key] = 1
        elif edit == "bool":
            rec[key] = True
        else:
            rec[key] = 7 if key in STRING_KEYS else "6"
        lines[i] = json.dumps(rec)
        with pytest.raises(CorruptionError, match=f"^line {i + 1}: .*{key}"):
            Ledger.from_lines(lines)

    @pytest.mark.parametrize("code", [" P1", "P01", "p1", "P²"], ids=repr)
    def test_an_item_code_must_format_back_to_itself(self, code):
        lines = every_record_kind()
        lines[0] = lines[0].replace('"item":"P1"', f'"item":"{code}"')
        with pytest.raises(CorruptionError, match="^line 1: order item is not an item code"):
            Ledger.from_lines(lines)

    @given(
        st.builds(
            Order, order_id=record_ids, client=st.text(), provider=st.text(), item=record_items,
            quantity=finite, created_at=finite, shippable_after=finite, defective_qty=finite,
            replacement_for=st.none() | record_ids,
        ),
        st.tuples(record_ids, st.text(), finite),
        st.builds(
            SupportTicket, ticket_id=record_ids, order_id=record_ids, customer=st.text(),
            item=record_items, defective_qty=finite, opened_at=finite,
            replacement_order_id=st.none() | record_ids, resolved_at=st.none() | finite,
        ),
    )
    def test_reading_back_a_formatted_line_gives_the_records_fields(
        self, order, transition, ticket
    ):
        def typed(fields):  # int and float, 0.0 and -0.0 apart
            return {key: (type(value), repr(value)) for key, value in fields.items()}

        order_id, status, at = transition
        for kind, record, fields in [
            ("order", order, {k: getattr(order, k) for k in LEDGER_KEYS["order"]}),
            ("transition", transition, {"order_id": order_id, "status": status, "at": at}),
            ("ticket", ticket, {k: getattr(ticket, k) for k in LEDGER_KEYS["ticket"]}),
        ]:
            [line] = LINES[kind]([record])
            assert typed(_fields(kind, json.loads(line))) == typed(fields)


class TestInventory:
    def test_simple_decrement(self):
        rec = InventoryRecord(owner="firm", item=product(1), on_hand=500.0)
        rec.adjust(-200.0, at=1.0)
        assert rec.on_hand == 300.0

    def test_overdraw_raises_reservation_error(self):
        rec = InventoryRecord(owner="firm", item=product(1), on_hand=100.0)
        with pytest.raises(ReservationError):
            rec.adjust(-150.0, at=1.0)

    def test_level_integral_of_step_function(self):
        # 500 for 24 h then 300 for 24 h -> a mean of 400 over 48 h
        rec = InventoryRecord(owner="firm", item=product(1), on_hand=500.0)
        rec.adjust(-200.0, at=24.0)
        assert rec.level_integral(48.0) == pytest.approx(400.0 * 48.0)

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

    def test_int_levels_and_times_read_back_as_written(self):
        rec = InventoryRecord(owner="x", item=raw(1), on_hand=500)
        rec.adjust(-200, at=3)
        rec.adjust(0.5, at=4.0)
        assert list(rec.samples) == [(0.0, 500), (3, 300), (4.0, 300.5)]
        assert [tuple(map(type, row)) for row in rec.samples] == [
            (float, int), (int, int), (float, float)
        ]
        assert rec.level_integral(10.0) == 500 * 3 + 300 * 1.0 + 300.5 * 6.0


class TestLogColumns:
    """``Ledger.transitions`` and ``InventoryRecord.samples`` are held as
    columns but read as lists of tuples."""

    @pytest.fixture(scope="class")
    def logs(self):
        artifacts = run_scenario(case_study_scenario("vcor", 42, 480.0))
        return [artifacts.ledger.transitions] + [
            record.samples for record in artifacts.inventories.values()
        ]

    def test_a_log_reads_as_a_list_of_tuples(self, logs):
        for log in logs:
            rows = list(log)
            assert rows and len(log) == len(rows) and log
            assert all(type(row) is tuple for row in rows)
            assert [log[i] for i in range(-len(rows), len(rows))] == rows + rows
            for part in [slice(None), slice(3, 700), slice(-5, None), slice(None, None, -2),
                         slice(10, 5)]:
                assert log[part] == rows[part]
        assert {status for _, status, _ in logs[0]} == {s.value for s in OrderStatus}

    def test_an_empty_log_is_false_and_reads_as_nothing(self):
        log = Ledger().transitions
        assert not log and len(log) == 0 and list(log) == [] and log[:] == []

    def test_append_keeps_each_value_as_given(self):
        log = InventoryRecord(owner="x", item=raw(1), on_hand=5.0).samples
        log.append((1.0, -1.0))
        log.append((2, 3))
        with pytest.raises(ValueError):
            log.append((3.0,))
        assert list(log) == [(0.0, 5.0), (1.0, -1.0), (2, 3)]
        assert type(log[-1][0]) is int and type(log[1][0]) is float

    # a list of (id, status, time) tuples took about 96 B a row
    BYTES_PER_ROW = 32
    ROWS = 10_000

    def grown_per_row(self, write) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write()
            return (tracemalloc.get_traced_memory()[0] - before) / self.ROWS
        finally:
            tracemalloc.stop()

    def test_a_transition_row_adds_at_most_32_bytes(self):
        ledger = make_ledger()
        orders = [
            ledger.place("retailer", "firm", product(1), 1.0, at=0.0) for _ in range(self.ROWS // 5)
        ]
        moves = [OrderStatus.FGI, OrderStatus.IN_TRANSIT, OrderStatus.DELIVERED,
                 OrderStatus.RETURN_REQUESTED, OrderStatus.RESOLVED]
        at = 1.0  # one time object, so the orders hold no new object

        def write():
            for order in orders:
                for status in moves:
                    ledger.transition(order.order_id, status, at)

        assert self.grown_per_row(write) <= self.BYTES_PER_ROW
        assert len(ledger.transitions) == len(orders) + self.ROWS

    def test_a_stock_sample_adds_at_most_32_bytes(self):
        rec = InventoryRecord(owner="x", item=raw(1), on_hand=0.0)
        times = [float(t) for t in range(1, self.ROWS + 1)]

        def write():
            for t in times:
                rec.adjust(1.0, at=t)

        assert self.grown_per_row(write) <= self.BYTES_PER_ROW
        assert len(rec.samples) == self.ROWS + 1
