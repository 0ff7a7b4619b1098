"""Core value-chain data types and the append-only order ledger.

The ledger is the single source of truth for information flow: every order,
every status transition, and every support ticket lands here. Providers read
their demand view out of it; the metrics layer folds it after the run.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable

from .jsonl import ITEM_CODE, LEDGER_KINDS, LINES, RECORDS


class LedgerError(Exception):
    """Base class for ledger failures."""

    #: in replay, the line at fault when it is not the line being read
    line: int | None = None


class OrderValidationError(LedgerError):
    """Order rejected before it entered the ledger."""


class CorruptionError(LedgerError):
    """The ledger's append-only guarantees would be violated."""


class TransitionError(LedgerError):
    """Illegal order status transition."""


class ReservationError(LedgerError):
    """Inventory adjustment would drive the level negative."""


# -- items -------------------------------------------------------------

PRODUCT = "product"
RAW = "raw"


class Item(namedtuple("_ItemFields", "kind id code")):
    """A catalog item: finished product (boxes) or raw material (kg).

    A tuple ``(kind, id, code)``: it sorts by (kind, id), since the code
    follows from them, and hashes and compares in C, so ledger keys that hold
    an item cost no Python call. The code is built once, here.
    """

    __slots__ = ()

    def __new__(cls, kind: str, id: int) -> "Item":
        return super().__new__(cls, kind, id, ("P" if kind == PRODUCT else "R") + str(id))

    def __getnewargs__(self) -> tuple[str, int]:  # copy and pickle call __new__ with these
        return self.kind, self.id

    def __str__(self) -> str:
        return self.code

    @classmethod
    def parse(cls, code: str) -> "Item":
        """The item whose code is ``code``, written as ``Item`` writes it: a
        kind letter and ASCII digits without leading zeros, "P1" but not
        "P01", " P1" or "P²"."""
        if not ITEM_CODE.test(code):
            raise OrderValidationError(f"bad item code: {code!r}")
        return cls(_KINDS[code[0]], int(code[1:]))


_KINDS = {"P": PRODUCT, "R": RAW}


# items are immutable, so each one is built once and shared; the caches hold
# one item per id a process uses, which the catalogs bound
@lru_cache(maxsize=None, typed=True)
def product(n: int) -> Item:
    return Item(PRODUCT, n)


@lru_cache(maxsize=None, typed=True)
def raw(n: int) -> Item:
    return Item(RAW, n)


# -- orders ------------------------------------------------------------


class OrderStatus(str, Enum):
    OPEN = "Open"
    IN_PRODUCTION = "InProduction"
    FGI = "FGI"
    IN_TRANSIT = "InTransit"
    DELIVERED = "Delivered"
    RETURN_REQUESTED = "ReturnRequested"
    RESOLVED = "Resolved"


# forward moves along Open -> InProduction -> FGI -> InTransit -> Delivered
# may skip intermediate stations (a stocked order never enters production);
# the support tail Delivered -> ReturnRequested -> Resolved never skips
LEGAL_TRANSITIONS: dict[OrderStatus, frozenset[OrderStatus]] = {
    OrderStatus.OPEN: frozenset(
        {OrderStatus.IN_PRODUCTION, OrderStatus.FGI, OrderStatus.IN_TRANSIT}
    ),
    OrderStatus.IN_PRODUCTION: frozenset({OrderStatus.FGI, OrderStatus.IN_TRANSIT}),
    OrderStatus.FGI: frozenset({OrderStatus.IN_TRANSIT}),
    OrderStatus.IN_TRANSIT: frozenset({OrderStatus.DELIVERED}),
    OrderStatus.DELIVERED: frozenset({OrderStatus.RETURN_REQUESTED}),
    OrderStatus.RETURN_REQUESTED: frozenset({OrderStatus.RESOLVED}),
    OrderStatus.RESOLVED: frozenset(),
}

@dataclass(slots=True)
class Order:
    """One order: the unit of information flow between a client and a provider.

    quantity is boxes for finished goods and kg for raws. ``reserved`` is the
    actors' runtime bookkeeping and is not exported: a replayed order holds 0.
    """

    order_id: int
    client: str
    provider: str
    item: Item
    quantity: float
    created_at: float
    status: OrderStatus = OrderStatus.OPEN
    reserved: float = 0.0
    shippable_after: float = 0.0
    delivered_at: float | None = None
    defective_qty: float = 0.0
    replacement_for: int | None = None  # ticket id, for support replacements
    # time of the order's latest transition; ``Ledger.transitions`` holds the
    # whole history, and this is all the monotonic-time check needs
    last_transition_at: float = 0.0


@dataclass(slots=True)
class SupportTicket:
    """A defective-delivery incident registered in the support database."""

    ticket_id: int
    order_id: int
    customer: str
    item: Item
    defective_qty: float
    opened_at: float
    replacement_order_id: int | None = None
    resolved_at: float | None = None


_OLDEST_FIRST = attrgetter("created_at", "order_id")

# reading a member through its Enum class, or a member's ``value``, costs a
# descriptor call on Python 3.11; the per-transition bucket upkeep compares
# against these, and ``_value_`` is the plain attribute behind ``value``
_OPEN = OrderStatus.OPEN
_FGI = OrderStatus.FGI
_DELIVERED = OrderStatus.DELIVERED
_INF = math.inf


class Ledger:
    """Append-only store of orders, status transitions, and support tickets.

    Single-writer within a run; the transition log replays to the current
    state, which the test suite uses as an oracle. Order and ticket ids are
    positions, 1, 2, ..., as neither is ever removed. ``append_order`` and
    ``transition`` are the only writers of ``Order.status``, and they keep
    three status buckets current, so each demand view costs O(matching
    orders) rather than a scan of every order ever placed.
    """

    def __init__(
        self,
        known_actors: Iterable[str] | None = None,
        known_items: Iterable[Item] | None = None,
    ) -> None:
        self.orders: dict[int, Order] = {}
        self.tickets: dict[int, SupportTicket] = {}
        self.transitions: list[tuple[int, str, float]] = []  # (order_id, status, at)
        self._known_actors = set(known_actors) if known_actors is not None else None
        self._known_items = set(known_items) if known_items is not None else None
        # status buckets: Open orders per (provider, item), FGI orders per
        # provider, and the count of not yet delivered orders per (client, item)
        self._open: dict[tuple[str, Item], dict[int, Order]] = {}
        self._fgi: dict[str, dict[int, Order]] = {}
        self._outstanding: dict[tuple[str, Item], int] = {}

    # -- appends --------------------------------------------------------

    def place(
        self,
        client: str,
        provider: str,
        item: Item,
        quantity: float,
        at: float,
        replacement_for: int | None = None,
        shippable_after: float | None = None,
    ) -> Order:
        """Append a new Open order under the next id."""
        order = Order(
            order_id=len(self.orders) + 1,
            client=client,
            provider=provider,
            item=item,
            quantity=quantity,
            created_at=at,
            replacement_for=replacement_for,
            shippable_after=at if shippable_after is None else shippable_after,
        )
        self.append_order(order)
        return order

    def append_order(self, order: Order) -> int:
        """Append an Open order; its id must be its position, as ``place`` gives."""
        expected = len(self.orders) + 1
        if order.order_id != expected:
            raise CorruptionError(f"order {order.order_id} out of sequence, expected {expected}")
        if not 0 <= order.created_at < _INF:  # also true for NaN
            raise OrderValidationError(
                f"order creation time must be finite and >= 0, got {order.created_at}"
            )
        if order.status is not _OPEN:
            raise OrderValidationError(
                f"new orders must be Open, got {order.status.value}"
            )
        if not 0 < order.quantity < _INF:  # also true for NaN
            raise OrderValidationError(
                f"order quantity must be positive and finite, got {order.quantity}"
            )
        if not order.created_at <= order.shippable_after < _INF:  # also true for NaN
            raise OrderValidationError(
                f"order may ship from t={order.shippable_after}, before its creation "
                f"at t={order.created_at}, or never"
            )
        if not 0 <= order.defective_qty <= order.quantity:  # also true for NaN
            raise OrderValidationError(
                f"defective quantity {order.defective_qty} outside [0, {order.quantity}]"
            )
        known = self._known_actors
        if known is not None:
            if order.client not in known:
                raise OrderValidationError(f"unknown party: {order.client!r}")
            if order.provider not in known:
                raise OrderValidationError(f"unknown party: {order.provider!r}")
        if self._known_items is not None and order.item not in self._known_items:
            raise OrderValidationError(f"unknown item: {order.item.code}")
        self.orders[order.order_id] = order
        self.transitions.append((order.order_id, order.status._value_, order.created_at))
        order.last_transition_at = order.created_at
        key = (order.provider, order.item)
        bucket = self._open.get(key)
        if bucket is None:
            bucket = self._open[key] = {}
        bucket[order.order_id] = order
        key = (order.client, order.item)
        self._outstanding[key] = self._outstanding.get(key, 0) + 1
        return order.order_id

    def transition(self, order_id: int, new_status: OrderStatus, at: float) -> None:
        order = self.orders.get(order_id)
        if order is None:
            raise TransitionError(f"unknown order id {order_id}")
        status = order.status
        if new_status not in LEGAL_TRANSITIONS[status]:
            raise TransitionError(
                f"illegal transition {status.value} -> {new_status.value} "
                f"for order {order_id}"
            )
        if not order.last_transition_at <= at < _INF:  # also true for NaN
            raise TransitionError(
                f"transition at t={at} precedes last transition of order {order_id} "
                "or is not finite"
            )
        if status is _OPEN:
            del self._open[(order.provider, order.item)][order_id]
        elif status is _FGI:
            del self._fgi[order.provider][order_id]
        order.status = new_status
        if new_status is _FGI:
            bucket = self._fgi.get(order.provider)
            if bucket is None:
                bucket = self._fgi[order.provider] = {}
            bucket[order_id] = order
        elif new_status is _DELIVERED:
            order.delivered_at = at
            self._outstanding[(order.client, order.item)] -= 1
        order.last_transition_at = at
        self.transitions.append((order_id, new_status._value_, at))

    def open_ticket(self, order: Order, at: float) -> SupportTicket:
        """Register a defective delivery, as the order's client reports it:
        the order's defective quantity, at a finite time no earlier than the
        delivery, under the next ticket id."""
        if order.order_id not in self.orders:
            raise OrderValidationError(f"ticket for unknown order {order.order_id}")
        if order.delivered_at is None:
            raise OrderValidationError(f"ticket for undelivered order {order.order_id}")
        if not order.delivered_at <= at < _INF:  # also true for NaN
            raise OrderValidationError(
                f"ticket at t={at} for order {order.order_id} delivered at "
                f"t={order.delivered_at}, or not finite"
            )
        if not 0 < order.defective_qty <= order.quantity:  # also true for NaN
            raise OrderValidationError(
                f"defective quantity {order.defective_qty} outside (0, {order.quantity}]"
            )
        ticket = SupportTicket(
            ticket_id=len(self.tickets) + 1,
            order_id=order.order_id,
            customer=order.client,
            item=order.item,
            defective_qty=order.defective_qty,
            opened_at=at,
        )
        self.tickets[ticket.ticket_id] = ticket
        return ticket

    # -- demand views -----------------------------------------------------

    def open_orders(self, provider: str, item: Item) -> list[Order]:
        """Current Open orders of one provider for one item, oldest first."""
        bucket = self._open.get((provider, item))
        if not bucket:
            return []
        found = list(bucket.values())
        found.sort(key=_OLDEST_FIRST)
        return found

    def fgi_orders(self, provider: str) -> list[Order]:
        """Current FGI orders of one provider, oldest first."""
        bucket = self._fgi.get(provider)
        if not bucket:
            return []
        found = list(bucket.values())
        found.sort(key=_OLDEST_FIRST)
        return found

    def holds_fgi(self, provider: str) -> bool:
        """True while the provider has any FGI order."""
        return bool(self._fgi.get(provider))

    def outstanding_replenishment(self, client: str, item: Item) -> bool:
        """True while the client has any not-yet-delivered order for the item."""
        return self._outstanding.get((client, item), 0) > 0

    def census(self) -> dict[str, int]:
        counts = {status.value: 0 for status in OrderStatus}
        for o in self.orders.values():
            counts[o.status._value_] += 1
        return counts

    # -- persistence --------------------------------------------------------

    def export_parts(self) -> tuple[tuple[list, Callable[[list], list[str]]], ...]:
        """The export order, declared once: orders by id, then transitions in
        log order, then tickets by id.

        Each part is ``(records, lines)``, where ``lines`` formats any run of
        the part's records, one JSON record per line, so a writer can format
        a long part a slice at a time.
        """
        orders, tickets = self.orders, self.tickets
        return (
            ([orders[i] for i in sorted(orders)], LINES["order"]),
            (self.transitions, LINES["transition"]),
            ([tickets[i] for i in sorted(tickets)], LINES["ticket"]),
        )

    def export_lines(self) -> list[str]:
        """One JSON record per order, transition and ticket, replayable."""
        return [line for records, lines in self.export_parts() for line in lines(records)]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Ledger":
        """Rebuild a ledger by replaying exported records, each holding exactly
        the keys of its kind in ``RECORDS``, of their declared types.

        Replay goes through the live writers. Order records come in id order,
        as ids are positions; each waits until its Open transition record, the
        entry ``append_order`` logs, so the Open records come in id order too
        and the rebuilt log keeps the exported interleaving. A ticket record
        is the ticket ``open_ticket`` opens for its order, replacement and
        resolution aside, and a ticket and its replacement order must name
        each other. An error in a line names the line and keeps its class:
        ``TransitionError`` for an illegal move, ``CorruptionError`` for a
        record that the export does not write. An order whose fields
        ``append_order`` rejects, or whose Open record never comes, names the
        order record's line.
        """
        ledger = cls()
        pending: dict[int, tuple[Order, int]] = {}
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                ledger._replay(json.loads(line), number, pending)
            except LedgerError as exc:
                raise type(exc)(f"line {exc.line or number}: {exc}") from None
            except (AttributeError, TypeError, ValueError) as exc:
                raise CorruptionError(f"line {number}: malformed ledger record: {exc!r}") from None
        if pending:
            order_id, (_, number) = min(pending.items())
            raise CorruptionError(f"line {number}: order {order_id} has no Open transition record")
        by_orders = {(o.order_id, o.replacement_for) for o in ledger.orders.values()}
        by_tickets = {(t.replacement_order_id, t.ticket_id) for t in ledger.tickets.values()}
        unmatched = [(o, t) for o, t in by_orders ^ by_tickets if o is not None and t is not None]
        if unmatched:
            raise CorruptionError("order %d, ticket %d: only one names the other" % min(unmatched))
        return ledger

    def _replay(self, rec: dict, number: int, pending: dict[int, tuple[Order, int]]) -> None:
        kind = rec.get("record")
        if kind == "header":
            return  # provenance line of exported artifact files
        fields = _fields(kind, rec)
        if kind == "order":
            order_id, expected = fields["order_id"], len(self.orders) + len(pending) + 1
            if order_id != expected:  # ids are positions, and the export writes them in order
                raise CorruptionError(f"order {order_id} out of sequence, expected {expected}")
            pending[order_id] = (Order(**fields), number)
        elif kind == "transition":
            order_id, status, at = fields.values()
            order, order_line = pending.pop(order_id, (None, None))
            if order is None:
                self.transition(order_id, OrderStatus(status), at)
            elif status == _OPEN and at == order.created_at:
                try:
                    self.append_order(order)
                except OrderValidationError as exc:
                    exc.line = order_line  # the fault is in the order's own line
                    raise
            else:
                raise CorruptionError(
                    f"order {order_id} must first be logged Open at "
                    f"t={order.created_at}, got {status} at t={at}"
                )
        else:
            ticket = SupportTicket(**fields)
            ticket_id, order = ticket.ticket_id, self.orders.get(ticket.order_id)
            if order is None:
                raise CorruptionError(f"ticket {ticket_id} for unknown order {ticket.order_id}")
            if ticket.resolved_at is not None and not ticket.opened_at <= ticket.resolved_at < _INF:
                raise CorruptionError(f"ticket {ticket_id} resolved before it opened or not finite")
            opened = self.open_ticket(order, ticket.opened_at)
            # a run sets the replacement and the resolution after it opens a ticket
            opened.replacement_order_id = ticket.replacement_order_id
            opened.resolved_at = ticket.resolved_at
            if opened != ticket:
                key = next(k for k in RECORDS["ticket"] if getattr(opened, k) != getattr(ticket, k))
                raise CorruptionError(
                    f"ticket {ticket_id}: its order opens it with {key} {getattr(opened, key)!r}"
                )


def _fields(kind, rec: dict) -> dict:
    """The fields of a ledger record: exactly the keys that ``RECORDS``
    declares for its kind, each passing its declared type's test; an item
    code is read as its ``Item``."""
    if kind not in LEDGER_KINDS:
        raise CorruptionError(f"unknown ledger record kind: {kind!r}")
    declared = RECORDS[kind]
    keys = rec.keys() - {"record"}
    if keys != declared.keys():
        key = min(keys ^ declared.keys())
        raise CorruptionError(
            f"{kind} record {'lacks' if key in declared else 'has an unknown'} key {key!r}"
        )
    fields = {}
    for key, type_ in declared.items():
        value = rec[key]
        if not type_.test(value):
            raise CorruptionError(f"{kind} {key} is not {type_.name}: {value!r}")
        fields[key] = Item.parse(value) if type_ is ITEM_CODE else value
    return fields


def replay_final_statuses(transitions: Iterable[tuple[int, str, float]]) -> dict[int, str]:
    """Fold a transition log into each order's final status (test oracle)."""
    final: dict[int, str] = {}
    for order_id, status, _ in transitions:
        final[order_id] = status
    return final


# -- inventory -----------------------------------------------------------


@dataclass(slots=True)
class InventoryRecord:
    """One stock position and its level history.

    Levels never go negative: callers must backlog instead of overdrawing.
    Every change appends a (time, level) sample so holding cost and mean
    stock value integrate the exact step function.
    """

    owner: str
    item: Item
    on_hand: float
    unit_holding_cost: float = 0.0  # currency per unit-hour
    unit_value: float = 0.0
    samples: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.on_hand < 0:
            raise ReservationError(f"initial stock negative: {self.on_hand}")
        if not self.samples:
            self.samples.append((0.0, self.on_hand))

    def adjust(self, delta: float, at: float) -> None:
        level = self.on_hand + delta
        if level < -1e-9:
            raise ReservationError(
                f"{self.owner}/{self.item}: adjustment {delta} would drive "
                f"stock {self.on_hand} negative"
            )
        self.on_hand = max(0.0, level)
        self.samples.append((at, self.on_hand))

    def level_integral(self, t_end: float) -> float:
        """Integral of the stock level step function over [0, t_end] (unit-hours)."""
        total = 0.0
        for (t0, level), (t1, _) in zip(self.samples, self.samples[1:]):
            if t0 >= t_end:
                break
            total += level * (min(t1, t_end) - t0)
        last_t, last_level = self.samples[-1]
        if last_t < t_end:
            total += last_level * (t_end - last_t)
        return total
