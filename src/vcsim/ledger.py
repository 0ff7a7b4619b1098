"""Core value-chain data types and the append-only order ledger.

The ledger is the single source of truth for information flow: every order,
every status transition, and every support ticket lands here. Providers read
their demand view out of it; the metrics layer folds it after the run.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable

from .jsonl import _Quoted, _order_line, _ticket_line, _transition_line


class LedgerError(Exception):
    """Base class for ledger failures."""


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
        code = code.strip()
        if len(code) < 2 or code[0] not in "PR" or not code[1:].isdigit():
            raise OrderValidationError(f"bad item code: {code!r}")
        return cls(PRODUCT if code[0] == "P" else RAW, int(code[1:]))


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

#: statuses in which the ordered goods have not yet reached the client
OUTSTANDING = frozenset(
    {
        OrderStatus.OPEN,
        OrderStatus.IN_PRODUCTION,
        OrderStatus.FGI,
        OrderStatus.IN_TRANSIT,
    }
)


@dataclass(slots=True)
class Order:
    """One order: the unit of information flow between a client and a provider.

    quantity is boxes for finished goods and kg for raws. ``reserved``,
    ``shippable_after`` and the defect fields are runtime bookkeeping used
    by the actor processes; they are persisted for auditability.
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
    shipped_at: float | None = None
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
_IN_TRANSIT = OrderStatus.IN_TRANSIT
_DELIVERED = OrderStatus.DELIVERED


class Ledger:
    """Append-only store of orders, status transitions, and support tickets.

    Single-writer within a run; the transition log replays to the current
    state, which the test suite uses as an oracle. ``append_order`` and
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
        # provider, and the count of OUTSTANDING orders per (client, item)
        self._open: dict[tuple[str, Item], dict[int, Order]] = {}
        self._fgi: dict[str, dict[int, Order]] = {}
        self._outstanding: dict[tuple[str, Item], int] = {}
        self._next_order_id = 1
        self._next_ticket_id = 1

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
        """Allocate the next order id and append a new Open order."""
        order = Order(
            order_id=self._next_order_id,
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
        if order.order_id in self.orders:
            raise CorruptionError(f"duplicate order id {order.order_id}")
        if order.status is not _OPEN:
            raise OrderValidationError(
                f"new orders must be Open, got {order.status.value}"
            )
        if order.quantity <= 0:
            raise OrderValidationError(
                f"order quantity must be positive, got {order.quantity}"
            )
        if self._known_actors is not None:
            for party in (order.client, order.provider):
                if party not in self._known_actors:
                    raise OrderValidationError(f"unknown party: {party!r}")
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
        self._next_order_id = max(self._next_order_id, order.order_id + 1)
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
        if at < order.last_transition_at:
            raise TransitionError(
                f"transition at t={at} precedes last transition of order {order_id}"
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
        elif new_status is _IN_TRANSIT:
            order.shipped_at = at
        elif new_status is _DELIVERED:
            order.delivered_at = at
            self._outstanding[(order.client, order.item)] -= 1
        order.last_transition_at = at
        self.transitions.append((order_id, new_status._value_, at))

    def open_ticket(
        self, order: Order, defective_qty: float, customer: str, at: float
    ) -> SupportTicket:
        if order.order_id not in self.orders:
            raise OrderValidationError(f"ticket for unknown order {order.order_id}")
        if defective_qty <= 0 or defective_qty > order.quantity:
            raise OrderValidationError(
                f"defective quantity {defective_qty} outside (0, {order.quantity}]"
            )
        ticket = SupportTicket(
            ticket_id=self._next_ticket_id,
            order_id=order.order_id,
            customer=customer,
            item=order.item,
            defective_qty=defective_qty,
            opened_at=at,
        )
        self._next_ticket_id += 1
        self.tickets[ticket.ticket_id] = ticket
        return ticket

    # -- demand views -----------------------------------------------------

    def open_orders(self, provider: str, item: Item | None = None) -> list[Order]:
        """Current Open orders of one provider, oldest first."""
        if item is None:
            found = [
                o
                for (owner, _), bucket in self._open.items()
                if owner == provider
                for o in bucket.values()
            ]
        else:
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
        q = _Quoted()
        orders, tickets = self.orders, self.tickets
        return (
            (
                [orders[i] for i in sorted(orders)],
                lambda run: [_order_line(o, q) for o in run],
            ),
            (
                self.transitions,
                lambda run: [_transition_line(i, status, at, q) for i, status, at in run],
            ),
            (
                [tickets[i] for i in sorted(tickets)],
                lambda run: [_ticket_line(t, q) for t in run],
            ),
        )

    def export_lines(self) -> list[str]:
        """One JSON record per order, transition and ticket, replayable."""
        return [line for records, lines in self.export_parts() for line in lines(records)]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Ledger":
        """Rebuild a ledger by replaying exported records.

        Replay goes through the live writers. An order record waits until
        its Open transition record, which is the entry ``append_order`` logs,
        so the rebuilt transition log keeps the exported interleaving; every
        later record goes through ``transition``. Illegal moves, time
        reversals and transitions of unknown orders raise ``TransitionError``.
        """
        ledger = cls()
        pending: dict[int, Order] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("record")
            if kind == "header":
                continue  # provenance line of exported artifact files
            if kind == "order":
                order = Order(
                    order_id=rec["order_id"],
                    client=rec["client"],
                    provider=rec["provider"],
                    item=Item.parse(rec["item"]),
                    quantity=rec["quantity"],
                    created_at=rec["created_at"],
                    replacement_for=rec.get("replacement_for"),
                    shippable_after=rec.get("shippable_after", rec["created_at"]),
                    defective_qty=rec.get("defective_qty", 0.0),
                )
                if order.order_id in pending:
                    raise CorruptionError(f"duplicate order id {order.order_id}")
                pending[order.order_id] = order
            elif kind == "transition":
                order_id, at = rec["order_id"], rec["at"]
                try:
                    status = OrderStatus(rec["status"])
                except ValueError:
                    raise CorruptionError(f"unknown order status: {rec['status']!r}") from None
                order = pending.pop(order_id, None)
                if order is None:
                    ledger.transition(order_id, status, at)
                elif status is OrderStatus.OPEN and at == order.created_at:
                    ledger.append_order(order)
                else:
                    raise CorruptionError(
                        f"order {order_id} must first be logged Open at "
                        f"t={order.created_at}, got {status.value} at t={at}"
                    )
            elif kind == "ticket":
                ticket = SupportTicket(
                    ticket_id=rec["ticket_id"],
                    order_id=rec["order_id"],
                    customer=rec["customer"],
                    item=Item.parse(rec["item"]),
                    defective_qty=rec["defective_qty"],
                    opened_at=rec["opened_at"],
                    replacement_order_id=rec.get("replacement_order_id"),
                    resolved_at=rec.get("resolved_at"),
                )
                ledger.tickets[ticket.ticket_id] = ticket
                ledger._next_ticket_id = max(ledger._next_ticket_id, ticket.ticket_id + 1)
            else:
                raise CorruptionError(f"unknown ledger record: {line[:80]}")
        if pending:
            raise CorruptionError(f"order {min(pending)} has no Open transition record")
        return ledger


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

    def time_weighted_mean(self, t_end: float) -> float:
        if t_end <= 0:
            return self.samples[0][1]
        return self.level_integral(t_end) / t_end
