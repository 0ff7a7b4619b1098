"""Process templates executed by the chain actors.

One :class:`Chain` owns all per-run actor state and implements the process
logic: periodic reorder checks against (s, S) policies, order reception with
stock reservation and production backlogs, capacity-limited production with
fractional carry, shipping with transport lead times, the customer-support
loop (incident, replacement, education, experience monitoring), market
analysis with product renewal, and prospect contracting. Every VCOR-only
process is gated by its scenario toggle so the SCOR baseline never schedules
one of its events.

Event kinds: activate-deliver / activate-source / activate-make for the
SCOR core; customer-order and order-arrival for demand and material flow;
activate-market, innovation-complete, activate-sell, contract-order and
support-intake only in value-chain mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .engine import Engine, Event
from .ledger import (
    InventoryRecord,
    Item,
    Ledger,
    Order,
    OrderStatus,
    OrderValidationError,
    PRODUCT,
    product,
    raw,
)
from .metrics import CostLedger, _left_sum
from .satisfaction import VoteEntry, Voter
from .scenario import CustomerSpec, HOURS_PER_MONTH, ProspectSpec, ReorderPolicy, Scenario

_EPS = 1e-9

# a member read through its Enum class costs a descriptor call on Python 3.11
_OPEN = OrderStatus.OPEN
_IN_PRODUCTION = OrderStatus.IN_PRODUCTION
_FGI = OrderStatus.FGI
_IN_TRANSIT = OrderStatus.IN_TRANSIT
_DELIVERED = OrderStatus.DELIVERED
_RETURN_REQUESTED = OrderStatus.RETURN_REQUESTED
_RESOLVED = OrderStatus.RESOLVED


@dataclass(slots=True)
class Contract:
    prospect: ProspectSpec
    accumulated: float = 0.0  # fractional boxes carried between order emissions


def renewal_target(sales_by_product: dict[int, float], exclude: set[int]) -> int | None:
    """Product with the least cumulative sales; ties go to the lowest id."""
    candidates = [pid for pid in sales_by_product if pid not in exclude]
    if not candidates:
        return None
    return min(candidates, key=lambda pid: (sales_by_product[pid], pid))


def admit_prospects(
    prospects: tuple[ProspectSpec, ...],
    already_admitted: set[str],
    committed_rate: float,
    rate_cap: float,
) -> list[ProspectSpec]:
    """Greedy admission in priority-rank order under the committed-rate cap.

    A prospect that alone would burst the cap is skipped, not queued; later
    (smaller) prospects may still fit.
    """
    admitted = []
    total = committed_rate
    for p in sorted(prospects, key=lambda p: (p.priority, p.name)):
        if p.name in already_admitted:
            continue
        if total + p.boxes_per_day <= rate_cap + _EPS:
            admitted.append(p)
            total += p.boxes_per_day
    return admitted


class Chain:
    """All actor state and process logic of one run.

    Costs are booked into ``costs`` and each vote update goes to the
    ``votes`` sink, any object with ``append`` and ``len()``: a fresh
    ``CostLedger`` and a list unless given.
    """

    def __init__(
        self,
        scenario: Scenario,
        engine: Engine,
        costs: CostLedger | None = None,
        votes: Any = None,
    ) -> None:
        self.scenario = scenario
        self.engine = engine
        self.horizon = scenario.horizon_hours

        items = {product(p) for p in scenario.products} | {raw(r) for r in scenario.raws}
        self.ledger = Ledger(known_actors=scenario.actor_names(), known_items=items)
        self.costs = CostLedger() if costs is None else costs

        self.firm_name = scenario.firm.name
        self.retailer_name = scenario.retailer.name
        self.upstream_name = scenario.upstream.name
        self.customer_specs: dict[str, CustomerSpec] = {
            c.name: c for c in scenario.customers
        }

        # each shipper's lead time and transport stream name; the random
        # stream names are formatted once rather than per event
        self._shipping = {
            spec.name: (spec.lead_time, f"{spec.name}:transport")
            for spec in (scenario.upstream, *scenario.suppliers, scenario.firm, scenario.retailer)
        }
        self._defect_stream = f"{self.retailer_name}:defects"
        # the arrival stream name and monthly demand row per (customer, product)
        # with demand, in customer order, then product order
        products_of = scenario.demand.products_by_customer()
        self._arrivals: dict[tuple[str, int], tuple[str, tuple[float, ...]]] = {
            (c.name, pid): (f"{c.name}:arrivals:P{pid}", scenario.demand.rows[(c.name, pid)])
            for c in scenario.customers
            for pid in products_of.get(c.name, ())
        }

        # each stocking actor's records and (item, policy, stock record, provider)
        # rows, in item order
        self.inventories: dict[tuple[str, str], InventoryRecord] = {}
        self._reorder_rows: dict[str, list[tuple[Item, ReorderPolicy, InventoryRecord, str]]] = {}
        for owner, kind, ids, stock, reorder, sources, _ in scenario.stocking():
            item = product if kind == PRODUCT else raw
            records = {i: self._add_record(owner, item(i), stock.get(i, 0.0)) for i in ids}
            self._reorder_rows.setdefault(owner, []).extend(
                [(item(i), policy, records[i], sources[i]) for i, policy in sorted(reorder.items())]
            )

        # firm production state; a renewal replaces a recipe, never edits one
        self.bom: dict[int, dict[int, float]] = dict(scenario.bom)
        # the firm's backlogged orders, FIFO; an order still needs
        # ``quantity - reserved`` boxes from the line
        self.production_queue: list[Order] = []
        self.capacity_carry = 0.0
        self.last_capacity_accrual = 0.0
        self.produced_boxes: dict[int, float] = {}
        self.consumed_raw_kg: dict[int, float] = {}
        self.firm_sales_boxes: dict[int, float] = {pid: 0.0 for pid in scenario.products}

        # market / research / develop / sell state
        self.renewing: int | None = None  # the product whose technology is on order
        self.renewed_products: set[int] = set()
        self.launches: list[tuple[float, int]] = []
        self.contracts: dict[str, Contract] = {}

        # support: education lowers these per-product defect rates
        self.defect_probability = dict(scenario.support.defect_probability)

        # satisfaction state, one voter per (customer, product) with demand
        initial = scenario.satisfaction.initial_vote
        self.voters: dict[tuple[str, int], Voter] = {key: Voter(initial) for key in self._arrivals}
        # each product's voters in ``voters`` order, so a peer mean adds the
        # same floats in the same order as a scan of every voter
        self._voters_of: dict[int, list[Voter]] = {}
        for (_, pid), voter in self.voters.items():
            self._voters_of.setdefault(pid, []).append(voter)
        self.support_latch: dict[str, bool] = {c.name: False for c in scenario.customers}
        self.satisfaction_series = [] if votes is None else votes

        engine.on("activate-deliver", self._on_deliver)
        engine.on("activate-source", self._on_source)
        engine.on("activate-make", self._on_make)
        engine.on("activate-market", self._on_market)
        engine.on("activate-sell", self._on_sell)
        engine.on("customer-order", self._on_customer_order)
        engine.on("contract-order", self._on_contract_order)
        engine.on("order-arrival", self._on_arrival)
        engine.on("support-intake", self._on_support_intake)
        engine.on("innovation-complete", self._on_innovation_complete)

    # ------------------------------------------------------------------
    # wiring

    def register(self) -> None:
        """Schedule demand arrivals and the periodic process activations.

        Customer arrival chains are scheduled first (lowest sequence numbers),
        then periodics in canonical actor order: upstream, suppliers, firm,
        retailer; per actor deliver, source, make, then value-chain processes.
        """
        eng = self.engine
        sc = self.scenario
        for name, pid in self._arrivals:
            self._schedule_next_arrival(self.customer_specs[name], pid, from_time=0.0)

        eng.register_periodic(sc.upstream.name, "activate-deliver", sc.upstream.deliver_every)
        for s in sc.suppliers:
            eng.register_periodic(s.name, "activate-deliver", s.deliver_every)
            eng.register_periodic(s.name, "activate-source", s.source_every)
        eng.register_periodic(self.firm_name, "activate-deliver", sc.firm.deliver_every)
        eng.register_periodic(self.firm_name, "activate-source", sc.firm.source_every)
        eng.register_periodic(self.firm_name, "activate-make", sc.firm.make_every)
        if sc.vcor_enabled("market"):
            eng.register_periodic(self.firm_name, "activate-market", sc.market.frequency_hours)
        if sc.vcor_enabled("sell"):
            eng.register_periodic(self.firm_name, "activate-sell", sc.sell.frequency_hours)
        eng.register_periodic(self.retailer_name, "activate-deliver", sc.retailer.deliver_every)
        eng.register_periodic(self.retailer_name, "activate-source", sc.retailer.source_every)

    def finalize(self) -> list[tuple[InventoryRecord, float]]:
        """Book holding costs from the integrated stock-level step functions.

        Returns each stock record with its level integral over the horizon,
        for the report's mean stock values: each record is integrated once.
        """
        stocks = []
        for record in self.inventories.values():
            integral = record.level_integral(self.horizon)
            if record.unit_holding_cost > 0:
                amount = record.unit_holding_cost * integral
                self.costs.add(self.horizon, record.owner, "holding", amount)
            stocks.append((record, integral))
        return stocks

    # ------------------------------------------------------------------
    # inventory helpers

    def _add_record(self, owner: str, item: Item, on_hand: float) -> InventoryRecord:
        record = InventoryRecord(owner, item, on_hand, *self.scenario.holdings[owner, item.code])
        self.inventories[(owner, item.code)] = record
        return record

    def record_of(self, owner: str, item: Item) -> InventoryRecord:
        """The owner's stock record of the item. Only a customer's or a prospect's
        is created here, at its first delivery; the chain builds every other."""
        key = (owner, item.code)
        record = self.inventories.get(key)
        if record is None:
            record = self._add_record(owner, item, 0.0)
        return record

    # ------------------------------------------------------------------
    # demand generation

    def _schedule_next_arrival(self, customer: CustomerSpec, pid: int, from_time: float) -> None:
        stream, row = self._arrivals[(customer.name, pid)]
        t = from_time
        while True:
            month_index = int(t // HOURS_PER_MONTH)
            monthly = row[month_index % 12]
            if monthly <= 0:
                t = (month_index + 1) * HOURS_PER_MONTH
                if t > self.horizon:
                    return
                continue
            if customer.arrivals == "memoryless":
                rng = self.engine.streams.stream(stream)
                orders_per_hour = monthly / (HOURS_PER_MONTH * customer.lot_size)
                nxt = t + rng.expovariate(orders_per_hour)
            else:
                nxt = t + HOURS_PER_MONTH * customer.lot_size / monthly
            break
        if nxt <= self.horizon:
            self.engine.schedule(
                nxt, customer.name, "customer-order", {"product": pid}
            )

    def _on_customer_order(self, engine: Engine, event: Event) -> None:
        now = event.fire_time
        customer = self.customer_specs[event.target]
        pid = event.payload["product"]
        self.place_order(
            client=customer.name,
            provider=self.retailer_name,
            item=product(pid),
            quantity=customer.lot_size,
            now=now,
        )
        self._schedule_next_arrival(customer, pid, from_time=now)

    # ------------------------------------------------------------------
    # ordering and reception

    def place_order(
        self,
        client: str,
        provider: str,
        item: Item,
        quantity: float,
        now: float,
        replacement_for: int | None = None,
        shippable_after: float | None = None,
    ) -> Order:
        """Append a new order and run the provider's reception process."""
        order = self.ledger.place(
            client=client,
            provider=provider,
            item=item,
            quantity=quantity,
            at=now,
            replacement_for=replacement_for,
            shippable_after=shippable_after,
        )
        self.receive_order(order, now)
        return order

    def receive_order(self, order: Order, now: float) -> None:
        if order.provider == self.firm_name:
            self.receive_firm_order(order, now)
        elif order.provider == self.upstream_name:
            # unbounded tier-2 source: goods are always on hand
            order.reserved = order.quantity
            self.ledger.transition(order.order_id, _FGI, now)
        else:
            self.top_up_reservations(order.provider, order.item, now)

    def receive_firm_order(self, order: Order, now: float) -> None:
        """Firm order reception: reserve finished stock or backlog production.

        Make-to-order products bypass stock entirely; make-to-stock orders
        reserve what finished inventory holds and queue the shortfall.
        """
        if order.item.kind != PRODUCT:
            raise OrderValidationError(
                f"the firm only sells finished products, got {order.item.code}"
            )
        pid = order.item.id
        mode = self.scenario.firm.production_mode.get(pid, "make-to-stock")
        if mode == "make-to-order":
            self.production_queue.append(order)
            return
        record = self.record_of(self.firm_name, order.item)
        take = min(record.on_hand, order.quantity)
        if take > 0:
            record.adjust(-take, now)
            order.reserved += take
        if order.reserved >= order.quantity - _EPS:
            self.ledger.transition(order.order_id, _FGI, now)
        else:
            self.production_queue.append(order)

    def top_up_reservations(self, provider: str, item: Item, now: float) -> None:
        """Reserve available stock against the provider's open orders, oldest first."""
        record = self.inventories[(provider, item.code)]
        for order in self.ledger.open_orders(provider, item):
            if record.on_hand <= _EPS:
                break
            take = min(order.quantity - order.reserved, record.on_hand)
            record.adjust(-take, now)
            order.reserved += take
            if order.reserved >= order.quantity - _EPS:
                self.ledger.transition(order.order_id, _FGI, now)

    def check_reorders(self, actor: str, now: float) -> list[Order]:
        """(s, S) check over the actor's policied items; one outstanding order max."""
        placed = []
        for item, policy, record, provider in self._reorder_rows[actor]:
            if record.on_hand >= policy.point:
                continue  # strictly-under trigger
            if self.ledger.outstanding_replenishment(actor, item):
                continue
            quantity = policy.up_to - record.on_hand
            placed.append(self.place_order(actor, provider, item, quantity, now))
        return placed

    def _on_source(self, engine: Engine, event: Event) -> None:
        self.check_reorders(event.target, event.fire_time)

    # ------------------------------------------------------------------
    # production

    def raw_limited_boxes(self, pid: int) -> float:
        """How many boxes the firm's raw stock allows for one product."""
        needs = self.bom.get(pid)
        if not needs:
            return math.inf
        limit = math.inf
        for rid, kg_per_box in needs.items():
            on_hand = self.record_of(self.firm_name, raw(rid)).on_hand
            limit = min(limit, math.floor(on_hand / kg_per_box + _EPS))
        return limit

    def run_production(self, now: float) -> float:
        """One production activation: pro-rated capacity with fractional carry.

        Produces whole boxes FIFO through the backlog, consumes raws per the
        recipe, credits finished boxes straight into the owning orders'
        reservations, and asks Source for raws when the line starves.
        """
        rate = self.scenario.firm.capacity_boxes_per_day / 24.0
        budget = self.capacity_carry + rate * (now - self.last_capacity_accrual)
        self.last_capacity_accrual = now
        capacity = float(math.floor(budget + _EPS))
        produced_total = 0.0

        for order in list(self.production_queue):
            if capacity <= _EPS:
                break
            pid = order.item.id
            remaining = order.quantity - order.reserved
            limit = self.raw_limited_boxes(pid)
            n = min(remaining, capacity, limit)
            if n < remaining - _EPS:
                n = float(math.floor(n + _EPS))  # whole boxes unless finishing
            if n <= _EPS:
                continue
            for rid, kg_per_box in self.bom.get(pid, {}).items():
                self.record_of(self.firm_name, raw(rid)).adjust(-n * kg_per_box, now)
                self.consumed_raw_kg[rid] = self.consumed_raw_kg.get(rid, 0.0) + n * kg_per_box
            if order.status is _OPEN:
                self.ledger.transition(order.order_id, _IN_PRODUCTION, now)
            order.reserved += n
            capacity -= n
            produced_total += n
            self.produced_boxes[pid] = self.produced_boxes.get(pid, 0.0) + n
            if self.scenario.production_cost_per_box:
                self.costs.add(
                    now, self.firm_name, "production",
                    n * self.scenario.production_cost_per_box,
                )
            if order.quantity - order.reserved <= _EPS:
                self.production_queue.remove(order)
                self.ledger.transition(order.order_id, _FGI, now)

        leftover = budget - produced_total
        self.capacity_carry = leftover - math.floor(leftover + _EPS)  # keep the fraction
        if self.production_queue and capacity >= 1.0:
            # line starved on raws with capacity to spare: reorder now
            self.check_reorders(self.firm_name, now)
        return produced_total

    def _on_make(self, engine: Engine, event: Event) -> None:
        self.run_production(event.fire_time)

    # ------------------------------------------------------------------
    # delivery

    def ship_orders(self, provider: str, now: float) -> list[Order]:
        """Ship every fully reserved, hold-free order of this provider."""
        shippable = [
            o for o in self.ledger.fgi_orders(provider) if o.shippable_after <= now + _EPS
        ]
        if not shippable:
            return shippable
        lead_time, stream = self._shipping[provider]
        rng = self.engine.streams.stream(stream)
        for order in shippable:
            self.ledger.transition(order.order_id, _IN_TRANSIT, now)
            lead = lead_time.draw(rng)
            self.engine.schedule(
                now + lead, order.client, "order-arrival", {"order_id": order.order_id}
            )
        return shippable

    def _on_deliver(self, engine: Engine, event: Event) -> None:
        if self.ledger.holds_fgi(event.target):  # most activations find nothing
            self.ship_orders(event.target, event.fire_time)

    def _on_arrival(self, engine: Engine, event: Event) -> None:
        now = event.fire_time
        order = self.ledger.orders[event.payload["order_id"]]
        self.ledger.transition(order.order_id, _DELIVERED, now)

        unit_price = self.scenario.price_of(order.provider, order.item)
        amount = order.quantity * unit_price
        self.costs.add(now, order.client, "purchase", amount)
        self.costs.add(now, order.provider, "sales-revenue", amount)

        self.record_of(order.client, order.item).adjust(order.quantity, now)
        if order.provider == self.firm_name and order.item.kind == PRODUCT:
            self.firm_sales_boxes[order.item.id] = (
                self.firm_sales_boxes.get(order.item.id, 0.0) + order.quantity
            )
        self.top_up_reservations(order.client, order.item, now)

        if order.client in self.customer_specs and order.item.kind == PRODUCT:
            self._flag_defect_if_drawn(order, now)
            if order.replacement_for is not None:
                self._resolve_ticket(order, now)
            voter = self.voters.get((order.client, order.item.id))
            if voter is not None:
                self._update_vote(voter, order, now, unit_price)

    # ------------------------------------------------------------------
    # support loop

    def _flag_defect_if_drawn(self, order: Order, now: float) -> None:
        p_def = self.defect_probability.get(order.item.id, 0.0)
        if p_def <= 0:
            return
        rng = self.engine.streams.stream(self._defect_stream)
        if rng.random() >= p_def:
            return
        fraction = rng.uniform(0.0, self.scenario.support.max_defective_fraction)
        defective = min(order.quantity, max(1.0, round(fraction * order.quantity)))
        order.defective_qty = defective
        if self.scenario.vcor_enabled("support"):
            self.ledger.transition(order.order_id, _RETURN_REQUESTED, now)
            self.engine.schedule(
                now, self.retailer_name, "support-intake", {"order_id": order.order_id}
            )

    def _on_support_intake(self, engine: Engine, event: Event) -> None:
        """Register the incident and write the replacement order (held for
        the support handling time before it may ship)."""
        now = event.fire_time
        order = self.ledger.orders[event.payload["order_id"]]
        ticket = self.ledger.open_ticket(order, at=now)
        replacement = self.place_order(
            client=order.client,
            provider=self.retailer_name,
            item=order.item,
            quantity=ticket.defective_qty,
            now=now,
            replacement_for=ticket.ticket_id,
            shippable_after=now + self.scenario.support.handling_hours,
        )
        ticket.replacement_order_id = replacement.order_id
        if self.scenario.support_cost_per_ticket:
            self.costs.add(
                now, self.retailer_name, "support", self.scenario.support_cost_per_ticket
            )

    def _resolve_ticket(self, replacement: Order, now: float) -> None:
        """Replacement delivered: close the incident, educate, latch the
        satisfied-support signal for the customer's next vote update."""
        ticket = self.ledger.tickets[replacement.replacement_for]
        ticket.resolved_at = now
        original = self.ledger.orders[ticket.order_id]
        if original.status is _RETURN_REQUESTED:
            self.ledger.transition(original.order_id, _RESOLVED, now)
        pid = ticket.item.id
        decay = self.scenario.support.education_decay
        self.defect_probability[pid] = self.defect_probability.get(pid, 0.0) * decay
        self.support_latch[replacement.client] = True

    # ------------------------------------------------------------------
    # satisfaction

    def _peer_vote(self, voter: Voter, pid: int) -> float:
        """Mean vote of the product's other voters."""
        others = [v.x for v in self._voters_of[pid] if v is not voter]
        return _left_sum(others) / len(others) if others else 0.0

    def _update_vote(self, voter: Voter, order: Order, now: float, unit_price: float) -> None:
        customer = order.client
        voter._deliver(
            self.scenario.satisfaction,
            now - order.created_at,
            (order.quantity - order.defective_qty) / order.quantity,
            unit_price,
            self.support_latch.get(customer, False),
            self._peer_vote(voter, order.item.id),
        )
        # built in C: VoteEntry(...) would go through a Python-level __new__
        self.satisfaction_series.append(
            tuple.__new__(VoteEntry, (now, customer, order.item.code, voter.k, voter.x))
        )
        self.support_latch[customer] = False  # consume the one-shot signal

    # ------------------------------------------------------------------
    # market, research & develop

    def _on_market(self, engine: Engine, event: Event) -> None:
        self.analyze_market(event.fire_time)

    def analyze_market(self, now: float) -> int | None:
        """Check mean customer satisfaction; below threshold, pick the worst
        seller and start acquiring production technology for it."""
        if not self.scenario.vcor_enabled("research"):
            return None
        if self.renewing is not None or not self.voters:
            return None
        mean_vote = _left_sum(v.x for v in self.voters.values()) / len(self.voters)
        if mean_vote >= self.scenario.market.vote_threshold:
            return None
        target = renewal_target(self.firm_sales_boxes, self.renewed_products)
        if target is None:
            return None
        self.renewing = target
        self.engine.schedule(
            now + self.scenario.innovation.delay_hours,
            self.firm_name,
            "innovation-complete",
            {"product": target},
        )
        return target

    def _on_innovation_complete(self, engine: Engine, event: Event) -> None:
        self.apply_innovation(event.payload["product"], event.fire_time)

    def apply_innovation(self, pid: int, now: float) -> None:
        """Technology introduced: swap the recipe, book the cost, and launch
        (raise every buying customer's new-product flag)."""
        override = self.scenario.innovation.bom_override
        if override is not None:
            self.bom[pid] = dict(override)
        if self.renewing is not None:
            cost = self.scenario.innovation.technology_cost
            self.costs.add(now, self.firm_name, "technology", cost)
        self.renewed_products.add(pid)
        self.renewing = None
        if self.scenario.vcor_enabled("develop"):
            self.launches.append((now, pid))
            for voter in self._voters_of.get(pid, ()):
                voter.new_product = True

    # ------------------------------------------------------------------
    # sell

    def _on_sell(self, engine: Engine, event: Event) -> None:
        self.qualify_and_contract(event.fire_time)

    def qualify_and_contract(self, now: float) -> list[ProspectSpec]:
        """Admit prospects under the reserved-capacity cap and start their
        recurring order streams."""
        cap = (
            self.scenario.sell.capacity_fraction
            * self.scenario.firm.capacity_boxes_per_day
        )
        admitted = admit_prospects(
            self.scenario.sell.prospects,
            set(self.contracts),
            _left_sum(c.prospect.boxes_per_day for c in self.contracts.values()),
            cap,
        )
        for prospect in admitted:
            self.contracts[prospect.name] = Contract(prospect)
            first = now + self.scenario.sell.order_interval_hours
            if first <= self.horizon:
                self.engine.schedule(
                    first,
                    self.firm_name,
                    "contract-order",
                    {"prospect": prospect.name, "product": prospect.product},
                )
        return admitted

    def _on_contract_order(self, engine: Engine, event: Event) -> None:
        now = event.fire_time
        contract = self.contracts[event.payload["prospect"]]
        interval = self.scenario.sell.order_interval_hours
        contract.accumulated += contract.prospect.boxes_per_day * interval / 24.0
        quantity = math.floor(contract.accumulated + _EPS)
        if quantity >= 1:
            contract.accumulated -= quantity
            self.place_order(
                client=contract.prospect.name,
                provider=self.firm_name,
                item=product(contract.prospect.product),
                quantity=float(quantity),
                now=now,
            )
        nxt = now + interval
        if nxt <= self.horizon:
            self.engine.schedule(
                nxt,
                self.firm_name,
                "contract-order",
                {"prospect": contract.prospect.name, "product": contract.prospect.product},
            )
