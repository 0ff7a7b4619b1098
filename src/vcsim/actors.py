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
from .satisfaction import (
    InputSignals,
    VoteState,
    customer_input,
    innovation_gain,
    update_vote,
)
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
class ProductionJob:
    """Backlogged demand waiting for the production line, FIFO."""

    order_id: int
    product_id: int
    remaining: float


@dataclass(slots=True)
class SupportState:
    """Retailer-side support knobs; education only ever lowers defect rates."""

    defect_probability: dict[int, float]
    education_decay: float
    handling_hours: float
    max_defective_fraction: float

    def educate(self, product_id: int) -> None:
        current = self.defect_probability.get(product_id, 0.0)
        self.defect_probability[product_id] = current * self.education_decay


@dataclass(slots=True)
class InnovationProject:
    product_id: int
    apply_at: float
    cost: float


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


@dataclass(slots=True)
class _SignalStats:
    """Running per-(customer, product) means feeding the vote-update signals."""

    deliveries: int = 0
    time_total: float = 0.0
    conform_total: float = 0.0


class Chain:
    """All actor state and process logic of one run."""

    def __init__(self, scenario: Scenario, engine: Engine) -> None:
        self.scenario = scenario
        self.engine = engine
        self.horizon = scenario.horizon_hours

        items = {product(p) for p in scenario.products} | {raw(r) for r in scenario.raws}
        self.ledger = Ledger(known_actors=scenario.actor_names(), known_items=items)
        self.costs = CostLedger()

        self.firm_name = scenario.firm.name
        self.retailer_name = scenario.retailer.name
        self.upstream_name = scenario.upstream.name
        self.customer_specs: dict[str, CustomerSpec] = {
            c.name: c for c in scenario.customers
        }

        self.lead_times = {scenario.upstream.name: scenario.upstream.lead_time}
        for s in scenario.suppliers:
            self.lead_times[s.name] = s.lead_time
        self.lead_times[self.firm_name] = scenario.firm.lead_time
        self.lead_times[self.retailer_name] = scenario.retailer.lead_time
        # random stream names, formatted once rather than per event
        self._transport_stream = {name: f"{name}:transport" for name in self.lead_times}
        self._defect_stream = f"{self.retailer_name}:defects"
        self._products_of = scenario.demand.products_by_customer()

        # reorder policies per actor, in deterministic item order
        self.policies: dict[str, dict[Item, ReorderPolicy]] = {}
        self.policies[self.retailer_name] = {
            product(pid): pol for pid, pol in sorted(scenario.retailer.reorder.items())
        }
        self.policies[self.firm_name] = {
            raw(rid): pol for rid, pol in sorted(scenario.firm.raw_reorder.items())
        }
        for s in scenario.suppliers:
            self.policies[s.name] = {
                raw(rid): pol for rid, pol in sorted(s.reorder.items())
            }

        self.inventories: dict[tuple[str, str], InventoryRecord] = {}
        for s in scenario.suppliers:
            for rid in s.raws:
                self._add_record(s.name, raw(rid), s.stock_kg.get(rid, 0.0))
        for pid in scenario.products:
            self._add_record(self.firm_name, product(pid), scenario.firm.fgi.get(pid, 0.0))
        for rid in scenario.raws:
            self._add_record(self.firm_name, raw(rid), scenario.firm.raw_stock_kg.get(rid, 0.0))
        for pid in scenario.products:
            self._add_record(
                self.retailer_name, product(pid), scenario.retailer.stock.get(pid, 0.0)
            )

        # firm production state; recipes may be swapped by a product renewal
        self.bom: dict[int, dict[int, float]] = {
            pid: dict(needs) for pid, needs in scenario.bom.items()
        }
        self.production_queue: list[ProductionJob] = []
        self.capacity_carry = 0.0
        self.last_capacity_accrual = 0.0
        self.produced_boxes: dict[int, float] = {}
        self.consumed_raw_kg: dict[int, float] = {}
        self.firm_sales_boxes: dict[int, float] = {pid: 0.0 for pid in scenario.products}

        # market / research / develop / sell state
        self.active_project: InnovationProject | None = None
        self.renewed_products: set[int] = set()
        self.launches: list[tuple[float, int]] = []
        self.contracts: dict[str, Contract] = {}
        self.committed_rate = 0.0

        # support state
        self.support = SupportState(
            defect_probability=dict(scenario.support.defect_probability),
            education_decay=scenario.support.education_decay,
            handling_hours=scenario.support.handling_hours,
            max_defective_fraction=scenario.support.max_defective_fraction,
        )

        # satisfaction state, one entry per (customer, product) with demand
        initial = VoteState(x=scenario.satisfaction.initial_vote)
        self.votes: dict[tuple[str, int], VoteState] = {
            (c.name, pid): initial
            for c in scenario.customers
            for pid in self._products_of.get(c.name, [])
        }
        self.innovation_flag: dict[tuple[str, int], bool] = dict.fromkeys(self.votes, False)
        self.support_latch: dict[str, bool] = {c.name: False for c in scenario.customers}
        self.signal_stats: dict[tuple[str, int], _SignalStats] = {
            key: _SignalStats() for key in self.votes
        }
        self.last_unit_price: dict[tuple[str, int], float] = {}
        self.satisfaction_series: list[dict] = []
        # the flags keep their keys even where a caller replaces ``votes``
        self._flag_keys = self._voters

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

    @property
    def votes(self) -> dict[tuple[str, int], VoteState]:
        """Vote per (customer, product). Assigning a new mapping re-indexes
        it for the peer means; a key added to the mapping in place is not
        indexed."""
        return self._votes

    @votes.setter
    def votes(self, votes: dict[tuple[str, int], VoteState]) -> None:
        # each product's vote keys in ``votes`` order, so a peer mean adds
        # the same floats in the same order as a scan of every vote
        self._votes = votes
        self._voters: dict[int, list[tuple[str, int]]] = {}
        for key in votes:
            self._voters.setdefault(key[1], []).append(key)

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
        for c in sc.customers:
            for pid in self._products_of.get(c.name, []):
                self._schedule_next_arrival(c, pid, from_time=0.0)

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

    def finalize(self) -> None:
        """Book holding costs from the integrated stock-level step functions."""
        for record in self.inventories.values():
            if record.unit_holding_cost > 0:
                amount = record.unit_holding_cost * record.level_integral(self.horizon)
                self.costs.add(self.horizon, record.owner, "holding", amount)

    # ------------------------------------------------------------------
    # inventory helpers

    def _add_record(self, owner: str, item: Item, on_hand: float) -> InventoryRecord:
        record = InventoryRecord(
            owner=owner,
            item=item,
            on_hand=on_hand,
            unit_holding_cost=self.scenario.holding_cost_of(owner, item),
            unit_value=self._unit_value(owner, item),
        )
        self.inventories[(owner, item.code)] = record
        return record

    def _unit_value(self, owner: str, item: Item) -> float:
        own_price = self.scenario.prices.get(owner, {}).get(item.code)
        if own_price is not None:
            return own_price
        if owner == self.firm_name and item.kind != PRODUCT:
            source = self.scenario.raw_sources.get(item.id)
            if source is not None:
                return self.scenario.prices.get(source, {}).get(item.code, 0.0)
        return 0.0

    def record_of(self, owner: str, item: Item) -> InventoryRecord:
        key = (owner, item.code)
        record = self.inventories.get(key)
        if record is None:
            record = self._add_record(owner, item, 0.0)
        return record

    # ------------------------------------------------------------------
    # demand generation

    def _schedule_next_arrival(self, customer: CustomerSpec, pid: int, from_time: float) -> None:
        t = from_time
        while True:
            month_index = int(t // HOURS_PER_MONTH)
            month = month_index % 12 + 1
            monthly = self.scenario.demand.boxes_for(customer.name, pid, month)
            if monthly <= 0:
                t = (month_index + 1) * HOURS_PER_MONTH
                if t > self.horizon:
                    return
                continue
            if customer.arrivals == "memoryless":
                rng = self.engine.streams.stream(f"{customer.name}:arrivals:P{pid}")
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
            self.production_queue.append(
                ProductionJob(order.order_id, pid, order.quantity)
            )
            return
        record = self.record_of(self.firm_name, order.item)
        take = min(record.on_hand, order.quantity)
        if take > 0:
            record.adjust(-take, now)
            order.reserved += take
        if order.reserved >= order.quantity - _EPS:
            self.ledger.transition(order.order_id, _FGI, now)
        else:
            self.production_queue.append(
                ProductionJob(order.order_id, pid, order.quantity - order.reserved)
            )

    def top_up_reservations(self, provider: str, item: Item, now: float) -> None:
        """Reserve available stock against the provider's open orders, oldest first."""
        record = self.inventories.get((provider, item.code))
        if record is None:
            return
        for order in self.ledger.open_orders(provider, item):
            if record.on_hand <= _EPS:
                break
            need = order.quantity - order.reserved
            if need <= _EPS:
                continue
            take = min(need, record.on_hand)
            record.adjust(-take, now)
            order.reserved += take
            if order.reserved >= order.quantity - _EPS:
                self.ledger.transition(order.order_id, _FGI, now)

    def check_reorders(self, actor: str, now: float) -> list[Order]:
        """(s, S) check over the actor's policied items; one outstanding order max."""
        placed = []
        for item, policy in self.policies.get(actor, {}).items():
            record = self.record_of(actor, item)
            if record.on_hand >= policy.point:
                continue  # strictly-under trigger
            if self.ledger.outstanding_replenishment(actor, item):
                continue
            quantity = policy.up_to - record.on_hand
            provider = self._provider_for(actor, item)
            placed.append(self.place_order(actor, provider, item, quantity, now))
        return placed

    def _provider_for(self, actor: str, item: Item) -> str:
        if actor == self.retailer_name:
            return self.firm_name
        if actor == self.firm_name:
            return self.scenario.raw_sources[item.id]
        return self.upstream_name  # suppliers restock from the tier-2 source

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

        for job in list(self.production_queue):
            if capacity <= _EPS:
                break
            limit = self.raw_limited_boxes(job.product_id)
            n = min(job.remaining, capacity, limit)
            if n < job.remaining - _EPS:
                n = float(math.floor(n + _EPS))  # whole boxes unless finishing
            if n <= _EPS:
                continue
            for rid, kg_per_box in self.bom.get(job.product_id, {}).items():
                self.record_of(self.firm_name, raw(rid)).adjust(-n * kg_per_box, now)
                self.consumed_raw_kg[rid] = self.consumed_raw_kg.get(rid, 0.0) + n * kg_per_box
            order = self.ledger.orders[job.order_id]
            if order.status is _OPEN:
                self.ledger.transition(order.order_id, _IN_PRODUCTION, now)
            order.reserved += n
            job.remaining -= n
            capacity -= n
            produced_total += n
            self.produced_boxes[job.product_id] = (
                self.produced_boxes.get(job.product_id, 0.0) + n
            )
            if self.scenario.production_cost_per_box:
                self.costs.add(
                    now, self.firm_name, "production",
                    n * self.scenario.production_cost_per_box,
                )
            if job.remaining <= _EPS:
                self.production_queue.remove(job)
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
        rng = self.engine.streams.stream(self._transport_stream[provider])
        lead_time = self.lead_times[provider]
        for order in shippable:
            self.ledger.transition(order.order_id, _IN_TRANSIT, now)
            lead = lead_time.draw(rng)
            self.engine.schedule(
                now + lead, order.client, "order-arrival", {"order_id": order.order_id}
            )
        return shippable

    def _on_deliver(self, engine: Engine, event: Event) -> None:
        self.ship_orders(event.target, event.fire_time)

    def _on_arrival(self, engine: Engine, event: Event) -> None:
        now = event.fire_time
        order = self.ledger.orders[event.payload["order_id"]]
        self.ledger.transition(order.order_id, _DELIVERED, now)

        amount = order.quantity * self.scenario.price_of(order.provider, order.item)
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
            key = (order.client, order.item.id)
            if key in self._votes:
                self._update_vote(order, now)

    # ------------------------------------------------------------------
    # support loop

    def _flag_defect_if_drawn(self, order: Order, now: float) -> None:
        p_def = self.support.defect_probability.get(order.item.id, 0.0)
        if p_def <= 0:
            return
        rng = self.engine.streams.stream(self._defect_stream)
        if rng.random() >= p_def:
            return
        fraction = rng.uniform(0.0, self.support.max_defective_fraction)
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
        ticket = self.ledger.open_ticket(
            order, order.defective_qty, order.client, at=now
        )
        replacement = self.place_order(
            client=order.client,
            provider=self.retailer_name,
            item=order.item,
            quantity=ticket.defective_qty,
            now=now,
            replacement_for=ticket.ticket_id,
            shippable_after=now + self.support.handling_hours,
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
        self.support.educate(ticket.item.id)
        self.support_latch[replacement.client] = True

    # ------------------------------------------------------------------
    # satisfaction

    def _peer_vote(self, customer: str, pid: int) -> float:
        votes = self._votes
        others = [votes[key].x for key in self._voters.get(pid, ()) if key[0] != customer]
        return _left_sum(others) / len(others) if others else 0.0

    def _update_vote(self, order: Order, now: float) -> None:
        customer, pid = order.client, order.item.id
        key = (customer, pid)
        state = self._votes[key]
        stats = self.signal_stats[key]
        params = self.scenario.satisfaction.params

        delivery_time = now - order.created_at
        conform = (order.quantity - order.defective_qty) / order.quantity
        unit_price = self.scenario.price_of(order.provider, order.item)

        if stats.deliveries:
            mean_time = stats.time_total / stats.deliveries
            delay_pct = 100.0 * (delivery_time - mean_time) / mean_time if mean_time > 0 else 0.0
            mean_conform = stats.conform_total / stats.deliveries
            quality_pct = 100.0 * conform / mean_conform if mean_conform > 0 else 100.0 * conform
        else:
            delay_pct = 0.0
            quality_pct = 100.0
        previous_price = self.last_unit_price.get(key)
        price_change_pct = (
            100.0 * (unit_price - previous_price) / previous_price
            if previous_price
            else 0.0
        )

        flagged_new = self.innovation_flag.get(key, False)
        signals = InputSignals(
            new_product=flagged_new,
            support_resolved=self.support_latch.get(customer, False),
            price_change_pct=price_change_pct,
            delay_pct=delay_pct,
            quality_pct=quality_pct,
            peer_vote=self._peer_vote(customer, pid),
        )
        gain = innovation_gain(state.x, params.forgetting_factor) if flagged_new else 0.0
        new_state = update_vote(state, customer_input(gain, signals, params), params)
        self._votes[key] = new_state
        self.satisfaction_series.append(
            {
                "k": new_state.k,
                "customer": customer,
                "product": order.item.code,
                "vote": new_state.x,
                "time": now,
            }
        )

        # consume the one-shot signals, then roll the running means forward
        if flagged_new:
            self.innovation_flag[key] = False
        self.support_latch[customer] = False
        self.last_unit_price[key] = unit_price
        stats.deliveries += 1
        stats.time_total += delivery_time
        stats.conform_total += conform

    # ------------------------------------------------------------------
    # market, research & develop

    def _on_market(self, engine: Engine, event: Event) -> None:
        self.analyze_market(event.fire_time)

    def analyze_market(self, now: float) -> int | None:
        """Check mean customer satisfaction; below threshold, pick the worst
        seller and start acquiring production technology for it."""
        if not self.scenario.vcor_enabled("research"):
            return None
        if self.active_project is not None or not self.votes:
            return None
        mean_vote = _left_sum(s.x for s in self.votes.values()) / len(self.votes)
        if mean_vote >= self.scenario.market.vote_threshold:
            return None
        target = renewal_target(self.firm_sales_boxes, self.renewed_products)
        if target is None:
            return None
        self.active_project = InnovationProject(
            product_id=target,
            apply_at=now + self.scenario.innovation.delay_hours,
            cost=self.scenario.innovation.technology_cost,
        )
        self.engine.schedule(
            self.active_project.apply_at,
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
        if self.active_project is not None:
            self.costs.add(now, self.firm_name, "technology", self.active_project.cost)
        self.renewed_products.add(pid)
        self.active_project = None
        if self.scenario.vcor_enabled("develop"):
            self.launches.append((now, pid))
            for key in self._flag_keys.get(pid, ()):
                self.innovation_flag[key] = True

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
            self.committed_rate,
            cap,
        )
        for prospect in admitted:
            self.contracts[prospect.name] = Contract(prospect)
            self.committed_rate += prospect.boxes_per_day
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
