"""Shared scenario builder for process-level tests, and the ledger view oracle.

Builds a small two-product chain (one supplier covering both raws, firm,
retailer, one or two customers) with every knob overridable, so each test
states only the parameters it is actually about.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

import pytest

from vcsim.actors import Chain
from vcsim.engine import Engine
from vcsim.ledger import Item, Ledger, OrderStatus
from vcsim.satisfaction import SatisfactionParams
from vcsim.scenario import (
    CustomerSpec,
    DemandTable,
    FirmSpec,
    InnovationConfig,
    LeadTime,
    MarketConfig,
    ProspectSpec,
    ReorderPolicy,
    RetailerSpec,
    Scenario,
    SellConfig,
    SupplierSpec,
    SupportConfig,
    UpstreamSpec,
    VCOR_PROCESSES,
)


def build_scenario(
    mode: str = "scor",
    processes: dict[str, bool] | None = None,
    seed: int = 1,
    horizon: float = 48.0,
    products: tuple[int, ...] = (1, 2),
    fgi: dict[int, float] | None = None,
    firm_raw_stock: dict[int, float] | None = None,
    production_mode: dict[int, str] | None = None,
    capacity_per_day: float = 185.0,
    retailer_stock: dict[int, float] | None = None,
    retailer_policies: dict[int, ReorderPolicy] | None = None,
    demand_rows: dict[tuple[str, int], tuple[float, ...]] | None = None,
    customers: list[CustomerSpec] | None = None,
    lead_hours: float = 1.5,
    defect_probability: dict[int, float] | None = None,
    education_decay: float = 0.9,
    handling_hours: float = 2.3,
    max_defective_fraction: float = 0.25,
    params: SatisfactionParams | None = None,
    initial_vote: float = 8.0,
    vote_threshold: float = 6.0,
    market_every: float = 6.0,
    innovation_delay: float = 8.0,
    technology_cost: float = 500.0,
    bom_override: dict[int, float] | None = None,
    prospects: tuple[ProspectSpec, ...] = (),
    capacity_fraction: float = 0.5,
    sell_every: float = 12.0,
    contract_interval: float = 6.0,
) -> Scenario:
    raws = products
    if processes is None:
        processes = {p: mode == "vcor" for p in VCOR_PROCESSES}
    if demand_rows is None:
        demand_rows = {("customer1", pid): (720.0,) * 12 for pid in products}
    if customers is None:
        customers = [CustomerSpec(name="customer1", lot_size=10.0)]
    return Scenario(
        name="test-chain",
        seed=seed,
        horizon_hours=horizon,
        mode=mode,
        processes=processes,
        products=products,
        raws=raws,
        bom={pid: {pid: 1.0} for pid in products},
        suppliers=[
            SupplierSpec(
                name="supplier1",
                raws=raws,
                stock_kg={rid: 1000.0 for rid in raws},
                reorder={rid: ReorderPolicy(50.0, 1000.0) for rid in raws},
                lead_time=LeadTime(hours=lead_hours),
            )
        ],
        raw_sources={rid: "supplier1" for rid in raws},
        firm=FirmSpec(
            fgi=fgi if fgi is not None else {pid: 500.0 for pid in products},
            raw_stock_kg=(
                firm_raw_stock
                if firm_raw_stock is not None
                else {rid: 500.0 for rid in raws}
            ),
            raw_reorder={rid: ReorderPolicy(100.0, 400.0) for rid in raws},
            production_mode=production_mode or {},
            capacity_boxes_per_day=capacity_per_day,
            lead_time=LeadTime(hours=lead_hours),
        ),
        retailer=RetailerSpec(
            stock=(
                retailer_stock
                if retailer_stock is not None
                else {pid: 200.0 for pid in products}
            ),
            reorder=retailer_policies
            if retailer_policies is not None
            else {pid: ReorderPolicy(100.0, 500.0) for pid in products},
            lead_time=LeadTime(hours=lead_hours),
        ),
        customers=customers,
        upstream=UpstreamSpec(lead_time=LeadTime(hours=2.0)),
        demand=DemandTable(rows=demand_rows),
        prices={
            "retailer": {f"P{p}": 10.0 for p in products},
            "firm": {f"P{p}": 8.0 for p in products},
            "supplier1": {f"R{r}": 2.0 for r in raws},
            "upstream": {f"R{r}": 1.5 for r in raws},
        },
        holding_costs={},
        production_cost_per_box=0.5,
        support_cost_per_ticket=5.0,
        satisfaction=replace(params or SatisfactionParams(), initial_vote=initial_vote),
        support=SupportConfig(
            defect_probability=defect_probability or {},
            education_decay=education_decay,
            handling_hours=handling_hours,
            max_defective_fraction=max_defective_fraction,
        ),
        market=MarketConfig(vote_threshold=vote_threshold, frequency_hours=market_every),
        innovation=InnovationConfig(
            delay_hours=innovation_delay,
            technology_cost=technology_cost,
            bom_override=bom_override,
        ),
        sell=SellConfig(
            capacity_fraction=capacity_fraction,
            frequency_hours=sell_every,
            order_interval_hours=contract_interval,
            prospects=prospects,
        ),
    )


def build_chain(scenario: Scenario) -> Chain:
    """Chain with a fresh engine, NOT registered: tests drive ops directly."""
    return Chain(scenario, Engine(seed=scenario.seed))


@pytest.fixture
def scenario_builder():
    return build_scenario


@pytest.fixture
def chain_builder():
    def _build(**kwargs) -> Chain:
        return build_chain(build_scenario(**kwargs))

    return _build


#: statuses in which the ordered goods have not yet reached the client
OUTSTANDING = frozenset(
    {OrderStatus.OPEN, OrderStatus.IN_PRODUCTION, OrderStatus.FGI, OrderStatus.IN_TRANSIT}
)


def assert_views_match_scan(
    ledger: Ledger,
    providers: Iterable[str] = (),
    items: Iterable[Item] = (),
    clients: Iterable[str] = (),
) -> None:
    """Check every demand view against a brute-force scan of ``ledger.orders``.

    The parties and items checked are those given plus every one that
    appears in the ledger.
    """
    oldest_first = sorted(ledger.orders.values(), key=lambda o: (o.created_at, o.order_id))
    providers = set(providers) | {o.provider for o in oldest_first}
    items = set(items) | {o.item for o in oldest_first}
    clients = set(clients) | {o.client for o in oldest_first}

    def scan(provider: str, status: OrderStatus, item: Item | None = None) -> list[int]:
        return [
            o.order_id
            for o in oldest_first
            if o.provider == provider
            and o.status is status
            and (item is None or o.item == item)
        ]

    for provider in providers:
        assert [o.order_id for o in ledger.fgi_orders(provider)] == scan(
            provider, OrderStatus.FGI
        )
        for item in items:
            assert [o.order_id for o in ledger.open_orders(provider, item)] == scan(
                provider, OrderStatus.OPEN, item
            )
    for client in clients:
        for item in items:
            assert ledger.outstanding_replenishment(client, item) == any(
                o.client == client and o.item == item and o.status in OUTSTANDING
                for o in oldest_first
            )
