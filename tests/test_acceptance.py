"""Acceptance suite.

Eight exit criteria, one test each, every tolerance pinned in the assert.
Each criterion prints one `[acceptance] criterion N PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py` or in captured output).
"""

import functools
import random
import time

import pytest

from vcsim.ledger import product, raw
from vcsim.metrics import sales_profitability, stock_mean_time, stock_rotation
from vcsim.satisfaction import (
    SatisfactionParams,
    customer_input,
    innovation_gain,
    update_vote,
)
from vcsim.scenario import (
    CustomerSpec,
    DemandTable,
    FirmSpec,
    HOURS_PER_MONTH,
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
    case_study_scenario,
)
from vcsim.simulation import run_scenario

from test_satisfaction import innovation_step, zero_input_decay

VCOR_EVENT_KINDS = {
    "activate-market",
    "activate-sell",
    "contract-order",
    "innovation-complete",
    "support-intake",
}


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} FAIL: {label}")
                raise
            print(f"[acceptance] criterion {number} PASS: {label}")
            return result

        return wrapper

    return decorate


# -- 1 ---------------------------------------------------------------------

REFERENCE_INDICATOR_PAIRS = [
    # (stock rotation, stock mean time in hours): finished goods and raw
    # materials, value-chain and baseline configurations, 48-hour period
    (22.4, 2.13),
    (12.34, 3.88),
    (1.2, 39.8),
    (0.69, 68.8),
]


@criterion(1, "reference indicator pairs satisfy rotation x mean-time = period")
def test_reference_pairs_consistent_with_48h_period():
    for rotation, mean_time in REFERENCE_INDICATOR_PAIRS:
        period = rotation * mean_time
        assert 47.4 <= period <= 48.0, (rotation, mean_time, period)


# -- 2 ---------------------------------------------------------------------


@criterion(2, "satisfaction closed forms: decay, innovation step, convergence")
def test_satisfaction_closed_forms():
    rng = random.Random(20260810)

    # (a) zero-input decay x_n = (1-a)^n x0, exact to 1e-12, 100 draws
    for _ in range(100):
        x0 = rng.uniform(0.0, 10.0)
        alpha = rng.uniform(0.01, 0.99)
        n = rng.randint(0, 50)
        seq = zero_input_decay(x0, alpha, n)
        assert abs(seq[-1] - (1.0 - alpha) ** n * x0) <= 1e-12

    # (b) innovation step from x=0 is exactly 9 for 100 random alphas
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.99)
        assert innovation_step(0.0, alpha) == 9.0
        # the two-step route through the gain agrees to float precision
        params = SatisfactionParams(forgetting_factor=alpha)
        u = customer_input(innovation_gain(0.0, alpha), params, new_product=True)
        assert abs(update_vote(0.0, u, params) - 9.0) <= 1e-12

    # (c) constant input: |x_k - u| shrinks by exactly (1-a) each step
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.99)
        u = rng.uniform(0.0, 10.0)
        x = rng.uniform(0.0, 10.0)
        params = SatisfactionParams(forgetting_factor=alpha)
        gap = abs(x - u)
        for _step in range(20):
            x = update_vote(x, u, params)
            gap *= 1.0 - alpha
            assert abs(abs(x - u) - gap) <= 1e-12


# -- 3 ---------------------------------------------------------------------


@criterion(3, "KPI algebra: mean-time identity, rescale invariance, 13% margin")
def test_kpi_algebra():
    rng = random.Random(3)
    for _ in range(200):
        period = rng.uniform(1.0, 500.0)
        profit = rng.uniform(0.1, 1e5)
        stock = rng.uniform(0.1, 1e5)
        rotation = stock_rotation(profit, stock)
        mean_time = stock_mean_time(period, rotation)
        assert abs(mean_time * rotation - period) <= 1e-9 * period

    for _ in range(200):
        profit = rng.uniform(0.1, 1e5)
        costs = profit * rng.uniform(0.0, 2.0)
        scale = rng.uniform(1e-3, 1e3)
        base = sales_profitability(profit, costs)
        rescaled = sales_profitability(profit * scale, costs * scale)
        assert abs(rescaled - base) <= 1e-12

    # holding costs at 87% of total chain costs leave a 13% margin
    for profit in (100.0, 1.0, 12345.67):
        assert abs(sales_profitability(profit, 0.87 * profit) - 0.13) <= 1e-9


# -- 4 ---------------------------------------------------------------------


def _random_scenario(index: int) -> Scenario:
    rng = random.Random(900_000 + index)
    n_products = rng.randint(1, 3)
    products = tuple(range(1, n_products + 1))
    raws = products
    bom = {pid: {pid: rng.choice([0.5, 1.0, 2.0])} for pid in products}

    n_suppliers = rng.randint(1, 2)
    assignment = {rid: rng.randrange(n_suppliers) for rid in raws}
    suppliers = []
    raw_sources = {}
    for s_index in range(n_suppliers):
        owned = tuple(r for r, a in assignment.items() if a == s_index)
        if not owned:
            continue
        name = f"supplier{s_index + 1}"
        point = rng.uniform(10.0, 50.0)
        suppliers.append(
            SupplierSpec(
                name=name,
                raws=owned,
                stock_kg={r: rng.uniform(200.0, 1200.0) for r in owned},
                reorder={
                    r: ReorderPolicy(point, point + rng.uniform(100.0, 800.0))
                    for r in owned
                },
                deliver_every=rng.choice([1.5, 2.0, 4.0]),
                source_every=rng.choice([2.0, 4.0]),
                lead_time=_random_lead(rng),
            )
        )
        for r in owned:
            raw_sources[r] = name

    customers = [
        CustomerSpec(
            name=f"customer{i + 1}",
            lot_size=rng.choice([1.0, 2.0, 5.0, 10.0]),
            arrivals=rng.choice(["deterministic", "memoryless"]),
        )
        for i in range(rng.randint(1, 2))
    ]
    demand_rows = {}
    for i, c in enumerate(customers):
        for pid in products:
            if i == 0 and pid == products[0] or rng.random() < 0.7:
                monthly = rng.uniform(50.0, 900.0)
            else:
                monthly = 0.0
            demand_rows[(c.name, pid)] = (monthly,) * 12

    mode = rng.choice(["scor", "vcor"])
    if mode == "scor":
        processes = {p: False for p in VCOR_PROCESSES}
    else:
        processes = {p: rng.random() < 0.8 for p in VCOR_PROCESSES}

    raw_point = rng.uniform(20.0, 80.0)
    retail_point = rng.uniform(20.0, 120.0)
    prospects = tuple(
        ProspectSpec(
            name=f"prospect{i + 1}",
            priority=i + 1,
            product=rng.choice(products),
            boxes_per_day=rng.uniform(5.0, 60.0),
        )
        for i in range(rng.randint(0, 2))
    )
    return Scenario(
        name=f"conservation-{index}",
        seed=index,
        horizon_hours=rng.choice([24.0, 36.0, 48.0]),
        mode=mode,
        processes=processes,
        products=products,
        raws=raws,
        bom=bom,
        suppliers=suppliers,
        raw_sources=raw_sources,
        firm=FirmSpec(
            fgi={pid: rng.choice([0.0, 50.0, 100.0, 300.0]) for pid in products},
            raw_stock_kg={r: rng.uniform(50.0, 400.0) for r in raws},
            raw_reorder={
                r: ReorderPolicy(raw_point, raw_point + rng.uniform(50.0, 300.0))
                for r in raws
            },
            production_mode={
                pid: "make-to-order" if rng.random() < 0.25 else "make-to-stock"
                for pid in products
            },
            capacity_boxes_per_day=rng.uniform(50.0, 400.0),
            deliver_every=rng.choice([1.5, 2.5, 3.0]),
            source_every=rng.choice([2.0, 3.0]),
            make_every=rng.choice([2.0, 3.0, 4.0]),
            lead_time=_random_lead(rng),
        ),
        retailer=RetailerSpec(
            stock={pid: rng.choice([0.0, 20.0, 100.0]) for pid in products},
            reorder={
                pid: ReorderPolicy(retail_point, retail_point + rng.uniform(80.0, 400.0))
                for pid in products
            },
            deliver_every=rng.choice([1.0, 2.0, 2.5]),
            source_every=rng.choice([2.0, 2.5, 3.0]),
            lead_time=_random_lead(rng),
        ),
        customers=customers,
        upstream=UpstreamSpec(
            deliver_every=rng.choice([2.0, 4.0]), lead_time=_random_lead(rng)
        ),
        demand=DemandTable(rows=demand_rows),
        prices={
            "retailer": {f"P{p}": rng.uniform(5.0, 20.0) for p in products},
            "firm": {f"P{p}": rng.uniform(3.0, 15.0) for p in products},
            **{
                s.name: {f"R{r}": rng.uniform(1.0, 4.0) for r in s.raws}
                for s in suppliers
            },
            "upstream": {f"R{r}": rng.uniform(0.5, 2.0) for r in raws},
        },
        holding_costs={},
        production_cost_per_box=0.5,
        support_cost_per_ticket=5.0,
        satisfaction=SatisfactionParams(
            forgetting_factor=rng.uniform(0.1, 0.9), initial_vote=rng.uniform(4.0, 10.0)
        ),
        support=SupportConfig(
            defect_probability={
                pid: rng.choice([0.0, 0.1, 0.5, 1.0]) for pid in products
            },
            education_decay=rng.uniform(0.7, 1.0),
            handling_hours=rng.uniform(0.0, 4.0),
            max_defective_fraction=rng.uniform(0.1, 1.0),
        ),
        market=MarketConfig(
            vote_threshold=rng.uniform(2.0, 7.0),
            frequency_hours=rng.choice([4.0, 6.0, 8.0]),
        ),
        innovation=InnovationConfig(
            delay_hours=rng.uniform(0.0, 12.0),
            technology_cost=rng.uniform(0.0, 800.0),
        ),
        sell=SellConfig(
            capacity_fraction=rng.uniform(0.2, 0.8),
            frequency_hours=rng.choice([6.0, 12.0]),
            order_interval_hours=rng.choice([4.0, 6.0, 8.0]),
            prospects=prospects,
        ),
    )


def _random_lead(rng: random.Random) -> LeadTime:
    kind = rng.choice(["fixed", "fixed", "uniform", "exponential"])
    if kind == "uniform":
        low = rng.uniform(0.25, 1.5)
        return LeadTime(kind="uniform", low=low, high=low + rng.uniform(0.0, 2.0))
    return LeadTime(kind=kind, hours=rng.uniform(0.5, 3.0))


@criterion(4, "conservation on 200 randomized small scenarios")
def test_conservation_suite():
    for index in range(200):
        scenario = _random_scenario(index)
        artifacts = run_scenario(scenario)
        ledger = artifacts.ledger
        label = f"scenario {index} ({scenario.mode})"

        # census sums to ledger length
        assert sum(ledger.census().values()) == len(ledger.orders), label

        # delivered to customers <= initial product stock + production
        for pid in scenario.products:
            code = product(pid).code
            delivered = artifacts.report.delivered_to_customers.get(code, 0.0)
            ceiling = (
                scenario.retailer.stock.get(pid, 0.0)
                + scenario.firm.fgi.get(pid, 0.0)
                + artifacts.report.produced_boxes.get(code, 0.0)
            )
            assert delivered <= ceiling + 1e-9, f"{label}: {code}"

        # raw consumption == recipe * production, via both accounting routes
        for rid in scenario.raws:
            code = raw(rid).code
            consumed = artifacts.consumed_raw_kg.get(code, 0.0)
            expected = sum(
                scenario.bom[pid].get(rid, 0.0)
                * artifacts.report.produced_boxes.get(product(pid).code, 0.0)
                for pid in scenario.products
            )
            assert abs(consumed - expected) <= 1e-9, f"{label}: {code}"
            inflow = sum(
                o.quantity
                for o in ledger.orders.values()
                if o.client == scenario.firm.name
                and o.item == raw(rid)
                and o.delivered_at is not None
            )
            initial = scenario.firm.raw_stock_kg.get(rid, 0.0)
            final = artifacts.stock(scenario.firm.name, code)
            assert abs((initial + inflow - final) - consumed) <= 1e-6, f"{label}: {code}"

        # replacements conserve defective quantities
        for ticket in ledger.tickets.values():
            if ticket.replacement_order_id is None:
                continue
            replacement = ledger.orders[ticket.replacement_order_id]
            assert replacement.quantity == ticket.defective_qty, label

        if scenario.mode == "scor":
            assert not {e.kind for e in artifacts.trace} & VCOR_EVENT_KINDS, label


# -- 5 ---------------------------------------------------------------------


@criterion(5, "golden micro-scenario matches the hand-computed trace")
def test_golden_micro_scenario():
    from test_golden import micro_scenario

    artifacts = run_scenario(micro_scenario())
    arrivals = [
        (e.fire_time, e.target) for e in artifacts.trace if e.kind == "order-arrival"
    ]
    assert arrivals == [
        (7.0, "customer1"),
        (13.0, "customer1"),
        (21.0, "retailer"),
        (25.0, "customer1"),
        (25.0, "customer1"),
    ]
    retailer = artifacts.report.actors["retailer"]
    assert artifacts.delivery_series["retailer"] == [(1, 1.0), (2, 1.0), (4, 7.0), (5, 1.0)]
    assert retailer.mean_delivery_time == 2.5
    assert artifacts.delivery_series["firm"] == [(3, 6.0)]
    assert artifacts.stock("retailer", "P1") == 20.0
    assert artifacts.stock("firm", "P1") == 0.0
    assert artifacts.stock("firm", "R1") == 15.0
    assert artifacts.stock("supplier1", "R1") == 100.0
    assert artifacts.report.produced_boxes == {"P1": 5.0}


# -- 6 ---------------------------------------------------------------------


@criterion(6, "paired-seed structural differences between modes")
def test_mode_structural_checks():
    scor = run_scenario(case_study_scenario(mode="scor", seed=42))
    vcor = run_scenario(case_study_scenario(mode="vcor", seed=42))

    # (a) the baseline never schedules a value-chain event
    assert not {e.kind for e in scor.trace} & VCOR_EVENT_KINDS

    # (b) with prospects contracted, the firm delivers strictly more orders
    assert vcor.scenario.sell.prospects
    assert (
        vcor.report.actors["firm"].delivered_count
        > scor.report.actors["firm"].delivered_count
    )

    # (c) support handling is positive, so the retailer's mean delivery
    # time cannot be lower than the baseline's
    assert vcor.scenario.support.handling_hours > 0
    assert (
        vcor.report.actors["retailer"].mean_delivery_time
        >= scor.report.actors["retailer"].mean_delivery_time
    )

    # (d) the satisfaction series jumps strictly upward at the launch
    assert vcor.launches
    launch_time, pid = vcor.launches[0]
    code = product(pid).code
    jumped = False
    for customer in {c.name for c in vcor.scenario.customers}:
        series = [
            e
            for e in vcor.satisfaction
            if e.customer == customer and e.product == code
        ]
        post = [e for e in series if e.time >= launch_time]
        if not post:
            continue
        pre = [e.vote for e in series if e.time < post[0].time]
        previous = pre[-1] if pre else vcor.scenario.satisfaction.initial_vote
        if post[0].vote > previous:
            jumped = True
    assert jumped


# -- 7 ---------------------------------------------------------------------


@criterion(7, "byte-identical artifacts, case-study run below 10 s")
def test_determinism_and_runtime(tmp_path):
    scenario = case_study_scenario(mode="vcor", seed=42)
    started = time.perf_counter()
    run_scenario(scenario, out_dir=tmp_path / "first")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"case-study run took {elapsed:.2f}s"
    run_scenario(scenario, out_dir=tmp_path / "second")
    names = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
    for name in names:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


# -- 8 ---------------------------------------------------------------------


@criterion(8, "no tier-2 replenishment when initial raw stocks cover the horizon")
def test_no_upstream_orders_in_case_study():
    scenario = case_study_scenario(mode="scor", seed=42)
    horizon = scenario.horizon_hours

    # Upper-bound the customer demand per product over the horizon from the
    # month-1 table row: intensity * horizon plus one lot of slack per
    # (customer, product) arrival chain.
    demand_bound: dict[int, float] = {pid: 0.0 for pid in scenario.products}
    products_of = scenario.demand.products_by_customer()
    for customer in scenario.customers:
        for pid in products_of.get(customer.name, []):
            monthly = scenario.demand.rows[(customer.name, pid)][0]
            demand_bound[pid] += monthly * horizon / HOURS_PER_MONTH + customer.lot_size

    for supplier in scenario.suppliers:
        shipped_bound = 0.0
        for rid, source in scenario.raw_sources.items():
            if source != supplier.name:
                continue
            # products consuming this raw, with kg per box
            need_bound = 0.0
            for pid, needs in scenario.bom.items():
                if rid not in needs:
                    continue
                policy = scenario.retailer.reorder[pid]
                ordered_bound = (
                    policy.up_to
                    - scenario.retailer.stock.get(pid, 0.0)
                    + demand_bound[pid]
                )
                production_bound = max(
                    0.0, ordered_bound - scenario.firm.fgi.get(pid, 0.0)
                )
                need_bound += needs[rid] * production_bound
            raw_policy = scenario.firm.raw_reorder[rid]
            shipped_bound += (
                raw_policy.up_to - scenario.firm.raw_stock_kg.get(rid, 0.0) + need_bound
            )
        # the supplier never dips below its own reorder point
        slack = min(
            supplier.stock_kg[rid] - supplier.reorder[rid].point
            for rid in supplier.raws
        )
        assert shipped_bound <= slack, (
            f"{supplier.name}: bound {shipped_bound:.1f} exceeds slack {slack:.1f}; "
            "the premise of this criterion no longer holds"
        )

    artifacts = run_scenario(scenario)
    upstream_orders = [
        o
        for o in artifacts.ledger.orders.values()
        if o.provider == scenario.upstream.name
    ]
    assert upstream_orders == []
