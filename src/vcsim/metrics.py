"""Post-run analytics: delivery times, order census, costs, and the
stock-rotation / stock-mean-time / sales-profitability indicators.

All computations fold immutable run artifacts (ledger, inventories, cost
entries); undefined indicators are reported as absent (None), never as 0,
so a missing value can never masquerade as bad performance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .jsonl import _Quoted, _cost_line
from .ledger import InventoryRecord, Ledger, PRODUCT


class ComparisonError(Exception):
    """The two runs are not comparable (different topology or seed)."""


COST_CATEGORIES = (
    "purchase",
    "holding",
    "production",
    "support",
    "technology",
    "sales-revenue",
)

FINISHED_GOODS = "finished-goods"
RAW_MATERIALS = "raw-materials"


@dataclass(frozen=True, slots=True)
class CostEntry:
    time: float
    actor: str
    category: str
    amount: float


class CostLedger:
    """Append-only cost/revenue entries, one per booked amount."""

    def __init__(self) -> None:
        self.entries: list[CostEntry] = []

    def add(self, time: float, actor: str, category: str, amount: float) -> None:
        if category not in COST_CATEGORIES:
            raise ValueError(f"unknown cost category: {category}")
        if category == "sales-revenue" and amount < 0:
            raise ValueError("sales revenue entries must be non-negative")
        if amount == 0:
            return  # zero-amount events leave no entry
        self.entries.append(CostEntry(time, actor, category, amount))

    def total(self, actor: str | None = None, category: str | None = None) -> float:
        return sum(
            e.amount
            for e in self.entries
            if (actor is None or e.actor == actor)
            and (category is None or e.category == category)
        )

    def by_category(self, actor: str) -> dict[str, float]:
        out = {c: 0.0 for c in COST_CATEGORIES}
        for e in self.entries:
            if e.actor == actor:
                out[e.category] += e.amount
        return out

    def export_lines(self) -> list[str]:
        q = _Quoted()
        return [_cost_line(e, q) for e in self.entries]


# -- elementary indicators ------------------------------------------------


@dataclass(frozen=True, slots=True)
class DeliveryStats:
    series: tuple[tuple[int, float], ...]  # (order_id, hours), in order-id order
    mean: float | None
    max: float | None


def delivery_times(ledger: Ledger, provider: str) -> DeliveryStats:
    """Delivery time (delivered - created) of every delivered order of a provider.

    Orders never delivered do not contribute; with zero delivered orders the
    mean is absent, not 0.
    """
    series = [
        (o.order_id, o.delivered_at - o.created_at)
        for o in ledger.orders.values()
        if o.provider == provider and o.delivered_at is not None
    ]
    series.sort(key=lambda pair: pair[0])
    if not series:
        return DeliveryStats(series=(), mean=None, max=None)
    values = [hours for _, hours in series]
    return DeliveryStats(
        series=tuple(series), mean=sum(values) / len(values), max=max(values)
    )


def stock_rotation(sales_profit: float, mean_stock_value: float | None) -> float | None:
    """Sales profit over mean stock value; absent for an empty warehouse."""
    if mean_stock_value is None or mean_stock_value <= 0:
        return None
    return sales_profit / mean_stock_value


def stock_mean_time(period_hours: float, rotation: float | None) -> float | None:
    """Mean time goods sit undelivered: simulation period over the rotation."""
    if rotation is None or rotation <= 0:
        return None
    return period_hours / rotation


def sales_profitability(sales_profit: float, costs: float) -> float | None:
    """Margin fraction (profit - costs) / profit; absent without any profit."""
    if sales_profit <= 0:
        return None
    return (sales_profit - costs) / sales_profit


def order_census(ledger: Ledger) -> dict[str, int]:
    return ledger.census()


# -- full report ---------------------------------------------------------


@dataclass(slots=True)
class ActorKpis:
    delivered_count: int = 0
    mean_delivery_time: float | None = None
    max_delivery_time: float | None = None
    delivery_series: list[tuple[int, float]] = field(default_factory=list)
    sales_profit: float = 0.0
    costs: dict[str, float] = field(default_factory=dict)
    mean_stock_value: dict[str, float | None] = field(default_factory=dict)
    sri: dict[str, float | None] = field(default_factory=dict)
    smi: dict[str, float | None] = field(default_factory=dict)
    spi: float | None = None

    def to_dict(self) -> dict:
        return {
            "delivered_count": self.delivered_count,
            "mean_delivery_time": self.mean_delivery_time,
            "max_delivery_time": self.max_delivery_time,
            "delivery_series": [[oid, hours] for oid, hours in self.delivery_series],
            "sales_profit": self.sales_profit,
            "costs": self.costs,
            "mean_stock_value": self.mean_stock_value,
            "sri": self.sri,
            "smi": self.smi,
            "spi": self.spi,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActorKpis":
        return cls(
            delivered_count=d["delivered_count"],
            mean_delivery_time=d["mean_delivery_time"],
            max_delivery_time=d["max_delivery_time"],
            delivery_series=[(oid, hours) for oid, hours in d["delivery_series"]],
            sales_profit=d["sales_profit"],
            costs=dict(d["costs"]),
            mean_stock_value=dict(d["mean_stock_value"]),
            sri=dict(d["sri"]),
            smi=dict(d["smi"]),
            spi=d["spi"],
        )


@dataclass(slots=True)
class KpiReport:
    scenario_digest: str
    topology_digest: str
    seed: int
    mode: str
    period_hours: float
    census: dict[str, int]
    total_orders: int
    actors: dict[str, ActorKpis]
    satisfaction: list[dict]
    produced_boxes: dict[str, float]
    delivered_to_customers: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "scenario_digest": self.scenario_digest,
            "topology_digest": self.topology_digest,
            "seed": self.seed,
            "mode": self.mode,
            "period_hours": self.period_hours,
            "census": self.census,
            "total_orders": self.total_orders,
            "actors": {name: kpis.to_dict() for name, kpis in sorted(self.actors.items())},
            "satisfaction": self.satisfaction,
            "produced_boxes": self.produced_boxes,
            "delivered_to_customers": self.delivered_to_customers,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KpiReport":
        return cls(
            scenario_digest=d["scenario_digest"],
            topology_digest=d["topology_digest"],
            seed=d["seed"],
            mode=d["mode"],
            period_hours=d["period_hours"],
            census=dict(d["census"]),
            total_orders=d["total_orders"],
            actors={name: ActorKpis.from_dict(a) for name, a in d["actors"].items()},
            satisfaction=list(d["satisfaction"]),
            produced_boxes=dict(d["produced_boxes"]),
            delivered_to_customers=dict(d["delivered_to_customers"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _stock_class(record: InventoryRecord) -> str:
    return FINISHED_GOODS if record.item.kind == PRODUCT else RAW_MATERIALS


def build_report(
    ledger: Ledger,
    inventories: Iterable[InventoryRecord],
    costs: CostLedger,
    satisfaction_series: list[dict],
    *,
    actor_names: Iterable[str],
    customer_names: Iterable[str],
    period_hours: float,
    seed: int,
    mode: str,
    scenario_digest: str,
    topology_digest: str,
    produced_boxes: dict[str, float] | None = None,
) -> KpiReport:
    """Fold the run artifacts of one finished run into a KPI report."""
    customers = set(customer_names)
    actors: dict[str, ActorKpis] = {}
    for name in actor_names:
        stats = delivery_times(ledger, name)
        kpis = ActorKpis(
            delivered_count=len(stats.series),
            mean_delivery_time=stats.mean,
            max_delivery_time=stats.max,
            delivery_series=list(stats.series),
            sales_profit=costs.total(name, "sales-revenue"),
        )
        kpis.costs = {
            cat: amount
            for cat, amount in costs.by_category(name).items()
            if cat != "sales-revenue" and amount != 0.0
        }
        actors[name] = kpis

    # mean stock value per actor and stock class, integrated over the period
    class_values: dict[tuple[str, str], float] = {}
    for record in inventories:
        key = (record.owner, _stock_class(record))
        value = record.time_weighted_mean(period_hours) * record.unit_value
        class_values[key] = class_values.get(key, 0.0) + value
    for (owner, stock_class), value in class_values.items():
        if owner in actors:
            actors[owner].mean_stock_value[stock_class] = value

    for name, kpis in actors.items():
        total_costs = sum(kpis.costs.values())
        kpis.spi = sales_profitability(kpis.sales_profit, total_costs)
        for stock_class, value in kpis.mean_stock_value.items():
            rotation = stock_rotation(kpis.sales_profit, value)
            kpis.sri[stock_class] = rotation
            kpis.smi[stock_class] = stock_mean_time(period_hours, rotation)

    delivered: dict[str, float] = {}
    for order in ledger.orders.values():
        if order.delivered_at is not None and order.client in customers:
            code = order.item.code
            delivered[code] = delivered.get(code, 0.0) + order.quantity

    return KpiReport(
        scenario_digest=scenario_digest,
        topology_digest=topology_digest,
        seed=seed,
        mode=mode,
        period_hours=period_hours,
        census=ledger.census(),
        total_orders=len(ledger.orders),
        actors=actors,
        satisfaction=satisfaction_series,
        produced_boxes=dict(produced_boxes or {}),
        delivered_to_customers=delivered,
    )


# -- run comparison ---------------------------------------------------------


def _pair(scor_value, vcor_value) -> dict:
    row: dict = {"scor": scor_value, "vcor": vcor_value, "delta": None, "ratio": None}
    if scor_value is not None and vcor_value is not None:
        row["delta"] = vcor_value - scor_value
        if scor_value not in (0, None):
            row["ratio"] = vcor_value / scor_value
    return row


def compare_runs(scor: KpiReport, vcor: KpiReport) -> dict:
    """Side-by-side KPI deltas for a SCOR/VCOR pair sharing topology and seed."""
    if scor.topology_digest != vcor.topology_digest:
        raise ComparisonError(
            "runs have different topologies: "
            f"{scor.topology_digest} vs {vcor.topology_digest}"
        )
    if scor.seed != vcor.seed:
        raise ComparisonError(f"runs have different seeds: {scor.seed} vs {vcor.seed}")

    actors: dict[str, dict] = {}
    for name in sorted(set(scor.actors) | set(vcor.actors)):
        s = scor.actors.get(name, ActorKpis())
        v = vcor.actors.get(name, ActorKpis())
        rows: dict[str, dict] = {
            "mean_delivery_time": _pair(s.mean_delivery_time, v.mean_delivery_time),
            "max_delivery_time": _pair(s.max_delivery_time, v.max_delivery_time),
            "delivered_count": _pair(s.delivered_count, v.delivered_count),
            "sales_profit": _pair(s.sales_profit, v.sales_profit),
            "spi": _pair(s.spi, v.spi),
        }
        for stock_class in sorted(set(s.sri) | set(v.sri)):
            rows[f"sri[{stock_class}]"] = _pair(
                s.sri.get(stock_class), v.sri.get(stock_class)
            )
            rows[f"smi[{stock_class}]"] = _pair(
                s.smi.get(stock_class), v.smi.get(stock_class)
            )
        actors[name] = rows

    flags = {}
    for name, rows in actors.items():
        count = rows["delivered_count"]
        if count["scor"] or count["vcor"]:  # actors that never deliver carry no signal
            flags[f"{name}_delivers_more_under_vcor"] = count["vcor"] > count["scor"]
        mean = rows["mean_delivery_time"]
        if mean["scor"] is not None and mean["vcor"] is not None:
            flags[f"{name}_mean_delivery_time_higher_under_vcor"] = (
                mean["vcor"] >= mean["scor"]
            )
        for key, row in rows.items():
            if key.startswith("sri[") and row["scor"] and row["vcor"]:
                flags[f"{name}_{key}_improved_under_vcor"] = row["vcor"] > row["scor"]

    return {
        "topology_digest": scor.topology_digest,
        "seed": scor.seed,
        "period_hours": {"scor": scor.period_hours, "vcor": vcor.period_hours},
        "census": {"scor": scor.census, "vcor": vcor.census},
        "actors": actors,
        "flags": flags,
    }
