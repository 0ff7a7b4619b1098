"""Post-run analytics: delivery times, order census, costs, and the
stock-rotation / stock-mean-time / sales-profitability indicators.

All computations fold immutable run artifacts (ledger, inventories, cost
entries); undefined indicators are reported as absent (None), never as 0,
so a missing value can never masquerade as bad performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add
from types import UnionType
from typing import Iterable, NamedTuple, get_args, get_origin, get_type_hints

from .jsonl import (
    _Records,
    _delivery_row,
    _indented,
    _satisfaction_entry,
)
from .ledger import InventoryRecord, Ledger, PRODUCT
from .scenario import Scenario


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


class CostEntry(NamedTuple):
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


def _left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as one plain left-to-right fold from int 0.

    From Python 3.12 ``sum`` adds floats with compensation, so its last bits
    depend on the interpreter; this fold gives the bits ``sum`` gave before
    3.12 on every version, and the artifacts stay byte-identical across them.
    """
    return reduce(add, values, 0)


# -- elementary indicators ------------------------------------------------


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


# -- full report ---------------------------------------------------------


def _converted(load, dump, **default):
    """A report field with its own dict form: ``dump`` writes it, ``load``
    reads it back (None: as it is)."""
    return field(**default, metadata={"load": load, "dump": dump})


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the declared type ``hint``; an int passes as a float."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is tuple:
        return type(value) is tuple and len(value) == len(args) and all(map(_conforms, value, args))
    if origin is dict:
        return type(value) is dict and all(
            type(k) is str and _conforms(v, args[1]) for k, v in value.items()
        )
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


class _DictForm:
    """The JSON-ready dict form of a report dataclass, one key per field.

    Each field goes in as it is, unless declared with ``_converted``.
    ``from_dict`` checks every value against its field's declared type, so a
    report read from a file holds what the code that reads it expects.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            dump = f.metadata.get("dump")
            out[f.name] = value if dump is None else dump(value)
        return out

    @classmethod
    def from_dict(cls, d: dict):
        """Read the dict form; a missing key or a value of the wrong type raises."""
        hints = get_type_hints(cls)
        kwargs = {}
        for f in fields(cls):
            load = f.metadata.get("load")
            value = d[f.name] if load is None else load(d[f.name])
            if not _conforms(value, hints[f.name]):
                raise TypeError(f"{cls.__name__}.{f.name}: {value!r} is not {hints[f.name]}")
            kwargs[f.name] = value
        return cls(**kwargs)


@dataclass(slots=True)
class ActorKpis(_DictForm):
    delivered_count: int = 0
    mean_delivery_time: float | None = None
    max_delivery_time: float | None = None
    delivery_series: list[tuple[int, float]] = _converted(  # (order_id, hours)
        lambda rows: [(oid, hours) for oid, hours in rows],
        lambda series: _Records(_delivery_row, map(list, series)),
        default_factory=list,
    )
    sales_profit: float = 0.0
    costs: dict[str, float] = field(default_factory=dict)
    mean_stock_value: dict[str, float | None] = field(default_factory=dict)
    sri: dict[str, float | None] = field(default_factory=dict)
    smi: dict[str, float | None] = field(default_factory=dict)
    spi: float | None = None


@dataclass(slots=True)
class KpiReport(_DictForm):
    scenario_digest: str
    topology_digest: str
    seed: int
    mode: str
    period_hours: float
    census: dict[str, int]
    total_orders: int
    actors: dict[str, ActorKpis] = _converted(
        lambda d: {name: ActorKpis.from_dict(a) for name, a in d.items()},
        lambda actors: {name: kpis.to_dict() for name, kpis in sorted(actors.items())},
    )
    satisfaction: list[dict] = _converted(
        None, lambda entries: _Records(_satisfaction_entry, entries)
    )
    produced_boxes: dict[str, float]
    delivered_to_customers: dict[str, float]

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)``; the
        delivery rows and satisfaction entries are formatted directly."""
        return _indented(self.to_dict())


def build_report(
    scenario: Scenario,
    ledger: Ledger,
    inventories: Iterable[InventoryRecord],
    costs: CostLedger,
    satisfaction_series: list[dict],
    produced_boxes: dict[str, float],
) -> KpiReport:
    """Fold the run artifacts of one finished run into a KPI report.

    One pass over the orders gives every actor's delivery series and the
    quantities delivered to customers, one pass over the cost entries every
    actor's totals per category. Order ids rise in append order, so each
    series comes out in order-id order.
    """
    period_hours = scenario.horizon_hours
    customers = {c.name for c in scenario.customers}
    series: dict[str, list[tuple[int, float]]] = {
        name: [] for name in scenario.actor_names()
    }
    delivered: dict[str, float] = {}
    for order in ledger.orders.values():
        if order.delivered_at is None:
            continue
        provider_series = series.get(order.provider)
        if provider_series is not None:
            provider_series.append((order.order_id, order.delivered_at - order.created_at))
        if order.client in customers:
            code = order.item.code
            delivered[code] = delivered.get(code, 0.0) + order.quantity

    # revenue starts at int 0, as a sum does, so an actor without any writes 0
    zero = {**dict.fromkeys(COST_CATEGORIES, 0.0), "sales-revenue": 0}
    totals = {name: dict(zero) for name in series}
    for entry in costs.entries:
        actor_totals = totals.get(entry.actor)
        if actor_totals is not None:
            actor_totals[entry.category] += entry.amount

    # mean stock value per actor and stock class, integrated over the period
    stock_values: dict[str, dict[str, float]] = {}
    for record in inventories:
        stock_class = FINISHED_GOODS if record.item.kind == PRODUCT else RAW_MATERIALS
        by_class = stock_values.setdefault(record.owner, {})
        value = record.time_weighted_mean(period_hours) * record.unit_value
        by_class[stock_class] = by_class.get(stock_class, 0.0) + value

    actors: dict[str, ActorKpis] = {}
    for name, delivery_series in series.items():
        hours = [h for _, h in delivery_series]
        profit = totals[name].pop("sales-revenue")
        kpis = actors[name] = ActorKpis(
            delivered_count=len(hours),
            mean_delivery_time=_left_sum(hours) / len(hours) if hours else None,
            max_delivery_time=max(hours) if hours else None,
            delivery_series=delivery_series,
            sales_profit=profit,
            costs={cat: amount for cat, amount in totals[name].items() if amount != 0.0},
            mean_stock_value=stock_values.get(name, {}),
        )
        kpis.spi = sales_profitability(profit, _left_sum(kpis.costs.values()))
        for stock_class, value in kpis.mean_stock_value.items():
            rotation = stock_rotation(profit, value)
            kpis.sri[stock_class] = rotation
            kpis.smi[stock_class] = stock_mean_time(period_hours, rotation)

    scenario_digest, topology_digest = scenario.digests()
    return KpiReport(
        scenario_digest=scenario_digest,
        topology_digest=topology_digest,
        seed=scenario.seed,
        mode=scenario.mode,
        period_hours=period_hours,
        census=ledger.census(),
        total_orders=len(ledger.orders),
        actors=actors,
        satisfaction=satisfaction_series,
        produced_boxes=produced_boxes,
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
    flags = {}
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
        if s.delivered_count or v.delivered_count:  # actors that never deliver carry no signal
            flags[f"{name}_delivers_more_under_vcor"] = v.delivered_count > s.delivered_count
        if s.mean_delivery_time is not None and v.mean_delivery_time is not None:
            flags[f"{name}_mean_delivery_time_higher_under_vcor"] = (
                v.mean_delivery_time >= s.mean_delivery_time
            )
        for stock_class in sorted(set(s.sri) | set(v.sri)):
            scor_sri, vcor_sri = s.sri.get(stock_class), v.sri.get(stock_class)
            rows[f"sri[{stock_class}]"] = _pair(scor_sri, vcor_sri)
            rows[f"smi[{stock_class}]"] = _pair(
                s.smi.get(stock_class), v.smi.get(stock_class)
            )
            if scor_sri and vcor_sri:
                flags[f"{name}_sri[{stock_class}]_improved_under_vcor"] = vcor_sri > scor_sri
        actors[name] = rows

    return {
        "topology_digest": scor.topology_digest,
        "seed": scor.seed,
        "period_hours": {"scor": scor.period_hours, "vcor": vcor.period_hours},
        "census": {"scor": scor.census, "vcor": vcor.census},
        "actors": actors,
        "flags": flags,
    }
