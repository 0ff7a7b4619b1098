"""Scenario definition: topology, policies, parameters, and file formats.

A scenario fully determines a run: actors and their reorder policies, the
bill of materials, the monthly demand table, prices and cost rates, the
satisfaction-model weights, and the VCOR process toggles. Scenarios are
YAML documents with a versioned ``schema`` field; demand tables are CSV.
The built-in case-study profile carries the reference values for a
three-supplier / one-firm / one-retailer / two-customer chain over a
48-hour horizon.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .ledger import Item, OrderValidationError, product, raw
from .satisfaction import ParameterError, SatisfactionParams

SCHEMA_VERSION = 1

MODES = ("scor", "vcor")
VCOR_PROCESSES = ("support", "market", "research", "develop", "sell")
PRODUCTION_MODES = ("make-to-stock", "make-to-order")
HOURS_PER_MONTH = 720.0  # 30-day months for demand-table scaling


class ScenarioError(Exception):
    """Scenario failed to parse or validate; ``code`` names the defect."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _require(condition: bool, code: str, message: str) -> None:
    if not condition:
        raise ScenarioError(code, message)


# -- building blocks -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReorderPolicy:
    """Reorder when stock is strictly below ``point``, ordering up to ``up_to``."""

    point: float
    up_to: float

    def validate(self, where: str) -> None:
        _require(
            self.point < self.up_to,
            "reorder-point-not-below-up-to",
            f"{where}: reorder point {self.point} must be below order-up-to {self.up_to}",
        )


@dataclass(frozen=True, slots=True)
class LeadTime:
    """Transport lead time distribution: fixed, uniform(low, high), or exponential."""

    kind: str = "fixed"
    hours: float = 1.5
    low: float = 0.0
    high: float = 0.0

    def validate(self, where: str) -> None:
        _require(
            self.kind in ("fixed", "uniform", "exponential"),
            "bad-lead-time",
            f"{where}: unknown lead time kind {self.kind!r}",
        )
        if self.kind == "uniform":
            _require(
                0 <= self.low <= self.high,
                "bad-lead-time",
                f"{where}: uniform lead time needs 0 <= low <= high",
            )
        else:
            _require(
                self.hours >= 0,
                "bad-lead-time",
                f"{where}: lead time hours must be non-negative",
            )

    def draw(self, rng) -> float:
        if self.kind == "fixed":
            return self.hours
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high)
        return rng.expovariate(1.0 / self.hours) if self.hours > 0 else 0.0

    def to_dict(self) -> dict:
        if self.kind == "uniform":
            return {"kind": "uniform", "low": self.low, "high": self.high}
        return {"kind": self.kind, "hours": self.hours}

    @classmethod
    def from_dict(cls, d: dict) -> "LeadTime":
        kind = d.get("kind", "fixed")
        if kind == "uniform":
            return cls(kind="uniform", low=d.get("low", 0.0), high=d.get("high", 0.0))
        return cls(kind=kind, hours=d.get("hours", 0.0))


@dataclass(slots=True)
class SupplierSpec:
    name: str
    raws: tuple[int, ...]
    stock_kg: dict[int, float]
    reorder: dict[int, ReorderPolicy]
    deliver_every: float = 4.0
    source_every: float = 4.0
    lead_time: LeadTime = field(default_factory=LeadTime)


@dataclass(slots=True)
class FirmSpec:
    name: str = "firm"
    fgi: dict[int, float] = field(default_factory=dict)
    raw_stock_kg: dict[int, float] = field(default_factory=dict)
    raw_reorder: dict[int, ReorderPolicy] = field(default_factory=dict)
    production_mode: dict[int, str] = field(default_factory=dict)
    capacity_boxes_per_day: float = 185.0
    deliver_every: float = 2.5
    source_every: float = 3.0
    make_every: float = 3.0
    lead_time: LeadTime = field(default_factory=lambda: LeadTime(hours=2.0))


@dataclass(slots=True)
class RetailerSpec:
    name: str = "retailer"
    stock: dict[int, float] = field(default_factory=dict)
    reorder: dict[int, ReorderPolicy] = field(default_factory=dict)
    deliver_every: float = 2.0
    source_every: float = 2.5
    lead_time: LeadTime = field(default_factory=LeadTime)


@dataclass(slots=True)
class CustomerSpec:
    name: str
    lot_size: float
    arrivals: str = "deterministic"  # or "memoryless"


@dataclass(slots=True)
class UpstreamSpec:
    """Tier-2 source feeding the suppliers; stock is unbounded."""

    name: str = "upstream"
    deliver_every: float = 4.0
    lead_time: LeadTime = field(default_factory=lambda: LeadTime(hours=2.0))


@dataclass(slots=True)
class SupportConfig:
    defect_probability: dict[int, float] = field(default_factory=dict)  # per product
    education_decay: float = 0.9
    handling_hours: float = 2.3
    max_defective_fraction: float = 0.25


@dataclass(slots=True)
class MarketConfig:
    vote_threshold: float = 6.0
    frequency_hours: float = 6.0


@dataclass(slots=True)
class InnovationConfig:
    delay_hours: float = 8.0
    technology_cost: float = 500.0
    bom_override: dict[int, float] | None = None  # raw id -> kg per box


@dataclass(frozen=True, slots=True)
class ProspectSpec:
    name: str
    priority: int
    product: int
    boxes_per_day: float


@dataclass(slots=True)
class SellConfig:
    capacity_fraction: float = 0.5
    frequency_hours: float = 12.0
    order_interval_hours: float = 6.0
    prospects: tuple[ProspectSpec, ...] = ()


@dataclass(slots=True)
class DemandTable:
    """Monthly demand in boxes per (customer, product); absent means zero."""

    rows: dict[tuple[str, int], tuple[float, ...]] = field(default_factory=dict)

    def boxes_for(self, customer: str, product_id: int, month: int) -> float:
        if not 1 <= month <= 12:
            raise ScenarioError("bad-month", f"month out of range: {month}")
        row = self.rows.get((customer, product_id))
        return 0.0 if row is None else row[month - 1]

    def products_of(self, customer: str) -> list[int]:
        return sorted(
            pid
            for (cust, pid), row in self.rows.items()
            if cust == customer and any(v > 0 for v in row)
        )

    def validate(self) -> None:
        for (customer, pid), row in self.rows.items():
            _require(
                len(row) == 12,
                "bad-demand-row",
                f"demand row ({customer}, product {pid}) must have 12 months, "
                f"got {len(row)}",
            )
            _require(
                all(v >= 0 for v in row),
                "bad-demand-row",
                f"demand row ({customer}, product {pid}) has negative boxes",
            )


@dataclass(slots=True)
class SatisfactionConfig:
    params: SatisfactionParams = field(default_factory=SatisfactionParams)
    initial_vote: float = 8.0


@dataclass(slots=True)
class Scenario:
    name: str
    seed: int
    horizon_hours: float
    mode: str
    processes: dict[str, bool]
    products: tuple[int, ...]
    raws: tuple[int, ...]
    bom: dict[int, dict[int, float]]  # product -> raw -> kg per box
    suppliers: list[SupplierSpec]
    raw_sources: dict[int, str]  # designated supplier per raw
    firm: FirmSpec
    retailer: RetailerSpec
    customers: list[CustomerSpec]
    upstream: UpstreamSpec
    demand: DemandTable
    prices: dict[str, dict[str, float]]  # actor -> item code -> unit price
    holding_costs: dict[str, dict[str, float]]  # actor -> item code -> per unit-hour
    production_cost_per_box: float
    support_cost_per_ticket: float
    satisfaction: SatisfactionConfig
    support: SupportConfig
    market: MarketConfig
    innovation: InnovationConfig
    sell: SellConfig

    # -- derived --------------------------------------------------------

    def vcor_enabled(self, process: str) -> bool:
        return bool(self.processes.get(process, False))

    def actor_names(self) -> list[str]:
        names = [self.upstream.name]
        names += [s.name for s in self.suppliers]
        names += [self.firm.name, self.retailer.name]
        names += [c.name for c in self.customers]
        names += [p.name for p in self.sell.prospects]
        return names

    def price_of(self, actor: str, item: Item) -> float:
        try:
            return self.prices[actor][item.code]
        except KeyError:
            raise ScenarioError(
                "missing-price", f"no price for {item.code} sold by {actor}"
            ) from None

    def holding_cost_of(self, actor: str, item: Item) -> float:
        return self.holding_costs.get(actor, {}).get(item.code, 0.0)

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        _require(self.mode in MODES, "bad-mode", f"unknown mode {self.mode!r}")
        _require(self.seed >= 0, "bad-seed", f"seed must be non-negative: {self.seed}")
        _require(
            self.horizon_hours >= 0,
            "bad-horizon",
            f"horizon must be non-negative: {self.horizon_hours}",
        )
        for proc in self.processes:
            _require(
                proc in VCOR_PROCESSES,
                "unknown-process",
                f"unknown value-chain process {proc!r}",
            )
        if self.mode == "scor":
            enabled = [p for p, on in self.processes.items() if on]
            _require(
                not enabled,
                "mode-toggle-conflict",
                f"mode=scor forces all value-chain processes off, got {enabled}",
            )

        _require(bool(self.products), "empty-catalog", "no products defined")
        _require(bool(self.raws), "empty-catalog", "no raws defined")
        known_raws = set(self.raws)
        known_products = set(self.products)

        for pid, needs in self.bom.items():
            _require(
                pid in known_products, "unknown-product", f"recipe for unknown product {pid}"
            )
            for rid, kg in needs.items():
                _require(
                    rid in known_raws,
                    "unknown-raw",
                    f"recipe of product {pid} references unknown raw {rid}",
                )
                _require(
                    kg > 0,
                    "bad-bom-quantity",
                    f"recipe of product {pid} uses non-positive {kg} kg of raw {rid}",
                )
        for pid in known_products:
            _require(pid in self.bom, "missing-recipe", f"product {pid} has no recipe")

        covered = set()
        for s in self.suppliers:
            for rid in s.raws:
                _require(
                    rid in known_raws, "unknown-raw", f"{s.name} produces unknown raw {rid}"
                )
                covered.add(rid)
            for rid, pol in s.reorder.items():
                pol.validate(f"{s.name}/R{rid}")
            _require(
                s.deliver_every > 0 and s.source_every > 0,
                "bad-frequency",
                f"{s.name}: rescheduling frequencies must be positive",
            )
            s.lead_time.validate(s.name)
        _require(
            known_raws <= covered,
            "raw-not-covered",
            f"raws without any producing supplier: {sorted(known_raws - covered)}",
        )
        supplier_names = {s.name for s in self.suppliers}
        for rid, source_name in self.raw_sources.items():
            _require(
                rid in known_raws, "unknown-raw", f"raw source for unknown raw {rid}"
            )
            _require(
                source_name in supplier_names,
                "raw-source-not-supplier",
                f"designated source {source_name!r} for raw {rid} is not a supplier",
            )
            producer = next(s for s in self.suppliers if s.name == source_name)
            _require(
                rid in producer.raws,
                "raw-source-not-producer",
                f"{source_name} does not produce raw {rid}",
            )
        for rid in known_raws:
            _require(
                rid in self.raw_sources,
                "raw-not-covered",
                f"raw {rid} has no designated source",
            )

        _require(
            self.firm.capacity_boxes_per_day > 0,
            "bad-capacity",
            f"firm capacity must be positive: {self.firm.capacity_boxes_per_day}",
        )
        for pid, mode in self.firm.production_mode.items():
            _require(
                mode in PRODUCTION_MODES,
                "bad-production-mode",
                f"product {pid}: unknown production mode {mode!r}",
            )
        for rid, pol in self.firm.raw_reorder.items():
            pol.validate(f"{self.firm.name}/R{rid}")
        _require(
            self.firm.deliver_every > 0
            and self.firm.source_every > 0
            and self.firm.make_every > 0,
            "bad-frequency",
            f"{self.firm.name}: rescheduling frequencies must be positive",
        )
        self.firm.lead_time.validate(self.firm.name)

        for pid, pol in self.retailer.reorder.items():
            pol.validate(f"{self.retailer.name}/P{pid}")
        _require(
            self.retailer.deliver_every > 0 and self.retailer.source_every > 0,
            "bad-frequency",
            f"{self.retailer.name}: rescheduling frequencies must be positive",
        )
        self.retailer.lead_time.validate(self.retailer.name)
        self.upstream.lead_time.validate(self.upstream.name)
        _require(
            self.upstream.deliver_every > 0,
            "bad-frequency",
            f"{self.upstream.name}: deliver frequency must be positive",
        )

        _require(bool(self.customers), "no-customers", "at least one customer required")
        for c in self.customers:
            _require(
                c.lot_size > 0, "bad-lot-size", f"{c.name}: lot size must be positive"
            )
            _require(
                c.arrivals in ("deterministic", "memoryless"),
                "bad-arrival-mode",
                f"{c.name}: unknown arrival mode {c.arrivals!r}",
            )

        self.demand.validate()
        for (customer, pid), _row in self.demand.rows.items():
            _require(
                any(c.name == customer for c in self.customers),
                "unknown-customer",
                f"demand row for unknown customer {customer!r}",
            )
            _require(
                pid in known_products,
                "unknown-product",
                f"demand row for unknown product {pid}",
            )

        try:
            self.satisfaction.params.validate()
        except ParameterError as exc:
            code = (
                "forgetting-factor-out-of-range"
                if "forgetting" in str(exc)
                else "price-weight-not-positive"
            )
            raise ScenarioError(code, str(exc)) from exc
        _require(
            0.0 <= self.satisfaction.initial_vote <= 10.0,
            "bad-initial-vote",
            f"initial vote outside [0, 10]: {self.satisfaction.initial_vote}",
        )

        for pid, p_def in self.support.defect_probability.items():
            _require(
                0.0 <= p_def <= 1.0,
                "bad-defect-probability",
                f"defect probability for product {pid} outside [0, 1]: {p_def}",
            )
        _require(
            0.0 < self.support.education_decay <= 1.0,
            "bad-education-decay",
            f"education decay outside (0, 1]: {self.support.education_decay}",
        )
        _require(
            self.support.handling_hours >= 0,
            "bad-handling-time",
            "support handling time must be non-negative",
        )
        _require(
            0.0 < self.support.max_defective_fraction <= 1.0,
            "bad-defective-fraction",
            "max defective fraction must lie in (0, 1]",
        )
        _require(
            self.market.frequency_hours > 0,
            "bad-frequency",
            "market check frequency must be positive",
        )
        _require(
            self.innovation.delay_hours >= 0,
            "bad-innovation-delay",
            "innovation delay must be non-negative",
        )
        _require(
            0.0 < self.sell.capacity_fraction <= 1.0,
            "bad-capacity-fraction",
            "sell capacity fraction must lie in (0, 1]",
        )
        _require(
            self.sell.frequency_hours > 0 and self.sell.order_interval_hours > 0,
            "bad-frequency",
            "sell frequencies must be positive",
        )
        for p in self.sell.prospects:
            _require(
                p.product in known_products,
                "unknown-product",
                f"prospect {p.name} wants unknown product {p.product}",
            )
            _require(
                p.boxes_per_day > 0,
                "bad-prospect-rate",
                f"prospect {p.name}: boxes/day must be positive",
            )

        # every actor that can ship goods needs a unit price for them
        sellers: list[tuple[str, list[str]]] = [
            (self.retailer.name, [product(p).code for p in self.products]),
            (self.firm.name, [product(p).code for p in self.products]),
            (self.upstream.name, [raw(r).code for r in self.raws]),
        ]
        sellers += [(s.name, [raw(r).code for r in s.raws]) for s in self.suppliers]
        for seller, codes in sellers:
            for code in codes:
                _require(
                    code in self.prices.get(seller, {}),
                    "missing-price",
                    f"no price for {code} sold by {seller}",
                )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "horizon_hours": self.horizon_hours,
            "mode": self.mode,
            "processes": {p: bool(self.processes.get(p, False)) for p in VCOR_PROCESSES},
            "catalog": {
                "products": list(self.products),
                "raws": list(self.raws),
                "bom": {
                    product(pid).code: {raw(rid).code: kg for rid, kg in sorted(needs.items())}
                    for pid, needs in sorted(self.bom.items())
                },
            },
            "suppliers": [
                {
                    "name": s.name,
                    "raws": list(s.raws),
                    "stock_kg": {raw(r).code: v for r, v in sorted(s.stock_kg.items())},
                    "reorder": {
                        raw(r).code: {"point": p.point, "up_to": p.up_to}
                        for r, p in sorted(s.reorder.items())
                    },
                    "frequencies": {"deliver": s.deliver_every, "source": s.source_every},
                    "lead_time": s.lead_time.to_dict(),
                }
                for s in self.suppliers
            ],
            "raw_sources": {raw(r).code: name for r, name in sorted(self.raw_sources.items())},
            "firm": {
                "name": self.firm.name,
                "fgi": {product(p).code: v for p, v in sorted(self.firm.fgi.items())},
                "raw_stock_kg": {
                    raw(r).code: v for r, v in sorted(self.firm.raw_stock_kg.items())
                },
                "raw_reorder": {
                    raw(r).code: {"point": p.point, "up_to": p.up_to}
                    for r, p in sorted(self.firm.raw_reorder.items())
                },
                "production_mode": {
                    product(p).code: m for p, m in sorted(self.firm.production_mode.items())
                },
                "capacity_boxes_per_day": self.firm.capacity_boxes_per_day,
                "frequencies": {
                    "deliver": self.firm.deliver_every,
                    "source": self.firm.source_every,
                    "make": self.firm.make_every,
                },
                "lead_time": self.firm.lead_time.to_dict(),
            },
            "retailer": {
                "name": self.retailer.name,
                "stock": {product(p).code: v for p, v in sorted(self.retailer.stock.items())},
                "reorder": {
                    product(p).code: {"point": pol.point, "up_to": pol.up_to}
                    for p, pol in sorted(self.retailer.reorder.items())
                },
                "frequencies": {
                    "deliver": self.retailer.deliver_every,
                    "source": self.retailer.source_every,
                },
                "lead_time": self.retailer.lead_time.to_dict(),
            },
            "customers": [
                {"name": c.name, "lot_size": c.lot_size, "arrivals": c.arrivals}
                for c in self.customers
            ],
            "upstream": {
                "name": self.upstream.name,
                "frequencies": {"deliver": self.upstream.deliver_every},
                "lead_time": self.upstream.lead_time.to_dict(),
            },
            "demand": {
                "rows": [
                    {"customer": cust, "product": pid, "monthly": [float(v) for v in row]}
                    for (cust, pid), row in sorted(self.demand.rows.items())
                ]
            },
            "prices": {a: dict(sorted(p.items())) for a, p in sorted(self.prices.items())},
            "costs": {
                "holding_per_unit_hour": {
                    a: dict(sorted(h.items())) for a, h in sorted(self.holding_costs.items())
                },
                "production_per_box": self.production_cost_per_box,
                "support_per_ticket": self.support_cost_per_ticket,
            },
            "satisfaction": {
                "initial_vote": self.satisfaction.initial_vote,
                "forgetting_factor": self.satisfaction.params.forgetting_factor,
                "support_weight": self.satisfaction.params.support_weight,
                "price_weight": self.satisfaction.params.price_weight,
                "delay_weight": self.satisfaction.params.delay_weight,
                "quality_weight": self.satisfaction.params.quality_weight,
                "peer_weight": self.satisfaction.params.peer_weight,
            },
            "support": {
                "defect_probability": {
                    product(p).code: v
                    for p, v in sorted(self.support.defect_probability.items())
                },
                "education_decay": self.support.education_decay,
                "handling_hours": self.support.handling_hours,
                "max_defective_fraction": self.support.max_defective_fraction,
            },
            "market": {
                "vote_threshold": self.market.vote_threshold,
                "frequency_hours": self.market.frequency_hours,
            },
            "innovation": {
                "delay_hours": self.innovation.delay_hours,
                "technology_cost": self.innovation.technology_cost,
                "bom_override": (
                    None
                    if self.innovation.bom_override is None
                    else {raw(r).code: kg for r, kg in sorted(self.innovation.bom_override.items())}
                ),
            },
            "sell": {
                "capacity_fraction": self.sell.capacity_fraction,
                "frequency_hours": self.sell.frequency_hours,
                "order_interval_hours": self.sell.order_interval_hours,
                "prospects": [
                    {
                        "name": p.name,
                        "priority": p.priority,
                        "product": p.product,
                        "boxes_per_day": p.boxes_per_day,
                    }
                    for p in self.sell.prospects
                ],
            },
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def topology_digest(self) -> str:
        """Digest of everything a SCOR/VCOR pair must share to be comparable."""
        d = self.to_dict()
        for key in ("mode", "processes", "support", "market", "innovation", "sell", "name"):
            d.pop(key, None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- parsing ---------------------------------------------------------------


def _parse_item_map(raw_map: dict | None, kind: str, where: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for code, value in (raw_map or {}).items():
        item = Item.parse(str(code))
        _require(
            item.kind == kind,
            "wrong-item-kind",
            f"{where}: expected a {kind} code, got {code}",
        )
        out[item.id] = float(value)
    return out


def _parse_policies(raw_map: dict | None, kind: str, where: str) -> dict[int, ReorderPolicy]:
    out: dict[int, ReorderPolicy] = {}
    for code, pol in (raw_map or {}).items():
        item = Item.parse(str(code))
        _require(
            item.kind == kind,
            "wrong-item-kind",
            f"{where}: expected a {kind} code, got {code}",
        )
        out[item.id] = ReorderPolicy(float(pol["point"]), float(pol["up_to"]))
    return out


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    """Build and validate a Scenario from parsed YAML data."""
    try:
        return _scenario_from_dict(data, base_dir)
    except OrderValidationError as exc:
        raise ScenarioError("bad-item-code", str(exc)) from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError("parse", f"malformed scenario document: {exc!r}") from exc


def _scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    _require(isinstance(data, dict), "parse", "scenario document must be a mapping")
    schema = data.get("schema")
    _require(
        schema == SCHEMA_VERSION,
        "schema-version",
        f"unsupported schema version {schema!r} (expected {SCHEMA_VERSION})",
    )
    mode = data.get("mode", "scor")
    _require(mode in MODES, "bad-mode", f"unknown mode {mode!r}")
    processes_raw = data.get("processes")
    if processes_raw is None:
        processes = {p: mode == "vcor" for p in VCOR_PROCESSES}
    else:
        processes = {p: bool(v) for p, v in processes_raw.items()}

    catalog = data.get("catalog", {})
    products = tuple(int(p) for p in catalog.get("products", ()))
    raws = tuple(int(r) for r in catalog.get("raws", ()))
    bom: dict[int, dict[int, float]] = {}
    for pcode, needs in (catalog.get("bom") or {}).items():
        pitem = Item.parse(str(pcode))
        bom[pitem.id] = {
            Item.parse(str(rcode)).id: float(kg) for rcode, kg in (needs or {}).items()
        }

    suppliers = []
    for s in data.get("suppliers", ()):
        freqs = s.get("frequencies", {})
        suppliers.append(
            SupplierSpec(
                name=str(s["name"]),
                raws=tuple(int(r) for r in s.get("raws", ())),
                stock_kg=_parse_item_map(s.get("stock_kg"), "raw", s["name"]),
                reorder=_parse_policies(s.get("reorder"), "raw", s["name"]),
                deliver_every=float(freqs.get("deliver", 4.0)),
                source_every=float(freqs.get("source", 4.0)),
                lead_time=LeadTime.from_dict(s.get("lead_time", {"kind": "fixed", "hours": 1.5})),
            )
        )
    raw_sources = {
        Item.parse(str(code)).id: str(name)
        for code, name in (data.get("raw_sources") or {}).items()
    }

    f = data.get("firm", {})
    ffreq = f.get("frequencies", {})
    firm = FirmSpec(
        name=str(f.get("name", "firm")),
        fgi=_parse_item_map(f.get("fgi"), "product", "firm"),
        raw_stock_kg=_parse_item_map(f.get("raw_stock_kg"), "raw", "firm"),
        raw_reorder=_parse_policies(f.get("raw_reorder"), "raw", "firm"),
        production_mode={
            Item.parse(str(code)).id: str(m)
            for code, m in (f.get("production_mode") or {}).items()
        },
        capacity_boxes_per_day=float(f.get("capacity_boxes_per_day", 185.0)),
        deliver_every=float(ffreq.get("deliver", 2.5)),
        source_every=float(ffreq.get("source", 3.0)),
        make_every=float(ffreq.get("make", 3.0)),
        lead_time=LeadTime.from_dict(f.get("lead_time", {"kind": "fixed", "hours": 2.0})),
    )

    r = data.get("retailer", {})
    rfreq = r.get("frequencies", {})
    retailer = RetailerSpec(
        name=str(r.get("name", "retailer")),
        stock=_parse_item_map(r.get("stock"), "product", "retailer"),
        reorder=_parse_policies(r.get("reorder"), "product", "retailer"),
        deliver_every=float(rfreq.get("deliver", 2.0)),
        source_every=float(rfreq.get("source", 2.5)),
        lead_time=LeadTime.from_dict(r.get("lead_time", {"kind": "fixed", "hours": 1.5})),
    )

    customers = [
        CustomerSpec(
            name=str(c["name"]),
            lot_size=float(c.get("lot_size", 1)),
            arrivals=str(c.get("arrivals", "deterministic")),
        )
        for c in data.get("customers", ())
    ]

    u = data.get("upstream", {})
    upstream = UpstreamSpec(
        name=str(u.get("name", "upstream")),
        deliver_every=float(u.get("frequencies", {}).get("deliver", 4.0)),
        lead_time=LeadTime.from_dict(u.get("lead_time", {"kind": "fixed", "hours": 2.0})),
    )

    demand_section = data.get("demand", {})
    if "file" in demand_section:
        path = Path(demand_section["file"])
        if not path.is_absolute():
            path = (base_dir or Path.cwd()) / path
        demand = load_demand_table(path)
    else:
        demand = DemandTable(
            rows={
                (str(row["customer"]), int(row["product"])): tuple(
                    float(v) for v in row["monthly"]
                )
                for row in demand_section.get("rows", ())
            }
        )

    costs = data.get("costs", {})
    sat = data.get("satisfaction", {})
    satisfaction = SatisfactionConfig(
        params=SatisfactionParams(
            forgetting_factor=float(sat.get("forgetting_factor", 0.3)),
            support_weight=float(sat.get("support_weight", 0.5)),
            price_weight=float(sat.get("price_weight", 0.05)),
            delay_weight=float(sat.get("delay_weight", -0.05)),
            quality_weight=float(sat.get("quality_weight", 0.02)),
            peer_weight=float(sat.get("peer_weight", 0.1)),
        ),
        initial_vote=float(sat.get("initial_vote", 8.0)),
    )

    sup = data.get("support", {})
    support = SupportConfig(
        defect_probability=_parse_item_map(
            sup.get("defect_probability"), "product", "support"
        ),
        education_decay=float(sup.get("education_decay", 0.9)),
        handling_hours=float(sup.get("handling_hours", 2.3)),
        max_defective_fraction=float(sup.get("max_defective_fraction", 0.25)),
    )
    mkt = data.get("market", {})
    market = MarketConfig(
        vote_threshold=float(mkt.get("vote_threshold", 6.0)),
        frequency_hours=float(mkt.get("frequency_hours", 6.0)),
    )
    innov = data.get("innovation", {})
    bom_override = innov.get("bom_override")
    innovation = InnovationConfig(
        delay_hours=float(innov.get("delay_hours", 8.0)),
        technology_cost=float(innov.get("technology_cost", 500.0)),
        bom_override=(
            None
            if bom_override is None
            else {Item.parse(str(c)).id: float(kg) for c, kg in bom_override.items()}
        ),
    )
    sell_raw = data.get("sell", {})
    sell = SellConfig(
        capacity_fraction=float(sell_raw.get("capacity_fraction", 0.5)),
        frequency_hours=float(sell_raw.get("frequency_hours", 12.0)),
        order_interval_hours=float(sell_raw.get("order_interval_hours", 6.0)),
        prospects=tuple(
            ProspectSpec(
                name=str(p["name"]),
                priority=int(p["priority"]),
                product=int(p["product"]),
                boxes_per_day=float(p["boxes_per_day"]),
            )
            for p in sell_raw.get("prospects", ())
        ),
    )

    scenario = Scenario(
        name=str(data.get("name", "unnamed")),
        seed=int(data.get("seed", 0)),
        horizon_hours=float(data.get("horizon_hours", 48.0)),
        mode=mode,
        processes=processes,
        products=products,
        raws=raws,
        bom=bom,
        suppliers=suppliers,
        raw_sources=raw_sources,
        firm=firm,
        retailer=retailer,
        customers=customers,
        upstream=upstream,
        demand=demand,
        prices={a: dict(p) for a, p in (data.get("prices") or {}).items()},
        holding_costs={
            a: dict(h) for a, h in (costs.get("holding_per_unit_hour") or {}).items()
        },
        production_cost_per_box=float(costs.get("production_per_box", 0.0)),
        support_cost_per_ticket=float(costs.get("support_per_ticket", 0.0)),
        satisfaction=satisfaction,
        support=support,
        market=market,
        innovation=innovation,
        sell=sell,
    )
    scenario.validate()
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario YAML file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("io", f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError("parse", f"{path}: {exc}") from exc
    return scenario_from_dict(data, base_dir=path.parent)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(scenario.to_dict(), sort_keys=False), encoding="utf-8"
    )


def load_demand_table(path: str | Path) -> DemandTable:
    """Parse a demand CSV: customer,product,m1..m12; '-' or blank means zero."""
    import csv

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("io", f"cannot read demand table {path}: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ScenarioError("parse", f"{path}: empty demand table") from None
    expected = ["customer", "product"] + [f"m{i}" for i in range(1, 13)]
    if [h.strip().lower() for h in header] != expected:
        raise ScenarioError(
            "parse",
            f"{path}: demand table header must be {','.join(expected)}",
        )
    rows: dict[tuple[str, int], tuple[float, ...]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 14:
            raise ScenarioError(
                "parse", f"{path}:{lineno}: expected 14 columns, got {len(row)}"
            )
        customer = row[0].strip()
        try:
            pid = int(row[1])
        except ValueError:
            raise ScenarioError(
                "parse", f"{path}:{lineno}: bad product id {row[1]!r}"
            ) from None
        monthly = []
        for cell in row[2:]:
            cell = cell.strip()
            if cell in ("-", ""):
                monthly.append(0.0)
            else:
                try:
                    monthly.append(float(cell))
                except ValueError:
                    raise ScenarioError(
                        "parse", f"{path}:{lineno}: bad demand value {cell!r}"
                    ) from None
        rows[(customer, pid)] = tuple(monthly)
    table = DemandTable(rows=rows)
    table.validate()
    return table


def demand_table_csv(table: DemandTable) -> str:
    lines = ["customer,product," + ",".join(f"m{i}" for i in range(1, 13))]
    for (customer, pid), row in sorted(table.rows.items()):
        cells = ["-" if v == 0 else format(v, "g") for v in row]
        lines.append(f"{customer},{pid}," + ",".join(cells))
    return "\n".join(lines) + "\n"


# -- the built-in case-study profile ---------------------------------------

CASE_STUDY_DEMAND = DemandTable(
    rows={
        ("customer1", 1): (250, 260, 245, 247, 255, 257, 250, 251, 253, 255, 250, 241),
        ("customer1", 2): (550, 659, 580, 650, 770, 850, 890, 790, 700, 650, 590, 500),
        ("customer1", 3): (0,) * 12,
        ("customer2", 1): (300, 310, 312, 295, 311, 320, 301, 305, 313, 300, 295, 297),
        ("customer2", 2): (0,) * 12,
        ("customer2", 3): (70, 165, 140, 145, 250, 355, 397, 410, 380, 371, 280, 210),
    }
)


def case_study_scenario(
    mode: str = "scor", seed: int = 42, horizon_hours: float = 48.0
) -> Scenario:
    """The reference chain: three suppliers, one firm, one retailer, two customers.

    Inventory levels, rescheduling frequencies, and production capacity carry
    the reference values; policies, prices, and behavioral weights are
    documented calibration defaults.
    """
    _require(mode in MODES, "bad-mode", f"unknown mode {mode!r}")
    raw_price = {"R1": 2.0, "R2": 2.0, "R3": 2.0}
    scenario = Scenario(
        name=f"case-study-{mode}",
        seed=seed,
        horizon_hours=horizon_hours,
        mode=mode,
        processes={p: mode == "vcor" for p in VCOR_PROCESSES},
        products=(1, 2, 3),
        raws=(1, 2, 3),
        bom={1: {1: 1.0}, 2: {2: 1.0}, 3: {3: 1.0}},
        suppliers=[
            SupplierSpec(
                name="supplier1",
                raws=(1,),
                stock_kg={1: 500.0},
                reorder={1: ReorderPolicy(50.0, 500.0)},
                deliver_every=4.0,
                source_every=4.0,
                lead_time=LeadTime(hours=1.5),
            ),
            SupplierSpec(
                name="supplier2",
                raws=(1, 2),
                stock_kg={1: 500.0, 2: 500.0},
                reorder={1: ReorderPolicy(50.0, 500.0), 2: ReorderPolicy(50.0, 500.0)},
                deliver_every=4.0,
                source_every=4.0,
                lead_time=LeadTime(hours=1.5),
            ),
            SupplierSpec(
                name="supplier3",
                raws=(3,),
                stock_kg={3: 500.0},
                reorder={3: ReorderPolicy(50.0, 500.0)},
                deliver_every=4.0,
                source_every=4.0,
                lead_time=LeadTime(hours=1.5),
            ),
        ],
        raw_sources={1: "supplier2", 2: "supplier2", 3: "supplier3"},
        firm=FirmSpec(
            name="firm",
            fgi={1: 500.0, 2: 500.0, 3: 300.0},
            raw_stock_kg={1: 200.0, 2: 200.0, 3: 200.0},
            raw_reorder={
                1: ReorderPolicy(100.0, 250.0),
                2: ReorderPolicy(100.0, 250.0),
                3: ReorderPolicy(100.0, 250.0),
            },
            production_mode={1: "make-to-stock", 2: "make-to-stock", 3: "make-to-stock"},
            capacity_boxes_per_day=185.0,
            deliver_every=2.5,
            source_every=3.0,
            make_every=3.0,
            lead_time=LeadTime(hours=2.0),
        ),
        retailer=RetailerSpec(
            name="retailer",
            stock={1: 0.0, 2: 0.0, 3: 0.0},
            reorder={
                1: ReorderPolicy(100.0, 500.0),
                2: ReorderPolicy(100.0, 500.0),
                3: ReorderPolicy(50.0, 300.0),
            },
            deliver_every=2.0,
            source_every=2.5,
            lead_time=LeadTime(hours=1.5),
        ),
        customers=[
            CustomerSpec(name="customer1", lot_size=2.0),
            CustomerSpec(name="customer2", lot_size=2.0),
        ],
        upstream=UpstreamSpec(name="upstream", deliver_every=4.0, lead_time=LeadTime(hours=2.0)),
        demand=CASE_STUDY_DEMAND,
        prices={
            "retailer": {"P1": 10.0, "P2": 10.0, "P3": 11.5},
            "firm": {"P1": 8.0, "P2": 8.0, "P3": 9.0},
            "supplier1": dict(raw_price),
            "supplier2": dict(raw_price),
            "supplier3": dict(raw_price),
            "upstream": {"R1": 1.5, "R2": 1.5, "R3": 1.5},
        },
        holding_costs={
            "retailer": {"P1": 0.004, "P2": 0.004, "P3": 0.004},
            "firm": {
                "P1": 0.003,
                "P2": 0.003,
                "P3": 0.003,
                "R1": 0.001,
                "R2": 0.001,
                "R3": 0.001,
            },
            "supplier1": {"R1": 0.0008},
            "supplier2": {"R1": 0.0008, "R2": 0.0008},
            "supplier3": {"R3": 0.0008},
        },
        production_cost_per_box=0.5,
        support_cost_per_ticket=5.0,
        satisfaction=SatisfactionConfig(),
        support=SupportConfig(defect_probability={1: 0.05, 2: 0.05, 3: 0.05}),
        market=MarketConfig(),
        innovation=InnovationConfig(),
        sell=SellConfig(
            prospects=(
                ProspectSpec(name="prospect1", priority=1, product=1, boxes_per_day=46.0),
                ProspectSpec(name="prospect2", priority=2, product=2, boxes_per_day=60.0),
            )
        ),
    )
    scenario.validate()
    return scenario
