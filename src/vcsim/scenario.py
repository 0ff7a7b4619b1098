"""Scenario definition: topology, policies, parameters, and file formats.

A scenario fully determines a run: actors and their reorder policies, the
bill of materials, the monthly demand table, prices and cost rates, the
satisfaction-model weights, and the VCOR process toggles. Scenarios are
YAML documents with a versioned ``schema`` field; demand tables are CSV.
The built-in case-study profile carries the reference values for a
three-supplier / one-firm / one-retailer / two-customer chain over a
48-hour horizon.

Every spec, the satisfaction weights included, is a dataclass of this
module that declares each of its fields in its class, with the field's
document path and codec (see ``_field``). ``Scenario.to_dict``, the parser,
the per-field checks of ``Scenario.validate`` and the parts of
``Scenario.digests`` loop over these declarations; only the checks that
relate fields to each other are written out by hand. A scenario derived by
``dataclasses.replace`` shares its template's record of checked values and
digest parts, so it checks and encodes only the values it changed.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, lru_cache
from operator import attrgetter, is_
from pathlib import Path

import yaml

from .jsonl import _ENCODE, _decimal, _escape
from .ledger import PRODUCT, RAW, Item, OrderValidationError

SCHEMA_VERSION = 1

MODES = ("scor", "vcor")
VCOR_PROCESSES = ("support", "market", "research", "develop", "sell")
PRODUCTION_MODES = ("make-to-stock", "make-to-order")
HOURS_PER_MONTH = 720.0  # 30-day months for demand-table scaling

# libyaml's safe loader where PyYAML was built with it (about 7x faster on
# the case study), else the pure-Python one; both build only plain data
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# past this bound on a document's depth ``_loader_for`` picks the pure-Python
# loader, which raises RecursionError at about this depth
_MAX_NESTING = 1000


class ScenarioError(Exception):
    """Scenario failed to parse or validate; ``code`` names the defect."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Misfit(ScenarioError):
    """A value that failed to load or a failed range check; each enclosing
    load or check appends its key to ``path``, and ``_located`` joins it."""

    def __init__(self, code: str, message: str, *path: str) -> None:
        super().__init__(code, message)
        self.path: list[str] = list(path)


def _located(exc: _Misfit) -> ScenarioError:
    path = ".".join(reversed(exc.path))
    return ScenarioError(exc.code, f"{path}: {exc}" if path else str(exc))


def _require(condition: bool, code: str, message: str, *args) -> None:
    """Raise ``code`` unless ``condition``; ``message`` is formatted with ``args`` only then."""
    if not condition:
        raise ScenarioError(code, message.format(*args) if args else message)


# -- codecs ------------------------------------------------------------------
#
# A codec reads a document value (``load``), writes it back (``dump``; None:
# as is) and checks its range (``check(value)``; None: any value goes).
# Checks format their message only when they fail, because ``validate`` runs
# on every scenario build: a failed check, like a value that fails to load,
# raises ``_Misfit``, the checks or loads it passes through add the document
# path, and ``validate`` or ``scenario_from_dict`` joins it.

_Codec = namedtuple("_Codec", "load dump check", defaults=(None, None))
_ANY_ITEM = "item"  # map keys that are item codes of either kind, kept as codes


def _number(value) -> float:
    """A YAML int or float as a float; a string or a bool is no number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _Misfit("parse", f"not a number: {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if math.isfinite(x):
        return x
    raise _Misfit("parse", f"not a finite number: {value!r}")


def _text_number(text: str) -> float:
    """A number written as ASCII text with no ``_``, such as a demand table cell."""
    if not text.isascii() or "_" in text:
        raise _Misfit("parse", f"not a number: {text!r}")
    try:
        x = float(text)
    except ValueError:
        raise _Misfit("parse", f"not a number: {text!r}") from None
    return _number(x)


def _text_integer(text: str) -> int:
    """An integer written as ``str`` writes it, such as a demand table's
    product cell: "1", not "01", the rule of an item code's digits."""
    value = _decimal(text)
    if value is None:
        raise _Misfit("parse", f"not an integer: {text!r}")
    return value


def _integer(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _Misfit("parse", f"not an integer: {value!r}")


def _mapping(doc) -> dict:
    if isinstance(doc, dict):
        return doc
    raise _Misfit("parse", f"not a mapping: {doc!r}")


def _only(doc, keys) -> dict:
    """``doc``, a mapping whose every key is one of ``keys``, the keys its reader reads.

    Any other key, such as a misspelled one, is a parse error, not a value
    silently dropped.
    """
    for key in _mapping(doc):
        if key not in keys:
            raise _Misfit("parse", f"unknown key {key!r}")
    return doc


def _entry(doc: dict, key: str):
    """``doc[key]``, or a parse error that names the missing key."""
    try:
        return doc[key]
    except KeyError:
        raise _Misfit("parse", f"missing key {key!r}") from None


def _at(key, fn, value):
    """``fn(value)``, a load or a check, adding ``key`` to the path of a misfit."""
    try:
        return fn(value)
    except _Misfit as exc:
        exc.path.append(str(key))
        raise


def _number_as_written(value):
    # lead times, prices and holding costs were never converted to float:
    # their ints stay ints, so existing documents keep their digests
    return value if type(value) is int else _number(value)


def _rule(ok, code: str, text: str):
    """A range check: ``ok(value)`` holds, or error ``code`` names the defect."""

    def check(value) -> None:
        if not ok(value):
            raise _Misfit(code, f"{value!r} is not {text}")

    return check


_BOUNDS = {
    "[]": lambda lo, hi: lambda x: lo <= x <= hi,
    "[)": lambda lo, hi: lambda x: lo <= x < hi,
    "(]": lambda lo, hi: lambda x: lo < x <= hi,
    "()": lambda lo, hi: lambda x: lo < x < hi,
}


def _num(code: str, interval: str) -> _Codec:
    """A number within ``interval``, written like "(0, 1]" or "[0, inf]"."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    ok = _BOUNDS[interval[0] + interval[-1]](lo, hi)
    return _Codec(_number, check=_rule(ok, code, f"within {interval}"))


def _one_of(code: str, values: tuple[str, ...]) -> _Codec:
    return _Codec(_string, check=_rule(values.__contains__, code, f"one of {values}"))


@lru_cache(maxsize=256, typed=True)
def _item(code) -> Item:
    # a document repeats a few item codes as map keys, so each distinct key
    # is parsed once and its item shared, like ``ledger.product``/``raw``
    try:
        return Item.parse(str(code))
    except OrderValidationError as exc:
        raise _Misfit("bad-item-code", str(exc)) from None


def _map(kind: str | None, value: _Codec, optional: bool = False) -> _Codec:
    """A mapping whose values go through ``value``.

    Keys are item codes of ``kind`` (PRODUCT or RAW; held as item ids), item
    codes of either kind (``_ANY_ITEM``) or names (None). A null document
    value reads as an empty mapping, or as None when ``optional``.
    """
    prefix = {PRODUCT: "P", RAW: "R"}.get(kind)

    def key(code):
        if kind is None:
            return code
        item = _item(code)
        if prefix is None:
            return item.code
        if item.kind != kind:
            raise _Misfit("wrong-item-kind", f"expected a {kind} code, got {code}")
        return item.id

    def load(doc):
        if optional and doc is None:
            return None
        return {
            _at(k, key, k): _at(k, value.load, v)
            for k, v in _mapping({} if doc is None else doc).items()
        }

    def dump(mapping):
        if mapping is None:
            return None
        items = sorted(mapping.items())
        if value.dump is not None:
            items = [(k, value.dump(v)) for k, v in items]
        return dict(items) if prefix is None else {prefix + str(k): v for k, v in items}

    def check(mapping) -> None:
        for k, v in (mapping or {}).items():
            _at(f"{prefix or ''}{k}", value.check, v)

    return _Codec(load, dump, None if value.check is None else check)


def _list(item: _Codec, make=list, rule=None) -> _Codec:
    """A sequence of ``item`` values built with ``make``; ``rule`` checks the whole."""

    def check(seq) -> None:
        if rule is not None:
            rule(seq)
        if item.check is not None:
            for i, x in enumerate(seq):
                _at(i, item.check, x)

    def load(doc):
        if not isinstance(doc, (list, tuple)):
            raise _Misfit("parse", f"not a list: {doc!r}")
        return make([_at(i, item.load, x) for i, x in enumerate(doc)])

    dump = list if item.dump is None else lambda seq: [item.dump(x) for x in seq]
    has_check = rule is not None or item.check is not None
    return _Codec(load, dump, check if has_check else None)


def _field(codec: _Codec, path: str | None = None, **default):
    """A spec field with its document ``path`` and ``codec``.

    The path is the field name unless given; a path "group.key" puts the key
    in the sub-mapping ``group``. ``default`` or ``default_factory`` go to
    ``dataclasses.field``: a key absent from a document takes the field's
    default, and is an error for a field without one.
    """
    return field(**default, metadata={"doc": (path, codec)})


def _declarations(cls) -> list[tuple]:
    """``(attr, key, keys, codec, required)`` per field of ``cls``, in order.

    Every field of a spec is a ``_field``, but for the ones a scenario derives.
    """
    entries = []
    for f in fields(cls):
        if "doc" not in f.metadata:
            continue
        path, codec = f.metadata["doc"]
        key = path or f.name
        required = f.default is MISSING and f.default_factory is MISSING
        entries.append((f.name, key, key.split("."), codec, required))
    return entries


def _spec(cls) -> _Codec:
    """The codec of a spec dataclass, from its ``_field`` declarations."""
    entries = _declarations(cls)
    checks = [(attr, key, codec.check) for attr, key, _, codec, _ in entries if codec.check]
    known: dict[str, set] = {}  # each key of the spec's mapping -> the keys of its sub-mapping
    for _, _, (top, *sub), _, _ in entries:
        known.setdefault(top, set()).update(sub)

    def load(doc):
        doc, kwargs = _only(doc, known), {}
        for attr, key, keys, codec, required in entries:
            node = doc
            for part in keys[:-1]:
                node = _at(part, lambda d: _only(d, known[part]), node.get(part, {}))
            if required or keys[-1] in node:
                kwargs[attr] = _at(key, codec.load, _entry(node, keys[-1]))
        return cls(**kwargs)

    def dump(obj) -> dict:
        out: dict = {}
        for attr, _, keys, codec, _ in entries:
            value = getattr(obj, attr)
            if codec.dump is not None:
                value = codec.dump(value)
            if len(keys) == 1:
                out[keys[0]] = value
            else:
                out.setdefault(keys[0], {})[keys[1]] = value
        return out

    def check(obj) -> None:
        for attr, key, check in checks:
            _at(key, check, getattr(obj, attr))

    return _Codec(load, dump, check)


def _string(value) -> str:
    if isinstance(value, str):
        return value
    raise _Misfit("parse", f"not a string: {value!r}")


def _boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    raise _Misfit("parse", f"not a boolean: {value!r}")


_NUM = _Codec(_number)
_INT = _Codec(_integer)
_STR = _Codec(_string)
# times and intervals are finite: the engine schedules no event at infinity
_FREQUENCY = _num("bad-frequency", "(0, inf)")
_STOCK = _num("negative-stock", "[0, inf]")
_KG_PER_BOX = _num("bad-bom-quantity", "(0, inf]")
_RECIPE = _map(RAW, _KG_PER_BOX)
_RAW_STOCK, _PRODUCT_STOCK = _map(RAW, _STOCK), _map(PRODUCT, _STOCK)
_SEED = _Codec(_integer, check=_rule(lambda x: x >= 0, "bad-seed", ">= 0"))


# -- building blocks -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReorderPolicy:
    """Reorder when stock is strictly below ``point``, ordering up to ``up_to``."""

    point: float = _field(_NUM)
    up_to: float = _field(_NUM)


_POLICY = _spec(ReorderPolicy)._replace(
    check=_rule(lambda p: p.point < p.up_to, "reorder-point-not-below-up-to", "point < up_to")
)


@dataclass(frozen=True, slots=True)
class LeadTime:
    """Transport lead time distribution: fixed, uniform(low, high), or exponential."""

    kind: str = "fixed"
    hours: float = 1.5
    low: float = 0.0
    high: float = 0.0

    def draw(self, rng) -> float:
        if self.kind == "fixed":
            return self.hours
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high)
        return rng.expovariate(1.0 / self.hours) if self.hours > 0 else 0.0


def _load_lead_time(doc) -> LeadTime:
    kind = _at("kind", _string, _mapping(doc).get("kind", "fixed"))
    keys = ("low", "high") if kind == "uniform" else ("hours",)  # the keys ``draw`` reads
    _only(doc, ("kind", *keys))
    return LeadTime(kind, **{key: _at(key, _number_as_written, doc.get(key, 0.0)) for key in keys})


def _dump_lead_time(lt: LeadTime) -> dict:
    if lt.kind == "uniform":
        return {"kind": "uniform", "low": lt.low, "high": lt.high}
    return {"kind": lt.kind, "hours": lt.hours}


def _lead_time_ok(lt: LeadTime) -> bool:
    if lt.kind == "uniform":
        return 0 <= lt.low <= lt.high < math.inf
    return lt.kind in ("fixed", "exponential") and 0 <= lt.hours < math.inf


_LEAD_TIME = _Codec(
    _load_lead_time, _dump_lead_time, _rule(_lead_time_ok, "bad-lead-time", "a valid lead time")
)


@dataclass(frozen=True, slots=True)
class SupplierSpec:
    name: str = _field(_STR)
    raws: tuple[int, ...] = _field(_list(_INT, tuple), default=())
    stock_kg: dict[int, float] = _field(_RAW_STOCK, default_factory=dict)
    reorder: dict[int, ReorderPolicy] = _field(_map(RAW, _POLICY), default_factory=dict)
    deliver_every: float = _field(_FREQUENCY, "frequencies.deliver", default=4.0)
    source_every: float = _field(_FREQUENCY, "frequencies.source", default=4.0)
    lead_time: LeadTime = _field(_LEAD_TIME, default_factory=LeadTime)


@dataclass(frozen=True, slots=True)
class FirmSpec:
    name: str = _field(_STR, default="firm")
    fgi: dict[int, float] = _field(_PRODUCT_STOCK, default_factory=dict)
    raw_stock_kg: dict[int, float] = _field(_RAW_STOCK, default_factory=dict)
    raw_reorder: dict[int, ReorderPolicy] = _field(_map(RAW, _POLICY), default_factory=dict)
    production_mode: dict[int, str] = _field(
        _map(PRODUCT, _one_of("bad-production-mode", PRODUCTION_MODES)), default_factory=dict
    )
    capacity_boxes_per_day: float = _field(_num("bad-capacity", "(0, inf)"), default=185.0)
    deliver_every: float = _field(_FREQUENCY, "frequencies.deliver", default=2.5)
    source_every: float = _field(_FREQUENCY, "frequencies.source", default=3.0)
    make_every: float = _field(_FREQUENCY, "frequencies.make", default=3.0)
    lead_time: LeadTime = _field(_LEAD_TIME, default_factory=lambda: LeadTime(hours=2.0))


@dataclass(frozen=True, slots=True)
class RetailerSpec:
    name: str = _field(_STR, default="retailer")
    stock: dict[int, float] = _field(_PRODUCT_STOCK, default_factory=dict)
    reorder: dict[int, ReorderPolicy] = _field(_map(PRODUCT, _POLICY), default_factory=dict)
    deliver_every: float = _field(_FREQUENCY, "frequencies.deliver", default=2.0)
    source_every: float = _field(_FREQUENCY, "frequencies.source", default=2.5)
    lead_time: LeadTime = _field(_LEAD_TIME, default_factory=LeadTime)


@dataclass(frozen=True, slots=True)
class CustomerSpec:
    name: str = _field(_STR)
    lot_size: float = _field(_num("bad-lot-size", "(0, inf]"), default=1.0)
    arrivals: str = _field(
        _one_of("bad-arrival-mode", ("deterministic", "memoryless")), default="deterministic"
    )


@dataclass(frozen=True, slots=True)
class UpstreamSpec:
    """Tier-2 source feeding the suppliers; stock is unbounded."""

    name: str = _field(_STR, default="upstream")
    deliver_every: float = _field(_FREQUENCY, "frequencies.deliver", default=4.0)
    lead_time: LeadTime = _field(_LEAD_TIME, default_factory=lambda: LeadTime(hours=2.0))


@dataclass(frozen=True, slots=True)
class SupportConfig:
    defect_probability: dict[int, float] = _field(  # per product
        _map(PRODUCT, _num("bad-defect-probability", "[0, 1]")), default_factory=dict
    )
    education_decay: float = _field(_num("bad-education-decay", "(0, 1]"), default=0.9)
    handling_hours: float = _field(_num("bad-handling-time", "[0, inf)"), default=2.3)
    max_defective_fraction: float = _field(_num("bad-defective-fraction", "(0, 1]"), default=0.25)


@dataclass(frozen=True, slots=True)
class MarketConfig:
    vote_threshold: float = _field(_NUM, default=6.0)
    frequency_hours: float = _field(_FREQUENCY, default=6.0)


@dataclass(frozen=True, slots=True)
class InnovationConfig:
    delay_hours: float = _field(_num("bad-innovation-delay", "[0, inf)"), default=8.0)
    technology_cost: float = _field(_NUM, default=500.0)
    bom_override: dict[int, float] | None = _field(  # raw id -> kg per box
        _map(RAW, _KG_PER_BOX, optional=True), default=None
    )


@dataclass(frozen=True, slots=True)
class ProspectSpec:
    name: str = _field(_STR)
    priority: int = _field(_INT)
    product: int = _field(_INT)
    boxes_per_day: float = _field(_num("bad-prospect-rate", "(0, inf]"))


@dataclass(frozen=True, slots=True)
class SellConfig:
    capacity_fraction: float = _field(_num("bad-capacity-fraction", "(0, 1]"), default=0.5)
    frequency_hours: float = _field(_FREQUENCY, default=12.0)
    order_interval_hours: float = _field(_FREQUENCY, default=6.0)
    prospects: tuple[ProspectSpec, ...] = _field(_list(_spec(ProspectSpec), tuple), default=())


@dataclass(frozen=True, slots=True)
class DemandTable:
    """Monthly demand in boxes per (customer, product); absent means zero."""

    rows: dict[tuple[str, int], tuple[float, ...]] = field(default_factory=dict)

    def products_by_customer(self) -> dict[str, list[int]]:
        """Each customer's products with some demand, in id order; one pass over the rows."""
        index: dict[str, list[int]] = {}
        for (customer, pid), row in sorted(self.rows.items()):
            if any(v > 0 for v in row):
                index.setdefault(customer, []).append(pid)
        return index

    def validate(self) -> None:
        for (customer, pid), row in self.rows.items():
            if len(row) != 12:
                raise ScenarioError(
                    "bad-demand-row", f"demand row {customer}/P{pid} has {len(row)} months"
                )
            if not all(0 <= v < math.inf for v in row):
                raise ScenarioError(
                    "bad-demand-row", f"demand row {customer}/P{pid} has negative or infinite boxes"
                )


def _load_demand_row(row) -> tuple[tuple[str, int], tuple[float, ...]]:
    row = _only(row, ("customer", "product", "monthly"))
    customer = _at("customer", _string, _entry(row, "customer"))
    key = (customer, _at("product", _integer, _entry(row, "product")))
    return key, _at("monthly", _MONTHS.load, _entry(row, "monthly"))


def _by_customer_and_product(rows: list) -> dict:
    """Demand rows keyed by (customer, product), which only one row may give."""
    table = {}
    for i, (key, monthly) in enumerate(rows):
        if key in table:
            raise _Misfit("bad-demand-row", f"a second row for {key[0]}/P{key[1]}", str(i))
        table[key] = monthly
    return table


_MONTHS = _list(_NUM, tuple)
_DEMAND_ROWS = _list(_Codec(_load_demand_row), _by_customer_and_product)


def _load_demand(d) -> DemandTable:
    """An inline table, or a CSV file named by ``file``, which then is the only key."""
    if "file" in _mapping(d):
        return load_demand_table(_at("file", _string, _only(d, ("file",))["file"]))
    return DemandTable(rows=_at("rows", _DEMAND_ROWS.load, _only(d, ("rows",)).get("rows", ())))


def _dump_demand(table: DemandTable) -> dict:
    rows = sorted(table.rows.items())
    return {
        "rows": [
            {"customer": cust, "product": pid, "monthly": [float(v) for v in row]}
            for (cust, pid), row in rows
        ]
    }


_DEMAND = _Codec(_load_demand, _dump_demand, DemandTable.validate)


@dataclass(frozen=True, slots=True)
class SatisfactionParams:
    """The starting vote and the weights of the vote-update input (see ``satisfaction``).

    price_weight is strictly positive: set the price-change signal to zero
    to disable it.
    """

    # every voter's vote before its first update
    initial_vote: float = _field(_num("bad-initial-vote", "[0, 10]"), default=8.0)
    forgetting_factor: float = _field(_num("forgetting-factor-out-of-range", "(0, 1)"), default=0.3)
    support_weight: float = _field(_NUM, default=0.5)  # of a satisfied support request
    price_weight: float = _field(_num("price-weight-not-positive", "(0, inf]"), default=0.05)
    delay_weight: float = _field(_NUM, default=-0.05)  # of the delivery-delay percentage
    quality_weight: float = _field(_NUM, default=0.02)  # of the conform-ratio percentage
    peer_weight: float = _field(_NUM, default=0.1)  # coupling to the other customers' votes


_PRICE = _Codec(_number_as_written, check=_rule(lambda x: x >= 0, "negative-price", ">= 0"))
_HOLDING_COST = _Codec(
    _number_as_written, check=_rule(lambda x: x >= 0, "negative-holding-cost", ">= 0")
)
_PROCESSES = _Codec(
    _map(None, _Codec(_boolean), optional=True).load,  # None: the toggles follow the mode
    lambda d: {p: bool(d.get(p, False)) for p in VCOR_PROCESSES},
    _rule(lambda d: set(d) <= set(VCOR_PROCESSES), "unknown-process", "a map of known processes"),
)
_CATALOG = _list(_INT, tuple, _rule(len, "empty-catalog", "a non-empty list"))


@dataclass(frozen=True, slots=True)
class Scenario:
    """A run's whole input, validated when built and immutable afterwards.

    ``processes`` None means the toggles follow ``mode``. A variant comes
    from ``dataclasses.replace``, which builds and validates a new instance.
    The mappings and lists a scenario holds are read-only by contract, so
    instances may share them.
    """

    name: str = _field(_STR, default="unnamed")
    seed: int = _field(_SEED, default=0)
    horizon_hours: float = _field(_num("bad-horizon", "[0, inf)"), default=48.0)
    mode: str = _field(_one_of("bad-mode", MODES), default="scor")
    processes: dict[str, bool] = _field(_PROCESSES, default=None)
    products: tuple[int, ...] = _field(_CATALOG, "catalog.products", default=())
    raws: tuple[int, ...] = _field(_CATALOG, "catalog.raws", default=())
    bom: dict[int, dict[int, float]] = _field(  # product -> raw -> kg per box
        _map(PRODUCT, _RECIPE), "catalog.bom", default_factory=dict
    )
    suppliers: list[SupplierSpec] = _field(_list(_spec(SupplierSpec)), default_factory=list)
    # designated supplier per raw
    raw_sources: dict[int, str] = _field(_map(RAW, _STR), default_factory=dict)
    firm: FirmSpec = _field(_spec(FirmSpec), default_factory=FirmSpec)
    retailer: RetailerSpec = _field(_spec(RetailerSpec), default_factory=RetailerSpec)
    customers: list[CustomerSpec] = _field(
        _list(_spec(CustomerSpec), list, _rule(len, "no-customers", "a non-empty list")),
        default_factory=list,
    )
    upstream: UpstreamSpec = _field(_spec(UpstreamSpec), default_factory=UpstreamSpec)
    demand: DemandTable = _field(_DEMAND, default_factory=DemandTable)
    # actor -> item code -> unit price, and per unit-hour held
    prices: dict[str, dict[str, float]] = _field(
        _map(None, _map(_ANY_ITEM, _PRICE)), default_factory=dict
    )
    holding_costs: dict[str, dict[str, float]] = _field(
        _map(None, _map(_ANY_ITEM, _HOLDING_COST)),
        "costs.holding_per_unit_hour",
        default_factory=dict,
    )
    production_cost_per_box: float = _field(_NUM, "costs.production_per_box", default=0.0)
    support_cost_per_ticket: float = _field(_NUM, "costs.support_per_ticket", default=0.0)
    satisfaction: SatisfactionParams = _field(
        _spec(SatisfactionParams), default_factory=SatisfactionParams
    )
    support: SupportConfig = _field(_spec(SupportConfig), default_factory=SupportConfig)
    market: MarketConfig = _field(_spec(MarketConfig), default_factory=MarketConfig)
    innovation: InnovationConfig = _field(_spec(InnovationConfig), default_factory=InnovationConfig)
    sell: SellConfig = _field(_spec(SellConfig), default_factory=SellConfig)
    # field -> (the value that last passed its check, its digest part or
    # None), "<references>" -> the values that last passed
    # ``_check_references`` and "<holdings>" -> the table it returned;
    # ``replace`` hands it on, so a scenario shares its template's record
    _record: dict = field(default_factory=dict, repr=False, compare=False)
    # the terms of each stock record a run can create (``_holdings``), bound by ``validate``
    holdings: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.processes is None:
            toggles = {p: self.mode == "vcor" for p in VCOR_PROCESSES}
            object.__setattr__(self, "processes", toggles)
        self.validate()

    # -- derived --------------------------------------------------------

    def vcor_enabled(self, process: str) -> bool:
        return bool(self.processes.get(process, False))

    def actor_names(self) -> list[str]:
        return _actor_names(
            self.upstream, self.suppliers, self.firm, self.retailer, self.customers, self.sell
        )

    def price_of(self, actor: str, item: Item) -> float:
        try:
            return self.prices[actor][item.code]
        except KeyError:
            raise ScenarioError(
                "missing-price", f"no price for {item.code} sold by {actor}"
            ) from None

    def stocking(self) -> list[tuple]:
        """What each actor stocks before any delivery, in the order a run creates the records."""
        return _stocking(self.products, self.raws, self.suppliers, self.firm, self.retailer,
                         self.upstream, self.raw_sources)

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Check each field against its table entry, then the cross-references.

        Every scenario build runs this, so the loops over many entries test
        and raise inline rather than call ``_require``. A field whose value is
        the one its slot of ``_record`` holds passed its check before, in this
        scenario or one it was derived from, and is not checked again; nor
        are the cross-references while none of the values they read changed.
        Each build binds the table they last returned, this scenario's, as ``holdings``.
        """
        record = self._record
        for attr, key, check in _CHECKS:
            value = getattr(self, attr)
            if record.get(attr, _VACANT)[0] is not value:
                try:
                    _at(key, check, value)
                except _Misfit as exc:
                    raise _located(exc) from None
                record[attr] = (value, None)
        values = _REFERENCED(self)
        passed = record.get("<references>")
        if passed is None or not all(map(is_, passed, values)):
            record["<holdings>"] = _check_references(*values)
            record["<references>"] = values
        object.__setattr__(self, "holdings", record["<holdings>"])

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION, **_SCENARIO.dump(self)}

    def digests(self) -> tuple[str, str]:
        """The scenario digest and the topology digest.

        Each is the sha256 prefix of the compact, key-sorted JSON of a dict:
        ``to_dict()``, and for the topology the same without the keys a
        SCOR/VCOR pair may differ in, which a comparable pair must share.
        Both blobs are joined from one part per field, its key and the JSON
        of its document value. A part is encoded once and kept in the field's
        slot of ``_record`` while the field holds that value, in this
        scenario and the ones derived from it.
        """
        record = self._record
        full, shared = [], []
        for head, members, tail, in_topology in _DIGEST_LAYOUT:
            parts = []
            for attr, prefix, dump in members:
                value = getattr(self, attr)
                seen, part = record.get(attr, _VACANT)
                if seen is not value or part is None:
                    part = prefix + _ENCODE(value if dump is None else dump(value))
                    record[attr] = (value, part)
                parts.append(part)
            text = head + ",".join(parts) + tail
            full.append(text)
            if in_topology:
                shared.append(text)
        return _short_sha256("{%s}" % ",".join(full)), _short_sha256("{%s}" % ",".join(shared))


def _actor_names(upstream, suppliers, firm, retailer, customers, sell) -> list[str]:
    names = [upstream.name]
    names += [s.name for s in suppliers]
    names += [firm.name, retailer.name]
    names += [c.name for c in customers]
    names += [p.name for p in sell.prospects]
    return names


def _stocking(products, raws, suppliers, firm, retailer, upstream, raw_sources) -> list[tuple]:
    """``(owner, kind, ids, stock, reorder, sources, paths)`` per stocking actor's ``kind``
    items: their ids, starting levels, (s, S) policies and the actor each one is
    restocked from, and the document paths of the level and policy maps."""
    rows = [
        (s.name, RAW, s.raws, s.stock_kg, s.reorder, dict.fromkeys(s.raws, upstream.name),
         (f"suppliers.{i}.stock_kg", f"suppliers.{i}.reorder"))
        for i, s in enumerate(suppliers)
    ]
    return rows + [
        (firm.name, PRODUCT, products, firm.fgi, {}, {}, ("firm.fgi",)),
        (firm.name, RAW, raws, firm.raw_stock_kg, firm.raw_reorder, raw_sources,
         ("firm.raw_stock_kg", "firm.raw_reorder")),
        (retailer.name, PRODUCT, products, retailer.stock, retailer.reorder,
         dict.fromkeys(products, firm.name), ("retailer.stock", "retailer.reorder")),
    ]


def _holdings(stocking, demand, sell, prices, holding_costs) -> dict:
    """``(owner, item code) -> (holding cost per unit-hour, unit value)`` of each stock
    record a run can create: a ``stocking`` row's items, a customer's products with
    some demand, a prospect's product. A record is valued, as written, at its owner's
    price, else at that of its item's source (which only the firm's raws use), else 0."""
    held = [(owner, Item(kind, i).code, sources.get(i))
            for owner, kind, ids, _, _, sources, _ in stocking for i in ids]
    held += [(name, f"P{pid}", None)
             for name, pids in demand.products_by_customer().items() for pid in pids]
    held += [(p.name, f"P{p.product}", None) for p in sell.prospects]
    table = {}
    for owner, code, source in held:
        priced = prices.get(owner, {})
        value = priced[code] if code in priced else prices.get(source, {}).get(code, 0.0)
        table[owner, code] = (holding_costs.get(owner, {}).get(code, 0.0), value)
    return table


def _check_references(
    mode, processes, products, raws, bom, suppliers, raw_sources, firm, retailer,
    customers, upstream, demand, prices, holding_costs, support, innovation, sell,
) -> dict:
    """The checks that relate a scenario's fields to each other; returns ``_holdings``.

    It reads only its arguments, so ``Scenario.validate`` runs it again only
    when one of these fields holds another value.
    """
    enabled = [p for p, on in processes.items() if on]
    _require(
        mode == "vcor" or not enabled,
        "mode-toggle-conflict",
        "mode=scor forces all value-chain processes off, got {}",
        enabled,
    )
    seen: set[str] = set()
    for name in _actor_names(upstream, suppliers, firm, retailer, customers, sell):
        if name in seen:
            raise ScenarioError("duplicate-actor-name", f"two actors are named {name!r}")
        seen.add(name)

    known_products, known_raws = set(products), set(raws)
    for pid, needs in bom.items():
        _require(pid in known_products, "unknown-product", "recipe for unknown product {}", pid)
        for rid in needs:
            _require(rid in known_raws, "unknown-raw", "recipe of P{} uses unknown raw {}", pid, rid)
    for pid in products:
        _require(pid in bom, "missing-recipe", "product {} has no recipe", pid)
    for rid in innovation.bom_override or ():
        _require(rid in known_raws, "unknown-raw", "bom_override uses unknown raw {}", rid)

    covered: set[int] = set()
    producers = {s.name: s.raws for s in suppliers}
    for s in suppliers:
        for rid in s.raws:
            _require(rid in known_raws, "unknown-raw", "{} produces unknown raw {}", s.name, rid)
        covered.update(s.raws)
    _require(
        known_raws <= covered, "raw-not-covered", "raws nobody produces: {}", known_raws - covered
    )
    for rid, name in raw_sources.items():
        _require(rid in known_raws, "unknown-raw", "source for unknown raw {}", rid)
        _require(name in producers, "raw-source-not-supplier", "{!r} is no supplier", name)
        _require(rid in producers[name], "raw-source-not-producer", "{} lacks R{}", name, rid)
    unsourced = known_raws.difference(raw_sources)
    _require(not unsourced, "raw-not-covered", "raws without a source: {}", unsourced)

    customer_names = {c.name for c in customers}
    for name, pid in demand.rows:
        if name not in customer_names:
            raise ScenarioError("unknown-customer", f"demand of unknown {name!r}")
        if pid not in known_products:
            raise ScenarioError("unknown-product", f"demand for unknown product {pid}")
    for p in sell.prospects:
        _require(p.product in known_products, "unknown-product", "{} wants P{}", p.name, p.product)
    for path, per_product in (("firm.production_mode", firm.production_mode),
                              ("support.defect_probability", support.defect_probability)):
        for pid in per_product:
            _require(pid in known_products, "unknown-product",
                     "{}.P{} is never read: the catalog has no P{}", path, pid, pid)

    # every actor that can ship goods needs a unit price for them
    sellers = [(retailer.name, "P", products), (firm.name, "P", products)]
    sellers.append((upstream.name, "R", raws))
    sellers += [(s.name, "R", s.raws) for s in suppliers]
    for seller, prefix, ids in sellers:
        priced = prices.get(seller, {})
        for i in ids:
            code = prefix + str(i)
            if code not in priced:
                raise ScenarioError("missing-price", f"{seller} has no price for {code}")

    # an actor prices catalog items of the kinds it sells (``price_of``) or
    # stocks (as its unit value); no run reads any other entry
    product_traders = {firm.name, retailer.name, *customer_names}
    product_traders.update(p.name for p in sell.prospects)
    raw_traders = {firm.name, upstream.name, *producers}
    for name, entries in prices.items():
        traded = {f"P{i}" for i in products} if name in product_traders else set()
        if name in raw_traders:
            traded.update(f"R{i}" for i in raws)
        for code in entries:
            _require(code in traded, "item-kind-not-used-by-role",
                     "prices.{}.{} is never read: {!r} trades no {}", name, code, name, code)

    # an actor starts with, and reorders, only what it stocks
    stocking = _stocking(products, raws, suppliers, firm, retailer, upstream, raw_sources)
    for owner, kind, ids, stock, reorder, _, paths in stocking:
        letter = "P" if kind == PRODUCT else "R"
        for path, entries in zip(paths, (stock, reorder)):
            for i in entries:
                _require(i in ids, "item-not-stocked", "{}.{}{} is never read: {!r} stocks no {}{}",
                         path, letter, i, owner, letter, i)

    # and holds only what it stocks or receives as a customer or prospect
    held = _holdings(stocking, demand, sell, prices, holding_costs)
    for name, entries in holding_costs.items():
        for code in entries:
            _require((name, code) in held, "item-kind-not-used-by-role",
                     "costs.holding_per_unit_hour.{}.{} is never read: {!r} holds no {}",
                     name, code, name, code)
    return held


# the top-level keys a SCOR/VCOR pair may differ in, left out of the topology digest
_PAIR_VARIANT = frozenset({"mode", "processes", "support", "market", "innovation", "sell", "name"})


def _short_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_SCENARIO = _spec(Scenario)


_VACANT = (object(), None)  # an empty slot of ``Scenario._record``: no value is its value
_CHECKS = [
    (attr, key, codec.check)
    for attr, key, _, codec, _ in _declarations(Scenario)
    if codec.check is not None
]
# the fields ``_check_references`` reads, as a tuple of a scenario's values
_REFERENCED = attrgetter(*inspect.signature(_check_references).parameters)


def _digest_layout() -> list[tuple]:
    """``(head, members, tail, in_topology)`` per top-level key of ``to_dict``, in key order.

    A key's JSON is its head, its members' parts joined by commas, and its
    tail. A member is ``(attr, prefix, dump)``: its part is the prefix
    (its key) and the compact JSON of the field's dumped value. The fields
    of a dotted path ("catalog.bom") are members of one JSON object.
    """
    groups: dict[str, list] = {}
    for attr, _, keys, codec, _ in _declarations(Scenario):
        groups.setdefault(keys[0], []).append((keys[1:], attr, codec.dump))
    layout = [("schema", f"{_escape('schema')}:{_ENCODE(SCHEMA_VERSION)}", (), "")]
    for top, members in groups.items():
        name = _escape(top) + ":"
        if members[0][0]:  # "group.key" paths
            parts = tuple((attr, _escape(sub) + ":", dump) for (sub,), attr, dump in sorted(members))
            layout.append((top, name + "{", parts, "}"))
        else:
            ((_, attr, dump),) = members
            layout.append((top, "", ((attr, name, dump),), ""))
    layout.sort(key=lambda entry: entry[0])
    return [(head, parts, tail, top not in _PAIR_VARIANT) for top, head, parts, tail in layout]


_DIGEST_LAYOUT = _digest_layout()


# -- parsing ---------------------------------------------------------------

# what reading a malformed document raises besides ScenarioError
_MALFORMED = (
    AttributeError, LookupError, TypeError, ValueError, OverflowError, RecursionError
)


def scenario_from_dict(data: dict, base_dir: Path | None = None) -> Scenario:
    """Build and validate a Scenario from parsed YAML data."""
    try:
        _require(isinstance(data, dict), "parse", "scenario document must be a mapping")
        data = dict(data)  # the declarations read every key but the schema
        schema = data.pop("schema", None)
        _require(schema == SCHEMA_VERSION, "schema-version", "unsupported schema {!r}", schema)
        demand = data.get("demand")
        file = demand.get("file") if isinstance(demand, dict) else None
        if base_dir is not None and isinstance(file, str):
            # a relative demand file is relative to the scenario file
            data["demand"] = {**demand, "file": str(base_dir / file)}
        return _SCENARIO.load(data)
    except _Misfit as exc:
        raise _located(exc) from None
    except _MALFORMED as exc:
        raise ScenarioError("parse", f"malformed scenario document: {exc!r}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario YAML file."""
    path = Path(path)
    text = _read_text(path, "scenario file")
    try:
        data = yaml.load(text, Loader=_loader_for(text))
    except yaml.YAMLError as exc:
        raise ScenarioError("parse", f"{path}: {exc}") from exc
    except _MALFORMED as exc:  # a scalar its tag cannot build, or nesting too deep
        raise ScenarioError("parse", f"{path}: {exc!r}") from exc
    return scenario_from_dict(data, base_dir=path.parent)


def _loader_for(text: str):
    """``_LOADER``, or the pure-Python loader for a document that may nest too deep for it.

    PyYAML builds libyaml's nodes by recursion in C, so a document nested
    about 25,000 levels deep overflows an 8 MB stack and kills the process;
    the pure-Python loader raises RecursionError instead. A block-style level
    takes at least half a column of a line, and a flow-style "[" or "{" makes
    at most two levels, which bounds the depth from above.
    """
    longest_line = max(map(len, text.split("\n")))
    bound = 2 * (longest_line + text.count("[") + text.count("{") + 1)
    return _LOADER if bound < _MAX_NESTING else yaml.SafeLoader


def _read_text(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("io", f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError("parse", f"{path}: not UTF-8 text: {exc}") from exc


def save_scenario(scenario: Scenario, path: str | Path, demand_file: str | None = None) -> None:
    """Write ``scenario`` as YAML.

    The demand table goes inline or, given ``demand_file``, to a CSV of that
    name beside the YAML file, which the YAML then refers to.
    """
    path = Path(path)
    data = scenario.to_dict()
    if demand_file is not None:
        (path.parent / demand_file).write_text(demand_table_csv(scenario.demand), encoding="utf-8")
        data["demand"] = {"file": demand_file}
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")


def load_demand_table(path: str | Path) -> DemandTable:
    """Parse a demand CSV: customer,product,m1..m12; '-' or blank means zero.

    It reads what :func:`demand_table_csv` writes: a product cell is ASCII
    digits, and a month cell an ASCII number with no ``_``.
    """
    import csv

    path = Path(path)
    reader = csv.reader(_read_text(path, "demand table").splitlines())
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
        cells = [cell.strip() for cell in row]
        try:
            customer, pid = cells[0], _text_integer(cells[1])
            monthly = [0.0 if c in ("-", "") else _text_number(c) for c in cells[2:]]
        except ScenarioError as exc:
            raise ScenarioError("parse", f"{path}:{lineno}: {exc}") from None
        _require((customer, pid) not in rows, "bad-demand-row",
                 "{}:{}: a second row for {}/P{}", path, lineno, customer, pid)
        rows[customer, pid] = tuple(monthly)
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

    Inventory levels carry the reference values, and so do the spec defaults
    it keeps for rescheduling frequencies, lead times and production capacity;
    policies, prices, and behavioral weights are documented calibration
    defaults. Each call derives its scenario from one built per mode, whose
    specs it shares.
    """
    _require(mode in MODES, "bad-mode", "unknown mode {!r}", mode)
    return replace(_case_study(mode), seed=seed, horizon_hours=horizon_hours)


@cache
def _case_study(mode: str) -> Scenario:
    raw_price = {"R1": 2.0, "R2": 2.0, "R3": 2.0}
    return Scenario(
        name=f"case-study-{mode}",
        seed=42,
        horizon_hours=48.0,
        mode=mode,
        products=(1, 2, 3),
        raws=(1, 2, 3),
        bom={1: {1: 1.0}, 2: {2: 1.0}, 3: {3: 1.0}},
        suppliers=[
            SupplierSpec(
                name="supplier1",
                raws=(1,),
                stock_kg={1: 500.0},
                reorder={1: ReorderPolicy(50.0, 500.0)},
            ),
            SupplierSpec(
                name="supplier2",
                raws=(1, 2),
                stock_kg={1: 500.0, 2: 500.0},
                reorder={1: ReorderPolicy(50.0, 500.0), 2: ReorderPolicy(50.0, 500.0)},
            ),
            SupplierSpec(
                name="supplier3",
                raws=(3,),
                stock_kg={3: 500.0},
                reorder={3: ReorderPolicy(50.0, 500.0)},
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
        ),
        retailer=RetailerSpec(
            name="retailer",
            stock={1: 0.0, 2: 0.0, 3: 0.0},
            reorder={
                1: ReorderPolicy(100.0, 500.0),
                2: ReorderPolicy(100.0, 500.0),
                3: ReorderPolicy(50.0, 300.0),
            },
        ),
        customers=[
            CustomerSpec(name="customer1", lot_size=2.0),
            CustomerSpec(name="customer2", lot_size=2.0),
        ],
        upstream=UpstreamSpec(),
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
        satisfaction=SatisfactionParams(),
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
