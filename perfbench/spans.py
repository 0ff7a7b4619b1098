"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

``Tracer.install`` wraps, from outside the program, the public functions and
methods of each vcsim module and every event handler registered with
``Engine.on``. Each call records a span (name, start, end, parent) in memory;
``Tracer.layer_metrics`` folds the spans of one measured unit into the
per-layer metrics, and ``Tracer.write`` writes the spans out at the end.

Hot one-line helpers (``SKIP``) are left unwrapped: a wrapper would cost more
than they do, so their time counts as self time of the calling span.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from enum import Enum
from pathlib import Path

MODULES = ("engine", "ledger", "actors", "satisfaction", "metrics", "simulation", "scenario")

EVENT_KINDS = (
    "activate-deliver",
    "activate-source",
    "activate-make",
    "customer-order",
    "order-arrival",
    "support-intake",
    "activate-market",
    "activate-sell",
    "contract-order",
    "innovation-complete",
)

SKIP = frozenset(
    {
        "engine.Engine.on",  # replaced in Tracer.install: wraps the handler instead
        "engine.Engine.schedule",  # replaced in Tracer.install: counted, no span
        "engine.Engine.schedule_in",
        "engine.Engine.advance",
        "engine.Engine.peek_time",
        "engine.SimClock.advance_to",
        "engine.RandomStreams.stream",
        "engine.Event.sort_key",
        "engine.Event.payload_digest",
        "ledger.Item.parse",
        "ledger.product",
        "ledger.raw",
        "ledger.Order.last_transition_time",
        "ledger.InventoryRecord.adjust",
        "ledger.BillOfMaterials.needs",
        "scenario.Scenario.price_of",
        "scenario.Scenario.holding_cost_of",
        "scenario.Scenario.vcor_enabled",
        "scenario.DemandTable.boxes_for",
        "scenario.LeadTime.draw",
        "metrics.CostLedger.add",
        "actors.Chain.record_of",
    }
)

# per-layer metric -> (span name, "calls" | "total"); "total" is the
# inclusive time of every span of that name
SPAN_METRICS = {
    "engine.trace_lines.s": ("engine.trace_lines", "total"),
    **{f"actors.{kind}.calls": (f"actors.{kind}", "calls") for kind in EVENT_KINDS},
    **{f"actors.{kind}.s": (f"actors.{kind}", "total") for kind in EVENT_KINDS},
    "actors.ship_orders.s": ("actors.Chain.ship_orders", "total"),
    "actors.top_up_reservations.s": ("actors.Chain.top_up_reservations", "total"),
    "actors.check_reorders.s": ("actors.Chain.check_reorders", "total"),
    "actors.run_production.s": ("actors.Chain.run_production", "total"),
    "ledger.open_orders.calls": ("ledger.Ledger.open_orders", "calls"),
    "ledger.open_orders.s": ("ledger.Ledger.open_orders", "total"),
    "ledger.outstanding_replenishment.calls": ("ledger.Ledger.outstanding_replenishment", "calls"),
    "ledger.outstanding_replenishment.s": ("ledger.Ledger.outstanding_replenishment", "total"),
    "ledger.transition.calls": ("ledger.Ledger.transition", "calls"),
    "ledger.transition.s": ("ledger.Ledger.transition", "total"),
    "ledger.place.calls": ("ledger.Ledger.place", "calls"),
    "ledger.place.s": ("ledger.Ledger.place", "total"),
    "ledger.export_lines.s": ("ledger.Ledger.export_lines", "total"),
    "satisfaction.update_vote.calls": ("satisfaction.update_vote", "calls"),
    "satisfaction.update_vote.s": ("satisfaction.update_vote", "total"),
    "metrics.build_report.s": ("metrics.build_report", "total"),
    "metrics.compare_runs.s": ("metrics.compare_runs", "total"),
    "metrics.report_to_json.s": ("metrics.KpiReport.to_json", "total"),
    "simulation.write_artifacts.s": ("simulation.write_artifacts", "total"),
    "scenario.load.s": ("scenario.load_scenario", "total"),
    "scenario.validate.calls": ("scenario.Scenario.validate", "calls"),
    "scenario.validate.s": ("scenario.Scenario.validate", "total"),
    "scenario.digest.calls": ("scenario.Scenario.digest", "calls"),
    "scenario.digest.s": ("scenario.Scenario.digest", "total"),
    "scenario.to_dict.calls": ("scenario.Scenario.to_dict", "calls"),
}

# every per-layer metric the traced run prints: name -> (unit, better)
PER_LAYER = {
    "engine.events": ("count", "lower"),
    "engine.scheduled": ("count", "lower"),
    "engine.periodics": ("count", "lower"),
    "engine.self_s": ("s", "lower"),
    "engine.us_per_event": ("us", "lower"),
    "engine.bare_us_per_event": ("us", "lower"),
    "actors.us_per_event": ("us", "lower"),
    "sim.us_per_event": ("us", "lower"),
    "actors.ship_orders.yield": ("ratio", "higher"),
    "ledger.open_orders.yield": ("ratio", "higher"),
    "ledger.outstanding_replenishment.yield": ("ratio", "higher"),
    "ledger.orders": ("count", "lower"),
    "ledger.transitions": ("count", "lower"),
    "ledger.tickets": ("count", "lower"),
    "simulation.artifact_bytes": ("bytes", "lower"),
    **{
        name: ("count", "lower") if field == "calls" else ("s", "lower")
        for name, (_, field) in SPAN_METRICS.items()
    },
    **{f"layer.{module}.self_s": ("s", "lower") for module in MODULES},
    "trace.unaccounted_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Records spans and counters for the calls into vcsim it has wrapped."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index), parents first
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.periodics: list[list[tuple[str, str, float]]] = []  # one list per engine
        self._engine = None  # weak reference to the engine of periodics[-1]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.periodics.clear()
        self._engine = None

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` updates counters."""
        nid = self._intern(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def phase(self, name: str):
        """A root span around benchmark code: ``bench.setup`` or ``bench.run``."""
        nid = self._intern(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (nid, start, end, parent)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the vcsim modules."""
        counters, periodics = self.counters, self.periodics

        def count_orders_scan(key: str, matched):
            def after(args, result):
                counters[f"{key}.scanned"] += len(args[0].orders)
                counters[f"{key}.matched"] += matched(result)
            return after

        def ship_after(args, result):
            counters["ship_orders.scanned"] += len(args[0].ledger.orders)
            counters["ship_orders.matched"] += len(result)

        def run_until_after(args, result):
            counters["engine.events"] += len(result)

        def periodic_after(args, result):
            engine, target, kind, interval = args
            if self._engine is None or self._engine() is not engine:
                self._engine = weakref.ref(engine)
                periodics.append([])
            periodics[-1].append((target, kind, interval))

        def run_after(args, result):
            counters["ledger.orders"] += len(result.ledger.orders)
            counters["ledger.transitions"] += len(result.ledger.transitions)
            counters["ledger.tickets"] += len(result.ledger.tickets)

        def artifacts_after(args, result):
            out_dir = Path(args[1])
            counters["artifact_bytes"] += sum(p.stat().st_size for p in out_dir.iterdir())

        hooks = {
            "ledger.Ledger.open_orders": count_orders_scan("open_orders", len),
            "ledger.Ledger.outstanding_replenishment": count_orders_scan(
                "outstanding_replenishment", int
            ),
            "actors.Chain.ship_orders": ship_after,
            "engine.Engine.run_until": run_until_after,
            "engine.Engine.register_periodic": periodic_after,
            "simulation.run_scenario": run_after,
            "simulation.write_artifacts": artifacts_after,
        }
        modules = [importlib.import_module(f"vcsim.{short}") for short in MODULES]
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    if qual not in SKIP:
                        self._patch_function(obj, self.wrap(qual, obj, hooks.get(qual)))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                    self._patch_class(short, obj, hooks)

        from vcsim.engine import Engine

        original_on = Engine.on
        original_schedule = Engine.schedule

        def on(engine, kind, handler):
            return original_on(engine, kind, self.wrap(f"actors.{kind}", handler))

        def schedule(*args, **kwargs):
            counters["engine.scheduled"] += 1
            return original_schedule(*args, **kwargs)

        self._set(Engine, "on", on)
        self._set(Engine, "schedule", schedule)

    def _patch_class(self, short: str, cls, hooks) -> None:
        for attr, member in list(vars(cls).items()):
            qual = f"{short}.{cls.__name__}.{attr}"
            if attr.startswith("_") or qual in SKIP:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(qual, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self.wrap(qual, member, hooks.get(qual)))

    def _patch_function(self, original, wrapped) -> None:
        """Rebind a module function in every vcsim module that imported it."""
        for name, mod in list(sys.modules.items()):
            if name == "vcsim" or name.startswith("vcsim."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- derived metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``.

        Only spans under a ``bench.setup`` or ``bench.run`` phase count. The
        ``layer.*.self_s`` figures and ``trace.unaccounted_s`` cover the run
        phase only and add up to its traced duration.
        """
        names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        phase: list[str | None] = [None] * len(spans)
        for i, (nid, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                phase[i] = phase[parent]
            elif names[nid].startswith("bench."):
                phase[i] = names[nid]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        run_s = 0.0
        for i, (nid, start, end, parent) in enumerate(spans):
            if phase[i] is None:
                continue
            name = names[nid]
            calls[name] += 1
            total[name] += end - start
            if phase[i] == "bench.run":
                layer_self[name.split(".", 1)[0]] += end - start - child[i]
                if parent < 0:
                    run_s += end - start

        c = self.counters
        out: dict[str, float] = {}
        for metric, (span, field) in SPAN_METRICS.items():
            out[metric] = float(calls[span] if field == "calls" else total[span])
        events = c["engine.events"]
        handlers = sum(total[f"actors.{kind}"] for kind in EVENT_KINDS)
        run_until = total["engine.Engine.run_until"]
        out["engine.events"] = events
        out["engine.scheduled"] = c["engine.scheduled"]
        out["engine.periodics"] = float(max(map(len, self.periodics), default=0))
        out["engine.self_s"] = run_until - handlers
        per_event = 1e6 / events if events else 0.0
        out["engine.us_per_event"] = (run_until - handlers) * per_event
        out["actors.us_per_event"] = handlers * per_event
        out["sim.us_per_event"] = run_until * per_event
        for key, metric in (
            ("ship_orders", "actors.ship_orders.yield"),
            ("open_orders", "ledger.open_orders.yield"),
            ("outstanding_replenishment", "ledger.outstanding_replenishment.yield"),
        ):
            scanned = c[f"{key}.scanned"]
            out[metric] = c[f"{key}.matched"] / scanned if scanned else 0.0
        for key in ("ledger.orders", "ledger.transitions", "ledger.tickets"):
            out[key] = c[key]
        out["simulation.artifact_bytes"] = c["artifact_bytes"]
        for module in MODULES:
            out[f"layer.{module}.self_s"] = layer_self[module]
        out["trace.unaccounted_s"] = layer_self["bench"]
        out["trace.run_s"] = run_s
        return out

    def largest_periodic_set(self) -> list[tuple[str, str, float]]:
        return max(self.periodics, key=len, default=[])

    def write(self, path: Path) -> None:
        """Write the recorded spans as CSV: name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("name,start,end,parent\n")
            for nid, start, end, parent in self.spans:
                out.write(f"{self.names[nid]},{start!r},{end!r},{parent}\n")


def bare_engine_us_per_event(
    periodics: list[tuple[str, str, float]], events: int = 30000, repeats: int = 3
) -> float:
    """Engine cost per event with the given periodic activations and no handlers."""
    from vcsim.engine import Engine

    if not periodics:
        return 0.0
    horizon = events / sum(1.0 / interval for _, _, interval in periodics)
    samples = []
    for _ in range(repeats):
        engine = Engine(seed=0)
        for target, kind, interval in periodics:
            engine.register_periodic(target, kind, interval)
        start = time.perf_counter()
        fired = engine.run_until(horizon)
        samples.append((time.perf_counter() - start) / len(fired))
    return statistics.median(samples) * 1e6


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_unit) for key in per_unit[0]}
