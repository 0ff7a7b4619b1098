"""Deterministic future-event-list scheduler.

A single simulation run is driven by one :class:`Engine`: a simulation
clock in hours, a priority queue of events keyed by (fire_time,
sequence_no), named random substreams, and periodic process activations.
An event is a tuple that starts with its key, so the heap orders the events
themselves.
Everything a run does is a pure function of (scenario, seed); simultaneous
events fire in insertion (FIFO) order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, NamedTuple

from .jsonl import _ENCODE, _Quoted, _trace_line


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past or with a bad interval.

    Signals a logic bug in the caller; the engine never clamps times.
    """


class QueueExhausted(Exception):
    """Raised by :meth:`Engine.advance` on an empty queue (normal termination)."""


class Event(NamedTuple):
    """One scheduled occurrence: who fires, what kind, when.

    Sequence numbers are unique, so comparing two events never reaches the
    target or the payload.
    """

    fire_time: float
    sequence_no: int
    target: str
    kind: str
    payload: dict[str, Any] | None = None

    def payload_digest(self) -> str:
        """Short stable digest of the payload, for trace export."""
        if self.payload is None:
            return "-"
        return hashlib.sha256(_ENCODE(self.payload).encode("utf-8")).hexdigest()[:12]


class RandomStreams:
    """Named random substreams derived from one 64-bit master seed.

    Each named stream is an independent ``random.Random`` seeded from
    sha256(seed, name), so the draw sequence of one stream never depends
    on how often other streams are consumed, and adding a new actor
    never perturbs existing actors' draws.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng


@dataclass(slots=True)
class _Periodic:
    target: str
    kind: str
    interval: float
    fired: int = 0  # occurrences scheduled so far


Handler = Callable[["Engine", Event], None]


class Engine:
    """Future-event-list simulation engine for one run.

    Handlers are registered per event kind via :meth:`on`; events with no
    handler still fire (and appear in the trace), which keeps the engine
    usable on its own in tests.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now = 0.0  # simulation time in hours; advance() only moves it forward
        self.streams = RandomStreams(seed)
        self.trace: list[Event] = []
        self._queue: list[Event] = []
        self._next_seq = 0
        self._periodics: list[_Periodic] = []
        # kind -> target -> its spec; the first registration of a pair wins
        self._periodic_of: dict[str, dict[str, _Periodic]] = {}
        self._handlers: dict[str, Handler] = {}

    # -- scheduling ---------------------------------------------------

    def schedule(
        self,
        at: float,
        target: str,
        kind: str,
        payload: dict[str, Any] | None = None,
    ) -> Event:
        """Enqueue an event at absolute time ``at`` (>= now)."""
        if not at >= self.now:  # also true for NaN, which compares false
            raise SchedulingError(
                f"cannot schedule '{kind}' at t={at} when now={self.now}: "
                "the time is past or not a number"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(at, seq, target, kind, payload)
        heappush(self._queue, event)
        return event

    def register_periodic(self, target: str, kind: str, interval: float) -> None:
        """Activate (target, kind) at interval, 2*interval, ... until run end.

        The first activation is one full interval after t=0, never at t=0.
        """
        if interval <= 0:
            raise SchedulingError(f"periodic interval must be positive, got {interval}")
        spec = _Periodic(target, kind, interval)
        self._periodics.append(spec)
        self._periodic_of.setdefault(kind, {}).setdefault(target, spec)

    def on(self, kind: str, handler: Handler) -> None:
        self._handlers[kind] = handler

    # -- execution ----------------------------------------------------

    def advance(self) -> tuple[float, Event]:
        """Pop and return the minimum-key event, advancing the clock to it."""
        if not self._queue:
            raise QueueExhausted("simulation exhausted: event queue is empty")
        event = heappop(self._queue)
        if event.fire_time < self.now:
            raise SchedulingError(f"clock cannot move backwards: {event.fire_time} < {self.now}")
        self.now = event.fire_time
        return event.fire_time, event

    def run_until(self, t_end: float) -> list[Event]:
        """Process every event with fire_time <= t_end, in total order.

        Returns the ordered trace of fired events. Queue exhaustion before
        t_end is normal termination. The run ends here: the handlers are
        dropped, since their owner (a ``Chain``) holds this engine, and that
        cycle would leave the whole run to the cyclic garbage collector.
        """
        if not t_end >= 0:  # also true for NaN
            raise SchedulingError(f"horizon must be a non-negative number, got {t_end}")
        for spec in self._periodics:
            first = spec.interval  # occurrence 1, never t=0
            if spec.fired == 0 and first <= t_end:
                self.schedule(first, spec.target, spec.kind, None)
                spec.fired = 1
        queue, trace = self._queue, self.trace
        handlers, periodic_of = self._handlers, self._periodic_of
        while queue and queue[0][0] <= t_end:
            # advance(), inlined: this loop runs once per event
            event = heappop(queue)
            t, _, target, kind, _ = event
            if t < self.now:
                raise SchedulingError(f"clock cannot move backwards: {t} < {self.now}")
            self.now = t
            trace.append(event)
            handler = handlers.get(kind)
            if handler is not None:
                handler(self, event)
            by_target = periodic_of.get(kind)
            spec = None if by_target is None else by_target.get(target)
            if spec is not None:
                # occurrence times are k*interval, not accumulated sums,
                # so the count over a horizon is exact
                nxt = (spec.fired + 1) * spec.interval
                if nxt <= t_end:
                    self.schedule(nxt, spec.target, spec.kind, None)
                    spec.fired += 1
        self._handlers = {}
        return self.trace


def trace_lines(trace: list[Event]) -> list[str]:
    """Serialize a fired-event trace, one JSON record per line."""
    q = _Quoted()
    return [_trace_line(e, q) for e in trace]
