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
import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, NamedTuple

from .jsonl import LINES

_INF = math.inf


class SchedulingError(Exception):
    """Raised for an event time in the past, infinite or NaN, a bad
    interval, or a horizon that is negative, infinite or NaN.

    Signals a logic bug in the caller; the engine never clamps times.
    """


@dataclass(slots=True)
class _Periodic:
    """A periodic activation: its interval, and the number k of its one
    pending occurrence, which fires at k * interval."""

    interval: float
    k: int = 1


class Event(NamedTuple):
    """One scheduled occurrence: who fires, what kind, when.

    Sequence numbers are unique, so comparing two events never reaches the
    target, the payload or the periodic activation that scheduled it.
    """

    fire_time: float
    sequence_no: int
    target: str
    kind: str
    payload: dict[str, Any] | None = None
    periodic: _Periodic | None = None


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


Handler = Callable[["Engine", Event], None]


class Engine:
    """Future-event-list simulation engine for one run.

    Handlers are registered per event kind via :meth:`on`; events with no
    handler still fire (and appear in the trace), which keeps the engine
    usable on its own in tests. Fired events go to the trace sink, any object
    with ``append`` and ``len()``: a list unless one is given.
    """

    def __init__(self, seed: int = 0, trace: Any = None) -> None:
        self.now = 0.0  # simulation time in hours; run_until() only moves it forward
        self.streams = RandomStreams(seed)
        self.trace = [] if trace is None else trace
        self._queue: list[Event] = []
        self._next_seq = 0
        self._handlers: dict[str, Handler] = {}

    # -- scheduling ---------------------------------------------------

    def schedule(
        self,
        at: float,
        target: str,
        kind: str,
        payload: dict[str, Any] | None = None,
        periodic: _Periodic | None = None,
    ) -> None:
        """Enqueue an event at absolute time ``at`` (>= now, finite)."""
        if not self.now <= at < _INF:  # also true for NaN, which compares false
            raise SchedulingError(
                f"cannot schedule '{kind}' at t={at} when now={self.now}: "
                "the time is past, infinite or not a number"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        # built in C from all six fields: Event(...) would go through the
        # Python-level __new__ of a NamedTuple with defaults, at twice the cost
        heappush(self._queue, tuple.__new__(Event, (at, seq, target, kind, payload, periodic)))

    def register_periodic(self, target: str, kind: str, interval: float) -> None:
        """Activate (target, kind) at interval, 2*interval, ... until run end.

        The first activation is one full interval after t=0, never at t=0;
        each occurrence schedules the next. Every registration is its own
        chain, a repeated (target, kind) pair included.
        """
        if interval <= 0:
            raise SchedulingError(f"periodic interval must be positive, got {interval}")
        self.schedule(interval, target, kind, None, _Periodic(interval))

    def on(self, kind: str, handler: Handler) -> None:
        self._handlers[kind] = handler

    # -- execution ----------------------------------------------------

    def run_until(self, t_end: float) -> Any:
        """Process every event with fire_time <= t_end, in total order,
        handing each to the trace sink as it fires.

        Returns the trace sink. Queue exhaustion before
        t_end is normal termination. The run ends here: the handlers are
        dropped, since their owner (a ``Chain``) holds this engine, and that
        cycle would leave the whole run to the cyclic garbage collector.
        """
        if not 0 <= t_end < _INF:  # also true for NaN
            # a periodic's next occurrence is always <= an infinite horizon
            raise SchedulingError(f"horizon must be a finite non-negative number, got {t_end}")
        queue, handlers = self._queue, self._handlers
        record = self.trace.append
        while queue and queue[0][0] <= t_end:
            event = heappop(queue)
            t, _, target, kind, _, spec = event
            if t < self.now:
                raise SchedulingError(f"clock cannot move backwards: {t} < {self.now}")
            self.now = t
            record(event)
            handler = handlers.get(kind)
            if handler is not None:
                handler(self, event)
            if spec is not None:
                # occurrence times are k*interval, not accumulated sums,
                # so the count over a horizon is exact; the next one is not
                # before now and not after the finite t_end, so it needs none
                # of schedule()'s checks and takes its sequence number here
                nxt = (spec.k + 1) * spec.interval
                if nxt <= t_end:
                    seq = self._next_seq
                    self._next_seq = seq + 1
                    heappush(queue, tuple.__new__(Event, (nxt, seq, target, kind, None, spec)))
                    spec.k += 1
        self._handlers = {}
        return self.trace


def trace_lines(trace: list[Event]) -> list[str]:
    """Serialize a fired-event trace, one JSON record per line."""
    return LINES["event"](trace)
