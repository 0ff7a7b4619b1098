"""Event engine: ordering, tie-breaks, periodics, substreams, determinism."""

import math

import pytest
from hypothesis import given, strategies as st

from vcsim.engine import (
    Engine,
    QueueExhausted,
    SchedulingError,
    trace_lines,
)


def test_schedule_at_zero_fires_first():
    eng = Engine()
    eng.schedule(0.0, "a", "ping")
    t, event = eng.advance()
    assert t == 0.0
    assert event.kind == "ping"


def test_simultaneous_events_fire_in_insertion_order():
    eng = Engine()
    eng.schedule(3.0, "x", "A")
    eng.schedule(3.0, "x", "B")
    assert eng.advance()[1].kind == "A"
    assert eng.advance()[1].kind == "B"


def test_scheduling_in_the_past_is_an_error():
    eng = Engine()
    eng.schedule(5.0, "x", "later")
    eng.advance()  # clock -> 5
    with pytest.raises(SchedulingError):
        eng.schedule(2.0, "x", "too-late")


def test_a_time_that_is_not_a_number_is_an_error():
    # NaN compares false with everything: accepted, it would sit at the head
    # of the heap and end run_until silently with an empty trace
    eng = Engine()
    with pytest.raises(SchedulingError):
        eng.schedule(math.nan, "x", "never")
    eng.schedule(1.0, "x", "a")
    eng.schedule(2.0, "x", "b")
    assert [e.kind for e in eng.run_until(5.0)] == ["a", "b"]
    assert eng.now == 2.0


def test_a_horizon_that_is_not_a_number_is_an_error():
    eng = Engine()
    eng.schedule(1.0, "x", "a")
    with pytest.raises(SchedulingError):
        eng.run_until(math.nan)
    with pytest.raises(SchedulingError):
        eng.run_until(-1.0)


def test_advance_pops_minimum_and_moves_clock():
    eng = Engine()
    eng.schedule(4.0, "x", "Y")
    eng.schedule(1.0, "x", "X")
    t, event = eng.advance()
    assert (t, event.kind) == (1.0, "X")
    assert eng.now == 1.0


def test_sequence_number_breaks_time_ties():
    eng = Engine()
    eng.schedule(2.0, "x", "B")  # seq 0
    eng.schedule(2.0, "x", "A")  # seq 1
    assert eng.advance()[1].kind == "B"


def test_advance_on_empty_queue_signals_exhaustion():
    with pytest.raises(QueueExhausted):
        Engine().advance()


@pytest.mark.parametrize(
    "interval,horizon,count", [(2.0, 48.0, 24), (4.0, 48.0, 12), (2.5, 48.0, 19)]
)
def test_periodic_activation_counts(interval, horizon, count):
    eng = Engine()
    eng.register_periodic("actor", "tick", interval)
    trace = eng.run_until(horizon)
    assert len(trace) == count
    assert [e.fire_time for e in trace] == [
        interval * k for k in range(1, count + 1)
    ]


def test_periodic_never_fires_at_time_zero():
    eng = Engine()
    eng.register_periodic("actor", "tick", 2.0)
    trace = eng.run_until(48.0)
    assert trace[0].fire_time == 2.0


def test_zero_interval_is_a_configuration_error():
    with pytest.raises(SchedulingError):
        Engine().register_periodic("actor", "tick", 0.0)


def test_run_until_zero_with_no_events_is_empty():
    eng = Engine()
    eng.register_periodic("actor", "tick", 2.0)
    assert eng.run_until(0.0) == []


def test_run_until_processes_handlers_and_chains():
    fired = []

    def on_ping(engine, event):
        fired.append(engine.now)
        if engine.now < 3.0:
            engine.schedule(engine.now + 1.0, event.target, "ping")

    eng = Engine()
    eng.on("ping", on_ping)
    eng.schedule(1.0, "x", "ping")
    eng.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def _random_workload(seed: int) -> list[str]:
    eng = Engine(seed=seed)
    rng = eng.streams.stream("load")

    def handler(engine, event):
        if engine.now < 30.0:
            engine.schedule(engine.now + rng.uniform(0.0, 5.0), event.target, "hop")

    eng.on("hop", handler)
    for target in ("a", "b", "c"):
        eng.schedule(rng.uniform(0.0, 2.0), target, "hop")
    eng.register_periodic("p", "tick", 2.5)
    return trace_lines(eng.run_until(40.0))


def test_identical_seed_gives_byte_identical_traces():
    assert _random_workload(7) == _random_workload(7)


def test_different_seeds_diverge():
    assert _random_workload(7) != _random_workload(8)


def test_trace_is_sorted_by_time_then_sequence():
    eng = Engine(seed=1)
    rng = eng.streams.stream("x")
    for _ in range(50):
        eng.schedule(rng.uniform(0.0, 20.0), "t", "e")
    trace = eng.run_until(20.0)
    keys = [(e.fire_time, e.sequence_no) for e in trace]
    assert keys == sorted(keys)
    times = [e.fire_time for e in trace]
    assert times == sorted(times)  # clock monotonicity


@given(
    interval=st.integers(min_value=1, max_value=64).map(lambda n: n * 0.25),
    horizon=st.integers(min_value=0, max_value=400).map(lambda n: n * 0.25),
)
def test_periodic_count_is_floor_of_horizon_over_interval(interval, horizon):
    eng = Engine()
    eng.register_periodic("a", "tick", interval)
    trace = eng.run_until(horizon)
    assert len(trace) == math.floor(horizon / interval)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60))
def test_processing_order_matches_key_order(times):
    eng = Engine()
    for t in times:
        eng.schedule(t, "x", "e")
    trace = eng.run_until(100.0)
    assert len(trace) == len(times)
    keys = [(e.fire_time, e.sequence_no) for e in trace]
    assert keys == sorted(keys)


def test_substreams_are_isolated():
    eng1 = Engine(seed=99)
    a_only = [eng1.streams.stream("actor-a").random() for _ in range(5)]

    eng2 = Engine(seed=99)
    interleaved = []
    for _ in range(5):
        interleaved.append(eng2.streams.stream("actor-a").random())
        eng2.streams.stream("actor-b").random()  # consume the other stream
    assert a_only == interleaved


def test_substreams_differ_by_name():
    eng = Engine(seed=99)
    assert eng.streams.stream("a").random() != eng.streams.stream("b").random()


def test_duplicate_periodic_follows_the_first_registration():
    eng = Engine()
    eng.register_periodic("a", "tick", 3.0)
    eng.register_periodic("a", "tick", 5.0)
    # both first occurrences fire; every one reschedules the 3 h spec
    times = [e.fire_time for e in eng.run_until(20.0)]
    assert times == [3.0, 5.0, 6.0, 9.0, 12.0, 15.0, 18.0]


def test_trace_lines_schema():
    eng = Engine()
    eng.schedule(1.0, "actor", "kind", {"n": 3})
    eng.schedule(2.0, "actor", "bare")
    lines = trace_lines(eng.run_until(5.0))
    assert len(lines) == 2
    assert '"t":1.0' in lines[0] and '"seq":0' in lines[0]
    assert '"digest":"-"' in lines[1]
