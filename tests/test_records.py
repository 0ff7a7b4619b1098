"""Immutable run records: items, events, cost entries and votes."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from vcsim.engine import Engine, Event
from vcsim.ledger import PRODUCT, RAW, Item, OrderValidationError, product, raw
from vcsim.metrics import CostEntry
from vcsim.satisfaction import VoteEntry

items = st.builds(Item, st.sampled_from([PRODUCT, RAW]), st.integers(min_value=0, max_value=10**6))


class TestItem:
    @given(st.lists(items, min_size=2, max_size=20))
    def test_items_sort_by_kind_then_id(self, some):
        assert sorted(some) == sorted(some, key=lambda i: (i.kind, i.id))

    @given(items)
    def test_equal_items_are_one_key(self, item):
        twin = Item(item.kind, item.id)
        assert twin == item and hash(twin) == hash(item)
        assert {item: 1}[twin] == 1
        assert {("retailer", item): 1}[("retailer", twin)] == 1

    @given(items, items)
    def test_items_differ_where_kind_or_id_differ(self, a, b):
        assert (a == b) == ((a.kind, a.id) == (b.kind, b.id))

    @given(items)
    def test_code_round_trips_through_parse(self, item):
        assert Item.parse(item.code) == item
        assert item.code == str(item) == ("P" if item.kind == PRODUCT else "R") + str(item.id)

    @pytest.mark.parametrize(
        "code",
        ["P01", "R00", " P1", "P1 ", "P²", "P١", "p1", "X1", "P", "", "P-1", "P" + "1" * 5000],
        ids=lambda code: repr(code[:12]),
    )
    def test_parse_takes_only_a_code_as_items_write_it(self, code):
        with pytest.raises(OrderValidationError, match="^bad item code: "):
            Item.parse(code)

    @given(items)
    def test_copies_and_pickles_are_equal(self, item):
        assert copy.deepcopy(item) == item
        assert pickle.loads(pickle.dumps(item)) == item

    def test_factories_share_one_item_per_id(self):
        assert product(3) is product(3) and product(3) == Item(PRODUCT, 3)
        assert raw(3) is raw(3) and raw(3) != product(3)


@pytest.mark.parametrize(
    "record,attr",
    [
        (Item(PRODUCT, 1), "id"),
        (Item(PRODUCT, 1), "code"),
        (Event(1.0, 0, "a", "tick"), "fire_time"),
        (Event(1.0, 0, "a", "tick"), "payload"),
        (CostEntry(1.0, "firm", "holding", 2.0), "amount"),
        (VoteEntry(1.0, "customer1", "P1", 1, 5.0), "vote"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_records_reject_assignment(record, attr):
    with pytest.raises(AttributeError):
        setattr(record, attr, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@given(st.lists(st.sampled_from([0.0, 1.5, 3.0]), min_size=1, max_size=40))
def test_events_at_one_time_fire_in_scheduling_order(times):
    eng = Engine()
    for n, t in enumerate(times):
        eng.schedule(t, f"t{n}", "e")
    trace = eng.run_until(10.0)
    expected = sorted(range(len(times)), key=lambda n: times[n])  # stable: FIFO within a time
    assert [e.target for e in trace] == [f"t{n}" for n in expected]
    assert [e.sequence_no for e in trace] == expected


def test_events_scheduled_by_handlers_queue_behind_earlier_ones_at_that_time():
    eng = Engine()
    order = []

    def handler(engine, event):
        order.append(event.target)
        if event.target == "first":
            engine.schedule(engine.now, "spawned", "e")

    eng.on("e", handler)
    eng.schedule(1.0, "first", "e")
    eng.schedule(1.0, "second", "e")
    eng.run_until(1.0)
    assert order == ["first", "second", "spawned"]
