"""Artifact record formatters: each line equals the json.dumps encoding."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import vcsim
from vcsim.engine import Event, trace_lines
from vcsim.jsonl import (
    _ENCODE,
    _Quoted,
    _Records,
    _cost_line,
    _delivery_row,
    _indented,
    _num,
    _order_line,
    _satisfaction_entry,
    _satisfaction_line,
    _ticket_line,
    _transition_line,
)
from vcsim.ledger import Order, SupportTicket, product, raw
from vcsim.metrics import CostEntry, CostLedger
from vcsim.scenario import case_study_scenario
from vcsim.simulation import run_scenario, write_artifacts


def dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def dumps_indented(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


EDGE_NUMBERS = [
    0, 0.0, -0.0, 1, 1.0, 3, 3.0, 1e-7, 1e22, -1e22, 5e-324, 2**70, -(2**70),
    float("nan"), float("inf"), float("-inf"),
]
numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
)
scalars = st.one_of(numbers, st.none(), st.booleans())
optional_ids = st.one_of(st.none(), st.integers(min_value=0))
optional_times = st.one_of(st.none(), numbers)
names = st.one_of(
    st.sampled_from(["firm", "café", 'say "hi"', "back\\slash", "☃", "\U0001f600"]),
    st.text(),
)
items = st.builds(
    lambda kind, n: kind(n), st.sampled_from([product, raw]), st.integers(min_value=0)
)


@given(scalars)
def test_num_matches_json(x):
    assert _num(x) == dumps(x)


@given(st.lists(names, max_size=6))
def test_quoted_names_match_json(strings):
    q = _Quoted()
    for s in strings + strings:  # the second pass reads the cache
        assert q[s] == dumps(s)


payloads = st.one_of(
    st.none(), st.dictionaries(names, st.one_of(scalars, names), max_size=4)
)


@given(
    st.lists(
        st.builds(Event, numbers, st.integers(min_value=0), names, names, payloads),
        max_size=8,
    )
)
def test_trace_lines_match_json(events):
    lines = trace_lines(events)
    for e, line in zip(events, lines, strict=True):
        digest = (
            "-"
            if e.payload is None
            else hashlib.sha256(dumps(e.payload).encode("utf-8")).hexdigest()[:12]
        )
        assert e.payload_digest() == digest
        assert line == dumps(
            {
                "t": e.fire_time,
                "seq": e.sequence_no,
                "target": e.target,
                "kind": e.kind,
                "digest": digest,
            }
        )


orders = st.builds(
    Order,
    order_id=st.integers(min_value=0),
    client=names,
    provider=names,
    item=items,
    quantity=numbers,
    created_at=numbers,
    shippable_after=numbers,
    defective_qty=numbers,
    replacement_for=optional_ids,
)


@given(st.lists(orders, max_size=6))
def test_order_line_matches_json(records):
    q = _Quoted()  # shared, as in one export, so repeated names hit the cache
    for o in records:
        assert _order_line(o, q) == dumps(
            {
                "record": "order",
                "order_id": o.order_id,
                "client": o.client,
                "provider": o.provider,
                "item": o.item.code,
                "quantity": o.quantity,
                "created_at": o.created_at,
                "replacement_for": o.replacement_for,
                "shippable_after": o.shippable_after,
                "defective_qty": o.defective_qty,
            }
        )


@given(st.lists(st.tuples(st.integers(min_value=0), names, numbers), max_size=6))
def test_transition_line_matches_json(records):
    q = _Quoted()
    for order_id, status, at in records:
        assert _transition_line(order_id, status, at, q) == dumps(
            {"record": "transition", "order_id": order_id, "status": status, "at": at}
        )


tickets = st.builds(
    SupportTicket,
    ticket_id=st.integers(min_value=0),
    order_id=st.integers(min_value=0),
    customer=names,
    item=items,
    defective_qty=numbers,
    opened_at=numbers,
    replacement_order_id=optional_ids,
    resolved_at=optional_times,
)


@given(st.lists(tickets, max_size=6))
def test_ticket_line_matches_json(records):
    q = _Quoted()
    for t in records:
        assert _ticket_line(t, q) == dumps(
            {
                "record": "ticket",
                "ticket_id": t.ticket_id,
                "order_id": t.order_id,
                "customer": t.customer,
                "item": t.item.code,
                "defective_qty": t.defective_qty,
                "opened_at": t.opened_at,
                "replacement_order_id": t.replacement_order_id,
                "resolved_at": t.resolved_at,
            }
        )


@given(st.lists(st.builds(CostEntry, numbers, names, names, numbers), max_size=6))
def test_cost_line_matches_json(entries):
    q = _Quoted()
    for e in entries:
        assert _cost_line(e, q) == dumps(
            {"t": e.time, "actor": e.actor, "category": e.category, "amount": e.amount}
        )


satisfaction_entries = st.fixed_dictionaries(
    {"customer": names, "k": st.integers(min_value=0), "product": names,
     "time": numbers, "vote": numbers}
)


@given(st.lists(satisfaction_entries, max_size=6))
def test_satisfaction_line_matches_json(entries):
    q = _Quoted()
    for e in entries:
        assert _satisfaction_line(e, q) == dumps(e)


json_values = st.recursive(
    st.one_of(scalars, names),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(names, children, max_size=4),
    ),
    max_leaves=24,
)


@given(json_values)
def test_encode_matches_json(value):
    assert _ENCODE(value) == dumps(value)


# explicit ids: the repr of a bare object() holds its address, which changes per run
@pytest.mark.parametrize(
    "value",
    [object(), {"a": {1, 2}}, [b"bytes"]],
    ids=["object()", "{'a': {1, 2}}", "[b'bytes']"],
)
def test_encode_raises_the_json_type_error(value):
    with pytest.raises(TypeError) as expected:
        dumps(value)
    with pytest.raises(TypeError) as err:
        _ENCODE(value)
    assert str(err.value) == str(expected.value)


def test_encode_without_the_c_encoder_matches_json():
    """Where the json module has no C encoder, ``_ENCODE`` is JSONEncoder.encode."""
    script = (
        "import json, json.encoder\n"
        "json.encoder.c_make_encoder = None\n"
        "from vcsim.jsonl import _ENCODE\n"
        "value = {'b': [1, 2.5, None, True], 'a': 'caf\\u00e9', 'n': float('nan')}\n"
        "assert _ENCODE.__self__.__class__ is json.JSONEncoder\n"
        "assert _ENCODE(value) == json.dumps(value, sort_keys=True, separators=(',', ':'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vcsim.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


@given(json_values)
def test_indented_matches_json(value):
    assert _indented(value) == dumps_indented(value)


@given(
    st.dictionaries(
        names,
        st.lists(st.tuples(st.integers(min_value=0), numbers), max_size=4),
        max_size=3,
    ),
    st.lists(satisfaction_entries, max_size=4),
)
def test_fixed_key_records_match_json(series, entries):
    nested = {
        name: {"delivery_series": _Records(_delivery_row, map(list, rows))}
        for name, rows in series.items()
    }
    nested["satisfaction"] = _Records(_satisfaction_entry, entries)
    plain = {
        name: {"delivery_series": [list(row) for row in rows]}
        for name, rows in series.items()
    }
    plain["satisfaction"] = entries
    assert _indented(nested) == dumps_indented(plain)


def test_case_study_artifacts_reencode_byte_identically(tmp_path):
    run_scenario(case_study_scenario("vcor", 42, 480.0), tmp_path)
    for name in ("trace.jsonl", "ledger.jsonl", "costs.jsonl", "satisfaction.jsonl"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines.pop() == ""  # the file ends with one newline
        assert len(lines) > 1
        for line in lines:
            assert dumps(json.loads(line)) == line
    kpi = (tmp_path / "kpi.json").read_text(encoding="utf-8")
    assert json.dumps(json.loads(kpi), sort_keys=True, indent=2) + "\n" == kpi


def test_empty_artifact_file_holds_the_header_alone(tmp_path):
    artifacts = run_scenario(case_study_scenario("vcor", 42, 48.0))
    artifacts.costs = CostLedger()
    write_artifacts(artifacts, tmp_path)
    header, end = (tmp_path / "costs.jsonl").read_text(encoding="utf-8").split("\n")
    assert json.loads(header)["record"] == "header" and end == ""
