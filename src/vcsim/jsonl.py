"""Record formatters for the JSON-lines artifact files, and the encoder of
the two indented reports.

Every line is the compact, key-sorted, ASCII-escaped JSON that
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` gives, with
floats as Python ``repr``. Records with fixed keys are formatted directly,
keys already in sorted order; the ledger's are built at import from
``LEDGER_RECORDS``, the declaration ``Ledger.from_lines`` also reads lines
against. Dicts whose keys are not fixed (event payloads, the header, scenario
parts) go through one shared encoder. ``kpi.json`` and ``comparison.json`` are
``json.dumps(report, sort_keys=True, indent=2)``.
"""

from __future__ import annotations

from json import JSONEncoder
from json.encoder import _make_iterencode, c_make_encoder, encode_basestring_ascii as _escape
from types import UnionType
from typing import get_args, get_origin

if c_make_encoder is None:  # no C accelerator: the pure-Python encoder
    _ENCODE = JSONEncoder(sort_keys=True, separators=(",", ":")).encode
else:
    # JSONEncoder.encode builds a C encoder per call; this one is built once.
    # No markers dict: records are trees, so there is no cycle to detect.
    _c_encode = c_make_encoder(
        None, JSONEncoder().default, _escape, None, ":", ",", True, False, True
    )

    def _ENCODE(value) -> str:
        return "".join(_c_encode(value, 0))


def _num(x) -> str:
    """A finite float or an int as its ``repr``, as the encoder writes it;
    NaN, the infinities, bools and None go to the encoder."""
    if type(x) is float:
        if x - x == 0.0:  # false for NaN and the infinities
            return repr(x)
    elif type(x) is int:
        return repr(x)
    return _ENCODE(x)


# json.dumps(value, sort_keys=True, indent=2) builds this encoder on every call.
# Before Python 3.13 it is pure Python, and its nested functions refer to one
# another, so each call would leave a reference cycle for the collector to
# free; this one is built once. ``_num`` writes floats as json.dumps does.
_iter_indented = _make_iterencode(
    None, JSONEncoder().default, _escape, "  ", _num, ": ", ",", True, False, True
)


def _ENCODE_INDENTED(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``."""
    return "".join(_iter_indented(value, 0))


def _trace_line(e) -> str:
    digest = "-" if e.payload is None else e.payload_digest()
    return (
        f'{{"digest":"{digest}","kind":{_escape(e.kind)},"seq":{_num(e.sequence_no)},'
        f'"t":{_num(e.fire_time)},"target":{_escape(e.target)}}}'
    )


#: The type of a field that holds an ``Item``: its line holds the item's code.
ITEM_CODE = "item code"

#: The records of ``ledger.jsonl``: each key, named after the field it holds,
#: with the type of its value. A transition has no record object: its keys, in
#: this order, are its formatter's parameters.
LEDGER_RECORDS = {
    "order": {
        "order_id": int, "client": str, "provider": str, "item": ITEM_CODE, "quantity": float,
        "created_at": float, "replacement_for": int | None, "shippable_after": float,
        "defective_qty": float,
    },
    "transition": {"order_id": int, "status": str, "at": float},
    "ticket": {
        "ticket_id": int, "order_id": int, "customer": str, "item": ITEM_CODE,
        "defective_qty": float, "opened_at": float, "replacement_order_id": int | None,
        "resolved_at": float | None,
    },
}


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the declared type ``hint``; an int passes as a float."""
    if type(value) is hint or (hint is float and type(value) is int):
        return True
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:
        return any(_conforms(value, arg) for arg in args)
    return origin is dict and type(value) is dict and all(
        type(k) is str and _conforms(v, args[1]) for k, v in value.items()
    )


def _ledger_formatter(kind: str, record: str | None = None):
    """The line formatter of a ledger record kind: one f-string built from its
    declaration, as ``dataclasses`` builds ``__init__``. It takes ``record``,
    whose attributes hold the keys, or else the keys themselves."""
    declared = LEDGER_RECORDS[kind]
    values = {"record": f'"{kind}"'}
    for key, hint in declared.items():
        ref = key if record is None else f"{record}.{key}"
        if hint is ITEM_CODE:
            ref += ".code"
        values[key] = f"{{_escape({ref})}}" if hint in (str, ITEM_CODE) else f"{{_num({ref})}}"
    body = ",".join(f'"{key}":{values[key]}' for key in sorted(values))
    name, params, namespace = f"_{kind}_line", record or ", ".join(declared), {}
    exec(f"def {name}({params}):\n    return f'{{{{{body}}}}}'", globals(), namespace)
    return namespace[name]


_order_line = _ledger_formatter("order", "o")
_transition_line = _ledger_formatter("transition")
_ticket_line = _ledger_formatter("ticket", "t")


def _cost_line(e) -> str:
    return (
        f'{{"actor":{_escape(e.actor)},"amount":{_num(e.amount)},'
        f'"category":{_escape(e.category)},"t":{_num(e.time)}}}'
    )


def _satisfaction_line(e: dict) -> str:
    return (
        f'{{"customer":{_escape(e["customer"])},"k":{_num(e["k"])},'
        f'"product":{_escape(e["product"])},"time":{_num(e["time"])},"vote":{_num(e["vote"])}}}'
    )
