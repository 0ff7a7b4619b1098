"""Record formatters for the JSON-lines artifact files, and the encoder of
the two indented reports.

Every line is the compact, key-sorted, ASCII-escaped JSON that
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` gives, with
floats as Python ``repr``. Each record kind of the ``.jsonl`` files is
declared once, in ``RECORDS``, from a table of value types; each kind's
formatter in ``LINES`` is built from that declaration at import, and
``Ledger.from_lines`` reads ledger lines against it. Dicts whose keys are not
fixed (event payloads, the header, scenario parts) go through one shared
encoder. ``kpi.json`` and ``comparison.json`` are
``json.dumps(report, sort_keys=True, indent=2)``.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from json import JSONEncoder
from json.encoder import _make_iterencode, c_make_encoder, encode_basestring_ascii as _escape
from typing import Callable

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


def _decimal(text: str) -> int | None:
    """The integer in ``text`` if ``str`` writes it so, ASCII digits without
    a leading zero ("0" and "10", not "01", "+1", "1_0" or "١"), else None."""
    if text.isascii() and text.isdigit() and (text[0] != "0" or text == "0"):
        try:
            return int(text)
        except ValueError:  # more digits than ``int`` converts
            pass
    return None


def _digest(payload) -> str:
    """Short stable digest of an event payload; "-" for none."""
    if payload is None:
        return "-"
    return hashlib.sha256(_ENCODE(payload).encode("utf-8")).hexdigest()[:12]


#: A declared value type: the f-string field that writes the value held at ``%s``,
#: the test that a value read back from a line passes, and its name in an error.
_Type = namedtuple("_Type", "write test name")
_NUM = "{_num(%s)}"

INTEGER = _Type(_NUM, lambda v: type(v) is int, "an integer")
INTEGER_OR_NULL = _Type(_NUM, lambda v: v is None or type(v) is int, "an integer or null")
# an int passes as a number, as in kpi.json's reader: a JSON writer may drop the ".0"
NUMBER = _Type(_NUM, lambda v: type(v) in (float, int), "a number")
NUMBER_OR_NULL = _Type(_NUM, lambda v: v is None or type(v) in (float, int), "a number or null")
STRING = _Type("{_escape(%s)}", lambda v: type(v) is str, "a string")
#: an ``Item``, written as its code: a kind letter, then its id as ``_decimal`` reads it
ITEM_CODE = _Type(
    "{_escape(%s.code)}",
    lambda v: type(v) is str and v[:1] in ("P", "R") and _decimal(v[1:]) is not None,
    "an item code",
)
#: an event's payload, written as its ``_digest``
DIGEST = _Type(
    '"{_digest(%s)}"',
    lambda v: type(v) is str and (v == "-" or len(v) == 12 and set(v) <= set("0123456789abcdef")),
    "a payload digest",
)

#: Every record kind of the ``.jsonl`` files, each key with its type. An
#: ``Order`` or ``SupportTicket`` has an attribute named after each key; an
#: ``Event``, ``CostEntry``, ``VoteEntry`` or transition is a tuple holding its
#: keys' values first, in this order. Only ledger lines hold ``"record": kind``.
RECORDS = {
    "order": {
        "order_id": INTEGER, "client": STRING, "provider": STRING, "item": ITEM_CODE,
        "quantity": NUMBER, "created_at": NUMBER, "replacement_for": INTEGER_OR_NULL,
        "shippable_after": NUMBER, "defective_qty": NUMBER,
    },
    "transition": {"order_id": INTEGER, "status": STRING, "at": NUMBER},
    "ticket": {
        "ticket_id": INTEGER, "order_id": INTEGER, "customer": STRING, "item": ITEM_CODE,
        "defective_qty": NUMBER, "opened_at": NUMBER, "replacement_order_id": INTEGER_OR_NULL,
        "resolved_at": NUMBER_OR_NULL,
    },
    "event": {"t": NUMBER, "seq": INTEGER, "target": STRING, "kind": STRING, "digest": DIGEST},
    "cost": {"t": NUMBER, "actor": STRING, "category": STRING, "amount": NUMBER},
    "vote": {"time": NUMBER, "customer": STRING, "product": STRING, "k": INTEGER, "vote": NUMBER},
}
LEDGER_KINDS = frozenset({"order", "transition", "ticket"})
_BY_ATTRIBUTE = frozenset({"order", "ticket"})


def _lines_formatter(kind: str) -> Callable[[list], list[str]]:
    """A record kind's formatter, built from its declaration as ``dataclasses``
    builds ``__init__``: one f-string in a list comprehension over records."""
    values = {"record": f'"{kind}"'} if kind in LEDGER_KINDS else {}
    for i, (key, type_) in enumerate(RECORDS[kind].items()):
        values[key] = type_.write % (f"r.{key}" if kind in _BY_ATTRIBUTE else f"r[{i}]")
    body = ",".join(f'"{key}":{values[key]}' for key in sorted(values))
    name, namespace = f"_{kind}_lines", {}
    exec(f"def {name}(run):\n    return [f'{{{{{body}}}}}' for r in run]", globals(), namespace)
    return namespace[name]


#: Each record kind's formatter: it takes a list of records and returns their lines.
LINES = {kind: _lines_formatter(kind) for kind in RECORDS}
