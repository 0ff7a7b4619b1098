"""Record formatters for the JSON-lines artifact files, and the encoder of
the two indented reports.

Every line is the compact, key-sorted, ASCII-escaped JSON that
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` gives, with
floats as Python ``repr``. Records with fixed keys are formatted directly,
keys already in sorted order; dicts whose keys are not fixed (event payloads,
the header, scenario parts) go through one shared encoder. ``kpi.json`` and
``comparison.json`` are ``json.dumps(report, sort_keys=True, indent=2)``.
"""

from __future__ import annotations

from json import JSONEncoder
from json.encoder import _make_iterencode, c_make_encoder, encode_basestring_ascii as _escape

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


def _order_line(o) -> str:
    return (
        f'{{"client":{_escape(o.client)},"created_at":{_num(o.created_at)},'
        f'"defective_qty":{_num(o.defective_qty)},"item":{_escape(o.item.code)},'
        f'"order_id":{_num(o.order_id)},"provider":{_escape(o.provider)},'
        f'"quantity":{_num(o.quantity)},"record":"order",'
        f'"replacement_for":{_num(o.replacement_for)},'
        f'"shippable_after":{_num(o.shippable_after)}}}'
    )


def _transition_line(order_id, status: str, at) -> str:
    return (
        f'{{"at":{_num(at)},"order_id":{_num(order_id)},'
        f'"record":"transition","status":{_escape(status)}}}'
    )


def _ticket_line(t) -> str:
    return (
        f'{{"customer":{_escape(t.customer)},"defective_qty":{_num(t.defective_qty)},'
        f'"item":{_escape(t.item.code)},"opened_at":{_num(t.opened_at)},'
        f'"order_id":{_num(t.order_id)},"record":"ticket",'
        f'"replacement_order_id":{_num(t.replacement_order_id)},'
        f'"resolved_at":{_num(t.resolved_at)},"ticket_id":{_num(t.ticket_id)}}}'
    )


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
