"""Record formatters for the JSON-lines artifact files.

Every line is the compact, key-sorted, ASCII-escaped JSON that
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` gives, with
floats as Python ``repr``. Records with fixed keys are formatted directly,
keys already in sorted order; dicts whose keys are not fixed (event payloads,
satisfaction entries) go through one shared encoder.
"""

from __future__ import annotations

from json import JSONEncoder
from json.encoder import encode_basestring_ascii as _escape

_ENCODE = JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _num(x) -> str:
    """A finite float or an int as its ``repr``, as the encoder writes it;
    NaN, the infinities, bools and None go to the encoder."""
    if type(x) is float:
        if x - x == 0.0:  # false for NaN and the infinities
            return repr(x)
    elif type(x) is int:
        return repr(x)
    return _ENCODE(x)


class _Quoted(dict):
    """Per-export cache of the JSON strings of repeating names (actors, kinds, statuses)."""

    __slots__ = ()

    def __missing__(self, name: str) -> str:
        quoted = self[name] = _escape(name)
        return quoted


def _trace_line(e, q: _Quoted) -> str:
    digest = "-" if e.payload is None else e.payload_digest()
    return (
        f'{{"digest":"{digest}","kind":{q[e.kind]},"seq":{_num(e.sequence_no)},'
        f'"t":{_num(e.fire_time)},"target":{q[e.target]}}}'
    )


def _order_line(o, q: _Quoted) -> str:
    return (
        f'{{"client":{q[o.client]},"created_at":{_num(o.created_at)},'
        f'"defective_qty":{_num(o.defective_qty)},"item":{q[o.item.code]},'
        f'"order_id":{_num(o.order_id)},"provider":{q[o.provider]},'
        f'"quantity":{_num(o.quantity)},"record":"order",'
        f'"replacement_for":{_num(o.replacement_for)},'
        f'"shippable_after":{_num(o.shippable_after)}}}'
    )


def _transition_line(order_id, status: str, at, q: _Quoted) -> str:
    return (
        f'{{"at":{_num(at)},"order_id":{_num(order_id)},'
        f'"record":"transition","status":{q[status]}}}'
    )


def _ticket_line(t, q: _Quoted) -> str:
    return (
        f'{{"customer":{q[t.customer]},"defective_qty":{_num(t.defective_qty)},'
        f'"item":{q[t.item.code]},"opened_at":{_num(t.opened_at)},'
        f'"order_id":{_num(t.order_id)},"record":"ticket",'
        f'"replacement_order_id":{_num(t.replacement_order_id)},'
        f'"resolved_at":{_num(t.resolved_at)},"ticket_id":{_num(t.ticket_id)}}}'
    )


def _cost_line(e, q: _Quoted) -> str:
    return (
        f'{{"actor":{q[e.actor]},"amount":{_num(e.amount)},'
        f'"category":{q[e.category]},"t":{_num(e.time)}}}'
    )
