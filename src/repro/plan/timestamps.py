"""Compiled timestamp evaluation.

:func:`repro.core.ordering.evaluate_orderby` re-interprets a schema's
orderby spec for every tuple: it builds a field-name → value dict,
walks the entries, and dispatches on their type.  The spec, however, is
fixed per schema once the program's order declarations freeze — so a
:class:`CompiledTimestamper` resolves everything static exactly once:

* ``Lit`` entries become constant ``(KIND_LIT, rank)`` components;
* ``Seq`` / ``Par`` entries become field *positions* into the tuple's
  value vector (no dict build per tuple);
* an all-literal orderby (``("PvWatts",)``-style, very common) becomes
  a single shared :class:`~repro.core.ordering.Timestamp` object.

The produced timestamps are equal (same ``key``/``display``) to the
interpreter's — asserted by the plan-cache unit tests.

The same static reading of two orderby specs decides, per (put schema,
trigger schema) pair, whether the §4 put-causality comparison needs to
run at all: :func:`put_always_causal` and :func:`put_fast_compare`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.ordering import (
    KIND_LIT,
    KIND_PAR,
    KIND_SEQ,
    Lit,
    OrderDecls,
    OrderingError,
    Par,
    Seq,
    Timestamp,
)
from repro.core.schema import TableSchema

__all__ = ["CompiledTimestamper", "put_always_causal", "put_fast_compare"]

# op codes for the compiled entry list
_OP_CONST = 0  # payload = finished key component, disp = display value
_OP_SEQ = 1    # payload = field position
_OP_PAR = 2    # payload = field position (display only)

_PAR_COMPONENT = (KIND_PAR,)


class CompiledTimestamper:
    """Per-schema orderby spec, pre-resolved against frozen decls."""

    __slots__ = ("_ops", "_const")

    def __init__(self, schema: TableSchema, decls: OrderDecls):
        ops: list[tuple] = []
        constant = True
        for entry in schema.orderby:
            if isinstance(entry, Lit):
                ops.append((_OP_CONST, (KIND_LIT, decls.rank(entry.name)), entry.name))
            elif isinstance(entry, Seq):
                ops.append((_OP_SEQ, schema.field_position(entry.field), None))
                constant = False
            else:  # Par
                ops.append((_OP_PAR, schema.field_position(entry.field), None))
                constant = False
        self._ops: tuple[tuple, ...] = tuple(ops)
        #: the one shared Timestamp when no entry depends on the tuple
        self._const: Timestamp | None = None
        if constant:
            self._const = Timestamp(
                tuple(comp for _, comp, _ in ops),
                tuple(disp for _, _, disp in ops),
            )
    def timestamp(self, values: Sequence) -> Timestamp:
        """The timestamp of a tuple with these field ``values``."""
        const = self._const
        if const is not None:
            return const
        key: list[tuple] = []
        display: list = []
        for op, payload, disp in self._ops:
            if op == _OP_CONST:
                key.append(payload)
                display.append(disp)
            elif op == _OP_SEQ:
                v = values[payload]
                key.append((KIND_SEQ, v))
                display.append(v)
            else:  # _OP_PAR: value erased from the ordering key (§5)
                key.append(_PAR_COMPONENT)
                display.append(values[payload])
        return Timestamp(tuple(key), tuple(display))


def put_always_causal(
    put_schema: TableSchema, trigger_schema: TableSchema, decls: OrderDecls
) -> bool:
    """True iff *every* tuple of ``put_schema`` is timestamped at or
    after *every* tuple of ``trigger_schema`` — i.e. the put-side
    causality comparison is decided by the orderby structure alone,
    before any data-dependent (``seq``) level is reached.  Used to skip
    the per-put ``compare_timestamps`` in generated rule drivers; a
    ``False`` just keeps the dynamic check, so this never loosens §4."""
    po = put_schema.orderby
    to = trigger_schema.orderby
    for pe, te in zip(po, to):
        kind = type(pe)
        if kind is not type(te):
            return False  # structurally mismatched level: runtime raises
        if kind is Lit:
            if pe.name == te.name:
                continue
            try:
                return decls.rank(pe.name) > decls.rank(te.name)
            except OrderingError:
                return False
        if kind is Par:
            continue  # par levels compare equal regardless of value
        return False  # seq level: data-dependent
    # every shared level ties; a longer put key extends the trigger's
    # (compares after), an equal length ties, a shorter one precedes
    return len(po) >= len(to)


def put_fast_compare(
    put_schema: TableSchema, trigger_schema: TableSchema
) -> tuple[int, int] | None:
    """Field positions ``(put_pos, trig_pos)`` when the first orderby
    level that can differ between the two schemas is a ``seq`` field on
    both sides (every earlier level an identical literal): a put whose
    seq value is *strictly greater* then compares after the trigger at
    that level, so the §4 check can be skipped without materialising
    either timestamp.  Lower-or-equal values fall back to the exact
    dynamic comparison, so this is a pure short-circuit."""
    po = put_schema.orderby
    to = trigger_schema.orderby
    if len(po) != len(to):
        return None
    for pe, te in zip(po, to):
        kind = type(pe)
        if kind is not type(te):
            return None
        if kind is Lit:
            if pe.name != te.name:
                return None
            continue
        if kind is Seq:
            return (
                put_schema.field_position(pe.field),
                trigger_schema.field_position(te.field),
            )
        return None  # par level: values erased, nothing to compare
    return None  # fully literal and identical: put_always_causal covers it
