"""What each run-config key accepts, declared once beside its default with
``setting``, and ``check``, which holds a config section to its fields'
annotated types and declarations and names the dotted key in a refusal:
``config key optimizer.epochs must be >= 0, got -1``."""

from __future__ import annotations

import dataclasses
import math
import operator
import typing
from functools import cache

_KINDS = {int: "an integer", float: "a number", str: "a string", tuple: "a list"}
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def setting(default, *, ge=None, gt=None, le=None, lt=None, one_of=None):
    """A field with default ``default`` that accepts values ``>= ge`` or
    ``> gt``, and if given ``<= le`` or ``< lt``; or values (each item, for
    a tuple) in ``one_of``.  The field's metadata keeps the bound's test,
    and under ``accepts`` the bound as a refusal states it (``>= 1``,
    ``in (0, 1]``, ``one of 'a', 'b'``)."""
    if one_of is not None:
        text, test = "one of " + ", ".join(map(repr, one_of)), one_of.__contains__
    else:
        low, a = (">=", ge) if gt is None else (">", gt)
        high, b = ("<=", le) if le is not None else ("<", math.inf if lt is None else lt)
        text = f"{low} {a:g}" if math.isinf(b) else \
            f"in {'[' if low == '>=' else '('}{a:g}, {b:g}{']' if high == '<=' else ')'}"
        above, below = _OPS[low], _OPS[high]

        def test(v) -> bool:  # false for inf and nan, which no declared bound takes
            return above(v, a) and below(v, b)
    return dataclasses.field(default=default, metadata={"accepts": text, "test": test})


def _kind_problem(value, kind: type) -> str | None:
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return f"must be {_KINDS.get(kind) or 'a ' + kind.__name__}"
    try:
        return "must be finite" if kind is float and not math.isfinite(value) else None
    except OverflowError:  # an int beyond the float range
        return "must be finite"


@cache
def _rules(cls: type, prefix: str) -> list[tuple]:
    """(name, dotted key, type, item type of a tuple, takes None, ``accepts``
    text, the bound's test) of each field of ``cls``, derived once per
    class."""
    hints, rules = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        optional = type(None) in typing.get_args(kind)
        if optional:
            (kind,) = set(typing.get_args(kind)) - {type(None)}
        item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
        rules.append((f.name, f"{prefix}.{f.name}" if prefix else f.name, typing.get_origin(kind) or kind, item,
                      optional, f.metadata.get("accepts"), f.metadata.get("test")))
    return rules


def check(section, prefix: str) -> None:
    """Hold each field of the dataclass ``section``, found at dotted
    ``prefix`` ("" for the root), to its type and what it declares it
    accepts.  A section field must hold its class, and is then checked by
    its ``validate``, or by this check where it has no rule of its own.
    Training steps run it, so a value of exactly its field's type inside
    its bound passes on the first test."""
    for name, dotted, kind, item, optional, text, test in _rules(type(section), prefix):
        value = getattr(section, name)
        if (test and type(value) is kind and test(value)) or (value is None and optional):
            continue
        problem = _kind_problem(value, kind)
        if problem is None and dataclasses.is_dataclass(kind):
            value.validate() if hasattr(value, "validate") else check(value, dotted)
        items = [(f"{dotted}[{i}]", v) for i, v in enumerate(value)] if kind is tuple and not problem else \
            [(dotted, value)]
        for key, v in items:
            problem = problem or (item and _kind_problem(v, item)) or (test and not test(v) and f"must be {text}")
            if problem:
                raise ValueError(f"config key {key} {problem}, got {v!r}")
