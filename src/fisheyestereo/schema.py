"""Field rules of the config dataclasses, and the one JSON codec they share.

A field states its rule once, in its metadata (``fx: float = ruled(POSITIVE)``).
A rule raises ValueError ``"{name} must be {rule}, got {value!r}"`` for a bad
value and returns a good one as the field keeps it (int, float or a tuple of
floats). A `Ruled` dataclass applies its rules on construction, so a value
fails alike whether it comes from Python or from JSON (`from_dict`).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from dataclasses import MISSING, field, fields

import numpy as np


def is_finite_number(x) -> bool:
    """True for a real number that is not a bool and fits a finite float (a
    JSON number; an integer too large for a float is not one)."""
    if isinstance(x, numbers.Integral):
        return not isinstance(x, bool) and abs(x) <= sys.float_info.max
    return isinstance(x, numbers.Real) and math.isfinite(x)


def _rule(ok, text: str, store):
    def check(value, where: str):
        if not ok(value):
            raise ValueError(f"{where} must be {text}, got {value!r}")
        return store(value)
    return check


def _number(ok, text: str, store=float):
    return _rule(lambda v: is_finite_number(v) and ok(v), text, store)


def finite_numbers(n: int, nonzero: bool = False):
    """Rule of `n` finite numbers (not all zero if `nonzero`), kept as floats."""
    return _rule(lambda v: (isinstance(v, (list, tuple, np.ndarray)) and len(v) == n
                            and all(map(is_finite_number, v)) and (any(v) or not nonzero)),
                 f"{n} finite numbers" + (", not all zero" if nonzero else ""),
                 lambda v: tuple(map(float, v)))


COUNT = _number(lambda v: isinstance(v, numbers.Integral) and v >= 1, "an integer >= 1", int)
INTEGER = _number(lambda v: isinstance(v, numbers.Integral), "an integer", int)
FINITE = _number(lambda v: True, "finite")
POSITIVE = _number(lambda v: v > 0, "finite and > 0 (positive)")
NONNEGATIVE = _number(lambda v: v >= 0, "finite and >= 0")
VECTOR = finite_numbers(3)
DIRECTION = finite_numbers(3, nonzero=True)


def ruled(rule, default=MISSING, **metadata):
    """A dataclass field whose value `rule` checks."""
    return field(default=default, metadata={"rule": rule, **metadata})


class Ruled:
    """Base of a (possibly frozen) dataclass that checks each field's rule on
    construction and keeps the value as the rule returns it."""

    def __post_init__(self):
        for f in fields(self):
            if "rule" in f.metadata:
                value = f.metadata["rule"](getattr(self, f.name), f.name)
                object.__setattr__(self, f.name, value)


def reject_unknown_keys(d: dict, known, where: str, what: str) -> None:
    """ValueError naming the first key of `d` that is not in `known`."""
    for key in d:
        if key not in known:
            raise ValueError(f"{where}{key!r} is not a key of a {what} "
                             f"({', '.join(known)})")


# Classes whose JSON object names one of them by its `kind` under key `tag`,
# and the noun (`what`) that messages call them.
Family = namedtuple("Family", "what tag classes")


def from_dict(d: dict, family: Family, where: str):
    """The member of `family` that `d` describes. A missing key raises
    KeyError (a field with a default may be left out); a bad value, kind or
    key raises ValueError prefixed by `where` ("cam0: "). A field's metadata
    may rename its key (`key`, with `decode`) or nest a `family`."""
    kind = d[family.tag]
    cls = next((c for c in family.classes if c.kind == kind), None)
    if cls is None:
        raise ValueError(f"{where}unknown {family.what} {family.tag} {kind!r}")
    kwargs, keys = {}, [family.tag]
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        keys.append(key)
        if key not in d and f.default is not MISSING:
            continue
        value = d[key]
        if "family" in f.metadata:
            value = from_dict(value, f.metadata["family"], f"{where}{key} ")
        elif "rule" in f.metadata:
            value = f.metadata["rule"](value, where + key)
        kwargs[f.name] = f.metadata.get("decode", lambda v: v)(value)
    reject_unknown_keys(d, keys, where, f"{kind} {family.what}")
    return cls(**kwargs)


def to_dict(obj, family: Family) -> dict:
    """The JSON object of `obj`, a member of `family`."""
    d = {family.tag: obj.kind}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "family" in f.metadata:
            value = to_dict(value, f.metadata["family"])
        value = f.metadata.get("encode", lambda v: v)(value)
        d[f.metadata.get("key", f.name)] = list(value) if isinstance(value, tuple) else value
    return d
