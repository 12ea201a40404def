"""One JSON codec for the record dataclasses.

Writing puts keys in field-declaration order: a Fraction or BitVector
becomes a string, a tuple an array, and a dict gets its keys sorted and
turned into strings; a value with its own ``to_json`` (a nested record,
BitMatrix's hex form, EditOp's array form) writes itself.  A field whose
default is None is left out while it is None; any other None is written as
null.  Field metadata ``key`` renames a field's key and ``encode`` gives it
a write-only encoder; the names in ``json_properties`` follow the fields.

Reading follows the field types and raises ValueError on a value of the
wrong type, a missing required key or a non-object input.  An
``init=False`` field is a tag that must hold its default, so a union of
records reads as the one member whose tags match.
"""

from __future__ import annotations

import types
from dataclasses import MISSING, fields
from functools import cache
from fractions import Fraction
from typing import ClassVar, Union, get_args, get_origin, get_type_hints

from .bitlinalg import BitVector

_FROM_STRING = {Fraction: Fraction, BitVector: BitVector.from_string}
_type_hints = cache(get_type_hints)  # per record class, resolved once


def _key(f) -> str:
    return f.metadata.get("key", f.name)


def _write(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (Fraction, BitVector)):
        return str(value)
    if isinstance(value, tuple):
        return [_write(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _write(v) for k, v in sorted(value.items())}
    return value


def _tags_match(cls, obj) -> bool:
    return isinstance(obj, dict) and all(
        obj.get(_key(f)) == f.default for f in fields(cls) if not f.init
    )


def _read(tp, value, where: str):
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        members = [m for m in args if m is not type(None)]
        if len(members) > 1:
            members = [m for m in members if _tags_match(m, value)]
        if len(members) != 1:
            raise ValueError(f"{where}: {value!r} is none of {tp}")
        return _read(members[0], value, where)
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        if len(args) == len(value):
            return tuple(_read(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    elif origin is dict and isinstance(value, dict):
        return {args[0](k): _read(args[1], v, f"{where}.{k}") for k, v in value.items()}
    elif hasattr(tp, "from_json"):
        return tp.from_json(value)
    elif tp in _FROM_STRING and isinstance(value, str):
        try:
            return _FROM_STRING[tp](value)
        except ZeroDivisionError as exc:
            raise ValueError(f"{where}: {exc}") from None
    elif type(value) is tp or (tp is float and type(value) is int):
        return value
    raise ValueError(f"{where}: expected {getattr(tp, '__name__', tp)}, got {value!r}")


class Record:
    """Mixin that gives a dataclass the codec's ``to_json`` and ``from_json``."""

    json_properties: ClassVar[tuple[str, ...]] = ()

    def to_json(self) -> dict:
        obj = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                obj[_key(f)] = (f.metadata.get("encode") or _write)(value)
        return obj | {name: _write(getattr(self, name)) for name in self.json_properties}

    @classmethod
    def from_json(cls, obj) -> Record:
        if not _tags_match(cls, obj):
            raise ValueError(f"{cls.__name__}: {obj!r} is not a JSON object of this record")
        hints, kwargs = _type_hints(cls), {}
        for f in fields(cls):
            if not f.init:
                continue
            key = _key(f)
            where = f"{cls.__name__}.{key}"
            if f.metadata.get("encode"):
                raise ValueError(f"{where} is written only and cannot be read")
            if key in obj:
                kwargs[f.name] = _read(hints[f.name], obj[key], where)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{where}: missing required key")
        return cls(**kwargs)
