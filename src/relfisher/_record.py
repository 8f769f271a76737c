"""Frozen value records: the part of dataclass(frozen=True) that relfisher uses.

@record makes a class whose body annotates its fields, with optional
defaults and an optional __post_init__, an immutable value type:

- __init__ takes the fields by position, in annotation order, or by keyword,
  fills the defaults, calls __post_init__, and raises TypeError on a missing,
  repeated or unknown field;
- == holds between instances of exactly the same class with equal fields,
  and the hash is that of the field values;
- assigning or deleting an attribute raises AttributeError;
- repr is Name(field=value, ...), as a dataclass writes it.

The fields are plain instance attributes, named by the class's _fields.
replace() is dataclasses.replace for records.

dataclass writes each of these methods as source and compiles it with exec,
and importing dataclasses loads inspect and ast: together about 20 ms of the
CLI's start-up for relfisher's 11 value types, on a 2-core VM without a
bytecode cache. Here the methods are closures over the field names.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Any, TypeVar

__all__ = ["record", "replace"]

_T = TypeVar("_T")

_set = object.__setattr__


def record(cls: type[_T]) -> type[_T]:
    """Make cls a frozen record of the fields its own body annotates."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    if not names:
        raise TypeError(f"{cls.__qualname__} annotates no fields")
    known = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    arity = len(names)
    post_init = getattr(cls, "__post_init__", None)
    # One name gives the bare value, more give a tuple: either way equal
    # fields give equal keys.
    key = attrgetter(*names)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if args:
            if len(args) > arity:
                raise TypeError(f"{cls.__qualname__}() takes {arity} fields, got {len(args)} positional arguments")
            if kwargs and not kwargs.keys().isdisjoint(names[: len(args)]):
                raise TypeError(f"{cls.__qualname__}() got a field both by position and by keyword")
            kwargs.update(zip(names, args))
        if len(kwargs) != arity or not known.issuperset(kwargs):
            kwargs = defaults | kwargs
            if not known.issuperset(kwargs):
                listed = ", ".join(repr(name) for name in kwargs if name not in known)
                raise TypeError(f"{cls.__qualname__}() got unknown fields {listed}")
            if len(kwargs) != arity:
                missing = ", ".join(repr(name) for name in names if name not in kwargs)
                raise TypeError(f"{cls.__qualname__}() is missing fields {missing}")
        # One attribute at a time, as dataclass does: CPython then keeps the
        # values inline in the object, where lookups are faster than in a
        # __dict__ that was assigned or read.
        for name in names:
            _set(self, name, kwargs[name])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls._fields = names
    return cls


def replace(obj: _T, /, **changes: Any) -> _T:
    """A copy of the record obj with the given fields changed, checked again
    by its __init__ and __post_init__."""
    return obj.__class__(**({name: getattr(obj, name) for name in obj._fields} | changes))
