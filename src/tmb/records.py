"""Value records: the `record` class decorator.

A record's fields are its class annotations, in order; a class attribute
of the same name is that field's default.  The decorator adds __init__
(positional and keyword arguments, defaults, then __post_init__ if the
class defines one), __repr__ naming every field, and __eq__ by value
between records of the same class.  A frozen record (the default) also
refuses assignment and deletion and hashes by value; a mutable record
(`@record(frozen=False)`) takes assignment and is unhashable.

The methods are closures over the field list, so defining a record runs
no generated code (dataclasses execs each method from source).
"""

from __future__ import annotations

_NO_DEFAULT = object()


def record(cls=None, *, frozen: bool = True):
    """Make cls a value record; see the module docstring."""
    if cls is None:
        return lambda c: _build(c, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    name = cls.__qualname__
    names = tuple(cls.__annotations__)
    known = frozenset(names)
    defaults = {field: cls.__dict__[field] for field in names
                if field in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for field, value in kwargs.items():
            if field not in known:
                raise TypeError(f"{name}() got an unexpected keyword "
                                f"argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for "
                                f"argument {field!r}")
            values[field] = value
        state = self.__dict__
        for field in names:
            value = values.get(field, defaults.get(field, _NO_DEFAULT))
            if value is _NO_DEFAULT:
                raise TypeError(f"{name}() missing required argument "
                                f"{field!r}")
            state[field] = value
        if post_init is not None:
            post_init(self)

    def _values(self):
        state = self.__dict__
        return tuple(state[field] for field in names)

    def __repr__(self):
        state = self.__dict__
        return f"{name}(" + ", ".join(
            f"{field}={state[field]!r}" for field in names) + ")"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    if frozen:
        def __hash__(self):
            return hash(_values(self))

        def __setattr__(self, attr, value):
            raise AttributeError(f"cannot assign to field {attr!r} "
                                 f"of frozen {name}")

        def __delattr__(self, attr):
            raise AttributeError(f"cannot delete field {attr!r} "
                                 f"of frozen {name}")

        cls.__hash__ = __hash__
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    else:
        cls.__hash__ = None
    return cls
