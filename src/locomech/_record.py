"""Bases for the package's records, which are plain classes: no code is generated for them at import.

A record's fields are the parameters of its own __init__, in order.  Its
repr names them, and == compares them field by field, as a tuple does,
only within one class; two fields where either is an array are equal when
they are one object or np.array_equal holds.  A frozen record's __init__
writes its fields into self.__dict__ in one update, past the __setattr__
that refuses every later assignment, and it hashes its field tuple.  A
mutable record is unhashable.
"""

import numpy as np


class Record:
    """A mutable record."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            a, b = getattr(self, name), getattr(other, name)
            arrays = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
            if not (a is b or (np.array_equal(a, b) if arrays else a == b)):
                return False
        return True

    __hash__ = None


class FrozenRecord(Record):
    """A record that cannot change once built."""

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
