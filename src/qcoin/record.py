"""Immutable record classes: fields set once in ``__init__``, then read-only.

Each record class lists its constructor parameters in ``fields``, in
order, and declares its attributes in ``__slots__``.  ``__init__``
validates its arguments and stores them with ``_set``; after that,
assigning or deleting an attribute raises ``AttributeError``.  ``repr``,
``as_dict``, pickling and, for ``ValueRecord``, equality and hashing read
the attributes named in ``fields``.  Records that hold arrays compare by
identity; those that hold none derive from ``ValueRecord``.
"""

from __future__ import annotations


class Record:
    """Read-only record; subclasses set ``__slots__``, ``fields`` and ``__init__``."""

    __slots__ = ()
    fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        """Store field values; called only from ``__init__``."""
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled record is validated again
        return type(self), self._values()

    def as_dict(self) -> dict:
        """The fields as a new dict, in ``fields`` order (values not copied)."""
        return dict(zip(self.fields, self._values()))


class ValueRecord(Record):
    """Record whose fields hold no arrays: equal and hashable by value."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
