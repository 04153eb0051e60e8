"""Immutable value records: the base of the library's record classes.

A record class names its fields in ``__slots__`` and sets each one once,
in its own ``__init__``, through :data:`_set`.  A class that keeps values
read off its fields in further slots names the fields in ``_fields``
instead.  The base compares and hashes records of the same class by their
field values, prints them as ``Name(field=value, ...)``, pickles and
copies them through the constructor with those values, and refuses
assignment and deletion.  No code is generated for a class and no module
beyond ``operator`` is imported, so defining the records costs the
package's import next to nothing; see the cold-start note in the README.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _no_values(record) -> tuple:
    return ()


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        # one C-level getter per class: the value of a single field, a tuple
        # of values for more (an attrgetter does not bind as a method)
        cls._values = attrgetter(*cls._fields) if cls._fields else staticmethod(_no_values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        # rebuilt through the constructor, so its checks run again
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s" % (name, type(self).__name__))


class OrderedRecord(Record):
    """A record that also orders by its field values, within its class."""

    __slots__ = ()

    def __lt__(self, other):
        return self._values(self) < self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self._values(self) <= self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self._values(self) > self._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self._values(self) >= self._values(other) if other.__class__ is self.__class__ else NotImplemented
