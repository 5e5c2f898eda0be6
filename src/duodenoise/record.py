"""Immutable records: the base of the library's small data types.

A channel, a smoothing or experiment config, a random stream, a selection, a
joint type and a check result are each a :class:`Record`.  Its ``__init__``
validates its arguments and stores its fields with ``self.__dict__.update``,
in the order of its parameters; after that, assigning or deleting a field
raises ``AttributeError``.  A :class:`ValueRecord` is also equal to, and
hashes like, any record of its class with equal fields; any other record is
equal only to itself.  ``pickle`` and ``copy`` rebuild a record by calling
its class with its fields, so a round trip validates them again, and an
array that the constructor makes read-only stays read-only.

They are plain classes, with no method generated from source: the
standard library's decorator for record classes compiles five methods per
class when its module is imported, 0.5 to 1.6 ms each class on a 2-core
machine, which was most of the library's import time.
"""

from __future__ import annotations


class Record:
    """An immutable record, equal only to itself."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(self.__dict__.values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """An immutable record, equal to and hashed by its fields."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))
