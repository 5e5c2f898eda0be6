"""The immutable record bases: fields fixed once built, a repr that names
them, and equality by value only among value records of one class."""

from __future__ import annotations

import pytest

from duodenoise.record import Record, ValueRecord


class Pair(Record):
    def __init__(self, a, b):
        self.__dict__.update(a=a, b=b)


class ValuePair(ValueRecord):
    def __init__(self, a, b):
        self.__dict__.update(a=a, b=b)


def test_a_record_refuses_assignment_and_deletion():
    for record in (Pair(1, "x"), ValuePair(1, "x")):
        name = type(record).__name__
        with pytest.raises(AttributeError, match=rf"^cannot assign to field 'a' of an immutable "
                                                 rf"{name}$"):
            record.a = 2
        with pytest.raises(AttributeError, match=rf"^cannot delete field 'a' of an immutable "
                                                 rf"{name}$"):
            del record.a
        assert (record.a, record.b) == (1, "x")


def test_repr_names_each_field_in_order():
    assert repr(Pair(1, "x")) == "Pair(a=1, b='x')"
    assert repr(ValuePair([2], None)) == "ValuePair(a=[2], b=None)"


def test_a_value_record_equals_only_value_records_of_its_class():
    record = ValuePair(1, 2)
    assert record == ValuePair(1, 2) and hash(record) == hash(ValuePair(1, 2))
    assert record != ValuePair(1, 3)
    # another type, a plain record with the same fields included, is left to
    # its own comparison, which finds it unequal
    for other in (Pair(1, 2), (1, 2), {"a": 1, "b": 2}):
        assert record.__eq__(other) is NotImplemented
        assert record != other and other != record
    pair = Pair(1, 2)
    assert pair == pair and pair != Pair(1, 2)
