"""The contract of the value types built on every oracle call.

``IndexedFamily``, ``Summable`` and ``Relation`` are frozen dataclasses on
slots with a hand-written ``__init__``; they must still behave as plain
frozen dataclasses: immutable, equal only within their class, hashed by
value, printed as before and copyable.
"""

import copy
import dataclasses
import pickle

import pytest

from pcmcat.family import IndexedFamily
from pcmcat.pcm import Relation, Summable

ENTRIES = (("a", 1),)


def _values():
    return [IndexedFamily(ENTRIES), Summable(3), Relation(frozenset({(0, 1)}))]


VALUE_IDS = ["IndexedFamily", "Summable", "Relation"]


@pytest.mark.parametrize("value", _values(), ids=VALUE_IDS)
def test_assigning_or_deleting_a_field_raises(value):
    (field,) = dataclasses.fields(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field.name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, field.name)


@pytest.mark.parametrize("value", _values(), ids=VALUE_IDS)
def test_no_instance_has_a_dict(value):
    assert not hasattr(value, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(value, "extra", 1)


@pytest.mark.parametrize("made, again", zip(_values(), _values()), ids=VALUE_IDS)
def test_equal_values_hash_equal(made, again):
    assert made is not again
    assert made == again
    assert hash(made) == hash(again)
    assert len({made, again}) == 1


def test_equality_holds_only_within_the_class():
    assert IndexedFamily(ENTRIES) != ENTRIES
    assert Summable(ENTRIES) != IndexedFamily(ENTRIES)
    assert IndexedFamily(ENTRIES) != Summable(ENTRIES)
    assert Summable(3) != 3
    assert Relation(frozenset()) != frozenset()
    assert IndexedFamily(ENTRIES) != IndexedFamily((("a", 2),))


def test_repr_is_the_dataclass_repr():
    assert repr(IndexedFamily(ENTRIES)) == "IndexedFamily(entries=(('a', 1),))"
    assert repr(Summable(3)) == "Summable(value=3)"
    assert repr(Relation(frozenset({(0, 1)}))) == "Relation(pairs=frozenset({(0, 1)}))"


@pytest.mark.parametrize("value", _values(), ids=VALUE_IDS)
def test_copies_round_trip(value):
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value


def test_fields_can_be_passed_by_keyword_and_replaced():
    fam = IndexedFamily(entries=ENTRIES)
    assert fam == IndexedFamily(ENTRIES)
    assert dataclasses.replace(fam, entries=()) == IndexedFamily(())
    assert Summable(value=3) == Summable(3)
    assert Relation(pairs=frozenset()) == Relation(frozenset())
