"""The contract of the value types built on every oracle call.

``IndexedFamily``, ``Summable`` and ``Relation`` are frozen dataclasses on
slots with a hand-written ``__init__``; they must still behave as plain
frozen dataclasses: immutable, equal only within their class, hashed by
value, printed as before and copyable.  So must ``CauchyArrow``, whose
``keys`` and ``values`` columns are stored next to its coefficients but are
left out of equality, hashing and ``repr``.  ``PartialFn.of`` builds a
partial function from a mapping without the functional-graph check that
``PartialFn(graph)`` runs, and must give the same value.
"""

import copy
import dataclasses
import pickle

import pytest

from pcmcat.category import from_semiring
from pcmcat.cauchy import CauchyArrow, cauchy_product
from pcmcat.family import IndexedFamily, family_of
from pcmcat.fincat import cyclic_category
from pcmcat.pcm import PartialFn, Relation, Summable

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


# --------------------------------------------------------------------------
# CauchyArrow: a frozen dataclass on slots that also stores its keys and values
# --------------------------------------------------------------------------

Z3_OBJ = ("*", "*")


def _arrows():
    """Kernel-built arrows (make_arrow, compose, sum_arrows) and hand-built ones."""
    cc = cauchy_product(from_semiring("int"), cyclic_category(3))
    f = cc.make_arrow(Z3_OBJ, Z3_OBJ, {"z1": 2, "z2": -1})
    g = cc.make_arrow(Z3_OBJ, Z3_OBJ, {"z0": 3})
    return {
        "make_arrow": f,
        "compose": cc.compose(g, f),
        "sum_arrows": cc.sum_arrows(family_of([f, g])).value,
        "hand-built": CauchyArrow(Z3_OBJ, Z3_OBJ, (("z0", 1), ("z1", 0), ("z2", 4))),
        "hand-built unsorted": CauchyArrow(Z3_OBJ, Z3_OBJ, (("z2", 4), ("z0", 1))),
        "hand-built empty": CauchyArrow(Z3_OBJ, Z3_OBJ, ()),
    }


ARROW_IDS = list(_arrows())


@pytest.mark.parametrize("kind", ARROW_IDS)
def test_assigning_an_arrow_field_raises(kind):
    arrow = _arrows()[kind]
    for field in dataclasses.fields(arrow):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(arrow, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(arrow, field.name)


@pytest.mark.parametrize("kind", ARROW_IDS)
def test_no_arrow_has_a_dict(kind):
    arrow = _arrows()[kind]
    assert not hasattr(arrow, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(arrow, "extra", 1)


@pytest.mark.parametrize("kind", ARROW_IDS)
def test_equal_arrows_hash_equal(kind):
    made = _arrows()[kind]
    again = CauchyArrow(made.src, made.tgt, tuple(list(made.coeffs)))
    assert made is not again
    assert made == again and again == made
    assert hash(made) == hash(again) == hash((made.src, made.tgt, made.coeffs))
    assert len({made, again}) == 1
    assert made != made.coeffs
    assert made != CauchyArrow(made.src, made.tgt, made.coeffs + (("z9", 0),))


@pytest.mark.parametrize("kind", ARROW_IDS)
def test_an_arrow_repr_is_the_dataclass_repr_of_its_three_fields(kind):
    arrow = _arrows()[kind]
    assert repr(arrow) == (f"CauchyArrow(src={arrow.src!r}, tgt={arrow.tgt!r}, "
                           f"coeffs={arrow.coeffs!r})")


def test_an_arrow_repr_is_byte_identical():
    arrows = _arrows()
    assert repr(arrows["compose"]) == ("CauchyArrow(src=('*', '*'), tgt=('*', '*'), "
                                       "coeffs=(('z0', 0), ('z1', 6), ('z2', -3)))")
    assert repr(arrows["hand-built unsorted"]) == (
        "CauchyArrow(src=('*', '*'), tgt=('*', '*'), coeffs=(('z2', 4), ('z0', 1)))")


@pytest.mark.parametrize("kind", ARROW_IDS)
def test_arrow_copies_and_replacements_round_trip(kind):
    arrow = _arrows()[kind]
    for copied in (copy.copy(arrow), copy.deepcopy(arrow), pickle.loads(pickle.dumps(arrow)),
                   dataclasses.replace(arrow, coeffs=arrow.coeffs)):
        assert type(copied) is type(arrow)
        assert copied == arrow
        assert (copied.keys, copied.values) == (arrow.keys, arrow.values)
    with pytest.raises(ValueError):
        dataclasses.replace(arrow, keys=arrow.keys)


@pytest.mark.parametrize("kind", ARROW_IDS)
def test_keys_and_values_zip_back_to_the_coefficients(kind):
    arrow = _arrows()[kind]
    assert tuple(zip(arrow.keys, arrow.values)) == arrow.coeffs
    assert len(arrow.keys) == len(arrow.values) == len(arrow.coeffs)
    assert [f.name for f in dataclasses.fields(arrow) if f.init] == ["src", "tgt", "coeffs"]


def test_kernel_built_arrows_share_the_sorted_hom_key_tuple():
    arrows = _arrows()
    keys = arrows["make_arrow"].keys
    assert keys == ("z0", "z1", "z2")
    assert arrows["compose"].keys is keys and arrows["sum_arrows"].keys is keys


# --------------------------------------------------------------------------
# PartialFn: built from a mapping without the check, from a graph with it
# --------------------------------------------------------------------------


def test_a_partial_fn_from_a_mapping_is_the_one_from_its_graph():
    made = PartialFn.of({1: 2, 0: 1})
    checked = PartialFn(frozenset({(0, 1), (1, 2)}))
    assert made == checked and hash(made) == hash(checked)
    assert repr(made) == repr(checked)
    assert made.mapping == {0: 1, 1: 2} and made(1) == 2
    for copied in (copy.copy(made), copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
        assert copied == checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        made.graph = frozenset()


def test_a_non_functional_graph_still_raises():
    with pytest.raises(ValueError, match="graph is not functional"):
        PartialFn(frozenset({(0, 1), (0, 2)}))
