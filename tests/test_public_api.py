"""The public API, pinned: each module's __all__, the names the package exports,
the public methods and properties of the value classes, their trusted
constructors, and their stored fields.

A name added to or removed from the API fails here until the lists below
change with it, so every API change, and every new way to build a value
past its checks, is a deliberate edit.  Every public class other than an
exception is a frozen dataclass, and a built value refuses assignment and
deletion of its fields, holds nothing mutable, hashes unless its class
sets ``__hash__ = None``, and round-trips through pickle and deepcopy
after every public property has been read, each mapping one returns
being read-only.  A constructor takes numbers, never text: only
bps_kit.serialize reads a number from a string.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import importlib
import pickle
import time
from collections.abc import Mapping

import pytest

import bps_kit
from bps_kit.jfunctions import DivisorPairing, a_series, i_coefficient, jmgs_rhs, split_check
from bps_kit.kring import X_RING, KElem, element, scalar
from bps_kit.series import QVAR, LaurentSeries
from bps_kit.transform import KIND_GV, InvariantTable

MODULE_ALL = {
    "covers": {"bernoulli", "conifold_gw_table", "conifold_gv_table"},
    "jfunctions": {
        "a_series", "b_series", "i_coefficient", "j_y_coefficient", "j_x_coefficient",
        "split_check", "SplitCheckReport", "SplitCheckResult",
        "DivisorPairing", "JmgsTerm", "JmgsRhs", "jmgs_rhs",
    },
    "kring": {
        "RingSpec", "KElem", "RingMismatchError", "NotInvertibleError", "Y_RING", "X_RING",
        "ring_one", "gen_p", "gen_t", "element",
    },
    "serialize": {
        "SchemaError", "table_from_dict", "pairing_from_dict", "dumps",
        "render_table_text", "render_kelem_text", "render_integrality_text",
    },
    "series": {
        "LaurentSeries", "QRationalFunction", "TruncationError", "PoleAtZeroError",
        "LAMBDA", "QVAR",
    },
    "transform": {
        "KIND_GW", "KIND_GV", "InvariantTable", "IntegralityReport", "TableKindError",
        "TableBoundError", "sin_power_series", "gw_to_gv", "gv_to_gw", "mobius",
        "check_integrality", "degree_vectors",
    },
}

# module, class -> the public methods and properties the class defines
CLASS_MEMBERS = {
    ("series", "QRationalFunction"): {"expand", "is_polynomial", "is_zero", "regular_at_zero"},
    ("series", "LaurentSeries"): {"coefficient", "is_zero", "terms"},
    ("kring", "KElem"): {"inverse", "is_zero"},
    ("transform", "InvariantTable"): {"entries", "sorted_items", "value"},
    ("jfunctions", "JmgsRhs"): {"terms"},
}

# module, class -> the private classmethods: the trusted constructors, which
# skip the public constructor's checks
CLASS_TRUSTED = {
    ("series", "QRationalFunction"): {"_from_canonical"},
    ("series", "LaurentSeries"): set(),
    ("kring", "KElem"): set(),
    ("transform", "InvariantTable"): {"_of_layers"},
    ("jfunctions", "JmgsRhs"): set(),
}

_DESCRIPTORS = (property, functools.cached_property, classmethod, staticmethod)

# module, class -> the names of the stored fields, in order
CLASS_FIELDS = {
    ("series", "LaurentSeries"): ("var", "min_exp", "coeffs", "trunc_order"),
    ("series", "QRationalFunction"): ("num", "den"),
    ("kring", "KElem"): ("ring", "coords"),
    ("transform", "InvariantTable"): ("kind", "lattice_rank", "genus_max", "degree_max", "_layers"),
    ("jfunctions", "JmgsRhs"): ("lattice_rank", "r_max", "q_order", "scale", "parts"),
}

PACKAGE_EXPORTS = {
    "bernoulli", "conifold_gv_table", "conifold_gw_table",
    "DivisorPairing", "JmgsRhs", "JmgsTerm", "SplitCheckReport", "a_series", "b_series",
    "i_coefficient", "j_x_coefficient", "j_y_coefficient", "jmgs_rhs", "split_check",
    "KElem", "X_RING", "Y_RING", "element", "gen_p", "gen_t", "ring_one",
    "LaurentSeries", "QRationalFunction",
    "IntegralityReport", "InvariantTable", "KIND_GV", "KIND_GW", "check_integrality",
    "gv_to_gw", "gw_to_gv", "mobius",
    "sin_power_series",
}


def _table():
    return InvariantTable(KIND_GV, 1, 0, (2,), {(0, (1,)): 5})


# one built instance of each stored value, built afresh by each call
STORED_VALUES = {
    "a_series(2)": lambda: a_series(2),
    "a_series(2).expand(5)": lambda: a_series(2).expand(5),
    "i_coefficient(1)": lambda: i_coefficient(1),
    "table": _table,
    "jmgs_rhs": lambda: jmgs_rhs(_table(), DivisorPairing(((1,),)), 2, 4),
    "split_check result": lambda: split_check(1).results[0],
    "jmgs term": lambda: jmgs_rhs(_table(), DivisorPairing(((1,),)), 2, 4).terms[(1,)],
}


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_module_all_is_pinned(name):
    module = importlib.import_module(f"bps_kit.{name}")
    assert set(module.__all__) == MODULE_ALL[name]
    assert len(module.__all__) == len(set(module.__all__))  # no name listed twice
    for attr in module.__all__:
        assert hasattr(module, attr), attr


def test_package_exports_are_pinned():
    exported = {
        name for name, value in vars(bps_kit).items()
        if not name.startswith("_") and not isinstance(value, type(bps_kit))
    }
    assert exported == PACKAGE_EXPORTS


@pytest.mark.parametrize("module, cls", sorted(CLASS_MEMBERS), ids=lambda name: name)
def test_class_members_are_pinned(module, cls):
    members = vars(getattr(importlib.import_module(f"bps_kit.{module}"), cls))
    public = {
        name for name, value in members.items()
        if not name.startswith("_") and (callable(value) or isinstance(value, _DESCRIPTORS))
    }
    assert public == CLASS_MEMBERS[module, cls]


@pytest.mark.parametrize("module, cls", sorted(CLASS_TRUSTED), ids=lambda name: name)
def test_trusted_constructors_are_pinned(module, cls):
    members = vars(getattr(importlib.import_module(f"bps_kit.{module}"), cls))
    trusted = {
        name for name, value in members.items()
        if name.startswith("_") and isinstance(value, classmethod)
    }
    assert trusted == CLASS_TRUSTED[module, cls]


def test_public_classes_are_frozen_dataclasses():
    for name, names in sorted(MODULE_ALL.items()):
        module = importlib.import_module(f"bps_kit.{name}")
        for attr in sorted(names):
            value = getattr(module, attr)
            if isinstance(value, type) and not issubclass(value, BaseException):
                assert dataclasses.is_dataclass(value), attr
                assert value.__dataclass_params__.frozen, attr


@pytest.mark.parametrize("module, cls", sorted(CLASS_FIELDS), ids=lambda name: name)
def test_class_fields_are_pinned(module, cls):
    fields = dataclasses.fields(getattr(importlib.import_module(f"bps_kit.{module}"), cls))
    assert tuple([f.name for f in fields]) == CLASS_FIELDS[module, cls]


@pytest.mark.parametrize("build", list(STORED_VALUES.values()), ids=list(STORED_VALUES))
def test_stored_values_refuse_assignment_and_deletion(build):
    value = build()
    before = repr(value)
    for field in dataclasses.fields(value):
        # dataclasses.FrozenInstanceError is an AttributeError
        with pytest.raises(AttributeError):
            setattr(value, field.name, None)
        with pytest.raises(AttributeError):
            delattr(value, field.name)
    assert repr(value) == before
    assert value == build()


def _mutable_parts(value, path):
    """The paths of every list, set, bytearray or mapping in value's public fields."""
    if isinstance(value, Mapping):
        items = value.items()
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = enumerate(value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [f.name for f in dataclasses.fields(value) if not f.name.startswith("_")]
        items = [(name, getattr(value, name)) for name in fields]
    else:
        items = ()
    own = [path] if isinstance(value, (list, set, bytearray, Mapping)) else []
    return own + [p for key, v in items for p in _mutable_parts(v, f"{path}[{key!r}]")]


@pytest.mark.parametrize("build", list(STORED_VALUES.values()), ids=list(STORED_VALUES))
def test_stored_values_hold_nothing_mutable_and_hash_when_they_can(build):
    value = build()
    assert _mutable_parts(value, type(value).__name__) == []
    if type(value).__hash__ is not None:
        assert hash(value) == hash(build())


@pytest.mark.parametrize("build", list(STORED_VALUES.values()), ids=list(STORED_VALUES))
def test_stored_values_round_trip_after_every_property_is_read(build):
    value = build()
    views = [
        getattr(value, name) for name, member in vars(type(value)).items()
        if not name.startswith("_") and isinstance(member, (property, functools.cached_property))
    ]
    for view in views:
        if isinstance(view, Mapping):
            with pytest.raises(TypeError):
                view[None] = None
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


# each constructor with text in a number's place
TEXT_AS_NUMBER = {
    "table": lambda s: InvariantTable(KIND_GV, 1, 0, (1,), {(0, (1,)): s}),
    "series": lambda s: LaurentSeries(QVAR, 0, [s], 1),
    "ring_element": lambda s: KElem(X_RING, (s, 0)),
    "scalar": lambda s: scalar(X_RING, s),
    "element": lambda s: element(X_RING, {(0, 0): s}),
}


@pytest.mark.parametrize("text", ["1e10000000", "1/2", "3"])
@pytest.mark.parametrize("build", list(TEXT_AS_NUMBER.values()), ids=list(TEXT_AS_NUMBER))
def test_constructors_refuse_text_at_once(build, text):
    # Fraction("1e10000000") would build a 33-million-bit numerator first
    start = time.perf_counter()
    with pytest.raises(TypeError, match="cannot use str as an exact coefficient"):
        build(text)
    assert time.perf_counter() - start < 1


def test_text_is_not_read_as_a_sequence_or_multiplied_out():
    # "123" would be three coefficients, and "4" * 2 the coefficient "44"
    with pytest.raises(TypeError):
        LaurentSeries(QVAR, 0, "123", 3)
    with pytest.raises(TypeError):
        element(X_RING, {(0, 0): "3", (2, 0): "4"})
    assert element(X_RING, {(0, 0): 3, (2, 0): 4}).coords == (-1, 8)


# each constructor that takes a sequence of numbers, given a container of two
SEQUENCE_OF_NUMBERS = {
    "series": lambda c: LaurentSeries(QVAR, 0, c, 2),
    "ring_element": lambda c: KElem(X_RING, c),
}


# containers that iterate to numbers but are not a list or tuple
NOT_A_LIST_OR_TUPLE = {
    "bytes": lambda: b"\x01\x02",
    "bytearray": lambda: bytearray(b"\x01\x02"),
    "map": lambda: map(int, "12"),
    "generator": lambda: (c for c in (1, 2)),
}


@pytest.mark.parametrize(
    "container", list(NOT_A_LIST_OR_TUPLE.values()), ids=list(NOT_A_LIST_OR_TUPLE)
)
@pytest.mark.parametrize("build", list(SEQUENCE_OF_NUMBERS.values()), ids=list(SEQUENCE_OF_NUMBERS))
def test_constructors_take_only_a_list_or_tuple(build, container):
    # b"12" would be the coefficients 49 and 50, and b"\x01\x02" the coordinates (1, 2)
    with pytest.raises(TypeError, match="must be a list or tuple, not"):
        build(container())
    assert build([1, 2]) == build((1, 2))
