"""The public API, pinned: each module's __all__, the names the package exports,
and the public methods and properties of the value classes.

A name added to or removed from the API fails here until the lists below
change with it, so every API change is a deliberate edit.
"""

from __future__ import annotations

import functools
import importlib

import pytest

import bps_kit

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
    ("jfunctions", "JmgsRhs"): {"sorted_degrees", "terms"},
}

_DESCRIPTORS = (property, functools.cached_property, classmethod, staticmethod)

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
