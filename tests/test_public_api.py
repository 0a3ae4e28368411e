"""The public API, pinned: each module's __all__ and the names the package exports.

A name added to or removed from the API fails here until the lists below
change with it, so every API change is a deliberate edit.
"""

from __future__ import annotations

import importlib

import pytest

import bps_kit

MODULE_ALL = {
    "covers": {"bernoulli", "conifold_gw_table", "conifold_gv_table"},
    "jfunctions": {
        "a_series", "b_series", "i_coefficient", "j_y_coefficient", "j_x_coefficient",
        "x_element_from_cover_data", "split_check", "SplitCheckReport", "SplitCheckResult",
        "DivisorPairing", "JmgsTerm", "JmgsRhs", "jmgs_rhs",
    },
    "kring": {
        "RingSpec", "KElem", "RingMismatchError", "NotInvertibleError", "Y_RING", "X_RING",
        "ring_one", "gen_p", "gen_t", "element", "absorption_check",
    },
    "serialize": {
        "SchemaError", "fraction_from_str", "table_from_dict", "pairing_from_dict", "dumps",
        "render_table_text", "render_kelem_text", "render_integrality_text",
    },
    "series": {
        "LaurentSeries", "QRationalFunction", "PolarSplit", "polar_split", "q_power",
        "TruncationError", "VariableMismatchError", "PoleAtZeroError", "PoleLocationError",
        "LAMBDA", "QVAR",
    },
    "transform": {
        "KIND_GW", "KIND_GV", "InvariantTable", "IntegralityReport", "TableKindError",
        "TableBoundError", "sin_power_series", "gw_to_gv", "gv_to_gw", "mobius",
        "gw_to_gv_genus0_mobius", "check_integrality", "degree_vectors",
    },
}

PACKAGE_EXPORTS = {
    "bernoulli", "conifold_gv_table", "conifold_gw_table",
    "DivisorPairing", "JmgsRhs", "JmgsTerm", "SplitCheckReport", "a_series", "b_series",
    "i_coefficient", "j_x_coefficient", "j_y_coefficient", "jmgs_rhs", "split_check",
    "x_element_from_cover_data",
    "KElem", "X_RING", "Y_RING", "absorption_check", "element", "gen_p", "gen_t", "ring_one",
    "LaurentSeries", "PolarSplit", "QRationalFunction", "polar_split", "q_power",
    "IntegralityReport", "InvariantTable", "KIND_GV", "KIND_GW", "check_integrality",
    "gv_to_gw", "gw_to_gv", "gw_to_gv_genus0_mobius", "mobius",
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
