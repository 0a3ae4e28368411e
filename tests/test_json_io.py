"""The table boundary: the indented JSON writer, the rational parser and the
table loader's error paths, each against what it must stay equal to."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_kit.cli import _dump, main
from bps_kit.serialize import SchemaError, fraction_from_str, table_from_dict
from bps_kit.transform import TableBoundError

GOLDEN = Path(__file__).resolve().parent / "golden"

# --- the writer: json.dumps(indent=2), byte for byte ----------------------------

AWKWARD_STRINGS = ["", '"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é", " ", "😀", "\ud800", "/"]
LEAVES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(AWKWARD_STRINGS),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.booleans(),
    st.none(),
)


def json_trees(depth: int):
    """JSON values nested at most depth containers deep, tuples among the lists."""
    if depth == 0:
        return LEAVES
    inner = json_trees(depth - 1)
    return st.one_of(
        LEAVES,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(LEAVES, max_size=5),  # one scalar type or several
        st.dictionaries(st.one_of(st.text(max_size=4), st.sampled_from(AWKWARD_STRINGS)), inner, max_size=4),
    )


@given(json_trees(4))
@settings(max_examples=300)
def test_dump_matches_json_dumps(doc):
    assert _dump(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_dump_matches_json_dumps_on_golden_documents(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert _dump(doc) == json.dumps(doc, indent=2)


def test_dump_edge_shapes():
    for doc in [[], {}, [[]], {"a": {}}, [[], {}, [1]], [True, False, None], [1, "1"], (1, (2,))]:
        assert _dump(doc) == json.dumps(doc, indent=2)
    for bad in [object(), {1, 2}, [b"x"], {"a": 1.5}]:
        with pytest.raises(TypeError):
            _dump(bad)


# --- the parser: Fraction(s), with SchemaError where Fraction raises -------------


def _check_parse(s):
    try:
        expected = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SchemaError):
            fraction_from_str(s)
    else:
        got = fraction_from_str(s)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@given(
    st.one_of(
        st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
        st.from_regex(r"-?\d+(/\d+)?", fullmatch=True),
        st.text(alphabet="0123456789-+/_.eE \t٣²", max_size=10),
        st.text(max_size=6),
    )
)
@settings(max_examples=400)
def test_fraction_from_str_matches_fraction(s):
    _check_parse(s)


@pytest.mark.parametrize(
    "s",
    [
        "1_000", " 5 ", "1.5", "1e3", "+3", "3/-4", "1/0", "-0", "007", "٣", "²", "", "/2",
        "-6/4", "0/5", "5/1", "-", "--3", "3/", "3//4", "1" * 5000, "1/" + "1" * 5000,
    ],
)
def test_fraction_from_str_hand_picked(s):
    _check_parse(s)


@pytest.mark.parametrize("value", [3, None, 1.5, ["1"]])
def test_fraction_from_str_rejects_non_strings(value):
    with pytest.raises(SchemaError, match="must be strings"):
        fraction_from_str(value)


# --- the loader: each malformed entry, its error and its exit code ----------------

# Entry #3 follows valid cells in the degree vectors (1, 0) and (0, 2), so a
# check skipped for a degree vector seen before would let it through.
VALID_ENTRIES = [
    {"genus": 0, "degree": [1, 0], "value": "3"},
    {"genus": 1, "degree": [1, 0], "value": "-1/2"},
    {"genus": 0, "degree": [0, 2], "value": "5"},
]
BAD_ENTRIES = [
    ("missing key", {"genus": 1, "degree": [0, 2]},
     SchemaError, "entry #3 is missing fields: ['value']"),
    ("extra key", {"genus": 1, "degree": [0, 2], "value": "1", "note": "x"},
     SchemaError, "entry #3 has unknown fields: ['note']"),
    ("bool genus", {"genus": True, "degree": [0, 2], "value": "1"},
     SchemaError, "entry #3: field 'genus' must be an integer"),
    ("float genus", {"genus": 1.0, "degree": [0, 2], "value": "1"},
     SchemaError, "entry #3: field 'genus' must be an integer"),
    ("negative genus", {"genus": -1, "degree": [0, 2], "value": "1"},
     SchemaError, "entry #3: field 'genus' must be >= 0"),
    ("genus over bound", {"genus": 2, "degree": [0, 2], "value": "1"},
     TableBoundError, "entry genus 2 outside [0, 1]"),
    ("non-list degree", {"genus": 1, "degree": 2, "value": "1"},
     SchemaError, "entry #3: degree must be a list of integers"),
    ("string degree", {"genus": 1, "degree": "02", "value": "1"},
     SchemaError, "entry #3: degree must be a list of integers"),
    ("bool degree component", {"genus": 1, "degree": [True, 0], "value": "1"},
     SchemaError, "entry #3: degree must be a list of integers"),
    ("float degree component", {"genus": 1, "degree": [0, 2.0], "value": "1"},
     SchemaError, "entry #3: degree must be a list of integers"),
    ("negative degree component", {"genus": 1, "degree": [1, -1], "value": "1"},
     SchemaError, "entry #3: degree components must be nonnegative"),
    ("numeric value", {"genus": 1, "degree": [0, 2], "value": 1},
     SchemaError, "rational values must be strings, got int"),
    ("zero denominator", {"genus": 1, "degree": [0, 2], "value": "1/0"},
     SchemaError, "invalid rational value '1/0'"),
    ("duplicate cell", {"genus": 0, "degree": [1, 0], "value": "7"},
     SchemaError, "entry #3: duplicate cell (genus 0, degree [1, 0])"),
    ("duplicate cell, bad value", {"genus": 0, "degree": [1, 0], "value": "x"},
     SchemaError, "invalid rational value 'x'"),
    ("wrong rank", {"genus": 1, "degree": [1], "value": "1"},
     TableBoundError, "degree (1,) has wrong rank"),
    ("zero degree", {"genus": 1, "degree": [0, 0], "value": "1"},
     TableBoundError, "degree vector must be nonzero"),
    ("out of bounds", {"genus": 1, "degree": [3, 0], "value": "1"},
     TableBoundError, "degree (3, 0) outside bounds (2, 2)"),
    ("not an object", ["genus", 1],
     SchemaError, "entry #3 must be a JSON object"),
]


def _gv_doc(entries):
    return {"kind": "GV", "lattice_rank": 2, "genus_max": 1, "degree_max": [2, 2], "entries": entries}


@pytest.mark.parametrize(
    "entry, error, message", [case[1:] for case in BAD_ENTRIES], ids=[case[0] for case in BAD_ENTRIES]
)
def test_malformed_entry_error_and_exit_code(tmp_path, capsys, entry, error, message):
    doc = _gv_doc(VALID_ENTRIES + [entry])
    with pytest.raises(error) as info:
        table_from_dict(doc)
    assert str(info.value) == message
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["gv2gw", str(path)]) == (1 if error is SchemaError else 2)
    assert message in capsys.readouterr().err


def test_valid_entries_load():
    table = table_from_dict(_gv_doc(VALID_ENTRIES))
    assert dict(table.entries) == {
        (0, (1, 0)): Fraction(3),
        (1, (1, 0)): Fraction(-1, 2),
        (0, (0, 2)): Fraction(5),
    }
