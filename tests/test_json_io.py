"""The file boundary: the indented JSON writer, the rational parser and the
file loaders' error paths, each against what it must stay equal to."""

from __future__ import annotations

import json
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_kit.cli import main
from bps_kit.jfunctions import DivisorPairing, jmgs_rhs
from bps_kit.kring import X_RING, Y_RING, KElem
from bps_kit.serialize import (
    SchemaError,
    _int_pair,
    _pieces,
    dumps,
    pairing_from_dict,
    table_from_dict,
)
from bps_kit.series import LAMBDA, QVAR, LaurentSeries, QRationalFunction
from bps_kit.transform import (
    KIND_GV,
    KIND_GW,
    IntegralityReport,
    InvariantTable,
    TableBoundError,
    check_integrality,
    degree_vectors,
)

from oracles import (
    QRF,
    integrality_to_dict,
    jmgs_rhs_naive,
    jmgs_to_dict,
    kelem_to_dict,
    laurent_to_dict,
    qrf_to_dict,
    qseries_to_dict,
    table_to_dict,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

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
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_dump_matches_json_dumps_on_golden_documents(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert dumps(doc) == json.dumps(doc, indent=2)


# the fields whose strings are numbers, and those whose strings are names or prose
NUMBER_FIELDS = frozenset({"value", "numerator", "denominator", "coefficients", "coords", "constant"})
TEXT_FIELDS = frozenset({"type", "kind", "ring", "basis", "variable", "description"})


def _strings_by_field(doc, field=None):
    """(field, string) for every string in a JSON value, each under its innermost field."""
    if isinstance(doc, dict):
        for key, v in doc.items():
            yield from _strings_by_field(v, key)
    elif isinstance(doc, list):
        for v in doc:
            yield from _strings_by_field(v, field)
    elif isinstance(doc, str):
        yield field, doc


def test_every_number_the_repository_writes_reads_back():
    # the loader reads one spelling, so no document here may hold another
    paths = sorted(GOLDEN.glob("*.json")) + [SRC / "bps_kit" / "data" / "quintic_gw.json"]
    seen = set()
    for path in paths:
        for field, text in _strings_by_field(json.loads(path.read_text(encoding="utf-8"))):
            assert field in NUMBER_FIELDS | TEXT_FIELDS, (path.name, field, text)
            if field in NUMBER_FIELDS:
                num, den = _int_pair(text)
                assert Fraction(num, den) == Fraction(text), (path.name, text)
                seen.add(field)
    assert seen >= NUMBER_FIELDS - {"coords"}  # the golden coordinates are q_rational documents


def test_dump_edge_shapes():
    for doc in [[], {}, [[]], {"a": {}}, [[], {}, [1]], [True, False, None], [1, "1"], (1, (2,))]:
        assert dumps(doc) == json.dumps(doc, indent=2)
    for bad in [object(), {1, 2}, [b"x"], {"a": 1.5}]:
        with pytest.raises(TypeError):
            dumps(bad)


@st.composite
def tables(draw):
    """Tables of ranks 1-3, genus 0-3, possibly empty, with signed fractional values."""
    rank = draw(st.integers(1, 3))
    genus_max = draw(st.integers(0, 3))
    degree_max = tuple(draw(st.integers(1, 12 if rank == 1 else 3)) for _ in range(rank))
    cells = [(g, deg) for deg in degree_vectors(degree_max) for g in range(genus_max + 1)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=8))
    values = st.fractions(max_denominator=10**30).filter(bool)
    entries = {cell: draw(values) for cell in chosen}
    kind = draw(st.sampled_from([KIND_GV, KIND_GW]))
    return InvariantTable(kind, rank, genus_max, degree_max, entries)


@given(tables())
@settings(max_examples=200)
def test_dump_table_matches_json_dumps(table):
    assert dumps(table) == json.dumps(table_to_dict(table), indent=2)
    # one level down, as in the conifold document
    assert dumps({"gw": table}) == json.dumps({"gw": table_to_dict(table)}, indent=2)


def test_dump_table_edge_shapes():
    for table in [
        InvariantTable(KIND_GV, 1, 0, (1,), {}),
        InvariantTable(KIND_GW, 3, 0, (0, 0, 1), {(0, (0, 0, 1)): Fraction(-7, 3)}),
        InvariantTable(KIND_GV, 2, 4, (2, 0), {(4, (2, 0)): Fraction(-(2**300), 3**100)}),
    ]:
        assert dumps(table) == json.dumps(table_to_dict(table), indent=2)


@st.composite
def jmgs_inputs(draw):
    """Genus-zero tables of ranks 1-3, possibly empty, with integer or fractional
    values, and pairings that may hold a vector orthogonal to every degree."""
    rank = draw(st.integers(1, 3))
    degree_max = tuple(draw(st.integers(1, 6 if rank == 1 else 2)) for _ in range(rank))
    cells = [(0, deg) for deg in degree_vectors(degree_max)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=6))
    denominator = draw(st.sampled_from([1, 1, 10]))  # S = 1, or S > 1
    values = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=denominator)
    entries = {cell: draw(values.filter(bool)) for cell in chosen}
    vector = st.tuples(*[st.integers(-2, 2)] * rank)
    vectors = draw(st.lists(st.one_of(vector, st.just((0,) * rank)), min_size=1, max_size=3))
    table = InvariantTable(KIND_GV, rank, 0, degree_max, entries)
    return table, DivisorPairing(tuple(vectors)), draw(st.integers(1, 5)), draw(st.integers(0, 8))


def assert_jmgs_written_like_the_oracle(table, pairing, r_max, q_order):
    terms = jmgs_rhs_naive(table, pairing, r_max, q_order)
    expected = json.dumps(jmgs_to_dict(terms, table.lattice_rank, r_max, q_order), indent=2)
    assert dumps(jmgs_rhs(table, pairing, r_max, q_order)) == expected


@given(jmgs_inputs())
@settings(max_examples=60, deadline=None)
def test_dump_jmgs_matches_the_oracle_document(inputs):
    assert_jmgs_written_like_the_oracle(*inputs)


@pytest.mark.parametrize(
    "table, vectors, r_max, q_order",
    [
        # an empty table: no terms
        (InvariantTable(KIND_GV, 2, 0, (1, 1), {}), ((1, 0),), 3, 4),
        # q_order 0: every expansion is empty; S > 1
        (InvariantTable(KIND_GV, 1, 0, (2,), {(0, (1,)): Fraction(5, 3)}), ((1,),), 2, 0),
        # the first vector is orthogonal to every degree: its weights are all zero
        (
            InvariantTable(KIND_GV, 2, 0, (2, 2), {(0, (1, 1)): Fraction(7), (0, (2, 2)): Fraction(-3, 4)}),
            ((1, -1), (0, 1)),
            3,
            6,
        ),
        # rank 3, with large and fractional values meeting at one total degree
        (
            InvariantTable(
                KIND_GV, 3, 0, (2, 1, 1),
                {(0, (1, 0, 0)): Fraction(2**200, 3), (0, (2, 0, 0)): Fraction(-(2**198), 3),
                 (0, (0, 1, 1)): Fraction(-11)},
            ),
            ((1, 0, 0), (0, 0, 0), (1, 2, -1)),
            2,
            5,
        ),
    ],
    ids=["empty", "qorder-0", "orthogonal-vector", "rank-3"],
)
def test_dump_jmgs_edge_shapes(table, vectors, r_max, q_order):
    assert_jmgs_written_like_the_oracle(table, DivisorPairing(vectors), r_max, q_order)
    # one level down, as dumps writes any document
    rhs = jmgs_rhs(table, DivisorPairing(vectors), r_max, q_order)
    expected = jmgs_to_dict(rhs.terms, rhs.lattice_rank, rhs.r_max, rhs.q_order)
    assert json.loads(dumps({"rhs": rhs})) == {"rhs": expected}


def test_dump_jmgs_writes_a_large_document_without_copying_it():
    # dumps joins the terms' pieces once: beside the terms' own texts, the
    # result is the one full copy (an enclosing array, then an object, each
    # joined apart, were two more).  The CLI writes the pieces themselves and
    # keeps no full copy at all (tests/test_cli.py)
    rng = random.Random(10)
    entries = {
        (0, d): Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** (3 + 2 * sum(d))))
        for d in degree_vectors((10, 10))
    }
    gv = InvariantTable(KIND_GV, 2, 0, (10, 10), entries)
    rhs = jmgs_rhs(gv, DivisorPairing(((1, 0), (0, 1))), 8, 24)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = dumps(rhs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < 2.5 * len(text)


def test_dump_table_writes_a_large_document_without_copying_it():
    # each genus layer is written by one % over its entries' template, and
    # dumps joins the layers' pieces once: beside the layer texts, the result
    # is the one full copy.  Joining the cells, then the entries array, then
    # the object, each apart, peaked at 4.5x the text; this writes at 2.2x.
    # The CLI writes the pieces themselves and keeps no full copy at all.
    rng = random.Random(16)
    entries = {}
    for g in range(5):
        for d in degree_vectors((16, 16)):
            top = 2875 * 438 ** (sum(d) - 1)  # the quintic's growth: 284 bits at degree 32
            entries[(g, d)] = Fraction(rng.choice((-1, 1)) * rng.randint(top // 10 + 1, top))
    table = InvariantTable(KIND_GV, 2, 4, (16, 16), entries)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = dumps(table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 200_000
    assert peak < 2.5 * len(text)


# --- the pieces the CLI writes, one genus layer or one term at a time: they join
# to dumps, and the text is standard JSON -----------------------------------------


def assert_pieces_join_to_dumps(doc):
    text = "".join(_pieces(doc))
    assert text == dumps(doc)
    assert json.dumps(json.loads(text), indent=2) == text


@given(json_trees(3))
def test_pieces_of_any_document_join_to_dumps(doc):
    assert_pieces_join_to_dumps(doc)


@given(tables(), st.booleans())
@settings(max_examples=200)
def test_table_pieces_join_to_dumps(table, flag):
    # alone, and one level down, as in the conifold document
    for doc in (table, {"gw": table, "gv": table, "is_delta": flag}, [table, flag], {}, []):
        assert_pieces_join_to_dumps(doc)
    layers = sum(1 for _, layer in table._layers if layer)
    assert len(list(_pieces(table))) == 2 * layers + 1  # each layer after its separator


@given(jmgs_inputs())
@settings(max_examples=60, deadline=None)
def test_jmgs_pieces_join_to_dumps(inputs):
    rhs = jmgs_rhs(*inputs)
    for doc in (rhs, {"rhs": rhs}, (rhs,)):
        assert_pieces_join_to_dumps(doc)
    assert len(list(_pieces(rhs))) == 2 * len(rhs.parts) + 1  # each term after its separator


# --- the library values dumps writes directly, against their dict documents ----------

FRACTIONS = st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**12)
Q_RATIONALS = st.one_of(
    st.just(QRF.constant(0)),
    st.builds(
        QRF,
        st.lists(FRACTIONS, max_size=4),
        st.lists(FRACTIONS, min_size=1, max_size=4).filter(any),
    ),
)


@st.composite
def series(draw, var):
    """Series in var from exponent min_exp: >= 0 in q, possibly negative in lambda, or zero."""
    min_exp = draw(st.integers(0 if var == QVAR else -4, 4))
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), FRACTIONS), max_size=5))
    return LaurentSeries(var, min_exp, coeffs, min_exp + len(coeffs) + draw(st.integers(0, 3)))


@st.composite
def ring_elements(draw):
    """Elements of either ring whose coordinates mix Fractions and rational functions."""
    ring = draw(st.sampled_from([X_RING, Y_RING]))
    coords = st.lists(st.one_of(FRACTIONS, Q_RATIONALS), min_size=ring.rank, max_size=ring.rank)
    return KElem(ring, tuple(draw(coords)))


@st.composite
def integrality_reports(draw):
    degree = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple)
    value = FRACTIONS.filter(lambda v: v.denominator > 1)
    violations = draw(st.lists(st.tuples(st.integers(0, 4), degree, value), max_size=4))
    return IntegralityReport(not violations, tuple(violations))


def document(value):
    """The dict document of a value that dumps writes directly."""
    if isinstance(value, QRationalFunction):
        return qrf_to_dict(value)
    if isinstance(value, LaurentSeries):
        return qseries_to_dict(value) if value.var == QVAR else laurent_to_dict(value)
    if isinstance(value, KElem):
        return kelem_to_dict(value)
    return integrality_to_dict(value)


@given(
    st.one_of(
        Q_RATIONALS,
        series(QVAR),
        st.sampled_from([LaurentSeries(QVAR, 0, [], n) for n in range(3)]),
        series(LAMBDA),
        ring_elements(),
        integrality_reports(),
    )
)
@settings(max_examples=300)
def test_dump_library_values_match_their_documents(value):
    assert dumps(value) == json.dumps(document(value), indent=2)
    # deeper down, as in the ab-series and jfunction documents
    nested = {"r": 1, "values": [value, value]}
    assert dumps(nested) == json.dumps({"r": 1, "values": [document(value)] * 2}, indent=2)


@given(FRACTIONS, st.lists(st.one_of(FRACTIONS, st.integers()), max_size=4))
def test_dump_writes_a_fraction_as_its_string(value, values):
    assert dumps(value) == json.dumps(str(value))
    expected = [str(v) if isinstance(v, Fraction) else v for v in values]
    assert dumps({"f": values}) == json.dumps({"f": expected}, indent=2)


def test_dump_q_series_pads_and_rejects_a_series_from_q_to_the_minus_one():
    assert json.loads(dumps(LaurentSeries(QVAR, 2, [Fraction(1, 3)], 4))) == {
        "type": "q_series",
        "trunc_order": 4,
        "coefficients": ["0", "0", "1/3", "0"],
    }
    assert json.loads(dumps(LaurentSeries(QVAR, 0, [], 3)))["coefficients"] == ["0"] * 3
    # the same series in lambda is a laurent_series document
    assert json.loads(dumps(LaurentSeries(LAMBDA, -1, [1, 2], 1)))["type"] == "laurent_series"
    for doc in [LaurentSeries(QVAR, -1, [1, 2], 1), {"a": [LaurentSeries(QVAR, -1, [1], 0)]}]:
        with pytest.raises(ValueError, match="power series"):
            dumps(doc)


# --- the loader's value parser: integers (num, den) with num / den == Fraction(s)
# for the spelling dumps writes, and SchemaError for every other spelling, a zero
# denominator and more digits than int() reads ------------------------------------

# the one spelling of a rational value, as dumps writes it (unreduced allowed)
GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _check_parse(s):
    try:
        if not GRAMMAR.fullmatch(s):
            raise ValueError(f"{s!r} is not in the grammar")
        expected = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SchemaError):
            _int_pair(s)
    else:
        num, den = _int_pair(s)
        assert type(num) is int and type(den) is int and den > 0
        assert Fraction(num, den) == expected


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
        "2e3", " 3/4", "3/4\n", "-3 / 4", "0x10", "1e10000000",
    ],
)
def test_fraction_from_str_hand_picked(s):
    _check_parse(s)


@pytest.mark.parametrize("value", [3, None, 1.5, ["1"]])
def test_fraction_from_str_rejects_non_strings(value):
    with pytest.raises(SchemaError, match="must be strings"):
        _int_pair(value)


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
    # a tuple holds several entries, in order; the first bound fault is named
    ("genus over bound, then out of bounds",
     ({"genus": 2, "degree": [0, 2], "value": "1"}, {"genus": 1, "degree": [3, 0], "value": "1"}),
     TableBoundError, "entry genus 2 outside [0, 1]"),
    ("out of bounds, then genus over bound",
     ({"genus": 1, "degree": [3, 0], "value": "1"}, {"genus": 2, "degree": [0, 2], "value": "1"}),
     TableBoundError, "degree (3, 0) outside bounds (2, 2)"),
]


def _gv_doc(entries):
    return {"kind": "GV", "lattice_rank": 2, "genus_max": 1, "degree_max": [2, 2], "entries": entries}


@pytest.mark.parametrize(
    "entry, error, message", [case[1:] for case in BAD_ENTRIES], ids=[case[0] for case in BAD_ENTRIES]
)
def test_malformed_entry_error_and_exit_code(tmp_path, capsys, entry, error, message):
    entries = VALID_ENTRIES + (list(entry) if isinstance(entry, tuple) else [entry])
    doc = _gv_doc(entries)
    with pytest.raises(error) as info:
        table_from_dict(doc)
    assert str(info.value) == message
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["gv2gw", str(path)]) == (1 if error is SchemaError else 2)
    assert message in capsys.readouterr().err
    if error is TableBoundError:
        # the constructor runs the same bounds check on the same cells
        cells = {(e["genus"], tuple(e["degree"])): Fraction(e["value"]) for e in entries}
        with pytest.raises(TableBoundError) as info:
            InvariantTable(KIND_GV, 2, 1, (2, 2), cells)
        assert str(info.value) == message


def test_valid_entries_load():
    table = table_from_dict(_gv_doc(VALID_ENTRIES))
    assert dict(table.entries) == {
        (0, (1, 0)): Fraction(3),
        (1, (1, 0)): Fraction(-1, 2),
        (0, (0, 2)): Fraction(5),
    }


def test_schema_faults_come_before_bound_faults(tmp_path):
    # the loader checks bounds in the same pass but raises a bound fault only
    # after the last entry, so a document with both kinds is an input error
    over = {"genus": 2, "degree": [0, 2], "value": "1"}
    bad_value = {"genus": 1, "degree": [0, 2], "value": "x"}
    for doc in [
        _gv_doc(VALID_ENTRIES + [over, bad_value]),
        _gv_doc(VALID_ENTRIES + [bad_value]) | {"degree_max": [2]},
    ]:
        with pytest.raises(SchemaError, match="invalid rational value 'x'"):
            table_from_dict(doc)
        assert main(["gv2gw", _write(tmp_path, "table.json", doc)]) == 1
    # of two bound faults, the bounds' own is reported, as the constructor does
    with pytest.raises(TableBoundError, match=r"degree_max \(2,\) incompatible with rank 2"):
        table_from_dict(_gv_doc(VALID_ENTRIES + [over]) | {"degree_max": [2]})


def test_zero_values_are_dropped_but_still_fill_their_cell():
    zero = {"genus": 1, "degree": [0, 2], "value": "0"}
    table = table_from_dict(_gv_doc(VALID_ENTRIES + [zero]))
    assert dict(table.entries) == dict(table_from_dict(_gv_doc(VALID_ENTRIES)).entries)
    with pytest.raises(SchemaError, match=r"entry #4: duplicate cell \(genus 1, degree \[0, 2\]\)"):
        table_from_dict(_gv_doc(VALID_ENTRIES + [zero, dict(zero, value="3")]))


# --- tables from file to file: integer layers, read and written ------------------

# unreduced, zero, negative and integral over a denominator; genus 0 takes the
# even places, so its values have the mixed denominators 6, 7, 12, 2, 2 and 4
LAYER_VALUES = ["4/6", "0", "0/7", "-5", "-9/12", "1/3", "7/2", "3/4", "3/2", "2000", "-10/4", "12/4"]


def _table_doc(kind, rank, genus_max, degree_max, values):
    """A table document with the given value strings over its first cells."""
    cells = [(g, d) for d in degree_vectors(degree_max) for g in range(genus_max + 1)]
    entries = [{"genus": g, "degree": list(d), "value": v} for (g, d), v in zip(cells, values)]
    head = {"kind": kind, "lattice_rank": rank, "genus_max": genus_max}
    return head | {"degree_max": list(degree_max), "entries": entries}


def assert_loaded_like_fractions(doc):
    """The loaded table against the one the constructor builds from Fraction(value)."""
    table = table_from_dict(doc)
    values = {(e["genus"], tuple(e["degree"])): Fraction(e["value"]) for e in doc["entries"]}
    nonzero = {cell: v for cell, v in values.items() if v}
    bounds = (doc["kind"], doc["lattice_rank"], doc["genus_max"], doc["degree_max"])
    built = InvariantTable(*bounds, values)
    assert table == built and built == table
    assert dict(table.entries) == nonzero
    assert table.sorted_items() == sorted(nonzero.items())
    for (g, deg), v in values.items():
        got = table.value(g, deg)
        assert type(got) is Fraction and got == v
    for cell, v in table.entries.items():
        assert type(v) is Fraction and v == nonzero[cell]
    with pytest.raises(TypeError):
        table.entries[(0, (1,) * doc["lattice_rank"])] = Fraction(1)
    text = dumps(table)
    assert text == json.dumps(table_to_dict(built), indent=2)
    assert table_from_dict(json.loads(text)) == table
    if doc["kind"] == KIND_GV:
        violations = [(g, deg, v) for (g, deg), v in sorted(nonzero.items()) if v.denominator != 1]
        report = check_integrality(table)
        assert report.violations == tuple(violations)
        assert report.is_integral == (not violations)
    return table


@pytest.mark.parametrize("kind", [KIND_GV, KIND_GW])
def test_table_values_load_as_integer_layers(kind):
    table = assert_loaded_like_fractions(_table_doc(kind, 2, 1, (2, 2), LAYER_VALUES))
    assert table.value(0, (0, 1)) == Fraction(2, 3)  # "4/6"
    assert table.value(1, (0, 1)) == 0  # "0"
    assert table.value(1, (1, 1)) == Fraction(3, 4)  # "3/4"
    assert table.value(1, (2, 0)) == 2000  # "2000"


def test_an_exponent_beyond_the_digit_limit_fails_fast(tmp_path, capsys):
    # Fraction would expand "1e10000000" to 10^(10^7); the loader reads no
    # exponent, so it refuses the spelling before any power of ten is built
    doc = _table_doc(KIND_GV, 1, 0, (1,), ["1e10000000"])
    start = time.perf_counter()
    assert main(["check-integrality", _write(tmp_path, "table.json", doc)]) == 1
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "input error: invalid rational value '1e10000000'\n"
    limit = sys.get_int_max_str_digits()
    assert limit
    for s in [f"1e{limit + 1}", f"1E-{limit + 1}", f"2.5e+{limit + 1} ", f"1e{'9' * 40}"]:
        with pytest.raises(SchemaError, match="invalid rational value"):
            _int_pair(s)


def test_an_exponent_is_refused_fast_with_the_digit_limit_off():
    # the refusal rests on the grammar, not on int()'s digit limit
    doc = _table_doc(KIND_GV, 1, 0, (1,), ["1e10000000"])
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="invalid rational value '1e10000000'"):
            table_from_dict(doc)
        assert time.perf_counter() - start < 2
    finally:
        sys.set_int_max_str_digits(limit)


def test_table_equality_reads_values_not_layer_denominators():
    # "1/2" and "2/4" are one value; the genus-0 layers differ in denominator
    halves = [_table_doc(KIND_GV, 1, 0, (2,), [v, "1/3"]) for v in ("1/2", "2/4", "3/6")]
    tables = [table_from_dict(doc) for doc in halves]
    assert tables[0] == tables[1] == tables[2]
    assert dumps(tables[0]) == dumps(tables[1]) == dumps(tables[2])
    for other in ["1/3", "0"]:
        assert tables[0] != table_from_dict(_table_doc(KIND_GV, 1, 0, (2,), [other, "1/3"]))
    assert tables[0] != table_from_dict(_table_doc(KIND_GW, 1, 0, (2,), ["1/2", "1/3"]))
    assert tables[0] != table_from_dict(_table_doc(KIND_GV, 1, 0, (3,), ["1/2", "1/3"]))


@st.composite
def value_spellings(draw):
    """A Fraction's string as the writer gives it, unreduced, or over an explicit denominator."""
    v = draw(st.fractions(max_denominator=10**12))
    k = draw(st.integers(1, 60))
    return draw(st.sampled_from([
        str(v), f"{v.numerator * k}/{v.denominator * k}", f"{v.numerator}/{v.denominator}",
        str(v.numerator * k),
    ]))


@st.composite
def table_documents(draw):
    rank = draw(st.integers(1, 2))
    genus_max = draw(st.integers(0, 2))
    degree_max = tuple(draw(st.integers(1, 6 if rank == 1 else 3)) for _ in range(rank))
    n_cells = (genus_max + 1) * len(degree_vectors(degree_max))
    values = draw(st.lists(value_spellings(), max_size=n_cells))
    kind = draw(st.sampled_from([KIND_GV, KIND_GW]))
    doc = _table_doc(kind, rank, genus_max, degree_max, values)
    doc["entries"] = draw(st.permutations(doc["entries"]))
    return doc


@given(table_documents())
@settings(max_examples=150, deadline=None)
def test_loaded_tables_agree_with_their_fractions(doc):
    assert_loaded_like_fractions(doc)


# --- pairing files ----------------------------------------------------------------

BAD_PAIRINGS = [
    ("not an object", [[1]], "pairing file must be a JSON object"),
    ("no vectors", {}, "pairing file is missing fields: ['vectors']"),
    ("extra key", {"vectors": [[1]], "note": "x"}, "pairing file has unknown fields: ['note']"),
    ("string vectors", {"vectors": "nope"}, "pairing file: vectors must be a nonempty list"),
    ("no vector", {"vectors": []}, "pairing file: vectors must be a nonempty list"),
    ("empty vector", {"vectors": [[]]}, "pairing file: vectors must be nonempty and share one length"),
    ("two lengths", {"vectors": [[1], [1, 2]]}, "pairing file: vectors must be nonempty and share one length"),
    ("bool entry", {"vectors": [[1], [True]]}, "pairing vector #1 must be a list of integers"),
    ("float entry", {"vectors": [[1.0]]}, "pairing vector #0 must be a list of integers"),
]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _jmgs(tmp_path, pairing_doc, gv_doc=None):
    gv_doc = gv_doc or {"kind": "GV", "lattice_rank": 1, "genus_max": 0, "degree_max": [1], "entries": []}
    gv = _write(tmp_path, "gv.json", gv_doc)
    return main(["jmgs", "--gv", gv, "--pairing", _write(tmp_path, "pairing.json", pairing_doc), "--rmax", "1"])


@pytest.mark.parametrize(
    "doc, message", [case[1:] for case in BAD_PAIRINGS], ids=[case[0] for case in BAD_PAIRINGS]
)
def test_malformed_pairing_error_and_exit_code(tmp_path, capsys, doc, message):
    with pytest.raises(SchemaError) as info:
        pairing_from_dict(doc)
    assert str(info.value) == message
    assert _jmgs(tmp_path, doc) == 1
    assert message in capsys.readouterr().err


def test_valid_pairing_loads():
    doc = {"vectors": [[1, 0], [0, -2]], "description": "two divisors"}
    assert pairing_from_dict(doc) == ((1, 0), (0, -2))


# --- the "description" field of either file is a string ----------------------------


@pytest.mark.parametrize("description", [5, ["x"], None, True])
def test_table_description_must_be_a_string(tmp_path, capsys, description):
    doc = _gv_doc(VALID_ENTRIES) | {"description": description}
    with pytest.raises(SchemaError, match="description must be a string"):
        table_from_dict(doc)
    assert main(["gv2gw", _write(tmp_path, "table.json", doc)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: table file: description must be a string\n")
    assert table_from_dict(doc | {"description": "x"}) == table_from_dict(_gv_doc(VALID_ENTRIES))


@pytest.mark.parametrize("description", [5, ["x"], None, True])
def test_pairing_description_must_be_a_string(tmp_path, capsys, description):
    doc = {"vectors": [[1]], "description": description}
    with pytest.raises(SchemaError, match="description must be a string"):
        pairing_from_dict(doc)
    assert _jmgs(tmp_path, doc) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: pairing file: description must be a string\n")
    assert _jmgs(tmp_path, doc | {"description": "x"}) == 0
