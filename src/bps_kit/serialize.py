"""Every document the CLI reads or writes: JSON schemas, the JSON writer, text rendering.

Rational values always travel as strings ("p/q" or "p") so nothing is
ever forced through a float.  Table files carry their own bounds:

    {
      "kind": "GW" | "GV",
      "lattice_rank": int,
      "genus_max": int,
      "degree_max": [int, ...],
      "entries": [{"genus": int, "degree": [int, ...], "value": "p/q"}, ...]
    }

and pairing files hold one integer vector per divisor direction:

    {"vectors": [[int, ...], ...]}

Either may carry a top-level "description" string.  Unknown fields are
rejected.  Schema problems raise :class:`SchemaError`; entries that
violate the declared bounds raise TableBoundError from the bounds check
the table constructor runs too.  :func:`dumps` writes every JSON document, with
each library value the CLI emits in it as one document shape: a Fraction
as its string; a QRationalFunction as "q_rational"; a LaurentSeries in q
as "q_series" (a power series only: from q^-1 it raises ValueError), and
in any other variable as "laurent_series"; a KElem as "ring_element"; an
IntegralityReport as its report; an InvariantTable as its table
document; and a ``JmgsRhs(lattice_rank, r_max, q_order, scale, parts)``
as the jmgs document, written from its integer parts (N, D, E) over its
one scale.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .jfunctions import JmgsRhs
from .kring import KElem
from .series import QVAR, LaurentSeries, QRationalFunction
from .transform import IntegralityReport, InvariantTable, _checked_layers

__all__ = [
    "SchemaError",
    "table_from_dict",
    "pairing_from_dict",
    "dumps",
    "render_table_text",
    "render_kelem_text",
    "render_integrality_text",
]


class SchemaError(ValueError):
    """Raised on malformed input documents (wrong shape, types, or fields)."""


# the exponent of a spelling such as "1.5e3", as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _int_pair(s) -> tuple[int, int]:
    """Integers (num, den), den > 0, with num / den the value of ``Fraction(s)``.

    SchemaError where ``Fraction(s)`` raises.  "-?digits(/digits)" is read
    by int(), unreduced; any other spelling goes through ``Fraction(s)``.
    int() refuses more than ``sys.get_int_max_str_digits()`` digits, so an
    exponent over that many (when the limit is set) is refused too, before
    ``Fraction`` would expand it to 10^|e|.
    """
    if not isinstance(s, str):
        raise SchemaError(f"rational values must be strings, got {type(s).__name__}")
    num, slash, den = s.partition("/")
    try:
        if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            d = int(den) if slash else 1
            if d:
                return int(num), d
            raise ZeroDivisionError(s)
        exponent, limit = _EXPONENT.search(s), sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent over {limit}")
        v = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid rational value {s!r}") from exc
    return v.numerator, v.denominator


def _require_keys(doc: dict, required: set[str], optional: set[str], what: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    keys = set(doc)
    missing = required - keys
    if missing:
        raise SchemaError(f"{what} is missing fields: {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"{what} has unknown fields: {sorted(unknown)}")


def _require_document_keys(doc, required: set[str], what: str):
    """_require_keys for a whole file, which may also carry a "description" string."""
    _require_keys(doc, required, {"description"}, what)
    if not isinstance(doc.get("description", ""), str):
        raise SchemaError(f"{what}: description must be a string")


def _int_field(doc, key, what, minimum=None):
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{what}: field {key!r} must be an integer")
    if minimum is not None and v < minimum:
        raise SchemaError(f"{what}: field {key!r} must be >= {minimum}")
    return v


def _int_vector(v, what):
    if not isinstance(v, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in v
    ):
        raise SchemaError(f"{what} must be a list of integers")
    return tuple(v)


_ENTRY_FIELDS = frozenset(("genus", "degree", "value"))


# --- invariant tables -------------------------------------------------------


def table_from_dict(doc) -> InvariantTable:
    """The table of a table document.

    A schema fault, a duplicate cell among them, raises SchemaError at the
    first entry that has one.  Once every entry has passed, the cells go
    through the constructor's bounds check, which raises TableBoundError
    at the first bound fault and builds one integer layer per genus with
    zero values dropped.  Each value is read as an integer pair, with no
    Fraction built.
    """
    _require_document_keys(
        doc, {"kind", "lattice_rank", "genus_max", "degree_max", "entries"}, "table file"
    )
    kind = doc["kind"]
    if kind not in ("GW", "GV"):
        raise SchemaError(f"table kind must be 'GW' or 'GV', got {kind!r}")
    rank = int(_int_field(doc, "lattice_rank", "table file", minimum=1))
    genus_max = int(_int_field(doc, "genus_max", "table file", minimum=0))
    degree_max = tuple([int(d) for d in _int_vector(doc["degree_max"], "table file: degree_max")])
    if not isinstance(doc["entries"], list):
        raise SchemaError("table file: entries must be a list")
    cells: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}  # zero values too
    for i, entry in enumerate(doc["entries"]):
        # cheap tests first; where one fails, the full check raises the error
        # with its "entry #i" text, or accepts what the test is too strict for
        # (an int subclass, stored as an int)
        if not (isinstance(entry, dict) and entry.keys() == _ENTRY_FIELDS):
            _require_keys(entry, _ENTRY_FIELDS, frozenset(), f"entry #{i}")
        g = entry["genus"]
        if type(g) is not int or g < 0:
            g = int(_int_field(entry, "genus", f"entry #{i}", minimum=0))
        deg = entry["degree"]
        if type(deg) is not list or not all(type(x) is int and x >= 0 for x in deg):
            deg = [int(x) for x in _int_vector(deg, f"entry #{i}: degree")]
            if any(x < 0 for x in deg):
                raise SchemaError(f"entry #{i}: degree components must be nonnegative")
        value = _int_pair(entry["value"])
        key = g, tuple(deg)
        if key in cells:
            raise SchemaError(f"entry #{i}: duplicate cell (genus {g}, degree {deg})")
        cells[key] = value
    layers = _checked_layers(rank, genus_max, degree_max, cells)
    return InvariantTable._of_layers(kind, rank, genus_max, degree_max, layers)


def pairing_from_dict(doc) -> tuple[tuple[int, ...], ...]:
    """The vectors of a pairing file: a nonempty list of integer vectors of one nonzero length."""
    _require_document_keys(doc, {"vectors"}, "pairing file")
    if not isinstance(doc["vectors"], list) or not doc["vectors"]:
        raise SchemaError("pairing file: vectors must be a nonempty list")
    vectors = tuple([_int_vector(v, f"pairing vector #{i}") for i, v in enumerate(doc["vectors"])])
    if not vectors[0] or len({len(v) for v in vectors}) != 1:
        raise SchemaError("pairing file: vectors must be nonempty and share one length")
    return vectors


# --- the JSON writer -------------------------------------------------------------

# How json.dumps writes each scalar, keyed by its exact type; a Fraction,
# which json.dumps refuses, is written as its string.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    Fraction: '"%s"'.__mod__,
}


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, without its pure-Python encoder.

    ``doc`` holds dicts with string keys, lists, tuples, strings, ints,
    bools and None, and the library values listed in the module docstring,
    each written as its document wherever it sits.  Anything else raises
    TypeError.
    """
    return _dump(doc, "\n")


def _dump(doc, nl: str) -> str:
    """The writer behind dumps; ``nl`` is a newline and the indent of the line ``doc`` starts on.

    With an indent, ``json.dumps`` cannot use the C encoder; this writer keeps
    the C string escaper.  Lists go item by item; large arrays use templates.
    """
    scalar = _SCALARS.get(type(doc))
    if scalar is not None:
        return scalar(doc)
    inner = nl + "  "
    if isinstance(doc, dict):
        items = [encode_basestring_ascii(k) + ": " + _dump(v, inner) for k, v in doc.items()]
        return _obj(nl, *items)
    if isinstance(doc, (list, tuple)):
        return _array(nl, [_dump(v, inner) for v in doc])
    for cls, write in _WRITERS:
        if isinstance(doc, cls):
            return write(doc, nl)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


# --- document shapes: each one written in one place --------------------------------


def _obj(at: str, *fields: str) -> str:
    """The object of the given '"key": value' texts, its "}" starting line ``at``."""
    if not fields:
        return "{}"
    return "{" + at + "  " + ("," + at + "  ").join(fields) + at + "}"


def _array(at: str, items: list[str]) -> str:
    """Likewise, the array of the given value texts; an empty one is "[]", as "{}" above."""
    if not items:
        return "[]"
    return "[" + at + "  " + ("," + at + "  ").join(items) + at + "]"


def _q_rational(at: str) -> str:
    """The q_rational template; its two %s take the numerator and denominator arrays."""
    return _obj(at, '"type": "q_rational"', '"numerator": %s', '"denominator": %s')


def _q_series(at: str, trunc_order: int) -> str:
    """The q_series template; its %s takes the coefficients of q^0 .. q^(trunc_order - 1)."""
    return _obj(at, '"type": "q_series"', f'"trunc_order": {trunc_order}', '"coefficients": %s')


def _dump_qrf(f: QRationalFunction, nl: str) -> str:
    num, den = list(map(str, f.num)), list(map(str, f.den))
    return _q_rational(nl) % (_strings(num, nl + "  "), _strings(den, nl + "  "))


def _dump_series(s: LaurentSeries, nl: str) -> str:
    """A series in q as q_series, which holds only a power series; any other as laurent_series."""
    coefficients = list(map(str, s.coeffs))
    if s.var != QVAR:
        head = {"type": "laurent_series", "variable": s.var, "min_exp": s.min_exp}
        return _dump({**head, "trunc_order": s.trunc_order, "coefficients": coefficients}, nl)
    if s.min_exp < 0:
        raise ValueError(f"a q_series document holds a power series, not one from q^{s.min_exp}")
    return _q_series(nl, s.trunc_order) % _strings(["0"] * s.min_exp + coefficients, nl + "  ")


def _dump_kelem(e: KElem, nl: str) -> str:
    doc = {"type": "ring_element", "ring": e.ring.name, "basis": e.ring.basis_names}
    return _dump({**doc, "coords": e.coords}, nl)


def _dump_integrality(report: IntegralityReport, nl: str) -> str:
    violations = [{"genus": g, "degree": d, "value": str(v)} for g, d, v in report.violations]
    return _dump({"is_integral": report.is_integral, "violations": violations}, nl)


def _dump_table(table: InvariantTable, nl: str) -> str:
    """A table document, writing the entries from one template.

    Every entry has the same shape, so one ``%``-template per table is
    built from its rank and the indent.  Each genus layer is written by
    one ``%`` over that template repeated, so no entry is a string of its
    own, and the values come from the layer, with no Fraction built.  The
    document is one join over the layer texts and their separators, as in
    :func:`_dump_jmgs`: no text is copied into an enclosing array first.
    """
    inner = nl + "  "
    entry = inner + "  "
    field = entry + "  "
    template = _obj(
        entry,
        '"genus": %d',
        '"degree": ' + _array(field, ["%d"] * table.lattice_rank),
        '"value": "%s"',
    )
    fields = {
        "kind": table.kind,
        "lattice_rank": table.lattice_rank,
        "genus_max": table.genus_max,
        "degree_max": table.degree_max,
    }
    items = [encode_basestring_ascii(k) + ": " + _dump(v, inner) for k, v in fields.items()]
    head = "{" + inner + ("," + inner).join(items) + "," + inner + '"entries": '
    pieces, sep = [head + "[" + entry], "," + entry
    for g, (den, layer) in enumerate(table._layers):
        if layer:
            degrees = sorted(layer)
            values = _ratio_strs([layer[beta] for beta in degrees], den)
            args = [x for beta, v in zip(degrees, values) for x in (g, *beta, v)]
            pieces += [sep.join([template] * len(degrees)) % tuple(args), sep]
    if len(pieces) == 1:
        return head + "[]" + nl + "}"
    pieces[-1] = inner + "]" + nl + "}"
    return "".join(pieces)


def _dump_jmgs(rhs: JmgsRhs, nl: str) -> str:
    """A jmgs document, written from the integer parts of the right-hand side.

    ``rhs.parts`` is in the document's order, and every part (N, D, E) is
    over the one ``rhs.scale``.  Every term has
    the same shape, so one ``%``-template per document, built from the
    rank, the number of divisor directions and the indent, writes each
    term in a single step once its arrays are written.  Each
    distinct denominator array is written once per indent and its text
    reused.  The document is one join over the terms and their
    separators, so no term text is copied into an enclosing array first.
    No term's rational functions or series are built.
    """
    inner = nl + "  "
    term, field = inner + "  ", inner + "    "
    item = field + "  "
    deep = item + "  "
    head = "{" + inner + ("," + inner).join([
        '"constant": ' + _dump(rhs.constant, nl),
        f'"lattice_rank": {rhs.lattice_rank}',
        f'"r_max": {rhs.r_max}',
        f'"q_order": {rhs.q_order}',
        '"terms": ',
    ])
    if not rhs.parts:
        return head + "[]" + nl + "}"
    n_div = len(rhs.parts[0][1]) - 1
    template = _obj(
        term,
        '"total_degree": ' + _array(field, ["%d"] * rhs.lattice_rank),
        '"divisor": ' + _array(field, [_q_rational(item)] * n_div),
        '"divisor_expansion": ' + _array(field, [_q_series(item, rhs.q_order)] * n_div),
        '"structure": ' + _q_rational(field),
        '"structure_expansion": ' + _q_series(field, rhs.q_order),
    )
    dens: dict[tuple[tuple[int, ...], str], str] = {}  # (denominator, indent) -> its array

    def den_text(den, at):
        text = dens.get((den, at))
        if text is None:
            text = dens[den, at] = _quoted(den, 1, at)
        return text

    pieces, sep, s = [head + "[" + term], "," + term, rhs.scale
    for total, (*divisor, (n, d, e)) in rhs.parts:
        values = list(total)
        for num, den, _ in divisor:
            values += [_quoted(num, s, deep), den_text(den, deep)]
        values += [_quoted(sums, s, deep) for _, _, sums in divisor]
        values += [_quoted(n, s, item), den_text(d, item), _quoted(e, s, item)]
        pieces += [template % tuple(values), sep]
    pieces[-1] = inner + "]" + nl + "}"
    return "".join(pieces)


def _quoted(ints, scale: int, at: str) -> str:
    """The array of the strings of c / scale for c in ints, its "]" starting line ``at``."""
    return _strings(_ratio_strs(ints, scale), at)


def _ratio_strs(ints, scale: int) -> list[str]:
    """The strings of c / scale for c in ints, scale > 0.

    Each is what str(Fraction(c, scale)) gives: str(c) when scale = 1,
    else c and scale divided by one gcd.
    """
    if scale == 1:
        return list(map(str, ints))
    strs = []
    for c in ints:
        g = math.gcd(c, scale)
        strs.append(str(c // g) if g == scale else f"{c // g}/{scale // g}")
    return strs


def _strings(strs: list[str], at: str) -> str:
    """The array of the given strings, which need no escaping, its "]" starting line ``at``."""
    if not strs:
        return "[]"
    return f'[{at}  "' + ('",' + at + '  "').join(strs) + f'"{at}]'


# the library values dumps writes, each with its writer
_WRITERS = (
    (QRationalFunction, _dump_qrf),
    (LaurentSeries, _dump_series),
    (KElem, _dump_kelem),
    (IntegralityReport, _dump_integrality),
    (InvariantTable, _dump_table),
    (JmgsRhs, _dump_jmgs),
)


# --- text rendering ------------------------------------------------------------


def render_table_text(table: InvariantTable) -> str:
    lines = [
        f"kind={table.kind} rank={table.lattice_rank} "
        f"genus_max={table.genus_max} degree_max={list(table.degree_max)}"
    ]
    items = [f"  g={g} d=({','.join(map(str, deg))})  {v}" for (g, deg), v in table.sorted_items()]
    return "\n".join(lines + (items or ["  (all entries zero)"]))


def render_kelem_text(e: KElem) -> str:
    lines = [f"ring {e.ring.name} element:"]
    for name, c in zip(e.ring.basis_names, e.coords):
        lines.append(f"  [{name}] {c}")
    return "\n".join(lines)


def render_integrality_text(report) -> str:
    if report.is_integral:
        return "integrality: PASS (all values are integers)"
    lines = ["integrality: FAIL"]
    for g, deg, v in report.violations:
        deg_s = ",".join(str(d) for d in deg)
        lines.append(f"  non-integer at g={g} d=({deg_s}): {v}")
    return "\n".join(lines)
