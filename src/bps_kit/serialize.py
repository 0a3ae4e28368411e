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
violate the declared bounds surface as TableBoundError from the table
constructor.  :func:`dumps` writes every JSON document, an
:class:`~bps_kit.transform.InvariantTable` as its table document and a
:class:`~bps_kit.jfunctions.JmgsRhs` as the jmgs document.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .jfunctions import JmgsRhs
from .kring import KElem
from .series import QVAR, LaurentSeries, QRationalFunction
from .transform import InvariantTable

__all__ = [
    "SchemaError",
    "fraction_from_str",
    "table_from_dict",
    "pairing_from_dict",
    "dumps",
    "laurent_to_dict",
    "qseries_to_dict",
    "qrf_to_dict",
    "kelem_to_dict",
    "integrality_to_dict",
    "render_table_text",
    "render_kelem_text",
    "render_integrality_text",
]


class SchemaError(ValueError):
    """Raised on malformed input documents (wrong shape, types, or fields)."""


def fraction_from_str(s) -> Fraction:
    """``Fraction(s)``, or SchemaError where it raises; "-?digits(/digits)" is read by int()."""
    if not isinstance(s, str):
        raise SchemaError(f"rational values must be strings, got {type(s).__name__}")
    num, slash, den = s.partition("/")
    try:
        if s.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid rational value {s!r}") from exc


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
    _require_document_keys(
        doc, {"kind", "lattice_rank", "genus_max", "degree_max", "entries"}, "table file"
    )
    kind = doc["kind"]
    if kind not in ("GW", "GV"):
        raise SchemaError(f"table kind must be 'GW' or 'GV', got {kind!r}")
    rank = _int_field(doc, "lattice_rank", "table file", minimum=1)
    genus_max = _int_field(doc, "genus_max", "table file", minimum=0)
    degree_max = _int_vector(doc["degree_max"], "table file: degree_max")
    if not isinstance(doc["entries"], list):
        raise SchemaError("table file: entries must be a list")
    entries = {}
    for i, entry in enumerate(doc["entries"]):
        # cheap tests first; where one fails, the full check raises the error
        # with its "entry #i" text, or accepts what the test is too strict for
        # (an int subclass)
        if not (isinstance(entry, dict) and entry.keys() == _ENTRY_FIELDS):
            _require_keys(entry, _ENTRY_FIELDS, frozenset(), f"entry #{i}")
        g = entry["genus"]
        if type(g) is not int or g < 0:
            _int_field(entry, "genus", f"entry #{i}", minimum=0)
        deg = entry["degree"]
        if type(deg) is not list or not all(type(x) is int and x >= 0 for x in deg):
            if any(x < 0 for x in _int_vector(deg, f"entry #{i}: degree")):
                raise SchemaError(f"entry #{i}: degree components must be nonnegative")
        v = fraction_from_str(entry["value"])
        key = (g, tuple(deg))
        if key in entries:
            raise SchemaError(f"entry #{i}: duplicate cell (genus {g}, degree {list(deg)})")
        entries[key] = v
    # bound/rank violations surface from the table constructor
    return InvariantTable(kind, rank, genus_max, degree_max, entries)


def pairing_from_dict(doc) -> tuple[tuple[int, ...], ...]:
    """The vectors of a pairing file: a nonempty list of integer vectors of one nonzero length."""
    _require_document_keys(doc, {"vectors"}, "pairing file")
    if not isinstance(doc["vectors"], list) or not doc["vectors"]:
        raise SchemaError("pairing file: vectors must be a nonempty list")
    vectors = tuple([_int_vector(v, f"pairing vector #{i}") for i, v in enumerate(doc["vectors"])])
    if not vectors[0] or len({len(v) for v in vectors}) != 1:
        raise SchemaError("pairing file: vectors must be nonempty and share one length")
    return vectors


# --- series ------------------------------------------------------------------


def laurent_to_dict(s: LaurentSeries) -> dict:
    return {
        "type": "laurent_series",
        "variable": s.var,
        "min_exp": s.min_exp,
        "trunc_order": s.trunc_order,
        "coefficients": list(map(str, s.coeffs)),
    }


def qseries_to_dict(s: LaurentSeries) -> dict:
    """The "q_series" document: coefficients of q^0 up to q^(trunc_order - 1).

    Only a power series in q fits it; anything else would lose terms.
    """
    if s.var != QVAR or s.min_exp < 0:
        raise ValueError(
            f"a q_series document needs a power series in q, "
            f"got a series in {s.var} from exponent {s.min_exp}"
        )
    return {
        "type": "q_series",
        "trunc_order": s.trunc_order,
        "coefficients": ["0"] * s.min_exp + list(map(str, s.coeffs)),
    }


def qrf_to_dict(f: QRationalFunction) -> dict:
    return {
        "type": "q_rational",
        "numerator": list(map(str, f.num)),
        "denominator": list(map(str, f.den)),
    }


def kelem_to_dict(e: KElem) -> dict:
    coords = [qrf_to_dict(c) if isinstance(c, QRationalFunction) else str(c) for c in e.coords]
    return {
        "type": "ring_element",
        "ring": e.ring.name,
        "basis": list(e.ring.basis_names),
        "coords": coords,
    }


# --- the JSON writer -------------------------------------------------------------

# How json.dumps writes each scalar, keyed by its exact type.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, without its pure-Python encoder.

    ``doc`` holds what the serializers build: dicts with string keys, lists,
    tuples, strings, ints, bools and None.  An InvariantTable anywhere in it
    is written as its table document, and a JmgsRhs from
    :func:`~bps_kit.jfunctions.jmgs_rhs` as its jmgs document.  Anything
    else raises TypeError.
    """
    return _dump(doc, "\n")


def _dump(doc, nl: str) -> str:
    """The writer behind dumps; ``nl`` is a newline and the indent of the line ``doc`` starts on.

    With an indent, ``json.dumps`` cannot use the C encoder; this writer
    keeps the C string escaper and joins whole lists of scalars at once.
    """
    scalar = _SCALARS.get(type(doc))
    if scalar is not None:
        return scalar(doc)
    inner = nl + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dump(v, inner) for k, v in doc.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        kinds = set(map(type, doc))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, doc) if scalar else [_dump(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(doc, InvariantTable):
        return _dump_table(doc, nl)
    if isinstance(doc, JmgsRhs):
        return _dump_jmgs(doc, nl)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def _dump_table(table: InvariantTable, nl: str) -> str:
    """A table document, writing the entries from one template.

    Every entry has the same shape, so one ``%``-template per table, built
    from its rank and the indent, writes each entry in a single step.
    """
    inner = nl + "  "
    entry = inner + "  "
    field = entry + "  "
    part = field + "  "
    template = (
        "{" + field + '"genus": %d,' + field + '"degree": ['
        + part + ("," + part).join(["%d"] * table.lattice_rank)
        + field + "]," + field + '"value": "%s"' + entry + "}"
    )
    cells = [template % (g, *deg, str(v)) for (g, deg), v in table.sorted_items()]
    entries = "[" + entry + ("," + entry).join(cells) + inner + "]" if cells else "[]"
    head = {
        "kind": table.kind,
        "lattice_rank": table.lattice_rank,
        "genus_max": table.genus_max,
        "degree_max": list(table.degree_max),
    }
    items = [encode_basestring_ascii(k) + ": " + _dump(v, inner) for k, v in head.items()]
    return "{" + inner + ("," + inner).join(items + ['"entries": ' + entries]) + nl + "}"


def _dump_jmgs(rhs: JmgsRhs, nl: str) -> str:
    """A jmgs document, written from the integer parts that jmgs_rhs keeps.

    Every term has the same shape, so one ``%``-template per document,
    built from the rank, the number of divisor directions and the indent,
    writes each term in a single step once its lists are joined.  A JmgsRhs
    built by its constructor has no integer parts and raises TypeError.
    """
    parts = vars(rhs).get("_parts")
    if parts is None:
        raise TypeError(
            "only a JmgsRhs from jmgs_rhs can be written: it keeps the integer "
            "parts that the writer reads, and one built by its constructor has none"
        )

    def obj(at: str, *fields: str) -> str:  # an object whose "}" starts line ``at``
        return "{" + at + "  " + ("," + at + "  ").join(fields) + at + "}"

    def array(at: str, items: list[str]) -> str:  # likewise, a nonempty array
        return "[" + at + "  " + ("," + at + "  ").join(items) + at + "]"

    def q_rational(at: str) -> str:
        return obj(at, '"type": "q_rational"', '"numerator": %s', '"denominator": %s')

    def q_series(at: str) -> str:
        return obj(at, '"type": "q_series"', f'"trunc_order": {rhs.q_order}', '"coefficients": %s')

    term, field = nl + "    ", nl + "      "
    item = field + "  "
    deep = item + "  "
    cells = []
    if parts:
        n_div = len(next(iter(parts.values()))) - 1
        template = obj(
            term,
            '"total_degree": ' + array(field, ["%d"] * rhs.lattice_rank),
            '"divisor": ' + array(field, [q_rational(item)] * n_div),
            '"divisor_expansion": ' + array(field, [q_series(item)] * n_div),
            '"structure": ' + q_rational(field),
            '"structure_expansion": ' + q_series(field),
        )
        for total in rhs.sorted_degrees():
            *divisor, (s, n, d, e) = parts[total]
            values = list(total)
            for scale, num, den, _ in divisor:
                values += [_quoted(num, scale, deep), _quoted(den, 1, deep)]
            values += [_quoted(sums, scale, deep) for scale, _, _, sums in divisor]
            values += [_quoted(n, s, item), _quoted(d, 1, item), _quoted(e, s, item)]
            cells.append(template % tuple(values))
    return obj(
        nl,
        '"constant": ' + encode_basestring_ascii(str(rhs.constant)),
        f'"lattice_rank": {rhs.lattice_rank}',
        f'"r_max": {rhs.r_max}',
        f'"q_order": {rhs.q_order}',
        '"terms": ' + (array(nl + "  ", cells) if cells else "[]"),
    )


def _quoted(ints, scale: int, at: str) -> str:
    """The array of the strings of c / scale for c in ints, its "]" starting line ``at``.

    Each string is what str(Fraction(c, scale)) gives: str(c) when
    scale = 1, else c and scale divided by one gcd.
    """
    if not ints:
        return "[]"
    if scale == 1:
        strs = map(str, ints)
    else:
        strs = []
        for c in ints:
            g = math.gcd(c, scale)
            strs.append(str(c // g) if g == scale else f"{c // g}/{scale // g}")
    return "[" + at + '  "' + ('",' + at + '  "').join(strs) + '"' + at + "]"


# --- text rendering ------------------------------------------------------------


def render_table_text(table: InvariantTable) -> str:
    lines = [
        f"kind={table.kind} rank={table.lattice_rank} "
        f"genus_max={table.genus_max} degree_max={list(table.degree_max)}"
    ]
    for (g, deg), v in table.sorted_items():
        deg_s = ",".join(str(d) for d in deg)
        lines.append(f"  g={g} d=({deg_s})  {v}")
    if not table.entries:
        lines.append("  (all entries zero)")
    return "\n".join(lines)


def render_kelem_text(e: KElem) -> str:
    lines = [f"ring {e.ring.name} element:"]
    for name, c in zip(e.ring.basis_names, e.coords):
        lines.append(f"  [{name}] {c}")
    return "\n".join(lines)


def integrality_to_dict(report) -> dict:
    return {
        "is_integral": report.is_integral,
        "violations": [
            {"genus": g, "degree": list(d), "value": str(v)}
            for g, d, v in report.violations
        ],
    }


def render_integrality_text(report) -> str:
    if report.is_integral:
        return "integrality: PASS (all values are integers)"
    lines = ["integrality: FAIL"]
    for g, deg, v in report.violations:
        deg_s = ",".join(str(d) for d in deg)
        lines.append(f"  non-integer at g={g} d=({deg_s}): {v}")
    return "\n".join(lines)
