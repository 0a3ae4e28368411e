"""JSON schemas and text rendering for tables, series, and ring elements.

Rational values always travel as strings ("p/q" or "p") so nothing is
ever forced through a float.  Table files carry their own bounds:

    {
      "kind": "GW" | "GV",
      "lattice_rank": int,
      "genus_max": int,
      "degree_max": [int, ...],
      "entries": [{"genus": int, "degree": [int, ...], "value": "p/q"}, ...]
    }

plus an optional top-level "description" string.  Unknown fields are
rejected.  Schema problems raise :class:`SchemaError`; entries that
violate the declared bounds surface as TableBoundError from the table
constructor.
"""

from __future__ import annotations

from fractions import Fraction

from .kring import KElem
from .series import QVAR, LaurentSeries, QRationalFunction
from .transform import InvariantTable

__all__ = [
    "SchemaError",
    "fraction_to_str",
    "fraction_from_str",
    "table_to_dict",
    "table_from_dict",
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


def fraction_to_str(v: Fraction) -> str:
    return str(v)


def fraction_from_str(s) -> Fraction:
    if not isinstance(s, str):
        raise SchemaError(f"rational values must be strings, got {type(s).__name__}")
    try:
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


# --- invariant tables -------------------------------------------------------


def table_to_dict(table: InvariantTable, description: str | None = None) -> dict:
    doc = {
        "kind": table.kind,
        "lattice_rank": table.lattice_rank,
        "genus_max": table.genus_max,
        "degree_max": list(table.degree_max),
        "entries": [
            {"genus": g, "degree": list(deg), "value": fraction_to_str(v)}
            for (g, deg), v in table.sorted_items()
        ],
    }
    if description is not None:
        doc["description"] = description
    return doc


def table_from_dict(doc) -> InvariantTable:
    _require_keys(
        doc,
        {"kind", "lattice_rank", "genus_max", "degree_max", "entries"},
        {"description"},
        "table file",
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
        what = f"entry #{i}"
        _require_keys(entry, {"genus", "degree", "value"}, set(), what)
        g = _int_field(entry, "genus", what, minimum=0)
        deg = _int_vector(entry["degree"], f"{what}: degree")
        if any(x < 0 for x in deg):
            raise SchemaError(f"{what}: degree components must be nonnegative")
        v = fraction_from_str(entry["value"])
        key = (g, deg)
        if key in entries:
            raise SchemaError(f"{what}: duplicate cell (genus {g}, degree {list(deg)})")
        entries[key] = v
    # bound/rank violations surface from the table constructor
    return InvariantTable(kind, rank, genus_max, degree_max, entries)


# --- series ------------------------------------------------------------------


def laurent_to_dict(s: LaurentSeries) -> dict:
    return {
        "type": "laurent_series",
        "variable": s.var,
        "min_exp": s.min_exp,
        "trunc_order": s.trunc_order,
        "coefficients": [fraction_to_str(c) for c in s.coeffs],
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
        "coefficients": ["0"] * s.min_exp + [fraction_to_str(c) for c in s.coeffs],
    }


def qrf_to_dict(f: QRationalFunction) -> dict:
    return {
        "type": "q_rational",
        "numerator": [fraction_to_str(c) for c in f.num],
        "denominator": [fraction_to_str(c) for c in f.den],
    }


def kelem_to_dict(e: KElem) -> dict:
    coords = []
    for c in e.coords:
        if isinstance(c, QRationalFunction):
            coords.append(qrf_to_dict(c))
        else:
            coords.append(fraction_to_str(c))
    return {
        "type": "ring_element",
        "ring": e.ring.name,
        "basis": list(e.ring.basis_names),
        "coords": coords,
    }


# --- text rendering ------------------------------------------------------------


def render_table_text(table: InvariantTable) -> str:
    lines = [
        f"kind={table.kind} rank={table.lattice_rank} "
        f"genus_max={table.genus_max} degree_max={list(table.degree_max)}"
    ]
    for (g, deg), v in table.sorted_items():
        deg_s = ",".join(str(d) for d in deg)
        lines.append(f"  g={g} d=({deg_s})  {fraction_to_str(v)}")
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
            {"genus": g, "degree": list(d), "value": fraction_to_str(v)}
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
