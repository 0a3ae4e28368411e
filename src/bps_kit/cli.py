"""Command-line driver.

Subcommands: gw2gv, gv2gw, conifold, sin-series, ab-series, ifunction,
jfunction, split-check, jmgs, check-integrality.  Each one parses its
arguments, calls the library and emits the result; every document it
reads or writes has its format in :mod:`bps_kit.serialize`.  Structured
output is JSON with exact rational strings; --json switches reports from
text to JSON, --output sends the primary document to a file.  Exit codes:
0 success/verified, 1 malformed input, 2 domain/bound violation,
3 verification failure.  Set BPS_KIT_LOG=DEBUG (or INFO, ...) for logs.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from .covers import conifold_gw_table
from .jfunctions import (
    DivisorPairing,
    a_series,
    b_series,
    i_coefficient,
    j_x_coefficient,
    j_y_coefficient,
    jmgs_rhs,
    split_check,
)
from .kring import NotInvertibleError
from .serialize import (
    SchemaError,
    dumps,
    pairing_from_dict,
    render_integrality_text,
    render_kelem_text,
    render_table_text,
    table_from_dict,
)
from .series import PoleAtZeroError
from .transform import (
    KIND_GV,
    InvariantTable,
    TableBoundError,
    check_integrality,
    gv_to_gw,
    gw_to_gv,
    sin_power_series,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    except ValueError as exc:  # an integer over the digit limit; its subclasses come first
        raise SchemaError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc


def _emit(args, text: str) -> None:
    # two writes, so a large document is not copied to append its newline
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)


def _load_table(path: str):
    return table_from_dict(_load_json(path))


# --- table transforms ---------------------------------------------------------


def _render_integrality(args, report) -> str:
    return dumps(report) if args.json else render_integrality_text(report)


def cmd_gw2gv(args) -> int:
    if args.json and args.check_integrality and not args.output:
        # the table and the report would be two JSON documents on one stdout
        raise ValueError("--json --check-integrality needs --output for the table")
    result = gw_to_gv(_load_table(args.input))
    _emit(args, dumps(result))
    if args.check_integrality:
        report = check_integrality(result)
        print(_render_integrality(args, report))
        if not report.is_integral:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_gv2gw(args) -> int:
    _emit(args, dumps(gv_to_gw(_load_table(args.input))))
    return EXIT_OK


def cmd_check_integrality(args) -> int:
    report = check_integrality(_load_table(args.input))
    _emit(args, _render_integrality(args, report))
    return EXIT_OK if report.is_integral else EXIT_VERIFY


def cmd_conifold(args) -> int:
    if args.dmax < 1:
        raise TableBoundError("--dmax must be at least 1")
    if args.gmax < 0:
        raise TableBoundError("--gmax must be nonnegative")
    gw = conifold_gw_table(args.gmax, args.dmax)
    gv = gw_to_gv(gw)
    is_delta = gv == InvariantTable(KIND_GV, 1, args.gmax, (args.dmax,), {(0, (1,)): 1})
    if args.json:
        _emit(args, dumps({"gw": gw, "gv": gv, "is_delta": is_delta}))
    else:
        _emit(
            args,
            "closed-form cover table:\n"
            + render_table_text(gw)
            + "\ntransformed table:\n"
            + render_table_text(gv)
            + f"\ndelta at (genus 0, degree 1): {'yes' if is_delta else 'NO'}",
        )
    return EXIT_OK if is_delta else EXIT_VERIFY


# --- series subcommands ----------------------------------------------------------


def cmd_sin_series(args) -> int:
    series = sin_power_series(args.k, args.genus, args.order)
    if args.json:
        _emit(args, dumps(series))
    else:
        _emit(args, str(series))
    return EXIT_OK


def _with_expansion(indent: str, label: str, exact, series) -> list[str]:
    """Text lines for an exact function and its truncated expansion."""
    return [f"{indent}{label}: {exact}", f"{indent}  = {series} + O(q^{series.trunc_order})"]


def cmd_ab_series(args) -> int:
    a = a_series(args.r)
    b = b_series(args.r)
    a_expansion = a.expand(args.order)
    b_expansion = b.expand(args.order)
    if args.json:
        doc = {"r": args.r, "a": a, "a_expansion": a_expansion, "b": b, "b_expansion": b_expansion}
        _emit(args, dumps(doc))
    else:
        lines = _with_expansion("", f"a({args.r})", a, a_expansion)
        lines += _with_expansion("", f"b({args.r})", b, b_expansion)
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _rmax(args) -> int:
    """--rmax, the largest Novikov degree, checked to be at least 1."""
    if args.rmax < 1:
        raise TableBoundError("--rmax must be at least 1")
    return args.rmax


def cmd_ifunction(args) -> int:
    terms = [(r, i_coefficient(r)) for r in range(1, _rmax(args) + 1)]
    if args.json:
        _emit(args, dumps([{"r": r, "coefficient": el} for r, el in terms]))
    else:
        _emit(args, "\n".join([f"degree {r}:\n{render_kelem_text(el)}" for r, el in terms]))
    return EXIT_OK


def cmd_jfunction(args) -> int:
    build = j_x_coefficient if args.which == "X" else j_y_coefficient
    parts = []  # one JSON object or one text block per degree
    for r in range(1, _rmax(args) + 1):
        el = build(r)
        series = [c.expand(args.qorder) for c in el.coords]
        if args.json:
            parts.append({"r": r, "coefficient": el, "expansions": series})
        else:
            lines = [f"degree {r}:", render_kelem_text(el), f"  expansions to O(q^{args.qorder}):"]
            lines += [f"  [{name}] {s}" for name, s in zip(el.ring.basis_names, series)]
            parts.append("\n".join(lines))
    _emit(args, dumps(parts) if args.json else "\n".join(parts))
    return EXIT_OK


def cmd_split_check(args) -> int:
    report = split_check(_rmax(args))
    if args.json:
        rows = [{"r": x.r, "passed": x.passed, "residuals": x.residuals} for x in report.results]
        _emit(args, dumps(rows))
    else:
        lines = [
            f"r={res.r}: {'PASS' if res.passed else 'FAIL'}" for res in report.results
        ]
        verdict = "all proper parts match" if report.all_passed else "MISMATCH FOUND"
        _emit(args, "\n".join(lines) + f"\n{verdict}")
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_jmgs(args) -> int:
    gv = _load_table(args.gv)
    pairing = DivisorPairing(pairing_from_dict(_load_json(args.pairing)))
    rhs = jmgs_rhs(gv, pairing, _rmax(args), args.qorder)
    if args.json:
        _emit(args, dumps(rhs))
    else:
        lines = [f"constant term: {rhs.constant}"]
        for deg, term in rhs.terms.items():
            deg_s = ",".join(str(d) for d in deg)
            lines.append(f"Q^({deg_s}):")
            for j, (f, s) in enumerate(
                zip(term.divisor_exact, term.divisor_expansion), start=1
            ):
                lines += _with_expansion("  ", f"divisor[{j}]", f, s)
            lines += _with_expansion(
                "  ", "structure", term.structure_exact, term.structure_expansion
            )
        _emit(args, "\n".join(lines))
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bps-kit",
        description="Exact transforms between invariant tables and cover series checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--output", metavar="PATH", help="write the primary document to PATH")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gw2gv", parents=[common], help="invert a GW table to a GV table")
    p.add_argument("input", help="GW table JSON file")
    p.add_argument(
        "--check-integrality",
        action="store_true",
        help="report non-integer output entries (exit 3 if any)",
    )
    p.set_defaults(func=cmd_gw2gv)

    p = sub.add_parser("gv2gw", parents=[common], help="evaluate a GV table forward to GW")
    p.add_argument("input", help="GV table JSON file")
    p.set_defaults(func=cmd_gv2gw)

    p = sub.add_parser(
        "check-integrality", parents=[common], help="list non-integer entries of a GV table"
    )
    p.add_argument("input", help="GV table JSON file")
    p.set_defaults(func=cmd_check_integrality)

    p = sub.add_parser(
        "conifold",
        parents=[common],
        help="closed-form cover table and its transform (expects a lone 1)",
    )
    p.add_argument("--gmax", type=int, required=True, help="genus bound (>= 0)")
    p.add_argument("--dmax", type=int, required=True, help="degree bound (>= 1)")
    p.set_defaults(func=cmd_conifold)

    p = sub.add_parser("sin-series", parents=[common], help="expand (2 sin(k*x/2))^(2g-2)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="exclusive truncation order")
    p.set_defaults(func=cmd_sin_series)

    p = sub.add_parser("ab-series", parents=[common], help="degree-r cover coefficients")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", type=int, default=6, help="expansion order for display")
    p.set_defaults(func=cmd_ab_series)

    p = sub.add_parser(
        "ifunction", parents=[common], help="localization coefficients in the rank-6 ring"
    )
    p.add_argument("--rmax", type=int, required=True)
    p.set_defaults(func=cmd_ifunction)

    p = sub.add_parser(
        "jfunction", parents=[common], help="cover-summed coefficients in either ring"
    )
    p.add_argument("--which", choices=["X", "Y"], required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--qorder", type=int, default=6)
    p.set_defaults(func=cmd_jfunction)

    p = sub.add_parser(
        "split-check",
        parents=[common],
        help="verify the proper part of each I-coefficient equals the J-coefficient",
    )
    p.add_argument("--rmax", type=int, required=True)
    p.set_defaults(func=cmd_split_check)

    p = sub.add_parser(
        "jmgs", parents=[common], help="assemble the GV-weighted cover sum from files"
    )
    p.add_argument("--gv", required=True, help="genus-zero GV table JSON file")
    p.add_argument("--pairing", required=True, help="divisor pairing JSON file")
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--qorder", type=int, default=6)
    p.set_defaults(func=cmd_jmgs)

    return parser


# built on the first main call, then reused: parse_args keeps no state
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    level = os.environ.get("BPS_KIT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, PoleAtZeroError, NotInvertibleError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
