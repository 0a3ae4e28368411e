#!/usr/bin/env python3
"""Reproduce every headline number and identity from one command.

Runs the bundled quintic table through both directions of the
transform, collapses the closed-form cover table to its delta, checks
the relations of the quotient rings, prints the series anchors, and
verifies the proper-part identity for the localization coefficients.
Two cross-checks live here rather than in the package, as no command
runs them: the absorption identity of the rank-6 ring, and the rank-2
J-coefficients assembled from the cover data of a one-curve table.
Tables the library builds from a validated table skip the constructor's
checks, so they are put through the constructor once more here and
compared field by field, which also checks that the quintic and conifold
outputs store their genus layers in lowest terms, as the constructor
does; the jmgs document, written from integers, is read back and
compared with the right-hand side's own terms; and the values built on
the way are put through pickle, as a process pool would pass them.  Everything is
exact; the script exits nonzero if any check fails.
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from fractions import Fraction

from bps_kit import (
    DivisorPairing,
    X_RING,
    Y_RING,
    check_integrality,
    conifold_gv_table,
    conifold_gw_table,
    gen_p,
    gen_t,
    gv_to_gw,
    gw_to_gv,
    j_x_coefficient,
    jmgs_rhs,
    ring_one,
    sin_power_series,
    split_check,
)
from bps_kit.datasets import quintic_gw_table
from bps_kit.serialize import dumps, table_from_dict
from bps_kit.transform import InvariantTable, KIND_GV

FAILURES = []


def check(label: str, ok: bool) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        FAILURES.append(label)


def revalidated(table: InvariantTable) -> InvariantTable:
    """The same bounds and cells, checked again by the public constructor."""
    return InvariantTable(
        table.kind, table.lattice_rank, table.genus_max, table.degree_max, dict(table.entries)
    )


def absorption_check(m_max: int) -> bool:
    """Check that (1-Pt)^2 absorbs the t from (1 - P q^m t) for m <= m_max.

    Multiplying by the square of (1 - Pt) makes (1 - P q^m t) and
    (1 - P q^m) interchangeable; this is the cancellation that collapses
    the telescoping products in the cover series.  The difference of the
    two products is q^m P (1-Pt)^2 (1-t), and q^m is a nonzero scalar, so
    one rank-6 element decides every m: P (1-Pt)^2 (1-t) = 0.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    one, p, t = ring_one(Y_RING), gen_p(Y_RING), gen_t(Y_RING)
    return (p * (one - p * t) ** 2 * (one - t)).is_zero


def _poly_mul(a, b) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_combination(*terms) -> tuple:
    """The trimmed sum of c * p over the (c, p) pairs."""
    out = [Fraction(0)] * max(len(p) for _, p in terms)
    for c, p in terms:
        for i, x in enumerate(p):
            out[i] += c * x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def x_element_matches(divisor, structure, expected) -> bool:
    """(1+(1-P)) * divisor + (1-P) * structure == expected, in the rank-2 ring.

    This is the fixed dictionary between abstract divisor/structure
    symbols and rank-2 ring classes.  The two classes come from ring
    arithmetic on the generators, and each coordinate u a + v b = n / d,
    with a and b the rational functions divisor and structure, is checked
    by cross-multiplying: (u a.num b.den + v b.num a.den) d = n a.den b.den.
    It shares no code with :func:`j_x_coefficient`, so the two agreeing
    on a(r, q^r) and b(r, q^r) is an independent check.
    """
    one, p = ring_one(X_RING), gen_p(X_RING)
    a, b = divisor, structure
    for u, v, f in zip((one + (one - p)).coords, (one - p).coords, expected.coords):
        lhs = _poly_combination((u, _poly_mul(a.num, b.den)), (v, _poly_mul(b.num, a.den)))
        # products of trimmed polynomials are trimmed, so lists compare as polynomials
        if _poly_mul(lhs, f.den) != _poly_mul(f.num, _poly_mul(a.den, b.den)):
            return False
    return True


def jmgs_document(rhs) -> dict:
    """The jmgs document of a right-hand side, read from its terms' exact parts and series."""

    def rational(f):
        return {
            "type": "q_rational",
            "numerator": [str(c) for c in f.num],
            "denominator": [str(c) for c in f.den],
        }

    def expansion(s):
        return {
            "type": "q_series",
            "trunc_order": s.trunc_order,
            "coefficients": [str(s.coefficient(n)) for n in range(s.trunc_order)],
        }

    terms = [
        {
            "total_degree": list(deg),
            "divisor": [rational(f) for f in term.divisor_exact],
            "divisor_expansion": [expansion(s) for s in term.divisor_expansion],
            "structure": rational(term.structure_exact),
            "structure_expansion": expansion(term.structure_expansion),
        }
        for deg, term in rhs.terms.items()
    ]
    return {
        "constant": str(rhs.constant),
        "lattice_rank": rhs.lattice_rank,
        "r_max": rhs.r_max,
        "q_order": rhs.q_order,
        "terms": terms,
    }


def main() -> int:
    t0 = time.perf_counter()

    print("quintic transform:")
    gw = quintic_gw_table()
    gv = gw_to_gv(gw)
    expected = {1: 2875, 2: 609250, 3: 317206375, 4: 242467530000}
    got = {d[0]: v for (_, d), v in gv.entries.items()}
    check("instanton numbers 2875, 609250, ...", got == expected)
    check("forward map inverts exactly", gv_to_gw(gv) == gw)
    check("output is integral", check_integrality(gv).is_integral)

    print("rigid-curve covers:")
    delta = conifold_gv_table(20, 80)
    check(
        "closed forms collapse to a lone 1 at (0,1) for g<=20, d<=80",
        dict(delta.entries) == {(0, (1,)): Fraction(1)},
    )

    print("library-built tables:")
    built = [gv, gv_to_gw(gv), conifold_gw_table(20, 80)]
    check(
        "transform and closed-form outputs pass the table constructor unchanged",
        all(t == revalidated(t) for t in built),
    )
    check(
        "each reads back equal from the table document dumps writes",
        all(table_from_dict(json.loads(dumps(t))) == t for t in built),
    )

    print("quotient rings:")
    one, p, t = ring_one(Y_RING), gen_p(Y_RING), gen_t(Y_RING)
    one_x, p_x = ring_one(X_RING), gen_p(X_RING)
    check(
        "(1-P)^2 and (1-Pt)^2 (1-t) vanish in Y, (1-P)^2 in X",
        ((one - p) ** 2).is_zero
        and ((one - p * t) ** 2 * (one - t)).is_zero
        and ((one_x - p_x) ** 2).is_zero,
    )
    check(
        "(1-Pt)^4 = 0 while (1-Pt)^3 != 0",
        ((one - p * t) ** 4).is_zero and not ((one - p * t) ** 3).is_zero,
    )
    check("(1-Pt)^2 absorbs t in (1 - P q^m t) for m <= 10", absorption_check(10))

    print("series anchors:")
    s = sin_power_series(1, 0, 4)
    check(
        "inverse sine-square starts 1, 1/12, 1/240",
        (s.coefficient(-2), s.coefficient(0), s.coefficient(2))
        == (1, Fraction(1, 12), Fraction(1, 240)),
    )

    print("proper-part identity:")
    report = split_check(200)
    for res in report.results:
        check(f"degree r = {res.r}", res.passed)

    print("delta-table cover sum:")
    one_curve = InvariantTable(KIND_GV, 1, 0, (1,), {(0, (1,)): Fraction(1)})
    rhs = jmgs_rhs(one_curve, DivisorPairing(((1,),)), 6, 6)
    terms = rhs.terms
    ok = all(
        x_element_matches(
            terms[(r,)].divisor_exact[0], terms[(r,)].structure_exact, j_x_coefficient(r)
        )
        for r in range(1, 7)
    )
    check("matches the rank-2 J-coefficients for r <= 6", ok)
    check(
        "its JSON document, written from integers, reads back as its terms",
        json.loads(dumps(rhs)) == jmgs_document(rhs),
    )

    print("stored values:")
    values = [gv, rhs, j_x_coefficient(6), report.results[-1]]
    check(
        "a table, a right-hand side, a ring element and a split result unpickle equal",
        all(pickle.loads(pickle.dumps(v)) == v for v in values),
    )

    dt = time.perf_counter() - t0
    print(f"\n{'all checks passed' if not FAILURES else 'FAILURES: ' + str(FAILURES)} "
          f"({dt:.2f}s)")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
