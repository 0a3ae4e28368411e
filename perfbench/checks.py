"""Per-op output checks that do not trust bps-kit's own verdicts.

Each check reads the documents one op wrote and compares them with
values computed here from the op's generated input, in plain
``fractions.Fraction`` arithmetic.  A check returns None for a correct
op and a one-line reason otherwise; the caller counts any reason as a
failed op.  This module never imports bps_kit.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import workloads as wl


class CallRecord:
    """What one CLI call left behind: its exit code, stdout and output file."""

    __slots__ = ("argv", "code", "stdout", "output")

    def __init__(self, argv, code, stdout: str, output: bytes | None):
        self.argv = argv
        self.code = code
        self.stdout = stdout
        self.output = output


def _horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def evaluate_qrf(doc, x: Fraction) -> Fraction:
    """Value at x of a serialized rational function, by Horner's rule."""
    if doc.get("type") != "q_rational":
        raise ValueError("not a q_rational document")
    den = _horner(doc["denominator"], x)
    if den == 0:
        raise ValueError(f"denominator vanishes at {x}")
    return _horner(doc["numerator"], x) / den


def a_closed(r: int, x: Fraction) -> Fraction:
    """a(r, x) = (r-1)/(1-x) + 1/(1-x)^2."""
    u = 1 - x
    return (r - 1) / u + 1 / u**2


def b_closed(r: int, x: Fraction) -> Fraction:
    """b(r, x) = (r^2-1)/(1-x) + 3/(1-x)^2 - 2/(1-x)^3."""
    u = 1 - x
    return (r * r - 1) / u + 3 / u**2 - 2 / u**3


def a_taylor(r: int, n: int) -> int:
    """[x^n] a(r, x)."""
    return (r - 1) + (n + 1)


def b_taylor(r: int, n: int) -> int:
    """[x^n] b(r, x); [x^n] 1/(1-x)^3 is (n+1)(n+2)/2."""
    return (r * r - 1) + 3 * (n + 1) - (n + 1) * (n + 2)


def sample_point(seed: int) -> Fraction:
    """A seeded rational q0 with 0 < |q0| < 1, so no q0^r is a pole."""
    rng = random.Random(f"{seed}:q0")
    return Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(11, 31))


def _load(record: CallRecord):
    if record.output is None:
        raise ValueError(f"{record.argv[0]} wrote no output file")
    return json.loads(record.output)


def _cells(doc) -> dict:
    return {
        (e["genus"], tuple(e["degree"])): Fraction(e["value"]) for e in doc["entries"]
    }


class Checker:
    """Checks every op of one run of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in wl.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.q0 = sample_point(seed)
        self._split_reference: bytes | None = None

    def check(self, index: int, calls: list[CallRecord]) -> str | None:
        """None if the op's outputs are right, else the first problem found."""
        for record in calls:
            if record.code != 0:
                return f"{record.argv[0]} exited with {record.code!r}"
        try:
            return getattr(self, "_check_" + self.workload)(index, calls)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_split(self, index, calls):
        (record,) = calls
        if self._split_reference is not None:
            if record.output != self._split_reference:
                return "output differs from the first op's"
            return None
        results = _load(record)
        if [res["r"] for res in results] != list(range(1, wl.SPLIT_RMAX + 1)):
            return "r range differs from 1..rmax"
        for res in results:
            if res["passed"] is not True or len(res["residuals"]) != 6:
                return f"r={res['r']}: not verified on all 6 coordinates"
            for residual in res["residuals"]:
                if residual != {"type": "q_rational", "numerator": [], "denominator": ["1"]}:
                    return f"r={res['r']}: nonzero residual {residual}"
        self._split_reference = record.output
        return None

    def _check_jmgs(self, index, calls):
        (record,) = calls
        doc = _load(record)
        rmax, qorder = wl.JMGS_RMAX, wl.JMGS_QORDER
        if (doc["constant"], doc["lattice_rank"], doc["r_max"], doc["q_order"]) != (
            "1", 2, rmax, qorder,
        ):
            return "header fields differ"
        x = self.q0
        n_div = len(wl.JMGS_PAIRING)
        # expected[D] = (divisor values, structure value, divisor series, structure series)
        expected: dict = {}
        for (_, d), gv in wl.gv_table(self.seed, "jmgs", index).items():
            weights = [sum(v * c for v, c in zip(vec, d)) for vec in wl.JMGS_PAIRING]
            for r in range(1, rmax + 1):
                total = tuple(r * c for c in d)
                slot = expected.setdefault(
                    total,
                    ([Fraction(0)] * n_div, [Fraction(0)], [[0] * qorder for _ in range(n_div)], [0] * qorder),
                )
                a_val, b_val = a_closed(r, x**r), b_closed(r, x**r)
                for j, w in enumerate(weights):
                    slot[0][j] += gv * w * a_val
                slot[1][0] += gv * b_val
                for m in range(0, qorder, r):
                    for j, w in enumerate(weights):
                        slot[2][j][m] += gv * w * a_taylor(r, m // r)
                    slot[3][m] += gv * b_taylor(r, m // r)
        got_degrees = [tuple(t["total_degree"]) for t in doc["terms"]]
        if sorted(got_degrees) != sorted(expected) or len(got_degrees) != len(expected):
            return "set of total degrees differs"
        for term in doc["terms"]:
            total = tuple(term["total_degree"])
            div_vals, (struct_val,), div_series, struct_series = expected[total]
            if len(term["divisor"]) != n_div or len(term["divisor_expansion"]) != n_div:
                return f"degree {total}: wrong number of divisor directions"
            for j in range(n_div):
                if evaluate_qrf(term["divisor"][j], x) != div_vals[j]:
                    return f"degree {total}: divisor[{j}] differs at q0={x}"
                if _series(term["divisor_expansion"][j], qorder) != div_series[j]:
                    return f"degree {total}: divisor_expansion[{j}] differs"
            if evaluate_qrf(term["structure"], x) != struct_val:
                return f"degree {total}: structure differs at q0={x}"
            if _series(term["structure_expansion"], qorder) != struct_series:
                return f"degree {total}: structure_expansion differs"
        return None

    def _check_tables(self, index, calls):
        forward, back, conifold = calls
        gv_in = wl.gv_table(self.seed, "tables", index)
        gw_doc = _load(forward)
        if (gw_doc["kind"], gw_doc["genus_max"], gw_doc["degree_max"]) != (
            "GW", wl.TABLES_GENUS_MAX, list(wl.TABLES_DEGREE_MAX),
        ):
            return "gv2gw header differs"
        gw = _cells(gw_doc)
        # genus 0 and 1 of the cover formula, independently of the solver:
        # GW_0(D) = sum_{k|D} GV_0(D/k) / k^3,
        # GW_1(D) = sum_{k|D} (GV_0(D/k)/12 + GV_1(D/k)) / k.
        for d in wl.degree_vectors(wl.TABLES_DEGREE_MAX):
            g0 = g1 = Fraction(0)
            for k in range(1, math.gcd(*d) + 1):
                if d[0] % k or d[1] % k:
                    continue
                base = (d[0] // k, d[1] // k)
                g0 += Fraction(gv_in[(0, base)], k**3)
                g1 += (Fraction(gv_in[(0, base)], 12) + gv_in[(1, base)]) / k
            if gw.get((0, d), 0) != g0 or gw.get((1, d), 0) != g1:
                return f"gv2gw: genus 0/1 cell at degree {d} differs from the cover formula"
        gv_back = _cells(_load(back))
        if gv_back != {key: Fraction(v) for key, v in gv_in.items()}:
            return "gw2gv does not return the generating GV table"
        if any(v.denominator != 1 for v in gv_back.values()):
            return "gw2gv result is not integral"
        if json.loads(back.stdout) != {"is_integral": True, "violations": []}:
            return "integrality report is not a clean pass"
        doc = _load(conifold)
        if doc["is_delta"] is not True or doc["gv"]["entries"] != [
            {"genus": 0, "degree": [1], "value": "1"}
        ]:
            return "conifold transform is not the lone 1 at (0, 1)"
        cgw = _cells(doc["gw"])
        for d in range(1, wl.CONIFOLD_DMAX + 1):
            if cgw.get((0, (d,))) != Fraction(1, d**3) or cgw.get((1, (d,))) != Fraction(1, 12 * d):
                return f"conifold GW closed form differs at degree {d}"
        return None


def _series(doc, order: int) -> list:
    if doc.get("type") != "q_series" or doc["trunc_order"] != order:
        raise ValueError("not a q_series document of the expected order")
    return [Fraction(c) for c in doc["coefficients"]]
