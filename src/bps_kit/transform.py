"""The genus-filtered transform between Gromov-Witten and Gopakumar-Vafa tables.

A table holds rational invariants indexed by (genus, degree vector); the
forward map evaluates the classical resummation over multiple covers

    sum_{g,beta} GW q^beta lam^(2g-2)
        = sum_{g,k,beta} GV (1/k) (2 sin(k lam / 2))^(2g-2) q^(k beta),

and the inverse map solves it triangularly: the diagonal coefficient is
1 because (2 sin(lam/2))^(2g-2) starts with lam^(2g-2), every other
contribution comes from a strictly smaller degree vector or a strictly
smaller genus.  On genus-zero rank-1 tables the inverse specializes to
the Mobius-inverted divisor sum GV_d = sum_{e|d} mu(e)/e^3 GW_{d/e}.

All arithmetic is exact.  Degree vectors live in the nonnegative orthant
of a rank-r lattice; k | beta means every component divisible by k.
"""

from __future__ import annotations

import itertools
import math
import operator
import types
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .series import LAMBDA, LaurentSeries, _as_fraction

__all__ = [
    "KIND_GW",
    "KIND_GV",
    "InvariantTable",
    "IntegralityReport",
    "TableKindError",
    "TableBoundError",
    "sin_power_series",
    "gw_to_gv",
    "gv_to_gw",
    "mobius",
    "gw_to_gv_genus0_mobius",
    "check_integrality",
    "degree_vectors",
    "genus_zero_slice",
]

KIND_GW = "GW"
KIND_GV = "GV"


class TableKindError(ValueError):
    """Raised when an operation receives a table of the wrong kind."""


class TableBoundError(ValueError):
    """Raised when an entry violates the declared table bounds."""


def degree_vectors(degree_max: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All nonzero vectors 0 <= v <= degree_max, ordered by (total, lex)."""
    ranges = [range(d + 1) for d in degree_max]
    vecs = [v for v in itertools.product(*ranges) if any(v)]
    vecs.sort(key=lambda v: (sum(v), v))
    return vecs


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0]
    out += [n // d for d in reversed(out) if d * d != n]
    return out


@dataclass(frozen=True)
class InvariantTable:
    """Invariants indexed by (genus, degree vector), with declared bounds.

    Missing entries are exact zeros.  Entries must satisfy g <= genus_max,
    beta <= degree_max componentwise and beta != 0.
    """

    kind: str
    lattice_rank: int
    genus_max: int
    degree_max: tuple[int, ...]
    entries: Mapping[tuple[int, tuple[int, ...]], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (KIND_GW, KIND_GV):
            raise TableKindError(f"unknown table kind {self.kind!r}")
        try:
            rank = operator.index(self.lattice_rank)
            genus_max = operator.index(self.genus_max)
            dmax = tuple(map(operator.index, self.degree_max))
        except TypeError as exc:
            raise TableBoundError(
                f"bounds (rank {self.lattice_rank!r}, genus {self.genus_max!r}, "
                f"degree {self.degree_max!r}) must be integers"
            ) from exc
        if rank < 1:
            raise TableBoundError("lattice rank must be positive")
        if genus_max < 0:
            raise TableBoundError("genus bound must be nonnegative")
        if len(dmax) != rank or any(d < 0 for d in dmax):
            raise TableBoundError(
                f"degree_max {self.degree_max} incompatible with rank {rank}"
            )
        clean: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        zeros: set[tuple[int, tuple[int, ...]]] = set()
        # normalised degree vectors that passed the rank, nonzero and bound
        # checks; a table repeats each one in up to genus_max + 1 cells
        in_bounds: set[tuple[int, ...]] = set()
        for (g, deg), value in self.entries.items():
            try:
                key = (operator.index(g), tuple([operator.index(d) for d in deg]))
            except TypeError as exc:
                raise TableBoundError(
                    f"entry ({g!r}, {deg!r}) has a non-integer genus or degree"
                ) from exc
            g, deg = key
            v = _as_fraction(value)
            if g < 0 or g > genus_max:
                raise TableBoundError(f"entry genus {g} outside [0, {genus_max}]")
            if deg not in in_bounds:
                if len(deg) != rank:
                    raise TableBoundError(f"degree {deg} has wrong rank")
                if not any(deg):
                    raise TableBoundError("degree vector must be nonzero")
                if any(d < 0 for d in deg) or any(d > m for d, m in zip(deg, dmax)):
                    raise TableBoundError(f"degree {deg} outside bounds {dmax}")
                in_bounds.add(deg)
            if key in clean or key in zeros:
                raise TableBoundError(f"two entries for the cell (genus {g}, degree {deg})")
            if v:
                clean[key] = v
            else:
                zeros.add(key)
        object.__setattr__(self, "lattice_rank", rank)
        object.__setattr__(self, "genus_max", genus_max)
        object.__setattr__(self, "degree_max", dmax)
        # read-only, so a validated table cannot gain an out-of-bounds cell
        object.__setattr__(self, "entries", types.MappingProxyType(clean))

    @classmethod
    def _from_valid(cls, kind, rank, genus_max, degree_max, entries) -> "InvariantTable":
        # trusted construction: the bounds are those of a validated table (or
        # checked ints), and entries holds only nonzero Fractions keyed by
        # in-bounds int cells, so the checks of __post_init__ are skipped
        out = object.__new__(cls)
        object.__setattr__(out, "kind", kind)
        object.__setattr__(out, "lattice_rank", rank)
        object.__setattr__(out, "genus_max", genus_max)
        object.__setattr__(out, "degree_max", degree_max)
        object.__setattr__(out, "entries", types.MappingProxyType(entries))
        return out

    def value(self, genus: int, degree: tuple[int, ...]) -> Fraction:
        try:
            genus = operator.index(genus)
            degree = tuple([operator.index(d) for d in degree])
        except TypeError as exc:
            raise TableBoundError(
                f"cell ({genus!r}, {degree!r}) has a non-integer genus or degree"
            ) from exc
        if genus < 0 or genus > self.genus_max:
            raise TableBoundError(f"genus {genus} outside table bounds")
        if len(degree) != self.lattice_rank:
            raise TableBoundError(f"degree {degree} has wrong rank")
        if any(d < 0 for d in degree) or any(
            d > m for d, m in zip(degree, self.degree_max)
        ):
            raise TableBoundError(f"degree {degree} outside table bounds")
        return self.entries.get((genus, degree), Fraction(0))

    def sorted_items(self):
        # keys are unique, so the values are never compared
        return sorted(self.entries.items())


@dataclass(frozen=True)
class IntegralityReport:
    is_integral: bool
    violations: tuple[tuple[int, tuple[int, ...], Fraction], ...]


def sin_power_series(k: int, genus: int, order: int) -> LaurentSeries:
    """Expansion of (2 sin(k*lam/2))**(2g-2) at lam = 0, exact.

    Only even exponents appear; the lowest term is k^(2g-2) lam^(2g-2).
    The genus-zero case inverts the squared sine series.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if order <= -2:
        raise ValueError("order must exceed -2")
    if genus == 1:
        return LaurentSeries.one(LAMBDA, order)
    slack = order + 8
    sine = LaurentSeries.from_terms(
        LAMBDA,
        {
            j: Fraction(2 * (-1) ** (j // 2) * k**j, 2**j * math.factorial(j))
            for j in range(1, slack, 2)
        },
        slack,
    )
    square = sine * sine
    if genus == 0:
        return square.inverse(order)
    return (square ** (genus - 1)).truncate(order)


@lru_cache(maxsize=None)
def _lambda_coefficients(genus_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """table[g][h] = [lam^(2h-2)] (2 sin(lam/2))**(2g-2) for g, h <= genus_max."""
    order = 2 * genus_max - 1
    powers = [sin_power_series(1, g, order) for g in range(min(genus_max, 2) + 1)]
    # (2 sin)^(2g-2) = (2 sin)^(2g-4) (2 sin)^2: one series product per genus
    for _ in range(3, genus_max + 1):
        powers.append((powers[-1] * powers[2]).truncate(order))
    return tuple(
        tuple(series.coefficient(2 * h - 2) for h in range(genus_max + 1))
        for series in powers
    )


class _CoverCoefficients:
    """c(k, g, h) = [lam^(2h-2)] (1/k)(2 sin(k lam/2))^(2g-2), built on first use.

    The coefficient is k^(2h-3) times the k = 1 coefficient, since every
    power of lam in the k = 1 series gets the same power of k.  It is kept
    as a reduced pair of integers.  Each (k, g) row is built once per
    transform call and lists only its nonzero entries, ascending in h; the
    rows are lazy because a call reads few of the k x g pairs up to its
    bounds (a conifold solve at d <= 80 reads only the k rows of genus 0).
    """

    def __init__(self, genus_max: int):
        self._base = [
            [(c.numerator, c.denominator) for c in row]
            for row in _lambda_coefficients(genus_max)
        ]
        self._rows: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}

    def row(self, k: int, g: int) -> tuple[tuple[int, int, int], ...]:
        """Nonzero (h, num, den) with c(k, g, h) = num / den."""
        key = (k, g)
        row = self._rows.get(key)
        if row is None:
            out = []
            for h, (num, den) in enumerate(self._base[g]):
                if num:
                    e = 2 * h - 3
                    if e >= 0:
                        num *= k**e
                    else:
                        den *= k ** -e
                    common = math.gcd(num, den)
                    out.append((h, num // common, den // common))
            row = self._rows[key] = tuple(out)
        return row


def _multiples(beta: tuple[int, ...], degree_max: tuple[int, ...]):
    """(k, k * beta) for every k >= 1 with k * beta inside the bounds."""
    k_max = min(m // d for d, m in zip(beta, degree_max) if d)
    return [(k, tuple([k * d for d in beta])) for k in range(1, k_max + 1)]


def _reduced_sum(terms: list[tuple[int, int]]) -> Fraction:
    """Sum of num / den over the terms, added over one lcm and reduced once."""
    scale = math.lcm(*[den for _, den in terms])
    return Fraction(sum([num * (scale // den) for num, den in terms]), scale)


def gv_to_gw(table: InvariantTable) -> InvariantTable:
    """Forward evaluation of the multiple-cover resummation, within bounds.

    Each nonzero input cell (g, beta) sends its terms to the cells
    (h, k beta) inside the bounds; each output cell is then reduced once.
    """
    if table.kind != KIND_GV:
        raise TableKindError(f"expected a {KIND_GV} table, got {table.kind}")
    cover = _CoverCoefficients(table.genus_max)
    terms: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
    for (g, beta), v in table.entries.items():
        num, den = v.numerator, v.denominator
        for k, gamma in _multiples(beta, table.degree_max):
            for h, c_num, c_den in cover.row(k, g):
                terms.setdefault((h, gamma), []).append((num * c_num, den * c_den))
    entries = {}
    for cell, cell_terms in terms.items():
        value = _reduced_sum(cell_terms)
        if value:
            entries[cell] = value
    return InvariantTable._from_valid(
        KIND_GW, table.lattice_rank, table.genus_max, table.degree_max, entries
    )


def gw_to_gv(table: InvariantTable) -> InvariantTable:
    """Invert the resummation by a triangular solve.

    Degree vectors are visited in increasing total degree (lex to break
    ties), genus ascending within each degree.  Each nonzero solved cell
    (g, beta) sends its terms, with opposite sign, to the cells it covers:
    (h, k beta) for k > 1 and (h > g, beta) for k = 1.  So when a cell's
    turn comes it holds its GW value and every term but the diagonal
    (k = 1, same genus, unit coefficient), and its value is their reduced
    sum.
    """
    if table.kind != KIND_GW:
        raise TableKindError(f"expected a {KIND_GW} table, got {table.kind}")
    cover = _CoverCoefficients(table.genus_max)
    pending: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {
        cell: [(v.numerator, v.denominator)] for cell, v in table.entries.items()
    }
    solved: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for beta in degree_vectors(table.degree_max):
        for g in range(table.genus_max + 1):
            cell_terms = pending.pop((g, beta), None)
            if cell_terms is None:
                continue
            value = _reduced_sum(cell_terms)
            if not value:
                continue
            solved[(g, beta)] = value
            num, den = -value.numerator, value.denominator
            for k, gamma in _multiples(beta, table.degree_max):
                for h, c_num, c_den in cover.row(k, g):
                    if k > 1 or h > g:
                        pending.setdefault((h, gamma), []).append(
                            (num * c_num, den * c_den)
                        )
    return InvariantTable._from_valid(
        KIND_GV, table.lattice_rank, table.genus_max, table.degree_max, solved
    )


def mobius(n: int) -> int:
    """Mobius function via trial-division factorization."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    if n == 1:
        return 1
    primes = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            primes += 1
        p += 1
    if n > 1:
        primes += 1
    return -1 if primes % 2 else 1


def gw_to_gv_genus0_mobius(table: InvariantTable) -> InvariantTable:
    """Genus-zero rank-1 inversion via the divisor sum with Mobius weights."""
    if table.kind != KIND_GW:
        raise TableKindError(f"expected a {KIND_GW} table, got {table.kind}")
    if table.lattice_rank != 1:
        raise TableBoundError("the Mobius path requires a rank-1 table")
    if table.genus_max != 0:
        raise TableBoundError("the Mobius path requires a genus-zero table")
    dmax = table.degree_max[0]
    entries: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    for d in range(1, dmax + 1):
        total = Fraction(0)
        for e in _divisors(d):
            mu = mobius(e)
            if mu:
                total += Fraction(mu, e**3) * table.entries.get(
                    (0, (d // e,)), Fraction(0)
                )
        if total:
            entries[(0, (d,))] = total
    return InvariantTable._from_valid(KIND_GV, 1, 0, table.degree_max, entries)


def check_integrality(table: InvariantTable) -> IntegralityReport:
    """List every entry whose value is not an integer."""
    if table.kind != KIND_GV:
        raise TableKindError(f"expected a {KIND_GV} table, got {table.kind}")
    violations = tuple(
        sorted((g, deg, v) for (g, deg), v in table.entries.items() if v.denominator != 1)
    )
    return IntegralityReport(is_integral=not violations, violations=violations)


def genus_zero_slice(table: InvariantTable) -> InvariantTable:
    """Restrict a table to its genus-zero entries (genus_max becomes 0)."""
    entries = {
        (g, deg): v for (g, deg), v in table.entries.items() if g == 0
    }
    return InvariantTable._from_valid(
        table.kind, table.lattice_rank, 0, table.degree_max, entries
    )
