"""The genus-filtered transform between Gromov-Witten and Gopakumar-Vafa tables.

A table holds rational invariants indexed by (genus, degree vector); the
forward map evaluates the classical resummation over multiple covers

    sum_{g,beta} GW q^beta lam^(2g-2)
        = sum_{g,k,beta} GV (1/k) (2 sin(k lam / 2))^(2g-2) q^(k beta).

Both directions use its closed form.  With the unit upper-triangular
B[g][h] = [lam^(2h-2)] (2 sin(lam/2))^(2g-2), the cover coefficient is
k^(2h-3) B[g][h], and the inverse is Mobius inversion along each
primitive ray followed by B^-1:

    GW(h, gamma) = sum_{k | gamma} k^(2h-3) X(h, gamma/k),   X(h, beta) = sum_g B[g][h] GV(g, beta),
    GV(g, beta) = sum_{h <= g} B^-1[h][g] sum_{k | beta} mu(k) k^(2h-3) GW(h, beta/k),

where B^-1[h][g] = [s^(g-1)] (lam^2)^(h-1) for s = (2 sin(lam/2))^2, read off
the arcsine-square series lam^2 = 2 sum_{n>=1} s^n / (n^2 C(2n, n)).  Both
maps are exact within the bounds: every divisor of a degree vector in the
box is in the box, and B^-1 is upper triangular.  On genus-zero rank-1
tables the inverse is GV_d = sum_{e|d} mu(e)/e^3 GW_{d/e}.

All arithmetic is exact, on genus layers: the cells of one genus as
integer numerators over one denominator.  A layer read from a table is
over the lcm of its denominators; a cover sum multiplies that by the lcm
of k^(3-2h) over the k that occur (h <= 1 only), and a genus mix takes
the lcm of its terms' denominators.  Each output cell is one Fraction,
reduced once.  Degree vectors live in the nonnegative orthant of a
rank-r lattice; k | beta means every component divisible by k.
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
    "KIND_GW", "KIND_GV", "InvariantTable", "IntegralityReport", "TableKindError",
    "TableBoundError", "sin_power_series", "gw_to_gv", "gv_to_gw", "mobius",
    "gw_to_gv_genus0_mobius", "check_integrality", "degree_vectors", "genus_zero_slice",
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


# The bound messages, shared by the constructor and serialize.table_from_dict.


def _degree_max_error(rank: int, degree_max: tuple[int, ...]) -> str | None:
    if len(degree_max) != rank or any(d < 0 for d in degree_max):
        return f"degree_max {degree_max} incompatible with rank {rank}"
    return None


def _cell_error(genus_max, degree_max, g, deg, in_bounds: set) -> str | None:
    """Why the cell (g, deg) is outside the bounds, or None.

    A degree vector that passes joins in_bounds; a table repeats each one
    in up to genus_max + 1 cells, and it is not checked again.
    """
    if g < 0 or g > genus_max:
        return f"entry genus {g} outside [0, {genus_max}]"
    if deg not in in_bounds:
        if len(deg) != len(degree_max):
            return f"degree {deg} has wrong rank"
        if not any(deg):
            return "degree vector must be nonzero"
        if any(d < 0 or d > m for d, m in zip(deg, degree_max)):
            return f"degree {deg} outside bounds {degree_max}"
        in_bounds.add(deg)
    return None


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
        message = _degree_max_error(rank, dmax)
        if message:
            raise TableBoundError(message)
        clean: dict[tuple[int, tuple[int, ...]], Fraction] = {}
        zeros: set[tuple[int, tuple[int, ...]]] = set()
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
            message = _cell_error(genus_max, dmax, g, deg, in_bounds)
            if message:
                raise TableBoundError(message)
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
        if any(d < 0 or d > m for d, m in zip(degree, self.degree_max)):
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
    odd = range(1, slack, 2)
    terms = {j: Fraction(2 * (-1) ** (j // 2) * k**j, 2**j * math.factorial(j)) for j in odd}
    sine = LaurentSeries.from_terms(LAMBDA, terms, slack)
    square = sine * sine
    if genus == 0:
        return square.inverse(order)
    return (square ** (genus - 1)).truncate(order)


@lru_cache(maxsize=None)
def _lambda_coefficients(genus_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """B[g][h] = [lam^(2h-2)] (2 sin(lam/2))**(2g-2) for g, h <= genus_max."""
    order = 2 * genus_max - 1
    powers = [sin_power_series(1, g, order) for g in range(min(genus_max, 2) + 1)]
    # (2 sin)^(2g-2) = (2 sin)^(2g-4) (2 sin)^2: one series product per genus
    for _ in range(3, genus_max + 1):
        powers.append((powers[-1] * powers[2]).truncate(order))
    return tuple(
        tuple(series.coefficient(2 * h - 2) for h in range(genus_max + 1))
        for series in powers
    )


@lru_cache(maxsize=None)
def _inverse_lambda_coefficients(genus_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """B^-1[h][g] = [s^(g-1)] (lam^2)^(h-1) for g, h <= genus_max, s = (2 sin(lam/2))^2.

    By the arcsine-square series lam^2 = 2 sum_{n>=1} s^n / (n^2 C(2n, n)) = s u(s),
    so B^-1[h][g] = [s^(g-h)] u^(h-1): row 0 holds 1/u, each later row u times the last.
    """
    n = genus_max + 1
    u = [Fraction(2, (j + 1) ** 2 * math.comb(2 * j + 2, j + 1)) for j in range(n)]
    power = [Fraction(1)]  # 1/u, as u[0] = 1
    for j in range(1, n):
        power.append(-sum([u[i] * power[j - i] for i in range(1, j + 1)]))
    rows = []
    for h in range(n):
        rows.append(tuple([power[g - h] if g >= h else Fraction(0) for g in range(n)]))
        # row h + 1 reads u^h only below s^(n - h - 1)
        power = [sum([power[m] * u[j - m] for m in range(j + 1)]) for j in range(n - h - 1)]
    return tuple(rows)


# A genus layer is (den, {beta: num}): the nonzero cells of one genus, num / den each.
_Layer = tuple[int, dict[tuple[int, ...], int]]


def _genus_layers(table: InvariantTable) -> list[_Layer]:
    """The table's genus layers, each over the lcm of its denominators."""
    cells: list[dict] = [{} for _ in range(table.genus_max + 1)]
    for (g, beta), v in table.entries.items():
        cells[g][beta] = v
    layers = []
    for layer in cells:
        den = math.lcm(*[v.denominator for v in layer.values()])
        layers.append((den, {b: v.numerator * (den // v.denominator) for b, v in layer.items()}))
    return layers


def _genus_mix(layers: list[_Layer], matrix) -> list[_Layer]:
    """Layer j of the result is sum_i matrix[i][j] layers[i], over one lcm."""
    out = []
    for j in range(len(layers)):
        terms = [(row[j], den, cells) for row, (den, cells) in zip(matrix, layers)]
        terms = [(c, den, cells) for c, den, cells in terms if c and cells]
        common = math.lcm(*[c.denominator * den for c, den, _ in terms])
        acc: dict[tuple[int, ...], int] = {}
        for c, den, cells in terms:
            f = c.numerator * (common // (c.denominator * den))
            for beta, n in cells.items():
                acc[beta] = acc.get(beta, 0) + f * n
        out.append((common, {b: n for b, n in acc.items() if n}))
    return out


def _cover_sum(layers: list[_Layer], degree_max, weights: list[int]) -> list[_Layer]:
    """Layer h of the result is sum_{k | gamma} weights[k] k^(2h-3) layers[h](gamma/k) at gamma.

    The multiples k beta inside the bounds are listed once per beta and
    shared by every genus.
    """
    rays = {}
    for _, cells in layers:
        for beta in cells.keys() - rays.keys():
            k_max = min(m // d for d, m in zip(beta, degree_max) if d)
            multiples = range(1, k_max + 1)
            rays[beta] = [(k, tuple([k * d for d in beta])) for k in multiples if weights[k]]
    out = []
    for h, (den, cells) in enumerate(layers):
        e = 2 * h - 3
        top = max([rays[b][-1][0] for b in cells], default=1)
        ks = [k for k in range(1, top + 1) if weights[k]]
        scale = math.lcm(*[k**-e for k in ks]) if e < 0 else 1
        factors = [0] * (top + 1)
        for k in ks:
            factors[k] = weights[k] * (k**e if e >= 0 else scale // k**-e)
        acc: dict[tuple[int, ...], int] = {}
        for beta, n in cells.items():
            for k, gamma in rays[beta]:
                acc[gamma] = acc.get(gamma, 0) + factors[k] * n
        out.append((den * scale, {g: n for g, n in acc.items() if n}))
    return out


def _from_layers(kind: str, table: InvariantTable, layers: list[_Layer]) -> InvariantTable:
    entries = {}
    for g, (den, cells) in enumerate(layers):
        entries.update({(g, b): Fraction(n, den) for b, n in cells.items()})
    rank, genus_max, degree_max = table.lattice_rank, table.genus_max, table.degree_max
    return InvariantTable._from_valid(kind, rank, genus_max, degree_max, entries)


def gv_to_gw(table: InvariantTable) -> InvariantTable:
    """Forward evaluation of the multiple-cover resummation, within bounds.

    X(h, beta) = sum_g B[g][h] GV(g, beta) mixes the genus layers, then
    GW(h, gamma) = sum_{k | gamma} k^(2h-3) X(h, gamma/k) sums the covers
    of each layer; for h <= 1 that multiplies the layer's denominator by
    the lcm of k^(3-2h).
    """
    if table.kind != KIND_GV:
        raise TableKindError(f"expected a {KIND_GV} table, got {table.kind}")
    mixed = _genus_mix(_genus_layers(table), _lambda_coefficients(table.genus_max))
    ones = [1] * (max(table.degree_max) + 1)
    return _from_layers(KIND_GW, table, _cover_sum(mixed, table.degree_max, ones))


def gw_to_gv(table: InvariantTable) -> InvariantTable:
    """Invert the resummation in closed form.

    The cover sum along a ray is a Dirichlet convolution with the
    completely multiplicative k^(2h-3), so Mobius inversion undoes it:
    X(h, beta) = sum_{k | beta, squarefree} mu(k) k^(2h-3) GW(h, beta/k),
    its layer h <= 1 over the lcm of k^(3-2h) times that of the GW layer.
    Zero cells of X are dropped; then GV(g, beta) = sum_{h <= g} B^-1[h][g]
    X(h, beta), with B^-1 from the arcsine-square series.
    """
    if table.kind != KIND_GW:
        raise TableKindError(f"expected a {KIND_GW} table, got {table.kind}")
    mu = [0, *[mobius(k) for k in range(1, max(table.degree_max) + 1)]]
    unmixed = _cover_sum(_genus_layers(table), table.degree_max, mu)
    inverse = _inverse_lambda_coefficients(table.genus_max)
    return _from_layers(KIND_GV, table, _genus_mix(unmixed, inverse))


def mobius(n: int) -> int:
    """Mobius function via trial-division factorization."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def gw_to_gv_genus0_mobius(table: InvariantTable) -> InvariantTable:
    """Genus-zero rank-1 inversion, GV_d = sum_{e|d} mu(e)/e^3 GW_{d/e}.

    That is gw_to_gv where B^-1 is the 1x1 identity, so it runs gw_to_gv.
    """
    if table.kind != KIND_GW:
        raise TableKindError(f"expected a {KIND_GW} table, got {table.kind}")
    if table.lattice_rank != 1:
        raise TableBoundError("the Mobius path requires a rank-1 table")
    if table.genus_max != 0:
        raise TableBoundError("the Mobius path requires a genus-zero table")
    return gw_to_gv(table)


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
    entries = {(g, deg): v for (g, deg), v in table.entries.items() if g == 0}
    return InvariantTable._from_valid(table.kind, table.lattice_rank, 0, table.degree_max, entries)
