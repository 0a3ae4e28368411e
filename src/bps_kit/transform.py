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

Every lambda-series here is an integer power of a unit power series, and
one routine, ``_series_power``, computes them all: with
(2 sin(lam/2))^2 = x v(x) at x = lam^2 and lam^2 = s u(s), the sine powers
are the rows B[g][h] = [x^(h-g)] v^(g-1) (scaled by k for
``sin_power_series``), and B^-1[h][g] = [s^(g-h)] u^(h-1).

All arithmetic is exact, on genus layers: the cells of one genus as
integer numerators over one denominator.  A table stores its cells as
these layers, so both maps read their input layers and return their
output layers as a table.  A layer built from values is over the lcm of
their denominators; a cover sum multiplies that by the lcm of k^(3-2h)
over the k that occur (h <= 1 only), and a genus mix takes the lcm of
its terms' denominators.  ``_lowest`` then puts each in lowest terms, so
equal tables hold equal layers, and an integral layer is over 1.  A cell
becomes a reduced Fraction only on a read.  Degree vectors live in the
nonnegative orthant of a rank-r lattice; k | beta means every component
divisible by k.
"""

from __future__ import annotations

import itertools
import math
import operator
import types
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .series import LAMBDA, LaurentSeries, _as_fraction

__all__ = [
    "KIND_GW", "KIND_GV", "InvariantTable", "IntegralityReport", "TableKindError",
    "TableBoundError", "sin_power_series", "gw_to_gv", "gv_to_gw", "mobius",
    "check_integrality", "degree_vectors",
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


# A genus layer is (den, {beta: num}): the nonzero cells of one genus, num / den
# each, in lowest terms (gcd(den, *nums) == 1, and an empty layer is (1, {})).
_Layer = tuple[int, dict[tuple[int, ...], int]]


def _lowest(den: int, cells: dict[tuple[int, ...], int]) -> _Layer:
    """The layer of the nonzero cells beta -> num / den, den > 0, divided by its content."""
    g = math.gcd(den, *cells.values())  # den itself when there are no cells
    return (den, cells) if g == 1 else (den // g, {beta: n // g for beta, n in cells.items()})


def _layer(cells: dict[tuple[int, ...], tuple[int, int]]) -> _Layer:
    """The layer of cells beta -> (num, den), den > 0, zeros dropped, in lowest terms."""
    den = math.lcm(*{d for _, d in cells.values()})
    return _lowest(den, {beta: n * (den // d) for beta, (n, d) in cells.items() if n})


def _checked_layers(rank, genus_max, degree_max, cells) -> tuple[_Layer, ...]:
    """The genus layers, in lowest terms, of cells {(g, beta): (num, den)}, den > 0, in bounds.

    Every table from outside the library passes here: the constructor
    and serialize.table_from_dict.  TableBoundError names the first
    fault: degree_max against the rank, then each cell in order, by
    :func:`_check_cell`.  A table repeats a degree vector in up to
    genus_max + 1 cells, and each distinct one is checked once.
    """
    if len(degree_max) != rank or any(d < 0 for d in degree_max):
        raise TableBoundError(f"degree_max {degree_max} incompatible with rank {rank}")
    genera: list[dict] = [{} for _ in range(genus_max + 1)]
    in_bounds: set[tuple[int, ...]] = set()
    for (g, deg), value in cells.items():
        _check_cell(rank, genus_max, degree_max, g, deg, in_bounds)
        genera[g][deg] = value
    return tuple([_layer(c) for c in genera])


def _check_cell(rank, genus_max, degree_max, g, deg, in_bounds: set) -> None:
    # TableBoundError on the cell's genus, then on its degree vector; a vector
    # in in_bounds is known to be good, and one that passes joins it
    if g < 0 or g > genus_max:
        raise TableBoundError(f"entry genus {g} outside [0, {genus_max}]")
    if deg not in in_bounds:
        if len(deg) != rank:
            raise TableBoundError(f"degree {deg} has wrong rank")
        if not any(deg):
            raise TableBoundError("degree vector must be nonzero")
        if any(d < 0 or d > m for d, m in zip(deg, degree_max)):
            raise TableBoundError(f"degree {deg} outside bounds {degree_max}")
        in_bounds.add(deg)


@dataclass(frozen=True, init=False, repr=False)
class InvariantTable:
    """Invariants indexed by (genus, degree vector), with declared bounds.

    Missing entries are exact zeros.  Entries must satisfy g <= genus_max,
    beta <= degree_max componentwise and beta != 0, and values are ints
    or Fractions (TypeError on text).  The constructor normalises keys
    and values and rejects two keys that name one cell; ``_checked_layers``
    checks the bounds, as for a table file.  The cells are stored as
    one integer genus layer per genus, in lowest terms, so two tables
    are equal when their fields, that is their kinds, bounds and values,
    are.  ``entries`` is a read-only mapping of the nonzero cells as
    Fractions, built on each read.
    """

    kind: str
    lattice_rank: int
    genus_max: int
    degree_max: tuple[int, ...]
    _layers: tuple[_Layer, ...]

    def __init__(
        self, kind, lattice_rank, genus_max, degree_max, entries=types.MappingProxyType({})
    ):
        if kind not in (KIND_GW, KIND_GV):
            raise TableKindError(f"unknown table kind {kind!r}")
        try:
            rank = operator.index(lattice_rank)
            gmax = operator.index(genus_max)
            dmax = tuple(map(operator.index, degree_max))
        except TypeError as exc:
            raise TableBoundError(
                f"bounds (rank {lattice_rank!r}, genus {genus_max!r}, "
                f"degree {degree_max!r}) must be integers"
            ) from exc
        if rank < 1:
            raise TableBoundError("lattice rank must be positive")
        if gmax < 0:
            raise TableBoundError("genus bound must be nonnegative")
        cells: dict[tuple[int, tuple[int, ...]], tuple[int, int]] = {}
        for (g, deg), value in entries.items():
            try:
                key = operator.index(g), tuple([operator.index(d) for d in deg])
            except TypeError as exc:
                raise TableBoundError(
                    f"entry ({g!r}, {deg!r}) has a non-integer genus or degree"
                ) from exc
            v = _as_fraction(value)
            if key in cells:
                raise TableBoundError(f"two entries for the cell (genus {key[0]}, degree {key[1]})")
            cells[key] = v.numerator, v.denominator
        self._init(kind, rank, gmax, dmax, _checked_layers(rank, gmax, dmax, cells))

    def _init(self, kind, rank, genus_max, degree_max, layers):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lattice_rank", rank)
        object.__setattr__(self, "genus_max", genus_max)
        object.__setattr__(self, "degree_max", degree_max)
        object.__setattr__(self, "_layers", layers)

    @classmethod
    def _of_layers(cls, kind, rank, genus_max, degree_max, layers) -> "InvariantTable":
        # trusted construction: the bounds are those of a validated table (or
        # checked ints), and the layers, one per genus in lowest terms, hold
        # only nonzero numerators keyed by in-bounds int vectors: no check runs
        out = object.__new__(cls)
        out._init(kind, rank, genus_max, degree_max, tuple(layers))
        return out

    @property
    def entries(self) -> Mapping[tuple[int, tuple[int, ...]], Fraction]:
        # read-only, so a validated table cannot gain an out-of-bounds cell
        return types.MappingProxyType({
            (g, beta): Fraction(n, den) if den != 1 else Fraction(n)
            for g, (den, cells) in enumerate(self._layers)
            for beta, n in cells.items()
        })

    __hash__ = None

    def __repr__(self):
        return (
            f"InvariantTable({self.kind!r}, {self.lattice_rank}, {self.genus_max}, "
            f"{self.degree_max}, {dict(self.sorted_items())})"
        )

    def value(self, genus: int, degree: tuple[int, ...]) -> Fraction:
        try:
            genus = operator.index(genus)
            degree = tuple([operator.index(d) for d in degree])
        except TypeError as exc:
            raise TableBoundError(
                f"cell ({genus!r}, {degree!r}) has a non-integer genus or degree"
            ) from exc
        _check_cell(self.lattice_rank, self.genus_max, self.degree_max, genus, degree, set())
        den, cells = self._layers[genus]
        return Fraction(cells.get(degree, 0), den)

    def sorted_items(self):
        # keys are unique, so the values are never compared
        return sorted(self.entries.items())


@dataclass(frozen=True)
class IntegralityReport:
    is_integral: bool
    violations: tuple[tuple[int, tuple[int, ...], Fraction], ...]


def _series_power(term, alpha: int, n: int) -> list[Fraction]:
    """[x^m] w^alpha for 0 <= m < n, where w = sum_j term(j) x^j has term(0) == 1.

    term(j) is an int or a Fraction.  J. C. P. Miller's recurrence
    m p_m = sum_{k=1..m} ((alpha+1)k - m) w_k p_{m-k} (Knuth, TAOCP vol. 2,
    4.7) runs on integers: w_k = a_k / top^k over the lcm top of the
    denominators, and p_m = P_m / (top^m m!), so that
    P_m = sum_k ((alpha+1)k - m) a_k P_{m-k} (m-1)!/(m-k)!.  Each entry is
    reduced once.
    """
    w = [term(j) for j in range(1, n)]
    top = math.lcm(*[c.denominator for c in w])
    a = [0, *[c.numerator * (top // c.denominator) * top ** (k - 1) for k, c in enumerate(w, 1)]]
    big = [1] if n else []
    for m in range(1, n):
        s, falling = 0, 1  # falling = (m-1)!/(m-k)!
        for k in range(1, m + 1):
            s += ((alpha + 1) * k - m) * a[k] * big[m - k] * falling
            falling *= m - k
        big.append(s)
    return [Fraction(p, top**m * math.factorial(m)) for m, p in enumerate(big)]


def _v_term(j: int) -> Fraction:
    # (2 sin(lam/2))^2 = 2 - 2 cos(lam) = x v(x) at x = lam^2
    return Fraction(2 * (-1) ** j, math.factorial(2 * j + 2))


def _u_term(j: int) -> Fraction:
    # the arcsine-square series lam^2 = s u(s) at s = (2 sin(lam/2))^2
    return Fraction(2, (j + 1) ** 2 * math.comb(2 * j + 2, j + 1))


def sin_power_series(k: int, genus: int, order: int) -> LaurentSeries:
    """Expansion of (2 sin(k*lam/2))**(2g-2) at lam = 0, exact.

    With (2 sin(lam/2))^2 = x v(x) at x = lam^2, the series is
    (k lam)^(2g-2) v(k^2 lam^2)^(g-1), so [lam^(2g-2+2m)] = k^(2g-2+2m) [x^m] v^(g-1);
    B[g][h] = [x^(h-g)] v^(g-1) is the k = 1 case.  Only even exponents
    appear; the lowest term is k^(2g-2) lam^(2g-2), and a series truncated
    at or below it is zero.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if order <= -2:
        raise ValueError("order must exceed -2")
    lead = 2 * genus - 2
    coeffs: list = [0] * max(order - lead, 0)
    scale = Fraction(k) ** lead
    for m, p in enumerate(_series_power(_v_term, genus - 1, max((order - lead + 1) // 2, 0))):
        coeffs[2 * m] = p * scale
        scale *= k * k
    return LaurentSeries(LAMBDA, lead, coeffs, order)


@lru_cache(maxsize=None)
def _lambda_coefficients(genus_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """B[g][h] = [lam^(2h-2)] (2 sin(lam/2))**(2g-2) for g, h <= genus_max."""
    rows = [sin_power_series(1, g, 2 * genus_max - 1) for g in range(genus_max + 1)]
    return tuple(
        tuple(series.coefficient(2 * h - 2) for h in range(genus_max + 1)) for series in rows
    )


@lru_cache(maxsize=None)
def _inverse_lambda_coefficients(genus_max: int) -> tuple[tuple[Fraction, ...], ...]:
    """B^-1[h][g] = [s^(g-1)] (lam^2)^(h-1) for g, h <= genus_max, s = (2 sin(lam/2))^2.

    By the arcsine-square series lam^2 = 2 sum_{n>=1} s^n / (n^2 C(2n, n)) = s u(s),
    so B^-1[h][g] = [s^(g-h)] u^(h-1): row h is u^(h-1) shifted right by h.
    """
    n = genus_max + 1
    return tuple(
        tuple([Fraction(0)] * h + _series_power(_u_term, h - 1, n - h)) for h in range(n)
    )


def _genus_mix(layers: list[_Layer], matrix) -> list[_Layer]:
    """Layer j of the result is sum_i matrix[i][j] layers[i], over one lcm, in lowest terms."""
    out = []
    for j in range(len(layers)):
        terms = [(r[j], den, cells) for r, (den, cells) in zip(matrix, layers) if r[j] and cells]
        common = math.lcm(*[c.denominator * den for c, den, _ in terms])
        acc: dict[tuple[int, ...], int] = {}
        for c, den, cells in terms:
            f = c.numerator * (common // (c.denominator * den))
            for beta, n in cells.items():
                acc[beta] = acc.get(beta, 0) + f * n
        out.append(_lowest(common, {b: n for b, n in acc.items() if n}))
    return out


def _cover_sum(layers: list[_Layer], degree_max, weight) -> list[_Layer]:
    """Layer h of the result is sum_{k | gamma} weight(k) k^(2h-3) layers[h](gamma/k) at gamma.

    The multiples k beta inside the bounds are listed once per beta and
    shared by every genus.  weight is called once for each k up to the
    largest multiple any cell has, not up to the declared degree box.
    Each layer is summed over den lcm(k^(3-2h)) and put in lowest terms.
    """
    betas = set().union(*[cells for _, cells in layers])
    k_maxes = {beta: min(m // d for d, m in zip(beta, degree_max) if d) for beta in betas}
    weights = [0, *map(weight, range(1, max(k_maxes.values(), default=0) + 1))]
    rays = {
        beta: [(k, tuple([k * d for d in beta])) for k in range(1, k_max + 1) if weights[k]]
        for beta, k_max in k_maxes.items()
    }
    out = []
    for h, (den, cells) in enumerate(layers):
        e = 2 * h - 3
        top = max([rays[b][-1][0] for b in cells], default=0)
        ks = [k for k in range(1, top + 1) if weights[k]]
        scale = math.lcm(*[k**-e for k in ks]) if e < 0 else 1
        factors = [0] * (top + 1)
        for k in ks:
            factors[k] = weights[k] * (k**e if e >= 0 else scale // k**-e)
        acc: dict[tuple[int, ...], int] = {}
        for beta, n in cells.items():
            for k, gamma in rays[beta]:
                acc[gamma] = acc.get(gamma, 0) + factors[k] * n
        out.append(_lowest(den * scale, {g: n for g, n in acc.items() if n}))
    return out


def _like(table: InvariantTable, kind: str, layers: list[_Layer]) -> InvariantTable:
    """The table of the given kind and layers, with the bounds of table."""
    return InvariantTable._of_layers(
        kind, table.lattice_rank, table.genus_max, table.degree_max, layers
    )


def gv_to_gw(table: InvariantTable) -> InvariantTable:
    """Forward evaluation of the multiple-cover resummation, within bounds.

    X(h, beta) = sum_g B[g][h] GV(g, beta) mixes the genus layers, then
    GW(h, gamma) = sum_{k | gamma} k^(2h-3) X(h, gamma/k) sums the covers
    of each layer; for h <= 1 that multiplies the layer's denominator by
    the lcm of k^(3-2h).
    """
    if table.kind != KIND_GV:
        raise TableKindError(f"expected a {KIND_GV} table, got {table.kind}")
    mixed = _genus_mix(table._layers, _lambda_coefficients(table.genus_max))
    return _like(table, KIND_GW, _cover_sum(mixed, table.degree_max, lambda k: 1))


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
    unmixed = _cover_sum(table._layers, table.degree_max, mobius)
    inverse = _inverse_lambda_coefficients(table.genus_max)
    return _like(table, KIND_GV, _genus_mix(unmixed, inverse))


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


def check_integrality(table: InvariantTable) -> IntegralityReport:
    """List every entry whose value is not an integer, by genus and then degree."""
    if table.kind != KIND_GV:
        raise TableKindError(f"expected a {KIND_GV} table, got {table.kind}")
    violations = []
    for g, (den, cells) in enumerate(table._layers):
        if den != 1:
            off = sorted([(beta, n) for beta, n in cells.items() if n % den])
            violations += [(g, beta, Fraction(n, den)) for beta, n in off]
    return IntegralityReport(is_integral=not violations, violations=tuple(violations))
