"""Cover series, I/J-function coefficients, and the GV-weighted right side.

Two scalar series drive everything: the degree-r cover coefficients

    a(r, q^r) = (r-1)/(1-q^r) + 1/(1-q^r)^2,
    b(r, q^r) = (r^2-1)/(1-q^r) + 3/(1-q^r)^2 - 2/(1-q^r)^3,

both proper rational functions regular at q = 0.  The localization-style
I-coefficient at Novikov degree r lives in the rank-6 ring and has poles
at q = 0; splitting each coordinate into Laurent polynomial + proper
part must land exactly on the J-coefficient

    (1-Pt)^2 (1+(1-P)) a(r,q^r) + (1-Pt)^2 (1-P) b(r,q^r),

which is what :func:`split_check` verifies.  With the compactifying
factor (1-Pt)^2 removed the same combination lives in the rank-2 ring
(:func:`j_x_coefficient`), and :func:`jmgs_rhs` assembles the analogous
double sum for an arbitrary genus-zero invariant table, the conjectural
quantum K-theoretic side of the story.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import types
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .kring import KElem, RingSpec, X_RING, Y_RING, gen_p, gen_t, ring_one
from .series import (
    QVAR,
    LaurentSeries,
    QRationalFunction,
    _cyclotomic,
    _from_int_parts,
    _from_poles_at_0_and_1,
    _int_add,
    _int_divmod,
    _int_mul,
    _q_minus_one_to,
    _split_over_z,
    _spread,
)
from .transform import InvariantTable, KIND_GV, TableBoundError, TableKindError

log = logging.getLogger(__name__)

__all__ = [
    "a_series",
    "b_series",
    "i_coefficient",
    "j_y_coefficient",
    "j_x_coefficient",
    "split_check",
    "SplitCheckReport",
    "SplitCheckResult",
    "DivisorPairing",
    "JmgsTerm",
    "JmgsRhs",
    "jmgs_rhs",
]


# Each object below is a rational function F(x), known by integer parts in x;
# at Novikov degree r the public builders store F(q^r), substituted on them.

# The cover series over x = q^r, keyed by their pole order m at x = 1:
#   a(r, x) = (r - (r-1) x) / (x-1)^2 = sum_k (r + k) x^k,
#   b(r, x) = (-r^2 + (2r^2+1) x + (1-r^2) x^2) / (x-1)^3 = sum_k (r^2 - k^2) x^k;
# each entry holds the numerator over (x-1)^m and the coefficient of x^k.
_COVER_FORMS = {
    2: (lambda r: (r, 1 - r), lambda r, k: r + k),
    3: (lambda r: (-r * r, 2 * r * r + 1, 1 - r * r), lambda r, k: r * r - k * k),
}


def _cover_at(r: int, pole: int, power: int) -> QRationalFunction:
    """a(r, x) (pole 2) or b(r, x) (pole 3) at x = q^power, from its entry in _COVER_FORMS."""
    if r < 1:
        raise ValueError("cover degree must be positive")
    return _from_poles_at_0_and_1(list(_COVER_FORMS[pole][0](r)), 0, pole, power)


@functools.cache
def _rank6_factors() -> tuple[tuple, tuple[tuple[int, int], ...]]:
    """The r-independent numerators of I and J in the rank-6 ring, built once.

    With N = 1 - P, N^2 = 0, so 1 - P x = (1 - x) + N x and

        (1 - P x)^-2 = ((x - 1) + 2x N) / (x - 1)^3.

    Returns (parts, constants): parts[k][c] = (-a_c, a_c + 2 b_c), the integer
    numerator over (x-1)^3 of coordinate c of M^(k+2) (1-P x)^-2, where
    a = M^(k+2), b = a N and M = 1 - Pt, for k = 0, 1, ... while
    M^(k+2) != 0; and coordinate c of (1-Pt)^2 (1+(1-P)) and (1-Pt)^2 (1-P)
    per c.  Raises ArithmeticError if N^2 != 0 or M^(rank+1) != 0.
    """
    one, p = ring_one(Y_RING), gen_p(Y_RING)
    m, n = one - p * gen_t(Y_RING), one - p
    if not (n * n).is_zero:
        raise ArithmeticError("(1 - P)^2 is not zero")
    parts, power = [], m * m
    while not power.is_zero:
        if len(parts) == Y_RING.rank - 1:  # power is M^(rank+1)
            raise ArithmeticError("1 - Pt is not nilpotent")
        pairs = zip(power.coords, (power * n).coords)
        parts.append(tuple([(int(-a), int(a + 2 * b)) for a, b in pairs]))
        power = power * m
    constants = zip((m * m * (one + n)).coords, (m * m * n).coords)
    return tuple(parts), tuple([(int(cd), int(cs)) for cd, cs in constants])


_POLE = 3  # the pole order at x = 1 of (1 - P x)^-2, and so of each I and J coordinate
# per coordinate c of the rank-2 ring: (coordinate c of 1 + (1-P) = 2 - P, of 1 - P)
_X_CONSTANTS = ((2, 1), (-1, -1))


def _nilpotent_weights(r: int, count: int) -> list[int]:  # (1-M)^(-2r) in powers of M
    return [math.comb(2 * r + k - 1, k) for k in range(count)]


def _i_numerators(r: int) -> list[list[int]]:
    # per coordinate, one integer combination over x^(r-1) (x-1)^3
    if r < 1:
        raise ValueError("Novikov degree must be positive")
    parts = _rank6_factors()[0]
    weights = _nilpotent_weights(r, len(parts))
    return [[sum(map(operator.mul, weights, col)) for col in zip(*n)] for n in zip(*parts)]


def _j_numerators(constants: tuple[tuple[int, int], ...], r: int) -> list[list[int]]:
    # per coordinate, cd a(r, x) + cs b(r, x) over (x-1)^3
    if r < 1:
        raise ValueError("cover degree must be positive")
    a, b = _int_mul(_COVER_FORMS[2][0](r), (-1, 1)), _COVER_FORMS[3][0](r)
    return [[cd * u + cs * v for u, v in zip(a, b)] for cd, cs in constants]


def _element(ring: RingSpec, nums: list[list[int]], at_0: int, power: int) -> KElem:
    # coordinate c is nums[c] / (x^at_0 (x-1)^_POLE), canonical, at x = q^power
    return KElem(ring, tuple([_from_poles_at_0_and_1(n, at_0, _POLE, power) for n in nums]))


def a_series(r: int) -> QRationalFunction:
    """Divisor-direction cover coefficient of degree r; a(r, 0) = r."""
    return _cover_at(r, 2, r)


def b_series(r: int) -> QRationalFunction:
    """Structure-sheaf cover coefficient of degree r; b(r, 0) = r^2."""
    return _cover_at(r, 3, r)


def i_coefficient(r: int) -> KElem:
    """Novikov-degree-r coefficient of the localization series, rank-6 ring.

    The telescoping products of (1 - Pt q^m) over (1 - P q^m) cancel
    against the (1-Pt)^2 prefactor (the absorption that
    scripts/run_all_checks.py checks), leaving

        (1-Pt)^2 / ((Pt)^{2r} x^{r-1} (1 - P x)^2)   at x = q^r.

    (Pt)^{-2r} = (1-M)^{-2r} is a finite sum, as M = 1 - Pt is nilpotent,
    and (1 - P x)^-2 = ((x-1) + 2x (1-P)) / (x-1)^3, as (1-P)^2 = 0; so no
    ring element is inverted (see _rank6_factors).
    """
    return _element(Y_RING, _i_numerators(r), r - 1, r)


def j_y_coefficient(r: int) -> KElem:
    """Novikov-degree-r coefficient of the cover-summed series, rank-6 ring."""
    return _element(Y_RING, _j_numerators(_rank6_factors()[1], r), 0, r)


def j_x_coefficient(r: int) -> KElem:
    """Same combination with the (1-Pt)^2 factor removed, rank-2 ring."""
    return _element(X_RING, _j_numerators(_X_CONSTANTS, r), 0, r)


@dataclass(frozen=True)
class SplitCheckResult:
    r: int
    passed: bool
    residuals: tuple[QRationalFunction, ...]  # proper part minus expected, per coordinate


@dataclass(frozen=True)
class SplitCheckReport:
    results: tuple[SplitCheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(res.passed for res in self.results)


def split_check(r_max: int) -> SplitCheckReport:
    """Coordinatewise: proper part of i_coefficient(r) == j_y_coefficient(r).

    Each coordinate is decided in x = q^r, where its denominator has
    degree about r instead of about r^2.  Every coordinate of I(r) and
    J(r) is F(q^r) for a rational function F(x): the builders use only
    field operations and rational constants, and substituting x = q^r is
    a field homomorphism from Q(x) to Q(q) that fixes Q, so building at
    x and then substituting gives the build in q.

    Substitution lemma: for rational functions F and G, G is the proper
    part of F exactly when G(q^r) is the proper part of F(q^r).  Let
    F = L + P be the unique split of F, with L a Laurent polynomial in x
    and P = n/d proper with d(0) != 0.  Then L(q^r) is a Laurent
    polynomial in q, and P(q^r) = n(q^r)/d(q^r) is proper, since both
    degrees are multiplied by r, and regular at 0, since d(0) != 0.  The
    split in q is unique too, so the proper part of F(q^r) is P(q^r).
    If G = P, then G(q^r) = P(q^r).  Conversely, if G(q^r) = P(q^r),
    then (G - P)(q^r) = 0; substitution moves each coefficient of the
    numerator to r times its exponent and drops none, so it is
    injective, and G = P.

    So each coordinate's residual, the proper part of I(r) minus J(r),
    is computed in x on integers and stored at x = q^r by
    :func:`~bps_kit.series._from_poles_at_0_and_1`.  Substitution is a
    homomorphism, so by the lemma this is the residual of the split in
    q.  Both builders give integer numerators over denominators fixed by
    construction: x^(r-1) (x-1)^3 for I and (x-1)^3 for J.  The integer
    split of I's numerator (:func:`~bps_kit.series._split_over_z`)
    leaves its proper part as a numerator over (x-1)^3, from which J's
    numerator is subtracted; no rational function is built or combined
    on the way.  A zero difference is the zero residual, the canonical
    0/1 built once per call; any other is made canonical by trial
    division by x - 1, with no gcd.

    A failing report carries the residuals, and a clean report only ever
    means the identity was actually checked.  Each r logs its verdict at
    DEBUG.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    zero = _from_int_parts((), (1,), 1, 1)
    den, constants = _q_minus_one_to(_POLE), _rank6_factors()[1]
    results = []
    for r in range(1, r_max + 1):
        residuals = []
        for i, j in zip(_i_numerators(r), _j_numerators(constants, r)):
            diff = _int_add(_split_over_z(i, r - 1, den)[2], j, -1)
            residuals.append(_from_poles_at_0_and_1(list(diff), 0, _POLE, r) if diff else zero)
        passed = all(res.is_zero for res in residuals)
        log.debug("split_check r=%d in x = q^r: %s", r, "passed" if passed else "failed")
        results.append(SplitCheckResult(r, passed, tuple(residuals)))
    return SplitCheckReport(tuple(results))


# ---------------------------------------------------------------------------
# the GV-weighted right-hand side for arbitrary genus-zero tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DivisorPairing:
    """Integer pairing vectors: the j-th divisor pairs with degree d as dot(vectors[j], d)."""

    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            vectors = tuple([tuple([operator.index(x) for x in v]) for v in self.vectors])
        except TypeError as exc:
            raise ValueError(f"pairing vectors {self.vectors!r} need integer entries") from exc
        if len({len(v) for v in vectors}) != 1 or not vectors[0]:
            raise ValueError(f"pairing vectors {self.vectors!r} must be nonempty, of one length")
        object.__setattr__(self, "vectors", vectors)

    @property
    def rank(self) -> int:
        return len(self.vectors[0])


@dataclass(frozen=True)
class JmgsTerm:
    """Data attached to one total Novikov degree.

    divisor_exact[j] multiplies the j-th divisor-direction symbol, and
    structure_exact multiplies the structure-sheaf symbol; expansions
    repeat the same data as truncated q-series for display.
    """

    divisor_exact: tuple[QRationalFunction, ...]
    divisor_expansion: tuple[LaurentSeries, ...]
    structure_exact: QRationalFunction
    structure_expansion: LaurentSeries


@dataclass(frozen=True)
class JmgsRhs:
    """The assembled right-hand side: 1 + sum over total degrees of terms.

    ``scale`` is S, the least common denominator of the table's genus-0
    values, and ``parts`` holds one pair (total, sums) per total degree,
    sorted by (sum(total), total): the :func:`_cover_sum` tuples (N, D, E)
    over S of each divisor direction and then of the structure direction.
    A value compares, hashes and pickles by these integer tuples.
    ``terms`` builds a read-only mapping of :class:`JmgsTerm`s, in
    ``parts`` order, on each read; ``dumps`` writes the integers directly.
    """

    lattice_rank: int
    r_max: int
    q_order: int
    scale: int
    parts: tuple[tuple[tuple[int, ...], tuple], ...]
    constant: ClassVar[Fraction] = Fraction(1)

    @property
    def terms(self) -> Mapping[tuple[int, ...], JmgsTerm]:
        terms = {}
        for total, sums in self.parts:
            *divisor, (exact, expansion) = [_cover_objects(p, self.scale) for p in sums]
            terms[total] = JmgsTerm(
                tuple([f for f, _ in divisor]), tuple([s for _, s in divisor]), exact, expansion
            )
        return types.MappingProxyType(terms)


def jmgs_rhs(
    gv: InvariantTable, pairing: DivisorPairing, r_max: int, q_order: int
) -> JmgsRhs:
    """Assemble the double sum over (degree d, cover degree r), grouped by r*d.

    Each nonzero genus-zero invariant GV_d contributes
    GV_d * dot(v_j, d) * a(r, q^r) in the j-th divisor direction and
    GV_d * b(r, q^r) in the structure direction, at total degree r*d.

    The sum is linear in the cover series, so it is assembled in two
    steps.  One pass over the sorted cells of the genus-zero layer
    records the integer weights of each total degree per cover degree r:
    n_d * dot(v_j, d) for the j-th divisor direction and n_d for the
    structure direction, where d = total / r and GV_d = n_d / S, with S
    the least common denominator of the layer's values.  Then each output
    is the weighted sum over r, built with its expansion from the closed
    forms of a and b (:func:`_cover_sum`); no cover series is built or
    expanded.  The sums share one :class:`_CoverSetup`, so each (r set,
    pole) pays its setup once per call and nothing outlives the call.
    Every sum stays integer tuples (N, D, E) over S, which the result
    stores once, in total degree order; the terms' rational functions
    and series are built when ``terms`` is read.
    """
    if gv.kind != KIND_GV:
        raise TableKindError(f"expected a {KIND_GV} table, got {gv.kind}")
    if any(cells for _, cells in gv._layers[1:]):
        raise TableBoundError("the right-hand side uses genus-zero invariants only")
    if pairing.rank != gv.lattice_rank:
        raise TableBoundError(
            f"pairing rank {pairing.rank} != table rank {gv.lattice_rank}"
        )
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    if q_order < 0:
        raise ValueError("expansion order must be nonnegative")
    scale, layer = gv._layers[0]
    common = math.gcd(scale, *layer.values()) if scale > 1 else 1  # equal tables, one S
    if common > 1:
        scale, layer = scale // common, {d: n // common for d, n in layer.items()}
    poles = [2] * len(pairing.vectors) + [3]
    # weights[total][r] = (divisor weights..., structure weight) of d = total / r
    weights: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for d, n in layer.items():
        w = tuple([n * sum(map(operator.mul, vec, d)) for vec in pairing.vectors]) + (n,)
        for r in range(1, r_max + 1):
            weights.setdefault(tuple([r * x for x in d]), {})[r] = w
    setup = _CoverSetup(q_order)  # local to the call: no size the caller picks outlives it
    parts = []
    for total in sorted(weights, key=lambda d: (sum(d), d)):
        items = sorted(weights[total].items())
        parts.append((total, tuple([
            _cover_sum([(r, w[j]) for r, w in items if w[j]], pole, setup)
            for j, pole in enumerate(poles)
        ])))
    counts = setup.counts
    log.debug(
        "jmgs_rhs: %d sums; Phi_d skipped by multiplicity %d, rejected mod q^d - 1 %d; "
        "divisions tried %d, succeeded %d",
        counts.sums, counts.skipped, counts.rejected, counts.tried, counts.divided,
    )
    return JmgsRhs(gv.lattice_rank, r_max, q_order, scale, tuple(parts))


@dataclass(slots=True)
class _DivisionCounts:
    """How the cyclotomic trial divisions of one jmgs_rhs call went."""

    sums: int = 0
    skipped: int = 0  # Phi_d with fewer than two weighted multiples of d
    rejected: int = 0  # Phi_d that do not divide N mod (q^d - 1)
    tried: int = 0  # divisions of N by Phi_d
    divided: int = 0  # of them, the exact ones


class _CoverSetup:
    """What the cover sums of one jmgs_rhs call share, each part built on first use.

    ``keys`` maps (r values, pole) to (divisors, tested, templates, den):
    the divisors d of those r; the indices of the Phi_d that the
    multiplicity rule leaves to test; per r, the numerator template
    num_r(q^r) P_r and the expansion template c_r(k), r k < q_order; and
    L, the denominator when no Phi_d divides out.  ``products`` maps
    ((d, e), ...) to the product of the Phi_d^e, each built from the
    product of all its factors but the last, so every Phi_d^pole and
    every denominator is built once, and equal denominators are one tuple.
    """

    __slots__ = ("q_order", "counts", "keys", "products", "expansions")

    def __init__(self, q_order: int):
        self.q_order = q_order
        self.counts = _DivisionCounts()
        self.keys: dict = {}
        self.products: dict = {(): (1,)}
        self.expansions: dict = {}  # (r, pole) -> expansion template

    def product(self, factors: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
        out = self.products.get(factors)
        if out is None:
            *rest, (d, e) = factors
            out = _cyclotomic(d)
            if e > 1:
                out = _int_mul(self.product(((d, e - 1),)), out)
            if rest:
                out = _int_mul(self.product(tuple(rest)), out)
            self.products[factors] = out
        return out

    def build(self, key: tuple[tuple[int, ...], int]) -> tuple:
        rs, pole = key
        numerator, coeff = _COVER_FORMS[pole]
        divisors = sorted({d for r in rs for d in range(1, r + 1) if r % d == 0})
        templates = []
        for r in rs:
            # at r = 1 the numerator may end in 0; num is trimmed in the sum
            others = self.product(tuple([(d, pole) for d in divisors if r % d]))
            expansion = self.expansions.get((r, pole))
            if expansion is None:
                count = len(range(0, self.q_order, r))
                expansion = self.expansions[r, pole] = [coeff(r, k) for k in range(count)]
            templates.append((_int_mul(_spread(numerator(r), r), others), expansion))
        tested = [i for i, d in enumerate(divisors) if sum([r % d == 0 for r in rs]) > 1]
        den = self.product(tuple([(d, pole) for d in divisors]))
        entry = self.keys[key] = divisors, tested, templates, den
        return entry


def _cover_sum(
    weights: list[tuple[int, int]], pole: int, setup: _CoverSetup
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Sum of w_r / S * a(r, q^r) (pole 2) or of w_r / S * b(r, q^r) (pole 3), with its expansion.

    ``weights`` holds the pairs (r, w_r), r ascending and w_r a nonzero
    integer; S > 0 is the caller's.  Returns integer tuples only:
    (N, D, E).  The exact sum is N / (S D), with N a trimmed integer tuple
    coprime to the monic integer tuple D (N = () and D = (1,) for zero),
    and its q^n coefficient for n < q_order is E[n] / S.
    :func:`_cover_objects` turns them into a QRationalFunction and a
    LaurentSeries.

    Both are summed in integers, times S.  The q^n coefficient is the
    sum of w_r c_r(n/r) over r | n, over S: E is the sum of the
    expansion templates c_r(k), each scaled by w_r and placed at stride
    r.  As q^r - 1 is the product of Phi_d over d | r, the exact sum is
    N / (S L), with L the product of Phi_d^pole over the divisors d of
    the r, and N the sum of w_r num_r(q^r) P_r, where P_r is the product
    of the Phi_d^pole of L with d not dividing r: N is the sum of the
    numerator templates num_r(q^r) P_r, each scaled by w_r.  A single r
    gives the scaled templates.  Each Phi_d is irreducible, so dividing
    it out of N while it divides, at most pole times, leaves N coprime
    to the rest of L, which is the monic D: the result is canonical with
    no gcd.

    Most Phi_d do not divide N, and two rules spare those the division.

    * Phi_d divides N only if two or more weighted r are multiples of d.
      For d | r, q^r = 1 mod Phi_d, so num_r(q^r) = num_r(1) mod Phi_d,
      which is c = 1 for a and c = 2 for b; every term with d not
      dividing r carries Phi_d^pole.  So N = c sum_{d | r} w_r P_r
      mod Phi_d, and each such P_r is coprime to Phi_d: with one such r
      the right side is not 0 mod Phi_d.  (Near a primitive d-th root
      zeta, 1 - q^r ~ r (unit) (q - zeta) for d | r, so the first Phi_d
      cancels exactly when sum_{d | r} w_r / r^pole = 0.)
    * Phi_d divides q^d - 1, so it divides N exactly when it divides
      N mod (q^d - 1), the d slice sums sum(N[j::d]), j < d.  That
      polynomial of degree < d is tested first; only when Phi_d divides
      it is N divided, and that division stays the check.

    The divisors, the Phi_d left to test, the templates and the
    denominators come from ``setup`` (:class:`_CoverSetup`), built once
    per (r values, pole); ``setup.counts`` tallies the divisions.
    """
    counts = setup.counts
    counts.sums += 1
    sums = [0] * setup.q_order
    if not weights:
        return (), (1,), tuple(sums)
    key = tuple([r for r, _ in weights]), pole
    divisors, tested, templates, den = setup.keys.get(key) or setup.build(key)
    # the first template, of the least r, is the longest (deg L - r); the
    # others are added onto it
    (r, w), (template, expansion) = weights[0], templates[0]
    num = [w * c for c in template]
    sums[::r] = [w * c for c in expansion]
    for (r, w), (template, expansion) in zip(weights[1:], templates[1:]):
        num[: len(template)] = [n + w * c for n, c in zip(num, template)]
        sums[::r] = [s + w * c for s, c in zip(sums[::r], expansion)]
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return (), (1,), tuple(sums)
    num = tuple(num)
    counts.skipped += len(divisors) - len(tested)
    lefts = [pole] * len(divisors)  # the power of each Phi_d left in the denominator
    for i in tested:
        d = divisors[i]
        cyc = _cyclotomic(d)
        while lefts[i]:
            fold = [sum(num[j::d]) for j in range(d)]
            while fold and fold[-1] == 0:
                fold.pop()
            if _int_divmod(fold, cyc)[1]:
                counts.rejected += 1
                break
            counts.tried += 1
            quo, rem = _int_divmod(num, cyc)
            if rem:
                break
            num = quo
            counts.divided += 1
            lefts[i] -= 1
    if min(lefts) < pole:  # a Phi_d was divided out
        den = setup.product(tuple([(d, e) for d, e in zip(divisors, lefts) if e]))
    return num, den, tuple(sums)


def _cover_objects(part, scale: int) -> tuple[QRationalFunction, LaurentSeries]:
    """The exact sum and the expansion of a :func:`_cover_sum` result (N, D, E) over S = ``scale``."""
    num, den, sums = part
    as_fraction = Fraction if scale == 1 else lambda c: Fraction(c, scale)
    expansion = LaurentSeries(QVAR, 0, map(as_fraction, sums), len(sums))
    return _from_int_parts(num, den, scale, 1), expansion
