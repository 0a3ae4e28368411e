"""Exact series and rational functions in q over the rationals.

No floating point appears anywhere.  Polynomial work runs on one kernel
of integer coefficient tuples: product, division with remainder, the
Taylor step and the integer split of a quotient into Laurent polynomial
plus proper part (:func:`_split_over_z`).  :class:`fractions.Fraction`
appears only where a value is stored or returned.  Two value types are
provided, both stored values rather than arithmetic types: the library
computes their coefficients from integers elsewhere and stores them.
Both are frozen dataclasses with slots, so a field cannot be assigned
or deleted.

* :class:`LaurentSeries` -- a truncated Laurent series in one formal
  variable (lambda, or q for the expansions of rational functions
  regular at q = 0).  The truncation order travels with the value, and
  reading a coefficient at or above it raises :class:`TruncationError`
  instead of silently returning zero.
* :class:`QRationalFunction` -- a rational function in q, stored with a
  numerator coprime to a monic denominator, so that structural equality
  is mathematical equality.  Every one is built canonical by one
  constructor from integer parts in x = q^r (:func:`_from_int_parts`),
  which substitutes on integers and takes no gcd, and is then expanded
  or written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "LaurentSeries",
    "QRationalFunction",
    "TruncationError",
    "PoleAtZeroError",
    "LAMBDA",
    "QVAR",
]

LAMBDA = "lambda"
QVAR = "q"

_SYMBOL = {"lambda": "λ", "q": "q"}


class TruncationError(ValueError):
    """Raised when a coefficient at or beyond the truncation order is read."""


class PoleAtZeroError(ZeroDivisionError):
    """Raised when expanding a rational function with a pole at q = 0."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


# ---------------------------------------------------------------------------
# integer polynomial kernel (ascending int tuples, trimmed, () = 0)
#
# Fractions are built only for stored results.  Hot paths build tuples as
# tuple([...]), not tuple(<generator>): a generator has no length hint, so
# CPython allocates a 10-slot tuple and resizes it.
# When such short tuples die they fill the interpreter's per-size tuple free
# lists, which then hold several MB that resident memory never gives back.
# ---------------------------------------------------------------------------


def _int_trim(p) -> tuple[int, ...]:
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def _int_add(a: tuple[int, ...], b: tuple[int, ...], scale: int = 1) -> tuple[int, ...]:
    """a + scale * b, trimmed."""
    out = [0] * max(len(a), len(b))
    out[: len(a)] = a
    for i, c in enumerate(b):
        out[i] += scale * c
    return _int_trim(out)


def _int_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # product of trimmed integer polynomials; the leading coefficient of a
    # product of nonzero polynomials is nonzero, so nothing needs trimming
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _int_divmod(a, b: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of trimmed integer polynomials a by b, over Z.

    Raises ArithmeticError when a quotient coefficient is not an integer,
    which cannot happen when b is monic.  b divides a exactly when the
    remainder is ().
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[k] = c
            for i in range(db):  # the top coefficient cancels by construction
                r[k + i] -= c * b[i]
    return tuple(q), _int_trim(r[:db])


def _spread(p, r: int) -> tuple[int, ...]:
    # p(q^r) for an integer tuple p: the coefficient of q^e moves to q^(r*e); () stays ()
    out = [0] * (r * (len(p) - 1) + 1)
    out[::r] = p
    return tuple(out)


def _poly_taylor(num, den, order: int) -> list:
    """First `order` Taylor coefficients of num/den at 0.

    den[0] must be a unit of the coefficient ring: integer tuples with
    den[0] = +-1 give integers, and Fraction tuples with den[0] != 0 give
    Fractions.  Zero coefficients of den are skipped, so a sparse
    denominator costs only its nonzero terms.
    """
    d0 = den[0]
    inv = d0 if d0 == 1 or d0 == -1 else 1 / d0
    terms = [(k, c) for k, c in enumerate(den) if k and c]
    out: list = []
    for m in range(order):
        s = num[m] if m < len(num) else 0  # int 0, so integers stay integers
        for k, c in terms:
            if k > m:
                break
            s -= c * out[m - k]
        out.append(s * inv)
    return out


def _power(base, n: int):
    """base ** n for n >= 1, by square and multiply, starting from base, not from 1."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _poly_str(p, var: str = "q") -> str:
    if not p:
        return "0"
    return _terms_str(((e, c) for e, c in enumerate(p) if c != 0), var)


def _terms_str(terms, var: str) -> str:
    sym = _SYMBOL.get(var, var)
    parts: list[str] = []
    for e, c in terms:
        if e == 0:
            body = str(c if c > 0 else -c)
        else:
            tok = sym if e == 1 else f"{sym}^{e}"
            mag = c if c > 0 else -c
            body = tok if mag == 1 else f"{mag}·{tok}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# truncated Laurent series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False, repr=False)
class LaurentSeries:
    """Truncated Laurent series with exact rational coefficients.

    Coefficients are stored densely from ``min_exp`` up to (excluding)
    ``trunc_order``.  Stored zeros are genuine zeros; exponents at or
    above ``trunc_order`` are unknown and reading them is an error.
    A frozen value, equal to another when all four fields are; leading
    zeros are stripped on construction so ``min_exp`` is always the
    valuation (or equals ``trunc_order`` for the zero series).
    """

    var: str
    min_exp: int
    coeffs: tuple[Fraction, ...]
    trunc_order: int

    def __init__(self, var: str, min_exp: int, coeffs, trunc_order: int):
        vals = [_as_fraction(c) for c in coeffs]
        if min_exp + len(vals) > trunc_order:
            extra = vals[trunc_order - min_exp :]
            if any(extra):
                raise TruncationError(
                    "nonzero coefficients supplied at or beyond the truncation order"
                )
            vals = vals[: trunc_order - min_exp]
        while vals and vals[0] == 0:
            vals.pop(0)
            min_exp += 1
        if not vals:
            min_exp = trunc_order
        vals.extend([Fraction(0)] * (trunc_order - min_exp - len(vals)))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", tuple(vals))
        object.__setattr__(self, "trunc_order", trunc_order)

    @classmethod
    def _from_fractions(cls, var: str, coeffs: list) -> "LaurentSeries":
        # trusted construction: coeffs is a list of Fractions, the coefficients
        # of var^0 .. var^(len - 1), truncated at len; only leading zeros are
        # stripped, so min_exp is the valuation (len for the zero series)
        start = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
        out = object.__new__(cls)
        object.__setattr__(out, "var", var)
        object.__setattr__(out, "min_exp", start)
        object.__setattr__(out, "coeffs", tuple(coeffs[start:]))
        object.__setattr__(out, "trunc_order", len(coeffs))
        return out

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient at `exponent`; a hard error past the truncation order."""
        if exponent >= self.trunc_order:
            raise TruncationError(
                f"coefficient of exponent {exponent} is beyond truncation "
                f"order {self.trunc_order}"
            )
        if exponent < self.min_exp:
            return Fraction(0)
        return self.coeffs[exponent - self.min_exp]

    def terms(self):
        """Yield (exponent, coefficient) pairs for nonzero stored terms."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.min_exp + i, c

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        return _terms_str(self.terms(), self.var)

    def __repr__(self):
        return (
            f"LaurentSeries({self.var!r}, {self!s}, "
            f"trunc_order={self.trunc_order})"
        )


# ---------------------------------------------------------------------------
# exact rational functions in q
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class QRationalFunction:
    """Rational function in q over the rationals, in canonical form.

    A frozen value: ``num`` and ``den`` are trimmed Fraction tuples with
    gcd(num, den) = 1 and den monic, so two instances are equal iff they
    are mathematically equal, and a constant equals its Fraction.  The
    zero function is num = () over den = (1,).  The library builds every
    instance canonical from integer parts through :func:`_from_int_parts`
    and does no arithmetic on it.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @classmethod
    def _from_canonical(cls, num: tuple, den: tuple) -> "QRationalFunction":
        # trusted construction: num and den are trimmed Fraction tuples that
        # are already coprime with den monic (and den == (1,) when num == ())
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_polynomial(self) -> bool:
        return self.den == (Fraction(1),)

    @property
    def regular_at_zero(self) -> bool:
        return self.den[0] != 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, QRationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            # a constant equals its Fraction
            return self.den == (1,) and self.num == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        if len(self.num) <= 1 and self.den == (1,):
            # a constant equals its Fraction, so it must hash alike
            return hash(self.num[0] if self.num else Fraction(0))
        return hash((self.num, self.den))

    def expand(self, order: int) -> LaurentSeries:
        """Taylor expansion at q = 0, exact, up to (excluding) `order`."""
        if order < 0:
            raise ValueError("expansion order must be nonnegative")
        if not self.regular_at_zero:
            raise PoleAtZeroError("cannot expand: pole at q = 0")
        return LaurentSeries(QVAR, 0, _poly_taylor(self.num, self.den, order), order)

    def __str__(self):
        if self.is_zero:
            return "0"
        num, den = self.num, self.den
        first = next(c for c in den if c != 0)
        if first < 0:
            # display with a positive lowest denominator coefficient; the
            # stored form stays monic
            num = [-c for c in num]
            den = [-c for c in den]
        ns = _poly_str(num)
        if self.is_polynomial:
            return ns
        return f"({ns}) / ({_poly_str(den)})"

    def __repr__(self):
        return f"QRationalFunction({self!s})"


def _q_minus_one_to(m: int) -> tuple[int, ...]:
    return tuple([math.comb(m, k) * (-1) ** (m - k) for k in range(m + 1)])


def _from_int_parts(num, den, scale: int, r: int) -> QRationalFunction:
    """num(q^r) / (scale den(q^r)) as a stored rational function, with no gcd.

    num is a trimmed integer tuple coprime to the monic integer tuple den
    (() over (1,) for zero); scale and r are positive.  x -> q^r keeps den
    monic and turns a Bezout identity a num + b den = 1 into one for
    num(q^r) and den(q^r), and a positive scale changes neither.
    """
    # Fraction(c) skips the gcd of Fraction(c, 1); the spread's zeros share one Fraction
    as_fraction = Fraction if scale == 1 else lambda c: Fraction(c, scale)
    zero = Fraction(0)
    return QRationalFunction._from_canonical(
        tuple([as_fraction(c) if c else zero for c in _spread(num, r)]),
        tuple([Fraction(c) if c else zero for c in _spread(den, r)]),
    )


def _from_poles_at_0_and_1(num: list[int], at_0: int, at_1: int, r: int) -> QRationalFunction:
    """num / (x^at_0 (x-1)^at_1) in canonical form at x = q^r, by trial division alone.

    x and x - 1 are the only irreducible factors of the denominator, and
    they divide the integer polynomial num exactly when num(0) = 0 and
    num(1) = 0.  So once x is stripped while num(0) = 0 and x - 1 divided
    out while num(1) = 0, num is coprime to the denominator, which is
    monic: no gcd is needed, in x or, by :func:`_from_int_parts`, in q.
    The zero numerator loses every factor and ends as 0/1.
    """
    while num and num[-1] == 0:
        num.pop()
    low = min(at_0, next((i for i, c in enumerate(num) if c), at_0))
    num = tuple(num[low:])
    while at_1 and not sum(num):
        num = _int_divmod(num, (-1, 1))[0]
        at_1 -= 1
    return _from_int_parts(num, (0,) * (at_0 - low) + _q_minus_one_to(at_1), 1, r)


# ---------------------------------------------------------------------------
# split into Laurent polynomial + proper part regular at 0
# ---------------------------------------------------------------------------


@functools.cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """The cyclotomic polynomial Phi_d as an ascending integer tuple.

    q^d - 1 divided by Phi_e for every proper divisor e of d.
    """
    p = (-1,) + (0,) * (d - 1) + (1,)
    for e in range(1, d):
        if d % e == 0:
            p = _int_divmod(p, _cyclotomic(e))[0]
    return p


def _split_over_z(n, k: int, den: tuple[int, ...]) -> tuple[list, tuple, tuple]:
    """(principal, quo, rem) with n / (q^k den) = principal / q^k + quo + rem / den.

    n is an integer polynomial, den is monic with den(0) = +-1, so the
    Taylor step and the division stay in integers.  With p the first k
    Taylor coefficients of n / den, the polynomial n - p den is divisible
    by q^k; quo and rem are the quotient and remainder of (n - p den) / q^k
    by den.  Every common factor of rem and den divides n, so when n is
    coprime to den, so is rem: the proper part needs no gcd.

    This is the split of the quotient into a Laurent polynomial
    (principal / q^k + quo) and a proper part regular at q = 0 (rem / den).
    The two constraints pin it: the difference of two candidates would be
    a Laurent polynomial that vanishes at infinity and is regular at 0,
    hence 0.
    """
    principal = _poly_taylor(n, den, k)
    # (n - principal * den) / q^k: from q^k up, principal * den only
    # involves the last deg(den) principal coefficients, from t on
    t = max(k - len(den) + 1, 0)
    n = _int_add(n[k:], _int_mul(principal[t:], den)[k - t :], -1)
    return (principal, *_int_divmod(n, den))
