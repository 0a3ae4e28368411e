"""Exact series and rational-function arithmetic over the rationals.

No floating point appears anywhere.  Polynomial work runs on one kernel
of integer coefficient tuples: product, division with remainder, gcd
and the Taylor step.  Rational polynomials are scaled to integers over
one lcm on the way in, and :class:`fractions.Fraction` appears only
where a value is stored or returned.  Two value types are provided:

* :class:`LaurentSeries` -- a stored truncated Laurent series in one
  formal variable (lambda, or q for the expansions of rational functions
  regular at q = 0).  It is a value, not an arithmetic type: the library
  computes its coefficients elsewhere and stores them.  The truncation
  order travels with the value, and reading a coefficient at or above it
  raises :class:`TruncationError` instead of silently returning zero.
* :class:`QRationalFunction` -- an exact rational function in q, stored
  gcd-reduced with a monic denominator so that structural equality is
  mathematical equality.

:func:`polar_split` decomposes a rational function whose poles lie only
at q = 0 and at roots of unity into a Laurent polynomial plus a proper
part (numerator degree < denominator degree) regular at q = 0.  That
decomposition is unique and both pieces are returned exactly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "LaurentSeries",
    "QRationalFunction",
    "PolarSplit",
    "polar_split",
    "q_power",
    "TruncationError",
    "PoleAtZeroError",
    "PoleLocationError",
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


class PoleLocationError(ValueError):
    """Raised when a rational function has a pole away from 0 and roots of unity."""


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
# Rational polynomials are scaled to integers over one lcm by
# _clear_denominators; Fractions are built again only for stored results.
# Hot paths build tuples as tuple([...]), not tuple(<generator>): a generator
# has no length hint, so CPython allocates a 10-slot tuple and resizes it.
# When such short tuples die they fill the interpreter's per-size tuple free
# lists, which then hold several MB that resident memory never gives back.
# ---------------------------------------------------------------------------


def _clear_denominators(*polys) -> tuple[int, list[tuple[int, ...]]]:
    """L and each of `polys` times L, where L is the lcm of all their denominators."""
    lcm = math.lcm(*[c.denominator for p in polys for c in p])
    return lcm, [tuple([c.numerator * (lcm // c.denominator) for c in p]) for p in polys]


def _int_trim(p) -> tuple[int, ...]:
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end])


def _int_primitive(p: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for c in p:
        g = math.gcd(g, abs(c))
    if g <= 1:
        return p
    return tuple([c // g for c in p])


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


def _int_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd, up to sign, of nonzero integer polynomials a and b.

    A primitive pseudo-remainder sequence.  The pseudo-remainder of A by
    B is the remainder of lead(B)^(deg A - deg B + 1) * A, whose division
    by B is exact over Z; dividing out the integer content at every step
    keeps coefficient growth under control.
    """
    A = _int_primitive(a)
    B = _int_primitive(b)
    if len(A) < len(B):
        A, B = B, A
    while B:
        scale = B[-1] ** (len(A) - len(B) + 1)
        A, B = B, _int_primitive(_int_divmod([scale * c for c in A], B)[1])
    return A


def _reduce(n: tuple[int, ...], d: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Canonical Fraction tuples of n/d, for trimmed integer n and d != ().

    n and d are divided exactly by their gcd (primitive, so by Gauss's
    lemma the quotients are integer polynomials), then once by the
    leading coefficient of d.
    """
    if not n:
        return (), (Fraction(1),)
    if len(n) > 1 and len(d) > 1:
        g = _int_gcd(n, d)
        if len(g) > 1:
            n = _int_divmod(n, g)[0]
            d = _int_divmod(d, g)[0]
    lead = d[-1]
    return tuple([Fraction(c, lead) for c in n]), tuple([Fraction(c, lead) for c in d])


def _spread(p, r: int):
    # p(q^r): the coefficient of q^e moves to q^(r*e); () stays ()
    out = [Fraction(0)] * (r * (len(p) - 1) + 1)
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


class LaurentSeries:
    """Truncated Laurent series with exact rational coefficients.

    Coefficients are stored densely from ``min_exp`` up to (excluding)
    ``trunc_order``.  Stored zeros are genuine zeros; exponents at or
    above ``trunc_order`` are unknown and reading them is an error.
    Instances are immutable; leading zeros are stripped on construction
    so ``min_exp`` is always the valuation (or equals ``trunc_order``
    for the zero series).
    """

    __slots__ = ("var", "min_exp", "coeffs", "trunc_order")

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

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.min_exp == other.min_exp
            and self.trunc_order == other.trunc_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.min_exp, self.coeffs, self.trunc_order))

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


class QRationalFunction:
    """Rational function in q over the rationals, in canonical form.

    Stored with gcd(numerator, denominator) = 1 and a monic denominator,
    so two instances are equal iff they are mathematically equal.  The
    zero function has an empty numerator tuple.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        _, (n, d) = _clear_denominators(
            [_as_fraction(c) for c in num], [_as_fraction(c) for c in den]
        )
        d = _int_trim(d)
        if not d:
            raise ZeroDivisionError("zero denominator")
        n, d = _reduce(_int_trim(n), d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, name, value):
        raise AttributeError("QRationalFunction is immutable")

    @classmethod
    def _from_canonical(cls, num: tuple, den: tuple) -> "QRationalFunction":
        # trusted construction: num and den are trimmed Fraction tuples that
        # are already coprime with den monic (and den == (1,) when num == ())
        out = object.__new__(cls)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @classmethod
    def constant(cls, c) -> "QRationalFunction":
        c = _as_fraction(c)
        return cls((c,) if c else ())

    @staticmethod
    def _coerce(x):
        if isinstance(x, QRationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return QRationalFunction.constant(x)
        return None

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_polynomial(self) -> bool:
        return self.den == (Fraction(1),)

    @property
    def is_proper(self) -> bool:
        """True iff the function vanishes as q goes to infinity."""
        return self.num_degree < self.den_degree

    @property
    def regular_at_zero(self) -> bool:
        return self.den[0] != 0

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        _, (a, b, c, d) = _clear_denominators(self.num, self.den, o.num, o.den)
        return QRationalFunction._from_canonical(
            *_reduce(_int_add(_int_mul(a, d), _int_mul(c, b)), _int_mul(b, d))
        )

    __radd__ = __add__

    def __neg__(self):
        return QRationalFunction._from_canonical(tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a nonzero scalar keeps num and den coprime and den monic
            if not other:
                return QRationalFunction._from_canonical((), (Fraction(1),))
            return QRationalFunction._from_canonical(
                tuple([other * c for c in self.num]), self.den
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        _, (a, b, c, d) = _clear_denominators(self.num, self.den, o.num, o.den)
        return QRationalFunction._from_canonical(*_reduce(_int_mul(a, c), _int_mul(b, d)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        _, (a, b, c, d) = _clear_denominators(self.num, self.den, o.num, o.den)
        return QRationalFunction._from_canonical(*_reduce(_int_mul(a, d), _int_mul(b, c)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (QRationalFunction.constant(1) / self) ** (-n)
        return _power(self, n) if n else QRationalFunction.constant(1)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if len(self.num) <= 1 and self.den == (1,):
            # a constant equals its Fraction, so it must hash alike
            return hash(self.num[0] if self.num else Fraction(0))
        return hash((self.num, self.den))

    def evaluate(self, x) -> Fraction:
        x = _as_fraction(x)
        n = Fraction(0)
        for c in reversed(self.num):
            n = n * x + c
        d = Fraction(0)
        for c in reversed(self.den):
            d = d * x + c
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {x}")
        return n / d

    def expand(self, order: int) -> LaurentSeries:
        """Taylor expansion at q = 0, exact, up to (excluding) `order`."""
        if order < 0:
            raise ValueError("expansion order must be nonnegative")
        if not self.regular_at_zero:
            raise PoleAtZeroError("cannot expand: pole at q = 0")
        return LaurentSeries(QVAR, 0, _poly_taylor(self.num, self.den, order), order)

    def at_power(self, r: int) -> "QRationalFunction":
        """f(q^r) for a positive integer r, with no gcd.

        Each coefficient moves from exponent e to exponent r*e.  The
        result is already canonical: the denominator stays monic, and a
        Bezout identity a*num + b*den = 1 becomes one for num(q^r) and
        den(q^r), so the two stay coprime.
        """
        if r < 1:
            raise ValueError("substitution q -> q^r needs a positive r")
        return QRationalFunction._from_canonical(_spread(self.num, r), _spread(self.den, r))

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


def q_power(n: int) -> QRationalFunction:
    """The monomial q**n as a rational function; n may be negative."""
    if n >= 0:
        return QRationalFunction((Fraction(0),) * n + (Fraction(1),))
    return QRationalFunction((Fraction(1),), (Fraction(0),) * (-n) + (Fraction(1),))


def _q_minus_one_to(m: int) -> tuple[int, ...]:
    return tuple([math.comb(m, k) * (-1) ** (m - k) for k in range(m + 1)])


def _from_poles_at_0_and_1(num: list[int], at_0: int, at_1: int) -> QRationalFunction:
    """num / (q^at_0 (q-1)^at_1) in canonical form, by trial division alone.

    q and q - 1 are the only irreducible factors of the denominator, and
    they divide the integer polynomial num exactly when num(0) = 0 and
    num(1) = 0.  So once q is stripped while num(0) = 0 and q - 1 divided
    out while num(1) = 0, num is coprime to the denominator, which is
    monic: no gcd is needed.
    """
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return QRationalFunction._from_canonical((), (Fraction(1),))
    low = min(at_0, next(i for i, c in enumerate(num) if c))
    num = tuple(num[low:])
    while at_1 and not sum(num):
        num = _int_divmod(num, (-1, 1))[0]
        at_1 -= 1
    den = (0,) * (at_0 - low) + _q_minus_one_to(at_1)
    return QRationalFunction._from_canonical(
        tuple([Fraction(c) for c in num]), tuple([Fraction(c) for c in den])
    )


# ---------------------------------------------------------------------------
# split into Laurent polynomial + proper part regular at 0
# ---------------------------------------------------------------------------


class PolarSplit(NamedTuple):
    """Result of :func:`polar_split`: f = laurent + proper, exactly.

    ``laurent`` maps exponents to coefficients (a Laurent polynomial in
    q); ``proper`` has numerator degree < denominator degree and no pole
    at q = 0.
    """

    laurent: dict[int, Fraction]
    proper: QRationalFunction


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


def _euler_phi(d: int) -> int:
    out = d
    n = d
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def _check_roots_of_unity(poly: tuple[int, ...]) -> None:
    """Raise PoleLocationError unless every root of `poly` is a root of unity.

    Each Phi_d is monic, so it divides the integer polynomial `poly` over
    Q exactly when it does over Z.
    """
    w = poly
    deg0 = len(w) - 1
    d = 1
    # phi(d) >= sqrt(d/2), so no cyclotomic factor can hide past 2*deg^2
    while len(w) > 1 and d <= 2 * deg0 * deg0 + 1:
        if _euler_phi(d) <= len(w) - 1:
            cyc = _cyclotomic(d)
            while len(w) > 1:
                quo, rem = _int_divmod(w, cyc)
                if rem:
                    break
                w = quo
        d += 1
    if len(w) > 1:
        raise PoleLocationError(
            "denominator has a pole away from q = 0 and roots of unity"
        )


def _split_over_z(n, k: int, den: tuple[int, ...]) -> tuple[list, tuple, tuple]:
    """(principal, quo, rem) with n / (q^k den) = principal / q^k + quo + rem / den.

    n is an integer polynomial, den is monic with den(0) = +-1, so the
    Taylor step and the division stay in integers.  With p the first k
    Taylor coefficients of n / den, the polynomial n - p den is divisible
    by q^k; quo and rem are the quotient and remainder of (n - p den) / q^k
    by den.  Every common factor of rem and den divides n, so when n is
    coprime to den, so is rem: the proper part needs no gcd.
    """
    principal = _poly_taylor(n, den, k)
    # (n - principal * den) / q^k: from q^k up, principal * den only
    # involves the last deg(den) principal coefficients, from t on
    t = max(k - len(den) + 1, 0)
    n = _int_add(n[k:], _int_mul(principal[t:], den)[k - t :], -1)
    return (principal, *_int_divmod(n, den))


def polar_split(f: QRationalFunction) -> PolarSplit:
    """Split f into a Laurent polynomial plus a proper part regular at 0.

    The poles of f must lie at q = 0 or at roots of unity.  The two
    constraints (Laurent polynomial; proper and regular at 0) pin the
    decomposition uniquely: the difference of two candidates would be a
    Laurent polynomial vanishing at infinity and regular at 0, hence 0.

    Write f = num / (q^k den) with den(0) != 0.  The split runs over Z by
    a cyclotomic-product lemma: den is monic, and a monic polynomial over
    Q whose roots are all roots of unity is the product of the minimal
    polynomials of its roots, each a cyclotomic Phi_d.  So when the
    roots-of-unity check passes on the integer form of den, den was an
    integer polynomial already, monic, with den(0) = +-1 (Phi_1(0) = -1
    and Phi_d(0) = 1 for d > 1); any other den raises PoleLocationError.
    num is cleared once to N / L with N integral, N / (q^k den) is split
    by :func:`_split_over_z`, and Fractions c / L are built only for the
    output coefficients.
    """
    _, (den,) = _clear_denominators(f.den)
    k = next(i for i, c in enumerate(den) if c)  # strip the q-power
    den = den[k:]
    _check_roots_of_unity(den)  # so den is f.den[k:] by the lemma
    lcm, (n,) = _clear_denominators(f.num)
    principal, quo, rem = _split_over_z(n, k, den)
    laurent = {i - k: Fraction(c, lcm) for i, c in enumerate(principal) if c}
    laurent.update({e: Fraction(c, lcm) for e, c in enumerate(quo) if c})
    if not rem:
        return PolarSplit(laurent, QRationalFunction._from_canonical((), (Fraction(1),)))
    proper = tuple([Fraction(c, lcm) for c in rem])
    return PolarSplit(laurent, QRationalFunction._from_canonical(proper, f.den[k:]))
