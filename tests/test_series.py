"""Tests for the exact series kernels and the stored series and rational functions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bps_kit.series import (
    LAMBDA,
    QVAR,
    LaurentSeries,
    PoleAtZeroError,
    QRationalFunction,
    TruncationError,
)
from bps_kit.series import (
    _cyclotomic,
    _from_int_parts,
    _from_poles_at_0_and_1,
    _int_divmod,
    _split_over_z,
)
from bps_kit.jfunctions import a_series
from bps_kit.kring import KElem, Y_RING
from bps_kit.transform import _series_power

from oracles import (
    QRF,
    _clear_denominators,
    _int_gcd,
    cyclotomic_fraction,
    inv_power_series_coeff,
    laurent_polynomial_to_qrf,
    lift,
    polar_split_fraction,
    poly_long_division,
    poly_mul,
    q_power,
    substitute,
)

Fr = Fraction


def qrf(num, den=(1,)):
    return QRF(num, den)


# --- LaurentSeries basics ---------------------------------------------------


def test_truncation_is_a_hard_error():
    a = LaurentSeries(LAMBDA, 0, [1, 0, 0], 3)
    with pytest.raises(TruncationError):
        a.coefficient(3)
    assert a.coefficient(-5) == 0


def test_constructor_rejects_terms_beyond_truncation():
    with pytest.raises(TruncationError):
        LaurentSeries(QVAR, 0, [1, 2, 3], 2)
    # zero padding beyond the order is tolerated and trimmed
    s = LaurentSeries(QVAR, 0, [1, 2, 0, 0], 2)
    assert s.trunc_order == 2 and s.coefficient(1) == 2


def test_equality_and_hash_consistency():
    a = LaurentSeries(QVAR, 0, [1, 0, Fr(1, 3)], 4)
    b = LaurentSeries(QVAR, -1, [0, 1, 0, Fr(1, 3)], 4)  # leading zero stripped
    assert a == b
    assert hash(a) == hash(b)
    assert a != LaurentSeries(QVAR, 0, [1, 0, Fr(1, 3)], 3)
    c, d = a_series(2).expand(5), a_series(2).expand(5)
    assert c is not d and c == d and hash(c) == hash(d)
    assert c != a_series(2).expand(4) and c != a_series(3).expand(5)
    # a constant rational function equals its Fraction, so hashes alike
    one = QRationalFunction._from_canonical((Fr(1),), (Fr(1),))
    zero = QRationalFunction._from_canonical((), (Fr(1),))
    assert one == Fr(1) and one == 1 and hash(one) == hash(Fr(1))
    assert len({one, Fr(1)}) == 1
    assert zero == 0 and hash(zero) == hash(Fr(0))
    assert one != 2 and zero != one and one == QRF.constant(1)
    x = KElem(Y_RING, (one,) + (Fr(0),) * 5)
    y = KElem(Y_RING, (Fr(1),) + (zero,) * 5)
    assert x == y and hash(x) == hash(y)


def test_qseries_reads_are_bounded():
    s = LaurentSeries(QVAR, 0, [1, 2], 2)
    assert s.coefficient(1) == 2
    with pytest.raises(TruncationError):
        s.coefficient(2)
    assert s.coefficient(-1) == 0


@given(
    zeros=st.integers(0, 4),
    coeffs=st.lists(st.one_of(st.just(Fr(0)), st.fractions(-5, 5, max_denominator=7)), max_size=6),
)
@example(zeros=0, coeffs=[])
@example(zeros=3, coeffs=[])
@example(zeros=2, coeffs=[Fr(1, 3), Fr(0)])
def test_series_constructor_stores_the_valuation_up_to_the_order(zeros, coeffs):
    # leading zeros, all-zero lists and the empty list (n = 0)
    coeffs = [Fr(0)] * zeros + coeffs
    n = len(coeffs)
    s = LaurentSeries(QVAR, 0, coeffs, n)
    assert type(s.coeffs) is tuple
    assert s.min_exp + len(s.coeffs) == s.trunc_order == n
    # min_exp is the valuation, or the truncation order for the zero series
    if any(coeffs):
        assert s.coeffs[0] != 0
        assert s.min_exp == next(i for i, c in enumerate(coeffs) if c)
    else:
        assert s.coeffs == () and s.min_exp == n


@given(
    min_exp=st.integers(-4, 8),
    coeffs=st.lists(st.one_of(st.just(Fr(0)), st.fractions(-5, 5, max_denominator=7)), max_size=6),
    trunc_order=st.integers(-2, 6),
)
# every supplied exponent at or past the order is checked, also when all are
@example(min_exp=5, coeffs=[Fr(1), Fr(0), Fr(0)], trunc_order=3)
@example(min_exp=4, coeffs=[Fr(1), Fr(0)], trunc_order=3)
@example(min_exp=5, coeffs=[Fr(0)] * 3, trunc_order=3)
@example(min_exp=-2, coeffs=[Fr(0), Fr(1, 2)], trunc_order=4)
def test_series_fills_its_coefficients_up_to_the_order(min_exp, coeffs, trunc_order):
    past = [c for i, c in enumerate(coeffs) if min_exp + i >= trunc_order]
    if any(past):
        with pytest.raises(TruncationError, match="at or beyond the truncation order"):
            LaurentSeries(QVAR, min_exp, coeffs, trunc_order)
        return
    s = LaurentSeries(QVAR, min_exp, coeffs, trunc_order)
    assert s.min_exp + len(s.coeffs) == s.trunc_order == trunc_order
    if not any(coeffs):
        assert s.coeffs == () and s.min_exp == trunc_order
    assert dict(s.terms()) == {min_exp + i: c for i, c in enumerate(coeffs) if c}
    for e in range(min(min_exp, trunc_order) - 1, trunc_order):
        assert s.coefficient(e) == (coeffs[e - min_exp] if 0 <= e - min_exp < len(coeffs) else 0)


def test_qrf_evaluate_pole():
    f = qrf([1], [1, -1])
    assert f.evaluate(Fr(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


# --- unit-series powers: the integer routine behind every lambda-series -------------

unit_series = st.lists(small_fractions, max_size=7).map(lambda terms: [Fr(1), *terms])


def test_invert_geometric():
    # 1/(1 - x) and 1/(1 - x)^2
    one_minus_x = [Fr(1), Fr(-1)]
    assert _series_power(lambda j: one_minus_x[j] if j < 2 else 0, -1, 5) == [1] * 5
    square = _series_power(lambda j: one_minus_x[j] if j < 2 else 0, -2, 5)
    assert square == [inv_power_series_coeff(2, m) for m in range(5)]


@given(w=unit_series, alpha=st.integers(-3, -1))
@settings(max_examples=80, deadline=None)
def test_inverse_is_a_right_inverse(w, alpha):
    # w^alpha times w, -alpha times over, is 1 up to the known order
    n = len(w)
    product = _series_power(lambda j: w[j], alpha, n)
    assert all(type(c) is Fraction for c in product)
    for _ in range(-alpha):
        product = (list(poly_mul(product, w)) + [Fr(0)] * n)[:n]
    assert product == [Fr(1)] + [Fr(0)] * (n - 1)


@given(w=unit_series, alpha=st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_series_power_matches_repeated_products(w, alpha):
    n = len(w)
    expected = [Fr(1)] + [Fr(0)] * (n - 1)
    for _ in range(alpha):
        expected = (list(poly_mul(expected, w)) + [Fr(0)] * n)[:n]
    assert _series_power(lambda j: w[j], alpha, n) == expected


# --- expansions in q / QRationalFunction --------------------------------------


def test_expand_inverse_square():
    f = qrf([1], [1, -2, 1])  # 1/(1-q)^2
    s = f.expand(4)
    assert s == LaurentSeries(QVAR, 0, [1, 2, 3, 4], 4)
    for n in range(4):
        assert s.coefficient(n) == inv_power_series_coeff(2, n)


def test_expand_zero_numerator():
    r = 1
    f = qrf([r - 1], [1, -1])
    assert f.is_zero
    assert f.expand(5) == LaurentSeries(QVAR, 0, [], 5)


def test_expand_geometric_in_q_squared():
    f = qrf([1], [1, 0, -1])  # 1/(1-q^2)
    assert f.expand(5) == LaurentSeries(QVAR, 0, [1, 0, 1, 0, 1], 5)


def test_expand_pole_at_zero_rejected():
    f = qrf([1], [0, 1])
    with pytest.raises(PoleAtZeroError):
        f.expand(3)


def test_qrf_canonical_form():
    # (1-q^2)/(1-q) reduces to 1+q with monic denominator
    f = qrf([1, 0, -1], [1, -1])
    assert f.num == (Fr(1), Fr(1))
    assert f.den == (Fr(1),)
    # cross-multiplication equality agrees with structural equality
    g = qrf([2, 2], [2])
    assert f == g


def test_qrf_equality_is_cross_multiplication():
    f = qrf([1, 1], [1, 0, 2])
    g = qrf([3, 3], [3, 0, 6])
    assert f == g
    assert f != qrf([1, 1], [1, 0, 3])


@given(
    n1=st.lists(small_fractions, min_size=1, max_size=4),
    n2=st.lists(small_fractions, min_size=1, max_size=4),
)
@settings(max_examples=60)
def test_expand_is_multiplicative(n1, n2):
    f = qrf(n1, [1, -1])
    g = qrf(n2, [1, 1, 1])
    order = 6
    product = (f * g).expand(order)
    factors = [[s.coefficient(e) for e in range(order)] for s in (f.expand(order), g.expand(order))]
    assert product.trunc_order == order
    expected = list(poly_mul(*factors)) + [Fr(0)] * order
    assert [product.coefficient(e) for e in range(order)] == expected[:order]


@st.composite
def unreduced_quotients(draw):
    """(num * g * content, den * g): a common factor g and a non-unit rational content."""
    num = draw(st.lists(small_fractions, max_size=4))
    den = draw(st.lists(small_fractions, min_size=1, max_size=4).filter(any))
    g = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
    content = draw(st.sampled_from([Fr(2, 3), Fr(-5, 7), Fr(6), Fr(1, 10**12), Fr(-(10**20), 3)]))
    return [c * content for c in poly_mul(num, g)], list(poly_mul(den, g))


@given(
    num=st.lists(small_fractions, min_size=1, max_size=4),
    den_choice=st.sampled_from([(1, -1), (1, 0, -1), (1, -2, 1)]),
    h=unreduced_quotients(),
)
@settings(max_examples=60)
def test_qrf_field_axioms_sampled(num, den_choice, h):
    f = qrf(num, den_choice)
    g = qrf([1, 2], [1, 0, 0, -1])
    h = qrf(*h)
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == QRF.constant(0)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    if not f.is_zero:
        assert f / f == QRF.constant(1)
    if not h.is_zero:
        assert (f * h) / h == f


def sympy_canonical(expr):
    """Ascending (numerator, denominator) of sympy's cancel(expr), made monic."""
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    n, d = sympy.fraction(sympy.cancel(expr))
    lead = sympy.Poly(d, q).LC()

    def coeffs(p):
        out = [Fr(int(c.p), int(c.q)) for c in reversed(sympy.Poly(p / lead, q).all_coeffs())]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    return coeffs(n), coeffs(d)


@given(a=unreduced_quotients(), b=unreduced_quotients())
@settings(max_examples=80, deadline=None)
def test_integer_reduced_qrf_matches_sympy_cancel(a, b):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def expr(p):
        return sum([sympy.Rational(c.numerator, c.denominator) * q**e for e, c in enumerate(p)])

    ea, eb = expr(a[0]) / expr(a[1]), expr(b[0]) / expr(b[1])
    f, g = qrf(*a), qrf(*b)
    cases = [(f, ea), (g, eb), (f + g, ea + eb), (f - g, ea - eb), (f * g, ea * eb)]
    if not g.is_zero:
        cases.append((f / g, ea / eb))
    for got, want in cases:
        assert (got.num, got.den) == sympy_canonical(want)
        assert all(type(c) is Fraction for c in got.num + got.den)


# --- the split into Laurent polynomial + proper part ------------------------------


def split(f):
    """(laurent, proper) of f by the integer split, checked against the Fraction split.

    f's denominator is q^k times a monic integer polynomial with constant
    term +-1, as every denominator the library splits is.  f's numerator is
    cleared to integers over one lcm L, split by _split_over_z, and read
    back over L.
    """
    k = next(i for i, c in enumerate(f.den) if c)
    den = tuple([int(c) for c in f.den[k:]])
    assert den == f.den[k:] and den[0] in (1, -1)
    lcm, (n,) = _clear_denominators(f.num)
    principal, quo, rem = _split_over_z(n, k, den)
    laurent = {i - k: Fr(c, lcm) for i, c in enumerate(principal) if c}
    laurent.update({e: Fr(c, lcm) for e, c in enumerate(quo) if c})
    proper = QRF._from_canonical(tuple([Fr(c, lcm) for c in rem]), f.den[k:]) if rem else QRF(())
    assert (laurent, (proper.num, proper.den)) == polar_split_fraction(f.num, f.den)
    return laurent, proper


def split_sum_matches(f):
    laurent, proper = split(f)
    return laurent_polynomial_to_qrf(laurent) + proper == f


def test_split_already_proper():
    f = qrf([1], [1, -1])
    laurent, proper = split(f)
    assert laurent == {}
    assert proper == f


def test_split_additive():
    f = q_power(-1) + qrf([1], [1, -2, 1])
    laurent, proper = split(f)
    assert laurent == {-1: Fr(1)}
    assert proper == qrf([1], [1, -2, 1])
    assert split_sum_matches(f)


def test_split_monomial_over_one_minus_q():
    # q^3/(1-q): long-division oracle gives -1 - q - q^2 plus 1/(1-q);
    # the proper part must be regular at 0 AND vanish at infinity, which
    # pins the decomposition to exactly that one.
    f = qrf([0, 0, 0, 1], [1, -1])
    quo, rem = poly_long_division([Fr(0), Fr(0), Fr(0), Fr(1)], [Fr(1), Fr(-1)])
    laurent, proper = split(f)
    assert laurent == {0: Fr(-1), 1: Fr(-1), 2: Fr(-1)}
    assert laurent == {e: c for e, c in enumerate(quo) if c != 0}
    assert proper == qrf(rem, [1, -1])
    assert proper == qrf([1], [1, -1])
    assert split_sum_matches(f)


def test_split_of_laurent_polynomial_has_zero_proper_part():
    f = q_power(-2) + q_power(3) * 5 + QRF.constant(7)
    laurent, proper = split(f)
    assert proper.is_zero
    assert laurent == {-2: Fr(1), 0: Fr(7), 3: Fr(5)}


def test_split_proper_part_cases():
    one_minus_q = qrf([1], [1, -1])
    laurent = q_power(-3) * 2 + q_power(1) - 5
    cases = [
        (laurent + one_minus_q, one_minus_q, True),
        (laurent + one_minus_q, QRF.constant(0), False),
        (laurent, QRF.constant(0), True),
        (one_minus_q, one_minus_q, True),
        (laurent + qrf([1], [1, 0, -1]), one_minus_q, False),
        (laurent + one_minus_q * 3, one_minus_q, False),
        (one_minus_q, laurent + one_minus_q, False),
        (one_minus_q * q_power(-2), qrf([1], [1, -1]), True),
        # same numerator, another denominator of the same degree
        (qrf([1], [-1, 1]), qrf([1], [-2, 1]), False),
    ]
    for f, g, expected in cases:
        assert (split(f)[1] == g) == expected


def test_split_accepts_higher_cyclotomic_poles():
    f = qrf([1, 5], [1, 0, 0, 0, 0, -1]) * q_power(-3)  # poles at 0 and 5th roots
    assert split_sum_matches(f)


@given(
    num=st.lists(small_fractions, min_size=1, max_size=5),
    k=st.integers(min_value=0, max_value=3),
    r=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=80)
def test_split_properties_random(num, k, r, m):
    den = [Fr(0)] * k + [Fr(1)]
    base = qrf([1] + [0] * (r - 1) + [-1])  # 1 - q^r
    f = qrf(num, den) / base**m
    laurent, proper = split(f)
    assert laurent_polynomial_to_qrf(laurent) + proper == f
    assert proper.is_zero or proper.is_proper
    assert proper.regular_at_zero
    # idempotence: the proper part splits to itself
    assert split(proper) == ({}, proper)


@st.composite
def proper_regular_functions(draw):
    """A proper function regular at 0, over a product of factors (1 - q^k)^m."""
    den = QRF.constant(1)
    factors = st.tuples(
        st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2)
    )
    for k, m in draw(st.lists(factors, min_size=1, max_size=2)):
        den = den * qrf([1] + [0] * (k - 1) + [-1]) ** m
    num = draw(st.lists(small_fractions, max_size=den.num_degree))
    return qrf(num, den.num)


@given(
    laurent=st.dictionaries(st.integers(min_value=-3, max_value=3), small_fractions),
    proper=proper_regular_functions(),
    c=small_fractions.filter(bool),
)
@settings(max_examples=80)
def test_split_is_unique(laurent, proper, c):
    laurent = {e: v for e, v in laurent.items() if v}
    f = laurent_polynomial_to_qrf(laurent) + proper
    got_laurent, got_proper = split(f)
    assert got_laurent == laurent
    assert got_proper == proper
    assert_canonical(got_proper)
    assert split(proper) == ({}, proper)
    assert got_proper != proper + c


# --- the integer split against the Fraction split ---------------------------------

rational_coefficients = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**30)


@st.composite
def cyclotomic_denominators(draw):
    """q^k times a product of Phi_d^e with d <= 12 and e <= 3."""
    den = (Fr(1),)
    for d, e in draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 3)), max_size=3)):
        for _ in range(e):
            den = poly_mul(den, cyclotomic_fraction(d))
    return (Fr(0),) * draw(st.integers(0, 4)) + den


@given(num=st.lists(rational_coefficients, max_size=14), den=cyclotomic_denominators())
@settings(max_examples=150, deadline=None)
def test_integer_split_matches_the_fraction_split(num, den):
    f = qrf(num, den)
    laurent, proper = split(f)  # split asserts the match with the Fraction split
    assert all(type(c) is Fraction for c in [*laurent.values(), *proper.num, *proper.den])


# --- scaling by a scalar ----------------------------------------------------------

SCALARS = [0, 1, -1, Fr(3, 7), Fr(-3, 7), 10**40 + 7, -(3**90)]


@given(
    num=st.lists(small_fractions, min_size=0, max_size=5),
    den=st.lists(small_fractions, min_size=1, max_size=5).filter(any),
    c=st.sampled_from(SCALARS),
)
@settings(max_examples=80)
def test_scalar_mul_matches_general_constructor(num, den, c):
    sympy = pytest.importorskip("sympy")
    f = qrf(num, den)
    expected = QRF(tuple(c * x for x in f.num), f.den)
    for scaled in (f * c, c * f):
        assert scaled == expected
        assert hash(scaled) == hash(expected)
        assert (scaled.num, scaled.den) == (expected.num, expected.den)
        assert scaled.den[-1] == 1
        if scaled.num:
            q = sympy.Symbol("q")
            n = sympy.Poly(list(reversed(scaled.num)), q, domain="QQ")
            d = sympy.Poly(list(reversed(scaled.den)), q, domain="QQ")
            assert sympy.gcd(n, d).degree() == 0
        else:
            assert scaled.den == (Fr(1),)


def assert_canonical(f):
    """Monic denominator, zero as 0/1, and numerator coprime to denominator."""
    assert f.den[-1] == 1
    if not f.num:
        assert f.den == (Fr(1),)
        return
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    n = sympy.Poly(list(reversed(f.num)), q, domain="QQ")
    d = sympy.Poly(list(reversed(f.den)), q, domain="QQ")
    assert sympy.gcd(n, d).degree() == 0


# --- clearing denominators -----------------------------------------------------------


@given(st.lists(st.fractions(max_denominator=10**30), max_size=12))
@settings(max_examples=100)
def test_clear_denominators_matches_fraction_products(coeffs):
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = tuple(int(c * lcm) for c in coeffs)
    assert _clear_denominators(tuple(coeffs)) == (lcm, [ints])
    # several polynomials share one lcm
    half = len(coeffs) // 2
    assert _clear_denominators(coeffs[:half], coeffs[half:]) == (lcm, [ints[:half], ints[half:]])


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_table_against_sympy_and_the_divisor_product(n):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    phi = _cyclotomic(n)
    assert all(type(c) is int for c in phi)
    assert phi == tuple(reversed(sympy.Poly(sympy.cyclotomic_poly(n, q), q).all_coeffs()))
    # q^n - 1 is the product of Phi_d over the divisors d of n
    prod = sympy.Integer(1)
    for d in range(1, n + 1):
        if n % d == 0:
            prod *= sum(c * q**e for e, c in enumerate(_cyclotomic(d)))
    assert sympy.expand(prod - (q**n - 1)) == 0


def test_int_divexact_rejects_an_inexact_quotient():
    # an exact division is one with remainder (); an inexact one shows
    # a nonzero remainder or, for a quotient off Z, raises
    assert _int_divmod((1, 0, -1), (1, -1)) == ((1, 1), ())
    assert _int_divmod((), (3, 1)) == ((), ())
    assert _int_divmod((1, 0, 1), (1, 1)) == ((-1, 1), (2,))  # nonzero remainder
    with pytest.raises(ArithmeticError):
        _int_divmod((1, 2), (2,))  # quotient (1/2, 1) is not integral
    assert _int_divmod((3,), (1, 1)) == ((), (3,))  # lower degree than the divisor
    assert _int_divmod((0, 6, 4), (3, 2)) == ((0, 2), ())  # a non-monic exact divisor


# --- substitution q -> q^r -----------------------------------------------------------


@st.composite
def integer_parts(draw):
    """(num, den): a trimmed integer numerator coprime to a monic integer denominator."""
    num = draw(st.lists(st.integers(-5, 5), max_size=5))
    den = [0] * draw(st.integers(0, 2)) + draw(st.lists(st.integers(-5, 5), max_size=4)) + [1]
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return (), (1,)
    # divide out the gcd: it divides the monic den, so its lead is +-1
    g = _int_gcd(tuple(num), tuple(den))
    num, den = _int_divmod(tuple(num), g)[0], _int_divmod(tuple(den), g)[0]
    if den[-1] < 0:
        num, den = tuple([-c for c in num]), tuple([-c for c in den])
    return num, den


@given(f=integer_parts(), g=integer_parts(), scale=st.integers(1, 6), r=st.integers(1, 4))
@example(f=((), (1,)), g=((1,), (1,)), scale=6, r=4)
@example(f=((3, 0, 2), (0, 0, 1)), g=((-1, 1), (1, 2, 1)), scale=4, r=3)
@settings(max_examples=80, deadline=None)
def test_from_int_parts_matches_substitution_oracle(f, g, scale, r):
    fr = _from_int_parts(*f, scale, r)
    f_x = QRF([Fr(c, scale) for c in f[0]], f[1])
    expected = substitute(f_x, r)
    assert (fr.num, fr.den) == (expected.num, expected.den)
    assert all(type(c) is Fraction for c in fr.num + fr.den)
    assert_canonical(fr)
    # x -> q^r is a ring homomorphism, so sums and products built in x agree
    g_x, gr = QRF(*g), lift(_from_int_parts(*g, 1, r))
    assert substitute(f_x + g_x, r) == lift(fr) + gr
    assert substitute(f_x * g_x, r) == lift(fr) * gr


@given(
    num=st.lists(st.integers(-4, 4), max_size=7),
    at_0=st.integers(0, 3),
    at_1=st.integers(0, 4),
    factors=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    r=st.integers(1, 4),
)
@settings(max_examples=120, deadline=None)
def test_poles_at_0_and_1_match_the_gcd_construction(num, at_0, at_1, factors, r):
    # num times q^i (q-1)^j, so that the trial divisions have work to do
    zeros, ones = factors
    lifted = list(num)
    for _ in range(ones):
        lifted = [b - a for a, b in zip(lifted + [0], [0] + lifted)]
    lifted = [0] * zeros + lifted
    den = [0] * at_0 + [math.comb(at_1, k) * (-1) ** (at_1 - k) for k in range(at_1 + 1)]
    f = _from_poles_at_0_and_1(list(lifted), at_0, at_1, r)
    expected = substitute(QRF(lifted, den), r)
    assert (f.num, f.den) == (expected.num, expected.den)
    assert all(type(c) is Fraction for c in f.num + f.den)
    assert_canonical(f)
