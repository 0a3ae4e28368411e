"""Tests for the exact series / rational-function kernels."""

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
    PoleLocationError,
    QRationalFunction,
    TruncationError,
    VariableMismatchError,
    polar_split,
    q_power,
)
from bps_kit.series import (
    _clear_denominators,
    _cyclotomic,
    _from_poles_at_0_and_1,
    _int_divmod,
)
from bps_kit.jfunctions import a_series, b_series
from bps_kit.kring import KElem, Y_RING

from oracles import (
    cyclotomic_fraction,
    dict_mul,
    inv_power_series_coeff,
    laurent_add_naive,
    laurent_polynomial_to_qrf,
    long_division_inverse,
    polar_split_fraction,
    poly_long_division,
    poly_mul,
    substitute,
)

Fr = Fraction


def ls(terms, trunc, var=LAMBDA):
    return LaurentSeries.from_terms(var, terms, trunc)


def qrf(num, den=(1,)):
    return QRationalFunction(num, den)


# --- LaurentSeries basics ---------------------------------------------------


def test_mul_difference_of_squares():
    a = ls({0: 1, 1: 1}, 4, var=QVAR)
    b = ls({0: 1, 1: -1}, 4, var=QVAR)
    prod = a * b
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0
    assert prod.coefficient(2) == -1


def test_mul_monomial_shift():
    a = ls({-2: 1, 0: Fr(1, 12)}, 3)
    b = ls({2: 1}, 7)
    prod = a * b
    assert prod == ls({0: 1, 2: Fr(1, 12)}, 5)


def test_mul_sine_square_against_convolution_oracle():
    # square of the sine-type series: lambda - lambda^3/24 + lambda^5/1920
    terms = {1: Fr(1), 3: Fr(-1, 24), 5: Fr(1, 1920)}
    a = ls(terms, 6)
    sq = a * a
    expected = dict_mul(terms, terms)
    for e in range(2, sq.trunc_order):
        assert sq.coefficient(e) == expected.get(e, Fr(0))
    # frozen values from the convolution oracle
    assert sq.coefficient(2) == 1
    assert sq.coefficient(4) == Fr(-1, 12)
    assert sq.coefficient(6) == Fr(1, 360)


def test_mul_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        ls({0: 1}, 2) * ls({0: 1}, 2, var=QVAR)


def test_truncation_is_a_hard_error():
    a = ls({0: 1}, 3)
    with pytest.raises(TruncationError):
        a.coefficient(3)
    assert a.coefficient(-5) == 0


def test_add_truncates_to_weakest():
    a = ls({0: 1, 4: 1}, 6)
    b = ls({1: 2}, 3)
    s = a + b
    assert s.trunc_order == 3
    assert s.coefficient(1) == 2
    with pytest.raises(TruncationError):
        s.coefficient(4)


@pytest.mark.parametrize("var", [LAMBDA, QVAR])
def test_pow_matches_repeated_products(var):
    # negative valuation, a gap, and a short precision: a product keeps the
    # smaller precision past the valuation, so each power's truncation
    # order moves with its valuation
    x = LaurentSeries.from_terms(var, {-2: 3, -1: Fr(1, 2), 0: -1, 1: 0, 3: 5}, 4)
    assert x**0 == LaurentSeries.one(var, 4)
    repeated = x
    for n in range(1, 9):
        power = x**n
        assert power.trunc_order == repeated.trunc_order == 4 - 2 * (n - 1)
        assert (power.min_exp, power.coeffs) == (repeated.min_exp, repeated.coeffs)
        assert power == repeated
        repeated = repeated * x


def test_pow_of_the_zero_series_and_bad_exponents():
    zero = LaurentSeries.zero(LAMBDA, 3)
    assert zero**5 == zero * zero * zero * zero * zero
    for n in (-1, 1.0):
        with pytest.raises(ValueError):
            LaurentSeries.one(LAMBDA, 3) ** n


def test_invert_geometric():
    a = ls({0: 1, 1: -1}, 8, var=QVAR)
    inv = a.inverse(4)
    assert inv == ls({0: 1, 1: 1, 2: 1, 3: 1}, 4, var=QVAR)


def test_invert_monomial():
    a = ls({2: 1}, 8)
    assert a.inverse(2) == ls({-2: 1}, 2)


def test_invert_sine_square_matches_long_division_oracle():
    terms = {2: Fr(1), 4: Fr(-1, 12), 6: Fr(1, 360)}
    a = ls(terms, 8)
    inv = a.inverse(4)
    oracle = long_division_inverse(terms, 8)
    for e in range(-2, 4):
        assert inv.coefficient(e) == oracle.get(e, Fr(0))
    assert inv == ls({-2: 1, 0: Fr(1, 12), 2: Fr(1, 240)}, 4)


def test_invert_zero_series_fails():
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(LAMBDA, 5).inverse(2)


def test_invert_insufficient_precision():
    a = ls({2: 1, 4: 1}, 6)
    with pytest.raises(TruncationError):
        a.inverse(3)  # only determined up to order 6 - 4 = 2


def test_constructor_rejects_terms_beyond_truncation():
    with pytest.raises(TruncationError):
        LaurentSeries(QVAR, 0, [1, 2, 3], 2)
    # zero padding beyond the order is tolerated and trimmed
    s = LaurentSeries(QVAR, 0, [1, 2, 0, 0], 2)
    assert s.trunc_order == 2 and s.coefficient(1) == 2


def test_equality_and_hash_consistency():
    a = ls({0: 1, 2: Fr(1, 3)}, 4, var=QVAR)
    b = LaurentSeries(QVAR, -1, [0, 1, 0, Fr(1, 3)], 4)  # leading zero stripped
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.truncate(3)
    # a constant rational function equals its Fraction, so hashes alike
    one = QRationalFunction.constant(1)
    assert one == Fr(1) and hash(one) == hash(Fr(1))
    assert len({one, Fr(1)}) == 1
    assert hash(QRationalFunction.constant(0)) == hash(Fr(0))
    x = KElem(Y_RING, (one,) + (Fr(0),) * 5)
    y = KElem(Y_RING, (Fr(1),) + (QRationalFunction.constant(0),) * 5)
    assert x == y and hash(x) == hash(y)


def test_truncate_cannot_extend():
    a = ls({0: 1}, 3)
    with pytest.raises(TruncationError):
        a.truncate(5)
    assert a.truncate(3) == a


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
def test_trusted_series_constructor_matches_the_public_one(zeros, coeffs):
    # leading zeros, all-zero lists and the empty list (n = 0)
    coeffs = [Fr(0)] * zeros + coeffs
    n = len(coeffs)
    fast = LaurentSeries._from_fractions(QVAR, list(coeffs))
    slow = LaurentSeries(QVAR, 0, coeffs, n)
    fields = ("var", "min_exp", "coeffs", "trunc_order")
    assert [getattr(fast, f) for f in fields] == [getattr(slow, f) for f in fields]
    assert type(fast.coeffs) is tuple
    # min_exp is the valuation, or the truncation order for the zero series
    if any(coeffs):
        assert fast.coeffs[0] != 0
    else:
        assert fast.coeffs == () and fast.min_exp == n


def test_qrf_evaluate_pole():
    f = qrf([1], [1, -1])
    assert f.evaluate(Fr(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f.evaluate(1)


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@st.composite
def laurent_series(draw, var=LAMBDA):
    lo = draw(st.integers(min_value=-3, max_value=2))
    n = draw(st.integers(min_value=1, max_value=6))
    coeffs = draw(st.lists(small_fractions, min_size=n, max_size=n))
    return LaurentSeries(var, lo, coeffs, lo + n)


@given(a=laurent_series(), b=laurent_series())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(a=laurent_series(), b=laurent_series(), c=laurent_series())
@settings(max_examples=60)
def test_mul_associative_up_to_truncation(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    trunc = min(left.trunc_order, right.trunc_order)
    for e in range(min(left.min_exp, right.min_exp), trunc):
        assert left.coefficient(e) == right.coefficient(e)


@given(a=laurent_series())
def test_inverse_is_a_right_inverse(a):
    if a.is_zero:
        return
    order = a.trunc_order - 2 * a.min_exp
    inv = a.inverse(order)
    prod = a * inv
    assert prod.coefficient(0) == 1
    for e in range(prod.min_exp, prod.trunc_order):
        if e != 0:
            assert prod.coefficient(e) == 0


@given(a=laurent_series(), b=laurent_series())
def test_add_matches_term_by_term_oracle(a, b):
    assert a + b == laurent_add_naive(a, b)
    assert b + a == laurent_add_naive(a, b)


@given(a=laurent_series(QVAR), b=laurent_series(QVAR), c=st.sampled_from([1, -1, Fr(2, 3)]))
def test_add_matches_oracle_in_q(a, b, c):
    assert a + b * c == laurent_add_naive(a, b * c)
    assert a - b == laurent_add_naive(a, -b)


@given(a=laurent_series(QVAR))
def test_add_leading_cancellation_and_zero(a):
    zero = a + (-a)
    assert zero.is_zero and zero.coeffs == ()
    assert zero.min_exp == zero.trunc_order == a.trunc_order
    assert zero == laurent_add_naive(a, -a)
    for z in (LaurentSeries.zero(QVAR, a.trunc_order + 2), LaurentSeries.zero(QVAR, a.min_exp)):
        assert a + z == z + a == laurent_add_naive(a, z)


def test_add_cancels_leading_terms_only():
    a = ls({-1: 1, 0: 2, 1: 3}, 3, var=QVAR)
    b = ls({-1: -1, 0: -2, 2: 5}, 4, var=QVAR)
    assert a + b == ls({1: 3, 2: 5}, 3, var=QVAR)
    assert (a + b).min_exp == 1


def test_add_variable_mismatch():
    with pytest.raises(VariableMismatchError):
        ls({0: 1}, 2) + ls({0: 1}, 2, var=QVAR)


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
    assert f.expand(5) == LaurentSeries.zero(QVAR, 5)


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
    # the product series is truncated at the more precise of the two
    # orders its operands determine, which can exceed `order`
    assert (f * g).expand(order) == (f.expand(order) * g.expand(order)).truncate(order)


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
    assert f - f == QRationalFunction.constant(0)
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    if not f.is_zero:
        assert f / f == QRationalFunction.constant(1)
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


# --- polar_split -------------------------------------------------------------


def split_sum_matches(f):
    sp = polar_split(f)
    return laurent_polynomial_to_qrf(sp.laurent) + sp.proper == f


def test_split_already_proper():
    f = qrf([1], [1, -1])
    sp = polar_split(f)
    assert sp.laurent == {}
    assert sp.proper == f


def test_split_additive():
    f = q_power(-1) + qrf([1], [1, -2, 1])
    sp = polar_split(f)
    assert sp.laurent == {-1: Fr(1)}
    assert sp.proper == qrf([1], [1, -2, 1])
    assert split_sum_matches(f)


def test_split_monomial_over_one_minus_q():
    # q^3/(1-q): long-division oracle gives -1 - q - q^2 plus 1/(1-q);
    # the proper part must be regular at 0 AND vanish at infinity, which
    # pins the decomposition to exactly that one.
    f = qrf([0, 0, 0, 1], [1, -1])
    quo, rem = poly_long_division([Fr(0), Fr(0), Fr(0), Fr(1)], [Fr(1), Fr(-1)])
    sp = polar_split(f)
    assert sp.laurent == {0: Fr(-1), 1: Fr(-1), 2: Fr(-1)}
    assert sp.laurent == {e: c for e, c in enumerate(quo) if c != 0}
    assert sp.proper == qrf(rem, [1, -1])
    assert sp.proper == qrf([1], [1, -1])
    assert split_sum_matches(f)


def test_split_of_laurent_polynomial_has_zero_proper_part():
    f = q_power(-2) + q_power(3) * 5 + QRationalFunction.constant(7)
    sp = polar_split(f)
    assert sp.proper.is_zero
    assert sp.laurent == {-2: Fr(1), 0: Fr(7), 3: Fr(5)}


def test_split_proper_part_cases():
    one_minus_q = qrf([1], [1, -1])
    laurent = q_power(-3) * 2 + q_power(1) - 5
    cases = [
        (laurent + one_minus_q, one_minus_q, True),
        (laurent + one_minus_q, QRationalFunction.constant(0), False),
        (laurent, QRationalFunction.constant(0), True),
        (one_minus_q, one_minus_q, True),
        (laurent + qrf([1], [1, 0, -1]), one_minus_q, False),
        (laurent + one_minus_q * 3, one_minus_q, False),
        (one_minus_q, laurent + one_minus_q, False),
        (one_minus_q * q_power(-2), qrf([1], [1, -1]), True),
        # same numerator, another denominator of the same degree
        (qrf([1], [-1, 1]), qrf([1], [-2, 1]), False),
    ]
    for f, g, expected in cases:
        assert (polar_split(f).proper == g) == expected


def test_split_rejects_disallowed_pole():
    f = qrf([1], [1, -2])  # pole at q = 1/2
    with pytest.raises(PoleLocationError):
        polar_split(f)


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
    sp = polar_split(f)
    assert laurent_polynomial_to_qrf(sp.laurent) + sp.proper == f
    assert sp.proper.is_zero or sp.proper.is_proper
    assert sp.proper.regular_at_zero
    # idempotence: the proper part splits to itself
    again = polar_split(sp.proper)
    assert again.laurent == {}
    assert again.proper == sp.proper


@st.composite
def proper_regular_functions(draw):
    """A proper function regular at 0, over a product of factors (1 - q^k)^m."""
    den = QRationalFunction.constant(1)
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
    sp = polar_split(f)
    assert sp.laurent == laurent
    assert sp.proper == proper
    assert_canonical(sp.proper)
    assert polar_split(proper) == ({}, proper)
    assert sp.proper != proper + c


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
    sp = polar_split(f)
    laurent, proper = polar_split_fraction(f.num, f.den)
    assert sp.laurent == laurent
    assert (sp.proper.num, sp.proper.den) == proper
    assert all(type(c) is Fraction for c in [*sp.laurent.values(), *sp.proper.num, *sp.proper.den])


FOREIGN_FACTORS = [
    (-2, 1),  # q - 2
    (-1, -1, 1),  # q^2 - q - 1
    (-1, 2),  # a root at 1/2
    (-2, 0, 1),  # q^2 - 2
    (1, Fr(-6, 5), 1),  # roots on the unit circle that are not roots of unity
]


@pytest.mark.parametrize("foreign", FOREIGN_FACTORS)
@given(
    c=rational_coefficients.filter(bool),
    j=st.integers(0, 3),
    den=cyclotomic_denominators(),
)
@settings(max_examples=25, deadline=None)
def test_a_pole_off_the_roots_of_unity_raises_in_both_splits(foreign, c, j, den):
    # a monomial numerator cannot cancel the foreign factor
    f = qrf([0] * j + [c], poly_mul(den, foreign))
    with pytest.raises(PoleLocationError):
        polar_split(f)
    with pytest.raises(PoleLocationError):
        polar_split_fraction(f.num, f.den)


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
    expected = QRationalFunction(tuple(c * x for x in f.num), f.den)
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


# --- random rational functions ----------------------------------------------------


@st.composite
def rational_functions(draw):
    """Cover series, or random functions with a pole at 0 and any sign of lead."""
    if draw(st.booleans()):
        return draw(st.sampled_from([a_series, b_series]))(draw(st.integers(1, 6)))
    num = draw(st.lists(small_fractions, max_size=5))
    den = draw(st.lists(small_fractions, min_size=1, max_size=5).filter(lambda d: d[-1] != 0))
    if draw(st.booleans()):
        den = [-c for c in den]
    return qrf(num, [0] * draw(st.integers(0, 2)) + den)


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


@given(f=rational_functions(), g=rational_functions(), r=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_at_power_matches_substitution_oracle(f, g, r):
    fr = f.at_power(r)
    expected = substitute(f, r)
    assert (fr.num, fr.den) == (expected.num, expected.den)
    assert_canonical(fr)
    assert (f + g).at_power(r) == fr + g.at_power(r)
    assert (f * g).at_power(r) == fr * g.at_power(r)


@given(
    num=st.lists(st.integers(-4, 4), max_size=7),
    at_0=st.integers(0, 3),
    at_1=st.integers(0, 4),
    factors=st.tuples(st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=120, deadline=None)
def test_poles_at_0_and_1_match_the_gcd_construction(num, at_0, at_1, factors):
    # num times q^i (q-1)^j, so that the trial divisions have work to do
    zeros, ones = factors
    lifted = list(num)
    for _ in range(ones):
        lifted = [b - a for a, b in zip(lifted + [0], [0] + lifted)]
    lifted = [0] * zeros + lifted
    den = [0] * at_0 + [math.comb(at_1, k) * (-1) ** (at_1 - k) for k in range(at_1 + 1)]
    f = _from_poles_at_0_and_1(list(lifted), at_0, at_1)
    expected = QRationalFunction(lifted, den)
    assert (f.num, f.den) == (expected.num, expected.den)
    assert all(type(c) is Fraction for c in f.num + f.den)
    assert_canonical(f)


def test_at_power_needs_a_positive_power():
    f = qrf([1], [1, -1])
    assert f.at_power(1) == f
    assert f.at_power(3) == qrf([1], [1, 0, 0, -1])
    for r in (0, -1):
        with pytest.raises(ValueError):
            f.at_power(r)
