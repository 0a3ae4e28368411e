"""Tests for the finite-rank quotient rings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bps_kit.kring import (
    KElem,
    NotInvertibleError,
    RingMismatchError,
    X_RING,
    Y_RING,
    absorption_check,
    element,
    gen_p,
    gen_t,
    ring_one,
)
from bps_kit.series import QRationalFunction, q_power

Fr = Fraction

ONE = ring_one(Y_RING)
P = gen_p(Y_RING)
T = gen_t(Y_RING)
ZERO = KElem(Y_RING, (0,) * 6)


def test_defining_relations_vanish():
    assert ((ONE - P) * (ONE - P)).is_zero
    n = ONE - P * T
    assert (n * n * (ONE - T)).is_zero


def test_relation_in_small_ring():
    one = ring_one(X_RING)
    p = gen_p(X_RING)
    assert ((one - p) * (one - p)).is_zero


def test_relation_times_t_is_absorbed():
    n2 = (ONE - P * T) ** 2
    assert n2 * T == n2  # immediate from n2 * (1 - t) = 0


def test_monomial_constructor_reduces():
    assert element(Y_RING, {(2, 0): 1}) == 2 * P - ONE
    assert element(Y_RING, {(0, 3): 1}) == element(Y_RING, {(0, 3): Fr(1)})
    # t^3 normal form has no monomial of t-degree >= 3
    cube = element(Y_RING, {(0, 3): 1})
    assert len(cube.coords) == 6


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        P * gen_p(X_RING)
    with pytest.raises(RingMismatchError):
        gen_t(X_RING)
    with pytest.raises(RingMismatchError):
        element(X_RING, {(0, 1): 1})


def random_elem(rng, ring=Y_RING):
    return KElem(
        ring,
        tuple(Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ring.rank)),
    )


def test_ring_axioms_on_random_elements():
    rng = random.Random(42)
    for ring in (Y_RING, X_RING):
        one = ring_one(ring)
        for _ in range(250):
            a, b, c = (random_elem(rng, ring) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * one == a
    # roughly a thousand triples checked across both rings


def test_ideal_membership_under_multiplication():
    rng = random.Random(7)
    rel1 = (ONE - P) ** 2
    rel2 = (ONE - P * T) ** 2 * (ONE - T)
    for _ in range(100):
        x = random_elem(rng)
        assert (rel1 * x).is_zero
        assert (rel2 * x).is_zero


def _reduce_two_ways(a, b):
    """Reduce P^a t^b with the two rules applied in both orders."""
    from bps_kit.kring import _normalize_y, _T3, _PT3, _padd_into

    # order 1: the library order (P first, then t-cubes, re-reducing P)
    via_library = _normalize_y({(a, b): Fr(1)})

    # order 2: eliminate t-cubes first (tracking P-degree with the raw
    # cubic forms), only then reduce P-exponents.
    work = {(a, b): Fr(1)}
    while True:
        m = next((mm for mm in work if mm[1] >= 3 and mm[0] <= 1), None)
        m_high_p = next((mm for mm in work if mm[0] >= 2), None)
        if m is None and m_high_p is None:
            break
        if m is not None:
            pa, tb = m
            c = work.pop(m)
            cube = _T3 if pa == 0 else _PT3
            shifted = {(qa, qt + tb - 3): cc for (qa, qt), cc in cube.items()}
            _padd_into(work, shifted, c)
        else:
            pa, tb = m_high_p
            c = work.pop(m_high_p)
            _padd_into(work, {(pa - 1, tb): Fr(2), (pa - 2, tb): Fr(-1)}, c)
    return via_library, work


def test_rewrite_confluence_on_all_small_monomials():
    for a in range(5):
        for b in range(7):
            via_library, other_order = _reduce_two_ways(a, b)
            assert via_library == {
                m: c for m, c in other_order.items() if c != 0
            }, (a, b)


def test_nilpotency_structure():
    # degree of nilpotency of (1 - Pt) is four; its cube picks up (1 - P)
    n = ONE - P * T
    assert not (n ** 3).is_zero
    assert (n ** 4).is_zero
    assert n ** 3 == n ** 2 * (ONE - P)


def test_pt_inverse_is_geometric_sum():
    # Pt = 1 - n with n nilpotent, so the inverse is 1 + n + n^2 + n^3
    n = ONE - P * T
    pt = P * T
    inv = pt.inverse()
    assert inv == ONE + n + n ** 2 + n ** 3
    assert pt * inv == ONE


def test_p_inverse():
    inv = P.inverse()
    assert P * inv == ONE
    assert inv == 2 * ONE - P  # P^-1 = 2 - P since (1-P)^2 = 0


def test_non_invertible_element_raises():
    with pytest.raises(NotInvertibleError):
        (ONE - P).inverse()
    with pytest.raises(NotInvertibleError):
        ZERO.inverse()


def test_inverse_with_rational_function_coefficients():
    one = ring_one(Y_RING)
    f = one - P * q_power(2)
    inv = f.inverse()
    assert f * inv == one
    # matches the nilpotent closed form (1 + (P-1) u/(1-u)) / (1-u), u = q^2
    u = q_power(2)
    base = QRationalFunction([1], [1, 0, -1])  # 1/(1-q^2)
    closed = (one + (P - one) * (u * base)) * base
    assert inv == closed


small_coords = st.tuples(
    *[st.fractions(min_value=-5, max_value=5, max_denominator=4) for _ in range(6)]
)


@given(a=small_coords, b=small_coords)
@settings(max_examples=60)
def test_commutativity_property(a, b):
    x = KElem(Y_RING, a)
    y = KElem(Y_RING, b)
    assert x * y == y * x


@given(a=small_coords)
@settings(max_examples=60)
def test_unit_and_zero_property(a):
    x = KElem(Y_RING, a)
    assert x * ONE == x
    assert (x * ZERO).is_zero
    assert x - x == ZERO


def test_power_is_the_repeated_product():
    rng = random.Random(11)
    fraction_elements = [
        KElem(Y_RING, tuple(Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)))
        for _ in range(2)
    ]
    function_elements = [ONE - P * T * q_power(1), (ONE - P * q_power(1)).inverse()]
    for x in fraction_elements + function_elements:
        assert x**0 == ONE
        product = ONE
        for n in range(1, 10):
            product = product * x
            assert x**n == product


def test_absorption_identity():
    assert absorption_check(1)
    assert absorption_check(10)


def test_absorption_absorbs_all_powers_of_t():
    # (1-Pt)^2 (1-t) = 0 forces (1-Pt)^2 t^k = (1-Pt)^2 for every k, so
    # even the t^2 variant of the identity holds; absorption is not an
    # accident of the first power.
    one = ring_one(Y_RING)
    n2 = (one - P * T) ** 2
    q1 = q_power(1)
    assert n2 * (one - P * T * T * q1) == n2 * (one - P * q1)


def test_absorption_fails_without_the_square():
    # sensitivity control: a single factor of (1-Pt) does not absorb t,
    # because only (1-Pt)^2 (1-t) lies in the ideal.
    one = ring_one(Y_RING)
    n1 = one - P * T
    q1 = q_power(1)
    assert n1 * (one - P * T * q1) != n1 * (one - P * q1)
    assert not (n1 * (one - T)).is_zero


def test_scalar_mixing_fraction_and_qrf_coords():
    e = P * q_power(1) + T * Fr(1, 2)
    f = e * 2
    assert f == P * (q_power(1) * 2) + T
